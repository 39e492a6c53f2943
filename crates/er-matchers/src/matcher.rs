//! The matcher abstraction shared by all eight algorithms.

use std::sync::OnceLock;

use er_core::{Adjacency, CsrGraph, Edge, MappedCsr, Matching, SimilarityGraph, SortedEdges};

/// The edge store behind a [`PreparedGraph`]: a plain similarity graph,
/// the compact 12 B/edge CSR slab, or the file-backed columnar store —
/// all **borrowed**. The matchers never touch the store (they consume the
/// adjacency and sorted views), so a CSR-backed or file-backed graph is
/// matched natively, without first expanding into an owned
/// `SimilarityGraph` (the old `GraphStore::Owned` memory cliff:
/// +16 B/edge of redundant triples, +the dedup index, for data the views
/// already carry).
#[derive(Clone, Copy)]
enum GraphStore<'g> {
    Graph(&'g SimilarityGraph),
    Csr(&'g CsrGraph),
    Mapped(&'g MappedCsr),
}

impl GraphStore<'_> {
    #[inline]
    fn n_left(&self) -> u32 {
        match self {
            GraphStore::Graph(g) => g.n_left(),
            GraphStore::Csr(c) => c.n_left(),
            GraphStore::Mapped(m) => m.n_left(),
        }
    }

    #[inline]
    fn n_right(&self) -> u32 {
        match self {
            GraphStore::Graph(g) => g.n_right(),
            GraphStore::Csr(c) => c.n_right(),
            GraphStore::Mapped(m) => m.n_right(),
        }
    }

    /// Heap bytes the store itself keeps resident (edge data only, not
    /// the matcher views). A file-backed store reports its mapped file
    /// length — the bytes the OS pages in, not workspace heap.
    fn store_bytes(&self) -> usize {
        match self {
            GraphStore::Graph(g) => g.n_edges() * std::mem::size_of::<Edge>(),
            GraphStore::Csr(c) => c.slab_bytes(),
            GraphStore::Mapped(m) => m.file_bytes(),
        }
    }
}

/// Where the weight-descending total order lives.
///
/// `Ram` is a heap-resident [`SortedEdges`]; `Mapped` means the order is
/// the **sorted edge section of the file itself** — prefixes are decoded
/// straight from the map and no edge copy ever materializes.
enum SortedStore<'g> {
    Ram(SortedEdges),
    Mapped(&'g MappedCsr),
}

/// A weight-descending edge sequence: either a resident prefix slice or
/// a zero-copy window over a mapped store's sorted edge section. `Copy`,
/// so matchers pass it around like the slices it replaces; iteration
/// yields [`Edge`]s by value either way.
#[derive(Clone, Copy)]
pub enum EdgeSeq<'a> {
    /// A resident sorted prefix (the classic path).
    Ram(&'a [Edge]),
    /// Ranks `start..end` of a mapped store's sorted edge section.
    Mapped {
        /// The file-backed store; edges decode from the map per access.
        store: &'a MappedCsr,
        /// First sorted rank of the window.
        start: usize,
        /// One past the last sorted rank of the window.
        end: usize,
    },
}

impl<'a> EdgeSeq<'a> {
    /// Number of edges in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            EdgeSeq::Ram(s) => s.len(),
            EdgeSeq::Mapped { start, end, .. } => end - start,
        }
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th edge (0 = heaviest). Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Edge {
        match self {
            EdgeSeq::Ram(s) => s[i],
            EdgeSeq::Mapped { store, start, end } => {
                assert!(start + i < *end, "edge rank {i} out of bounds");
                store.sorted_edge(start + i)
            }
        }
    }

    /// The subsequence from `from` (clamped to the length) to the end —
    /// what a threshold step admits past the previous threshold's prefix.
    #[inline]
    pub fn tail(&self, from: usize) -> EdgeSeq<'a> {
        match *self {
            EdgeSeq::Ram(s) => EdgeSeq::Ram(&s[from.min(s.len())..]),
            EdgeSeq::Mapped { store, start, end } => EdgeSeq::Mapped {
                store,
                start: (start + from).min(end),
                end,
            },
        }
    }

    /// Iterate the edges by value, heaviest first.
    #[inline]
    pub fn iter(&self) -> EdgeSeqIter<'a> {
        EdgeSeqIter { seq: *self, cur: 0 }
    }
}

/// Iterator over an [`EdgeSeq`], yielding [`Edge`]s by value.
pub struct EdgeSeqIter<'a> {
    seq: EdgeSeq<'a>,
    cur: usize,
}

impl Iterator for EdgeSeqIter<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        if self.cur < self.seq.len() {
            let e = self.seq.get(self.cur);
            self.cur += 1;
            Some(e)
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.seq.len() - self.cur;
        (n, Some(n))
    }
}

impl ExactSizeIterator for EdgeSeqIter<'_> {}

impl<'a> IntoIterator for EdgeSeq<'a> {
    type Item = Edge;
    type IntoIter = EdgeSeqIter<'a>;

    fn into_iter(self) -> EdgeSeqIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &EdgeSeq<'a> {
    type Item = Edge;
    type IntoIter = EdgeSeqIter<'a>;

    fn into_iter(self) -> EdgeSeqIter<'a> {
        self.iter()
    }
}

/// A similarity graph bundled with its weight-descending sorted edge
/// view and its CSR adjacency, shared by every algorithm run (the paper
/// times the algorithms on an already-loaded graph; view construction is
/// part of graph loading).
///
/// The sorted view turns "edges above `t`" into a prefix found by one
/// binary search ([`PreparedGraph::edges_above`]), which is what makes
/// threshold sweeps incremental: see [`crate::delta`].
///
/// Graphs can come in borrowed ([`PreparedGraph::new`], the usual case),
/// pre-sorted ([`PreparedGraph::from_sorted`]), straight from the
/// compact CSR store pruned production graphs live in
/// ([`PreparedGraph::from_csr`], no expansion), or from the columnar
/// on-disk store ([`PreparedGraph::from_mapped`], file-backed) — the
/// matchers and the sweep engine are oblivious to the source. For a
/// mapped store the sorted view **is the file's sorted edge section**:
/// the prepared graph keeps zero resident edge copies.
///
/// Whatever the store, the adjacency (which only RSR, RCA, BMC, EXC and
/// KRC consume) is built lazily on first use by one `O(n + m)` scatter
/// of the sorted view ([`Adjacency::from_sorted`]), so the
/// prefix-consuming algorithms never pay for it.
pub struct PreparedGraph<'g> {
    graph: GraphStore<'g>,
    adjacency: OnceLock<Adjacency>,
    sorted: SortedStore<'g>,
}

impl<'g> PreparedGraph<'g> {
    fn with_sorted(graph: GraphStore<'g>, sorted: SortedStore<'g>) -> Self {
        PreparedGraph {
            graph,
            adjacency: OnceLock::new(),
            sorted,
        }
    }

    /// Sort `graph`'s edges into the weight-descending view (one packed-key
    /// sort, see [`SortedEdges::from_edges`]).
    pub fn new(graph: &'g SimilarityGraph) -> Self {
        Self::from_sorted(graph, graph.sorted_edges())
    }

    /// Wrap a graph together with a sorted edge view built elsewhere —
    /// e.g. emitted by `er-pipeline`'s construction engine — skipping the
    /// `O(m log m)` sort [`PreparedGraph::new`] would pay.
    ///
    /// `sorted` must be the weight-descending view of exactly `graph`'s
    /// edge set (debug builds verify the edge count and the descending
    /// weight order).
    pub fn from_sorted(graph: &'g SimilarityGraph, sorted: SortedEdges) -> Self {
        debug_assert_eq!(
            sorted.len(),
            graph.n_edges(),
            "sorted view must cover the graph's edges"
        );
        debug_assert!(
            sorted.all().windows(2).all(|w| w[0].weight >= w[1].weight),
            "sorted view must descend by weight"
        );
        Self::with_sorted(GraphStore::Graph(graph), SortedStore::Ram(sorted))
    }

    /// Prepare a graph held in the compact CSR store **natively**: build
    /// the matcher views straight off the slab, so the threshold-sweep
    /// engine runs **unchanged** on pruned graphs without ever expanding
    /// an owned `SimilarityGraph`. Only the store's *live* edges enter
    /// the views, so a store with pending deltas is matched as-is.
    ///
    /// The views are identical to [`PreparedGraph::new`] on the expanded
    /// graph — the sort key is a total order, so the input edge order is
    /// irrelevant — while resident memory drops by the expanded graph's
    /// `16 B/edge` triples plus its dedup index.
    ///
    /// ```
    /// use er_core::{CsrGraph, GraphBuilder};
    /// use er_matchers::{Matcher, PreparedGraph, Umc};
    ///
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 0, 0.9).unwrap();
    /// b.add_edge(1, 1, 0.8).unwrap();
    /// let csr = CsrGraph::from_graph(&b.build());
    /// let prepared = PreparedGraph::from_csr(&csr);
    /// let matching = Umc.run(&prepared, 0.5);
    /// assert_eq!(matching.pairs(), &[(0, 0), (1, 1)]);
    /// ```
    pub fn from_csr(csr: &CsrGraph) -> PreparedGraph<'_> {
        let sorted = SortedEdges::from_edges(csr.iter().collect());
        PreparedGraph::with_sorted(GraphStore::Csr(csr), SortedStore::Ram(sorted))
    }

    /// Prepare a **file-backed** columnar store ([`MappedCsr`]) without
    /// materializing it as an in-RAM `CsrGraph` or `SimilarityGraph`:
    /// the weight-descending view **is the file's sorted edge section**,
    /// so "edges above `t`" decodes straight from the map with zero
    /// resident edge copies.
    ///
    /// The views are identical to [`PreparedGraph::from_csr`] on the
    /// store's in-RAM twin — the persisted section is validated at open
    /// against the same `edge_sort_key` total order the resident sort
    /// uses — so threshold sweeps over an out-of-core graph produce
    /// bit-identical matchings.
    ///
    /// ```no_run
    /// use er_core::MappedCsr;
    /// use er_matchers::{Matcher, PreparedGraph, Umc};
    ///
    /// let mapped = MappedCsr::open("graph.ccer".as_ref()).unwrap();
    /// let prepared = PreparedGraph::from_mapped(&mapped);
    /// let matching = Umc.run(&prepared, 0.5);
    /// # let _ = matching;
    /// ```
    pub fn from_mapped(mapped: &MappedCsr) -> PreparedGraph<'_> {
        PreparedGraph::with_sorted(GraphStore::Mapped(mapped), SortedStore::Mapped(mapped))
    }

    /// Number of edges in the prepared graph.
    #[inline]
    pub fn n_edges(&self) -> usize {
        match &self.sorted {
            SortedStore::Ram(s) => s.len(),
            SortedStore::Mapped(m) => m.n_edges(),
        }
    }

    /// Resident edge records the prepared views hold on the heap: the
    /// sorted copy (if any) plus the adjacency's neighbor entries (if
    /// built). A sweep over a mapped store with a
    /// prefix-consuming algorithm reports **0** — the zero-copy claim
    /// the out-of-core portrait asserts.
    pub fn resident_edge_copies(&self) -> usize {
        let sorted = match &self.sorted {
            SortedStore::Ram(s) => s.len(),
            SortedStore::Mapped(_) => 0,
        };
        sorted + self.adjacency.get().map_or(0, |a| a.n_entries())
    }

    /// Heap bytes the backing store keeps resident for its edge data:
    /// `~12 B/edge` for a CSR slab, `16 B/edge` for a plain graph's
    /// triples. Excludes the matcher views (adjacency + sorted edges),
    /// which every prepared graph carries identically regardless of
    /// store.
    #[inline]
    pub fn store_bytes(&self) -> usize {
        self.graph.store_bytes()
    }

    /// Re-derive a fresh `PreparedGraph` from the backing store, paying
    /// the full view build again — for timing harnesses that need to
    /// measure preparation cost per run. Nothing is shared with `self`:
    /// the sorted view is re-sorted from the store (for a mapped store
    /// it is the file's sorted section, as in
    /// [`from_mapped`](Self::from_mapped)), and the adjacency is
    /// re-scattered from it on first use.
    pub fn reprepare(&self) -> PreparedGraph<'g> {
        match self.graph {
            GraphStore::Graph(g) => PreparedGraph::new(g),
            GraphStore::Csr(c) => PreparedGraph::from_csr(c),
            GraphStore::Mapped(m) => PreparedGraph::from_mapped(m),
        }
    }

    /// The adjacency view (neighbors sorted by descending weight).
    /// Built lazily — and thread-safely — by one scatter of the sorted
    /// view, so only algorithms that actually consume adjacency pay for
    /// it. A mapped store scatters straight from its sorted edge section,
    /// with no transient edge list.
    #[inline]
    pub fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| {
            let (n_left, n_right) = (self.n_left(), self.n_right());
            match self.sorted {
                SortedStore::Ram(ref s) => {
                    Adjacency::from_sorted(n_left, n_right, s.all().iter().copied())
                }
                SortedStore::Mapped(m) => Adjacency::from_sorted(
                    n_left,
                    n_right,
                    (0..m.n_edges()).map(|i| m.sorted_edge(i)),
                ),
            }
        })
    }

    /// The full weight-descending edge sequence.
    #[inline]
    pub fn edges_all(&self) -> EdgeSeq<'_> {
        self.seq_prefix(self.n_edges())
    }

    /// The first `end` edges of the weight-descending order.
    #[inline]
    fn seq_prefix(&self, end: usize) -> EdgeSeq<'_> {
        match &self.sorted {
            SortedStore::Ram(s) => EdgeSeq::Ram(&s.all()[..end]),
            SortedStore::Mapped(store) => EdgeSeq::Mapped {
                store,
                start: 0,
                end,
            },
        }
    }

    #[inline]
    fn count_above(&self, t: f64) -> usize {
        match &self.sorted {
            SortedStore::Ram(s) => s.count_above(t),
            SortedStore::Mapped(m) => m.sorted_count_above(t),
        }
    }

    #[inline]
    fn count_at_least(&self, t: f64) -> usize {
        match &self.sorted {
            SortedStore::Ram(s) => s.count_at_least(t),
            SortedStore::Mapped(m) => m.sorted_count_at_least(t),
        }
    }

    /// The prefix of edges with `weight > t` (descending weight order).
    #[inline]
    pub fn edges_above(&self, t: f64) -> EdgeSeq<'_> {
        self.seq_prefix(self.count_above(t))
    }

    /// The prefix of edges with `weight >= t` (descending weight order).
    #[inline]
    pub fn edges_at_least(&self, t: f64) -> EdgeSeq<'_> {
        self.seq_prefix(self.count_at_least(t))
    }

    /// The threshold-filtered view matchers consume; two binary searches.
    #[inline]
    pub fn view(&self, t: f64) -> EdgeView<'_, 'g> {
        EdgeView {
            g: self,
            t,
            above_end: self.count_above(t),
            at_least_end: self.count_at_least(t),
        }
    }

    /// `|V1|`.
    #[inline]
    pub fn n_left(&self) -> u32 {
        self.graph.n_left()
    }

    /// `|V2|`.
    #[inline]
    pub fn n_right(&self) -> u32 {
        self.graph.n_right()
    }
}

/// A threshold-filtered edge view over a [`PreparedGraph`]: the input every
/// matching algorithm consumes.
///
/// Construction costs two binary searches on the sorted edge array; the
/// filtered edge sets are then **prefix slices** returned in `O(1)` — no
/// per-run `O(m)` re-scan, no per-run sort. Both cut-offs are exposed
/// because the algorithms disagree on boundary semantics: UMC/RSR/BAH/BMC/
/// EXC/KRC retain edges with `weight > t` ([`EdgeView::edges`]) while
/// CNC/RCA retain `weight >= t` ([`EdgeView::edges_inclusive`]).
pub struct EdgeView<'a, 'g> {
    g: &'a PreparedGraph<'g>,
    t: f64,
    above_end: usize,
    at_least_end: usize,
}

impl<'a, 'g> EdgeView<'a, 'g> {
    /// The similarity threshold this view was cut at.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.t
    }

    /// The prepared graph behind the view.
    #[inline]
    pub fn prepared(&self) -> &'a PreparedGraph<'g> {
        self.g
    }

    /// Number of edges in the prepared graph behind the view (not
    /// threshold-filtered).
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.g.n_edges()
    }

    /// The adjacency view (not threshold-filtered; algorithms early-break on
    /// the descending per-node weight order). Built on first use.
    #[inline]
    pub fn adjacency(&self) -> &'a Adjacency {
        self.g.adjacency()
    }

    /// Edges with `weight > t`, highest weight first (prefix sequence).
    #[inline]
    pub fn edges(&self) -> EdgeSeq<'a> {
        self.g.seq_prefix(self.above_end)
    }

    /// Edges with `weight >= t`, highest weight first (prefix sequence).
    #[inline]
    pub fn edges_inclusive(&self) -> EdgeSeq<'a> {
        self.g.seq_prefix(self.at_least_end)
    }

    /// Lengths of the strict and inclusive prefixes, `(above, at_least)`.
    ///
    /// For a fixed graph, every deterministic matcher's output is a function
    /// of this pair alone (the threshold only ever enters via `> t` / `>= t`
    /// comparisons), which is what makes the unchanged-prefix memo of
    /// [`crate::delta::ReplayDelta`] sound.
    #[inline]
    pub fn prefix_lens(&self) -> (usize, usize) {
        (self.above_end, self.at_least_end)
    }

    /// `|V1|`.
    #[inline]
    pub fn n_left(&self) -> u32 {
        self.g.n_left()
    }

    /// `|V2|`.
    #[inline]
    pub fn n_right(&self) -> u32 {
        self.g.n_right()
    }
}

/// A bipartite graph matching algorithm.
///
/// Implementations must return a [`Matching`] that
/// (a) satisfies the unique-mapping constraint, and
/// (b) only contains pairs that are edges of the input graph with weight
///     above (or equal to, for CNC/RCA — see each algorithm's docs) the
///     view's threshold.
pub trait Matcher: Send + Sync {
    /// Short algorithm acronym as used in the paper (e.g. `"UMC"`).
    fn name(&self) -> &'static str;

    /// Run the algorithm on a threshold-filtered edge view.
    fn run_view(&self, view: &EdgeView<'_, '_>) -> Matching;

    /// Run the algorithm on `g` with similarity threshold `t`.
    fn run(&self, g: &PreparedGraph<'_>, t: f64) -> Matching {
        self.run_view(&g.view(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::figure1;

    #[test]
    fn prepared_graph_exposes_parts() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        assert_eq!(pg.n_left(), 5);
        assert_eq!(pg.n_right(), 4);
        assert_eq!(pg.n_edges(), 6);
        // Adjacency of A5 (id 4): B1 (0.9) before B3 (0.6).
        let n: Vec<u32> = pg.adjacency().left(4).iter().map(|x| x.node).collect();
        assert_eq!(n, vec![0, 2]);
    }

    #[test]
    fn from_sorted_matches_new() {
        let g = figure1();
        let fresh = PreparedGraph::new(&g);
        let reused = PreparedGraph::from_sorted(&g, g.sorted_edges());
        for t in [0.0, 0.3, 0.6, 0.9] {
            assert_eq!(
                fresh.view(t).prefix_lens(),
                reused.view(t).prefix_lens(),
                "views agree at t={t}"
            );
        }
        assert_eq!(fresh.n_edges(), reused.n_edges());
    }

    #[test]
    fn csr_store_stays_near_twelve_bytes_per_edge() {
        // Regression guard for the `from_csr` memory cliff: preparing a
        // CSR store must NOT expand it into an owned `SimilarityGraph`
        // (16 B/edge triples on top of the slabs). The resident store
        // behind the prepared views stays the CSR slab itself:
        // 4 B column id + 8 B weight = 12 B/edge, plus row offsets.
        let n = 200u32;
        let mut b = er_core::GraphBuilder::new(n, n);
        for i in 0..n {
            b.add_edge(i, i, 0.9).unwrap();
            b.add_edge(i, (i + 1) % n, 0.4).unwrap();
            b.add_edge(i, (i + 7) % n, 0.2).unwrap();
        }
        let csr = er_core::CsrGraph::from_graph(&b.build());
        let prepared = PreparedGraph::from_csr(&csr);
        assert_eq!(prepared.store_bytes(), csr.slab_bytes());
        let per_edge = prepared.store_bytes() as f64 / prepared.n_edges() as f64;
        assert!(
            per_edge < 16.0,
            "CSR store must stay below triple expansion: {per_edge:.1} B/edge"
        );
        assert!(
            per_edge <= 12.0 + 8.5 * (n as f64 + 1.0) / prepared.n_edges() as f64,
            "unexpected per-edge overhead: {per_edge:.1} B/edge"
        );
    }

    #[test]
    fn from_csr_matches_new() {
        let g = figure1();
        let fresh = PreparedGraph::new(&g);
        let csr = er_core::CsrGraph::from_graph(&g);
        let via_csr = PreparedGraph::from_csr(&csr);
        assert_eq!(via_csr.n_left(), fresh.n_left());
        assert_eq!(via_csr.n_right(), fresh.n_right());
        assert_eq!(via_csr.n_edges(), fresh.n_edges());
        for t in [0.0, 0.3, 0.6, 0.9] {
            assert_eq!(
                fresh.view(t).prefix_lens(),
                via_csr.view(t).prefix_lens(),
                "views agree at t={t}"
            );
        }
        // The sorted views are identical edge for edge: CSR expansion
        // changes insertion order only, and the sort is total.
        for (a, b) in fresh.edges_all().iter().zip(via_csr.edges_all()) {
            assert_eq!((a.left, a.right), (b.left, b.right));
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn from_mapped_matches_from_csr() {
        let g = figure1();
        let csr = er_core::CsrGraph::from_graph(&g);
        let dir = std::env::temp_dir().join(format!(
            "ccer-matcher-mapped-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("figure1.slab");
        er_core::write_csr(&csr, &path).unwrap();
        let mapped = er_core::MappedCsr::open(&path).unwrap();

        let via_csr = PreparedGraph::from_csr(&csr);
        let via_map = PreparedGraph::from_mapped(&mapped);
        assert_eq!(via_map.n_left(), via_csr.n_left());
        assert_eq!(via_map.n_right(), via_csr.n_right());
        assert_eq!(via_map.n_edges(), via_csr.n_edges());
        assert_eq!(via_map.store_bytes(), mapped.file_bytes());
        // A store sweeps straight off the file: no resident copy.
        assert_eq!(via_map.resident_edge_copies(), 0);
        for (a, b) in via_csr.edges_all().iter().zip(via_map.edges_all()) {
            assert_eq!((a.left, a.right), (b.left, b.right));
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
        assert_eq!(
            via_map.resident_edge_copies(),
            0,
            "iteration copies nothing"
        );
        for t in [0.0, 0.3, 0.6, 0.9] {
            assert_eq!(via_map.view(t).prefix_lens(), via_csr.view(t).prefix_lens());
        }
        // The adjacency materializes only on demand.
        assert_eq!(via_map.adjacency().n_entries(), 2 * via_map.n_edges());
        assert!(via_map.resident_edge_copies() > 0);
        // Re-preparation stays on the mapped store.
        let again = via_map.reprepare();
        assert_eq!(again.n_edges(), via_map.n_edges());
        assert_eq!(again.store_bytes(), mapped.file_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_store_builds_the_same_lazy_adjacency() {
        // Tie-heavy weights, signed zeros included; nodes 5 and 6 isolated.
        let weights = [-0.0, 0.0, 0.25, 0.5, 1.0];
        let mut b = er_core::GraphBuilder::new(7, 6);
        for l in 0..5u32 {
            for r in 0..5u32 {
                if (l + 2 * r) % 3 != 0 {
                    b.add_edge(l, r, weights[((l * 3 + r) % 5) as usize])
                        .unwrap();
                }
            }
        }
        let g = b.build();
        let csr = er_core::CsrGraph::from_graph(&g);
        let dir = std::env::temp_dir().join(format!(
            "ccer-matcher-adjacency-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ties.slab");
        er_core::write_csr(&csr, &path).unwrap();
        let mapped = er_core::MappedCsr::open(&path).unwrap();

        let m = g.n_edges();
        let stores = [
            ("new", PreparedGraph::new(&g), m),
            (
                "from_sorted",
                PreparedGraph::from_sorted(&g, g.sorted_edges()),
                m,
            ),
            ("from_csr", PreparedGraph::from_csr(&csr), m),
            ("from_mapped", PreparedGraph::from_mapped(&mapped), 0),
        ];
        let bits = |ns: &[er_core::Neighbor]| -> Vec<(u32, u64)> {
            ns.iter().map(|n| (n.node, n.weight.to_bits())).collect()
        };
        let reference = g.adjacency();
        for (name, pg, sorted_copies) in &stores {
            assert_eq!(
                pg.resident_edge_copies(),
                *sorted_copies,
                "{name}: adjacency built eagerly"
            );
            let adj = pg.adjacency();
            assert_eq!(pg.resident_edge_copies(), sorted_copies + 2 * m, "{name}");
            for i in 0..g.n_left() {
                assert_eq!(
                    bits(adj.left(i)),
                    bits(reference.left(i)),
                    "{name} left {i}"
                );
            }
            for j in 0..g.n_right() {
                assert_eq!(
                    bits(adj.right(j)),
                    bits(reference.right(j)),
                    "{name} right {j}"
                );
            }
            // A re-preparation builds its own adjacency, again lazily.
            let again = pg.reprepare();
            assert_eq!(
                again.resident_edge_copies(),
                *sorted_copies,
                "{name} reprepare"
            );
            for i in 0..g.n_left() {
                assert_eq!(bits(again.adjacency().left(i)), bits(adj.left(i)));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn view_exposes_prefix_slices() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let v = pg.view(0.6);
        assert_eq!(v.threshold(), 0.6);
        // Strict: 0.9 and 0.7 exceed 0.6; inclusive adds the three 0.6s.
        assert_eq!(v.edges().len(), 2);
        assert_eq!(v.edges_inclusive().len(), 5);
        assert_eq!(v.prefix_lens(), (2, 5));
        // Prefixes are themselves weight-descending.
        let incl: Vec<Edge> = v.edges_inclusive().iter().collect();
        for w in incl.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        assert_eq!(v.n_left(), 5);
        assert_eq!(v.n_right(), 4);
        assert_eq!(v.n_edges(), 6);
        assert_eq!(v.prepared().n_left(), 5);
    }

    #[test]
    fn view_prefixes_match_pruned_graph() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        for t in [0.0, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0] {
            assert_eq!(
                pg.edges_at_least(t).len(),
                g.pruned(t).n_edges(),
                "inclusive prefix at t={t}"
            );
            assert_eq!(
                pg.edges_above(t).len(),
                g.edges().iter().filter(|e| e.weight > t).count(),
                "strict prefix at t={t}"
            );
        }
    }
}
