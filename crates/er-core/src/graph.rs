//! The bipartite similarity graph and its CSR adjacency view.
//!
//! A [`SimilarityGraph`] stores the candidate duplicate pairs produced by the
//! matching step of a CCER pipeline: edges `(left, right, weight)` where
//! `left` indexes the first clean collection `V1`, `right` indexes the second
//! clean collection `V2`, and `weight ∈ [0, 1]` is the similarity score.
//!
//! Matching algorithms never mutate the graph; they consume the
//! [`SortedEdges`] view (all edges, weight descending, sorted once per
//! graph) and an [`Adjacency`] view (per-node neighbor lists in the same
//! order) scattered from it. For memory-bounded storage and
//! `O(log d)` pair lookups see [`CsrGraph`](crate::CsrGraph); for bounded
//! per-row selection see [`TopKRow`](crate::TopKRow).

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::hash::FxHashSet;

/// A weighted edge between a `V1` node and a `V2` node.
///
/// ```
/// use er_core::Edge;
///
/// let e = Edge::new(0, 3, 0.75);
/// assert_eq!((e.left, e.right, e.weight), (0, 3, 0.75));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Index of the entity in the first (left) collection.
    pub left: u32,
    /// Index of the entity in the second (right) collection.
    pub right: u32,
    /// Similarity score in `[0, 1]`.
    pub weight: f64,
}

impl Edge {
    /// Construct an edge; no validation (the builder validates).
    ///
    /// ```
    /// # use er_core::Edge;
    /// assert_eq!(Edge::new(1, 2, 0.5).weight, 0.5);
    /// ```
    #[inline]
    pub fn new(left: u32, right: u32, weight: f64) -> Self {
        Edge {
            left,
            right,
            weight,
        }
    }
}

/// A bipartite similarity graph `G = (V1, V2, E)`.
///
/// Node ids are dense indices: `0..n_left` for `V1` and `0..n_right` for
/// `V2`. Construction goes through [`GraphBuilder`], which enforces that ids
/// are in bounds, weights are finite values in `[0, 1]`, and that no
/// `(left, right)` pair appears twice.
///
/// ```
/// use er_core::{GraphBuilder, SimilarityGraph};
///
/// let mut b = GraphBuilder::new(2, 2);
/// b.add_edge(0, 1, 0.8).unwrap();
/// let g: SimilarityGraph = b.build();
/// assert_eq!(g.n_edges(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimilarityGraph {
    n_left: u32,
    n_right: u32,
    edges: Vec<Edge>,
    /// Lazy CSR-style lookup index for [`SimilarityGraph::weight_of`]: the
    /// edge positions sorted by `(left, right)`, built on first lookup.
    /// Keyed by ids only, so [`SimilarityGraph::map_weights`] (the one
    /// post-build mutation, which touches weights alone) never invalidates
    /// it. Skipped by serde; deserialized graphs start with a cold index.
    #[serde(skip)]
    by_pair: OnceLock<Vec<u32>>,
}

impl SimilarityGraph {
    /// Create a graph from parts, validating every edge.
    ///
    /// ```
    /// use er_core::{Edge, SimilarityGraph};
    ///
    /// let g = SimilarityGraph::new(2, 2, vec![Edge::new(0, 0, 0.9)]).unwrap();
    /// assert_eq!(g.n_edges(), 1);
    /// assert!(SimilarityGraph::new(1, 1, vec![Edge::new(5, 0, 0.9)]).is_err());
    /// ```
    pub fn new(n_left: u32, n_right: u32, edges: Vec<Edge>) -> Result<Self> {
        let mut builder = GraphBuilder::new(n_left, n_right);
        for e in edges {
            builder.add_edge(e.left, e.right, e.weight)?;
        }
        Ok(builder.build())
    }

    /// Assemble a graph from already-validated parts — the internal fast
    /// path for [`CsrGraph`](crate::CsrGraph), whose invariants guarantee
    /// in-bounds unique edges with valid weights.
    pub(crate) fn from_parts_unchecked(n_left: u32, n_right: u32, edges: Vec<Edge>) -> Self {
        SimilarityGraph {
            n_left,
            n_right,
            edges,
            by_pair: OnceLock::new(),
        }
    }

    /// Number of entities in the left collection `V1`.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// assert_eq!(GraphBuilder::new(3, 5).build().n_left(), 3);
    /// ```
    #[inline]
    pub fn n_left(&self) -> u32 {
        self.n_left
    }

    /// Number of entities in the right collection `V2`.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// assert_eq!(GraphBuilder::new(3, 5).build().n_right(), 5);
    /// ```
    #[inline]
    pub fn n_right(&self) -> u32 {
        self.n_right
    }

    /// Number of edges `m = |E|`.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 1.0).unwrap();
    /// assert_eq!(b.build().n_edges(), 1);
    /// ```
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, in insertion order.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 2);
    /// b.add_edge(0, 1, 0.3).unwrap();
    /// b.add_edge(0, 0, 0.9).unwrap();
    /// assert_eq!(b.build().edges()[0].right, 1);
    /// ```
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Whether the graph has no edges.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// assert!(GraphBuilder::new(4, 4).build().is_empty());
    /// ```
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Look up the weight of edge `(left, right)`.
    ///
    /// Served by a lazy CSR-style index — the edge positions sorted by
    /// `(left, right)`, built once on first call (`O(m log m)`) and then
    /// binary-searched (`O(log m)` per lookup). The previous
    /// implementation re-scanned all `m` edges per lookup, which made
    /// repeated probes of large graphs quadratic.
    ///
    /// ```
    /// use er_core::GraphBuilder;
    ///
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 1, 0.6).unwrap();
    /// let g = b.build();
    /// assert_eq!(g.weight_of(0, 1), Some(0.6));
    /// assert_eq!(g.weight_of(1, 0), None);
    /// ```
    pub fn weight_of(&self, left: u32, right: u32) -> Option<f64> {
        let index = self.by_pair.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.edges.len() as u32).collect();
            order.sort_unstable_by_key(|&i| {
                let e = &self.edges[i as usize];
                (e.left, e.right)
            });
            order
        });
        index
            .binary_search_by(|&i| {
                let e = &self.edges[i as usize];
                (e.left, e.right).cmp(&(left, right))
            })
            .ok()
            .map(|pos| self.edges[index[pos] as usize].weight)
    }

    /// Count edges with `weight >= t`.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 0, 0.2).unwrap();
    /// b.add_edge(1, 1, 0.8).unwrap();
    /// assert_eq!(b.build().edges_at_least(0.5), 1);
    /// ```
    pub fn edges_at_least(&self, t: f64) -> usize {
        self.edges.iter().filter(|e| e.weight >= t).count()
    }

    /// The minimum and maximum edge weight, or `None` for an empty graph.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 0, 0.2).unwrap();
    /// b.add_edge(1, 1, 0.8).unwrap();
    /// assert_eq!(b.build().weight_range(), Some((0.2, 0.8)));
    /// assert_eq!(GraphBuilder::new(1, 1).build().weight_range(), None);
    /// ```
    pub fn weight_range(&self) -> Option<(f64, f64)> {
        if self.edges.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in &self.edges {
            lo = lo.min(e.weight);
            hi = hi.max(e.weight);
        }
        Some((lo, hi))
    }

    /// Apply `f` to every edge weight in place.
    ///
    /// Used by min-max normalization; `f` must keep weights in `[0, 1]`
    /// (checked with a debug assertion). The [`SimilarityGraph::weight_of`]
    /// lookup index survives — it is keyed by edge ids, which this cannot
    /// change.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.8).unwrap();
    /// let mut g = b.build();
    /// g.map_weights(|w| w / 2.0);
    /// assert_eq!(g.weight_of(0, 0), Some(0.4));
    /// ```
    pub fn map_weights(&mut self, mut f: impl FnMut(f64) -> f64) {
        for e in &mut self.edges {
            e.weight = f(e.weight);
            debug_assert!(
                e.weight.is_finite() && (0.0..=1.0).contains(&e.weight),
                "weight mapping produced out-of-range value {}",
                e.weight
            );
        }
    }

    /// A copy of the graph containing only edges with `weight >= t`.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 0, 0.2).unwrap();
    /// b.add_edge(1, 1, 0.8).unwrap();
    /// assert_eq!(b.build().pruned(0.5).n_edges(), 1);
    /// ```
    pub fn pruned(&self, t: f64) -> SimilarityGraph {
        SimilarityGraph::from_parts_unchecked(
            self.n_left,
            self.n_right,
            self.edges
                .iter()
                .copied()
                .filter(|e| e.weight >= t)
                .collect(),
        )
    }

    /// A copy of the graph keeping only each left row's best `k` edges —
    /// ranked by weight descending, ties broken by ascending right id,
    /// the same deterministic selection as [`TopKRow`](crate::TopKRow).
    /// Rows come out in ascending left order, each sorted by that rank —
    /// byte-for-byte the layout `er-pipeline`'s `build_graph_topk`
    /// produces.
    ///
    /// This is the *dense-then-prune* flow (`O(m log d)`: counting sort
    /// into rows, then per-row sorts): the dense graph already exists and
    /// has paid its full memory cost. To keep peak memory at
    /// `O(n_left × k)` prune **during** construction instead
    /// (`er-pipeline`'s `build_graph_topk`).
    ///
    /// ```
    /// use er_core::GraphBuilder;
    ///
    /// let mut b = GraphBuilder::new(1, 3);
    /// b.add_edge(0, 0, 0.2).unwrap();
    /// b.add_edge(0, 1, 0.9).unwrap();
    /// b.add_edge(0, 2, 0.5).unwrap();
    /// let top2 = b.build().pruned_top_k(2);
    /// assert_eq!(top2.weight_of(0, 1), Some(0.9));
    /// assert_eq!(top2.weight_of(0, 0), None, "worst edge dropped");
    /// ```
    pub fn pruned_top_k(&self, k: usize) -> SimilarityGraph {
        let n = self.n_left as usize;
        let (offsets, mut cells) = group_edges_by_left(n, &self.edges);
        let mut edges = Vec::with_capacity(self.edges.len().min(n.saturating_mul(k)));
        for l in 0..n {
            let row = &mut cells[offsets[l]..offsets[l + 1]];
            // Weight desc, right-id asc — total order, built graphs
            // contain no NaN.
            row.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            edges.extend(row.iter().take(k).map(|&(r, w)| Edge::new(l as u32, r, w)));
        }
        SimilarityGraph::from_parts_unchecked(self.n_left, self.n_right, edges)
    }

    /// Build the CSR adjacency view (per-node neighbors sorted by descending
    /// weight with id tie-break).
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 2);
    /// b.add_edge(0, 0, 0.1).unwrap();
    /// b.add_edge(0, 1, 0.9).unwrap();
    /// assert_eq!(b.build().adjacency().left(0)[0].node, 1);
    /// ```
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::from_sorted(
            self.n_left,
            self.n_right,
            self.sorted_edges().all().iter().copied(),
        )
    }

    /// Build the weight-descending sorted edge view (see [`SortedEdges`]).
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 0, 0.1).unwrap();
    /// b.add_edge(1, 1, 0.9).unwrap();
    /// assert_eq!(b.build().sorted_edges().all()[0].weight, 0.9);
    /// ```
    pub fn sorted_edges(&self) -> SortedEdges {
        SortedEdges::build(self)
    }
}

/// The graph's edges sorted by **descending weight** (ties: ascending
/// `(left, right)` — the workspace-wide [`edge_key_desc`] order).
///
/// The point of this view is that *"all edges above a threshold `t`"* is a
/// **prefix** of the sorted array, locatable with one binary search instead
/// of an `O(m)` re-scan. Threshold sweeps exploit this: as the threshold
/// descends along a grid, each step's edge set extends the previous step's
/// prefix, so incremental algorithms can resume from a cursor rather than
/// restart.
///
/// Invariants:
/// * `all()` is sorted by [`edge_key_desc`]: weight descending, then
///   `(left, right)` ascending;
/// * `above(t)` is exactly `{e | e.weight > t}` and is a prefix of `all()`;
/// * `at_least(t)` is exactly `{e | e.weight >= t}`, also a prefix, and
///   `above(t)` is a prefix of `at_least(t)`.
///
/// ```
/// use er_core::GraphBuilder;
///
/// let mut b = GraphBuilder::new(2, 2);
/// b.add_edge(0, 0, 0.4).unwrap();
/// b.add_edge(1, 1, 0.9).unwrap();
/// let s = b.build().sorted_edges();
/// assert_eq!(s.above(0.4).len(), 1);
/// assert_eq!(s.at_least(0.4).len(), 2);
/// ```
///
/// [`edge_key_desc`]: crate::float::edge_key_desc
#[derive(Debug, Clone)]
pub struct SortedEdges {
    edges: Vec<Edge>,
}

impl SortedEdges {
    /// Sort the graph's edges once — `O(m log m)`.
    ///
    /// ```
    /// # use er_core::{GraphBuilder, SortedEdges};
    /// let s = SortedEdges::build(&GraphBuilder::new(2, 2).build());
    /// assert!(s.is_empty());
    /// ```
    pub fn build(g: &SimilarityGraph) -> Self {
        Self::from_edges(g.edges.clone())
    }

    /// Sort an owned edge list — the store-agnostic entry used to index a
    /// [`CsrGraph`](crate::CsrGraph) (or any other edge source) without
    /// materializing a `SimilarityGraph` first. Equivalent to
    /// [`build`](Self::build) on a graph holding the same edges.
    ///
    /// One unstable sort on the packed [`edge_sort_key`]. The key is
    /// lossless, so edges with equal keys are identical and the output
    /// does not depend on the input order.
    ///
    /// ```
    /// # use er_core::{Edge, SortedEdges};
    /// let s = SortedEdges::from_edges(vec![Edge::new(0, 0, 0.2), Edge::new(1, 1, 0.9)]);
    /// assert_eq!(s.all()[0].weight, 0.9);
    /// ```
    ///
    /// [`edge_sort_key`]: crate::float::edge_sort_key
    pub fn from_edges(mut edges: Vec<Edge>) -> Self {
        edges.sort_unstable_by_key(crate::float::edge_sort_key);
        SortedEdges { edges }
    }

    /// All edges, highest weight first.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 0, 0.1).unwrap();
    /// b.add_edge(1, 1, 0.8).unwrap();
    /// let s = b.build().sorted_edges();
    /// assert_eq!(s.all()[0].weight, 0.8);
    /// ```
    #[inline]
    pub fn all(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// assert_eq!(GraphBuilder::new(1, 1).build().sorted_edges().len(), 0);
    /// ```
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the view is empty.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// assert!(GraphBuilder::new(1, 1).build().sorted_edges().is_empty());
    /// ```
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The prefix of edges with `weight > t` — one binary search, `O(log m)`.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// assert!(b.build().sorted_edges().above(0.5).is_empty());
    /// ```
    #[inline]
    pub fn above(&self, t: f64) -> &[Edge] {
        &self.edges[..self.count_above(t)]
    }

    /// The prefix of edges with `weight >= t` — one binary search.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// assert_eq!(b.build().sorted_edges().at_least(0.5).len(), 1);
    /// ```
    #[inline]
    pub fn at_least(&self, t: f64) -> &[Edge] {
        &self.edges[..self.count_at_least(t)]
    }

    /// Length of the `weight > t` prefix.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// assert_eq!(b.build().sorted_edges().count_above(0.2), 1);
    /// ```
    #[inline]
    pub fn count_above(&self, t: f64) -> usize {
        // Weights descend, so `weight > t` is a monotone prefix predicate.
        self.edges.partition_point(|e| e.weight > t)
    }

    /// Length of the `weight >= t` prefix.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// assert_eq!(b.build().sorted_edges().count_at_least(0.5), 1);
    /// ```
    #[inline]
    pub fn count_at_least(&self, t: f64) -> usize {
        self.edges.partition_point(|e| e.weight >= t)
    }
}

/// Incremental, validating constructor for [`SimilarityGraph`].
///
/// ```
/// use er_core::GraphBuilder;
///
/// let mut b = GraphBuilder::new(2, 2);
/// b.add_edge(0, 0, 0.9).unwrap();
/// assert_eq!(b.build().n_edges(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n_left: u32,
    n_right: u32,
    edges: Vec<Edge>,
    seen: FxHashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Start building a graph over collections of the given sizes.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let g = GraphBuilder::new(3, 4).build();
    /// assert_eq!((g.n_left(), g.n_right()), (3, 4));
    /// ```
    pub fn new(n_left: u32, n_right: u32) -> Self {
        GraphBuilder {
            n_left,
            n_right,
            edges: Vec::new(),
            seen: FxHashSet::default(),
        }
    }

    /// Pre-allocate for an expected number of edges.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::with_capacity(2, 2, 4);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// assert_eq!(b.len(), 1);
    /// ```
    pub fn with_capacity(n_left: u32, n_right: u32, edges: usize) -> Self {
        let mut b = Self::new(n_left, n_right);
        b.edges.reserve(edges);
        b.seen.reserve(edges);
        b
    }

    /// Add one validated edge.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// assert!(b.add_edge(0, 0, 0.5).is_ok());
    /// assert!(b.add_edge(0, 0, 0.7).is_err(), "duplicate pair");
    /// ```
    pub fn add_edge(&mut self, left: u32, right: u32, weight: f64) -> Result<()> {
        if left >= self.n_left {
            return Err(CoreError::NodeOutOfBounds {
                side: "left",
                id: left,
                len: self.n_left,
            });
        }
        if right >= self.n_right {
            return Err(CoreError::NodeOutOfBounds {
                side: "right",
                id: right,
                len: self.n_right,
            });
        }
        if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
            return Err(CoreError::InvalidWeight(weight));
        }
        if !self.seen.insert((left, right)) {
            return Err(CoreError::DuplicateEdge { left, right });
        }
        self.edges.push(Edge::new(left, right, weight));
        Ok(())
    }

    /// Merge one worker shard of edges — the bulk ingestion path of
    /// parallel graph construction, where each worker scores a disjoint
    /// left-entity range and emits a local edge buffer.
    ///
    /// Equivalent to calling [`GraphBuilder::add_edge`] for every edge in
    /// iteration order (so merging shards in deterministic shard order
    /// reproduces the serial insertion order exactly), with one up-front
    /// capacity reservation. Shards from disjoint left-ranges cannot
    /// collide, but the duplicate check still runs so the builder's
    /// invariants hold for arbitrary input.
    ///
    /// ```
    /// # use er_core::{Edge, GraphBuilder};
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.merge_shard(vec![Edge::new(0, 0, 0.5), Edge::new(1, 1, 0.7)]).unwrap();
    /// assert_eq!(b.len(), 2);
    /// ```
    pub fn merge_shard<I>(&mut self, edges: I) -> Result<()>
    where
        I: IntoIterator<Item = Edge>,
        I::IntoIter: ExactSizeIterator,
    {
        let edges = edges.into_iter();
        self.edges.reserve(edges.len());
        self.seen.reserve(edges.len());
        for e in edges {
            self.add_edge(e.left, e.right, e.weight)?;
        }
        Ok(())
    }

    /// Number of edges added so far.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// assert_eq!(GraphBuilder::new(1, 1).len(), 0);
    /// ```
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added yet.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// assert!(GraphBuilder::new(1, 1).is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finish construction.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 1.0).unwrap();
    /// assert_eq!(b.build().n_edges(), 1);
    /// ```
    pub fn build(self) -> SimilarityGraph {
        SimilarityGraph::from_parts_unchecked(self.n_left, self.n_right, self.edges)
    }
}

/// A neighbor entry in an adjacency list: the opposite-side node and the
/// weight of the connecting edge.
///
/// ```
/// use er_core::Neighbor;
///
/// let n = Neighbor { node: 2, weight: 0.4 };
/// assert_eq!(n.node, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The opposite-side node id.
    pub node: u32,
    /// The edge weight.
    pub weight: f64,
}

/// CSR adjacency for both sides of a bipartite graph.
///
/// Neighbor lists are sorted by **descending weight**, breaking ties by
/// ascending node id — the deterministic order every matching algorithm
/// iterates candidates in.
///
/// ```
/// use er_core::GraphBuilder;
///
/// let mut b = GraphBuilder::new(1, 2);
/// b.add_edge(0, 0, 0.3).unwrap();
/// b.add_edge(0, 1, 0.8).unwrap();
/// let adj = b.build().adjacency();
/// assert_eq!(adj.left(0)[0].node, 1, "best neighbor first");
/// ```
#[derive(Debug, Clone)]
pub struct Adjacency {
    left_offsets: Vec<u32>,
    left_neighbors: Vec<Neighbor>,
    right_offsets: Vec<u32>,
    right_neighbors: Vec<Neighbor>,
}

/// One side of [`Adjacency::from_sorted`]: CSR offsets by `key(e).0`,
/// then each edge appended to its node's slice in input order.
fn scatter_side(
    n: usize,
    sorted: impl Iterator<Item = Edge> + Clone,
    key: impl Fn(&Edge) -> (u32, u32),
) -> (Vec<u32>, Vec<Neighbor>) {
    let mut offsets = vec![0u32; n + 1];
    for e in sorted.clone() {
        offsets[key(&e).0 as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut neighbors = vec![
        Neighbor {
            node: 0,
            weight: 0.0
        };
        offsets[n] as usize
    ];
    for e in sorted {
        let (from, to) = key(&e);
        let slot = &mut cursor[from as usize];
        neighbors[*slot as usize] = Neighbor {
            node: to,
            weight: e.weight,
        };
        *slot += 1;
    }
    (offsets, neighbors)
}

impl Adjacency {
    /// Derive the adjacency from weight-descending sorted edges (the
    /// [`SortedEdges`] order) with explicit dimensions — the one
    /// adjacency builder, used for every edge store. `sorted` is walked
    /// four times (a count and a placement per side), so a file-backed
    /// edge section scatters straight from the file.
    ///
    /// A stable counting scatter, `O(n + m)`, with no per-node sort: a
    /// left row receives its edges in sorted order, i.e. (weight desc,
    /// right asc), and a right column receives them in (weight desc, left
    /// asc). `sorted` must be in that order (debug builds check it) and
    /// its ids in bounds.
    ///
    /// ```
    /// # use er_core::{Adjacency, Edge, SortedEdges};
    /// let sorted = SortedEdges::from_edges(vec![Edge::new(1, 0, 0.8), Edge::new(0, 0, 0.9)]);
    /// let adj = Adjacency::from_sorted(2, 2, sorted.all().iter().copied());
    /// assert_eq!(adj.right(0)[0].node, 0, "heaviest first");
    /// assert_eq!(adj.left(1)[0].node, 0);
    /// ```
    pub fn from_sorted(
        n_left: u32,
        n_right: u32,
        sorted: impl Iterator<Item = Edge> + Clone,
    ) -> Self {
        use crate::float::edge_sort_key;
        debug_assert!(
            sorted
                .clone()
                .map(|e| edge_sort_key(&e))
                .try_fold(None, |prev, k| (prev < Some(k)).then_some(Some(k)))
                .is_some(),
            "adjacency input must be strictly in edge_sort_key order"
        );
        let (left_offsets, left_neighbors) =
            scatter_side(n_left as usize, sorted.clone(), |e| (e.left, e.right));
        let (right_offsets, right_neighbors) =
            scatter_side(n_right as usize, sorted, |e| (e.right, e.left));
        Adjacency {
            left_offsets,
            left_neighbors,
            right_offsets,
            right_neighbors,
        }
    }

    /// Total resident neighbor entries across both sides — `2 × n_edges`
    /// worth of heap footprint, used by memory accounting.
    ///
    /// ```
    /// # use er_core::{Adjacency, Edge};
    /// let adj = Adjacency::from_sorted(2, 2, [Edge::new(1, 0, 0.8)].into_iter());
    /// assert_eq!(adj.n_entries(), 2);
    /// ```
    #[inline]
    pub fn n_entries(&self) -> usize {
        self.left_neighbors.len() + self.right_neighbors.len()
    }

    /// Neighbors of left node `i`, best first.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// assert_eq!(b.build().adjacency().left(0).len(), 1);
    /// ```
    #[inline]
    pub fn left(&self, i: u32) -> &[Neighbor] {
        let (s, e) = (
            self.left_offsets[i as usize] as usize,
            self.left_offsets[i as usize + 1] as usize,
        );
        &self.left_neighbors[s..e]
    }

    /// Neighbors of right node `j`, best first.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// assert_eq!(b.build().adjacency().right(0)[0].node, 0);
    /// ```
    #[inline]
    pub fn right(&self, j: u32) -> &[Neighbor] {
        let (s, e) = (
            self.right_offsets[j as usize] as usize,
            self.right_offsets[j as usize + 1] as usize,
        );
        &self.right_neighbors[s..e]
    }

    /// Degree of left node `i`.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// assert_eq!(GraphBuilder::new(2, 2).build().adjacency().left_degree(0), 0);
    /// ```
    #[inline]
    pub fn left_degree(&self, i: u32) -> usize {
        self.left(i).len()
    }

    /// Best neighbor of left node `i` with weight above `t`, if any.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// let adj = b.build().adjacency();
    /// assert_eq!(adj.best_left(0, 0.4).map(|n| n.node), Some(0));
    /// assert_eq!(adj.best_left(0, 0.5), None, "threshold is strict");
    /// ```
    #[inline]
    pub fn best_left(&self, i: u32, t: f64) -> Option<Neighbor> {
        self.left(i).first().copied().filter(|n| n.weight > t)
    }

    /// Best neighbor of right node `j` with weight above `t`, if any.
    ///
    /// ```
    /// # use er_core::GraphBuilder;
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// assert_eq!(b.build().adjacency().best_right(0, 0.0).map(|n| n.node), Some(0));
    /// ```
    #[inline]
    pub fn best_right(&self, j: u32, t: f64) -> Option<Neighbor> {
        self.right(j).first().copied().filter(|n| n.weight > t)
    }
}

/// Counting-sort `edges` into per-left-row groups: returns the row
/// `offsets` (length `n + 1`) and the `(right, weight)` cells, where row
/// `l` occupies `cells[offsets[l]..offsets[l + 1]]` in input order.
/// Shared by [`SimilarityGraph::pruned_top_k`] and
/// [`CsrGraph`](crate::CsrGraph) construction, which differ only in the
/// per-row sort they apply afterwards.
pub(crate) fn group_edges_by_left(n: usize, edges: &[Edge]) -> (Vec<usize>, Vec<(u32, f64)>) {
    let mut counts = vec![0usize; n + 1];
    for e in edges {
        counts[e.left as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut cells: Vec<(u32, f64)> = vec![(0, 0.0); edges.len()];
    for e in edges {
        cells[cursor[e.left as usize]] = (e.right, e.weight);
        cursor[e.left as usize] += 1;
    }
    (offsets, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimilarityGraph {
        // The running example from the paper's Figure 1(a):
        //   A1-B1: 0.6, A5-B1: 0.9, A5-B3: 0.6, A2-B2: 0.7, A3-B4: 0.3... wait
        // We use a simpler 3x3 graph here; the Figure 1 graph is exercised in
        // er-matchers tests.
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 1, 0.7).unwrap();
        b.add_edge(2, 2, 0.4).unwrap();
        b.add_edge(2, 1, 0.4).unwrap();
        b.build()
    }

    #[test]
    fn builder_validates_bounds() {
        let mut b = GraphBuilder::new(2, 2);
        assert_eq!(
            b.add_edge(2, 0, 0.5),
            Err(CoreError::NodeOutOfBounds {
                side: "left",
                id: 2,
                len: 2
            })
        );
        assert_eq!(
            b.add_edge(0, 5, 0.5),
            Err(CoreError::NodeOutOfBounds {
                side: "right",
                id: 5,
                len: 2
            })
        );
    }

    #[test]
    fn builder_validates_weights() {
        let mut b = GraphBuilder::new(2, 2);
        assert_eq!(b.add_edge(0, 0, 1.5), Err(CoreError::InvalidWeight(1.5)));
        assert_eq!(b.add_edge(0, 0, -0.1), Err(CoreError::InvalidWeight(-0.1)));
        assert!(b.add_edge(0, 0, f64::NAN).is_err());
        assert!(b.add_edge(0, 0, 0.0).is_ok());
        assert!(b.add_edge(0, 1, 1.0).is_ok());
    }

    #[test]
    fn merge_shard_matches_sequential_adds() {
        // Two disjoint left-range shards, merged in shard order.
        let shards = vec![
            vec![
                Edge::new(0, 0, 0.9),
                Edge::new(0, 1, 0.5),
                Edge::new(1, 1, 0.7),
            ],
            vec![Edge::new(2, 2, 0.4), Edge::new(2, 1, 0.4)],
        ];
        let mut merged = GraphBuilder::new(3, 3);
        for shard in shards {
            merged.merge_shard(shard).unwrap();
        }
        let merged = merged.build();
        let serial = sample();
        assert_eq!(merged.n_edges(), serial.n_edges());
        for (a, b) in merged.edges().iter().zip(serial.edges()) {
            assert_eq!((a.left, a.right), (b.left, b.right));
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn merge_shard_still_validates() {
        let mut b = GraphBuilder::new(2, 2);
        b.merge_shard(vec![Edge::new(0, 0, 0.5)]).unwrap();
        assert_eq!(
            b.merge_shard(vec![Edge::new(1, 1, 0.4), Edge::new(0, 0, 0.6)]),
            Err(CoreError::DuplicateEdge { left: 0, right: 0 }),
            "cross-shard duplicates are caught"
        );
        assert_eq!(
            b.merge_shard(vec![Edge::new(1, 0, 1.5)]),
            Err(CoreError::InvalidWeight(1.5))
        );
        assert_eq!(b.len(), 2, "edges before the failing one are kept");
    }

    #[test]
    fn builder_rejects_duplicates() {
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.5).unwrap();
        assert_eq!(
            b.add_edge(0, 0, 0.6),
            Err(CoreError::DuplicateEdge { left: 0, right: 0 })
        );
    }

    #[test]
    fn graph_accessors() {
        let g = sample();
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 3);
        assert_eq!(g.n_edges(), 5);
        assert_eq!(g.weight_of(0, 0), Some(0.9));
        assert_eq!(g.weight_of(0, 2), None);
        assert_eq!(g.edges_at_least(0.5), 3);
        assert_eq!(g.weight_range(), Some((0.4, 0.9)));
    }

    #[test]
    fn weight_of_index_agrees_with_scan_at_scale() {
        // Regression: weight_of used to re-scan all edges per lookup —
        // probing every pair of a 100k-edge graph was O(m²) (minutes).
        // The lazy (left, right)-sorted index answers each probe with one
        // binary search; this test's ~200k probes finish in well under a
        // second, and every answer is checked against a directly-built map.
        let (n_left, n_right) = (1000u32, 120u32);
        let mut b = GraphBuilder::new(n_left, n_right);
        let mut reference = crate::hash::FxHashMap::default();
        for l in 0..n_left {
            for r in 0..n_right {
                // ~83% fill: 100_000 edges out of 120_000 slots.
                if (l.wrapping_mul(31).wrapping_add(r.wrapping_mul(17))) % 6 != 0 {
                    let w = ((l as u64 * 131 + r as u64 * 29) % 1000) as f64 / 1000.0;
                    b.add_edge(l, r, w).unwrap();
                    reference.insert((l, r), w);
                }
            }
        }
        let g = b.build();
        assert_eq!(g.n_edges(), 100_000);
        for l in 0..n_left {
            for r in 0..n_right {
                assert_eq!(
                    g.weight_of(l, r),
                    reference.get(&(l, r)).copied(),
                    "({l},{r})"
                );
            }
        }
        assert_eq!(g.weight_of(n_left, 0), None, "out-of-range left misses");
    }

    #[test]
    fn weight_of_index_survives_map_weights() {
        let mut g = sample();
        assert_eq!(g.weight_of(0, 0), Some(0.9)); // builds the index
        g.map_weights(|w| w / 2.0);
        assert_eq!(g.weight_of(0, 0), Some(0.45), "index serves new weights");
        assert_eq!(g.weight_of(0, 2), None);
    }

    #[test]
    fn pruned_drops_low_edges() {
        let g = sample().pruned(0.5);
        assert_eq!(g.n_edges(), 3);
        assert!(g.edges().iter().all(|e| e.weight >= 0.5));
        assert_eq!(g.n_left(), 3, "pruning keeps node collections intact");
    }

    #[test]
    fn pruned_top_k_keeps_best_per_row() {
        let g = sample().pruned_top_k(1);
        assert_eq!(g.n_edges(), 3, "one survivor per non-empty row");
        assert_eq!(g.weight_of(0, 0), Some(0.9));
        assert_eq!(g.weight_of(0, 1), None);
        assert_eq!(g.weight_of(1, 1), Some(0.7));
        // Row 2 ties at 0.4: ascending right id wins.
        assert_eq!(g.weight_of(2, 1), Some(0.4));
        assert_eq!(g.weight_of(2, 2), None);
    }

    #[test]
    fn pruned_top_k_unbounded_is_identity_up_to_order() {
        let g = sample();
        let all = g.pruned_top_k(usize::MAX);
        let canon = |g: &SimilarityGraph| -> Vec<(u32, u32, u64)> {
            let mut v: Vec<_> = g
                .edges()
                .iter()
                .map(|e| (e.left, e.right, e.weight.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(canon(&all), canon(&g));
    }

    #[test]
    fn adjacency_is_sorted_desc_with_id_tiebreak() {
        let g = sample();
        let adj = g.adjacency();
        // Left node 0 has neighbors 0 (0.9) and 1 (0.5).
        let n0: Vec<_> = adj.left(0).iter().map(|n| (n.node, n.weight)).collect();
        assert_eq!(n0, vec![(0, 0.9), (1, 0.5)]);
        // Right node 1 has neighbors 1 (0.7), 0 (0.5), 2 (0.4).
        let r1: Vec<_> = adj.right(1).iter().map(|n| (n.node, n.weight)).collect();
        assert_eq!(r1, vec![(1, 0.7), (0, 0.5), (2, 0.4)]);
        // Left node 2 has equal-weight neighbors 1 and 2 → id ascending.
        let n2: Vec<_> = adj.left(2).iter().map(|n| n.node).collect();
        assert_eq!(n2, vec![1, 2]);
    }

    #[test]
    fn adjacency_degrees_and_best() {
        let g = sample();
        let adj = g.adjacency();
        assert_eq!(adj.left_degree(0), 2);
        assert_eq!(adj.best_left(0, 0.5).map(|n| n.node), Some(0));
        assert_eq!(adj.best_left(0, 0.95), None, "threshold is strict");
        assert_eq!(adj.best_right(2, 0.0).map(|n| n.node), Some(2));
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let g = SimilarityGraph::new(4, 4, vec![Edge::new(0, 0, 0.5)]).unwrap();
        let adj = g.adjacency();
        assert!(adj.left(3).is_empty());
        assert!(adj.right(2).is_empty());
    }

    #[test]
    fn map_weights_applies() {
        let mut g = sample();
        g.map_weights(|w| w / 2.0);
        assert_eq!(g.weight_of(0, 0), Some(0.45));
    }

    #[test]
    fn sorted_edges_descend_with_id_tiebreak() {
        let g = sample();
        let s = g.sorted_edges();
        let order: Vec<(u32, u32, f64)> = s
            .all()
            .iter()
            .map(|e| (e.left, e.right, e.weight))
            .collect();
        // 0.9, 0.7, 0.5, then the two 0.4 edges by ascending (left, right).
        assert_eq!(
            order,
            vec![
                (0, 0, 0.9),
                (1, 1, 0.7),
                (0, 1, 0.5),
                (2, 1, 0.4),
                (2, 2, 0.4),
            ]
        );
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn sorted_prefixes_match_scans() {
        let g = sample();
        let s = g.sorted_edges();
        for t in [-0.5, 0.0, 0.39, 0.4, 0.5, 0.7, 0.9, 1.0] {
            assert_eq!(
                s.count_above(t),
                g.edges().iter().filter(|e| e.weight > t).count(),
                "strict prefix at t={t}"
            );
            assert_eq!(
                s.count_at_least(t),
                g.edges_at_least(t),
                "inclusive prefix at t={t}"
            );
            assert!(s.above(t).iter().all(|e| e.weight > t));
            assert!(s.at_least(t).iter().all(|e| e.weight >= t));
            assert!(s.count_above(t) <= s.count_at_least(t));
        }
    }

    #[test]
    fn sorted_edges_of_empty_graph() {
        let s = GraphBuilder::new(3, 3).build().sorted_edges();
        assert!(s.is_empty());
        assert!(s.above(0.0).is_empty());
        assert!(s.at_least(0.0).is_empty());
    }
}
