//! A compressed-sparse-row edge store for million-pair similarity graphs.
//!
//! [`SimilarityGraph`] keeps its edges as a flat `Vec<Edge>` — 16 bytes of
//! ids per edge next to the weight, in insertion order, with no per-row
//! structure. That is the right shape for construction and for the
//! weight-sorted views the matchers consume, but it is wasteful as a
//! *store*: pruned production graphs (top-k per entity, see
//! [`TopKRow`](crate::TopKRow)) are row-regular, and both lookups
//! and row scans want the edges grouped by left entity.
//!
//! [`CsrGraph`] is that store: one offset array over the left rows, the
//! right-side column ids in a `u32` slab sorted ascending within each row,
//! and the weights in a parallel `f64` slab. Per edge it spends 12 bytes
//! (4 for the column id, 8 for the weight) plus `8 / degree` amortized
//! offset bytes — 25% less than the 16-byte `Edge` triple, before
//! counting whatever the duplicate-check hash of a builder holds — and
//! `(left, right)` lookups are a row slice plus a binary search instead
//! of a linear scan.
//!
//! Conversions are lossless in both directions up to edge *order*: a round
//! trip through [`CsrGraph`] yields the same edge set with bit-identical
//! weights, listed in the canonical `(left asc, right asc)` order.

use std::sync::OnceLock;

use crate::delta::{DeltaOp, RowDelta, Side};
use crate::error::{CoreError, Result};
use crate::graph::{Edge, SimilarityGraph};

/// A bipartite similarity graph in compressed-sparse-row form.
///
/// Rows are the left entities `0..n_left`; each row holds its right
/// neighbors sorted by **ascending id** with weights in a parallel slab.
/// Built from (and convertible back to) a [`SimilarityGraph`]; the
/// conversion validates nothing because the source graph already did.
///
/// ```
/// use er_core::{CsrGraph, GraphBuilder};
///
/// let mut b = GraphBuilder::new(2, 3);
/// b.add_edge(0, 2, 0.9).unwrap();
/// b.add_edge(0, 1, 0.4).unwrap();
/// b.add_edge(1, 0, 0.7).unwrap();
/// let csr = CsrGraph::from_graph(&b.build());
/// assert_eq!(csr.n_edges(), 3);
/// let (rights, weights) = csr.row(0);
/// assert_eq!(rights, &[1, 2], "rows are sorted by right id");
/// assert_eq!(weights, &[0.4, 0.9]);
/// ```
#[derive(Debug, Clone)]
pub struct CsrGraph {
    n_left: u32,
    n_right: u32,
    /// `offsets[i]..offsets[i + 1]` bounds row `i` in the slabs.
    offsets: Vec<usize>,
    /// Right-side column ids, ascending within each row.
    rights: Vec<u32>,
    /// Edge weights, parallel to `rights`.
    weights: Vec<f64>,
    /// Tombstoned left rows, sorted ascending. Their slab entries stay in
    /// place but no live read ever surfaces them.
    dead_left: Vec<u32>,
    /// Tombstoned right columns, sorted ascending. Slab entries pointing
    /// at them are masked on read; patch entries are removed eagerly.
    dead_right: Vec<u32>,
    /// Overflow edges from right-side inserts, sorted by `(left, right)`.
    ///
    /// Right ids grow monotonically and are never reused, so every patch
    /// edge of a row carries a right id **strictly greater** than all of
    /// that row's slab entries (the slab row was frozen before the right
    /// was created) — chaining slab row then patch row therefore yields
    /// the row in ascending right order with no merge.
    patch: Vec<Edge>,
    /// Live edge count: slab entries minus tombstone-masked ones, plus
    /// the patch.
    live: usize,
    /// Lazy column index for right-side reads: per right id, the left ids
    /// whose rows hold it, ascending. Ids only — weights are read from the
    /// row by binary search, so every weight keeps exactly one copy.
    /// Built on the first [`live_column`](Self::live_column) call (batch
    /// paths never pay for it), then kept current by the inserts. Entries
    /// of tombstoned left rows are filtered on read and dropped by
    /// [`compact`](Self::compact); a removed column is emptied.
    by_right: OnceLock<Vec<Vec<u32>>>,
}

/// Equality over the stored graph; the column index is a cache of the
/// rows and is ignored.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n_left == other.n_left
            && self.n_right == other.n_right
            && self.offsets == other.offsets
            && self.rights == other.rights
            && self.weights == other.weights
            && self.dead_left == other.dead_left
            && self.dead_right == other.dead_right
            && self.patch == other.patch
            && self.live == other.live
    }
}

impl CsrGraph {
    /// Convert a [`SimilarityGraph`] into CSR form — `O(m log d)` for
    /// maximum row degree `d` (counting sort into rows, then a per-row
    /// sort by right id).
    ///
    /// ```
    /// use er_core::{CsrGraph, Edge, SimilarityGraph};
    ///
    /// let g = SimilarityGraph::new(2, 2, vec![Edge::new(1, 0, 0.8)]).unwrap();
    /// assert_eq!(CsrGraph::from_graph(&g).degree(1), 1);
    /// ```
    pub fn from_graph(g: &SimilarityGraph) -> Self {
        let n = g.n_left() as usize;
        let (offsets, mut cells) = crate::graph::group_edges_by_left(n, g.edges());
        for i in 0..n {
            cells[offsets[i]..offsets[i + 1]].sort_unstable_by_key(|&(r, _)| r);
        }
        CsrGraph {
            n_left: g.n_left(),
            n_right: g.n_right(),
            offsets,
            rights: cells.iter().map(|&(r, _)| r).collect(),
            weights: cells.iter().map(|&(_, w)| w).collect(),
            dead_left: Vec::new(),
            dead_right: Vec::new(),
            live: cells.len(),
            patch: Vec::new(),
            by_right: OnceLock::new(),
        }
    }

    /// Convert back to a [`SimilarityGraph`], edges in the canonical
    /// `(left asc, right asc)` order. Bit-exact weights; no re-validation
    /// (the invariants were checked when the source graph was built).
    ///
    /// ```
    /// use er_core::{CsrGraph, Edge, SimilarityGraph};
    ///
    /// let g = SimilarityGraph::new(3, 3, vec![Edge::new(2, 1, 0.5)]).unwrap();
    /// let back = CsrGraph::from_graph(&g).to_graph();
    /// assert_eq!(back.weight_of(2, 1), Some(0.5));
    /// ```
    pub fn to_graph(&self) -> SimilarityGraph {
        SimilarityGraph::from_parts_unchecked(self.n_left, self.n_right, self.iter().collect())
    }

    /// Number of entities in the left collection `V1`.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let csr = CsrGraph::from_graph(&GraphBuilder::new(4, 2).build());
    /// assert_eq!(csr.n_left(), 4);
    /// ```
    #[inline]
    pub fn n_left(&self) -> u32 {
        self.n_left
    }

    /// Number of entities in the right collection `V2`.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let csr = CsrGraph::from_graph(&GraphBuilder::new(4, 2).build());
    /// assert_eq!(csr.n_right(), 2);
    /// ```
    #[inline]
    pub fn n_right(&self) -> u32 {
        self.n_right
    }

    /// Number of **live** edges `m` — slab entries not masked by a
    /// tombstone, plus pending right-insert patch edges.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(1, 1);
    /// b.add_edge(0, 0, 1.0).unwrap();
    /// assert_eq!(CsrGraph::from_graph(&b.build()).n_edges(), 1);
    /// ```
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.live
    }

    /// Whether the store holds no live edges.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// assert!(CsrGraph::from_graph(&GraphBuilder::new(2, 2).build()).is_empty());
    /// ```
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// **Live** degree of left row `left`: tombstoned rows report `0`,
    /// tombstone-masked slab entries are skipped, patch edges counted
    /// (panics if out of bounds).
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// b.add_edge(0, 1, 0.5).unwrap();
    /// let csr = CsrGraph::from_graph(&b.build());
    /// assert_eq!(csr.degree(0), 2);
    /// assert_eq!(csr.degree(1), 0);
    /// ```
    #[inline]
    pub fn degree(&self, left: u32) -> usize {
        if self.is_pristine() {
            return self.offsets[left as usize + 1] - self.offsets[left as usize];
        }
        self.live_row(left).count()
    }

    /// Row `left`'s **raw slab** as `(right ids, weights)` parallel
    /// slices, right ids ascending (panics if out of bounds).
    ///
    /// This is the zero-cost view of the frozen slab: it ignores pending
    /// deltas (tombstoned entries are still present, patch edges absent).
    /// On a pristine store — no deltas applied, or freshly
    /// [`compact`](Self::compact)-ed with no tombstones — it is the whole
    /// row; otherwise use [`live_row`](Self::live_row).
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(1, 3);
    /// b.add_edge(0, 2, 0.3).unwrap();
    /// b.add_edge(0, 0, 0.6).unwrap();
    /// let csr = CsrGraph::from_graph(&b.build());
    /// assert_eq!(csr.row(0), (&[0u32, 2][..], &[0.6f64, 0.3][..]));
    /// ```
    #[inline]
    pub fn row(&self, left: u32) -> (&[u32], &[f64]) {
        let (s, e) = (self.offsets[left as usize], self.offsets[left as usize + 1]);
        (&self.rights[s..e], &self.weights[s..e])
    }

    /// Look up the weight of edge `(left, right)` — one binary search in
    /// the row, `O(log degree)`. Out-of-bounds ids return `None`.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(1, 0, 0.8).unwrap();
    /// let csr = CsrGraph::from_graph(&b.build());
    /// assert_eq!(csr.weight_of(1, 0), Some(0.8));
    /// assert_eq!(csr.weight_of(0, 0), None);
    /// assert_eq!(csr.weight_of(9, 9), None);
    /// ```
    pub fn weight_of(&self, left: u32, right: u32) -> Option<f64> {
        if !self.is_live_left(left) || !self.is_live_right(right) {
            return None;
        }
        self.stored_weight(left, right)
    }

    /// The stored weight of `(left, right)` in row `left` — slab row, then
    /// patch row — with no liveness check. `left` must be in bounds.
    fn stored_weight(&self, left: u32, right: u32) -> Option<f64> {
        let (rights, weights) = self.row(left);
        if let Ok(i) = rights.binary_search(&right) {
            return Some(weights[i]);
        }
        let patch = self.patch_row(left);
        patch
            .binary_search_by_key(&right, |e| e.right)
            .ok()
            .map(|i| patch[i].weight)
    }

    /// Iterate all edges in canonical `(left asc, right asc)` order.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(1, 1, 0.2).unwrap();
    /// b.add_edge(0, 0, 0.9).unwrap();
    /// let csr = CsrGraph::from_graph(&b.build());
    /// let pairs: Vec<(u32, u32)> = csr.iter().map(|e| (e.left, e.right)).collect();
    /// assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    /// ```
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n_left).flat_map(move |l| self.live_row(l).map(move |(r, w)| Edge::new(l, r, w)))
    }

    /// Total heap bytes of the three slabs — the store's resident size,
    /// handy for the scalability experiment's memory reporting.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let csr = CsrGraph::from_graph(&GraphBuilder::new(1, 1).build());
    /// assert_eq!(csr.slab_bytes(), 2 * 8); // two offsets, no edges
    /// ```
    pub fn slab_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.rights.len() * std::mem::size_of::<u32>()
            + self.weights.len() * std::mem::size_of::<f64>()
            + (self.dead_left.len() + self.dead_right.len()) * std::mem::size_of::<u32>()
            + self.patch.len() * std::mem::size_of::<Edge>()
    }

    /// Assemble a store directly from validated parts — the loader-side
    /// twin of the columnar on-disk format (`store` module), which
    /// guarantees the invariants (`offsets` monotone over `rights`/
    /// `weights`, rows right-ascending, tombstone lists sorted, `live`
    /// consistent) before calling. The patch starts empty: a loaded store
    /// is always in folded form.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        n_left: u32,
        n_right: u32,
        offsets: Vec<usize>,
        rights: Vec<u32>,
        weights: Vec<f64>,
        dead_left: Vec<u32>,
        dead_right: Vec<u32>,
        live: usize,
    ) -> Self {
        CsrGraph {
            n_left,
            n_right,
            offsets,
            rights,
            weights,
            dead_left,
            dead_right,
            patch: Vec::new(),
            live,
            by_right: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Delta support: append/tombstone rows without rebuilding the slabs.
    // ------------------------------------------------------------------

    /// Whether no deltas are pending: no tombstones, no patch edges. On a
    /// pristine store [`row`](Self::row) is exactly the live row.
    #[inline]
    pub fn is_pristine(&self) -> bool {
        self.dead_left.is_empty() && self.dead_right.is_empty() && self.patch.is_empty()
    }

    /// Whether left id `left` is in bounds and not tombstoned.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let csr = CsrGraph::from_graph(&GraphBuilder::new(2, 2).build());
    /// assert!(csr.is_live_left(1));
    /// assert!(!csr.is_live_left(2));
    /// ```
    #[inline]
    pub fn is_live_left(&self, left: u32) -> bool {
        left < self.n_left && self.dead_left.binary_search(&left).is_err()
    }

    /// Whether right id `right` is in bounds and not tombstoned.
    #[inline]
    pub fn is_live_right(&self, right: u32) -> bool {
        right < self.n_right && self.dead_right.binary_search(&right).is_err()
    }

    /// Tombstoned left row ids, sorted ascending.
    #[inline]
    pub fn dead_left(&self) -> &[u32] {
        &self.dead_left
    }

    /// Tombstoned right column ids, sorted ascending.
    #[inline]
    pub fn dead_right(&self) -> &[u32] {
        &self.dead_right
    }

    /// Fraction of **slab storage** masked by tombstones — dead rows'
    /// entries plus entries pointing at dead right columns, over all slab
    /// entries. `0.0` on an empty slab. Patch edges are live by
    /// construction and excluded from both sides of the ratio.
    ///
    /// This is the signal an auto-compaction policy watches: reads pay
    /// for masked entries (they are scanned and filtered on every
    /// [`live_row`](Self::live_row)), so a high ratio means
    /// [`compact`](Self::compact) will shrink the slabs by about that
    /// fraction.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(0, 0, 0.5).unwrap();
    /// b.add_edge(1, 1, 0.5).unwrap();
    /// let mut csr = CsrGraph::from_graph(&b.build());
    /// assert_eq!(csr.tombstone_ratio(), 0.0);
    /// csr.remove_left(0).unwrap();
    /// assert_eq!(csr.tombstone_ratio(), 0.5);
    /// csr.compact();
    /// assert_eq!(csr.tombstone_ratio(), 0.0);
    /// ```
    pub fn tombstone_ratio(&self) -> f64 {
        if self.rights.is_empty() {
            return 0.0;
        }
        let live_slab = self.live - self.patch.len();
        (self.rights.len() - live_slab) as f64 / self.rights.len() as f64
    }

    /// The patch edges of row `left` (right-ascending slice).
    #[inline]
    fn patch_row(&self, left: u32) -> &[Edge] {
        let s = self.patch.partition_point(|e| e.left < left);
        let e = self.patch[s..].partition_point(|e| e.left <= left) + s;
        &self.patch[s..e]
    }

    /// Row `left`'s **live** edges as `(right, weight)` pairs, right ids
    /// ascending: tombstoned rows yield nothing, tombstone-masked slab
    /// entries are skipped, right-insert patch edges are appended (their
    /// right ids are provably larger than the row's slab ids, so the
    /// chain stays sorted). Panics if `left` is out of bounds.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(1, 2);
    /// b.add_edge(0, 1, 0.4).unwrap();
    /// let mut csr = CsrGraph::from_graph(&b.build());
    /// csr.insert_right(&[(0, 0.8)]).unwrap();
    /// let row: Vec<(u32, f64)> = csr.live_row(0).collect();
    /// assert_eq!(row, vec![(1, 0.4), (2, 0.8)]);
    /// ```
    pub fn live_row(&self, left: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let live = self.is_live_left(left);
        let (s, e) = if live {
            (self.offsets[left as usize], self.offsets[left as usize + 1])
        } else {
            (0, 0)
        };
        let patch = if live { self.patch_row(left) } else { &[] };
        self.rights[s..e]
            .iter()
            .zip(&self.weights[s..e])
            .map(|(&r, &w)| (r, w))
            .filter(move |&(r, _)| self.dead_right.binary_search(&r).is_err())
            .chain(patch.iter().map(|e| (e.right, e.weight)))
    }

    /// Column `right`'s **live** edges as `(left, weight)` pairs, left ids
    /// ascending — the transpose of [`live_row`](Self::live_row).
    /// Tombstoned or out-of-bounds ids yield nothing.
    ///
    /// `O(degree · log d)`: the column index lists the column's left ids,
    /// and each weight is one binary search in its row. The first call on
    /// a store builds that index in `O(m)`.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(3, 2);
    /// b.add_edge(2, 1, 0.4).unwrap();
    /// b.add_edge(0, 1, 0.7).unwrap();
    /// let mut csr = CsrGraph::from_graph(&b.build());
    /// csr.insert_left(&[(1, 0.9)]).unwrap();
    /// let col: Vec<(u32, f64)> = csr.live_column(1).collect();
    /// assert_eq!(col, vec![(0, 0.7), (2, 0.4), (3, 0.9)]);
    /// assert_eq!(csr.live_column(0).count(), 0);
    /// ```
    pub fn live_column(&self, right: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lefts: &[u32] = if self.is_live_right(right) {
            &self.columns()[right as usize]
        } else {
            &[]
        };
        lefts
            .iter()
            .filter(move |&&l| self.is_live_left(l))
            .filter_map(move |&l| self.stored_weight(l, right).map(|w| (l, w)))
    }

    /// The column index, built from the live rows on first use.
    fn columns(&self) -> &[Vec<u32>] {
        self.by_right.get_or_init(|| {
            let mut cols = vec![Vec::new(); self.n_right as usize];
            for l in 0..self.n_left {
                for (r, _) in self.live_row(l) {
                    cols[r as usize].push(l);
                }
            }
            cols
        })
    }

    /// Validate the edge list of an insert on side `inserting`: the
    /// counterpart ids must be in bounds and live, weights finite in
    /// `[0, 1]`, no duplicate ids. Returns the list sorted ascending by
    /// counterpart id.
    fn checked_sorted(&self, edges: &[(u32, f64)], inserting: Side) -> Result<Vec<(u32, f64)>> {
        let (side, len) = match inserting {
            Side::Left => ("right", self.n_right),
            Side::Right => ("left", self.n_left),
        };
        let mut sorted = edges.to_vec();
        sorted.sort_unstable_by_key(|&(id, _)| id);
        for pair in sorted.windows(2) {
            if pair[0].0 == pair[1].0 {
                let (left, right) = match inserting {
                    Side::Left => (self.n_left, pair[0].0),
                    Side::Right => (pair[0].0, self.n_right),
                };
                return Err(CoreError::DuplicateEdge { left, right });
            }
        }
        for &(id, w) in &sorted {
            if id >= len {
                return Err(CoreError::NodeOutOfBounds { side, id, len });
            }
            let live = match inserting {
                Side::Left => self.is_live_right(id),
                Side::Right => self.is_live_left(id),
            };
            if !live {
                return Err(CoreError::DeadNode { side, id });
            }
            if !(w.is_finite() && (0.0..=1.0).contains(&w)) {
                return Err(CoreError::InvalidWeight(w));
            }
        }
        Ok(sorted)
    }

    /// Append a new left row with its `(right, weight)` edges and return
    /// its id (`n_left` before the call). A true slab append — `O(d log d)`
    /// for the new row alone, no rebuild. Ids are never reused, so the
    /// new id is fresh even after deletions.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut csr = CsrGraph::from_graph(&GraphBuilder::new(1, 3).build());
    /// let id = csr.insert_left(&[(2, 0.9), (0, 0.4)]).unwrap();
    /// assert_eq!(id, 1);
    /// assert_eq!(csr.row(1).0, &[0, 2]);
    /// ```
    pub fn insert_left(&mut self, edges: &[(u32, f64)]) -> Result<u32> {
        let sorted = self.checked_sorted(edges, Side::Left)?;
        let id = self.n_left;
        self.rights.extend(sorted.iter().map(|&(r, _)| r));
        self.weights.extend(sorted.iter().map(|&(_, w)| w));
        self.offsets.push(self.rights.len());
        self.n_left += 1;
        self.live += sorted.len();
        if let Some(cols) = self.by_right.get_mut() {
            // The new id is the largest left id: columns stay ascending.
            for &(r, _) in &sorted {
                cols[r as usize].push(id);
            }
        }
        Ok(id)
    }

    /// Add a new right column with its `(left, weight)` edges and return
    /// its id (`n_right` before the call). The edges land in the patch
    /// (the slab's rows are frozen); [`compact`](Self::compact) folds
    /// them in.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut csr = CsrGraph::from_graph(&GraphBuilder::new(2, 1).build());
    /// let id = csr.insert_right(&[(0, 0.7), (1, 0.2)]).unwrap();
    /// assert_eq!(id, 1);
    /// assert_eq!(csr.weight_of(1, 1), Some(0.2));
    /// ```
    pub fn insert_right(&mut self, edges: &[(u32, f64)]) -> Result<u32> {
        let sorted = self.checked_sorted(edges, Side::Right)?;
        let id = self.n_right;
        self.n_right += 1;
        self.live += sorted.len();
        self.patch
            .extend(sorted.iter().map(|&(l, w)| Edge::new(l, id, w)));
        // Restore (left, right) order. The new edges all carry the
        // maximal right id, so a stable sort is a single merge pass.
        self.patch.sort_by_key(|e| (e.left, e.right));
        if let Some(cols) = self.by_right.get_mut() {
            cols.push(sorted.iter().map(|&(l, _)| l).collect());
        }
        Ok(id)
    }

    /// Tombstone left row `left` and return its live `(right, weight)`
    /// edges at removal time, right ids ascending — the edges
    /// [`apply`](Self::apply) returns for a [`RowDelta::delete_left`].
    /// Errors on out-of-bounds or already-dead ids.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut b = GraphBuilder::new(2, 2);
    /// b.add_edge(1, 0, 0.6).unwrap();
    /// let mut csr = CsrGraph::from_graph(&b.build());
    /// assert_eq!(csr.remove_left(1).unwrap(), vec![(0, 0.6)]);
    /// assert!(!csr.is_live_left(1));
    /// assert_eq!(csr.n_edges(), 0);
    /// ```
    pub fn remove_left(&mut self, left: u32) -> Result<Vec<(u32, f64)>> {
        if left >= self.n_left {
            return Err(CoreError::NodeOutOfBounds {
                side: "left",
                id: left,
                len: self.n_left,
            });
        }
        if !self.is_live_left(left) {
            return Err(CoreError::DeadNode {
                side: "left",
                id: left,
            });
        }
        let removed: Vec<(u32, f64)> = self.live_row(left).collect();
        let at = self.dead_left.partition_point(|&d| d < left);
        self.dead_left.insert(at, left);
        self.patch.retain(|e| e.left != left);
        self.live -= removed.len();
        Ok(removed)
    }

    /// Tombstone right column `right` and return its live
    /// `(left, weight)` edges at removal time, left ids ascending — the
    /// edges [`apply`](Self::apply) returns for a
    /// [`RowDelta::delete_right`].
    /// Reads the column through [`live_column`](Self::live_column)
    /// (`O(degree · log d)`, plus the one-time index build) and makes one
    /// patch pass. Errors on out-of-bounds or already-dead ids.
    pub fn remove_right(&mut self, right: u32) -> Result<Vec<(u32, f64)>> {
        if right >= self.n_right {
            return Err(CoreError::NodeOutOfBounds {
                side: "right",
                id: right,
                len: self.n_right,
            });
        }
        if !self.is_live_right(right) {
            return Err(CoreError::DeadNode {
                side: "right",
                id: right,
            });
        }
        let removed: Vec<(u32, f64)> = self.live_column(right).collect();
        if let Some(cols) = self.by_right.get_mut() {
            cols[right as usize] = Vec::new();
        }
        self.patch.retain(|e| e.right != right);
        let at = self.dead_right.partition_point(|&d| d < right);
        self.dead_right.insert(at, right);
        self.live -= removed.len();
        Ok(removed)
    }

    /// Apply one [`RowDelta`] and return the edges it tombstoned: none for
    /// an insert, the record's live edges (as
    /// [`remove_left`](Self::remove_left) /
    /// [`remove_right`](Self::remove_right) return them) for a delete.
    /// Inserts must carry the next append id of their side (checked
    /// **before** mutating); a delete reads its edges from the store, not
    /// from the delta. A rejected delta changes nothing.
    pub fn apply(&mut self, delta: &RowDelta) -> Result<Vec<(u32, f64)>> {
        let next = match delta.side {
            Side::Left => self.n_left,
            Side::Right => self.n_right,
        };
        match (delta.op, delta.side) {
            (DeltaOp::Insert, _) if delta.id != next => Err(CoreError::DeltaIdMismatch {
                expected: next,
                got: delta.id,
            }),
            (DeltaOp::Insert, Side::Left) => self.insert_left(&delta.edges).map(|_| Vec::new()),
            (DeltaOp::Insert, Side::Right) => self.insert_right(&delta.edges).map(|_| Vec::new()),
            (DeltaOp::Delete, Side::Left) => self.remove_left(delta.id),
            (DeltaOp::Delete, Side::Right) => self.remove_right(delta.id),
        }
    }

    /// Fold pending deltas into the slabs: drop tombstone-masked entries,
    /// merge the patch into its rows, clear the patch, drop tombstoned
    /// rows from a built column index. Tombstoned **ids** stay dead
    /// forever (liveness queries are unaffected); only their storage is
    /// reclaimed. `O(m)`.
    ///
    /// ```
    /// # use er_core::{CsrGraph, GraphBuilder};
    /// let mut csr = CsrGraph::from_graph(&GraphBuilder::new(1, 1).build());
    /// csr.insert_right(&[(0, 0.5)]).unwrap();
    /// csr.compact();
    /// assert_eq!(csr.row(0).0, &[1], "patch folded into the slab");
    /// ```
    pub fn compact(&mut self) {
        if self.is_pristine() {
            return;
        }
        let n = self.n_left as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut rights = Vec::with_capacity(self.live);
        let mut weights = Vec::with_capacity(self.live);
        offsets.push(0);
        for l in 0..self.n_left {
            for (r, w) in self.live_row(l) {
                rights.push(r);
                weights.push(w);
            }
            offsets.push(rights.len());
        }
        debug_assert_eq!(rights.len(), self.live);
        self.offsets = offsets;
        self.rights = rights;
        self.weights = weights;
        self.patch.clear();
        let dead_left = &self.dead_left;
        if let Some(cols) = self.by_right.get_mut() {
            for col in cols.iter_mut() {
                col.retain(|l| dead_left.binary_search(l).is_err());
            }
        }
    }
}

impl From<&SimilarityGraph> for CsrGraph {
    fn from(g: &SimilarityGraph) -> Self {
        CsrGraph::from_graph(g)
    }
}

impl From<&CsrGraph> for SimilarityGraph {
    fn from(csr: &CsrGraph) -> Self {
        csr.to_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn sample() -> SimilarityGraph {
        let mut b = GraphBuilder::new(3, 4);
        b.add_edge(0, 3, 0.9).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(2, 0, 0.7).unwrap();
        b.add_edge(2, 2, 0.7).unwrap();
        b.add_edge(2, 1, 0.1).unwrap();
        b.build()
    }

    #[test]
    fn rows_are_sorted_by_right_id() {
        let csr = CsrGraph::from_graph(&sample());
        assert_eq!(csr.row(0).0, &[1, 3]);
        assert_eq!(csr.row(1).0, &[] as &[u32]);
        assert_eq!(csr.row(2).0, &[0, 1, 2]);
        assert_eq!(csr.degree(2), 3);
        assert_eq!(csr.n_edges(), 5);
        assert!(!csr.is_empty());
    }

    #[test]
    fn lookup_matches_graph() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        for l in 0..4u32 {
            for r in 0..5u32 {
                assert_eq!(csr.weight_of(l, r), g.weight_of(l, r), "({l},{r})");
            }
        }
    }

    #[test]
    fn round_trip_preserves_edge_set_bitwise() {
        let g = sample();
        let back = CsrGraph::from_graph(&g).to_graph();
        assert_eq!(back.n_left(), g.n_left());
        assert_eq!(back.n_right(), g.n_right());
        let canon = |g: &SimilarityGraph| -> Vec<(u32, u32, u64)> {
            let mut v: Vec<_> = g
                .edges()
                .iter()
                .map(|e| (e.left, e.right, e.weight.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(canon(&back), canon(&g));
        // And the round-tripped order is canonical.
        let pairs: Vec<(u32, u32)> = back.edges().iter().map(|e| (e.left, e.right)).collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn conversion_impls_delegate() {
        let g = sample();
        let csr: CsrGraph = (&g).into();
        let back: SimilarityGraph = (&csr).into();
        assert_eq!(back.n_edges(), g.n_edges());
        assert_eq!(csr, CsrGraph::from_graph(&back), "CSR form is canonical");
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new(4, 4).build();
        let csr = CsrGraph::from_graph(&g);
        assert!(csr.is_empty());
        assert_eq!(csr.to_graph().n_edges(), 0);
        assert_eq!(csr.iter().count(), 0);
    }

    #[test]
    fn slab_bytes_counts_all_slabs() {
        let csr = CsrGraph::from_graph(&sample());
        assert_eq!(csr.slab_bytes(), 4 * 8 + 5 * 4 + 5 * 8);
    }

    // ----------------------------------------------------------------
    // Delta machinery.
    // ----------------------------------------------------------------

    #[test]
    fn insert_left_appends_a_sorted_row() {
        let mut csr = CsrGraph::from_graph(&sample());
        let id = csr.insert_left(&[(3, 0.2), (0, 0.8)]).unwrap();
        assert_eq!(id, 3);
        assert_eq!(csr.n_left(), 4);
        assert_eq!(csr.row(3), (&[0u32, 3][..], &[0.8f64, 0.2][..]));
        assert_eq!(csr.n_edges(), 7);
        assert_eq!(csr.weight_of(3, 0), Some(0.8));
        // Still pristine: a left append is a plain slab extension.
        assert!(csr.is_pristine());
    }

    #[test]
    fn insert_right_lands_in_the_patch_and_reads_back() {
        let mut csr = CsrGraph::from_graph(&sample());
        let id = csr.insert_right(&[(2, 0.55), (0, 0.65)]).unwrap();
        assert_eq!(id, 4);
        assert_eq!(csr.n_right(), 5);
        assert_eq!(csr.n_edges(), 7);
        assert_eq!(csr.weight_of(0, 4), Some(0.65));
        assert_eq!(csr.weight_of(2, 4), Some(0.55));
        assert_eq!(csr.degree(0), 3);
        let row0: Vec<u32> = csr.live_row(0).map(|(r, _)| r).collect();
        assert_eq!(row0, vec![1, 3, 4], "patch chains after the slab row");
    }

    #[test]
    fn remove_left_tombstones_and_returns_edges() {
        let mut csr = CsrGraph::from_graph(&sample());
        let removed = csr.remove_left(2).unwrap();
        assert_eq!(removed, vec![(0, 0.7), (1, 0.1), (2, 0.7)]);
        assert!(!csr.is_live_left(2));
        assert_eq!(csr.degree(2), 0);
        assert_eq!(csr.n_edges(), 2);
        assert_eq!(csr.weight_of(2, 0), None);
        assert!(matches!(
            csr.remove_left(2),
            Err(CoreError::DeadNode {
                side: "left",
                id: 2
            })
        ));
        assert!(csr.remove_left(9).is_err());
    }

    #[test]
    fn remove_right_masks_slab_and_patch_entries() {
        let mut csr = CsrGraph::from_graph(&sample());
        csr.insert_right(&[(1, 0.3)]).unwrap(); // right 4 via patch
        let removed = csr.remove_right(1).unwrap();
        assert_eq!(removed, vec![(0, 0.5), (2, 0.1)]);
        assert_eq!(csr.weight_of(0, 1), None);
        assert_eq!(csr.n_edges(), 4);
        let removed = csr.remove_right(4).unwrap();
        assert_eq!(removed, vec![(1, 0.3)], "patch-only column removal");
        assert_eq!(csr.n_edges(), 3);
        assert!(csr.remove_right(4).is_err());
    }

    #[test]
    fn inserts_validate_ids_weights_and_liveness() {
        let mut csr = CsrGraph::from_graph(&sample());
        assert!(matches!(
            csr.insert_left(&[(9, 0.5)]),
            Err(CoreError::NodeOutOfBounds { side: "right", .. })
        ));
        assert!(matches!(
            csr.insert_left(&[(0, 1.5)]),
            Err(CoreError::InvalidWeight(_))
        ));
        assert!(matches!(
            csr.insert_left(&[(0, 0.5), (0, 0.6)]),
            Err(CoreError::DuplicateEdge { .. })
        ));
        csr.remove_right(0).unwrap();
        assert!(matches!(
            csr.insert_left(&[(0, 0.5)]),
            Err(CoreError::DeadNode {
                side: "right",
                id: 0
            })
        ));
        assert!(matches!(
            csr.insert_right(&[(9, 0.5)]),
            Err(CoreError::NodeOutOfBounds { side: "left", .. })
        ));
        // Failed inserts must not burn ids or edges.
        assert_eq!((csr.n_left(), csr.n_right()), (3, 4));
        assert_eq!(csr.n_edges(), 4);
    }

    #[test]
    fn ids_are_never_reused_after_deletion() {
        let mut csr = CsrGraph::from_graph(&sample());
        csr.remove_left(2).unwrap();
        let id = csr.insert_left(&[(0, 0.4)]).unwrap();
        assert_eq!(id, 3, "dead id 2 is not recycled");
        assert!(!csr.is_live_left(2));
        assert!(csr.is_live_left(3));
    }

    #[test]
    fn iter_and_to_graph_see_only_live_edges() {
        let mut csr = CsrGraph::from_graph(&sample());
        csr.remove_left(0).unwrap();
        csr.insert_right(&[(1, 0.9)]).unwrap();
        let edges: Vec<(u32, u32)> = csr.iter().map(|e| (e.left, e.right)).collect();
        assert_eq!(edges, vec![(1, 4), (2, 0), (2, 1), (2, 2)]);
        let g = csr.to_graph();
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 5, "dead/new ids stay in the id space");
        assert_eq!(g.weight_of(1, 4), Some(0.9));
    }

    #[test]
    fn apply_checks_ids_and_dispatches() {
        use crate::delta::RowDelta;
        let mut csr = CsrGraph::from_graph(&sample());
        assert!(matches!(
            csr.apply(&RowDelta::insert_left(7, vec![])),
            Err(CoreError::DeltaIdMismatch {
                expected: 3,
                got: 7
            })
        ));
        let inserted = csr
            .apply(&RowDelta::insert_left(3, vec![(0, 0.5)]))
            .unwrap();
        assert!(inserted.is_empty());
        let inserted = csr
            .apply(&RowDelta::insert_right(4, vec![(3, 0.6)]))
            .unwrap();
        assert!(inserted.is_empty());
        let removed = csr.apply(&RowDelta::delete_left(0)).unwrap();
        assert_eq!(removed, vec![(1, 0.5), (3, 0.9)]);
        assert_eq!((csr.n_left(), csr.n_right()), (4, 5));
        assert!(!csr.is_live_left(0));
        assert_eq!(csr.weight_of(3, 4), Some(0.6));
        assert_eq!(csr.n_edges(), 5);
    }

    #[test]
    fn compact_folds_deltas_and_preserves_reads() {
        let mut csr = CsrGraph::from_graph(&sample());
        csr.insert_right(&[(0, 0.45), (2, 0.35)]).unwrap();
        csr.remove_left(0).unwrap();
        csr.remove_right(1).unwrap();
        let before: Vec<Edge> = csr.iter().collect();
        let live = csr.n_edges();
        csr.compact();
        let after: Vec<Edge> = csr.iter().collect();
        assert_eq!(before, after);
        assert_eq!(csr.n_edges(), live);
        assert!(!csr.is_live_left(0));
        assert!(!csr.is_live_right(1), "tombstoned ids stay dead");
        // Patch folded: raw rows now equal live rows for live lefts.
        let raw: Vec<u32> = csr.row(2).0.to_vec();
        let live_r: Vec<u32> = csr.live_row(2).map(|(r, _)| r).collect();
        assert_eq!(raw, live_r);
        assert_eq!(csr.row(0).0.len(), 0, "dead row storage reclaimed");
    }

    #[test]
    fn deltas_equal_rebuilt_graph() {
        // Folding deltas through the store must equal building the final
        // graph from scratch over the surviving edge set.
        let mut csr = CsrGraph::from_graph(&sample());
        csr.insert_left(&[(1, 0.25)]).unwrap(); // left 3
        csr.insert_right(&[(0, 0.85), (3, 0.15)]).unwrap(); // right 4
        csr.remove_left(2).unwrap();
        csr.remove_right(3).unwrap();
        let mut b = GraphBuilder::new(4, 5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 4, 0.85).unwrap();
        b.add_edge(3, 1, 0.25).unwrap();
        b.add_edge(3, 4, 0.15).unwrap();
        let want = b.build();
        let got = csr.to_graph();
        assert_eq!(got.n_edges(), want.n_edges());
        for e in want.edges() {
            assert_eq!(got.weight_of(e.left, e.right), Some(e.weight));
        }
        csr.compact();
        assert_eq!(csr.to_graph().n_edges(), want.n_edges());
    }
}
