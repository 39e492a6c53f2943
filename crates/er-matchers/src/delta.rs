//! Delta-incremental matching: repair an assignment across graph deltas.
//!
//! The sweep engine (PR 2) made the matchers incremental across
//! *thresholds*; this module makes them incremental across *graph
//! deltas* — record inserts/deletes carried as [`RowDelta`]s — which is
//! what a long-lived matching service needs: re-matching after one
//! record arrives must not cost a full `O(m log m)` re-run.
//!
//! Three strategies behind one trait:
//!
//! * [`UmcDelta`] — true incremental repair. UMC's greedy matching is the
//!   unique fixpoint of "each edge, in [`edge_key_desc`] order, matches
//!   iff both endpoints are free at its turn". A delta perturbs that
//!   sequence at finitely many keys, and the perturbation propagates
//!   along a single alternating path whose keys **strictly increase** —
//!   so repair is one cascade walk, not a re-run (see `cascade`).
//! * [`BahDelta`] — incremental state, replayed search. BAH's output is a
//!   deterministic function of `(n_left, n_right, contribution map,
//!   config)`; the delta maintains the map in `O(|edges|)` and re-runs
//!   the bounded swap search (whose cost is governed by its move budget,
//!   not the graph) only when the map or the dimensions actually change.
//! * [`ReplayDelta`] — the fallback for the six algorithms whose outputs
//!   have no known local repair rule: fold the delta into a resident
//!   [`CsrGraph`] and re-match over the live edge set, memoizing the
//!   (graph-identical) case of deleting an edgeless record.
//!
//! **Contract**: feed a delta matcher exactly the deltas applied to the
//! backing store, in the same order. Inserts must carry the side's next
//! append id (ids are never reused). A delta the store would reject is
//! rejected here too, as a typed [`CoreError`] — a wrong insert id as
//! [`CoreError::DeltaIdMismatch`], an unknown id as
//! [`CoreError::NodeOutOfBounds`] — and leaves the matcher unchanged.

use std::cmp::Ordering;
use std::sync::OnceLock;

use er_core::delta::{DeltaOp, GraphDelta, RowDelta, Side};
use er_core::float::edge_key_desc;
use er_core::{CoreError, CsrGraph, Edge, FxHashMap, Matching, Result, SortedEdges};

use crate::bah::{driver_key, left_drives, search, BahConfig};
use crate::matcher::{Matcher, PreparedGraph};

/// A matcher that maintains its assignment across graph deltas.
///
/// Equivalence guarantee (property-proven in `tests/delta_props.rs`):
/// after any delta sequence, [`matching`](DeltaMatcher::matching) equals
/// the corresponding one-shot [`Matcher`] run from scratch on the
/// resulting graph — same threshold, same id space (deleted ids remain
/// as isolated nodes, exactly as in [`CsrGraph`]).
///
/// Reads take `&self`: the replay-based implementations recompute their
/// assignment lazily behind an interior cache that
/// [`apply_delta`](DeltaMatcher::apply_delta) resets, so concurrent
/// readers can share one matcher behind a read lock.
pub trait DeltaMatcher: Send + Sync {
    /// Short algorithm acronym, as in [`Matcher::name`].
    fn name(&self) -> &'static str;

    /// The similarity threshold the assignment is maintained at.
    fn threshold(&self) -> f64;

    /// Fold one row delta into the assignment. A delta that does not fit
    /// the matcher's id space is an error and changes nothing.
    fn apply_delta(&mut self, delta: &RowDelta) -> Result<()>;

    /// Fold a batch, first to last. **Not atomic**, like
    /// [`CsrGraph::apply_all`]: an error leaves the rows before it applied.
    fn apply_all(&mut self, batch: &GraphDelta) -> Result<()> {
        batch.iter().try_for_each(|row| self.apply_delta(row))
    }

    /// The current assignment.
    fn matching(&self) -> Matching;

    /// The current partner of `id` on `side`, or `None` when `id` is
    /// unmatched, deleted or out of range. Equal to a scan of
    /// [`matching`](DeltaMatcher::matching), without building it: `O(1)`
    /// for [`UmcDelta`], `O(log n)` over the cached assignment otherwise.
    fn partner(&self, side: Side, id: u32) -> Option<u32>;
}

/// A recomputed assignment plus a right-keyed copy of its pairs, so
/// partner lookups on either side are one binary search.
struct Solved {
    matching: Matching,
    /// `(right, left)` pairs, ascending.
    by_right: Vec<(u32, u32)>,
}

impl Solved {
    fn new(matching: Matching) -> Self {
        let mut by_right: Vec<(u32, u32)> = matching.iter().map(|(l, r)| (r, l)).collect();
        by_right.sort_unstable();
        Solved { matching, by_right }
    }

    fn partner(&self, side: Side, id: u32) -> Option<u32> {
        // Both pair lists are sorted by their first id, which is unique.
        let pairs = match side {
            Side::Left => self.matching.pairs(),
            Side::Right => &self.by_right,
        };
        pairs
            .binary_search_by_key(&id, |&(a, _)| a)
            .ok()
            .map(|i| pairs[i].1)
    }
}

/// The global greedy key of edge `(l, r, w)`; [`edge_key_desc`]'s
/// `Ordering::Less` means "consumed earlier".
#[inline]
fn key(l: u32, r: u32, w: f64) -> (f64, u32, u32) {
    (w, l, r)
}

/// Reject a delta that does not fit an id space of `n_left × n_right`:
/// an insert must carry its side's next id, a delete an existing one,
/// and every edge an existing counterpart.
fn check_ids(delta: &RowDelta, n_left: u32, n_right: u32) -> Result<()> {
    let (own, other, own_side, other_side) = match delta.side {
        Side::Left => (n_left, n_right, "left", "right"),
        Side::Right => (n_right, n_left, "right", "left"),
    };
    match delta.op {
        DeltaOp::Insert if delta.id != own => {
            return Err(CoreError::DeltaIdMismatch {
                expected: own,
                got: delta.id,
            })
        }
        DeltaOp::Delete if delta.id >= own => {
            return Err(CoreError::NodeOutOfBounds {
                side: own_side,
                id: delta.id,
                len: own,
            })
        }
        _ => {}
    }
    match delta.edges.iter().find(|&&(id, _)| id >= other) {
        Some(&(id, _)) => Err(CoreError::NodeOutOfBounds {
            side: other_side,
            id,
            len: other,
        }),
        None => Ok(()),
    }
}

/// The key of a node's edge given the node's side.
#[inline]
fn ekey(side: Side, node: u32, other: u32, w: f64) -> (f64, u32, u32) {
    match side {
        Side::Left => key(node, other, w),
        Side::Right => key(other, node, w),
    }
}

// ----------------------------------------------------------------------
// UMC: greedy-cursor cascade repair.
// ----------------------------------------------------------------------

/// Delta-incremental Unique Mapping Clustering.
///
/// State: per-node neighbor lists restricted to the strict window
/// (`weight > t`), each sorted by the global greedy key, plus the two
/// match arrays. A delta triggers one *cascade*:
///
/// * **Insert** of node `x`: scan `x`'s list in key order. An edge
///   `(x, y)` whose counterpart `y` is matched at an **earlier** key is
///   a no-op (the pre-existing decision wins); a free or later-matched
///   `y` matches `x`, displacing `y`'s old partner, which resumes
///   scanning its own list strictly after its lost key.
/// * **Delete** of node `x`: its edges vanish. All were no-ops except a
///   match `(x, y)` at key `k` — freeing `y`, which resumes scanning
///   strictly after `k`.
///
/// Every cascade step strictly increases the key it proceeds from, so
/// the walk terminates and each edge is examined at most once per
/// delta. Decisions at keys before the first perturbed key are
/// untouched — which is exactly why the repair is sound: greedy is a
/// left-to-right fold over the key-sorted edge sequence, and the delta
/// only edits the sequence's tail behavior from the perturbation on.
pub struct UmcDelta {
    t: f64,
    /// Per left node: `(right, weight)`, ascending by greedy key
    /// (weight desc, right asc). Strict window only.
    left: Vec<Vec<(u32, f64)>>,
    /// Per right node: `(left, weight)`, ascending by greedy key.
    right: Vec<Vec<(u32, f64)>>,
    match_left: Vec<Option<(u32, f64)>>,
    match_right: Vec<Option<(u32, f64)>>,
}

impl UmcDelta {
    /// Build from an edge iterator with explicit dimensions, keeping only
    /// the strict window `weight > t`, and compute the initial greedy
    /// matching (`O(m log m)` — the same cost as one full UMC run).
    pub fn new(n_left: u32, n_right: u32, edges: impl IntoIterator<Item = Edge>, t: f64) -> Self {
        let mut this = UmcDelta {
            t,
            left: vec![Vec::new(); n_left as usize],
            right: vec![Vec::new(); n_right as usize],
            match_left: vec![None; n_left as usize],
            match_right: vec![None; n_right as usize],
        };
        let window = SortedEdges::from_edges(edges.into_iter().filter(|e| e.weight > t).collect());
        // In greedy-key order every row and column receives its edges
        // already sorted, and the greedy fold runs in the same pass.
        for e in window.all() {
            this.left[e.left as usize].push((e.right, e.weight));
            this.right[e.right as usize].push((e.left, e.weight));
            if this.match_left[e.left as usize].is_none()
                && this.match_right[e.right as usize].is_none()
            {
                this.match_left[e.left as usize] = Some((e.right, e.weight));
                this.match_right[e.right as usize] = Some((e.left, e.weight));
            }
        }
        this
    }

    /// Build from a CSR store's live edges.
    pub fn from_csr(csr: &CsrGraph, t: f64) -> Self {
        Self::new(csr.n_left(), csr.n_right(), csr.iter(), t)
    }

    #[inline]
    fn list(&self, side: Side, node: u32) -> &[(u32, f64)] {
        match side {
            Side::Left => &self.left[node as usize],
            Side::Right => &self.right[node as usize],
        }
    }

    #[inline]
    fn match_of(&self, side: Side, node: u32) -> Option<(u32, f64)> {
        match side {
            Side::Left => self.match_left[node as usize],
            Side::Right => self.match_right[node as usize],
        }
    }

    /// Record the match `(node, other)`; `node` is on `side`.
    fn set_match(&mut self, side: Side, node: u32, other: u32, w: f64) {
        match side {
            Side::Left => {
                self.match_left[node as usize] = Some((other, w));
                self.match_right[other as usize] = Some((node, w));
            }
            Side::Right => {
                self.match_right[node as usize] = Some((other, w));
                self.match_left[other as usize] = Some((node, w));
            }
        }
    }

    /// Clear the match of `other` (on the side opposite `side`) with its
    /// partner.
    fn clear_counterpart(&mut self, side: Side, other: u32) {
        match side {
            Side::Left => {
                if let Some((p, _)) = self.match_right[other as usize].take() {
                    self.match_left[p as usize] = None;
                }
            }
            Side::Right => {
                if let Some((p, _)) = self.match_left[other as usize].take() {
                    self.match_right[p as usize] = None;
                }
            }
        }
    }

    /// Re-run the greedy fold for `node` (on `side`) from strictly after
    /// `from` (`None` = from the start of its list), displacing partners
    /// matched at later keys and cascading until the walk dies out.
    fn cascade(&mut self, side: Side, mut node: u32, mut from: Option<(f64, u32, u32)>) {
        'walk: loop {
            let list = self.list(side, node);
            let start = match from {
                None => 0,
                Some(k) => list.partition_point(|&(other, w)| {
                    edge_key_desc(ekey(side, node, other, w), k) != Ordering::Greater
                }),
            };
            let len = list.len();
            for i in start..len {
                let (other, w) = self.list(side, node)[i];
                let this_key = ekey(side, node, other, w);
                match self.match_of(side.opposite(), other) {
                    None => {
                        self.set_match(side, node, other, w);
                        break 'walk;
                    }
                    Some((p, pw)) => {
                        let held_key = ekey(side.opposite(), other, p, pw);
                        if edge_key_desc(this_key, held_key) == Ordering::Less {
                            // Steal: this edge precedes the held match in
                            // greedy order, so in a full re-fold it wins.
                            self.clear_counterpart(side, other);
                            self.set_match(side, node, other, w);
                            // The displaced partner resumes strictly after
                            // the key it lost at — its earlier edges were
                            // losing before and still lose (decisions at
                            // earlier keys are untouched).
                            node = p;
                            from = Some(held_key);
                            continue 'walk;
                        }
                    }
                }
            }
            break; // List exhausted: `node` stays unmatched.
        }
    }

    /// Insert a node's window edges into the counterpart lists, keeping
    /// key order (one binary search + shift per edge).
    fn index_insert(&mut self, side: Side, node: u32, edges: &[(u32, f64)]) {
        for &(other, w) in edges {
            let k = ekey(side, node, other, w);
            let list = match side {
                Side::Left => &mut self.right[other as usize],
                Side::Right => &mut self.left[other as usize],
            };
            let at = list.partition_point(|&(n2, w2)| {
                edge_key_desc(ekey(side.opposite(), other, n2, w2), k) == Ordering::Less
            });
            list.insert(at, (node, w));
        }
    }

    /// Remove a node's window edges from the counterpart lists.
    fn index_remove(&mut self, side: Side, node: u32, edges: &[(u32, f64)]) {
        for &(other, _) in edges {
            let list = match side {
                Side::Left => &mut self.right[other as usize],
                Side::Right => &mut self.left[other as usize],
            };
            if let Some(pos) = list.iter().position(|&(n2, _)| n2 == node) {
                list.remove(pos);
            }
        }
    }

    fn insert_node(&mut self, side: Side, id: u32, edges: &[(u32, f64)]) {
        let mut row: Vec<(u32, f64)> = edges.iter().copied().filter(|&(_, w)| w > self.t).collect();
        row.sort_by(|a, b| edge_key_desc(ekey(side, id, a.0, a.1), ekey(side, id, b.0, b.1)));
        match side {
            Side::Left => {
                self.left.push(row.clone());
                self.match_left.push(None);
            }
            Side::Right => {
                self.right.push(row.clone());
                self.match_right.push(None);
            }
        }
        self.index_insert(side, id, &row);
        self.cascade(side, id, None);
    }

    fn delete_node(&mut self, side: Side, id: u32) {
        let row = match side {
            Side::Left => std::mem::take(&mut self.left[id as usize]),
            Side::Right => std::mem::take(&mut self.right[id as usize]),
        };
        self.index_remove(side, id, &row);
        let held = match side {
            Side::Left => self.match_left[id as usize].take(),
            Side::Right => self.match_right[id as usize].take(),
        };
        if let Some((partner, w)) = held {
            match side {
                Side::Left => self.match_right[partner as usize] = None,
                Side::Right => self.match_left[partner as usize] = None,
            }
            // The freed partner resumes strictly after the lost key; its
            // earlier edges lost against earlier-key matches that did not
            // involve the deleted node (it held exactly one match).
            let lost_key = ekey(side, id, partner, w);
            self.cascade(side.opposite(), partner, Some(lost_key));
        }
    }
}

impl DeltaMatcher for UmcDelta {
    fn name(&self) -> &'static str {
        "UMC"
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn apply_delta(&mut self, delta: &RowDelta) -> Result<()> {
        check_ids(delta, self.left.len() as u32, self.right.len() as u32)?;
        match delta.op {
            DeltaOp::Insert => self.insert_node(delta.side, delta.id, &delta.edges),
            DeltaOp::Delete => self.delete_node(delta.side, delta.id),
        }
        Ok(())
    }

    fn matching(&self) -> Matching {
        Matching::new(
            self.match_left
                .iter()
                .enumerate()
                .filter_map(|(l, m)| m.map(|(r, _)| (l as u32, r)))
                .collect(),
        )
    }

    fn partner(&self, side: Side, id: u32) -> Option<u32> {
        let held = match side {
            Side::Left => self.match_left.get(id as usize),
            Side::Right => self.match_right.get(id as usize),
        };
        held.copied().flatten().map(|(p, _)| p)
    }
}

// ----------------------------------------------------------------------
// BAH: incremental contribution map.
// ----------------------------------------------------------------------

/// Delta-incremental Best Assignment Heuristic.
///
/// Maintains the contribution map `d` (strict window, keyed by the
/// driver orientation) across deltas and replays the seeded swap search
/// on demand. The search reads `d` only through point lookups, so its
/// outcome is a deterministic function of the map's *contents* — which
/// is why maintaining the map incrementally is exactly equivalent to
/// rebuilding it from the post-delta graph. Growing a side can flip the
/// driver orientation (`|V1| >= |V2|`); the map is re-keyed in place
/// when it does.
pub struct BahDelta {
    t: f64,
    n_left: u32,
    n_right: u32,
    d: FxHashMap<(u32, u32), f64>,
    config: BahConfig,
    /// The replayed search, computed on the first read after a change.
    cached: OnceLock<Solved>,
}

impl BahDelta {
    /// Build from an edge iterator with explicit dimensions.
    pub fn new(
        n_left: u32,
        n_right: u32,
        edges: impl IntoIterator<Item = Edge>,
        t: f64,
        config: BahConfig,
    ) -> Self {
        let ld = left_drives(n_left, n_right);
        let mut d = FxHashMap::default();
        for e in edges.into_iter().filter(|e| e.weight > t) {
            d.insert(driver_key(e.left, e.right, ld), e.weight);
        }
        BahDelta {
            t,
            n_left,
            n_right,
            d,
            config,
            cached: OnceLock::new(),
        }
    }

    /// Build from a CSR store's live edges.
    pub fn from_csr(csr: &CsrGraph, t: f64, config: BahConfig) -> Self {
        Self::new(csr.n_left(), csr.n_right(), csr.iter(), t, config)
    }

    /// Swap every key if the driver orientation flipped.
    fn rekey_if_flipped(&mut self, was: bool) {
        if left_drives(self.n_left, self.n_right) != was {
            self.d = self.d.drain().map(|((a, b), w)| ((b, a), w)).collect();
        }
    }

    fn solved(&self) -> &Solved {
        self.cached
            .get_or_init(|| Solved::new(search(self.n_left, self.n_right, &self.d, self.config)))
    }
}

impl DeltaMatcher for BahDelta {
    fn name(&self) -> &'static str {
        "BAH"
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn apply_delta(&mut self, delta: &RowDelta) -> Result<()> {
        check_ids(delta, self.n_left, self.n_right)?;
        let was = left_drives(self.n_left, self.n_right);
        match delta.op {
            DeltaOp::Insert => {
                match delta.side {
                    Side::Left => self.n_left += 1,
                    Side::Right => self.n_right += 1,
                }
                self.rekey_if_flipped(was);
                let ld = left_drives(self.n_left, self.n_right);
                for &(other, w) in &delta.edges {
                    if w > self.t {
                        let (l, r) = match delta.side {
                            Side::Left => (delta.id, other),
                            Side::Right => (other, delta.id),
                        };
                        self.d.insert(driver_key(l, r, ld), w);
                    }
                }
                self.cached.take();
            }
            DeltaOp::Delete => {
                // Dimensions are id-space sizes and ids are never reused,
                // so deletes leave them (and the orientation) unchanged.
                if !delta.touches_above(self.t) {
                    return Ok(()); // Map untouched: the cached search stands.
                }
                let ld = was;
                for &(other, w) in &delta.edges {
                    if w > self.t {
                        let (l, r) = match delta.side {
                            Side::Left => (delta.id, other),
                            Side::Right => (other, delta.id),
                        };
                        self.d.remove(&driver_key(l, r, ld));
                    }
                }
                self.cached.take();
            }
        }
        Ok(())
    }

    fn matching(&self) -> Matching {
        self.solved().matching.clone()
    }

    fn partner(&self, side: Side, id: u32) -> Option<u32> {
        self.solved().partner(side, id)
    }
}

// ----------------------------------------------------------------------
// Fallback: fold into a resident CSR store and re-match.
// ----------------------------------------------------------------------

/// Delta fallback for algorithms without a local repair rule: the delta
/// folds into a resident [`CsrGraph`] and the wrapped [`Matcher`] re-runs
/// over the live edges on demand.
///
/// The only memoized case is deleting a record with **no** edges: the
/// live edge set, the id-space dimensions, and hence the prepared views
/// are all bit-identical, so the previous output provably stands. Richer
/// memoization (e.g. skipping deltas entirely below the threshold
/// window) is unsound in general because several algorithms read the
/// unfiltered adjacency view.
pub struct ReplayDelta {
    t: f64,
    csr: CsrGraph,
    matcher: Box<dyn Matcher>,
    /// The re-match over the live edges, computed on the first read after
    /// a change.
    cached: OnceLock<Solved>,
}

impl ReplayDelta {
    /// Take ownership of a snapshot of the store and the matcher to
    /// replay.
    pub fn new(csr: CsrGraph, matcher: Box<dyn Matcher>, t: f64) -> Self {
        ReplayDelta {
            t,
            csr,
            matcher,
            cached: OnceLock::new(),
        }
    }

    fn solved(&self) -> &Solved {
        self.cached.get_or_init(|| {
            let prepared = PreparedGraph::from_csr(&self.csr);
            Solved::new(self.matcher.run(&prepared, self.t))
        })
    }
}

impl DeltaMatcher for ReplayDelta {
    fn name(&self) -> &'static str {
        self.matcher.name()
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn apply_delta(&mut self, delta: &RowDelta) -> Result<()> {
        // Judge "edgeless" by the store, not by the carried edge list: a
        // delete removes the row's real edges whatever the delta lists.
        let live_before = self.csr.n_edges();
        self.csr.apply(delta)?;
        if delta.op != DeltaOp::Delete || self.csr.n_edges() != live_before {
            self.cached.take();
        }
        Ok(())
    }

    fn matching(&self) -> Matching {
        self.solved().matching.clone()
    }

    fn partner(&self, side: Side, id: u32) -> Option<u32> {
        self.solved().partner(side, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::figure1;
    use crate::umc::Umc;
    use er_core::GraphBuilder;

    fn csr_figure1() -> CsrGraph {
        CsrGraph::from_graph(&figure1())
    }

    fn umc_reference(csr: &CsrGraph, t: f64) -> Matching {
        Umc.run(&PreparedGraph::from_csr(csr), t)
    }

    #[test]
    fn umc_initial_matching_equals_full_run() {
        let csr = csr_figure1();
        for t in [0.0, 0.3, 0.5, 0.6, 0.75, 0.95] {
            let dm = UmcDelta::from_csr(&csr, t);
            assert_eq!(dm.matching(), umc_reference(&csr, t), "t={t}");
        }
    }

    #[test]
    fn umc_insert_left_cascades_to_the_full_rematch() {
        let t = 0.5;
        let mut csr = csr_figure1();
        let mut dm = UmcDelta::from_csr(&csr, t);
        // New left record that steals B1 (right 0) from A5 with 0.95;
        // A5 (left 4) must fall back to B3 (right 2, 0.6), displacing A3.
        let edges = vec![(0, 0.95)];
        let id = csr.insert_left(&edges).unwrap();
        dm.apply_delta(&RowDelta::insert_left(id, edges)).unwrap();
        assert_eq!(dm.matching(), umc_reference(&csr, t));
        assert!(dm.matching().contains(5, 0), "new record wins B1");
    }

    #[test]
    fn umc_delete_frees_partner_and_cascades() {
        let t = 0.5;
        let mut csr = csr_figure1();
        let mut dm = UmcDelta::from_csr(&csr, t);
        // Delete A5 (left 4), freeing B1 for A1 (0.6).
        let removed = csr.remove_left(4).unwrap();
        dm.apply_delta(&RowDelta::delete_left(4, removed)).unwrap();
        assert_eq!(dm.matching(), umc_reference(&csr, t));
        assert!(dm.matching().contains(0, 0), "A1-B1 resurfaces");
    }

    #[test]
    fn umc_right_side_ops_mirror() {
        let t = 0.2;
        let mut csr = csr_figure1();
        let mut dm = UmcDelta::from_csr(&csr, t);
        let edges = vec![(1, 0.8), (0, 0.3)];
        let id = csr.insert_right(&edges).unwrap();
        dm.apply_delta(&RowDelta::insert_right(id, edges)).unwrap();
        assert_eq!(dm.matching(), umc_reference(&csr, t));
        let removed = csr.remove_right(1).unwrap();
        dm.apply_delta(&RowDelta::delete_right(1, removed)).unwrap();
        assert_eq!(dm.matching(), umc_reference(&csr, t));
    }

    #[test]
    fn umc_rejects_wrong_insert_id() {
        let mut dm = UmcDelta::from_csr(&csr_figure1(), 0.5);
        let before = dm.matching();
        assert_eq!(
            dm.apply_delta(&RowDelta::insert_left(99, vec![])),
            Err(CoreError::DeltaIdMismatch {
                expected: 5,
                got: 99
            })
        );
        assert!(matches!(
            dm.apply_delta(&RowDelta::insert_left(5, vec![(9, 0.9)])),
            Err(CoreError::NodeOutOfBounds {
                side: "right",
                id: 9,
                len: 4
            })
        ));
        assert!(matches!(
            dm.apply_delta(&RowDelta::delete_right(4, vec![])),
            Err(CoreError::NodeOutOfBounds { side: "right", .. })
        ));
        assert_eq!(dm.matching(), before, "rejected deltas change nothing");
        dm.apply_delta(&RowDelta::insert_left(5, vec![])).unwrap();
    }

    #[test]
    fn bah_tracks_full_rematch() {
        let cfg = BahConfig {
            seed: 7,
            ..BahConfig::default()
        };
        let t = 0.2;
        let mut csr = csr_figure1();
        let mut dm = BahDelta::from_csr(&csr, t, cfg);
        let reference =
            |csr: &CsrGraph| crate::bah::Bah { config: cfg }.run(&PreparedGraph::from_csr(csr), t);
        assert_eq!(dm.matching(), reference(&csr));
        let edges = vec![(0, 0.85), (3, 0.4)];
        let id = csr.insert_left(&edges).unwrap();
        dm.apply_delta(&RowDelta::insert_left(id, edges)).unwrap();
        assert_eq!(dm.matching(), reference(&csr));
        let removed = csr.remove_right(0).unwrap();
        dm.apply_delta(&RowDelta::delete_right(0, removed)).unwrap();
        assert_eq!(dm.matching(), reference(&csr));
    }

    #[test]
    fn bah_rekeys_when_orientation_flips() {
        let cfg = BahConfig {
            seed: 3,
            ..BahConfig::default()
        };
        // 3x3 graph: inserting a right record flips |V1| >= |V2|.
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(1, 1, 0.8).unwrap();
        b.add_edge(2, 2, 0.7).unwrap();
        let mut csr = CsrGraph::from_graph(&b.build());
        let t = 0.1;
        let mut dm = BahDelta::from_csr(&csr, t, cfg);
        let edges = vec![(0, 0.95), (2, 0.2)];
        let id = csr.insert_right(&edges).unwrap();
        dm.apply_delta(&RowDelta::insert_right(id, edges)).unwrap();
        let reference = crate::bah::Bah { config: cfg }.run(&PreparedGraph::from_csr(&csr), t);
        assert_eq!(dm.matching(), reference);
    }

    #[test]
    fn replay_rematches_and_memoizes_edgeless_deletes() {
        let t = 0.5;
        let mut csr = csr_figure1();
        let matcher: Box<dyn Matcher> = Box::new(crate::cnc::Cnc);
        let mut dm = ReplayDelta::new(csr.clone(), matcher, t);
        let first = dm.matching();
        assert_eq!(
            first,
            crate::cnc::Cnc.run(&PreparedGraph::from_csr(&csr), t)
        );
        // A4 (left 3) has one edge at 0.3 — remove A4's edge partner
        // first so the delete is edgeless... simpler: delete left 3 whose
        // edge (3, 2, 0.3) is below nothing; it has edges, so no memo —
        // then delete an edgeless id.
        let removed = csr.remove_left(3).unwrap();
        dm.apply_delta(&RowDelta::delete_left(3, removed)).unwrap();
        assert_eq!(
            dm.matching(),
            crate::cnc::Cnc.run(&PreparedGraph::from_csr(&csr), t)
        );
        // Insert an edgeless left record, then delete it: both keep the
        // output aligned with a fresh run.
        let id = csr.insert_left(&[]).unwrap();
        dm.apply_delta(&RowDelta::insert_left(id, vec![])).unwrap();
        let removed = csr.remove_left(id).unwrap();
        assert!(removed.is_empty());
        dm.apply_delta(&RowDelta::delete_left(id, removed)).unwrap();
        assert_eq!(
            dm.matching(),
            crate::cnc::Cnc.run(&PreparedGraph::from_csr(&csr), t)
        );
        // A delete whose carried edge list is empty still removes the
        // row's real edges (A5 keeps B1 and B3), so it must re-match.
        assert!(!csr.remove_left(4).unwrap().is_empty());
        dm.apply_delta(&RowDelta::delete_left(4, vec![])).unwrap();
        assert_eq!(
            dm.matching(),
            crate::cnc::Cnc.run(&PreparedGraph::from_csr(&csr), t)
        );
    }
}
