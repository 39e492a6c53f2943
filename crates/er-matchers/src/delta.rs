//! Incremental matching: keep an assignment current without re-running
//! the algorithm from scratch.
//!
//! Two jobs need it, and one matcher per algorithm serves both:
//!
//! * the paper's §5 protocol runs every algorithm at 20 **descending**
//!   thresholds over one graph. A grid step
//!   ([`step`](DeltaMatcher::step)) admits the edges in
//!   `(t, previous t]`, which all follow every admitted edge in the
//!   greedy order [`edge_key_desc`] (their weights are lower), so the
//!   retained edge set only grows, by extending a prefix of the
//!   weight-descending sorted view;
//! * a long-lived matching service applies record inserts and deletes
//!   ([`RowDelta`]s) to its store
//!   ([`apply_delta`](DeltaMatcher::apply_delta)); re-matching after one
//!   record arrives must not cost a full `O(m log m)` re-run.
//!
//! Four strategies behind one trait:
//!
//! * [`UmcDelta`] — true incremental repair. UMC's greedy matching is the
//!   unique fixpoint of "each edge, in [`edge_key_desc`] order, matches
//!   iff both endpoints are free at its turn". A grid step appends edges
//!   to that sequence, so it simply continues the fold. A delta perturbs
//!   the sequence at finitely many keys, and the perturbation propagates
//!   along a single alternating path whose keys **strictly increase** —
//!   so repair is one cascade walk over the store, not a re-run.
//! * [`BahDelta`] — incremental state, replayed search. BAH's output is a
//!   deterministic function of `(n_left, n_right, contribution map,
//!   config)`; steps and deltas maintain the map in `O(|edges|)` and
//!   re-run the bounded swap search (whose cost is governed by its move
//!   budget, not the graph) only when the map or the dimensions change.
//!   The search restarts its RNG stream each time, as a fresh run does.
//! * [`CncDelta`] — incremental fold, replayed delta. A grid step only
//!   merges components, so it continues one union-find fold over the
//!   newly admitted edges of the inclusive prefix and drops the two-node
//!   components that grew. A delta can split a component, which a
//!   union-find cannot undo: it re-runs [`Cnc`] over the store and drops
//!   the fold, so the next step refolds from the graph it is given.
//! * [`ReplayDelta`] — the fallback for the five algorithms whose outputs
//!   have no known local repair rule: re-run the wrapped [`Matcher`], on
//!   a grid step only when the view's prefix lengths moved (for a fixed
//!   graph every matcher's output is a function of the strict/inclusive
//!   prefix pair — the threshold only enters via `> t` / `>= t`
//!   comparisons), after a delta always, over the store.
//!
//! No matcher keeps a graph. UMC's state is its two match arrays, BAH's
//! its contribution map, CNC's its union-find over node ids, replay's the
//! last assignment: a delta goes through the caller's store, and the
//! repair reads what the store now holds.
//!
//! **Contract**: a matcher tracks one graph. Step it only over that
//! graph, with thresholds that never increase, and feed it every delta
//! applied to that graph's store — through
//! [`apply_delta`](DeltaMatcher::apply_delta), which applies it. The
//! store's validation is the matcher's: a delta the store rejects (a
//! wrong insert id as [`CoreError::DeltaIdMismatch`], an unknown id as
//! [`CoreError::NodeOutOfBounds`], a deleted one as
//! [`CoreError::DeadNode`], ...) is returned as that typed error and
//! leaves both the store and the matcher unchanged.
//!
//! [`CoreError::DeltaIdMismatch`]: er_core::CoreError::DeltaIdMismatch
//! [`CoreError::NodeOutOfBounds`]: er_core::CoreError::NodeOutOfBounds
//! [`CoreError::DeadNode`]: er_core::CoreError::DeadNode

use std::cmp::Ordering;
use std::sync::OnceLock;

use er_core::delta::{DeltaOp, RowDelta, Side};
use er_core::float::edge_key_desc;
use er_core::{CsrGraph, FxHashMap, Matching, Result};

use crate::bah::{driver_key, left_drives, search, BahConfig};
use crate::cnc::{Cnc, CncFold};
use crate::matcher::{Matcher, PreparedGraph};

/// A matcher that keeps its assignment current across threshold steps
/// and graph deltas.
///
/// Equivalence guarantee (property-proven in `er-eval`'s sweep suite and
/// in `tests/delta_props.rs`): after any sequence of updates,
/// [`matching`](DeltaMatcher::matching) equals the corresponding one-shot
/// [`Matcher`] run from scratch on the tracked graph at the current
/// threshold — same id space (deleted ids remain as isolated nodes,
/// exactly as in [`CsrGraph`]).
pub trait DeltaMatcher: Send + Sync {
    /// Short algorithm acronym, as in [`Matcher::name`].
    fn name(&self) -> &'static str;

    /// The similarity threshold the assignment is maintained at: `+∞`
    /// (no edge admitted) until the first [`step`](DeltaMatcher::step).
    fn threshold(&self) -> f64;

    /// Lower the threshold to `t`, admitting the edges of `g` in
    /// `(t, threshold()]`. `g` must hold the tracked graph and `t` must
    /// not exceed [`threshold`](DeltaMatcher::threshold).
    fn step(&mut self, g: &PreparedGraph<'_>, t: f64);

    /// Apply one row delta to `store`, the tracked graph, and repair the
    /// assignment from what the store then holds. Returns the edges the
    /// store tombstoned ([`CsrGraph::apply`]: empty for an insert, the
    /// record's live edges for a delete). A delta the store rejects is
    /// returned as its error and changes nothing.
    fn apply_delta(&mut self, store: &mut CsrGraph, delta: &RowDelta) -> Result<Vec<(u32, f64)>>;

    /// The current assignment.
    fn matching(&self) -> Matching;

    /// The current partner of `id` on `side`, or `None` when `id` is
    /// unmatched, deleted or out of range. Equal to a scan of
    /// [`matching`](DeltaMatcher::matching), without building it: `O(1)`
    /// for [`UmcDelta`], `O(log n)` over the last assignment otherwise.
    fn partner(&self, side: Side, id: u32) -> Option<u32>;
}

/// A computed assignment. Its right-keyed copy, which makes right-side
/// partner lookups one binary search, is built on the first such lookup,
/// so a threshold sweep never pays for it.
struct Solved {
    matching: Matching,
    /// `(right, left)` pairs, ascending.
    by_right: OnceLock<Vec<(u32, u32)>>,
}

impl Solved {
    fn new(matching: Matching) -> Self {
        Solved {
            matching,
            by_right: OnceLock::new(),
        }
    }

    fn partner(&self, side: Side, id: u32) -> Option<u32> {
        // Both pair lists are sorted by their first id, which is unique.
        let pairs = match side {
            Side::Left => self.matching.pairs(),
            Side::Right => self.by_right.get_or_init(|| {
                let mut by_right: Vec<(u32, u32)> =
                    self.matching.iter().map(|(l, r)| (r, l)).collect();
                by_right.sort_unstable();
                by_right
            }),
        };
        pairs
            .binary_search_by_key(&id, |&(a, _)| a)
            .ok()
            .map(|i| pairs[i].1)
    }
}

/// The global greedy key of the edge between `node` (on `side`) and
/// `other`; [`edge_key_desc`]'s `Ordering::Less` means "consumed earlier".
#[inline]
fn ekey(side: Side, node: u32, other: u32, w: f64) -> (f64, u32, u32) {
    match side {
        Side::Left => (w, node, other),
        Side::Right => (w, other, node),
    }
}

// ----------------------------------------------------------------------
// UMC: greedy fold and cascade repair.
// ----------------------------------------------------------------------

/// Incremental Unique Mapping Clustering.
///
/// State: the two match arrays, each entry the partner and the weight of
/// the edge it was matched at. A grid step continues the greedy fold
/// over the newly admitted edges. A delta triggers one *cascade* over
/// the store's live edges in the strict window (`weight > t`):
///
/// * **Insert** of node `x`: `x` takes its earliest-key edge `(x, y)`
///   whose counterpart `y` is free or matched at a **later** key (an
///   earlier-matched `y` keeps its pre-existing decision), displacing
///   `y`'s old partner, which resumes strictly after its lost key.
/// * **Delete** of node `x`: its edges vanish. All were no-ops except a
///   match `(x, y)` at key `k` — freeing `y`, which resumes strictly
///   after `k`.
///
/// "Earliest qualifying edge" is one unsorted pass over the node's live
/// row ([`CsrGraph::live_row`]) or column ([`CsrGraph::live_column`]):
/// whether an edge qualifies depends only on its counterpart's match,
/// which cannot change during one node's scan. Every cascade step
/// strictly increases the key it proceeds from, so the walk terminates.
/// Decisions at keys before the first perturbed key are untouched —
/// which is exactly why the repair is sound: greedy is a left-to-right
/// fold over the key-sorted edge sequence, and the delta only edits the
/// sequence's tail behavior from the perturbation on.
pub struct UmcDelta {
    t: f64,
    match_left: Vec<Option<(u32, f64)>>,
    match_right: Vec<Option<(u32, f64)>>,
}

impl Default for UmcDelta {
    fn default() -> Self {
        UmcDelta {
            t: f64::INFINITY,
            match_left: Vec::new(),
            match_right: Vec::new(),
        }
    }
}

impl UmcDelta {
    /// A matcher with no edge admitted yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the match arrays to an `n_left × n_right` id space.
    fn fit(&mut self, n_left: u32, n_right: u32) {
        self.match_left.resize(n_left as usize, None);
        self.match_right.resize(n_right as usize, None);
    }

    #[inline]
    fn match_of(&self, side: Side, node: u32) -> Option<(u32, f64)> {
        match side {
            Side::Left => self.match_left[node as usize],
            Side::Right => self.match_right[node as usize],
        }
    }

    #[inline]
    fn match_slot(&mut self, side: Side, node: u32) -> &mut Option<(u32, f64)> {
        match side {
            Side::Left => &mut self.match_left[node as usize],
            Side::Right => &mut self.match_right[node as usize],
        }
    }

    /// The earliest-key window edge of `node` (on `side`) after `from`
    /// (`None` = from the start) whose counterpart is free or held at a
    /// later key, among `edges`.
    fn pick(
        &self,
        side: Side,
        node: u32,
        from: Option<(f64, u32, u32)>,
        edges: impl Iterator<Item = (u32, f64)>,
    ) -> Option<(u32, f64)> {
        let mut best: Option<((f64, u32, u32), u32, f64)> = None;
        for (other, w) in edges.filter(|&(_, w)| w > self.t) {
            let k = ekey(side, node, other, w);
            let after_from = from.is_none_or(|f| edge_key_desc(k, f) == Ordering::Greater);
            let before_best = best.is_none_or(|(b, ..)| edge_key_desc(k, b) == Ordering::Less);
            if !(after_from && before_best) {
                continue;
            }
            let wins = match self.match_of(side.opposite(), other) {
                None => true,
                Some((p, pw)) => {
                    edge_key_desc(k, ekey(side.opposite(), other, p, pw)) == Ordering::Less
                }
            };
            if wins {
                best = Some((k, other, w));
            }
        }
        best.map(|(_, other, w)| (other, w))
    }

    /// Re-run the greedy fold for the unmatched `node` (on `side`) from
    /// strictly after `from` over the store's live edges, displacing
    /// partners matched at later keys and cascading until the walk dies
    /// out.
    fn cascade(
        &mut self,
        store: &CsrGraph,
        side: Side,
        mut node: u32,
        mut from: Option<(f64, u32, u32)>,
    ) {
        loop {
            let picked = match side {
                Side::Left => self.pick(side, node, from, store.live_row(node)),
                Side::Right => self.pick(side, node, from, store.live_column(node)),
            };
            let Some((other, w)) = picked else {
                return; // `node` stays unmatched.
            };
            let displaced = self.match_of(side.opposite(), other);
            *self.match_slot(side, node) = Some((other, w));
            *self.match_slot(side.opposite(), other) = Some((node, w));
            let Some((p, pw)) = displaced else {
                return;
            };
            // Steal: this edge precedes the held match in greedy order,
            // so in a full re-fold it wins. The displaced partner resumes
            // strictly after the key it lost at — its earlier edges were
            // losing before and still lose.
            *self.match_slot(side, p) = None;
            from = Some(ekey(side.opposite(), other, p, pw));
            node = p;
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

    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) {
        debug_assert!(t <= self.t, "thresholds must be non-increasing");
        self.fit(g.n_left(), g.n_right());
        let admitted = g.edges_above(self.t).len();
        for e in g.edges_above(t).tail(admitted) {
            let (l, r) = (e.left as usize, e.right as usize);
            if self.match_left[l].is_none() && self.match_right[r].is_none() {
                self.match_left[l] = Some((e.right, e.weight));
                self.match_right[r] = Some((e.left, e.weight));
            }
        }
        self.t = t;
    }

    fn apply_delta(&mut self, store: &mut CsrGraph, delta: &RowDelta) -> Result<Vec<(u32, f64)>> {
        let removed = store.apply(delta)?;
        self.fit(store.n_left(), store.n_right());
        let (side, id) = (delta.side, delta.id);
        match delta.op {
            DeltaOp::Insert => self.cascade(store, side, id, None),
            DeltaOp::Delete => {
                if let Some((partner, w)) = self.match_slot(side, id).take() {
                    *self.match_slot(side.opposite(), partner) = None;
                    // The freed partner resumes strictly after the lost
                    // key; its earlier edges lost against earlier-key
                    // matches that did not involve the deleted node (it
                    // held exactly one match).
                    let lost = ekey(side, id, partner, w);
                    self.cascade(store, side.opposite(), partner, Some(lost));
                }
            }
        }
        Ok(removed)
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

/// Incremental Best Assignment Heuristic.
///
/// Maintains the contribution map `d` (strict window, keyed by the
/// driver orientation) across steps and deltas and replays the seeded
/// swap search when the map or the dimensions change. The search reads
/// `d` only through point lookups, so its outcome is a deterministic
/// function of the map's *contents* — which is why maintaining the map
/// incrementally is exactly equivalent to rebuilding it from the
/// tracked graph. A delete removes the edges the store returns for the
/// record. Growing a side can flip the
/// driver orientation (`|V1| >= |V2|`); the map is re-keyed in place
/// when it does.
pub struct BahDelta {
    config: BahConfig,
    t: f64,
    n_left: u32,
    n_right: u32,
    d: FxHashMap<(u32, u32), f64>,
    solved: Solved,
}

impl BahDelta {
    /// A matcher with no edge admitted yet, searching under `config`.
    pub fn new(config: BahConfig) -> Self {
        BahDelta {
            config,
            t: f64::INFINITY,
            n_left: 0,
            n_right: 0,
            d: FxHashMap::default(),
            solved: Solved::new(Matching::empty()),
        }
    }

    /// Adopt an `n_left × n_right` id space, re-keying the map if the
    /// driver orientation flipped. Returns whether the dimensions changed.
    fn fit(&mut self, n_left: u32, n_right: u32) -> bool {
        let was = left_drives(self.n_left, self.n_right);
        if (n_left, n_right) == (self.n_left, self.n_right) {
            return false;
        }
        (self.n_left, self.n_right) = (n_left, n_right);
        if left_drives(n_left, n_right) != was {
            self.d = self.d.drain().map(|((a, b), w)| ((b, a), w)).collect();
        }
        true
    }

    fn key(&self, left: u32, right: u32) -> (u32, u32) {
        driver_key(left, right, left_drives(self.n_left, self.n_right))
    }

    fn solve(&mut self) {
        self.solved = Solved::new(search(
            self.n_left,
            self.n_right,
            |big, small| self.d.get(&(big, small)).copied(),
            self.config,
        ));
    }
}

impl DeltaMatcher for BahDelta {
    fn name(&self) -> &'static str {
        "BAH"
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) {
        debug_assert!(t <= self.t, "thresholds must be non-increasing");
        let mut changed = self.fit(g.n_left(), g.n_right());
        let admitted = g.edges_above(self.t).len();
        for e in g.edges_above(t).tail(admitted) {
            self.d.insert(self.key(e.left, e.right), e.weight);
            changed = true;
        }
        self.t = t;
        if changed {
            self.solve();
        }
    }

    fn apply_delta(&mut self, store: &mut CsrGraph, delta: &RowDelta) -> Result<Vec<(u32, f64)>> {
        // An insert's edges are the delta's, as the store accepted them;
        // a delete's are what the store held for the record.
        let removed = store.apply(delta)?;
        // Dimensions are id-space sizes and ids are never reused, so only
        // inserts change them (and possibly the orientation).
        let mut changed = self.fit(store.n_left(), store.n_right());
        let edges = match delta.op {
            DeltaOp::Insert => &delta.edges,
            DeltaOp::Delete => &removed,
        };
        let t = self.t;
        for &(other, w) in edges.iter().filter(|&&(_, w)| w > t) {
            let key = match delta.side {
                Side::Left => self.key(delta.id, other),
                Side::Right => self.key(other, delta.id),
            };
            match delta.op {
                DeltaOp::Insert => self.d.insert(key, w),
                DeltaOp::Delete => self.d.remove(&key),
            };
            changed = true;
        }
        if changed {
            self.solve();
        }
        Ok(removed)
    }

    fn matching(&self) -> Matching {
        self.solved.matching.clone()
    }

    fn partner(&self, side: Side, id: u32) -> Option<u32> {
        self.solved.partner(side, id)
    }
}

// ----------------------------------------------------------------------
// CNC: union-find fold.
// ----------------------------------------------------------------------

/// Incremental Connected Components clustering.
///
/// A grid step continues one union-find fold: it admits only the edges
/// of the inclusive prefix (`weight >= t`) past those already folded,
/// then drops the pairs whose component grew. Components only merge as
/// the threshold falls, and they do not depend on merge order, so the
/// fold equals [`Cnc`]'s one-shot run, which is the same fold from
/// empty. The assignment is rebuilt only when the prefix moved.
///
/// A delta can split components, which a union-find cannot undo: it
/// re-runs [`Cnc`] over the store at the current threshold and drops the
/// fold, so the next step refolds from the graph it is given.
pub struct CncDelta {
    t: f64,
    /// `None` before the first step and after a delta.
    fold: Option<CncFold>,
    solved: Solved,
}

impl Default for CncDelta {
    fn default() -> Self {
        CncDelta {
            t: f64::INFINITY,
            fold: None,
            solved: Solved::new(Matching::empty()),
        }
    }
}

impl CncDelta {
    /// A matcher with no edge admitted yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DeltaMatcher for CncDelta {
    fn name(&self) -> &'static str {
        "CNC"
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) {
        debug_assert!(t <= self.t, "thresholds must be non-increasing");
        self.t = t;
        let fold = self
            .fold
            .get_or_insert_with(|| CncFold::new(g.n_left(), g.n_right()));
        if fold.admit(g.edges_at_least(t)) {
            self.solved = Solved::new(fold.matching());
        }
    }

    fn apply_delta(&mut self, store: &mut CsrGraph, delta: &RowDelta) -> Result<Vec<(u32, f64)>> {
        let removed = store.apply(delta)?;
        self.fold = None;
        self.solved = Solved::new(Cnc.run(&PreparedGraph::from_csr(store), self.t));
        Ok(removed)
    }

    fn matching(&self) -> Matching {
        self.solved.matching.clone()
    }

    fn partner(&self, side: Side, id: u32) -> Option<u32> {
        self.solved.partner(side, id)
    }
}

// ----------------------------------------------------------------------
// Fallback: re-match.
// ----------------------------------------------------------------------

/// Incremental fallback for algorithms without a local repair rule: the
/// wrapped [`Matcher`] re-runs whenever its input moved.
///
/// A grid step re-runs only when the view's prefix-length pair changed
/// (an unchanged pair over one graph implies an unchanged result). A
/// delta always re-runs, over the store: memoizing deltas (e.g. skipping
/// ones entirely below the threshold window) is unsound in general
/// because several algorithms read the unfiltered adjacency view, so
/// every delta clears the step memo.
pub struct ReplayDelta {
    matcher: Box<dyn Matcher>,
    t: f64,
    /// The prefix lengths of the view `solved` was computed on; `None`
    /// before the first step and after a delta.
    lens: Option<(usize, usize)>,
    solved: Solved,
}

impl ReplayDelta {
    /// Wrap the matcher to replay, with no edge admitted yet.
    pub fn new(matcher: Box<dyn Matcher>) -> Self {
        ReplayDelta {
            matcher,
            t: f64::INFINITY,
            lens: None,
            solved: Solved::new(Matching::empty()),
        }
    }
}

impl DeltaMatcher for ReplayDelta {
    fn name(&self) -> &'static str {
        self.matcher.name()
    }

    fn threshold(&self) -> f64 {
        self.t
    }

    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) {
        debug_assert!(t <= self.t, "thresholds must be non-increasing");
        self.t = t;
        let view = g.view(t);
        let lens = view.prefix_lens();
        if self.lens != Some(lens) {
            self.solved = Solved::new(self.matcher.run_view(&view));
            self.lens = Some(lens);
        }
    }

    fn apply_delta(&mut self, store: &mut CsrGraph, delta: &RowDelta) -> Result<Vec<(u32, f64)>> {
        let removed = store.apply(delta)?;
        self.lens = None;
        let prepared = PreparedGraph::from_csr(store);
        self.solved = Solved::new(self.matcher.run(&prepared, self.t));
        Ok(removed)
    }

    fn matching(&self) -> Matching {
        self.solved.matching.clone()
    }

    fn partner(&self, side: Side, id: u32) -> Option<u32> {
        self.solved.partner(side, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AlgorithmConfig, AlgorithmKind};
    use crate::testkit::{diamond, figure1};
    use crate::umc::Umc;
    use er_core::{CoreError, GraphBuilder, ThresholdGrid};

    fn csr_figure1() -> CsrGraph {
        CsrGraph::from_graph(&figure1())
    }

    /// `dm` stepped once, to `t`, over `csr`.
    fn seeded<D: DeltaMatcher>(mut dm: D, csr: &CsrGraph, t: f64) -> D {
        dm.step(&PreparedGraph::from_csr(csr), t);
        dm
    }

    fn umc_reference(csr: &CsrGraph, t: f64) -> Matching {
        Umc.run(&PreparedGraph::from_csr(csr), t)
    }

    /// Every matcher stepped down a descending grid must match a fresh
    /// per-threshold run. The grid is the paper's plus every distinct edge
    /// weight, so some steps land exactly on an edge (CNC and RCA retain
    /// it, the others do not).
    #[test]
    fn steps_match_fresh_runs_descending() {
        let config = AlgorithmConfig {
            bah: BahConfig {
                max_moves: 500,
                ..BahConfig::default()
            },
            ..AlgorithmConfig::default()
        };
        for g in [figure1(), diamond()] {
            let pg = PreparedGraph::new(&g);
            let mut grid: Vec<f64> = ThresholdGrid::paper().values().collect();
            grid.extend(g.edges().iter().map(|e| e.weight));
            grid.sort_by(|a, b| b.total_cmp(a));
            grid.dedup();
            for kind in AlgorithmKind::ALL {
                let matcher = config.build(kind);
                let mut incremental = config.delta_matcher(kind);
                assert_eq!(incremental.name(), kind.name());
                for &t in &grid {
                    incremental.step(&pg, t);
                    let fresh = matcher.run(&pg, t);
                    assert_eq!(
                        incremental.matching(),
                        fresh,
                        "{kind} diverged at t={t} (incremental vs fresh)"
                    );
                }
            }
        }
    }

    #[test]
    fn umc_step_resumes_rather_than_restarts() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let mut s = UmcDelta::new();
        // At t=0.65 only A5-B1 (0.9) and A2-B2 (0.7) are retained.
        s.step(&pg, 0.65);
        assert_eq!(s.matching().pairs(), &[(1, 1), (4, 0)]);
        // Dropping to 0.5 adds the 0.6 edges; previous pairs persist.
        s.step(&pg, 0.5);
        assert_eq!(s.matching().pairs(), &[(1, 1), (2, 3), (4, 0)]);
        // A repeated threshold is a no-op.
        s.step(&pg, 0.5);
        assert_eq!(s.matching().pairs(), &[(1, 1), (2, 3), (4, 0)]);
    }

    #[test]
    fn cnc_step_at_an_edge_weight_retains_the_edge() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let mut s = CncDelta::new();
        s.step(&pg, 0.75);
        assert_eq!(s.matching().pairs(), &[(4, 0)]);
        // A2-B2 weighs exactly 0.7: admitted, as its own component.
        s.step(&pg, 0.7);
        assert_eq!(s.matching().pairs(), &[(1, 1), (4, 0)]);
    }

    /// A two-node component that grows to four between steps loses its
    /// pair, and the pair never returns as the threshold falls further.
    #[test]
    fn cnc_pair_vanishes_when_its_component_grows() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let mut s = CncDelta::new();
        s.step(&pg, 0.9);
        assert_eq!(s.matching().pairs(), &[(4, 0)]);
        // The 0.6 edges A1-B1 and A5-B3 join A5-B1's component.
        s.step(&pg, 0.6);
        assert_eq!(s.matching().pairs(), &[(1, 1), (2, 3)]);
        s.step(&pg, 0.0);
        assert_eq!(s.matching().pairs(), &[(1, 1), (2, 3)]);

        // The same in diamond: (0, 0) at 0.9, then both 0.8 edges.
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        let mut s = CncDelta::new();
        s.step(&pg, 0.9);
        assert_eq!(s.matching().pairs(), &[(0, 0)]);
        s.step(&pg, 0.8);
        assert!(s.matching().is_empty());
    }

    /// A delta drops the fold: the next step refolds from the mutated
    /// store, so a split component's pair can surface.
    #[test]
    fn cnc_steps_after_a_delta_refold_the_store() {
        let mut csr = csr_figure1();
        let mut s = seeded(CncDelta::new(), &csr, 0.9);
        s.step(&PreparedGraph::from_csr(&csr), 0.6);
        assert_eq!(s.matching().pairs(), &[(1, 1), (2, 3)]);
        // Deleting A5 splits {A1, B1, A5, B3}, leaving A1-B1 alone.
        s.apply_delta(&mut csr, &RowDelta::delete_left(4)).unwrap();
        let fresh = |csr: &CsrGraph, t| Cnc.run(&PreparedGraph::from_csr(csr), t);
        assert_eq!(s.matching(), fresh(&csr, 0.6));
        assert_eq!(s.matching().pairs(), &[(0, 0), (1, 1), (2, 3)]);
        for t in [0.6, 0.5, 0.3] {
            s.step(&PreparedGraph::from_csr(&csr), t);
            assert_eq!(s.matching(), fresh(&csr, t), "t={t}");
        }
        // A4-B3 (0.3) is its own component once A5 is gone.
        assert_eq!(s.matching().pairs(), &[(0, 0), (1, 1), (2, 3), (3, 2)]);
    }

    #[test]
    fn replay_step_memoizes_unchanged_prefixes() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let config = AlgorithmConfig::default();
        let mut s = config.delta_matcher(AlgorithmKind::Krc);
        s.step(&pg, 0.65);
        let a = s.matching();
        // 0.62 retains exactly the same edges (nothing lies in (0.62, 0.65]).
        s.step(&pg, 0.62);
        let b = s.matching();
        assert_eq!(a, b);
    }

    #[test]
    fn umc_initial_matching_equals_full_run() {
        let csr = csr_figure1();
        for t in [0.0, 0.3, 0.5, 0.6, 0.75, 0.95] {
            let dm = seeded(UmcDelta::new(), &csr, t);
            assert_eq!(dm.matching(), umc_reference(&csr, t), "t={t}");
        }
    }

    #[test]
    fn umc_insert_left_cascades_to_the_full_rematch() {
        let t = 0.5;
        let mut csr = csr_figure1();
        let mut dm = seeded(UmcDelta::new(), &csr, t);
        // New left record that steals B1 (right 0) from A5 with 0.95;
        // A5 (left 4) must fall back to B3 (right 2, 0.6), displacing A3.
        let edges = vec![(0, 0.95)];
        dm.apply_delta(&mut csr, &RowDelta::insert_left(5, edges))
            .unwrap();
        assert_eq!(dm.matching(), umc_reference(&csr, t));
        assert!(dm.matching().contains(5, 0), "new record wins B1");
    }

    #[test]
    fn umc_delete_frees_partner_and_cascades() {
        let t = 0.5;
        let mut csr = csr_figure1();
        let mut dm = seeded(UmcDelta::new(), &csr, t);
        // Delete A5 (left 4), freeing B1 for A1 (0.6).
        let removed = dm.apply_delta(&mut csr, &RowDelta::delete_left(4)).unwrap();
        assert_eq!(removed, vec![(0, 0.9), (2, 0.6)], "A5's edges, as stored");
        assert_eq!(dm.matching(), umc_reference(&csr, t));
        assert!(dm.matching().contains(0, 0), "A1-B1 resurfaces");
    }

    #[test]
    fn umc_right_side_ops_mirror() {
        let t = 0.2;
        let mut csr = csr_figure1();
        let mut dm = seeded(UmcDelta::new(), &csr, t);
        let edges = vec![(1, 0.8), (0, 0.3)];
        dm.apply_delta(&mut csr, &RowDelta::insert_right(4, edges))
            .unwrap();
        assert_eq!(dm.matching(), umc_reference(&csr, t));
        dm.apply_delta(&mut csr, &RowDelta::delete_right(1))
            .unwrap();
        assert_eq!(dm.matching(), umc_reference(&csr, t));
    }

    /// The cascade walks a right column holding a tombstoned left and
    /// patch edges, once with the store's column index first built inside
    /// the cascade and once after a `live_column` read built it.
    #[test]
    fn umc_cascade_walks_a_patched_column_with_tombstoned_lefts() {
        let t = 0.1;
        for prebuilt in [false, true] {
            // Left 0 holds right 0 at 0.9; lefts 1..=3 hold their own
            // rights at 0.5.
            let mut b = GraphBuilder::new(4, 4);
            b.add_edge(0, 0, 0.9).unwrap();
            for l in 1..4 {
                b.add_edge(l, l, 0.5).unwrap();
            }
            let mut csr = CsrGraph::from_graph(&b.build());
            // Right 4 arrives with patch edges to every left; left 0
            // takes it at 0.95 and frees right 0.
            csr.insert_right(&[(0, 0.95), (1, 0.8), (2, 0.7), (3, 0.6)])
                .unwrap();
            if prebuilt {
                assert_eq!(csr.live_column(4).count(), 4);
            }
            // Left 1 leaves: a tombstoned left in right 4's column (in
            // the index only when it was built before the delete).
            csr.remove_left(1).unwrap();
            let mut dm = seeded(UmcDelta::new(), &csr, t);
            assert_eq!(dm.matching().pairs(), &[(0, 4), (2, 2), (3, 3)]);
            // Deleting left 0 frees right 4, whose cascade skips the dead
            // left 1 and steals left 2 (0.7 precedes its 0.5 match),
            // leaving right 2 with nothing.
            dm.apply_delta(&mut csr, &RowDelta::delete_left(0)).unwrap();
            assert_eq!(dm.matching(), umc_reference(&csr, t), "prebuilt={prebuilt}");
            assert_eq!(dm.matching().pairs(), &[(2, 4), (3, 3)]);
        }
    }

    #[test]
    fn umc_rejects_wrong_insert_id() {
        let mut csr = csr_figure1();
        let mut dm = seeded(UmcDelta::new(), &csr, 0.5);
        let before = dm.matching();
        assert_eq!(
            dm.apply_delta(&mut csr, &RowDelta::insert_left(99, vec![])),
            Err(CoreError::DeltaIdMismatch {
                expected: 5,
                got: 99
            })
        );
        assert!(matches!(
            dm.apply_delta(&mut csr, &RowDelta::insert_left(5, vec![(9, 0.9)])),
            Err(CoreError::NodeOutOfBounds {
                side: "right",
                id: 9,
                len: 4
            })
        ));
        assert!(matches!(
            dm.apply_delta(&mut csr, &RowDelta::delete_right(4)),
            Err(CoreError::NodeOutOfBounds { side: "right", .. })
        ));
        assert_eq!(dm.matching(), before, "rejected deltas change nothing");
        dm.apply_delta(&mut csr, &RowDelta::insert_left(5, vec![]))
            .unwrap();
    }

    #[test]
    fn bah_tracks_full_rematch() {
        let cfg = BahConfig {
            seed: 7,
            ..BahConfig::default()
        };
        let t = 0.2;
        let mut csr = csr_figure1();
        let mut dm = seeded(BahDelta::new(cfg), &csr, t);
        let reference =
            |csr: &CsrGraph| crate::bah::Bah { config: cfg }.run(&PreparedGraph::from_csr(csr), t);
        assert_eq!(dm.matching(), reference(&csr));
        let edges = vec![(0, 0.85), (3, 0.4)];
        dm.apply_delta(&mut csr, &RowDelta::insert_left(5, edges))
            .unwrap();
        assert_eq!(dm.matching(), reference(&csr));
        dm.apply_delta(&mut csr, &RowDelta::delete_right(0))
            .unwrap();
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
        let mut dm = seeded(BahDelta::new(cfg), &csr, t);
        let edges = vec![(0, 0.95), (2, 0.2)];
        dm.apply_delta(&mut csr, &RowDelta::insert_right(3, edges))
            .unwrap();
        let reference = crate::bah::Bah { config: cfg }.run(&PreparedGraph::from_csr(&csr), t);
        assert_eq!(dm.matching(), reference);
    }

    #[test]
    fn replay_rematches_after_edgeless_deletes() {
        let t = 0.5;
        let mut csr = csr_figure1();
        let matcher: Box<dyn Matcher> = Box::new(crate::cnc::Cnc);
        let mut dm = seeded(ReplayDelta::new(matcher), &csr, t);
        let first = dm.matching();
        assert_eq!(
            first,
            crate::cnc::Cnc.run(&PreparedGraph::from_csr(&csr), t)
        );
        // Delete A4 (left 3), whose one edge (3, 2, 0.3) lies below the
        // threshold.
        dm.apply_delta(&mut csr, &RowDelta::delete_left(3)).unwrap();
        assert_eq!(
            dm.matching(),
            crate::cnc::Cnc.run(&PreparedGraph::from_csr(&csr), t)
        );
        // Insert an edgeless left record, then delete it: both keep the
        // output aligned with a fresh run.
        let id = csr.n_left();
        dm.apply_delta(&mut csr, &RowDelta::insert_left(id, vec![]))
            .unwrap();
        assert_eq!(csr.live_row(id).count(), 0);
        dm.apply_delta(&mut csr, &RowDelta::delete_left(id))
            .unwrap();
        assert_eq!(
            dm.matching(),
            crate::cnc::Cnc.run(&PreparedGraph::from_csr(&csr), t)
        );
        // A delete carries no edge list yet removes the row's real edges
        // (A5 keeps B1 and B3), so it must re-match.
        assert!(csr.live_row(4).count() > 0);
        dm.apply_delta(&mut csr, &RowDelta::delete_left(4)).unwrap();
        assert_eq!(
            dm.matching(),
            crate::cnc::Cnc.run(&PreparedGraph::from_csr(&csr), t)
        );
    }

    /// A BAH delete carries no edge list yet removes the edges the store
    /// held for the record, so it must equal the full re-match.
    #[test]
    fn bah_edgeless_delete_matches_the_full_rematch() {
        let cfg = BahConfig::default();
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(1, 1, 0.8).unwrap();
        b.add_edge(2, 2, 0.7).unwrap();
        b.add_edge(2, 0, 0.6).unwrap();
        let mut csr = CsrGraph::from_graph(&b.build());
        let t = 0.5;
        let mut dm = seeded(BahDelta::new(cfg), &csr, t);
        dm.apply_delta(&mut csr, &RowDelta::delete_left(0)).unwrap();
        let reference = crate::bah::Bah { config: cfg }.run(&PreparedGraph::from_csr(&csr), t);
        assert_eq!(reference.pairs(), &[(1, 1), (2, 2)]);
        assert_eq!(dm.matching(), reference);
    }
}
