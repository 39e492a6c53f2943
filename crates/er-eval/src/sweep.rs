//! The threshold-sweep protocol (§5, Generation Process).
//!
//! Each algorithm runs once per threshold of the grid; "the largest
//! threshold that achieves the highest F-Measure is selected as the
//! optimal one". BMC is special-cased per §3: both basis collections are
//! evaluated and the better one retained.
//!
//! The default execution path is the [`SweepEngine`], which makes the
//! `(algorithm × threshold)` grid **incremental and parallel**:
//!
//! * each whole-grid unit steps its own incremental matcher
//!   ([`er_matchers::DeltaMatcher`], the same one a resident service
//!   feeds graph deltas) down the grid in *descending* threshold order,
//!   so "edges above t" is a prefix slice of the prepared graph's sorted
//!   edge view and a step only admits the edges past the previous grid
//!   point: UMC continues its greedy fold, BAH extends its contribution
//!   map, and the other matchers re-run only when the view moved;
//! * a unit is an algorithm over the whole grid — BMC once per basis —
//!   except BAH, whose step costs one full swap search whatever it
//!   admits: with more than one worker its grid is cut into one
//!   contiguous slice per worker, and the slices search one shared
//!   contribution table and replay one move stream
//!   ([`er_matchers::BahMap`]) instead of stepping a matcher each;
//! * the units fan out over the workers of the `er_core::par` pool (the
//!   same pool `er-pipeline`'s corpus runner uses), and one selection
//!   rule folds each algorithm's unit outcomes back into its result.
//!
//! The engine is **result-equivalent** to the naive per-threshold re-run
//! ([`sweep_naive`]) — the property tests in `tests/proptests.rs` enforce
//! equality of best threshold, precision/recall/F1, and per-threshold
//! matchings for all eight algorithms.

use std::ops::Range;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use er_core::{par, GroundTruth, Matching, ThresholdGrid};
use er_matchers::{AlgorithmConfig, AlgorithmKind, BahMap, Basis, PreparedGraph};

use crate::metrics::{evaluate, PrecisionRecall};

/// The outcome of sweeping one algorithm over one similarity graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// The algorithm.
    pub algorithm: AlgorithmKind,
    /// The optimal threshold (largest achieving maximum F1).
    pub best_threshold: f64,
    /// Effectiveness at the optimal threshold.
    pub best: PrecisionRecall,
    /// For BMC: the basis that won (`None` for other algorithms).
    pub bmc_basis_right: Option<bool>,
}

/// Incremental, parallel executor for the `(algorithm × threshold)` grid.
#[derive(Debug, Clone, Copy)]
pub struct SweepEngine {
    config: AlgorithmConfig,
    threads: usize,
}

impl SweepEngine {
    /// An engine with as many workers as the host exposes.
    pub fn new(config: AlgorithmConfig) -> Self {
        SweepEngine {
            config,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Cap the worker count (1 = fully serial; useful for tests and for
    /// callers that already parallelize across graphs).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sweep all eight algorithms over one graph (paper row order).
    pub fn sweep_all(
        &self,
        g: &PreparedGraph<'_>,
        gt: &GroundTruth,
        grid: &ThresholdGrid,
    ) -> Vec<SweepResult> {
        let units: Vec<Unit> = AlgorithmKind::ALL
            .into_iter()
            .flat_map(|kind| self.units_of(kind, grid))
            .collect();
        let outcomes = self.run_units(&units, g, gt, grid);
        AlgorithmKind::ALL
            .into_iter()
            .map(|kind| combine(kind, &units, &outcomes))
            .collect()
    }

    /// Sweep a single algorithm (BMC: both bases, better retained —
    /// `config.bmc_basis` is ignored because both bases are always
    /// evaluated per §3).
    pub fn sweep_algorithm(
        &self,
        kind: AlgorithmKind,
        g: &PreparedGraph<'_>,
        gt: &GroundTruth,
        grid: &ThresholdGrid,
    ) -> SweepResult {
        let units = self.units_of(kind, grid);
        let outcomes = self.run_units(&units, g, gt, grid);
        combine(kind, &units, &outcomes)
    }

    /// A kind's units. BMC gets one whole-grid unit per basis. BAH gets
    /// one unit per contiguous slice of the descending grid, as many as
    /// there are workers but never more than grid points: its step costs
    /// one full swap search whatever the step admits, and the slices share
    /// one map, so a slice repeats nothing. Every other kind gets one
    /// whole-grid unit: UMC's steps continue one greedy fold that a slice
    /// would redo from the top, and slicing the replay matchers measured
    /// slower (DESIGN.md §9).
    fn units_of(&self, kind: AlgorithmKind, grid: &ThresholdGrid) -> Vec<Unit> {
        let whole = 0..grid.len();
        match kind {
            AlgorithmKind::Bmc => Basis::both()
                .into_iter()
                .map(|b| Unit {
                    kind,
                    basis: Some(b),
                    points: whole.clone(),
                })
                .collect(),
            AlgorithmKind::Bah => grid_slices(grid.len(), self.threads)
                .map(|points| Unit {
                    kind,
                    basis: None,
                    points,
                })
                .collect(),
            _ => vec![Unit {
                kind,
                basis: None,
                points: whole,
            }],
        }
    }

    /// Fan the units out over scoped worker threads; results keep unit
    /// order regardless of completion order. BAH's slices share one map,
    /// built by the first slice to start and dropped with the fan-out.
    fn run_units(
        &self,
        units: &[Unit],
        g: &PreparedGraph<'_>,
        gt: &GroundTruth,
        grid: &ThresholdGrid,
    ) -> Vec<SweepResult> {
        let bah_map = OnceLock::new();
        par::map_indexed(
            units.len(),
            self.threads,
            || (),
            |_, idx| sweep_unit(&units[idx], &self.config, g, gt, grid, &bah_map),
        )
    }
}

/// One schedulable piece of grid work: an algorithm under a fixed basis,
/// over a contiguous run of the descending grid's points.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Unit {
    kind: AlgorithmKind,
    basis: Option<Basis>,
    /// Indexes into [`ThresholdGrid::values_desc`].
    points: Range<usize>,
}

/// Cut `len` descending grid points into `min(slices, len)` contiguous,
/// non-empty runs, in grid order, whose lengths differ by at most one
/// (one run when `len` is 0).
fn grid_slices(len: usize, slices: usize) -> impl Iterator<Item = Range<usize>> {
    let n = slices.clamp(1, len.max(1));
    (0..n).map(move |k| k * len / n..(k + 1) * len / n)
}

/// Collapse a kind's unit outcomes, in unit order, into its final
/// [`SweepResult`]: BMC's dual-basis selection of §3, the fold of BAH's
/// grid slices, identity for a single unit.
fn combine(kind: AlgorithmKind, units: &[Unit], outcomes: &[SweepResult]) -> SweepResult {
    let mut picked: Option<(&Unit, &SweepResult)> = None;
    for (u, r) in units.iter().zip(outcomes) {
        if u.kind != kind {
            continue;
        }
        if picked.is_none_or(|(_, cur)| beats(r, cur)) {
            picked = Some((u, r));
        }
    }
    let (unit, winner) = picked.expect("kind has at least one unit");
    let mut winner = winner.clone();
    winner.bmc_basis_right = unit.basis.map(|b| b == Basis::Right);
    winner.algorithm = kind;
    winner
}

/// The one selection rule between unit outcomes: **higher best-F1 wins;
/// on an F1 tie the larger optimal threshold wins** (the protocol's
/// "largest threshold achieving the highest F-Measure"); a full tie keeps
/// the incumbent. For BMC's two bases (§3 evaluates both and retains the
/// better) a full tie thus keeps the left basis. BAH's slices arrive in
/// descending grid order, so a later slice's thresholds are all smaller
/// and only a strictly higher F1 lets it win — exactly the single pass's
/// strict `>` over the concatenated grid.
fn beats(challenger: &SweepResult, incumbent: &SweepResult) -> bool {
    challenger.best.f1 > incumbent.best.f1
        || (challenger.best.f1 == incumbent.best.f1
            && challenger.best_threshold > incumbent.best_threshold)
}

/// Step one unit down its run of the grid, keeping the largest threshold
/// that achieves the maximum F1.
fn sweep_unit(
    unit: &Unit,
    config: &AlgorithmConfig,
    g: &PreparedGraph<'_>,
    gt: &GroundTruth,
    grid: &ThresholdGrid,
    bah_map: &OnceLock<BahMap>,
) -> SweepResult {
    let config = match unit.basis {
        Some(basis) => AlgorithmConfig {
            bmc_basis: basis,
            ..*config
        },
        None => *config,
    };
    let mut matching_at: Box<dyn FnMut(f64) -> Matching + '_> =
        if unit.kind == AlgorithmKind::Bah && unit.points.len() < grid.len() {
            // A slice searches the map shared by all slices, which holds
            // every edge above the grid's lowest point, and searches again
            // only where the step admitted edges (as `BahDelta` does).
            let floor = grid.values().next().expect("a grid is never empty");
            let map = bah_map.get_or_init(|| BahMap::new(g, floor, config.bah));
            let mut searched: Option<(usize, Matching)> = None;
            Box::new(move |t| {
                let admitted = g.edges_above(t).len();
                match &searched {
                    Some((n, m)) if *n == admitted => m.clone(),
                    _ => searched.insert((admitted, map.search(t))).1.clone(),
                }
            })
        } else {
            let mut matcher = config.delta_matcher(unit.kind);
            Box::new(move |t| {
                matcher.step(g, t);
                matcher.matching()
            })
        };
    let mut best_threshold = 0.0;
    let mut best = PrecisionRecall::zero(gt.len());
    let mut have_any = false;
    let points = &unit.points;
    for t in grid.values_desc().skip(points.start).take(points.len()) {
        let e = evaluate(&matching_at(t), gt);
        // Strict ">" keeps the *largest* optimal threshold, as the grid
        // descends — the mirror of the naive ascending ">=" rule.
        if !have_any || e.f1 > best.f1 {
            best = e;
            best_threshold = t;
            have_any = true;
        }
    }
    SweepResult {
        algorithm: unit.kind,
        best_threshold,
        best,
        bmc_basis_right: None,
    }
}

/// The naive reference implementation: re-run the matcher from scratch at
/// every ascending grid point (the pre-engine behavior). Kept as the
/// equivalence baseline for the property tests.
pub fn sweep_naive(
    kind: AlgorithmKind,
    config: &AlgorithmConfig,
    g: &PreparedGraph<'_>,
    gt: &GroundTruth,
    grid: &ThresholdGrid,
) -> SweepResult {
    if kind == AlgorithmKind::Bmc {
        // Evaluate both bases, retain the better (§3), under the same
        // explicit tie-break rule as the engine.
        let run = |basis| {
            sweep_naive_fixed(
                kind,
                &AlgorithmConfig {
                    bmc_basis: basis,
                    ..*config
                },
                g,
                gt,
                grid,
            )
        };
        let left = run(Basis::Left);
        let right = run(Basis::Right);
        let mut winner = if beats(&right, &left) {
            let mut r = right;
            r.bmc_basis_right = Some(true);
            r
        } else {
            let mut l = left;
            l.bmc_basis_right = Some(false);
            l
        };
        winner.algorithm = AlgorithmKind::Bmc;
        winner
    } else {
        sweep_naive_fixed(kind, config, g, gt, grid)
    }
}

fn sweep_naive_fixed(
    kind: AlgorithmKind,
    config: &AlgorithmConfig,
    g: &PreparedGraph<'_>,
    gt: &GroundTruth,
    grid: &ThresholdGrid,
) -> SweepResult {
    let matcher = config.build(kind);
    let mut best_threshold = 0.0;
    let mut best = PrecisionRecall::zero(gt.len());
    let mut have_any = false;
    for t in grid.values() {
        let m = matcher.run(g, t);
        let e = evaluate(&m, gt);
        // ">=" keeps the *largest* optimal threshold, as the grid ascends.
        if !have_any || e.f1 >= best.f1 {
            best = e;
            best_threshold = t;
            have_any = true;
        }
    }
    SweepResult {
        algorithm: kind,
        best_threshold,
        best,
        bmc_basis_right: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::GraphBuilder;

    /// A graph where a high threshold isolates the true matches: matches
    /// weigh 0.9/0.8, a false edge weighs 0.5.
    fn graph_and_truth() -> (er_core::SimilarityGraph, GroundTruth) {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(1, 1, 0.8).unwrap();
        b.add_edge(2, 1, 0.5).unwrap();
        b.add_edge(2, 2, 0.4).unwrap();
        (b.build(), GroundTruth::new(vec![(0, 0), (1, 1)]))
    }

    #[test]
    fn picks_largest_optimal_threshold() {
        let (g, gt) = graph_and_truth();
        let pg = PreparedGraph::new(&g);
        let grid = ThresholdGrid::paper();
        let r = SweepEngine::new(AlgorithmConfig::default()).sweep_algorithm(
            AlgorithmKind::Umc,
            &pg,
            &gt,
            &grid,
        );
        // UMC achieves P=R=1 for any t in [0.5, 0.75] (edges >t keeps 0.9
        // and 0.8, drops 0.5 when t >= 0.5): largest optimum is 0.75.
        assert_eq!(r.best.f1, 1.0);
        assert!(
            (r.best_threshold - 0.75).abs() < 1e-9,
            "got {}",
            r.best_threshold
        );
    }

    #[test]
    fn bmc_retains_better_basis() {
        // Right basis wins: with left basis node 2 (left) steals node 1's
        // match at low thresholds... construct an asymmetric case.
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(1, 0, 0.8).unwrap();
        let g = b.build();
        let gt = GroundTruth::new(vec![(0, 0)]);
        let pg = PreparedGraph::new(&g);
        let grid = ThresholdGrid::paper();
        let r = SweepEngine::new(AlgorithmConfig::default()).sweep_algorithm(
            AlgorithmKind::Bmc,
            &pg,
            &gt,
            &grid,
        );
        assert_eq!(r.algorithm, AlgorithmKind::Bmc);
        assert!(r.bmc_basis_right.is_some());
        assert_eq!(r.best.f1, 1.0);
    }

    #[test]
    fn bmc_f1_tie_prefers_larger_threshold_then_left() {
        // Full tie: both bases find the single pair (0,0) with F1 = 1 and
        // the same largest optimal threshold → the rule keeps Left.
        let mut b = GraphBuilder::new(1, 1);
        b.add_edge(0, 0, 0.9).unwrap();
        let g = b.build();
        let gt = GroundTruth::new(vec![(0, 0)]);
        let pg = PreparedGraph::new(&g);
        let grid = ThresholdGrid::paper();
        let r = SweepEngine::new(AlgorithmConfig::default()).sweep_algorithm(
            AlgorithmKind::Bmc,
            &pg,
            &gt,
            &grid,
        );
        assert_eq!(r.best.f1, 1.0);
        assert_eq!(
            r.bmc_basis_right,
            Some(false),
            "full tie must deterministically keep the left basis"
        );

        // F1 ties with *differing* best thresholds, exercised through the
        // real selection path (`combine` over per-basis unit outcomes, the
        // exact code the engine runs after its parallel fan-in). Both bases
        // can't produce such a tie organically on a BMC graph — whichever
        // edge blocks the true pair at a high threshold still blocks it at
        // every lower one — so the unit outcomes are constructed directly.
        let units =
            SweepEngine::new(AlgorithmConfig::default()).units_of(AlgorithmKind::Bmc, &grid);
        let outcome = |t: f64| outcome(AlgorithmKind::Bmc, t, 1.0);
        // units_of lists Left before Right.
        let pick = |left_t: f64, right_t: f64| {
            combine(
                AlgorithmKind::Bmc,
                &units,
                &[outcome(left_t), outcome(right_t)],
            )
        };
        let r = pick(0.5, 0.75);
        assert_eq!(
            (r.bmc_basis_right, r.best_threshold),
            (Some(true), 0.75),
            "larger threshold wins the F1 tie"
        );
        let r = pick(0.75, 0.5);
        assert_eq!(
            (r.bmc_basis_right, r.best_threshold),
            (Some(false), 0.75),
            "smaller threshold loses the F1 tie"
        );
        let r = pick(0.75, 0.75);
        assert_eq!(
            r.bmc_basis_right,
            Some(false),
            "full tie keeps the left basis"
        );
    }

    /// A unit outcome with the given best threshold and F1.
    fn outcome(algorithm: AlgorithmKind, best_threshold: f64, f1: f64) -> SweepResult {
        SweepResult {
            algorithm,
            best_threshold,
            best: PrecisionRecall {
                precision: f1,
                recall: f1,
                f1,
                true_positives: 1,
                output_pairs: 1,
                ground_truth_pairs: 1,
            },
            bmc_basis_right: None,
        }
    }

    #[test]
    fn bah_grid_slices_are_contiguous_and_non_empty() {
        for len in [20, 2, 1] {
            for threads in [1, 2, 3, 4, 8, 32] {
                let slices: Vec<Range<usize>> = grid_slices(len, threads).collect();
                assert_eq!(
                    slices.len(),
                    threads.min(len),
                    "{len} points, {threads} workers"
                );
                assert!(slices.iter().all(|s| !s.is_empty()), "{slices:?}");
                assert_eq!(slices[0].start, 0);
                assert_eq!(slices.last().unwrap().end, len);
                assert!(
                    slices.windows(2).all(|w| w[0].end == w[1].start),
                    "{slices:?}"
                );
            }
        }
        // Every other kind keeps one whole-grid unit (two for BMC).
        let grid = ThresholdGrid::paper();
        let engine = SweepEngine::new(AlgorithmConfig::default()).with_threads(8);
        for kind in AlgorithmKind::ALL {
            let units = engine.units_of(kind, &grid);
            let want = match kind {
                AlgorithmKind::Bah => 8,
                AlgorithmKind::Bmc => 2,
                _ => 1,
            };
            assert_eq!(units.len(), want, "{kind}");
            if kind != AlgorithmKind::Bah {
                assert!(units.iter().all(|u| u.points == (0..grid.len())), "{kind}");
            }
        }
    }

    #[test]
    fn bah_slice_f1_tie_prefers_the_higher_threshold_slice() {
        // Two slices of the descending paper grid: the first covers
        // 1.0 ..= 0.55, the second 0.5 ..= 0.05. Both tie on F1 across the
        // boundary, so the single pass keeps the first slice's (larger)
        // threshold; only a strictly higher F1 lets the second slice win.
        let grid = ThresholdGrid::paper();
        let units = SweepEngine::new(AlgorithmConfig::default())
            .with_threads(2)
            .units_of(AlgorithmKind::Bah, &grid);
        assert_eq!(units.len(), 2);
        let pick = |hi: (f64, f64), lo: (f64, f64)| {
            combine(
                AlgorithmKind::Bah,
                &units,
                &[
                    outcome(AlgorithmKind::Bah, hi.0, hi.1),
                    outcome(AlgorithmKind::Bah, lo.0, lo.1),
                ],
            )
        };
        let r = pick((0.55, 0.8), (0.5, 0.8));
        assert_eq!(r.best_threshold, 0.55, "F1 tie keeps the higher slice");
        assert_eq!(r.bmc_basis_right, None);
        let r = pick((0.55, 0.8), (0.3, 0.9));
        assert_eq!(r.best_threshold, 0.3, "higher F1 in the lower slice wins");
        let r = pick((0.9, 0.9), (0.5, 0.8));
        assert_eq!(r.best_threshold, 0.9, "lower F1 in the lower slice loses");
    }

    #[test]
    fn sweep_all_covers_eight() {
        let (g, gt) = graph_and_truth();
        let pg = PreparedGraph::new(&g);
        let grid = ThresholdGrid::new(0.2, 1.0, 0.2);
        let rs = SweepEngine::new(AlgorithmConfig::default()).sweep_all(&pg, &gt, &grid);
        assert_eq!(rs.len(), 8);
        for r in &rs {
            assert!((0.0..=1.0).contains(&r.best.f1));
            assert!(r.best_threshold > 0.0);
        }
        // On this easy graph the top algorithms reach F1 = 1.
        let umc = rs
            .iter()
            .find(|r| r.algorithm == AlgorithmKind::Umc)
            .unwrap();
        assert_eq!(umc.best.f1, 1.0);
    }

    #[test]
    fn engine_thread_counts_agree() {
        let (g, gt) = graph_and_truth();
        let pg = PreparedGraph::new(&g);
        let grid = ThresholdGrid::paper();
        let config = AlgorithmConfig::default();
        let serial = SweepEngine::new(config)
            .with_threads(1)
            .sweep_all(&pg, &gt, &grid);
        let parallel = SweepEngine::new(config)
            .with_threads(4)
            .sweep_all(&pg, &gt, &grid);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.best_threshold, b.best_threshold);
            assert_eq!(a.best, b.best);
            assert_eq!(a.bmc_basis_right, b.bmc_basis_right);
        }
    }

    #[test]
    fn engine_matches_naive_on_fixture() {
        let (g, gt) = graph_and_truth();
        let pg = PreparedGraph::new(&g);
        let grid = ThresholdGrid::paper();
        let config = AlgorithmConfig::default();
        let engine = SweepEngine::new(config);
        for kind in AlgorithmKind::ALL {
            let fast = engine.sweep_algorithm(kind, &pg, &gt, &grid);
            let slow = sweep_naive(kind, &config, &pg, &gt, &grid);
            assert_eq!(fast.best_threshold, slow.best_threshold, "{kind}");
            assert_eq!(fast.best, slow.best, "{kind}");
            assert_eq!(fast.bmc_basis_right, slow.bmc_basis_right, "{kind}");
        }
    }
}
