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
//! * each `(algorithm, basis)` unit steps its one incremental matcher
//!   ([`er_matchers::DeltaMatcher`], the same one a resident service
//!   feeds graph deltas) down the grid in *descending* threshold order,
//!   so "edges above t" is a prefix slice of the prepared graph's sorted
//!   edge view and a step only admits the edges past the previous grid
//!   point: UMC continues its greedy fold, BAH extends its contribution
//!   map, and the other matchers re-run only when the view moved;
//! * the units fan out over the workers of the `er_core::par` pool (the
//!   same pool `er-pipeline`'s corpus runner uses).
//!
//! The engine is **result-equivalent** to the naive per-threshold re-run
//! ([`sweep_naive`]) — the property tests in `tests/proptests.rs` enforce
//! equality of best threshold, precision/recall/F1, and per-threshold
//! matchings for all eight algorithms.

use serde::{Deserialize, Serialize};

use er_core::{par, GroundTruth, ThresholdGrid};
use er_matchers::{AlgorithmConfig, AlgorithmKind, Basis, PreparedGraph};

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
        let units: Vec<Unit> = AlgorithmKind::ALL.into_iter().flat_map(units_of).collect();
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
        let units = units_of(kind);
        let outcomes = self.run_units(&units, g, gt, grid);
        combine(kind, &units, &outcomes)
    }

    /// Fan the units out over scoped worker threads; results keep unit
    /// order regardless of completion order.
    fn run_units(
        &self,
        units: &[Unit],
        g: &PreparedGraph<'_>,
        gt: &GroundTruth,
        grid: &ThresholdGrid,
    ) -> Vec<SweepResult> {
        par::map_indexed(
            units.len(),
            self.threads,
            || (),
            |_, idx| sweep_unit(&units[idx], &self.config, g, gt, grid),
        )
    }
}

/// One schedulable piece of grid work: an algorithm under a fixed basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Unit {
    kind: AlgorithmKind,
    basis: Option<Basis>,
}

/// BMC contributes two units (one per basis); everything else one.
fn units_of(kind: AlgorithmKind) -> Vec<Unit> {
    if kind == AlgorithmKind::Bmc {
        Basis::both()
            .into_iter()
            .map(|b| Unit {
                kind,
                basis: Some(b),
            })
            .collect()
    } else {
        vec![Unit { kind, basis: None }]
    }
}

/// Collapse a kind's unit outcomes into its final [`SweepResult`] (the BMC
/// dual-basis selection of §3 for BMC, identity otherwise).
fn combine(kind: AlgorithmKind, units: &[Unit], outcomes: &[SweepResult]) -> SweepResult {
    let mut picked: Option<(Basis, SweepResult)> = None;
    for (u, r) in units.iter().zip(outcomes) {
        if u.kind != kind {
            continue;
        }
        let Some(basis) = u.basis else {
            return r.clone();
        };
        picked = Some(match picked {
            None => (basis, r.clone()),
            Some((cur_basis, cur)) => {
                if basis_beats(r, &cur) {
                    (basis, r.clone())
                } else {
                    (cur_basis, cur)
                }
            }
        });
    }
    let (basis, mut winner) = picked.expect("kind has at least one unit");
    winner.bmc_basis_right = Some(basis == Basis::Right);
    winner.algorithm = kind;
    winner
}

/// The documented BMC basis selection rule (§3 evaluates both bases and
/// retains the better): **higher best-F1 wins; on an F1 tie the basis with
/// the larger optimal threshold wins** (mirroring the protocol's "largest
/// threshold achieving the highest F-Measure"); a full tie keeps the left
/// basis. Deterministic by construction.
fn basis_beats(challenger: &SweepResult, incumbent: &SweepResult) -> bool {
    challenger.best.f1 > incumbent.best.f1
        || (challenger.best.f1 == incumbent.best.f1
            && challenger.best_threshold > incumbent.best_threshold)
}

/// Step one unit's incremental matcher down the grid, keeping the largest
/// threshold that achieves the maximum F1.
fn sweep_unit(
    unit: &Unit,
    config: &AlgorithmConfig,
    g: &PreparedGraph<'_>,
    gt: &GroundTruth,
    grid: &ThresholdGrid,
) -> SweepResult {
    let config = match unit.basis {
        Some(basis) => AlgorithmConfig {
            bmc_basis: basis,
            ..*config
        },
        None => *config,
    };
    let mut matcher = config.delta_matcher(unit.kind);
    let mut best_threshold = 0.0;
    let mut best = PrecisionRecall::zero(gt.len());
    let mut have_any = false;
    for t in grid.values_desc() {
        matcher.step(g, t);
        let e = evaluate(&matcher.matching(), gt);
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
        let mut winner = if basis_beats(&right, &left) {
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
        let units = units_of(AlgorithmKind::Bmc);
        let outcome = |t: f64| SweepResult {
            algorithm: AlgorithmKind::Bmc,
            best_threshold: t,
            best: PrecisionRecall {
                precision: 1.0,
                recall: 1.0,
                f1: 1.0,
                true_positives: 1,
                output_pairs: 1,
                ground_truth_pairs: 1,
            },
            bmc_basis_right: None,
        };
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
