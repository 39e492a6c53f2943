//! Property tests for the evaluation layer.

use er_core::{CsrGraph, GraphBuilder, GroundTruth, Matching, SimilarityGraph, ThresholdGrid};
use er_eval::aggregate::mean_std;
use er_eval::friedman::{friedman_test, ranks_desc};
use er_eval::metrics::evaluate;
use er_eval::pearson::pearson;
use er_eval::quartiles::Quartiles;
use er_eval::sweep::{sweep_naive, SweepEngine};
use er_matchers::{AlgorithmConfig, AlgorithmKind, BahConfig, PreparedGraph};
use proptest::prelude::*;

/// Strategy: a random bipartite graph with up to 10x10 nodes and weights on
/// the 0.025 half-grid, so roughly half the weights fall *exactly on* paper
/// grid points (stressing the strict/inclusive boundary semantics) and half
/// between them (stressing the unchanged-prefix memo of the incremental
/// matchers).
fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..10, 1u32..10).prop_flat_map(|(nl, nr)| {
        let max_edges = (nl * nr) as usize;
        proptest::collection::btree_map((0..nl, 0..nr), 1u32..=40, 0..=max_edges.min(30)).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(nl, nr);
                for ((l, r), w) in edges {
                    b.add_edge(l, r, w as f64 * 0.025).unwrap();
                }
                b.build()
            },
        )
    })
}

/// Strategy: a one-to-one ground truth over the collections' id space.
fn arb_ground_truth() -> impl Strategy<Value = GroundTruth> {
    proptest::collection::btree_set((0u32..10, 0u32..10), 0..8).prop_map(|pairs| {
        let mut ls = std::collections::HashSet::new();
        let mut rs = std::collections::HashSet::new();
        GroundTruth::new(
            pairs
                .iter()
                .filter(|(l, r)| ls.insert(*l) && rs.insert(*r))
                .copied()
                .collect::<Vec<_>>(),
        )
    })
}

/// The sweep configuration for equivalence testing: paper defaults except a
/// trimmed BAH move budget (the search is equivalence-tested all the same,
/// just faster).
fn sweep_config() -> AlgorithmConfig {
    AlgorithmConfig {
        bah: BahConfig {
            max_moves: 300,
            ..BahConfig::default()
        },
        ..AlgorithmConfig::default()
    }
}

proptest! {
    #[test]
    fn metrics_are_bounded_and_consistent(
        gt_pairs in proptest::collection::btree_set((0u32..30, 0u32..30), 0..15),
        out_pairs in proptest::collection::btree_set((0u32..30, 0u32..30), 0..15),
    ) {
        // Make both sides one-to-one by keeping first occurrence per id.
        let one_to_one = |pairs: &std::collections::BTreeSet<(u32, u32)>| {
            let mut ls = std::collections::HashSet::new();
            let mut rs = std::collections::HashSet::new();
            pairs
                .iter()
                .filter(|(l, r)| ls.insert(*l) && rs.insert(*r))
                .copied()
                .collect::<Vec<_>>()
        };
        let gt = GroundTruth::new(one_to_one(&gt_pairs));
        let m = Matching::new(one_to_one(&out_pairs));
        let e = evaluate(&m, &gt);
        prop_assert!((0.0..=1.0).contains(&e.precision));
        prop_assert!((0.0..=1.0).contains(&e.recall));
        prop_assert!((0.0..=1.0).contains(&e.f1));
        prop_assert!(e.true_positives <= e.output_pairs);
        prop_assert!(e.true_positives <= e.ground_truth_pairs);
        // F1 is between min and max of precision/recall.
        let lo = e.precision.min(e.recall);
        let hi = e.precision.max(e.recall);
        prop_assert!(e.f1 >= lo - 1e-12 || e.f1 == 0.0);
        prop_assert!(e.f1 <= hi + 1e-12);
    }

    #[test]
    fn ranks_are_a_permutation_mean(row in proptest::collection::vec(0.0f64..1.0, 2..10)) {
        let ranks = ranks_desc(&row);
        let k = row.len() as f64;
        let sum: f64 = ranks.iter().sum();
        // Σ ranks = k(k+1)/2 regardless of ties.
        prop_assert!((sum - k * (k + 1.0) / 2.0).abs() < 1e-9);
        // Better score never gets a worse (higher) rank.
        for i in 0..row.len() {
            for j in 0..row.len() {
                if row[i] > row[j] {
                    prop_assert!(ranks[i] < ranks[j]);
                }
            }
        }
    }

    #[test]
    fn friedman_mean_ranks_bounded(
        scores in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 4),
            2..30,
        )
    ) {
        let r = friedman_test(&scores);
        for mr in &r.mean_ranks {
            prop_assert!((1.0..=4.0).contains(mr));
        }
        prop_assert!((0.0..=1.0).contains(&r.p_value));
        prop_assert!(r.chi_square >= 0.0);
    }

    #[test]
    fn quartiles_are_ordered(values in proptest::collection::vec(-10.0f64..10.0, 1..50)) {
        let q = Quartiles::of(&values).unwrap();
        prop_assert!(q.min <= q.q1 + 1e-12);
        prop_assert!(q.q1 <= q.q2 + 1e-12);
        prop_assert!(q.q2 <= q.q3 + 1e-12);
        prop_assert!(q.q3 <= q.max + 1e-12);
        prop_assert!(q.iqr() >= -1e-12);
    }

    #[test]
    fn pearson_is_bounded_and_scale_invariant(
        pairs in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 3..40),
        a in 0.1f64..5.0,
        b in -3.0f64..3.0,
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = pearson(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&r));
        // Positive affine transforms preserve correlation.
        let ys2: Vec<f64> = ys.iter().map(|y| a * y + b).collect();
        let r2 = pearson(&xs, &ys2);
        prop_assert!((r - r2).abs() < 1e-6, "{r} vs {r2}");
    }

    /// The tentpole guarantee: the incremental parallel [`SweepEngine`] can
    /// never drift from the protocol. For every algorithm, the engine's
    /// sweep result (best threshold, precision, recall, F1, pair counts,
    /// BMC basis) equals a naive per-threshold from-scratch re-run.
    #[test]
    fn sweep_engine_is_equivalent_to_naive_rerun(
        g in arb_graph(),
        gt in arb_ground_truth(),
    ) {
        let pg = PreparedGraph::new(&g);
        let grid = ThresholdGrid::paper();
        let config = sweep_config();
        let engine = SweepEngine::new(config).with_threads(4);
        let all = engine.sweep_all(&pg, &gt, &grid);
        prop_assert_eq!(all.len(), 8);
        for (kind, fast) in AlgorithmKind::ALL.into_iter().zip(&all) {
            prop_assert_eq!(fast.algorithm, kind);
            let slow = sweep_naive(kind, &config, &pg, &gt, &grid);
            prop_assert_eq!(
                fast.best_threshold, slow.best_threshold,
                "{} best threshold drifted", kind
            );
            prop_assert_eq!(fast.best, slow.best, "{} P/R/F1 drifted", kind);
            prop_assert_eq!(
                fast.bmc_basis_right, slow.bmc_basis_right,
                "{} basis selection drifted", kind
            );
        }
    }

    /// Stronger than result equivalence: at *every* grid point, each
    /// algorithm's incremental matcher emits the exact same matching pairs
    /// as a fresh run at that threshold.
    #[test]
    fn incremental_sweepers_emit_identical_matchings(
        g in arb_graph(),
    ) {
        let pg = PreparedGraph::new(&g);
        let grid = ThresholdGrid::paper();
        let config = sweep_config();
        for kind in AlgorithmKind::ALL {
            let matcher = config.build(kind);
            let mut sweeper = config.delta_matcher(kind);
            for t in grid.values_desc() {
                sweeper.step(&pg, t);
                let incremental = sweeper.matching();
                let fresh = matcher.run(&pg, t);
                prop_assert_eq!(
                    incremental, fresh,
                    "{} matching drifted at t={}", kind, t
                );
            }
        }
    }

    /// The CSR store is lossless: a round trip through [`CsrGraph`]
    /// preserves the collections and the exact edge set (weight bits
    /// included) — only the listing order changes, to canonical
    /// `(left asc, right asc)`.
    #[test]
    fn csr_round_trip_is_identity(g in arb_graph()) {
        let back = CsrGraph::from_graph(&g).to_graph();
        prop_assert_eq!(back.n_left(), g.n_left());
        prop_assert_eq!(back.n_right(), g.n_right());
        let canon = |g: &SimilarityGraph| -> Vec<(u32, u32, u64)> {
            let mut v: Vec<_> = g
                .edges()
                .iter()
                .map(|e| (e.left, e.right, e.weight.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(canon(&back), canon(&g));
    }

    /// Pruning at `k = ∞` changes nothing but the storage path: sweeping
    /// the CSR-routed pruned graph gives the *same* result as sweeping
    /// the dense graph, for all eight algorithms — best threshold,
    /// precision/recall/F1, and BMC basis alike. This is the contract
    /// that lets production pipelines hand pruned CSR stores to the
    /// unchanged sweep engine.
    #[test]
    fn sweep_on_csr_pruned_graph_matches_dense(
        g in arb_graph(),
        gt in arb_ground_truth(),
    ) {
        let grid = ThresholdGrid::paper();
        let config = sweep_config();
        let engine = SweepEngine::new(config).with_threads(2);

        let dense = PreparedGraph::new(&g);
        let dense_results = engine.sweep_all(&dense, &gt, &grid);

        let csr = CsrGraph::from_graph(&g.pruned_top_k(usize::MAX));
        let pruned = PreparedGraph::from_csr(&csr);
        let pruned_results = engine.sweep_all(&pruned, &gt, &grid);

        prop_assert_eq!(dense_results.len(), pruned_results.len());
        for (d, p) in dense_results.iter().zip(&pruned_results) {
            prop_assert_eq!(d.algorithm, p.algorithm);
            prop_assert_eq!(
                d.best_threshold, p.best_threshold,
                "{} best threshold drifted on the CSR path", d.algorithm
            );
            prop_assert_eq!(d.best, p.best, "{} P/R/F1 drifted", d.algorithm);
            prop_assert_eq!(
                d.bmc_basis_right, p.bmc_basis_right,
                "{} basis selection drifted", d.algorithm
            );
        }
    }

    #[test]
    fn mean_std_shift_invariance(
        values in proptest::collection::vec(-100.0f64..100.0, 1..60),
        shift in -50.0f64..50.0,
    ) {
        let base = mean_std(&values);
        let shifted: Vec<f64> = values.iter().map(|v| v + shift).collect();
        let s = mean_std(&shifted);
        prop_assert!((s.mean - (base.mean + shift)).abs() < 1e-6);
        prop_assert!((s.std - base.std).abs() < 1e-6);
    }
}
