//! Property-based tests over random bipartite graphs.
//!
//! Invariants checked for every algorithm:
//! 1. output satisfies the unique-mapping constraint;
//! 2. every output pair is a graph edge respecting the threshold
//!    (strict `> t` for RSR/BAH/BMC/EXC/KRC/UMC, inclusive `>= t` for
//!    CNC/RCA per their pseudocode);
//! 3. the algorithm is deterministic (BAH: per seed);
//!
//! plus algorithm-specific guarantees: the Hungarian oracle dominates every
//! heuristic's total weight, UMC achieves at least half the optimum, EXC
//! emits only mutual best matches, and CNC pairs are isolated components.

mod hungarian;

use er_core::{GraphBuilder, SimilarityGraph};
use er_matchers::{mcf_matching, AlgorithmConfig, AlgorithmKind, Exc, Matcher, PreparedGraph, Umc};
use hungarian::{hungarian_matching, max_weight_matching_value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random bipartite graph with up to 12x12 nodes and weights on
/// the 0.05 grid (mirroring normalized similarity graphs).
fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..12, 1u32..12).prop_flat_map(|(nl, nr)| {
        let max_edges = (nl * nr) as usize;
        proptest::collection::btree_map((0..nl, 0..nr), 1u32..=20, 0..=max_edges.min(40)).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(nl, nr);
                for ((l, r), w) in edges {
                    b.add_edge(l, r, w as f64 * 0.05).unwrap();
                }
                b.build()
            },
        )
    })
}

fn arb_threshold() -> impl Strategy<Value = f64> {
    (0u32..=20).prop_map(|i| i as f64 * 0.05)
}

/// Whether `kind` uses an inclusive (>=) threshold per its pseudocode.
fn threshold_is_inclusive(kind: AlgorithmKind) -> bool {
    matches!(kind, AlgorithmKind::Cnc | AlgorithmKind::Rca)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_matchers_produce_valid_output(g in arb_graph(), t in arb_threshold()) {
        let pg = PreparedGraph::new(&g);
        let cfg = AlgorithmConfig::default();
        for kind in AlgorithmKind::ALL {
            let m = cfg.run(kind, &pg, t);
            prop_assert!(m.is_unique_mapping(), "{kind} violated unique mapping");
            for (l, r) in m.iter() {
                prop_assert!(l < g.n_left() && r < g.n_right(), "{kind} out of bounds");
                let w = g.weight_of(l, r);
                prop_assert!(w.is_some(), "{kind} emitted a non-edge ({l},{r})");
                let w = w.unwrap();
                if threshold_is_inclusive(kind) {
                    prop_assert!(w >= t, "{kind} pair below inclusive threshold");
                } else {
                    prop_assert!(w > t, "{kind} pair at/below strict threshold");
                }
            }
        }
    }

    #[test]
    fn all_matchers_are_deterministic(g in arb_graph(), t in arb_threshold()) {
        let pg = PreparedGraph::new(&g);
        let cfg = AlgorithmConfig::default();
        for kind in AlgorithmKind::ALL {
            let a = cfg.run(kind, &pg, t);
            let b = cfg.run(kind, &pg, t);
            prop_assert_eq!(a, b, "{} not deterministic", kind);
        }
    }

    #[test]
    fn hungarian_dominates_every_heuristic(g in arb_graph(), t in arb_threshold()) {
        let pg = PreparedGraph::new(&g);
        let cfg = AlgorithmConfig::default();
        let opt = max_weight_matching_value(&g, t);
        for kind in AlgorithmKind::ALL {
            // CNC/RCA may include weight == t edges the oracle excludes;
            // compare against the inclusive optimum for them.
            let bound = if threshold_is_inclusive(kind) {
                max_weight_matching_value(&g, t - 1e-9)
            } else {
                opt
            };
            let w = cfg.run(kind, &pg, t).total_weight(&g);
            prop_assert!(
                w <= bound + 1e-9,
                "{kind} total weight {w} exceeds optimum {bound}"
            );
        }
    }

    #[test]
    fn umc_is_half_approximation(g in arb_graph(), t in arb_threshold()) {
        let pg = PreparedGraph::new(&g);
        let umc = Umc.run(&pg, t).total_weight(&g);
        let opt = max_weight_matching_value(&g, t);
        prop_assert!(
            umc * 2.0 + 1e-9 >= opt,
            "greedy {umc} below half of optimum {opt}"
        );
    }

    #[test]
    fn exc_pairs_are_mutual_best(g in arb_graph(), t in arb_threshold()) {
        let pg = PreparedGraph::new(&g);
        let adj = pg.adjacency();
        let m = Exc.run(&pg, t);
        for (l, r) in m.iter() {
            prop_assert_eq!(adj.best_left(l, t).unwrap().node, r);
            prop_assert_eq!(adj.best_right(r, t).unwrap().node, l);
        }
    }

    #[test]
    fn cnc_pairs_are_isolated_components(g in arb_graph(), t in arb_threshold()) {
        let pg = PreparedGraph::new(&g);
        let cfg = AlgorithmConfig::default();
        let m = cfg.run(AlgorithmKind::Cnc, &pg, t);
        // Each matched node must have exactly one retained (>= t) edge:
        // the matched one.
        for (l, r) in m.iter() {
            let l_deg = g.edges().iter().filter(|e| e.left == l && e.weight >= t).count();
            let r_deg = g.edges().iter().filter(|e| e.right == r && e.weight >= t).count();
            prop_assert_eq!(l_deg, 1, "left {} not isolated", l);
            prop_assert_eq!(r_deg, 1, "right {} not isolated", r);
        }
    }

    #[test]
    fn sparse_and_dense_oracles_agree(g in arb_graph(), t in arb_threshold()) {
        // The O(k·m·log n) min-cost-flow solver and the O(s²·l) Hungarian
        // solver compute the same maximum total weight.
        let sparse = mcf_matching(&g, t);
        prop_assert!(sparse.is_unique_mapping());
        for (l, r) in sparse.iter() {
            let w = g.weight_of(l, r);
            prop_assert!(w.is_some(), "mcf emitted a non-edge ({l},{r})");
            prop_assert!(w.unwrap() > t, "mcf pair at/below strict threshold");
        }
        let dense = max_weight_matching_value(&g, t);
        let ws = sparse.total_weight(&g);
        prop_assert!(
            (dense - ws).abs() < 1e-9,
            "hungarian {dense} vs mcf {ws}"
        );
    }

    #[test]
    fn hungarian_matches_brute_force_value(g in arb_graph()) {
        // Restrict to graphs small enough for brute force.
        prop_assume!(g.n_left() <= 7 && g.n_right() <= 7);
        let opt = max_weight_matching_value(&g, 0.0);
        let brute = brute_force(&g, 0.0);
        prop_assert!((opt - brute).abs() < 1e-9, "hungarian {opt} vs brute {brute}");
        // And its matching is valid.
        prop_assert!(hungarian_matching(&g, 0.0).is_unique_mapping());
    }
}

#[test]
fn matches_hungarian_total_weight_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(42);
    for case in 0..60 {
        let nl = rng.gen_range(1..=12);
        let nr = rng.gen_range(1..=12);
        let density = rng.gen_range(0.1..0.9);
        let mut b = GraphBuilder::new(nl, nr);
        for l in 0..nl {
            for r in 0..nr {
                if rng.gen_bool(density) {
                    // Two decimals produce many ties, stressing the
                    // tie-handling of both oracles.
                    let w = (rng.gen_range(0..=100) as f64) / 100.0;
                    b.add_edge(l, r, w).unwrap();
                }
            }
        }
        let g = b.build();
        for t in [0.0, 0.3, 0.7] {
            let exact = hungarian_matching(&g, t);
            let sparse = mcf_matching(&g, t);
            assert!(sparse.is_unique_mapping());
            let we = exact.total_weight(&g);
            let ws = sparse.total_weight(&g);
            assert!(
                (we - ws).abs() < 1e-9,
                "case {case} t {t}: hungarian {we} vs mcf {ws}"
            );
            for (l, r) in sparse.iter() {
                let w = g
                    .edges()
                    .iter()
                    .find(|e| e.left == l && e.right == r)
                    .map(|e| e.weight);
                assert!(w.is_some(), "pair ({l},{r}) is a graph edge");
                assert!(w.unwrap() > t, "pair ({l},{r}) above threshold");
            }
        }
    }
}

fn brute_force(g: &SimilarityGraph, t: f64) -> f64 {
    fn rec(g: &SimilarityGraph, t: f64, row: u32, used: &mut Vec<bool>) -> f64 {
        if row == g.n_left() {
            return 0.0;
        }
        let mut best = rec(g, t, row + 1, used);
        for c in 0..g.n_right() {
            if !used[c as usize] {
                if let Some(w) = g.weight_of(row, c) {
                    if w > t {
                        used[c as usize] = true;
                        best = best.max(w + rec(g, t, row + 1, used));
                        used[c as usize] = false;
                    }
                }
            }
        }
        best
    }
    let mut used = vec![false; g.n_right() as usize];
    rec(g, t, 0, &mut used)
}
