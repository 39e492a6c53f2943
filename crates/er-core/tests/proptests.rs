//! Property tests for the core substrate.

use er_core::{
    min_max_normalize, CsrGraph, Edge, GraphBuilder, GroundTruth, Matching, SimilarityGraph,
    ThresholdGrid, UnionFind,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..20, 1u32..20).prop_flat_map(|(nl, nr)| {
        proptest::collection::btree_map((0..nl, 0..nr), 0.0f64..=1.0, 0..60).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(nl, nr);
                for ((l, r), w) in edges {
                    b.add_edge(l, r, w).unwrap();
                }
                b.build()
            },
        )
    })
}

proptest! {
    #[test]
    fn adjacency_is_complete_and_sorted(g in arb_graph()) {
        let adj = g.adjacency();
        // Every edge appears exactly once per side.
        let mut count = 0usize;
        for i in 0..g.n_left() {
            let ns = adj.left(i);
            count += ns.len();
            for w in ns.windows(2) {
                prop_assert!(
                    w[0].weight > w[1].weight
                        || (w[0].weight == w[1].weight && w[0].node < w[1].node),
                    "left adjacency must be sorted desc with id tiebreak"
                );
            }
        }
        prop_assert_eq!(count, g.n_edges());
        let right_count: usize = (0..g.n_right()).map(|j| adj.right(j).len()).sum();
        prop_assert_eq!(right_count, g.n_edges());
    }

    #[test]
    fn adjacency_agrees_with_edge_list(g in arb_graph()) {
        let adj = g.adjacency();
        for e in g.edges() {
            prop_assert!(adj.left(e.left).iter().any(|n| n.node == e.right && n.weight == e.weight));
            prop_assert!(adj.right(e.right).iter().any(|n| n.node == e.left && n.weight == e.weight));
        }
    }

    #[test]
    fn normalization_bounds_and_extremes(g in arb_graph()) {
        let mut g = g;
        min_max_normalize(&mut g);
        if let Some((lo, hi)) = g.weight_range() {
            prop_assert!(lo >= 0.0 && hi <= 1.0);
            // Non-degenerate graphs hit both 0 and 1 after min-max.
            if g.n_edges() >= 2 && lo != hi {
                prop_assert!((hi - 1.0).abs() < 1e-12);
                prop_assert!(lo.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pruning_is_monotone(g in arb_graph(), t in 0.0f64..=1.0) {
        let pruned = g.pruned(t);
        prop_assert!(pruned.n_edges() <= g.n_edges());
        prop_assert!(pruned.edges().iter().all(|e| e.weight >= t));
        // Pruning at 0 keeps everything.
        prop_assert_eq!(g.pruned(0.0).n_edges(), g.n_edges());
    }

    #[test]
    fn union_find_partitions(pairs in proptest::collection::vec((0u32..30, 0u32..30), 0..50)) {
        let mut uf = UnionFind::new(30);
        for &(a, b) in &pairs {
            uf.union(a, b);
        }
        // Connectivity is symmetric/transitive: spot-check via roots.
        for &(a, b) in &pairs {
            prop_assert!(uf.connected(a, b));
        }
        // Set sizes sum to n.
        let mut sizes = std::collections::HashMap::new();
        for x in 0..30u32 {
            let root = uf.find(x);
            *sizes.entry(root).or_insert(0u32) += 1;
        }
        for (&root, &count) in &sizes {
            prop_assert_eq!(uf.set_size(root), count);
        }
        prop_assert_eq!(sizes.values().sum::<u32>(), 30);
    }

    #[test]
    fn matching_total_weight_bounded_by_graph(g in arb_graph()) {
        // A matching over real edges never outweighs the total edge mass.
        let mut used_l = std::collections::HashSet::new();
        let mut used_r = std::collections::HashSet::new();
        let mut pairs = Vec::new();
        for e in g.edges() {
            if !used_l.contains(&e.left) && !used_r.contains(&e.right) {
                used_l.insert(e.left);
                used_r.insert(e.right);
                pairs.push((e.left, e.right));
            }
        }
        let m = Matching::new(pairs);
        let total: f64 = g.edges().iter().map(|e| e.weight).sum();
        prop_assert!(m.total_weight(&g) <= total + 1e-9);
        prop_assert!(m.is_unique_mapping());
    }

    #[test]
    fn ground_truth_tp_bounded(g in arb_graph()) {
        let gt_pairs: Vec<(u32, u32)> = (0..g.n_left().min(g.n_right()))
            .map(|i| (i, i))
            .collect();
        let gt = GroundTruth::new(gt_pairs);
        let m: Matching = g
            .edges()
            .iter()
            .take(1)
            .map(|e| (e.left, e.right))
            .collect();
        prop_assert!(gt.true_positives(&m) <= m.len());
        prop_assert!(gt.true_positives(&m) <= gt.len());
    }

    #[test]
    fn threshold_grid_is_sorted_unique(start in 1u32..10, len in 1u32..15) {
        let step = 0.05;
        let grid = ThresholdGrid::new(start as f64 * step, (start + len) as f64 * step, step);
        let v: Vec<f64> = grid.values().collect();
        prop_assert_eq!(v.len(), len as usize + 1);
        for w in v.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn graph_construction_roundtrip(g in arb_graph()) {
        let edges: Vec<Edge> = g.edges().to_vec();
        let rebuilt = SimilarityGraph::new(g.n_left(), g.n_right(), edges).unwrap();
        prop_assert_eq!(rebuilt.n_edges(), g.n_edges());
        prop_assert_eq!(rebuilt.weight_range(), g.weight_range());
    }

    /// The lazy column index under arbitrary delta traffic, first built
    /// before the traffic, midway through it, or never (`build_at` past
    /// the end; a `remove_right` still builds it, as it reads the column).
    /// After every step, `live_column` equals the brute-force gather over
    /// the rows, `remove_right` returns exactly that gather, and a clone
    /// whose index was just built compares equal to the original.
    #[test]
    fn column_index_tracks_brute_force_under_deltas(
        g in arb_graph(),
        ops in proptest::collection::vec(
            (0u8..5, 0u16..64, proptest::collection::vec((0u16..64, 0.0f64..=1.0), 0..4)),
            0..12,
        ),
        build_at in 0usize..16,
    ) {
        let mut csr = CsrGraph::from_graph(&g);
        for (i, (op, pick, edges)) in ops.into_iter().enumerate() {
            if i == build_at {
                for r in 0..csr.n_right() {
                    csr.live_column(r).count();
                }
            }
            match op {
                0 | 1 => {
                    // Insert on the left (0) or the right (1), edges to
                    // distinct live counterparts.
                    let (n, live): (u32, &dyn Fn(u32) -> bool) = if op == 0 {
                        (csr.n_right(), &|r| csr.is_live_right(r))
                    } else {
                        (csr.n_left(), &|l| csr.is_live_left(l))
                    };
                    let mut list: Vec<(u32, f64)> = Vec::new();
                    for (id, w) in edges {
                        let id = id as u32 % n.max(1);
                        if n > 0 && live(id) && list.iter().all(|&(x, _)| x != id) {
                            list.push((id, w));
                        }
                    }
                    if op == 0 {
                        csr.insert_left(&list).unwrap();
                    } else {
                        csr.insert_right(&list).unwrap();
                    }
                }
                2 => {
                    let n = csr.n_left();
                    if let Some(l) = (0..n).map(|d| (pick as u32 + d) % n).find(|&l| csr.is_live_left(l)) {
                        csr.remove_left(l).unwrap();
                    }
                }
                3 => {
                    let n = csr.n_right();
                    if let Some(r) = (0..n).map(|d| (pick as u32 + d) % n).find(|&r| csr.is_live_right(r)) {
                        let want = brute_column(&csr, r);
                        prop_assert_eq!(csr.remove_right(r).unwrap(), want);
                    }
                }
                _ => csr.compact(),
            }
            let probe = csr.clone();
            for r in 0..=csr.n_right() {
                let got: Vec<(u32, f64)> = probe.live_column(r).collect();
                prop_assert_eq!(got, brute_column(&csr, r), "column {} after step {}", r, i);
            }
            prop_assert_eq!(&probe, &csr, "the column index is invisible to equality");
        }
    }
}

/// Column `right` by scanning every row — the oracle for
/// `CsrGraph::live_column`.
fn brute_column(csr: &CsrGraph, right: u32) -> Vec<(u32, f64)> {
    (0..csr.n_left())
        .filter_map(|l| csr.weight_of(l, right).map(|w| (l, w)))
        .collect()
}
