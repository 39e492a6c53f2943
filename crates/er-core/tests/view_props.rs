//! Oracle suite for the matcher views: the packed-key sort behind
//! [`SortedEdges`] and the scatter behind [`Adjacency::from_sorted`]
//! against the builders they replaced.
//!
//! The oracles are those builders, kept here and nowhere else:
//! * [`oracle_sorted`] — a stable comparator sort by `edge_key_desc`;
//! * [`oracle_side`] — a counting sort by node followed by a comparison
//!   sort of every node's slice (weight descending, node ascending).
//!
//! Every view must equal its oracle bit for bit (`f64::to_bits`, so
//! `-0.0` and `0.0` are told apart), on tie-heavy weights drawn from
//! {−0.0, 0.0, 0.25, 0.5, 1.0}, on empty graphs and isolated nodes, for
//! any input order, and on a graph of a few hundred thousand edges.

use er_core::float::edge_key_desc;
use er_core::{Adjacency, Edge, GraphBuilder, Neighbor, SimilarityGraph, SortedEdges};
use proptest::prelude::*;

/// The tie-heavy weight pool; `-0.0` sorts below `0.0` under `total_cmp`.
const WEIGHTS: [f64; 5] = [-0.0, 0.0, 0.25, 0.5, 1.0];

type EdgeBits = (u32, u32, u64);
type NeighborBits = (u32, u64);

fn edge_bits(edges: &[Edge]) -> Vec<EdgeBits> {
    edges
        .iter()
        .map(|e| (e.left, e.right, e.weight.to_bits()))
        .collect()
}

fn neighbor_bits(ns: &[Neighbor]) -> Vec<NeighborBits> {
    ns.iter().map(|n| (n.node, n.weight.to_bits())).collect()
}

/// Oracle: the comparator sort (stable, `edge_key_desc`).
fn oracle_sorted(edges: &[Edge]) -> Vec<Edge> {
    let mut v = edges.to_vec();
    v.sort_by(|a, b| edge_key_desc((a.weight, a.left, a.right), (b.weight, b.left, b.right)));
    v
}

/// Oracle: one side of the per-node-sort adjacency — counting sort of the
/// edges by `key(e).0` in input order, then each node's slice sorted by
/// weight descending, node ascending.
fn oracle_side(
    n: u32,
    edges: &[Edge],
    key: impl Fn(&Edge) -> (u32, u32),
) -> Vec<Vec<NeighborBits>> {
    let mut offsets = vec![0usize; n as usize + 1];
    for e in edges {
        offsets[key(e).0 as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut neighbors = vec![
        Neighbor {
            node: 0,
            weight: 0.0
        };
        edges.len()
    ];
    for e in edges {
        let (from, to) = key(e);
        neighbors[cursor[from as usize]] = Neighbor {
            node: to,
            weight: e.weight,
        };
        cursor[from as usize] += 1;
    }
    (0..n as usize)
        .map(|i| {
            let slice = &mut neighbors[offsets[i]..offsets[i + 1]];
            slice.sort_by(|a, b| {
                b.weight
                    .total_cmp(&a.weight)
                    .then_with(|| a.node.cmp(&b.node))
            });
            neighbor_bits(slice)
        })
        .collect()
}

/// Shuffle with a splitmix-driven Fisher–Yates, so input order varies.
fn shuffled(edges: &[Edge], seed: u64) -> Vec<Edge> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut v = edges.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    v
}

/// Every view of `g` equals its oracle bit for bit, whatever the order
/// the edges arrive in.
fn check_views(g: &SimilarityGraph, seed: u64) -> Result<(), TestCaseError> {
    let expect = edge_bits(&oracle_sorted(g.edges()));
    let built = SortedEdges::build(g);
    prop_assert_eq!(edge_bits(built.all()), expect.clone(), "SortedEdges::build");
    for order in [
        shuffled(g.edges(), seed),
        g.edges().iter().rev().copied().collect(),
    ] {
        let sorted = SortedEdges::from_edges(order);
        prop_assert_eq!(
            edge_bits(sorted.all()),
            expect.clone(),
            "SortedEdges::from_edges"
        );
    }

    let left = oracle_side(g.n_left(), g.edges(), |e| (e.left, e.right));
    let right = oracle_side(g.n_right(), g.edges(), |e| (e.right, e.left));
    for (name, adj) in [
        (
            "from_sorted",
            Adjacency::from_sorted(g.n_left(), g.n_right(), built.all().iter().copied()),
        ),
        ("SimilarityGraph::adjacency", g.adjacency()),
    ] {
        prop_assert_eq!(adj.n_entries(), 2 * g.n_edges());
        for (i, want) in left.iter().enumerate() {
            prop_assert_eq!(
                &neighbor_bits(adj.left(i as u32)),
                want,
                "{} left {}",
                name,
                i
            );
        }
        for (j, want) in right.iter().enumerate() {
            prop_assert_eq!(
                &neighbor_bits(adj.right(j as u32)),
                want,
                "{} right {}",
                name,
                j
            );
        }
    }
    Ok(())
}

/// A small graph over up to 11×11 nodes (either side may be empty; nodes
/// without edges stay isolated) with every weight from [`WEIGHTS`].
fn arb_small_graph() -> impl Strategy<Value = SimilarityGraph> {
    (0u32..12, 0u32..12).prop_flat_map(|(nl, nr)| {
        let max = (nl * nr).min(60) as usize;
        proptest::collection::btree_map(
            (0..nl.max(1), 0..nr.max(1)),
            0usize..WEIGHTS.len(),
            0..=max,
        )
        .prop_map(move |edges| {
            let mut b = GraphBuilder::new(nl, nr);
            for ((l, r), w) in edges {
                b.add_edge(l, r, WEIGHTS[w]).unwrap();
            }
            b.build()
        })
    })
}

/// `m` distinct pairs over `400 × 700` ids, visited in a scattered order,
/// inside a `420 × 710` graph, so the last ids of each side are isolated.
/// One edge in eight takes a weight off a 1000-step grid; the rest come
/// from [`WEIGHTS`].
fn large_graph(m: usize) -> SimilarityGraph {
    let (nl, nr) = (400u64, 700u64);
    let pairs = nl * nr;
    assert!((m as u64) <= pairs);
    let stride = 104_729; // prime, so coprime with `pairs`
    let mut b = GraphBuilder::with_capacity(420, 710, m);
    for i in 0..m as u64 {
        let p = (i * stride) % pairs;
        let h = p.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        let w = if h % 8 == 0 {
            (h % 1000) as f64 / 1000.0
        } else {
            WEIGHTS[(h % 5) as usize]
        };
        b.add_edge((p / nr) as u32, (p % nr) as u32, w).unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn small_views_equal_the_oracles(g in arb_small_graph(), seed in 0u64..1_000_000) {
        check_views(&g, seed)?;
    }
}

#[test]
fn empty_graphs_have_empty_views() {
    for (nl, nr) in [(0, 0), (0, 3), (3, 0), (4, 5)] {
        let g = GraphBuilder::new(nl, nr).build();
        check_views(&g, 1).unwrap();
        let adj = g.adjacency();
        assert_eq!(adj.n_entries(), 0);
        assert!((0..nl).all(|i| adj.left(i).is_empty()));
        assert!((0..nr).all(|j| adj.right(j).is_empty()));
    }
}

#[test]
fn views_equal_the_oracles_on_a_large_graph() {
    let m = 200_003;
    let g = large_graph(m);
    assert_eq!(g.n_edges(), m);
    check_views(&g, m as u64).unwrap();
}
