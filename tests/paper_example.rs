//! The worked example of the paper's Figure 1, across all algorithms.
//!
//! Figure 1(a): left collection A = {A1..A5}, right B = {B1..B4}, edges
//! A1-B1 (0.6), A5-B1 (0.9), A5-B3 (0.6), A2-B2 (0.7), A3-B4 (0.6),
//! A4-B3 (0.3); all algorithms run with threshold 0.5.

use ccer::core::{GraphBuilder, SimilarityGraph};
use ccer::matchers::{
    mcf_matching, AlgorithmConfig, AlgorithmKind, Basis, Bmc, Matcher, PreparedGraph,
};

const A1: u32 = 0;
const A2: u32 = 1;
const A3: u32 = 2;
const A5: u32 = 4;
const B1: u32 = 0;
const B2: u32 = 1;
const B3: u32 = 2;
const B4: u32 = 3;

fn figure1() -> SimilarityGraph {
    let mut b = GraphBuilder::new(5, 4);
    b.add_edge(A1, B1, 0.6).unwrap();
    b.add_edge(A5, B1, 0.9).unwrap();
    b.add_edge(A5, B3, 0.6).unwrap();
    b.add_edge(A2, B2, 0.7).unwrap();
    b.add_edge(A3, B4, 0.6).unwrap();
    b.add_edge(3, B3, 0.3).unwrap(); // A4-B3
    b.build()
}

#[test]
fn figure1b_cnc_keeps_only_isolated_pairs() {
    // "CNC completely discards the 4-node connected component (A1, B1, A5,
    // B3) and considers exclusively the valid partitions (A2, B2) and
    // (A3, B4)."
    let g = figure1();
    let pg = PreparedGraph::new(&g);
    let m = AlgorithmConfig::default().run(AlgorithmKind::Cnc, &pg, 0.5);
    assert_eq!(m.pairs(), &[(A2, B2), (A3, B4)]);
}

#[test]
fn figure1c_optimal_assignment_pairs_a1b1_and_a5b3() {
    // "Algorithms that aim to maximize the total sum of edge weights …
    // will cluster A1 with B1 and A5 with B3 … 0.6 + 0.6 = 1.2, which is
    // higher than 0.9."
    let g = figure1();
    let optimal = mcf_matching(&g, 0.5);
    assert!(optimal.contains(A1, B1));
    assert!(optimal.contains(A5, B3));
    assert!((optimal.total_weight(&g) - 2.5).abs() < 1e-9);

    // BAH finds that optimum on this small instance.
    let pg = PreparedGraph::new(&g);
    let m = AlgorithmConfig::default().run(AlgorithmKind::Bah, &pg, 0.5);
    assert!(
        (m.total_weight(&g) - 2.5).abs() < 1e-9,
        "BAH reaches the optimum"
    );
}

#[test]
fn figure1d_umc_exc_and_right_basis_bmc_agree() {
    // "UMC starts from the top-weighted edges, matching A5 with B1, A2
    // with B2 and A3 with B4 … The same output is produced by EXC … BMC
    // also yields the same results assuming that V2 is the basis."
    let g = figure1();
    let pg = PreparedGraph::new(&g);
    let expected = &[(A2, B2), (A3, B4), (A5, B1)];

    let umc = AlgorithmConfig::default().run(AlgorithmKind::Umc, &pg, 0.5);
    assert_eq!(umc.pairs(), expected, "UMC");

    let exc = AlgorithmConfig::default().run(AlgorithmKind::Exc, &pg, 0.5);
    assert_eq!(exc.pairs(), expected, "EXC");

    let bmc = Bmc {
        basis: Basis::Right,
    }
    .run(&pg, 0.5);
    assert_eq!(bmc.pairs(), expected, "BMC with V2 basis");
}

#[test]
fn all_algorithms_emit_valid_ccer_output_on_figure1() {
    let g = figure1();
    let pg = PreparedGraph::new(&g);
    let cfg = AlgorithmConfig::default();
    for kind in AlgorithmKind::ALL {
        let m = cfg.run(kind, &pg, 0.5);
        assert!(m.is_unique_mapping(), "{kind}");
        for (l, r) in m.iter() {
            let w = g.weight_of(l, r).expect("output pairs are graph edges");
            assert!(w >= 0.5, "{kind} pair ({l},{r}) below threshold");
        }
        // A4-B3 (0.3) can never appear at t = 0.5.
        assert!(!m.contains(3, B3), "{kind} must not match A4-B3");
    }
}
