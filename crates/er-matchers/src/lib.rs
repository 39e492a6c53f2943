#![warn(missing_docs)]

//! # er-matchers — bipartite graph matching algorithms for Clean-Clean ER
//!
//! The eight algorithms evaluated by Papadakis et al. (EDBT 2022):
//!
//! | Name | Module | Time complexity | Idea |
//! |------|--------|-----------------|------|
//! | CNC — Connected Components | [`cnc`] | `O(m)` | transitive closure, keep 2-node cross components |
//! | RSR — Ricochet Sequential Rippling | [`rsr`] | `O(n·m)` | seed-based rippling re-assignment |
//! | RCA — Row-Column Assignment | [`rca`] | `O(|V1|·|V2|)` | two row/column scans of the assignment problem |
//! | BAH — Best Assignment Heuristic | [`bah`] | budgeted | swap-based random search for max-weight matching |
//! | BMC — Best Match Clustering | [`bmc`] | `O(m)` | greedy best unmatched counterpart per basis node |
//! | EXC — Exact Clustering | [`exc`] | `O(n·m)` | mutual best matches only |
//! | KRC — Király's Clustering | [`krc`] | `O(n + m log m)` | 3/2-approx stable marriage ("New Algorithm") |
//! | UMC — Unique Mapping Clustering | [`umc`] | `O(m log m)` | globally greedy by descending weight |
//!
//! Plus one **exact oracle** the paper excludes from the study by its
//! complexity criterion: the sparse min-cost-flow solver in [`mcf`] (the
//! Schwartz et al. family). It bounds what the heuristics (BAH, RCA, UMC)
//! can achieve; the tests cross-check it against a dense Hungarian solver
//! and brute force.
//!
//! All algorithms consume a [`PreparedGraph`] (graph + CSR adjacency built
//! once) and a similarity threshold, and produce a
//! [`Matching`](er_core::Matching) honouring the unique-mapping constraint
//! of CCER. Everything except BAH is deterministic; BAH is deterministic
//! for a fixed seed.

pub mod bah;
pub mod bmc;
pub mod cnc;
pub mod delta;
pub mod exc;
pub mod krc;
pub mod matcher;
pub mod mcf;
pub mod rca;
pub mod registry;
pub mod rsr;
pub mod umc;

pub use bah::{Bah, BahConfig, BahMap};
pub use bmc::{Basis, Bmc};
pub use cnc::Cnc;
pub use delta::{BahDelta, DeltaMatcher, ReplayDelta, UmcDelta};
pub use exc::Exc;
pub use krc::Krc;
pub use matcher::{EdgeSeq, EdgeSeqIter, EdgeView, Matcher, PreparedGraph};
pub use mcf::mcf_matching;
pub use rca::Rca;
pub use registry::{AlgorithmConfig, AlgorithmKind};
pub use rsr::Rsr;
pub use umc::Umc;

#[cfg(test)]
pub(crate) mod testkit {
    use er_core::{GraphBuilder, SimilarityGraph};

    /// The similarity graph of the paper's Figure 1(a).
    ///
    /// Left collection `A = {A1..A5}` (ids 0..5), right `B = {B1..B4}`
    /// (ids 0..4). Edges: A1–B1 0.6, A5–B1 0.9, A5–B3 0.6, A2–B2 0.7,
    /// A3–B4 0.6, A4–B3 0.3.
    pub fn figure1() -> SimilarityGraph {
        let mut b = GraphBuilder::new(5, 4);
        b.add_edge(0, 0, 0.6).unwrap(); // A1-B1
        b.add_edge(4, 0, 0.9).unwrap(); // A5-B1
        b.add_edge(4, 2, 0.6).unwrap(); // A5-B3
        b.add_edge(1, 1, 0.7).unwrap(); // A2-B2
        b.add_edge(2, 3, 0.6).unwrap(); // A3-B4
        b.add_edge(3, 2, 0.3).unwrap(); // A4-B3
        b.build()
    }

    /// A small hand-checkable graph used across unit tests.
    pub fn diamond() -> SimilarityGraph {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(0, 1, 0.8).unwrap();
        b.add_edge(1, 0, 0.8).unwrap();
        b.add_edge(1, 1, 0.2).unwrap();
        b.add_edge(2, 2, 0.5).unwrap();
        b.build()
    }
}
