//! Best Match Clustering (BMC) — Algorithm 5 of the paper.
//!
//! For each entity of the *basis* collection (a configuration parameter:
//! `V1` or `V2`), create a pair with its most similar **not-yet-matched**
//! entity from the other collection, provided the edge weight exceeds `t`.
//! Inspired by the Best Match strategy of Similarity Flooding as simplified
//! in BigMat.
//!
//! Complexity: `O(m)` — each basis node scans its (pre-sorted) adjacency
//! until the first unmatched counterpart.

use er_core::Matching;

use crate::matcher::{EdgeView, Matcher};

/// Which collection drives the partition creation (Table 1: "node partition
/// used as basis"). The paper evaluates both and retains the better; it
/// notes BMC "works best when choosing the smallest entity collection".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Basis {
    /// Iterate the left collection `V1`, claiming right entities.
    #[default]
    Left,
    /// Iterate the right collection `V2`, claiming left entities.
    Right,
}

impl Basis {
    /// Both basis options, for configuration sweeps.
    pub fn both() -> [Basis; 2] {
        [Basis::Left, Basis::Right]
    }
}

/// Best Match Clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bmc {
    /// The collection whose entities create the partitions.
    pub basis: Basis,
}

impl Matcher for Bmc {
    fn name(&self) -> &'static str {
        "BMC"
    }

    fn run_view(&self, view: &EdgeView<'_, '_>) -> Matching {
        let (g, t) = (view.prepared(), view.threshold());
        let adj = view.adjacency();
        let mut pairs = Vec::new();
        match self.basis {
            Basis::Left => {
                let mut matched_right = vec![false; g.n_right() as usize];
                for i in 0..g.n_left() {
                    for n in adj.left(i) {
                        if n.weight <= t {
                            break; // adjacency is sorted descending
                        }
                        if !matched_right[n.node as usize] {
                            matched_right[n.node as usize] = true;
                            pairs.push((i, n.node));
                            break;
                        }
                    }
                }
            }
            Basis::Right => {
                let mut matched_left = vec![false; g.n_left() as usize];
                for j in 0..g.n_right() {
                    for n in adj.right(j) {
                        if n.weight <= t {
                            break;
                        }
                        if !matched_left[n.node as usize] {
                            matched_left[n.node as usize] = true;
                            pairs.push((n.node, j));
                            break;
                        }
                    }
                }
            }
        }
        Matching::new(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::PreparedGraph;
    use crate::testkit::{diamond, figure1};

    #[test]
    fn figure1_right_basis_matches_umc_output() {
        // Paper §3: "BMC also yields the same results assuming that V2
        // (blue) is used as the basis entity collection."
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Bmc {
            basis: Basis::Right,
        }
        .run(&pg, 0.5);
        assert_eq!(m.pairs(), &[(1, 1), (2, 3), (4, 0)]);
    }

    #[test]
    fn figure1_left_basis_differs() {
        // With V1 as basis, A1 (id 0) claims B1 first (its only neighbor),
        // so A5 falls back to B3: pairs (A1,B1), (A2,B2), (A3,B4), (A5,B3).
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Bmc { basis: Basis::Left }.run(&pg, 0.5);
        assert_eq!(m.pairs(), &[(0, 0), (1, 1), (2, 3), (4, 2)]);
    }

    #[test]
    fn basis_nodes_claim_in_id_order() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        // Left basis: node 0 takes 0 (0.9); node 1's best is 0 (taken) then
        // 1 (0.2 > t); node 2 takes 2.
        let m = Bmc { basis: Basis::Left }.run(&pg, 0.1);
        assert_eq!(m.pairs(), &[(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn threshold_is_strict() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Bmc {
            basis: Basis::Right,
        }
        .run(&pg, 0.7);
        // Only A5-B1 (0.9) exceeds 0.7; A2-B2 is exactly 0.7 and drops.
        assert_eq!(m.pairs(), &[(4, 0)]);
    }

    #[test]
    fn unique_mapping_for_both_bases() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        for basis in Basis::both() {
            for t in [0.0, 0.25, 0.5, 0.85] {
                assert!(Bmc { basis }.run(&pg, t).is_unique_mapping());
            }
        }
    }
}
