//! Unique Mapping Clustering (UMC) — Algorithm 8 of the paper.
//!
//! Prune edges with weight ≤ `t`, sort the rest by descending
//! weight/similarity, and greedily form a pair for the top-weighted edge as
//! long as neither of its entities is already matched. This is the classic
//! greedy ½-approximation to maximum-weight bipartite matching, driven by
//! CCER's unique-mapping constraint. Equivalent to FAMER's CLIP clustering
//! in the two-source case.
//!
//! Complexity: `O(m log m)` for the sort — paid **once** by
//! [`PreparedGraph`], whose sorted view already hands the retained edges to
//! UMC in exactly the greedy consumption order; a run is then `O(m')` over
//! the retained prefix. The greedy scan is also resumable across descending
//! thresholds and repairable across graph deltas (see
//! [`crate::delta::UmcDelta`]).

use er_core::Matching;

use crate::matcher::{EdgeView, Matcher, PreparedGraph};

/// Unique Mapping Clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Umc;

impl Matcher for Umc {
    fn name(&self) -> &'static str {
        "UMC"
    }

    fn run_view(&self, view: &EdgeView<'_, '_>) -> Matching {
        // The sorted view's prefix is already in edge_key_desc order —
        // exactly the greedy consumption order; no per-run filter or sort
        // remains.
        greedy(
            view.prepared(),
            view.edges().iter().map(|e| (e.weight, e.left, e.right)),
        )
    }
}

fn greedy(g: &PreparedGraph<'_>, edges: impl Iterator<Item = (f64, u32, u32)>) -> Matching {
    let mut matched_left = vec![false; g.n_left() as usize];
    let mut matched_right = vec![false; g.n_right() as usize];
    let mut pairs = Vec::new();
    for (_, l, r) in edges {
        if !matched_left[l as usize] && !matched_right[r as usize] {
            matched_left[l as usize] = true;
            matched_right[r as usize] = true;
            pairs.push((l, r));
        }
    }
    Matching::new(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{diamond, figure1};

    #[test]
    fn figure1_example() {
        // Paper, Figure 1(d): UMC matches A5-B1 (0.9), A2-B2 (0.7) and
        // A3-B4 (0.6); A1 and B3 stay singletons because their candidates
        // were already matched.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Umc.run(&pg, 0.5);
        assert_eq!(m.pairs(), &[(1, 1), (2, 3), (4, 0)]);
    }

    #[test]
    fn threshold_is_strict() {
        // Algorithm 8 keeps edges with sim > t: an edge at exactly t drops.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Umc.run(&pg, 0.6);
        assert_eq!(m.pairs(), &[(1, 1), (4, 0)]);
    }

    #[test]
    fn greedy_takes_heaviest_first() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        // 0-0 (0.9) first, blocking 0-1 and 1-0; then 2-2 (0.5); 1-1 (0.2).
        let m = Umc.run(&pg, 0.1);
        assert_eq!(m.pairs(), &[(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn deterministic_tie_break() {
        use er_core::GraphBuilder;
        // Two equal-weight edges competing for the same right node: the
        // lower left id wins.
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(1, 0, 0.8).unwrap();
        b.add_edge(0, 0, 0.8).unwrap();
        let g = b.build();
        let pg = PreparedGraph::new(&g);
        let m = Umc.run(&pg, 0.0);
        assert_eq!(m.pairs(), &[(0, 0)]);
    }

    #[test]
    fn empty_graph_gives_empty_matching() {
        use er_core::GraphBuilder;
        let g = GraphBuilder::new(3, 3).build();
        let pg = PreparedGraph::new(&g);
        assert!(Umc.run(&pg, 0.5).is_empty());
    }
}
