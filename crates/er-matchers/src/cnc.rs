//! Connected Components clustering (CNC) — Algorithm 2 of the paper.
//!
//! The simplest bipartite matcher: discard all edges with weight **below**
//! the threshold, compute the transitive closure of what remains, and keep
//! only the components that consist of exactly two entities, one from each
//! collection. Larger components are dropped entirely (the paper's Figure 1
//! example: the 4-node component `{A1, B1, A5, B3}` produces no output).
//!
//! Complexity: `O(m · α(n))` with union-find ≈ `O(m)`.
//!
//! The retained set only grows as the threshold falls, so components only
//! merge: `CncFold` folds edges into one union-find and keeps the edges
//! that still form a two-node component. A one-shot run folds the whole
//! inclusive prefix from empty; [`crate::delta::CncDelta`] continues the
//! same fold down a descending threshold grid.

use er_core::{Matching, UnionFind};

use crate::matcher::{EdgeSeq, EdgeView, Matcher};

/// Connected Components clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cnc;

impl Matcher for Cnc {
    fn name(&self) -> &'static str {
        "CNC"
    }

    fn run_view(&self, view: &EdgeView<'_, '_>) -> Matching {
        // Algorithm 2 removes edges with sim < t, so the inclusive prefix
        // is the retained edge set.
        let mut fold = CncFold::new(view.n_left(), view.n_right());
        fold.admit(view.edges_inclusive());
        fold.matching()
    }
}

/// Algorithm 2 as a fold over a growing prefix of the weight-descending
/// edge order: one union-find over all `n_left + n_right` nodes (right
/// node `j` is id `n_left + j`) and the edges that form a two-node
/// component.
///
/// A two-node component of a simple bipartite graph is exactly one edge,
/// and that edge's `union` joined two singletons. So the fold records
/// each edge whose `union` joins two singletons, and drops a recorded
/// edge once its component grows. Union-find components do not depend on
/// merge order, so folding a prefix in steps gives the pairs of folding
/// it at once.
pub(crate) struct CncFold {
    n_left: u32,
    uf: UnionFind,
    /// Edges of the prefix folded so far.
    admitted: usize,
    /// `(left, right)` of every edge that is its own component.
    pairs: Vec<(u32, u32)>,
}

impl CncFold {
    /// A fold over an `n_left × n_right` graph with no edge admitted.
    pub(crate) fn new(n_left: u32, n_right: u32) -> Self {
        CncFold {
            n_left,
            uf: UnionFind::new(n_left as usize + n_right as usize),
            admitted: 0,
            pairs: Vec::new(),
        }
    }

    /// Fold the edges of `prefix` past those already admitted; `prefix`
    /// must extend every prefix admitted before. Returns whether any
    /// edge was admitted.
    pub(crate) fn admit(&mut self, prefix: EdgeSeq<'_>) -> bool {
        let tail = prefix.tail(self.admitted);
        if tail.is_empty() {
            return false;
        }
        for e in tail {
            let (l, r) = (e.left, self.n_left + e.right);
            let singletons = self.uf.set_size(l) == 1 && self.uf.set_size(r) == 1;
            self.uf.union(l, r);
            if singletons {
                self.pairs.push((e.left, e.right));
            }
        }
        self.admitted += tail.len();
        let uf = &mut self.uf;
        self.pairs.retain(|&(l, _)| uf.set_size(l) == 2);
        true
    }

    /// The pairs that are their own component.
    pub(crate) fn matching(&self) -> Matching {
        Matching::new(self.pairs.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::PreparedGraph;
    use crate::testkit::{diamond, figure1};

    #[test]
    fn figure1_example() {
        // Paper, Figure 1(b): with t = 0.5 CNC discards the 4-node component
        // (A1, B1, A5, B3) and keeps (A2, B2) and (A3, B4).
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Cnc.run(&pg, 0.5);
        assert_eq!(m.pairs(), &[(1, 1), (2, 3)]);
    }

    #[test]
    fn high_threshold_isolates_pairs() {
        // At t = 0.9 only A5-B1 survives, as its own 2-node component.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Cnc.run(&pg, 0.9);
        assert_eq!(m.pairs(), &[(4, 0)]);
    }

    #[test]
    fn threshold_is_inclusive() {
        // Algorithm 2 removes edges with sim < t, so w == t is retained.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Cnc.run(&pg, 0.7);
        assert!(m.contains(1, 1), "A2-B2 at exactly 0.7 must be kept");
    }

    #[test]
    fn chains_are_dropped() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        // At t = 0.2 everything is connected except (2,2): the 4-node
        // component {0,1}×{0,1} is dropped, only (2,2) remains.
        let m = Cnc.run(&pg, 0.2);
        assert_eq!(m.pairs(), &[(2, 2)]);
    }

    #[test]
    fn empty_when_nothing_survives() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Cnc.run(&pg, 0.95);
        assert!(m.is_empty());
    }

    #[test]
    fn unique_mapping_holds() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        for t in [0.0, 0.3, 0.5, 0.8, 1.0] {
            assert!(Cnc.run(&pg, t).is_unique_mapping());
        }
    }
}
