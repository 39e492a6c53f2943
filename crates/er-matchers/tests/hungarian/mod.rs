//! Exact maximum-weight bipartite matching (Kuhn–Munkres / Hungarian),
//! kept as a test reference for the production min-cost-flow oracle.
//!
//! The paper *excludes* the Hungarian algorithm from its study because its
//! `O(n³)` complexity violates selection criterion (3). It is nevertheless
//! invaluable here as an independent **test oracle**: it bounds every
//! heuristic's total weight from above and cross-checks `mcf_matching`,
//! which solves the same problem by a different method.
//!
//! Implementation: the classic potentials formulation of the assignment
//! problem (row-by-row Dijkstra-style augmentation) on a dense matrix,
//! minimizing negated weights. Edges at or below the threshold contribute
//! nothing and are dropped from the final matching, which is exactly the
//! reduction from max-weight matching to the assignment problem (any
//! matching extends to a full assignment via zero-weight fills).

use er_core::{Edge, Matching, SimilarityGraph};

/// Compute an exact maximum-weight matching among edges with `weight > t`.
///
/// Complexity `O(s² · l)` where `s = min(|V1|,|V2|)`, `l = max(|V1|,|V2|)`;
/// memory `O(s · l)`. Intended for small test graphs.
pub fn hungarian_matching(g: &SimilarityGraph, t: f64) -> Matching {
    let retained: Vec<Edge> = g.edges().iter().copied().filter(|e| e.weight > t).collect();
    hungarian_on_edges(g.n_left(), g.n_right(), &retained)
}

/// Exact maximum-weight matching over an explicit retained edge list.
///
/// Every edge in `edges` is eligible for the matching, including edges of
/// weight exactly 0.0 (a negated-cost sentinel would silently drop them, so
/// retained cells are tracked explicitly instead). Should `edges` contain
/// duplicate `(left, right)` entries — impossible through [`er_core::GraphBuilder`],
/// but possible for deserialized or hand-assembled inputs — the **maximum**
/// weight wins, rather than whichever entry happened to be written last.
pub fn hungarian_on_edges(n_left: u32, n_right: u32, edges: &[Edge]) -> Matching {
    let flip = n_left > n_right;
    let (rows, cols) = if flip {
        (n_right as usize, n_left as usize)
    } else {
        (n_left as usize, n_right as usize)
    };
    if rows == 0 || cols == 0 {
        return Matching::empty();
    }

    // Dense cost matrix: cost = -weight for retained edges, 0 otherwise —
    // with the retained cells tracked explicitly so zero-weight edges and
    // zero-cost fills stay distinguishable.
    let mut cost = vec![0.0f64; rows * cols];
    let mut retained = vec![false; rows * cols];
    for e in edges {
        let (r, c) = if flip {
            (e.right as usize, e.left as usize)
        } else {
            (e.left as usize, e.right as usize)
        };
        let idx = r * cols + c;
        // Keep the best (most negative) cost on duplicates.
        if !retained[idx] || -e.weight < cost[idx] {
            cost[idx] = -e.weight;
        }
        retained[idx] = true;
    }

    let assignment = solve_assignment(&cost, rows, cols);

    let mut pairs = Vec::new();
    for (r, c) in assignment.into_iter().enumerate() {
        let Some(c) = c else { continue };
        if retained[r * cols + c] {
            // Backed by a real edge above the threshold.
            let pair = if flip {
                (c as u32, r as u32)
            } else {
                (r as u32, c as u32)
            };
            pairs.push(pair);
        }
    }
    Matching::new(pairs)
}

/// Total weight of the exact maximum-weight matching above `t`.
pub fn max_weight_matching_value(g: &SimilarityGraph, t: f64) -> f64 {
    hungarian_matching(g, t).total_weight(g)
}

/// Solve the rectangular assignment problem (rows ≤ cols) minimizing total
/// cost; returns per-row column assignments.
///
/// This is the standard `O(rows² · cols)` potentials algorithm (e-maxx
/// formulation) with 1-based internal indexing.
fn solve_assignment(cost: &[f64], rows: usize, cols: usize) -> Vec<Option<usize>> {
    assert!(rows <= cols, "assignment requires rows <= cols");
    let inf = f64::INFINITY;
    let a = |i: usize, j: usize| cost[(i - 1) * cols + (j - 1)];

    let mut u = vec![0.0f64; rows + 1];
    let mut v = vec![0.0f64; cols + 1];
    let mut p = vec![0usize; cols + 1]; // row matched to column j (0 = none)
    let mut way = vec![0usize; cols + 1];

    for i in 1..=rows {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; cols + 1];
        let mut used = vec![false; cols + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=cols {
                if !used[j] {
                    let cur = a(i0, j) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=cols {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut ans = vec![None; rows];
    for j in 1..=cols {
        if p[j] != 0 {
            ans[p[j] - 1] = Some(j - 1);
        }
    }
    ans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;
    use er_core::GraphBuilder;

    /// The similarity graph of the paper's Figure 1(a): A1–B1 0.6,
    /// A5–B1 0.9, A5–B3 0.6, A2–B2 0.7, A3–B4 0.6, A4–B3 0.3.
    fn figure1() -> SimilarityGraph {
        let mut b = GraphBuilder::new(5, 4);
        b.add_edge(0, 0, 0.6).unwrap();
        b.add_edge(4, 0, 0.9).unwrap();
        b.add_edge(4, 2, 0.6).unwrap();
        b.add_edge(1, 1, 0.7).unwrap();
        b.add_edge(2, 3, 0.6).unwrap();
        b.add_edge(3, 2, 0.3).unwrap();
        b.build()
    }

    /// A small hand-checkable graph where greedy and optimal differ.
    fn diamond() -> SimilarityGraph {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(0, 1, 0.8).unwrap();
        b.add_edge(1, 0, 0.8).unwrap();
        b.add_edge(1, 1, 0.2).unwrap();
        b.add_edge(2, 2, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn figure1_optimum_is_assignment_not_greedy() {
        // Figure 1(c): optimal total weight at t=0.5 is
        // 0.6 (A1-B1) + 0.7 (A2-B2) + 0.6 (A3-B4) + 0.6 (A5-B3) = 2.5.
        let g = figure1();
        let m = hungarian_matching(&g, 0.5);
        assert!((m.total_weight(&g) - 2.5).abs() < 1e-9);
        assert!(m.contains(0, 0));
        assert!(m.contains(4, 2));
    }

    #[test]
    fn diamond_optimum() {
        // Best: 0-1 (0.8) + 1-0 (0.8) + 2-2 (0.5) = 2.1, beating the greedy
        // 0-0 (0.9) + 1-1 (0.2) + 2-2 (0.5) = 1.6.
        let g = diamond();
        let m = hungarian_matching(&g, 0.0);
        assert!((m.total_weight(&g) - 2.1).abs() < 1e-9);
    }

    #[test]
    fn exhaustive_check_on_tiny_graphs() {
        // Brute-force all matchings of a 3x3 graph and compare optima.
        let mut b = GraphBuilder::new(3, 3);
        let ws = [
            (0, 0, 0.31),
            (0, 1, 0.95),
            (1, 0, 0.85),
            (1, 2, 0.40),
            (2, 1, 0.70),
            (2, 2, 0.20),
        ];
        for (l, r, w) in ws {
            b.add_edge(l, r, w).unwrap();
        }
        let g = b.build();
        let brute = brute_force(&g, 0.0);
        let hung = max_weight_matching_value(&g, 0.0);
        assert!((brute - hung).abs() < 1e-9, "brute {brute} vs hung {hung}");
    }

    #[test]
    fn respects_threshold() {
        let g = diamond();
        let m = hungarian_matching(&g, 0.6);
        // Only 0-0 (0.9) and 0-1/1-0 (0.8) exceed 0.6; the optimum takes the
        // two 0.8 edges.
        assert!((m.total_weight(&g) - 1.6).abs() < 1e-9);
        for (l, r) in m.iter() {
            assert!(g.weight_of(l, r).unwrap() > 0.6);
        }
    }

    #[test]
    fn rectangular_graphs_both_orientations() {
        let mut b = GraphBuilder::new(2, 4);
        b.add_edge(0, 3, 0.9).unwrap();
        b.add_edge(1, 3, 0.8).unwrap();
        b.add_edge(1, 0, 0.5).unwrap();
        let g = b.build();
        let m = hungarian_matching(&g, 0.0);
        assert!((m.total_weight(&g) - 1.4).abs() < 1e-9);

        let mut b = GraphBuilder::new(4, 2);
        b.add_edge(3, 0, 0.9).unwrap();
        b.add_edge(3, 1, 0.8).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build();
        let m = hungarian_matching(&g, 0.0);
        assert!((m.total_weight(&g) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate() {
        let g = GraphBuilder::new(0, 5).build();
        assert!(hungarian_matching(&g, 0.0).is_empty());
        let g = GraphBuilder::new(3, 3).build();
        assert!(hungarian_matching(&g, 0.0).is_empty());
    }

    #[test]
    fn zero_weight_edges_survive_degenerate_thresholds() {
        // A legitimate edge of weight exactly 0.0 is retained under a
        // negative threshold. The old negated-cost sentinel (`cost < 0.0`)
        // silently dropped it.
        let mut b = GraphBuilder::new(1, 1);
        b.add_edge(0, 0, 0.0).unwrap();
        let g = b.build();
        assert_eq!(hungarian_matching(&g, -1.0).pairs(), &[(0, 0)]);
        // The same edge filtered the same way the matrix fill sees it.
        let retained: Vec<Edge> = g
            .edges()
            .iter()
            .copied()
            .filter(|e| e.weight > -1.0)
            .collect();
        assert_eq!(retained.len(), 1);
        assert_eq!(
            hungarian_on_edges(1, 1, &retained).pairs(),
            &[(0, 0)],
            "every retained edge must be assignable"
        );
        // At t = 0.0 the edge is strictly filtered out and nothing remains.
        assert!(hungarian_matching(&g, 0.0).is_empty());
    }

    #[test]
    fn zero_weight_edges_in_larger_optimum() {
        // Mixed zero and positive weights under t = -1: the optimum must
        // count the 0.0 edge as a real (retained) pair.
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.0).unwrap();
        b.add_edge(1, 1, 0.9).unwrap();
        let g = b.build();
        let m = hungarian_matching(&g, -0.5);
        assert_eq!(m.pairs(), &[(0, 0), (1, 1)]);
    }

    #[test]
    fn duplicate_edges_keep_the_maximum_weight() {
        // GraphBuilder rejects duplicates, but hand-assembled edge lists
        // (deserialized inputs) may contain them; the dense fill must
        // keep-max rather than last-write-win.
        let edges = vec![
            Edge::new(0, 0, 0.9), // the strong copy first …
            Edge::new(0, 0, 0.1), // … then a weak duplicate overwriting it
            Edge::new(0, 1, 0.3),
            Edge::new(1, 0, 0.3),
        ];
        // Keep-max weighs (0,0) at 0.9, so {(0,0)} (0.9) beats
        // {(0,1), (1,0)} (0.6). Last-write-win would weigh it at 0.1 and
        // pick the two 0.3 edges instead.
        let m = hungarian_on_edges(2, 2, &edges);
        assert_eq!(m.pairs(), &[(0, 0)], "keep-max must make (0,0) optimal");
        // Flipped orientation (rows > cols) exercises the other fill path.
        let edges = vec![
            Edge::new(0, 0, 0.1),
            Edge::new(0, 0, 0.9), // stronger duplicate second: also kept
        ];
        let m = hungarian_on_edges(3, 1, &edges);
        assert_eq!(m.pairs(), &[(0, 0)]);
    }
}
