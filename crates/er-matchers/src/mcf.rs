//! Exact maximum-weight bipartite matching via min-cost flow on the
//! *sparse* edge set (successive shortest augmenting paths).
//!
//! The paper excludes this algorithm family — Schwartz et al.'s reduction
//! of 1-1 bipartite matching to a minimum cost flow problem solved with
//! Fredman–Tarjan shortest paths, `O(n² log n)` — by selection criterion
//! (3), exactly as it excludes the Hungarian algorithm. We implement it as
//! the workspace's one exact oracle: unlike a dense Hungarian solver
//! (`O(s²·l)` time, `O(s·l)` memory), it runs in `O(k·m·log n)` time and
//! `O(n + m)` memory where `k` is the size of the optimal matching, so on
//! the sparse graphs of this study it certifies optima far beyond the sizes
//! a dense solver can touch. The er-matchers test suite keeps a dense
//! Hungarian solver as its independent reference.
//!
//! Algorithm: Johnson-style reduced costs over the residual graph. Each
//! phase runs one Dijkstra from all currently-unmatched `V1` nodes, picks
//! the augmenting path with the most negative true cost (cost = −weight),
//! augments, and updates node potentials. Phases stop as soon as the best
//! augmenting path no longer increases the total weight, which yields the
//! maximum-*weight* (not maximum-cardinality) matching — the objective BAH
//! and RCA approximate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use er_core::{Matching, OrderedF64, SimilarityGraph};

/// Tolerance below which an augmenting path's gain is treated as zero.
///
/// Guards against re-augmenting along numerically-neutral cycles when many
/// edges share the same weight.
const GAIN_EPS: f64 = 1e-12;

/// Compute an exact maximum-weight matching among edges with `weight > t`.
///
/// Returns the matching with the greatest total edge weight; ties between
/// equally-heavy matchings are broken deterministically by the Dijkstra
/// visit order (ascending node id). The result always satisfies the
/// unique-mapping constraint and only pairs nodes joined by a retained edge.
///
/// Complexity: `O(k · m log n)` time and `O(n + m)` memory, with `k` the
/// number of matched pairs in the optimum.
pub fn mcf_matching(g: &SimilarityGraph, t: f64) -> Matching {
    let n_left = g.n_left() as usize;
    let n_right = g.n_right() as usize;
    if n_left == 0 || n_right == 0 {
        return Matching::empty();
    }

    // Per-left adjacency over retained edges only (weight > t).
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_left];
    let mut max_in: Vec<f64> = vec![0.0; n_right];
    let mut m_edges = 0usize;
    for e in g.edges().iter().filter(|e| e.weight > t) {
        adj[e.left as usize].push((e.right, e.weight));
        let mi = &mut max_in[e.right as usize];
        if e.weight > *mi {
            *mi = e.weight;
        }
        m_edges += 1;
    }
    if m_edges == 0 {
        return Matching::empty();
    }

    let mut flow = Flow::new(n_left, n_right, &max_in);
    while flow.augment_once(&adj) {}
    flow.into_matching()
}

/// Node index space used by the Dijkstra: `0..n_left` are `V1` nodes,
/// `n_left..n_left+n_right` are `V2` nodes, and the last index is the
/// super sink every unmatched `V2` node connects to with cost 0.
struct Flow {
    n_left: usize,
    n_right: usize,
    /// `match_l[l] = r` or `u32::MAX` when `l` is unmatched.
    match_l: Vec<u32>,
    /// `match_r[r] = l` or `u32::MAX` when `r` is unmatched.
    match_r: Vec<u32>,
    /// Weight of the matched edge incident to each `V2` node (backward
    /// residual cost), meaningful only where `match_r` is set.
    match_w: Vec<f64>,
    /// Johnson potentials for `V1 ∪ V2 ∪ {sink}`.
    pot: Vec<f64>,
    /// Scratch: reduced shortest-path distances.
    dist: Vec<f64>,
    /// Scratch: predecessor in the shortest-path tree (node index).
    prev: Vec<u32>,
}

const UNMATCHED: u32 = u32::MAX;

impl Flow {
    fn new(n_left: usize, n_right: usize, max_in: &[f64]) -> Self {
        let n = n_left + n_right + 1;
        // Initial potentials make every residual edge's reduced cost
        // non-negative: forward `-w + pot[l] - pot[r] = max_in[r] - w ≥ 0`
        // (no backward edges exist yet) and sink `0 + pot[r] - pot[sink] =
        // pot[sink].abs() - max_in[r] ≥ 0` with `pot[sink] = -max(max_in)`.
        let mut pot = vec![0.0; n];
        let mut wmax = 0.0f64;
        for (r, &w) in max_in.iter().enumerate() {
            pot[n_left + r] = -w;
            wmax = wmax.max(w);
        }
        pot[n - 1] = -wmax;
        Flow {
            n_left,
            n_right,
            match_l: vec![UNMATCHED; n_left],
            match_r: vec![UNMATCHED; n_right],
            match_w: vec![0.0; n_right],
            pot,
            dist: vec![f64::INFINITY; n],
            prev: vec![UNMATCHED; n],
        }
    }

    #[inline]
    fn sink(&self) -> usize {
        self.n_left + self.n_right
    }

    /// Run one Dijkstra phase from all unmatched `V1` nodes toward the
    /// super sink, stopping the moment the sink is finalized; augment if
    /// the path gains weight. Returns `false` when the matching is optimal.
    fn augment_once(&mut self, adj: &[Vec<(u32, f64)>]) -> bool {
        self.dist.fill(f64::INFINITY);
        self.prev.fill(UNMATCHED);
        let sink = self.sink();

        let mut heap: BinaryHeap<Reverse<(OrderedF64, u32)>> = BinaryHeap::new();
        for (l, neighbors) in adj.iter().enumerate().take(self.n_left) {
            if self.match_l[l] == UNMATCHED && !neighbors.is_empty() {
                // Unmatched V1 nodes keep potential 0 throughout (they are
                // only ever Dijkstra sources), so the implicit source edge
                // has reduced cost 0.
                debug_assert_eq!(self.pot[l], 0.0);
                self.dist[l] = 0.0;
                heap.push(Reverse((OrderedF64(0.0), l as u32)));
            }
        }

        while let Some(Reverse((OrderedF64(d), v))) = heap.pop() {
            let v = v as usize;
            if d > self.dist[v] {
                continue; // stale heap entry
            }
            if v == sink {
                break; // the sink is finalized — the shortest path is known
            }
            if v < self.n_left {
                // Forward residual edges l → r for unmatched pairs.
                let matched_to = self.match_l[v];
                for &(r, w) in &adj[v] {
                    if r == matched_to {
                        continue;
                    }
                    let rn = self.n_left + r as usize;
                    let reduced = -w + self.pot[v] - self.pot[rn];
                    debug_assert!(reduced >= -1e-9, "negative reduced cost {reduced}");
                    let nd = d + reduced.max(0.0);
                    if nd < self.dist[rn] {
                        self.dist[rn] = nd;
                        self.prev[rn] = v as u32;
                        heap.push(Reverse((OrderedF64(nd), rn as u32)));
                    }
                }
            } else {
                let r = v - self.n_left;
                match self.match_r[r] {
                    // Backward residual edge r → matched left partner.
                    l if l != UNMATCHED => {
                        let ln = l as usize;
                        let reduced = self.match_w[r] + self.pot[v] - self.pot[ln];
                        debug_assert!(reduced >= -1e-9, "negative reduced cost {reduced}");
                        let nd = d + reduced.max(0.0);
                        if nd < self.dist[ln] {
                            self.dist[ln] = nd;
                            self.prev[ln] = v as u32;
                            heap.push(Reverse((OrderedF64(nd), ln as u32)));
                        }
                    }
                    // Unmatched V2 node: zero-cost edge to the sink.
                    _ => {
                        let reduced = self.pot[v] - self.pot[sink];
                        debug_assert!(reduced >= -1e-9, "negative reduced cost {reduced}");
                        let nd = d + reduced.max(0.0);
                        if nd < self.dist[sink] {
                            self.dist[sink] = nd;
                            self.prev[sink] = v as u32;
                            heap.push(Reverse((OrderedF64(nd), sink as u32)));
                        }
                    }
                }
            }
        }

        let d_end = self.dist[sink];
        if d_end.is_infinite() {
            return false; // no augmenting path at all
        }
        // True path cost = reduced distance + pot[sink] − pot[source], with
        // source potentials pinned at 0.
        let true_cost = d_end + self.pot[sink];
        if true_cost >= -GAIN_EPS {
            return false; // augmenting further would not gain weight
        }

        // Standard capped potential update keeps all residual reduced costs
        // non-negative for the next phase: `pot[v] += min(dist[v], D)`,
        // with unreached nodes (`dist = ∞`) shifted by the full cap `D`
        // (early exit leaves them unfinalized, but every such node's true
        // distance is ≥ D, so the cap is exact for them too).
        for v in 0..self.pot.len() {
            self.pot[v] += self.dist[v].min(d_end);
        }

        // Flip matched/unmatched edges along the path (walk right-to-left
        // from the right node that reached the sink).
        let mut rn = self.prev[sink] as usize;
        loop {
            let l = self.prev[rn] as usize;
            let r = rn - self.n_left;
            let prev_rn = if self.match_l[l] == UNMATCHED {
                None
            } else {
                Some(self.n_left + self.match_l[l] as usize)
            };
            self.match_l[l] = r as u32;
            self.match_r[r] = l as u32;
            self.match_w[r] = edge_weight(&adj[l], r as u32);
            match prev_rn {
                None => break,
                Some(p) => rn = p,
            }
        }
        true
    }

    fn into_matching(self) -> Matching {
        let pairs: Vec<(u32, u32)> = self
            .match_l
            .iter()
            .enumerate()
            .filter(|(_, &r)| r != UNMATCHED)
            .map(|(l, &r)| (l as u32, r))
            .collect();
        Matching::new(pairs)
    }
}

/// Weight of the (known-present) edge `(l, r)` in `l`'s adjacency list.
fn edge_weight(adj_l: &[(u32, f64)], r: u32) -> f64 {
    adj_l
        .iter()
        .find(|&&(rr, _)| rr == r)
        .map(|&(_, w)| w)
        .expect("augmenting path uses a graph edge")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::figure1;
    use er_core::GraphBuilder;

    #[test]
    fn figure1_optimum_prefers_two_mediums_over_one_heavy() {
        let g = figure1();
        let m = mcf_matching(&g, 0.5);
        assert!(m.contains(0, 0), "A1-B1 in the optimum");
        assert!(m.contains(4, 2), "A5-B3 in the optimum");
        assert!(m.contains(1, 1));
        assert!(m.contains(2, 3));
        assert!((m.total_weight(&g) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let g = GraphBuilder::new(0, 5).build();
        assert!(mcf_matching(&g, 0.0).is_empty());
        let g = GraphBuilder::new(5, 0).build();
        assert!(mcf_matching(&g, 0.0).is_empty());
        let g = GraphBuilder::new(3, 3).build();
        assert!(mcf_matching(&g, 0.0).is_empty());
    }

    #[test]
    fn threshold_excludes_edges_at_or_below_t() {
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.5).unwrap();
        b.add_edge(1, 1, 0.8).unwrap();
        let g = b.build();
        let m = mcf_matching(&g, 0.5);
        assert_eq!(m.pairs(), &[(1, 1)]);
    }

    #[test]
    fn stops_at_weight_optimum_not_cardinality() {
        // A perfect matching exists (both pairs), but matching only the
        // heavy cross edge is weight-optimal when the others are tiny…
        // except weights are > t = 0, so every positive edge helps. Use a
        // structure where augmenting to cardinality 2 *loses* weight:
        // l0-r0 = 0.9, l0-r1 = 0.2, l1-r0 = 0.2 and no l1-r1 edge.
        // Cardinality-2 matching {l0-r1, l1-r0} totals 0.4 < 0.9.
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(0, 1, 0.2).unwrap();
        b.add_edge(1, 0, 0.2).unwrap();
        let g = b.build();
        let m = mcf_matching(&g, 0.0);
        assert_eq!(m.pairs(), &[(0, 0)]);
        assert!((m.total_weight(&g) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn augments_to_cardinality_when_it_gains() {
        // Same shape but the side edges now outweigh the heavy one.
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(1, 0, 0.6).unwrap();
        let g = b.build();
        let m = mcf_matching(&g, 0.0);
        assert_eq!(m.pairs(), &[(0, 1), (1, 0)]);
        assert!((m.total_weight(&g) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn scales_past_the_dense_oracle_shape() {
        // A long chain l_i — r_i (0.6) plus l_i — r_{i+1} (0.5): the
        // optimum takes every straight edge.
        let n = 500u32;
        let mut b = GraphBuilder::new(n, n);
        for i in 0..n {
            b.add_edge(i, i, 0.6).unwrap();
            if i + 1 < n {
                b.add_edge(i, i + 1, 0.5).unwrap();
            }
        }
        let g = b.build();
        let m = mcf_matching(&g, 0.0);
        assert_eq!(m.len(), n as usize);
        assert!((m.total_weight(&g) - 0.6 * n as f64).abs() < 1e-6);
    }
}
