//! Best Assignment Heuristic (BAH) — Algorithm 4 of the paper.
//!
//! A swap-based random-search heuristic for the Maximum Weight Bipartite
//! Matching problem. Each entity of the smaller collection starts connected
//! to the same-index entity of the larger one; every step picks two random
//! entities of the **larger** collection and swaps their partners if the
//! total contribution does not decrease (`Δ ≥ 0`, allowing plateau moves).
//! The search stops after a maximum number of moves (paper: 10,000) or a
//! wall-clock budget (paper: 2 minutes).
//!
//! BAH is the only stochastic algorithm in the study; with a fixed seed it
//! is fully reproducible. Its run-time is governed by the budgets, not by
//! the graph size — the paper's Figure 4 shows the resulting
//! "step-resembling" scalability curve.

use std::time::{Duration, Instant};

use er_core::{FxHashMap, Matching};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matcher::{EdgeView, Matcher};

/// Budgets and seed for the random search (Table 1's BAH parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BahConfig {
    /// Maximum number of search steps (paper default: 10,000).
    pub max_moves: u64,
    /// Wall-clock budget (paper default: 2 minutes).
    pub time_limit: Duration,
    /// RNG seed; BAH is deterministic for a fixed seed.
    pub seed: u64,
}

impl Default for BahConfig {
    fn default() -> Self {
        BahConfig {
            max_moves: 10_000,
            time_limit: Duration::from_secs(120),
            seed: 0x5eed_cafe,
        }
    }
}

/// Best Assignment Heuristic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bah {
    /// Search budgets and RNG seed.
    pub config: BahConfig,
}

impl Bah {
    /// BAH with a specific seed and the paper's default budgets.
    pub fn with_seed(seed: u64) -> Self {
        Bah {
            config: BahConfig {
                seed,
                ..BahConfig::default()
            },
        }
    }
}

impl Matcher for Bah {
    fn name(&self) -> &'static str {
        "BAH"
    }

    fn run_view(&self, view: &EdgeView<'_, '_>) -> Matching {
        // Pair contribution d(big, small): the edge weight when it exceeds
        // the threshold, else 0 (absent from the map). The strict prefix of
        // the sorted view is exactly the retained edge set.
        let left_drives = left_drives(view.n_left(), view.n_right());
        let mut d: FxHashMap<(u32, u32), f64> = FxHashMap::default();
        d.reserve(view.edges().len());
        for e in view.edges() {
            d.insert(driver_key(e.left, e.right, left_drives), e.weight);
        }
        search(view.n_left(), view.n_right(), &d, self.config)
    }
}

/// Orientation: the "driver" side is the larger collection, as in the
/// pseudocode (|V1| > |V2|); ties keep the left side as driver.
#[inline]
pub(crate) fn left_drives(n_left: u32, n_right: u32) -> bool {
    n_left >= n_right
}

/// The contribution-map key for an edge under the given orientation.
#[inline]
pub(crate) fn driver_key(left: u32, right: u32, left_drives: bool) -> (u32, u32) {
    if left_drives {
        (left, right)
    } else {
        (right, left)
    }
}

/// The swap search proper, over a prebuilt contribution map. Shared by the
/// one-shot [`Matcher`] path and the incremental
/// [`crate::delta::BahDelta`], which maintains `d` across threshold steps
/// and graph deltas.
pub(crate) fn search(
    n_left: u32,
    n_right: u32,
    d: &FxHashMap<(u32, u32), f64>,
    config: BahConfig,
) -> Matching {
    let left_drives = left_drives(n_left, n_right);
    let (n_big, n_small) = if left_drives {
        (n_left as usize, n_right as usize)
    } else {
        (n_right as usize, n_left as usize)
    };
    if n_small == 0 {
        return Matching::empty();
    }

    let contrib = |big: u32, small: Option<u32>| -> f64 {
        small.and_then(|s| d.get(&(big, s))).copied().unwrap_or(0.0)
    };

    // Initial assignment: identity pairing of the first n_small drivers.
    let mut partner: Vec<Option<u32>> = (0..n_big)
        .map(|i| (i < n_small).then_some(i as u32))
        .collect();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = Instant::now();
    if n_big >= 2 {
        for step in 0..config.max_moves {
            // Time check amortized over 256 steps: the budget dominates
            // only on graphs far larger than a single check's cost.
            if step % 256 == 0 && start.elapsed() > config.time_limit {
                break;
            }
            let i = rng.gen_range(0..n_big);
            let j = {
                let mut j = rng.gen_range(0..n_big - 1);
                if j >= i {
                    j += 1;
                }
                j
            };
            let (pi, pj) = (partner[i], partner[j]);
            let mut delta = 0.0;
            if pi.is_some() {
                delta += contrib(j as u32, pi) - contrib(i as u32, pi);
            }
            if pj.is_some() {
                delta += contrib(i as u32, pj) - contrib(j as u32, pj);
            }
            if delta >= 0.0 {
                partner.swap(i, j);
            }
        }
    }

    // Emit the pairs whose contribution is positive, i.e. backed by an
    // actual edge above the threshold.
    let mut pairs = Vec::new();
    for (i, p) in partner.iter().enumerate() {
        if let Some(s) = p {
            if d.contains_key(&(i as u32, *s)) {
                let pair = if left_drives {
                    (i as u32, *s)
                } else {
                    (*s, i as u32)
                };
                pairs.push(pair);
            }
        }
    }
    Matching::new(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::PreparedGraph;
    use crate::mcf::mcf_matching;
    use crate::testkit::{diamond, figure1};
    use er_core::GraphBuilder;

    fn bah() -> Bah {
        Bah::with_seed(7)
    }

    #[test]
    fn finds_the_optimal_assignment_on_figure1() {
        // Paper, Figure 1(c): the optimal assignment pairs A1-B1 and A5-B3
        // (0.6 + 0.6 = 1.2 > 0.9). With 10k moves on a 6-edge graph BAH
        // reliably reaches it.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = bah().run(&pg, 0.5);
        let optimal = mcf_matching(&g, 0.5).total_weight(&g);
        assert!((m.total_weight(&g) - optimal).abs() < 1e-9);
        assert!(m.contains(0, 0), "A1-B1 in optimal solution");
        assert!(m.contains(4, 2), "A5-B3 in optimal solution");
    }

    #[test]
    fn respects_threshold() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        let m = bah().run(&pg, 0.45);
        for (l, r) in m.iter() {
            assert!(g.weight_of(l, r).unwrap() > 0.45);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        let a = Bah::with_seed(99).run(&pg, 0.1);
        let b = Bah::with_seed(99).run(&pg, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_moves_keeps_initial_assignment() {
        let cfg = BahConfig {
            max_moves: 0,
            ..BahConfig::default()
        };
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(1, 0, 0.8).unwrap();
        let g = b.build();
        let pg = PreparedGraph::new(&g);
        // Identity pairing: 0-0 (edge, 0.9) and 1-1 (no edge → dropped).
        let m = Bah { config: cfg }.run(&pg, 0.0);
        assert_eq!(m.pairs(), &[(0, 0)]);
    }

    #[test]
    fn zero_time_limit_stops_immediately() {
        // The wall-clock budget binds before any move is attempted, so the
        // output equals the filtered initial assignment.
        let cfg = BahConfig {
            time_limit: std::time::Duration::ZERO,
            ..BahConfig::default()
        };
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(1, 0, 0.8).unwrap();
        let g = b.build();
        let pg = PreparedGraph::new(&g);
        let m = Bah { config: cfg }.run(&pg, 0.0);
        assert_eq!(m.pairs(), &[(0, 0)]);
    }

    #[test]
    fn handles_wider_right_side() {
        // |V2| > |V1|: the right side drives the swaps.
        let mut b = GraphBuilder::new(2, 5);
        b.add_edge(0, 3, 0.9).unwrap();
        b.add_edge(1, 4, 0.8).unwrap();
        b.add_edge(0, 0, 0.1).unwrap();
        let g = b.build();
        let pg = PreparedGraph::new(&g);
        let m = bah().run(&pg, 0.5);
        assert_eq!(m.pairs(), &[(0, 3), (1, 4)]);
        assert!(m.is_unique_mapping());
    }

    #[test]
    fn empty_side_yields_empty_matching() {
        let g = GraphBuilder::new(0, 3).build();
        let pg = PreparedGraph::new(&g);
        assert!(bah().run(&pg, 0.0).is_empty());
    }

    #[test]
    fn unique_mapping_holds() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        for seed in 0..5 {
            let m = Bah::with_seed(seed).run(&pg, 0.2);
            assert!(m.is_unique_mapping(), "seed {seed}");
        }
    }
}
