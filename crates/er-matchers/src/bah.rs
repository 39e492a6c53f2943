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

use crate::matcher::{EdgeView, Matcher, PreparedGraph};

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
        let t = view.threshold();
        BahMap::new(view.prepared(), t).search(t, self.config)
    }
}

/// BAH's contribution map over every edge of a graph above a floor
/// threshold, built once and searched read-only at any threshold at or
/// above the floor.
///
/// Pair contribution d(big, small) is the edge weight when it exceeds the
/// threshold searched at, else 0, so a search at `t` counts the entries
/// at or below `t` as absent and returns exactly [`Bah`]'s matching at
/// `t`. Searches at different thresholds — the sweep engine's BAH grid
/// slices, run concurrently — thus share one map instead of each
/// building its own.
pub struct BahMap {
    n_left: u32,
    n_right: u32,
    floor: f64,
    d: FxHashMap<(u32, u32), f64>,
}

impl BahMap {
    /// The map of `g`'s edges with `weight > floor`.
    pub fn new(g: &PreparedGraph<'_>, floor: f64) -> Self {
        let (n_left, n_right) = (g.n_left(), g.n_right());
        let left_drives = left_drives(n_left, n_right);
        let edges = g.edges_above(floor);
        let mut d = FxHashMap::default();
        d.reserve(edges.len());
        for e in edges {
            d.insert(driver_key(e.left, e.right, left_drives), e.weight);
        }
        BahMap {
            n_left,
            n_right,
            floor,
            d,
        }
    }

    /// BAH's matching at threshold `t`, which must not lie below the
    /// map's floor.
    pub fn search(&self, t: f64, config: BahConfig) -> Matching {
        debug_assert!(t >= self.floor, "search below the map's floor");
        search(self.n_left, self.n_right, above(&self.d, t), config)
    }
}

/// The lookup of `d`'s entries with `weight > t`.
fn above(d: &FxHashMap<(u32, u32), f64>, t: f64) -> impl Fn(u32, u32) -> Option<f64> + '_ {
    move |big, small| d.get(&(big, small)).copied().filter(|&w| w > t)
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

/// The swap search proper, over a contribution lookup: `weight(big,
/// small)` is the retained edge's weight, `None` when the pair has none.
/// Shared by [`BahMap`] (hence the one-shot [`Matcher`] path), whose
/// lookup skips the entries at or below the searched threshold, and the
/// incremental [`crate::delta::BahDelta`], which maintains a map of
/// exactly the retained edges across threshold steps and graph deltas.
pub(crate) fn search(
    n_left: u32,
    n_right: u32,
    weight: impl Fn(u32, u32) -> Option<f64>,
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

    let contrib =
        |big: u32, small: Option<u32>| -> f64 { small.and_then(|s| weight(big, s)).unwrap_or(0.0) };

    // Initial assignment: identity pairing of the first n_small drivers.
    let mut partner: Vec<Option<u32>> = (0..n_big)
        .map(|i| (i < n_small).then_some(i as u32))
        .collect();
    // `cur[i] == contrib(i, partner[i])`, updated with every accepted
    // swap, so a move looks up only its two cross pairs. The values are
    // the lookups' own, so each delta sums the same operands in the same
    // order as one that looks up all four pairs.
    let mut cur: Vec<f64> = partner
        .iter()
        .enumerate()
        .map(|(i, &p)| contrib(i as u32, p))
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
            // The contributions i and j would have after the swap.
            let (mut ci, mut cj) = (0.0, 0.0);
            let mut delta = 0.0;
            if pi.is_some() {
                cj = contrib(j as u32, pi);
                delta += cj - cur[i];
            }
            if pj.is_some() {
                ci = contrib(i as u32, pj);
                delta += ci - cur[j];
            }
            if delta >= 0.0 {
                partner.swap(i, j);
                (cur[i], cur[j]) = (ci, cj);
            }
        }
    }

    // Emit the pairs whose contribution is positive, i.e. backed by an
    // actual edge above the threshold.
    let mut pairs = Vec::new();
    for (i, p) in partner.iter().enumerate() {
        if let Some(s) = p {
            if weight(i as u32, *s).is_some() {
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
    use crate::mcf::mcf_matching;
    use crate::testkit::{diamond, figure1};
    use er_core::GraphBuilder;

    fn bah() -> Bah {
        Bah::with_seed(7)
    }

    /// The four-lookup swap search over a map holding only the retained
    /// edges: every move looks up both partners' current and crossed
    /// contributions. The oracle for [`search`], which carries the current
    /// ones from move to move and skips the entries at or below its
    /// threshold.
    fn search_reference(
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
        let mut partner: Vec<Option<u32>> = (0..n_big)
            .map(|i| (i < n_small).then_some(i as u32))
            .collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let start = Instant::now();
        if n_big >= 2 {
            for step in 0..config.max_moves {
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
        let mut pairs = Vec::new();
        for (i, p) in partner.iter().enumerate() {
            if let Some(s) = p {
                if d.contains_key(&(i as u32, *s)) {
                    pairs.push(driver_key(i as u32, *s, left_drives));
                }
            }
        }
        Matching::new(pairs)
    }

    /// A random contribution map over `n_left × n_right`, keyed by the
    /// driver orientation. Weights sit on a 0.05 grid, so plateau moves
    /// (`Δ == 0`) are common.
    fn random_map(rng: &mut StdRng, n_left: u32, n_right: u32) -> FxHashMap<(u32, u32), f64> {
        let drives = left_drives(n_left, n_right);
        let density = rng.gen_range(0.0..0.6);
        let mut d = FxHashMap::default();
        for l in 0..n_left {
            for r in 0..n_right {
                if rng.gen_bool(density) {
                    let w = rng.gen_range(1..=20u32) as f64 * 0.05;
                    d.insert(driver_key(l, r, drives), w);
                }
            }
        }
        d
    }

    #[test]
    fn two_lookup_search_matches_the_four_lookup_reference() {
        let mut rng = StdRng::seed_from_u64(0xba4);
        for case in 0..40u32 {
            let small = rng.gen_range(1..30u32);
            let big = small + rng.gen_range(0..30u32);
            // Even cases: the left side drives. Odd cases: the right side.
            let (n_left, n_right) = if case % 2 == 0 {
                (big, small)
            } else {
                (small, big + 1)
            };
            assert_eq!(left_drives(n_left, n_right), case % 2 == 0);
            let d = random_map(&mut rng, n_left, n_right);
            // At 0.0 every entry is retained; at 0.5 the search skips the
            // entries the reference's map no longer holds.
            for t in [0.0, 0.5] {
                let mut cut = d.clone();
                cut.retain(|_, w| *w > t);
                for max_moves in [0, 1, 300, 10_000] {
                    for seed in 0..3 {
                        let config = BahConfig {
                            max_moves,
                            seed,
                            ..BahConfig::default()
                        };
                        assert_eq!(
                            search(n_left, n_right, above(&d, t), config),
                            search_reference(n_left, n_right, &cut, config),
                            "case {case} ({n_left}x{n_right}), t {t}, max_moves {max_moves}, \
                             seed {seed}"
                        );
                    }
                }
                let stopped = BahConfig {
                    time_limit: Duration::ZERO,
                    ..BahConfig::default()
                };
                assert_eq!(
                    search(n_left, n_right, above(&d, t), stopped),
                    search_reference(n_left, n_right, &cut, stopped),
                    "case {case}, t {t}: zero time limit"
                );
            }
        }
    }

    #[test]
    fn a_map_built_at_a_lower_floor_searches_like_one_built_at_t() {
        // What lets the sweep's grid slices share one map: entries at or
        // below the searched threshold count as absent.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let shared = BahMap::new(&pg, 0.0);
        for t in [0.0, 0.3, 0.5, 0.6, 0.7, 0.9, 1.0] {
            let config = bah().config;
            assert_eq!(
                shared.search(t, config),
                BahMap::new(&pg, t).search(t, config),
                "t = {t}"
            );
        }
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
            time_limit: Duration::ZERO,
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
