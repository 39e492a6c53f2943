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

impl Matcher for Bah {
    fn name(&self) -> &'static str {
        "BAH"
    }

    fn run_view(&self, view: &EdgeView<'_, '_>) -> Matching {
        let t = view.threshold();
        BahMap::new(view.prepared(), t, self.config).search(t)
    }
}

/// The most moves a [`BahMap`] keeps drawn: 8 MiB of `(i, j)` pairs.
/// Past them a search draws on from a saved clone of the generator, so
/// memory stays bounded for any `max_moves`.
const MOVE_PREFIX_CAP: usize = 1 << 20;

/// BAH's contributions over every edge of a graph above a floor
/// threshold, and its move stream, built once and searched read-only at
/// any threshold at or above the floor.
///
/// Pair contribution d(big, small) is the edge weight when it exceeds the
/// threshold searched at, else 0, so a search at `t` counts the entries
/// at or below `t` as absent and returns exactly [`Bah`]'s matching at
/// `t`. The moves — the random `(i, j)` pairs of driver entities — depend
/// only on the seed and the driver side's size, never on `t`, so every
/// search replays one stream. Searches at different thresholds — the
/// sweep engine's BAH grid slices, run concurrently — thus share one
/// table and one stream instead of each building and drawing its own.
pub struct BahMap {
    n_left: u32,
    n_right: u32,
    floor: f64,
    config: BahConfig,
    d: Contributions,
    moves: MoveStream,
}

/// The contribution lookup of a [`BahMap`], keyed by the driver
/// orientation.
enum Contributions {
    /// Row-major `n_big × n_small` weights, −∞ where the pair has no
    /// edge above the floor.
    Dense { n_small: usize, w: Vec<f64> },
    /// The edges above the floor.
    Map(FxHashMap<(u32, u32), f64>),
}

impl Contributions {
    /// The dense table when it has at most two cells per edge — 16 bytes
    /// an edge, never more than the map's 16-byte entries plus control
    /// bytes at its load factor — else the map.
    fn new(g: &PreparedGraph<'_>, floor: f64) -> Self {
        let cells = u64::from(g.n_left()) * u64::from(g.n_right());
        if cells <= 2 * g.edges_above(floor).len() as u64 {
            Self::dense(g, floor)
        } else {
            Self::map(g, floor)
        }
    }

    fn dense(g: &PreparedGraph<'_>, floor: f64) -> Self {
        let (n_left, n_right) = (g.n_left(), g.n_right());
        let left_drives = left_drives(n_left, n_right);
        let (_, n_small) = sides(n_left, n_right);
        let mut w = vec![f64::NEG_INFINITY; n_left as usize * n_right as usize];
        for e in g.edges_above(floor) {
            let (big, small) = driver_key(e.left, e.right, left_drives);
            w[big as usize * n_small + small as usize] = e.weight;
        }
        Contributions::Dense { n_small, w }
    }

    fn map(g: &PreparedGraph<'_>, floor: f64) -> Self {
        let left_drives = left_drives(g.n_left(), g.n_right());
        let edges = g.edges_above(floor);
        let mut d = FxHashMap::default();
        d.reserve(edges.len());
        for e in edges {
            d.insert(driver_key(e.left, e.right, left_drives), e.weight);
        }
        Contributions::Map(d)
    }
}

impl BahMap {
    /// The contributions of `g`'s edges with `weight > floor`, and the
    /// move stream of `config`.
    pub fn new(g: &PreparedGraph<'_>, floor: f64, config: BahConfig) -> Self {
        let (n_left, n_right) = (g.n_left(), g.n_right());
        let (n_big, _) = sides(n_left, n_right);
        BahMap {
            n_left,
            n_right,
            floor,
            config,
            d: Contributions::new(g, floor),
            moves: MoveStream::new(config, n_big, MOVE_PREFIX_CAP),
        }
    }

    /// BAH's matching at threshold `t`, which must not lie below the
    /// map's floor.
    pub fn search(&self, t: f64) -> Matching {
        debug_assert!(t >= self.floor, "search below the map's floor");
        let (n_left, n_right, moves) = (self.n_left, self.n_right, self.moves.replay());
        match &self.d {
            Contributions::Dense { n_small, w } => {
                let n_small = *n_small;
                let weight = move |big: u32, small: u32| {
                    let w = w[big as usize * n_small + small as usize];
                    (w > t).then_some(w)
                };
                search(n_left, n_right, weight, moves, self.config)
            }
            Contributions::Map(d) => search(n_left, n_right, above(d, t), moves, self.config),
        }
    }
}

/// The lookup of `d`'s entries with `weight > t`.
fn above(d: &FxHashMap<(u32, u32), f64>, t: f64) -> impl Fn(u32, u32) -> Option<f64> + '_ {
    move |big, small| d.get(&(big, small)).copied().filter(|&w| w > t)
}

/// The first `min(max_moves, cap)` moves of a seed's stream, drawn once,
/// and the generator's state after them.
struct MoveStream {
    n_big: usize,
    prefix: Vec<(u32, u32)>,
    rest: StdRng,
}

impl MoveStream {
    fn new(config: BahConfig, n_big: usize, cap: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        // A driver side of fewer than two entities makes no move.
        let len = if n_big < 2 {
            0
        } else {
            usize::try_from(config.max_moves).map_or(cap, |m| m.min(cap))
        };
        let prefix = (0..len)
            .map(|_| {
                let (i, j) = draw(&mut rng, n_big);
                (i as u32, j as u32)
            })
            .collect();
        MoveStream {
            n_big,
            prefix,
            rest: rng,
        }
    }

    /// The stream from its first move.
    fn replay(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let prefix = self.prefix.iter().map(|&(i, j)| (i as usize, j as usize));
        prefix.chain(moves(self.rest.clone(), self.n_big))
    }
}

/// The move stream of a generator over `n_big` driver entities.
pub(crate) fn moves(mut rng: StdRng, n_big: usize) -> impl Iterator<Item = (usize, usize)> {
    std::iter::repeat_with(move || draw(&mut rng, n_big))
}

/// One move: two distinct driver entities, uniformly at random.
#[inline]
fn draw(rng: &mut StdRng, n_big: usize) -> (usize, usize) {
    let i = rng.gen_range(0..n_big);
    let mut j = rng.gen_range(0..n_big - 1);
    if j >= i {
        j += 1;
    }
    (i, j)
}

/// Orientation: the "driver" side is the larger collection, as in the
/// pseudocode (|V1| > |V2|); ties keep the left side as driver.
#[inline]
pub(crate) fn left_drives(n_left: u32, n_right: u32) -> bool {
    n_left >= n_right
}

/// `(n_big, n_small)`: the driver side's size, then the other side's.
#[inline]
pub(crate) fn sides(n_left: u32, n_right: u32) -> (usize, usize) {
    if left_drives(n_left, n_right) {
        (n_left as usize, n_right as usize)
    } else {
        (n_right as usize, n_left as usize)
    }
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

/// The swap search proper, over a contribution lookup and a move
/// stream: `weight(big, small)` is the retained edge's weight, `None`
/// when the pair has none, and `moves` yields the seed's `(i, j)` pairs
/// (see [`moves`]). Shared by [`BahMap`] (hence the one-shot [`Matcher`]
/// path), whose lookup skips the entries at or below the searched
/// threshold and whose moves replay one drawn stream, and the
/// incremental [`crate::delta::BahDelta`], which maintains a map of
/// exactly the retained edges across threshold steps and graph deltas
/// and draws its moves afresh.
pub(crate) fn search(
    n_left: u32,
    n_right: u32,
    weight: impl Fn(u32, u32) -> Option<f64>,
    mut moves: impl Iterator<Item = (usize, usize)>,
    config: BahConfig,
) -> Matching {
    let left_drives = left_drives(n_left, n_right);
    let (n_big, n_small) = sides(n_left, n_right);
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

    let start = Instant::now();
    if n_big >= 2 {
        for step in 0..config.max_moves {
            // Time check amortized over 256 steps: the budget dominates
            // only on graphs far larger than a single check's cost.
            if step % 256 == 0 && start.elapsed() > config.time_limit {
                break;
            }
            let (i, j) = moves.next().expect("the move stream is endless");
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
    use er_core::{GraphBuilder, SimilarityGraph};
    use proptest::prelude::*;

    fn bah() -> Bah {
        Bah {
            config: BahConfig {
                seed: 7,
                ..BahConfig::default()
            },
        }
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

    fn n_big(n_left: u32, n_right: u32) -> usize {
        sides(n_left, n_right).0
    }

    /// A graph of 0–21 entities a side (so a smaller side of 0 or 1 and a
    /// driver side of 1 occur, and so do graphs large enough that every
    /// move of the stream shapes the result) with weights on a 0.05 grid,
    /// at a density drawn from 0 to 1, so graphs fall on both sides of
    /// the dense table's two-cells-per-edge rule.
    fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
        let side = || proptest::sample::select(vec![0u32, 1, 1, 2, 3, 5, 8, 13, 21]);
        (side(), side(), 0.0f64..=1.0, 0u64..u64::MAX).prop_map(|(nl, nr, density, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new(nl, nr);
            for l in 0..nl {
                for r in 0..nr {
                    if rng.gen_bool(density) {
                        b.add_edge(l, r, f64::from(rng.gen_range(1..=20u32)) / 20.0)
                            .unwrap();
                    }
                }
            }
            b.build()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both of [`BahMap`]'s tables, built below every searched
        /// threshold and replaying a move stream whose drawn prefix
        /// (`cap` moves) may end before, at or after the budget, search
        /// exactly like the four-lookup reference over the edges above
        /// `t` — for `t` below, at and above the weights.
        #[test]
        fn bah_map_tables_match_the_four_lookup_reference(
            g in arb_graph(),
            max_moves in proptest::sample::select(vec![0u64, 1, 255, 257, 10_000]),
            cap in 0usize..300,
            seed in 0u64..4,
        ) {
            let pg = PreparedGraph::new(&g);
            let (n_left, n_right) = (g.n_left(), g.n_right());
            let drives = left_drives(n_left, n_right);
            let config = BahConfig { max_moves, seed, ..BahConfig::default() };
            let cells = u64::from(n_left) * u64::from(n_right);
            let chosen = BahMap::new(&pg, 0.0, config);
            prop_assert_eq!(
                matches!(chosen.d, Contributions::Dense { .. }),
                cells <= 2 * g.n_edges() as u64
            );
            let table = |d| BahMap {
                n_left,
                n_right,
                floor: 0.0,
                config,
                d,
                moves: MoveStream::new(config, n_big(n_left, n_right), cap),
            };
            let dense = table(Contributions::dense(&pg, 0.0));
            let map = table(Contributions::map(&pg, 0.0));
            let at_a_weight = g.edges().get(g.n_edges() / 2).map_or(0.5, |e| e.weight);
            for t in [0.0, at_a_weight, 0.5, 1.0] {
                let retained: FxHashMap<(u32, u32), f64> = g
                    .edges()
                    .iter()
                    .filter(|e| e.weight > t)
                    .map(|e| (driver_key(e.left, e.right, drives), e.weight))
                    .collect();
                let want = search_reference(n_left, n_right, &retained, config);
                prop_assert_eq!(&dense.search(t), &want, "dense table, t {}", t);
                prop_assert_eq!(&map.search(t), &want, "map, t {}", t);
                prop_assert_eq!(&chosen.search(t), &want, "rule's choice, t {}", t);
            }
        }
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
                        let drawn = moves(StdRng::seed_from_u64(seed), n_big(n_left, n_right));
                        assert_eq!(
                            search(n_left, n_right, above(&d, t), drawn, config),
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
                let drawn = moves(StdRng::seed_from_u64(stopped.seed), n_big(n_left, n_right));
                assert_eq!(
                    search(n_left, n_right, above(&d, t), drawn, stopped),
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
        let config = bah().config;
        let shared = BahMap::new(&pg, 0.0, config);
        for t in [0.0, 0.3, 0.5, 0.6, 0.7, 0.9, 1.0] {
            assert_eq!(
                shared.search(t),
                BahMap::new(&pg, t, config).search(t),
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
        let seeded = Bah {
            config: BahConfig {
                seed: 99,
                ..BahConfig::default()
            },
        };
        let a = seeded.run(&pg, 0.1);
        let b = seeded.run(&pg, 0.1);
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
            let seeded = Bah {
                config: BahConfig {
                    seed,
                    ..BahConfig::default()
                },
            };
            let m = seeded.run(&pg, 0.2);
            assert!(m.is_unique_mapping(), "seed {seed}");
        }
    }
}
