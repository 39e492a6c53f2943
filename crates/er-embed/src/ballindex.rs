//! Centroid-ball candidate index for the semantic measures.
//!
//! The PR 5 engine *checks* the [`BagSummary`](crate::BagSummary) centroid
//! bound per enumerated pair; this index **inverts** it. Right-side entries
//! — each a point (a dense entity vector, or a token bag's centroid) with a
//! non-negative self-radius (0 for plain vectors, the bag radius for WMD
//! summaries) — are greedily clustered into *balls* around leader points.
//! Each ball records its `reach`: the largest `d(leader, point) + radius`
//! over its members. By the triangle inequality, for a probe `(q, r_q)` and
//! any member `(p, r_p)` of ball `b`,
//!
//! ```text
//! d(q, p) − r_q − r_p  ≥  d(q, leader_b) − r_q − reach_b
//! ```
//!
//! so one leader distance lower-bounds the *pair-level* distance bound of
//! every member at once. A candidate generator visits balls in ascending
//! lower-bound order, maps each bound through the measure's monotone
//! distance→similarity mapping ([`inverse_distance_bound`] for `1/(1+d)`
//! measures, [`cosine_distance_bound`] for cosine over unit vectors), and
//! stops as soon as the mapped bound falls strictly below a top-k admission
//! bound: all unvisited balls have equal-or-larger distance bounds, hence
//! equal-or-smaller similarity bounds, hence no admissible members.
//!
//! Entries that the mapping's premise does not cover (e.g. a vector that
//! cannot be normalized for the cosine mapping) are indexed with radius
//! `f64::INFINITY`, which drives their ball's lower bound to 0 and the
//! similarity bound to its maximum — they are generated for every probe,
//! never pruned.

use crate::dense::DenseVector;

/// Safety margin of [`VectorBallIndex::distance_lower_bounds`], applied in
/// the scale of the distances themselves (`margin · (d + r_q + reach)`) for
/// the same reason as the per-pair centroid bound margin in
/// [`wmd`](crate::wmd): each computed distance carries rounding error
/// relative to its own magnitude, and a margin relative to the subtracted
/// difference could vanish under catastrophic cancellation.
const BALL_BOUND_MARGIN: f64 = 1e-9;

/// Additive slack of [`cosine_distance_bound`] absorbing the gap between
/// the exact unit-sphere identity `cos = 1 − d²/2` and cosines computed
/// from f32-stored, approximately-normalized vectors. Normalizing a dense
/// vector leaves its norm within ~`√dim · 2⁻²⁴ ≈ 1.6·10⁻⁶` of 1 at our
/// largest dimension (768), perturbing the cosine by the same order;
/// `10⁻⁴` leaves two orders of magnitude of headroom while costing no
/// measurable pruning power.
pub const COSINE_NORMALIZATION_MARGIN: f64 = 1e-4;

/// One greedy ball: its leader point, members, and reach.
#[derive(Debug)]
struct Ball {
    leader: DenseVector,
    /// `max over members of d(leader, point) + radius`.
    reach: f64,
    /// Caller-side slot ids, in insertion order.
    members: Vec<u32>,
}

/// A greedy leader-clustering ball index over dense points with
/// self-radii — the generation-side form of the semantic measures'
/// centroid/triangle-inequality bounds.
///
/// Ball count is capped at `⌈2·√n⌉` so the build costs `O(n·√n·dim)` and a
/// probe costs `O(√n·dim)` leader distances instead of `n` pair distances.
///
/// ```
/// use er_embed::{inverse_distance_bound, DenseVector, VectorBallIndex};
///
/// let points = [
///     DenseVector(vec![0.0, 0.0]),
///     DenseVector(vec![0.1, 0.0]),
///     DenseVector(vec![5.0, 5.0]),
/// ];
/// let entries: Vec<(u32, &DenseVector, f64)> =
///     points.iter().enumerate().map(|(i, p)| (i as u32, p, 0.0)).collect();
/// let index = VectorBallIndex::build(&entries);
/// assert_eq!(index.n_members(), 3);
///
/// // Every member's true distance to a probe dominates its ball's bound.
/// let probe = DenseVector(vec![4.0, 4.0]);
/// let mut bounds = Vec::new();
/// index.distance_lower_bounds(&probe, 0.0, &mut bounds);
/// for &(lb, b) in &bounds {
///     for &slot in index.ball_members(b as usize) {
///         let d = probe.euclidean_distance(&points[slot as usize]);
///         assert!(d >= lb);
///         // ... and so does the mapped similarity bound.
///         assert!(1.0 / (1.0 + d) <= inverse_distance_bound(lb));
///     }
/// }
/// // Bounds come back ascending: a generator stops at the first ball whose
/// // mapped bound falls below its admission bound.
/// assert!(bounds.windows(2).all(|w| w[0].0 <= w[1].0));
/// ```
#[derive(Debug, Default)]
pub struct VectorBallIndex {
    balls: Vec<Ball>,
    n_members: usize,
}

impl VectorBallIndex {
    /// Build over `(slot, point, radius)` entries. Radii must be
    /// non-negative; `f64::INFINITY` marks an entry whose similarity the
    /// caller cannot bound (its ball is generated for every probe).
    pub fn build(entries: &[(u32, &DenseVector, f64)]) -> Self {
        if entries.is_empty() {
            return VectorBallIndex::default();
        }
        let cap = (2.0 * (entries.len() as f64).sqrt()).ceil() as usize;
        // Linkage scale: half the mean distance to the grand centroid.
        let mut grand = entries[0].1.clone();
        for &(_, p, _) in &entries[1..] {
            grand.add_assign(p);
        }
        grand.scale(1.0 / entries.len() as f32);
        let mean_spread = entries
            .iter()
            .map(|&(_, p, _)| p.euclidean_distance(&grand))
            .sum::<f64>()
            / entries.len() as f64;
        let link = mean_spread / 2.0;

        let mut balls: Vec<Ball> = Vec::new();
        for &(slot, point, radius) in entries {
            let nearest = balls
                .iter()
                .enumerate()
                .map(|(b, ball)| (point.euclidean_distance(&ball.leader), b))
                .min_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            match nearest {
                Some((d, b)) if d <= link || balls.len() >= cap => {
                    let ball = &mut balls[b];
                    ball.members.push(slot);
                    ball.reach = ball.reach.max(d + radius);
                }
                _ => balls.push(Ball {
                    leader: point.clone(),
                    reach: radius,
                    members: vec![slot],
                }),
            }
        }
        VectorBallIndex {
            balls,
            n_members: entries.len(),
        }
    }

    /// Number of balls.
    pub fn n_balls(&self) -> usize {
        self.balls.len()
    }

    /// Number of indexed entries.
    pub fn n_members(&self) -> usize {
        self.n_members
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.n_members == 0
    }

    /// Ball `b`'s member slots, in insertion order.
    pub fn ball_members(&self, b: usize) -> &[u32] {
        &self.balls[b].members
    }

    /// Write `(lower_bound, ball)` pairs sorted by ascending bound (ties:
    /// ball id) into `out`. For every member `(p, r_p)` of the ball,
    /// `lower_bound ≤ d(probe, p) − probe_radius − r_p` up to the computed
    /// distances' rounding (absorbed by a margin in the scale of the
    /// distances), and `lower_bound ≥ 0`.
    pub fn distance_lower_bounds(
        &self,
        probe: &DenseVector,
        probe_radius: f64,
        out: &mut Vec<(f64, u32)>,
    ) {
        out.clear();
        out.reserve(self.balls.len());
        for (b, ball) in self.balls.iter().enumerate() {
            let d = probe.euclidean_distance(&ball.leader);
            let slack = BALL_BOUND_MARGIN * (d + probe_radius + ball.reach);
            let lb = (d - probe_radius - ball.reach - slack).max(0.0);
            out.push((lb, b as u32));
        }
        out.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    }
}

/// Monotone mapping of a distance lower bound to an upper bound on the
/// `1/(1+d)` similarities (Euclidean, Word Mover's).
#[inline]
pub fn inverse_distance_bound(lb: f64) -> f64 {
    if lb <= 0.0 {
        1.0
    } else {
        1.0 / (1.0 + lb)
    }
}

/// Monotone mapping of a distance lower bound between **unit** vectors to
/// an upper bound on their clamped-to-`[0, 1]` cosine: on the unit sphere
/// `cos = 1 − d²/2`, floored at 0 (the clamped cosine never goes below 0
/// even where the bound would) and slackened by
/// [`COSINE_NORMALIZATION_MARGIN`] for approximately-normalized f32
/// vectors.
#[inline]
pub fn cosine_distance_bound(lb: f64) -> f64 {
    (1.0 - lb * lb / 2.0).max(0.0) + COSINE_NORMALIZATION_MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasttext::FastTextLike;
    use crate::wmd::{relaxed_wmd, word_movers_similarity, BagSummary};

    fn corpus() -> Vec<Vec<DenseVector>> {
        let ft = FastTextLike::new(96, 0.2);
        [
            "canon powershot camera",
            "canon powershot digital camera black",
            "sigmod conference proceedings",
            "x",
            "alpha beta gamma delta epsilon",
            "digital camera canon",
            "entity resolution survey",
        ]
        .iter()
        .map(|t| ft.token_vectors(t))
        .collect()
    }

    #[test]
    fn balls_partition_members() {
        let bags = corpus();
        let sums: Vec<BagSummary> = bags.iter().map(|b| BagSummary::of(b).unwrap()).collect();
        let entries: Vec<(u32, &DenseVector, f64)> = sums
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.centroid(), s.radius()))
            .collect();
        let index = VectorBallIndex::build(&entries);
        assert_eq!(index.n_members(), bags.len());
        let mut seen = vec![false; bags.len()];
        for b in 0..index.n_balls() {
            for &slot in index.ball_members(b) {
                assert!(!seen[slot as usize], "slot {slot} in two balls");
                seen[slot as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(index.n_balls() <= (2.0 * (bags.len() as f64).sqrt()).ceil() as usize);
    }

    #[test]
    fn wmd_ball_bounds_dominate_pair_similarities() {
        let bags = corpus();
        let sums: Vec<BagSummary> = bags.iter().map(|b| BagSummary::of(b).unwrap()).collect();
        let entries: Vec<(u32, &DenseVector, f64)> = sums
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.centroid(), s.radius()))
            .collect();
        let index = VectorBallIndex::build(&entries);
        let mut bounds = Vec::new();
        for (qi, q) in sums.iter().enumerate() {
            index.distance_lower_bounds(q.centroid(), q.radius(), &mut bounds);
            assert!(bounds.windows(2).all(|w| w[0].0 <= w[1].0), "unsorted");
            for &(lb, b) in &bounds {
                for &slot in index.ball_members(b as usize) {
                    let d = relaxed_wmd(&bags[qi], &bags[slot as usize]);
                    assert!(
                        d + 1e-12 >= lb,
                        "probe {qi} member {slot}: rwmd {d} < ball bound {lb}"
                    );
                    let sim = word_movers_similarity(&bags[qi], &bags[slot as usize]);
                    let ub = inverse_distance_bound(lb);
                    assert!(sim <= ub, "probe {qi} member {slot}: {sim} > {ub}");
                    // The ball bound must also be no tighter than the
                    // per-pair centroid bound the scorer itself applies.
                    let pair_ub = q.wms_upper_bound(&sums[slot as usize]);
                    assert!(pair_ub <= ub + 1e-9, "ball bound tighter than pair bound");
                }
            }
        }
    }

    #[test]
    fn cosine_ball_bounds_dominate_unit_vector_pairs() {
        let ft = FastTextLike::new(64, 0.3);
        let raw: Vec<DenseVector> = ["alpha", "alphabet", "zulu", "quebec", "alpine"]
            .iter()
            .map(|t| ft.encode(t))
            .collect();
        let unit: Vec<DenseVector> = raw
            .iter()
            .map(|v| {
                let mut u = v.clone();
                u.normalize();
                u
            })
            .collect();
        let entries: Vec<(u32, &DenseVector, f64)> = unit
            .iter()
            .enumerate()
            .map(|(i, u)| (i as u32, u, 0.0))
            .collect();
        let index = VectorBallIndex::build(&entries);
        let mut bounds = Vec::new();
        for (qi, qu) in unit.iter().enumerate() {
            index.distance_lower_bounds(qu, 0.0, &mut bounds);
            for &(lb, b) in &bounds {
                for &slot in index.ball_members(b as usize) {
                    // Scored on the *raw* vectors, as the scorer does.
                    let sim = raw[qi].cosine(&raw[slot as usize]);
                    let ub = cosine_distance_bound(lb);
                    assert!(sim <= ub, "probe {qi} member {slot}: {sim} > {ub}");
                }
            }
        }
    }

    #[test]
    fn infinite_radius_member_is_never_pruned() {
        let p0 = DenseVector(vec![0.0, 0.0]);
        let p1 = DenseVector(vec![100.0, 0.0]);
        let entries = vec![(0u32, &p0, 0.0), (1u32, &p1, f64::INFINITY)];
        let index = VectorBallIndex::build(&entries);
        let probe = DenseVector(vec![0.0, 1.0]);
        let mut bounds = Vec::new();
        index.distance_lower_bounds(&probe, 0.0, &mut bounds);
        let lb_of = |slot: u32| -> f64 {
            bounds
                .iter()
                .find(|&&(_, b)| index.ball_members(b as usize).contains(&slot))
                .unwrap()
                .0
        };
        assert_eq!(lb_of(1), 0.0, "infinite-radius entry must bound to 0");
        assert_eq!(inverse_distance_bound(lb_of(1)), 1.0);
        // An infinite probe radius likewise disables pruning everywhere.
        index.distance_lower_bounds(&probe, f64::INFINITY, &mut bounds);
        assert!(bounds.iter().all(|&(lb, _)| lb == 0.0));
    }

    #[test]
    fn empty_index_is_harmless() {
        let index = VectorBallIndex::build(&[]);
        assert!(index.is_empty());
        let mut bounds = vec![(1.0, 9u32)];
        index.distance_lower_bounds(&DenseVector(vec![1.0]), 0.0, &mut bounds);
        assert!(bounds.is_empty());
    }
}
