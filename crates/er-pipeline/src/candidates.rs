//! Candidate sources: where the score phase takes each row's candidate
//! pairs from, and the index-driven generators that make candidate
//! generation sub-quadratic.
//!
//! Every scorer has exactly one row walk, over a `CandidateSource`:
//!
//! * `Enumerate` — the branch's own enumeration (the full cross product,
//!   or every term-sharing pair for the inverted-index branches);
//! * `Index` — generation from the branch's prepared candidate index
//!   under the sink's admission bound ([`CandidateMode::Indexed`]);
//! * `Blocked` — the per-row lists of a blocked candidate set
//!   (`CandidateLists`).
//!
//! All three hand each candidate `j` to the scorer's one `score(j)`
//! callback. The index generators below also take the sink's refreshed
//! admission bound back from it (`score(j) -> bound`), so their pruning
//! tightens as the row's heap fills; the two list walks ignore it.
//!
//! The bound-driven engine prunes candidates *after* enumerating them —
//! the scored volume shrinks but the generated volume stays `Θ(n²)`. The
//! generators invert each branch's pruning filter into an index probe,
//! so the filtered-out pairs are never even produced:
//!
//! * **Token vector measures** (`generate_token_candidates`) — an
//!   AllPairs/PPJoin-style prefix filter: the probe's terms are visited in
//!   the [`ProbePlan`] order over the right-side inverted index, and
//!   generation stops at the first plan step whose *suffix bound* (the
//!   best similarity any still-undiscovered candidate could reach) falls
//!   strictly below the sink's admission bound.
//! * **Character edit measures** (`generate_char_candidates`) — the
//!   length-difference and char-bag counting filters inverted into a
//!   [`LengthBucketIndex`]: whole length buckets are skipped via the
//!   `O(1)` length bound, and bucket members via the counting-filter bound
//!   computed by one multiplicity probe of the bucket postings.
//! * **Semantic measures** (`generate_ball_candidates`) — centroid-ball
//!   pruning over a [`VectorBallIndex`]: balls are visited in ascending
//!   distance-lower-bound order and generation stops at the first ball
//!   whose mapped similarity bound falls strictly below the admission
//!   bound.
//!
//! # Completeness (why no admitted pair is lost)
//!
//! Every generator consumes the admission bound of the streaming top-k
//! sink — the row heap's current k-th weight — and skips a candidate (or a
//! whole bucket/ball/suffix of candidates) only when an **exact upper
//! bound** on its similarity falls **strictly** below that bound. Within a
//! row the admission bound only rises, so a skip decision taken against
//! the bound-at-decision-time also holds against the final bound: the
//! skipped pair's true similarity is strictly below the row's final k-th
//! weight, and the pair could not have been retained by the dense path
//! either. The retained edge multiset — and therefore the finished graph —
//! is bit-identical to enumerated-mode [`build_graph_topk`], which
//! `tests/candidates_props.rs` proves per taxonomy branch and thread
//! count. DESIGN.md §15 spells out the per-index domination arguments.
//!
//! Pairs skipped by a generator are **not generated**: they never reach a
//! scorer, are not counted in `BuildStats::generated_pairs`, and appear in
//! neither `pruned_pairs` nor `scored_pairs` — the stats invariant
//! `generated == pruned + scored` holds on every path because pruning and
//! scoring only ever apply to generated candidates.
//!
//! [`build_graph_topk`]: crate::build_graph_topk
//! [`ProbePlan`]: er_textsim::ProbePlan
//! [`LengthBucketIndex`]: er_textsim::LengthBucketIndex
//! [`VectorBallIndex`]: er_embed::VectorBallIndex

use er_core::FxHashSet;
use er_embed::{DenseVector, VectorBallIndex};
use er_textsim::{CharMeasure, LengthBucketIndex, ProbePlan};

/// How a streaming top-k construction produces its candidate pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateMode {
    /// Enumerate every pair the branch's scorer would consider (full cross
    /// product, or every term-sharing pair for the inverted-index
    /// branches) and let the sink's bounds prune after the fact —
    /// `Θ(n²)` generated pairs on the all-pairs branches.
    #[default]
    Enumerated,
    /// Generate candidates from the branch's index (prefix-filtered
    /// postings, length buckets, centroid balls) under the sink's
    /// admission bound: the generated pair count itself is `o(n²)` while
    /// the finished graph stays bit-identical to [`Enumerated`]
    /// (property-proven in `tests/candidates_props.rs`).
    ///
    /// [`Enumerated`]: CandidateMode::Enumerated
    Indexed,
}

/// Where one build takes each row's candidates from (see the module
/// docs). `I` is the branch's prepared candidate index (borrowed by the
/// row walks); a scorer builds it only for the `Index` source, so a walk
/// can never reach an index that was not prepared.
#[derive(Clone, Copy)]
pub(crate) enum CandidateSource<'a, I> {
    /// The branch's own enumeration.
    Enumerate,
    /// Generation from the branch's candidate index under the sink's
    /// admission bound. Branches without an index (`I = ()`) walk their
    /// own enumeration — still correct, just not sub-quadratic.
    Index(I),
    /// Only the pairs of a blocked candidate set.
    Blocked(&'a CandidateLists),
}

/// A candidate-source request, made before any scorer (and with it the
/// index) exists.
pub(crate) type SourceKind<'a> = CandidateSource<'a, ()>;

impl<'a> SourceKind<'a> {
    /// The source a streaming top-k build in `mode` walks.
    pub(crate) fn of_mode(mode: CandidateMode) -> Self {
        match mode {
            CandidateMode::Enumerated => CandidateSource::Enumerate,
            CandidateMode::Indexed => CandidateSource::Index(()),
        }
    }

    /// The prepared source: an `Index` request receives the index
    /// `build` produces; the other sources carry over unchanged.
    pub(crate) fn with_index<I>(self, build: impl FnOnce() -> I) -> CandidateSource<'a, I> {
        match self {
            CandidateSource::Enumerate => CandidateSource::Enumerate,
            CandidateSource::Index(()) => CandidateSource::Index(build()),
            CandidateSource::Blocked(lists) => CandidateSource::Blocked(lists),
        }
    }
}

impl<'a, I> CandidateSource<'a, I> {
    /// The same source with the index borrowed — what the row walks take.
    pub(crate) fn as_ref(&self) -> CandidateSource<'a, &I> {
        match self {
            CandidateSource::Enumerate => CandidateSource::Enumerate,
            CandidateSource::Index(index) => CandidateSource::Index(index),
            CandidateSource::Blocked(lists) => CandidateSource::Blocked(lists),
        }
    }
}

/// Per-left-entity candidate lists (right ids, ascending) of the
/// `Blocked` source, built once from the blocked pair set.
pub(crate) struct CandidateLists {
    rows: Vec<Vec<u32>>,
}

impl CandidateLists {
    /// Group `pairs` by left id; pairs referencing out-of-range entity
    /// ids are dropped.
    pub(crate) fn new(n_left: u32, n_right: u32, pairs: &FxHashSet<(u32, u32)>) -> Self {
        let mut rows = vec![Vec::new(); n_left as usize];
        for &(l, r) in pairs {
            if l < n_left && r < n_right {
                rows[l as usize].push(r);
            }
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        CandidateLists { rows }
    }

    /// The candidate right ids of left entity `left_id`, ascending.
    #[inline]
    pub(crate) fn row(&self, left_id: u32) -> &[u32] {
        self.rows
            .get(left_id as usize)
            .map_or(&[], |row| row.as_slice())
    }
}

/// Prefix-filtered token-measure generation: probe the right-side postings
/// in [`ProbePlan`] order — `postings(p)` lists the ids holding the probe
/// term at position `p` — deduplicate via `stamp`/`mark`, and hand each
/// newly discovered right id to `score`, which must score it and return
/// the sink's updated admission bound.
///
/// Stops before plan step `i` when the current bound is live (not `-∞`)
/// and `plan.suffix_bound(i)` is strictly below it: every undiscovered
/// candidate shares terms only among steps `i..` (otherwise an earlier
/// posting probe would have discovered it), so its similarity is dominated
/// by the suffix bound and it could never be admitted.
pub(crate) fn generate_token_candidates<'p>(
    plan: &ProbePlan,
    postings: impl Fn(usize) -> &'p [u32],
    stamp: &mut [u32],
    mark: u32,
    mut bound: f64,
    mut score: impl FnMut(u32) -> f64,
) {
    for i in 0..plan.len() {
        if bound != f64::NEG_INFINITY && plan.suffix_bound(i) < bound {
            return;
        }
        for &j in postings(plan.term_position(i)) {
            let s = &mut stamp[j as usize];
            if *s != mark {
                *s = mark;
                bound = score(j);
            }
        }
    }
}

/// Length-bucketed char-measure generation: visit buckets closest-length
/// first, skip a whole bucket when the measure's length bound falls
/// strictly below the admission bound, probe the counting filter over the
/// survivors, and hand each member whose bag bound meets the bound to
/// `score` (which returns the updated admission bound).
///
/// Buckets are *skipped*, not stopped at — the length bound is not
/// monotone along the closest-first interleaving (a failing
/// shorter-than-probe bucket says nothing about the next
/// longer-than-probe one), and buckets are few (one per distinct length).
///
/// `order` and `counts` are caller-provided scratch. Returns the last
/// admission bound `score` reported.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_char_candidates(
    index: &LengthBucketIndex,
    measure: CharMeasure,
    probe_len: usize,
    probe_bag: &[u32],
    order: &mut Vec<u32>,
    counts: &mut Vec<u32>,
    mut bound: f64,
    mut score: impl FnMut(u32) -> f64,
) -> f64 {
    index.bucket_order_closest_first(probe_len, order);
    let use_bag = measure.has_bag_bound();
    for &b in order.iter() {
        let b = b as usize;
        let bucket_len = index.bucket_char_len(b);
        if bound != f64::NEG_INFINITY {
            if measure.length_upper_bound(probe_len, bucket_len) < bound {
                continue;
            }
            if use_bag {
                index.count_common_into(b, probe_bag, counts);
                for (pos, &slot) in index.bucket_members(b).iter().enumerate() {
                    let ub = measure
                        .bag_upper_bound_from_common(counts[pos] as usize, probe_len, bucket_len)
                        .expect("has_bag_bound implies a counting-filter bound");
                    if ub < bound {
                        continue;
                    }
                    bound = score(slot);
                }
                continue;
            }
        }
        for &slot in index.bucket_members(b) {
            bound = score(slot);
        }
    }
    bound
}

/// Centroid-ball semantic generation: visit balls in ascending
/// distance-lower-bound order, map each bound through the measure's
/// monotone non-increasing `map` (distance lower bound → similarity upper
/// bound), and hand every member of a surviving ball to `score` (which
/// returns the updated admission bound).
///
/// Stops at the first ball whose mapped bound falls strictly below the
/// live admission bound: all later balls have equal-or-larger distance
/// bounds, hence equal-or-smaller similarity bounds.
///
/// `bounds` is caller-provided scratch.
pub(crate) fn generate_ball_candidates(
    index: &VectorBallIndex,
    probe: &DenseVector,
    probe_radius: f64,
    bounds: &mut Vec<(f64, u32)>,
    map: impl Fn(f64) -> f64,
    mut bound: f64,
    mut score: impl FnMut(u32) -> f64,
) {
    index.distance_lower_bounds(probe, probe_radius, bounds);
    for &(lb, b) in bounds.iter() {
        if bound != f64::NEG_INFINITY && map(lb) < bound {
            return;
        }
        for &slot in index.ball_members(b as usize) {
            bound = score(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::FxHashMap;
    use er_embed::inverse_distance_bound;
    use er_textsim::{CharTable, SparseVector, VectorMeasure};

    /// The postings of `term`; none for a term no vector holds.
    fn postings_of(postings: &FxHashMap<u64, Vec<u32>>, term: u64) -> &[u32] {
        postings.get(&term).map_or(&[], Vec::as_slice)
    }

    /// With no live bound (`-∞`), the token generator discovers exactly
    /// the term-sharing pairs — the dense inverted-index candidate set.
    #[test]
    fn token_generation_without_bound_is_the_full_index_walk() {
        let vecs: Vec<SparseVector> = [
            vec![(1u64, 0.5), (2, 0.5)],
            vec![(2, 1.0)],
            vec![(9, 1.0)],
            vec![(1, 0.2), (9, 0.8)],
        ]
        .into_iter()
        .map(SparseVector::from_pairs)
        .collect();
        let mut postings: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (j, v) in vecs.iter().enumerate() {
            for &(t, _) in v.terms() {
                postings.entry(t).or_default().push(j as u32);
            }
        }
        let probe = SparseVector::from_pairs(vec![(1, 0.7), (2, 0.3)]);
        let plan = VectorMeasure::CosineTf.probe_plan(&probe, None);
        let mut stamp = vec![0u32; vecs.len()];
        let mut seen = Vec::new();
        generate_token_candidates(
            &plan,
            |p| postings_of(&postings, probe.terms()[p].0),
            &mut stamp,
            1,
            f64::NEG_INFINITY,
            |j| {
                seen.push(j);
                f64::NEG_INFINITY
            },
        );
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 3], "exactly the term-sharing slots");
    }

    /// A saturating bound (anything below 1 is inadmissible) stops token
    /// generation as soon as the suffix bound proves no candidate can
    /// reach it.
    #[test]
    fn token_generation_early_stops_under_a_high_bound() {
        let vecs: Vec<SparseVector> = (0..8)
            .map(|j| SparseVector::from_pairs(vec![(j as u64 + 10, 1.0)]))
            .collect();
        let mut postings: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (j, v) in vecs.iter().enumerate() {
            for &(t, _) in v.terms() {
                postings.entry(t).or_default().push(j as u32);
            }
        }
        // The probe's dominant weight sits on a term nobody shares; the
        // tiny tail terms cannot reach the bound, so the plan stops after
        // the first (empty-postings) step.
        let probe = SparseVector::from_pairs(vec![(1, 100.0), (10, 1e-9), (11, 1e-9)]);
        let plan = VectorMeasure::CosineTf.probe_plan(&probe, None);
        let mut stamp = vec![0u32; vecs.len()];
        let mut generated = 0usize;
        let terms = |p: usize| postings_of(&postings, probe.terms()[p].0);
        generate_token_candidates(&plan, terms, &mut stamp, 1, 0.9, |_| {
            generated += 1;
            0.9
        });
        assert_eq!(generated, 0, "suffix bound must stop the tail probes");
    }

    /// The char generator under `-∞` produces every indexed entry once;
    /// under a live bound it skips exactly the entries whose length or bag
    /// bound falls below it.
    #[test]
    fn char_generation_skips_by_length_and_bag() {
        let t = CharTable::build(["abcd", "abce", "zzzz", "ab"]);
        let index = LengthBucketIndex::build((0..t.len()).map(|i| t.bag(i)));
        let probe = CharTable::build(["abcd"]);
        let m = CharMeasure::Levenshtein;
        let (mut order, mut counts) = (Vec::new(), Vec::new());

        let mut all = Vec::new();
        generate_char_candidates(
            &index,
            m,
            4,
            probe.bag(0),
            &mut order,
            &mut counts,
            f64::NEG_INFINITY,
            |s| {
                all.push(s);
                f64::NEG_INFINITY
            },
        );
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3], "no bound, every entry generated");

        // Bound 0.7: "ab" fails the length bound (0.5), "zzzz" the bag
        // bound (0 common chars → 0), the two near-identical strings
        // survive ("abce"'s bag bound is 0.75 ≥ 0.7).
        let mut survivors = Vec::new();
        generate_char_candidates(
            &index,
            m,
            4,
            probe.bag(0),
            &mut order,
            &mut counts,
            0.7,
            |s| {
                survivors.push(s);
                0.7
            },
        );
        survivors.sort_unstable();
        assert_eq!(survivors, vec![0, 1]);
    }

    /// The ball generator visits everything under `-∞` and stops at the
    /// first inadmissible ball under a live bound.
    #[test]
    fn ball_generation_stops_at_inadmissible_balls() {
        let points = [
            DenseVector(vec![0.0, 0.0]),
            DenseVector(vec![0.2, 0.0]),
            DenseVector(vec![50.0, 0.0]),
        ];
        let entries: Vec<(u32, &DenseVector, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p, 0.0))
            .collect();
        let index = VectorBallIndex::build(&entries);
        let probe = DenseVector(vec![0.1, 0.0]);
        let mut scratch = Vec::new();

        let mut all = Vec::new();
        generate_ball_candidates(
            &index,
            &probe,
            0.0,
            &mut scratch,
            inverse_distance_bound,
            f64::NEG_INFINITY,
            |s| {
                all.push(s);
                f64::NEG_INFINITY
            },
        );
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "no bound, every member generated");

        // Bound 0.5 admits distances up to 1: the far point (d ≈ 49.9,
        // similarity ≈ 0.02) sits in a ball whose mapped bound is far
        // below, so it is never generated.
        let mut near = Vec::new();
        generate_ball_candidates(
            &index,
            &probe,
            0.0,
            &mut scratch,
            inverse_distance_bound,
            0.5,
            |s| {
                near.push(s);
                0.5
            },
        );
        near.sort_unstable();
        assert_eq!(near, vec![0, 1], "far ball must be cut off");
    }
}
