//! Character-level schema-based similarity measures (Appendix B.1.1).
//!
//! All functions return similarities in `[0, 1]`; distance measures are
//! normalized as documented per function. Two empty strings are maximally
//! similar (1.0); an empty vs non-empty string scores 0.0.
//!
//! # The scoring engine underneath
//!
//! Every measure has two faces:
//!
//! * the classic `&str` API (`levenshtein_similarity(a, b)` etc.), which
//!   decodes each argument **once** into a thread-local scratch and
//!   delegates to the slice kernels — no per-call `Vec<char>` pairs, no
//!   double `chars()` walk for length + distance;
//! * the `*_codes` slice kernels over `&[u32]` Unicode scalars with an
//!   explicit reusable [`CharScratch`], the allocation-free shape the
//!   all-pairs construction engine drives via a prepared
//!   [`CharTable`](crate::CharTable).
//!
//! Levenshtein runs on the Myers bit-parallel kernel
//! ([`crate::bitpar`]); [`levenshtein_distance_classic`] keeps the
//! reference dynamic program for property tests and benchmarks.
//! [`CharMeasure::length_upper_bound`] and
//! [`CharMeasure::bag_upper_bound`] give cheap *exact* upper bounds
//! (each provably ≥ the measure's own computed `f64`, term by term under
//! monotone float operations), which is what lets a top-k sink prune a
//! candidate **before** scoring without changing any retained weight.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use er_core::FxHashMap;

use crate::bitpar::{self, BandRows, MyersPattern};
use crate::chartable::sorted_common_count;

/// q-gram order of [`qgrams_similarity`] (Simmetrics-style trigrams).
const Q: usize = 3;

/// Padding character of the q-gram profiles — the literal `#` of the
/// Simmetrics convention, kept deliberately: a real `#` in the text
/// merges with padding grams exactly as it always has, so the packed
/// profiles are bit-compatible with the historical `String`-keyed ones
/// for **every** input.
const QGRAM_PAD: u32 = '#' as u32;

// The packing invariant behind `qgram_key`: every scalar value (and the
// pad) fits a 21-bit lane, so three pack losslessly into a u64.
const _: () = assert!(QGRAM_PAD < (1 << 21) && (char::MAX as u32) < (1 << 21));

/// The seven character-level measures of the paper's taxonomy (Figure 6),
/// in its listing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CharMeasure {
    /// Damerau-Levenshtein similarity (edit distance with transpositions).
    DamerauLevenshtein,
    /// Levenshtein similarity.
    Levenshtein,
    /// q-grams distance (block distance over padded trigram profiles).
    QGrams,
    /// Jaro similarity.
    Jaro,
    /// Needleman-Wunch global-alignment similarity.
    NeedlemanWunsch,
    /// Longest common subsequence similarity.
    LongestCommonSubsequence,
    /// Longest common substring similarity.
    LongestCommonSubstring,
}

impl CharMeasure {
    /// All character-level measures.
    pub fn all() -> [CharMeasure; 7] {
        [
            CharMeasure::DamerauLevenshtein,
            CharMeasure::Levenshtein,
            CharMeasure::QGrams,
            CharMeasure::Jaro,
            CharMeasure::NeedlemanWunsch,
            CharMeasure::LongestCommonSubsequence,
            CharMeasure::LongestCommonSubstring,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CharMeasure::DamerauLevenshtein => "DamerauLevenshtein",
            CharMeasure::Levenshtein => "Levenshtein",
            CharMeasure::QGrams => "QGrams",
            CharMeasure::Jaro => "Jaro",
            CharMeasure::NeedlemanWunsch => "NeedlemanWunsch",
            CharMeasure::LongestCommonSubsequence => "LCSubsequence",
            CharMeasure::LongestCommonSubstring => "LCSubstring",
        }
    }

    /// Compute the similarity of two strings (thread-local scratch; each
    /// argument is decoded exactly once).
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let m = *self;
        with_str_codes(a, b, |ca, cb, s| m.similarity_codes(ca, cb, s))
    }

    /// Compute the similarity of two pre-decoded scalar-value slices with
    /// an explicit reusable scratch — the allocation-free hot path of the
    /// all-pairs scorers. Bit-identical to [`CharMeasure::similarity`]
    /// on the same text.
    ///
    /// ```
    /// use er_textsim::{CharMeasure, CharScratch};
    ///
    /// let a: Vec<u32> = "kitten".chars().map(u32::from).collect();
    /// let b: Vec<u32> = "sitting".chars().map(u32::from).collect();
    /// let mut s = CharScratch::new();
    /// let got = CharMeasure::Levenshtein.similarity_codes(&a, &b, &mut s);
    /// assert_eq!(got, CharMeasure::Levenshtein.similarity("kitten", "sitting"));
    /// ```
    pub fn similarity_codes(&self, a: &[u32], b: &[u32], s: &mut CharScratch) -> f64 {
        match self {
            CharMeasure::DamerauLevenshtein => {
                let max_len = a.len().max(b.len());
                if max_len == 0 {
                    return 1.0;
                }
                1.0 - osa_distance_codes(a, b, s) as f64 / max_len as f64
            }
            CharMeasure::Levenshtein => {
                let max_len = a.len().max(b.len());
                if max_len == 0 {
                    return 1.0;
                }
                // The shorter side as the pattern: fewest 64-bit blocks.
                let d = if a.len() <= b.len() {
                    s.set_pattern(a);
                    s.pattern_distance(b)
                } else {
                    s.set_pattern(b);
                    s.pattern_distance(a)
                };
                1.0 - d as f64 / max_len as f64
            }
            CharMeasure::QGrams => qgrams_similarity_codes(a, b, s),
            CharMeasure::Jaro => jaro_similarity_codes(a, b, s),
            CharMeasure::NeedlemanWunsch => needleman_wunsch_similarity_codes(a, b, s),
            CharMeasure::LongestCommonSubsequence => {
                let max_len = a.len().max(b.len());
                if max_len == 0 {
                    return 1.0;
                }
                lcs_subsequence_len_codes(a, b, s) as f64 / max_len as f64
            }
            CharMeasure::LongestCommonSubstring => {
                let max_len = a.len().max(b.len());
                if max_len == 0 {
                    return 1.0;
                }
                lcs_substring_len_codes(a, b, s) as f64 / max_len as f64
            }
        }
    }

    /// An **exact** `O(1)` upper bound on the similarity from the two
    /// character lengths alone.
    ///
    /// Exactness contract: the returned value is ≥ the `f64` this
    /// measure itself computes for any strings of these lengths — every
    /// term of the bound dominates the corresponding term of the
    /// measure's formula and only monotone float operations combine
    /// them. A top-k sink may therefore skip any candidate whose bound
    /// falls strictly below its admission weight without changing the
    /// retained edge set by a single bit.
    ///
    /// ```
    /// use er_textsim::CharMeasure;
    ///
    /// for m in CharMeasure::all() {
    ///     let ub = m.length_upper_bound(6, 7);
    ///     assert!(m.similarity("kitten", "sitting") <= ub);
    /// }
    /// assert_eq!(CharMeasure::Levenshtein.length_upper_bound(0, 0), 1.0);
    /// assert_eq!(CharMeasure::Jaro.length_upper_bound(0, 4), 0.0);
    /// ```
    pub fn length_upper_bound(&self, la: usize, lb: usize) -> f64 {
        let (mn, mx) = (la.min(lb), la.max(lb));
        if mx == 0 {
            return 1.0; // both empty: every measure scores exactly 1
        }
        if mn == 0 {
            return 0.0; // one side empty: every measure scores exactly 0
        }
        match self {
            // d ≥ |la − lb| (every edit changes the length by ≤ 1; a
            // transposition not at all).
            CharMeasure::DamerauLevenshtein | CharMeasure::Levenshtein => {
                1.0 - (mx - mn) as f64 / mx as f64
            }
            // Padded profiles hold lᵢ + Q − 1 grams; the block distance
            // is at least the profile-mass difference.
            CharMeasure::QGrams => {
                let (na, nb) = (la + Q - 1, lb + Q - 1);
                1.0 - na.abs_diff(nb) as f64 / (na + nb) as f64
            }
            // m ≤ min(la, lb) and (m − t)/m ≤ 1.
            CharMeasure::Jaro => (mn as f64 / la as f64 + mn as f64 / lb as f64 + 1.0) / 3.0,
            // Any alignment pays ≥ |la − lb| gaps at −2 each.
            CharMeasure::NeedlemanWunsch => {
                let worst = 2 * (mx - mn);
                (1.0 - worst as f64 / (2.0 * mx as f64)).clamp(0.0, 1.0)
            }
            // A common sub{sequence, string} is at most the shorter side.
            CharMeasure::LongestCommonSubsequence | CharMeasure::LongestCommonSubstring => {
                mn as f64 / mx as f64
            }
        }
    }

    /// An **exact** `O(|a| + |b|)` upper bound from the sorted character
    /// bags (counting filter): `common` shared characters cap the match
    /// count of every alignment-free term. `None` for measures without a
    /// useful bag bound (q-grams, whose profile lives on windows, not
    /// characters). Same exactness contract as
    /// [`CharMeasure::length_upper_bound`].
    ///
    /// ```
    /// use er_textsim::{CharMeasure, CharTable};
    ///
    /// let t = CharTable::build(["kitten", "sitting"]);
    /// let m = CharMeasure::Levenshtein;
    /// let ub = m.bag_upper_bound(t.bag(0), t.bag(1)).unwrap();
    /// assert!(m.similarity("kitten", "sitting") <= ub);
    /// assert!(CharMeasure::QGrams.bag_upper_bound(t.bag(0), t.bag(1)).is_none());
    /// ```
    pub fn bag_upper_bound(&self, bag_a: &[u32], bag_b: &[u32]) -> Option<f64> {
        if matches!(self, CharMeasure::QGrams) {
            return None;
        }
        self.bag_upper_bound_from_common(
            sorted_common_count(bag_a, bag_b),
            bag_a.len(),
            bag_b.len(),
        )
    }

    /// Whether [`CharMeasure::bag_upper_bound`] exists for this measure —
    /// i.e. whether a counting-filter index probe is worth paying for.
    ///
    /// ```
    /// use er_textsim::CharMeasure;
    ///
    /// assert!(CharMeasure::Levenshtein.has_bag_bound());
    /// assert!(!CharMeasure::QGrams.has_bag_bound());
    /// ```
    #[inline]
    pub fn has_bag_bound(&self) -> bool {
        !matches!(self, CharMeasure::QGrams)
    }

    /// The [`CharMeasure::bag_upper_bound`] formula evaluated from an
    /// externally computed multiset-intersection size — the
    /// **index-facing** form of the counting filter. A length-bucketed
    /// candidate index obtains `common` from its `(character, occurrence
    /// tier)` postings instead of a per-pair two-pointer merge; feeding
    /// the same integer into this method reproduces the per-pair bound
    /// **bit for bit**, so index-side filtering inherits the exactness
    /// contract unchanged (property-checked in `tests/proptests.rs`).
    ///
    /// `common` must be `sorted_common_count` of the two character bags;
    /// `la` / `lb` are the two character lengths.
    ///
    /// ```
    /// use er_textsim::{sorted_common_count, CharMeasure, CharTable};
    ///
    /// let t = CharTable::build(["kitten", "sitting"]);
    /// let m = CharMeasure::Levenshtein;
    /// let common = sorted_common_count(t.bag(0), t.bag(1));
    /// assert_eq!(
    ///     m.bag_upper_bound_from_common(common, 6, 7),
    ///     m.bag_upper_bound(t.bag(0), t.bag(1)),
    /// );
    /// ```
    pub fn bag_upper_bound_from_common(&self, common: usize, la: usize, lb: usize) -> Option<f64> {
        if matches!(self, CharMeasure::QGrams) {
            return None;
        }
        let (mn, mx) = (la.min(lb), la.max(lb));
        if mx == 0 {
            return Some(1.0);
        }
        if mn == 0 {
            return Some(0.0);
        }
        Some(match self {
            // Edits that fix the multiset difference: d ≥ max − common
            // (a transposition changes no multiset, so this holds for
            // the OSA variant too).
            CharMeasure::DamerauLevenshtein | CharMeasure::Levenshtein => {
                1.0 - (mx - common) as f64 / mx as f64
            }
            // Jaro matches are an injection between equal characters,
            // so m ≤ common; m = 0 scores exactly 0.
            CharMeasure::Jaro => {
                if common == 0 {
                    0.0
                } else {
                    (common as f64 / la as f64 + common as f64 / lb as f64 + 1.0) / 3.0
                }
            }
            // matches ≤ common, so aligned mismatches ≥ min − common on
            // top of the |la − lb| forced gaps.
            CharMeasure::NeedlemanWunsch => {
                let worst = (mn - common) + 2 * (mx - mn);
                (1.0 - worst as f64 / (2.0 * mx as f64)).clamp(0.0, 1.0)
            }
            // A common sub{sequence, string} uses each character once
            // per side, so its length is ≤ the multiset intersection.
            CharMeasure::LongestCommonSubsequence | CharMeasure::LongestCommonSubstring => {
                common as f64 / mx as f64
            }
            CharMeasure::QGrams => unreachable!("handled above"),
        })
    }
}

/// Reusable per-worker scratch of the character kernels: Myers pattern
/// masks, banded-DP rows, rolling DP rows, Jaro stamps and q-gram
/// profile maps. One instance per scoring worker (or per thread for the
/// `&str` API); after warm-up, no kernel allocates.
#[derive(Debug, Clone, Default)]
pub struct CharScratch {
    myers: MyersPattern,
    band: BandRows,
    prev_u: Vec<usize>,
    cur_u: Vec<usize>,
    prev2_u: Vec<usize>,
    prev_f: Vec<f64>,
    cur_f: Vec<f64>,
    /// Jaro "b used" stamps (generation-tagged, never cleared).
    b_used: Vec<u32>,
    used_gen: u32,
    matches_a: Vec<u32>,
    matches_b: Vec<u32>,
    qa: FxHashMap<u64, usize>,
    qb: FxHashMap<u64, usize>,
}

impl CharScratch {
    /// Fresh scratch (all buffers empty; they grow to the corpus
    /// high-water mark and stay there).
    pub fn new() -> Self {
        CharScratch::default()
    }

    /// Prepare the Myers bit-parallel pattern for `a` — the row-level
    /// half of a Levenshtein comparison, reusable against every
    /// candidate of the row via [`CharScratch::pattern_distance`].
    #[inline]
    pub fn set_pattern(&mut self, a: &[u32]) {
        self.myers.prepare(a);
    }

    /// Levenshtein distance of the pattern prepared by
    /// [`CharScratch::set_pattern`] to `b`.
    #[inline]
    pub fn pattern_distance(&mut self, b: &[u32]) -> usize {
        self.myers.distance(b)
    }

    /// Cutoff-bounded Damerau-Levenshtein (OSA) distance; see
    /// [`bitpar::osa_bounded`].
    #[inline]
    pub fn osa_bounded(&mut self, a: &[u32], b: &[u32], max_dist: usize) -> Option<usize> {
        bitpar::osa_bounded(a, b, max_dist, &mut self.band)
    }
}

/// Thread-local decode buffers + scratch backing the `&str` API.
struct StrScratch {
    a: Vec<u32>,
    b: Vec<u32>,
    s: CharScratch,
}

thread_local! {
    static STR_SCRATCH: RefCell<StrScratch> = RefCell::new(StrScratch {
        a: Vec::new(),
        b: Vec::new(),
        s: CharScratch::new(),
    });
}

/// Decode `a` and `b` once into the thread-local buffers and run `f`.
fn with_str_codes<R>(a: &str, b: &str, f: impl FnOnce(&[u32], &[u32], &mut CharScratch) -> R) -> R {
    STR_SCRATCH.with(|cell| {
        let w = &mut *cell.borrow_mut();
        w.a.clear();
        w.a.extend(a.chars().map(u32::from));
        w.b.clear();
        w.b.extend(b.chars().map(u32::from));
        f(&w.a, &w.b, &mut w.s)
    })
}

/// Levenshtein edit distance (insert/delete/substitute) on the Myers
/// bit-parallel kernel: `O(⌈min/64⌉·max)` word operations instead of the
/// classic `O(|a|·|b|)` cell grid, with identical results
/// (property-proven against [`levenshtein_distance_classic`]).
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    with_str_codes(a, b, |ca, cb, s| {
        if ca.len() <= cb.len() {
            s.set_pattern(ca);
            s.pattern_distance(cb)
        } else {
            s.set_pattern(cb);
            s.pattern_distance(ca)
        }
    })
}

/// The classic `O(|a|·|b|)`-time rolling-row Levenshtein dynamic
/// program — kept as the reference implementation the bit-parallel and
/// bounded kernels are verified (and benchmarked) against.
pub fn levenshtein_distance_classic(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `1 - d / max(|a|, |b|)`; 1.0 for two empty strings.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    with_str_codes(a, b, |ca, cb, s| {
        CharMeasure::Levenshtein.similarity_codes(ca, cb, s)
    })
}

/// Damerau-Levenshtein distance in the *optimal string alignment* variant
/// (adjacent transpositions, no substring edited twice) — the variant used
/// by Simmetrics.
pub fn damerau_levenshtein_distance(a: &str, b: &str) -> usize {
    with_str_codes(a, b, osa_distance_codes)
}

/// OSA distance over scalar slices with scratch-owned rolling rows.
fn osa_distance_codes(a: &[u32], b: &[u32], s: &mut CharScratch) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let cols = b.len() + 1;
    // Three rolling rows: i-2, i-1, i.
    s.prev2_u.clear();
    s.prev2_u.resize(cols, 0);
    s.prev_u.clear();
    s.prev_u.extend(0..cols);
    s.cur_u.clear();
    s.cur_u.resize(cols, 0);
    for i in 1..=a.len() {
        s.cur_u[0] = i;
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut d = (s.prev_u[j - 1] + cost)
                .min(s.prev_u[j] + 1)
                .min(s.cur_u[j - 1] + 1);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(s.prev2_u[j - 2] + 1);
            }
            s.cur_u[j] = d;
        }
        std::mem::swap(&mut s.prev2_u, &mut s.prev_u);
        std::mem::swap(&mut s.prev_u, &mut s.cur_u);
    }
    s.prev_u[b.len()]
}

/// Jaro similarity: `(m/|a| + m/|b| + (m-t)/m) / 3` with `m` common
/// characters within the match window and `t` half-transpositions.
pub fn jaro_similarity(a: &str, b: &str) -> f64 {
    with_str_codes(a, b, jaro_similarity_codes)
}

fn jaro_similarity_codes(a: &[u32], b: &[u32], s: &mut CharScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    if s.used_gen == u32::MAX {
        s.b_used.fill(0);
        s.used_gen = 0;
    }
    s.used_gen += 1;
    let gen = s.used_gen;
    if s.b_used.len() < b.len() {
        s.b_used.resize(b.len(), 0);
    }
    s.matches_a.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            if s.b_used[j] != gen && cb == ca {
                s.b_used[j] = gen;
                s.matches_a.push(ca);
                break;
            }
        }
    }
    let m = s.matches_a.len();
    if m == 0 {
        return 0.0;
    }
    s.matches_b.clear();
    s.matches_b.extend(
        b.iter()
            .zip(s.b_used.iter())
            .filter(|&(_, &u)| u == gen)
            .map(|(&c, _)| c),
    );
    let t = s
        .matches_a
        .iter()
        .zip(s.matches_b.iter())
        .filter(|(x, y)| x != y)
        .count() as f64
        / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Needleman-Wunch alignment scores (Simmetrics defaults): match 0,
/// mismatch −1, gap −2; similarity is the score normalized by the all-gap
/// worst case of the longer string: `1 − (−S) / (2·max(|a|,|b|))`.
pub fn needleman_wunsch_similarity(a: &str, b: &str) -> f64 {
    with_str_codes(a, b, |ca, cb, s| {
        needleman_wunsch_similarity_codes(ca, cb, s)
    })
}

fn needleman_wunsch_similarity_codes(a: &[u32], b: &[u32], s: &mut CharScratch) -> f64 {
    const MISMATCH: f64 = -1.0;
    const GAP: f64 = -2.0;
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let max_len = a.len().max(b.len());
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    s.prev_f.clear();
    s.prev_f.extend((0..=b.len()).map(|j| j as f64 * GAP));
    s.cur_f.clear();
    s.cur_f.resize(b.len() + 1, 0.0);
    for (i, ca) in a.iter().enumerate() {
        s.cur_f[0] = (i + 1) as f64 * GAP;
        for (j, cb) in b.iter().enumerate() {
            let sub = s.prev_f[j] + if ca == cb { 0.0 } else { MISMATCH };
            s.cur_f[j + 1] = sub.max(s.prev_f[j + 1] + GAP).max(s.cur_f[j] + GAP);
        }
        std::mem::swap(&mut s.prev_f, &mut s.cur_f);
    }
    let score = s.prev_f[b.len()]; // <= 0
    (1.0 - (-score) / (2.0 * max_len as f64)).clamp(0.0, 1.0)
}

/// q-grams distance (q = 3, Simmetrics-style `##` padding): block distance
/// between trigram profiles, normalized to a similarity by the total
/// profile mass: `1 − Σ|f_a − f_b| / (N_a + N_b)`.
pub fn qgrams_similarity(a: &str, b: &str) -> f64 {
    with_str_codes(a, b, qgrams_similarity_codes)
}

/// Pack one padded trigram window into a collision-free `u64` key:
/// scalar values are < 2²¹, so three fit. (Collision-free between
/// *windows* — the pad is the real `#`, which is the point: see
/// [`QGRAM_PAD`].)
#[inline]
fn qgram_key(c0: u32, c1: u32, c2: u32) -> u64 {
    ((c0 as u64) << 42) | ((c1 as u64) << 21) | c2 as u64
}

/// Accumulate the padded trigram profile of `codes` into `map`
/// (cleared first); returns the total gram mass. No allocation: windows
/// are read through an index accessor and keyed as packed `u64`s —
/// the old implementation built a `String` per window.
fn qgram_profile(codes: &[u32], map: &mut FxHashMap<u64, usize>) -> usize {
    map.clear();
    if codes.is_empty() {
        return 0;
    }
    let at = |i: usize| -> u32 {
        if i < Q - 1 || i >= Q - 1 + codes.len() {
            QGRAM_PAD
        } else {
            codes[i - (Q - 1)]
        }
    };
    let windows = codes.len() + Q - 1; // padded length − Q + 1
    for w in 0..windows {
        *map.entry(qgram_key(at(w), at(w + 1), at(w + 2)))
            .or_insert(0) += 1;
    }
    windows
}

fn qgrams_similarity_codes(a: &[u32], b: &[u32], s: &mut CharScratch) -> f64 {
    let na = qgram_profile(a, &mut s.qa);
    let nb = qgram_profile(b, &mut s.qb);
    if na + nb == 0 {
        return 1.0;
    }
    let mut diff = 0usize;
    for (g, &fa) in &s.qa {
        let fb = s.qb.get(g).copied().unwrap_or(0);
        diff += fa.abs_diff(fb);
    }
    for (g, &fb) in &s.qb {
        if !s.qa.contains_key(g) {
            diff += fb;
        }
    }
    1.0 - diff as f64 / (na + nb) as f64
}

/// Longest common subsequence length (characters need not be consecutive).
pub fn lcs_subsequence_len(a: &str, b: &str) -> usize {
    with_str_codes(a, b, lcs_subsequence_len_codes)
}

fn lcs_subsequence_len_codes(a: &[u32], b: &[u32], s: &mut CharScratch) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    s.prev_u.clear();
    s.prev_u.resize(b.len() + 1, 0);
    s.cur_u.clear();
    s.cur_u.resize(b.len() + 1, 0);
    for ca in a {
        for (j, cb) in b.iter().enumerate() {
            s.cur_u[j + 1] = if ca == cb {
                s.prev_u[j] + 1
            } else {
                s.prev_u[j + 1].max(s.cur_u[j])
            };
        }
        std::mem::swap(&mut s.prev_u, &mut s.cur_u);
    }
    s.prev_u[b.len()]
}

/// Longest common substring length (consecutive characters).
pub fn lcs_substring_len(a: &str, b: &str) -> usize {
    with_str_codes(a, b, lcs_substring_len_codes)
}

fn lcs_substring_len_codes(a: &[u32], b: &[u32], s: &mut CharScratch) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    s.prev_u.clear();
    s.prev_u.resize(b.len() + 1, 0);
    s.cur_u.clear();
    s.cur_u.resize(b.len() + 1, 0);
    let mut best = 0;
    for ca in a {
        for (j, cb) in b.iter().enumerate() {
            s.cur_u[j + 1] = if ca == cb { s.prev_u[j] + 1 } else { 0 };
            best = best.max(s.cur_u[j + 1]);
        }
        std::mem::swap(&mut s.prev_u, &mut s.cur_u);
        s.cur_u.fill(0);
    }
    best
}

/// `|lcs_str(a,b)| / max(|a|, |b|)`; 1.0 for two empty strings.
pub fn lcs_substring_similarity(a: &str, b: &str) -> f64 {
    with_str_codes(a, b, |ca, cb, s| {
        CharMeasure::LongestCommonSubstring.similarity_codes(ca, cb, s)
    })
}

/// Smith-Waterman local alignment similarity (Simmetrics defaults: match
/// +1, mismatch −2, gap −0.5), normalized by the shorter length:
/// `best_local_score / min(|a|, |b|)`.
///
/// Used as the secondary character-level measure inside Monge-Elkan.
pub fn smith_waterman_similarity(a: &str, b: &str) -> f64 {
    with_str_codes(a, b, smith_waterman_similarity_codes)
}

fn smith_waterman_similarity_codes(a: &[u32], b: &[u32], s: &mut CharScratch) -> f64 {
    const MATCH: f64 = 1.0;
    const MISMATCH: f64 = -2.0;
    const GAP: f64 = -0.5;
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    s.prev_f.clear();
    s.prev_f.resize(b.len() + 1, 0.0);
    s.cur_f.clear();
    s.cur_f.resize(b.len() + 1, 0.0);
    let mut best = 0.0f64;
    for ca in a {
        for (j, cb) in b.iter().enumerate() {
            let sub = s.prev_f[j] + if ca == cb { MATCH } else { MISMATCH };
            s.cur_f[j + 1] = sub
                .max(s.prev_f[j + 1] + GAP)
                .max(s.cur_f[j] + GAP)
                .max(0.0);
            best = best.max(s.cur_f[j + 1]);
        }
        std::mem::swap(&mut s.prev_f, &mut s.cur_f);
    }
    (best / a.len().min(b.len()) as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn levenshtein_classic_cases() {
        assert_eq!(levenshtein_distance("kitten", "sitting"), 3);
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", "abc"), 0);
        assert!((levenshtein_similarity("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < EPS);
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("", "x"), 0.0);
    }

    #[test]
    fn bitparallel_agrees_with_classic_reference() {
        let samples = [
            ("kitten", "sitting"),
            ("", ""),
            ("abc", ""),
            ("", "abc"),
            ("panasonic lumix dmc-fz8", "panasonic dmc fz8s lumix"),
            ("ΑΒΓΔΕ", "ΒΓΔΕΖ"),
        ];
        for (a, b) in samples {
            assert_eq!(
                levenshtein_distance(a, b),
                levenshtein_distance_classic(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn damerau_counts_transpositions() {
        assert_eq!(damerau_levenshtein_distance("ca", "ac"), 1);
        assert_eq!(levenshtein_distance("ca", "ac"), 2);
        assert_eq!(damerau_levenshtein_distance("abcdef", "abcdfe"), 1);
        // OSA variant: "ca" -> "abc" is 3 (no double-edit of a substring).
        assert_eq!(damerau_levenshtein_distance("ca", "abc"), 3);
        let dl = CharMeasure::DamerauLevenshtein.similarity("ca", "ac");
        assert!((dl - 0.5).abs() < EPS);
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook values.
        assert!((jaro_similarity("MARTHA", "MARHTA") - 0.944444444).abs() < 1e-6);
        assert!((jaro_similarity("DIXON", "DICKSONX") - 0.766666666).abs() < 1e-6);
        assert!((jaro_similarity("JELLYFISH", "SMELLYFISH") - 0.896296296).abs() < 1e-6);
        assert_eq!(jaro_similarity("abc", "abc"), 1.0);
        assert_eq!(jaro_similarity("abc", "xyz"), 0.0);
        assert_eq!(jaro_similarity("", ""), 1.0);
    }

    #[test]
    fn needleman_wunsch_properties() {
        assert_eq!(needleman_wunsch_similarity("abc", "abc"), 1.0);
        assert_eq!(needleman_wunsch_similarity("", ""), 1.0);
        assert_eq!(needleman_wunsch_similarity("", "abc"), 0.0);
        // One substitution in three characters: score -1, norm 1 - 1/6.
        assert!((needleman_wunsch_similarity("abc", "abd") - (1.0 - 1.0 / 6.0)).abs() < EPS);
        // Completely different strings still ≥ 0.
        let s = needleman_wunsch_similarity("aaaa", "zzzz");
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn qgrams_profile_distance() {
        assert_eq!(qgrams_similarity("abc", "abc"), 1.0);
        assert_eq!(qgrams_similarity("", ""), 1.0);
        assert_eq!(qgrams_similarity("", "abc"), 0.0);
        let s = qgrams_similarity("night", "nacht");
        assert!(s > 0.0 && s < 1.0);
        // Symmetric.
        assert!((s - qgrams_similarity("nacht", "night")).abs() < EPS);
    }

    #[test]
    fn qgram_keys_are_collision_free_for_scalars() {
        // All three window positions stay within their 21-bit lanes
        // (the lane invariant itself is a compile-time assert).
        let max = char::MAX as u32;
        assert_ne!(qgram_key(max, 0, 0), qgram_key(0, max, 0));
        assert_ne!(qgram_key(0, max, 0), qgram_key(0, 0, max));
        assert_ne!(
            qgram_key(QGRAM_PAD, QGRAM_PAD, 'a' as u32),
            qgram_key(QGRAM_PAD, 'a' as u32, QGRAM_PAD)
        );
    }

    #[test]
    fn qgrams_pad_merges_with_real_hash_chars() {
        // The Simmetrics `#` padding convention survives the u64-key
        // rewrite: a real `#` in the text merges with padding grams,
        // exactly as the historical String-keyed profiles behaved.
        // "a#" vs "a": profiles share {##a, #a#} plus the merged
        // a##/a#-tail overlap — 6 of 7 total mass.
        let s = qgrams_similarity("a#", "a");
        assert!((s - 6.0 / 7.0).abs() < EPS, "got {s}");
    }

    #[test]
    fn lcs_subsequence_known() {
        assert_eq!(lcs_subsequence_len("ABCBDAB", "BDCABA"), 4); // BCAB/BDAB
        assert_eq!(lcs_subsequence_len("abc", ""), 0);
        let lcs = CharMeasure::LongestCommonSubsequence.similarity("ABCBDAB", "BDCABA");
        assert!((lcs - 4.0 / 7.0).abs() < EPS);
    }

    #[test]
    fn lcs_substring_known() {
        assert_eq!(lcs_substring_len("abcdxyz", "xyzabcd"), 4); // "abcd"
        assert_eq!(lcs_substring_len("zzz", "aaa"), 0);
        assert!((lcs_substring_similarity("abcdxyz", "xyzabcd") - 4.0 / 7.0).abs() < EPS);
        assert_eq!(lcs_substring_similarity("", ""), 1.0);
    }

    #[test]
    fn smith_waterman_local_alignment() {
        assert_eq!(smith_waterman_similarity("abc", "abc"), 1.0);
        // The common "bcd" core aligns locally despite different context.
        let s = smith_waterman_similarity("xbcdy", "zbcdw");
        assert!((s - 3.0 / 5.0).abs() < EPS);
        assert_eq!(smith_waterman_similarity("", "abc"), 0.0);
    }

    #[test]
    fn all_measures_are_bounded_symmetric_reflexive() {
        let samples = [
            ("iphone 12 pro", "iphone 12"),
            ("abc", "xyz"),
            ("data", "daat"),
            ("", "nonempty"),
            ("same", "same"),
        ];
        for m in CharMeasure::all() {
            for (a, b) in samples {
                let s = m.similarity(a, b);
                assert!((0.0..=1.0).contains(&s), "{} out of range: {s}", m.name());
                let rev = m.similarity(b, a);
                assert!((s - rev).abs() < EPS, "{} not symmetric", m.name());
            }
            assert!(
                (m.similarity("reflexive", "reflexive") - 1.0).abs() < EPS,
                "{} not reflexive",
                m.name()
            );
        }
    }

    #[test]
    fn upper_bounds_dominate_similarities() {
        let samples = [
            ("iphone 12 pro", "iphone 12"),
            ("abc", "xyz"),
            ("data", "daat"),
            ("", "nonempty"),
            ("", ""),
            ("kitten", "sitting"),
            ("aaaa", "aa"),
        ];
        for m in CharMeasure::all() {
            for (a, b) in samples {
                let sim = m.similarity(a, b);
                let (la, lb) = (a.chars().count(), b.chars().count());
                let len_ub = m.length_upper_bound(la, lb);
                assert!(
                    sim <= len_ub,
                    "{}: length bound {len_ub} < sim {sim} for {a:?} vs {b:?}",
                    m.name()
                );
                let bag = |s: &str| -> Vec<u32> {
                    let mut v: Vec<u32> = s.chars().map(u32::from).collect();
                    v.sort_unstable();
                    v
                };
                if let Some(bag_ub) = m.bag_upper_bound(&bag(a), &bag(b)) {
                    assert!(
                        sim <= bag_ub,
                        "{}: bag bound {bag_ub} < sim {sim} for {a:?} vs {b:?}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn codes_path_is_bit_identical_to_str_path() {
        let samples = [("data", "daat"), ("kitten", "sitting"), ("", "x")];
        let mut s = CharScratch::new();
        for m in CharMeasure::all() {
            for (a, b) in samples {
                let ca: Vec<u32> = a.chars().map(u32::from).collect();
                let cb: Vec<u32> = b.chars().map(u32::from).collect();
                assert_eq!(
                    m.similarity_codes(&ca, &cb, &mut s).to_bits(),
                    m.similarity(a, b).to_bits(),
                    "{} on {a:?} vs {b:?}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn roster_has_seven() {
        assert_eq!(CharMeasure::all().len(), 7);
    }
}
