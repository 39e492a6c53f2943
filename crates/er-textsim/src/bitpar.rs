//! Bit-parallel and bound-driven edit-distance kernels.
//!
//! The all-pairs character branches of the pipeline score `n₁ × n₂`
//! string pairs; the classic `O(|a|·|b|)` dynamic program is the hottest
//! loop of the whole reproduction. Two replacements:
//!
//! * [`MyersPattern`] — Myers' bit-parallel Levenshtein (1999), in the
//!   multi-block formulation of Hyyrö (2003): the DP column is packed
//!   into `⌈|a|/64⌉` machine words and one text character advances the
//!   whole column in a handful of word operations, so the cost drops to
//!   `O(⌈|a|/64⌉·|b|)`. The pattern's per-character bit masks are
//!   prepared **once** and reused against every text — exactly the
//!   all-pairs access shape (one left row vs every right candidate).
//! * [`osa_bounded`] — an Ukkonen-style banded Damerau-Levenshtein DP
//!   that evaluates only cells within `max_dist` of the diagonal and
//!   abandons the pair as soon as the distance provably exceeds
//!   `max_dist`. The char scorer derives `max_dist` from a top-k sink's
//!   admission bound, turning "cannot enter the heap anyway" into an
//!   early exit.
//!
//! All kernels operate on `&[u32]` Unicode scalar values (see
//! [`CharTable`](crate::chartable::CharTable)) and return exactly the
//! same integer distances as the classic dynamic programs — equivalence
//! is property-proven in `tests/proptests.rs`, including patterns
//! longer than one 64-bit block and `max_dist` edge cases.

use er_core::FxHashMap;

/// A prepared Myers bit-parallel pattern: per-character match masks over
/// `⌈m/64⌉` blocks, reusable against any number of texts.
///
/// ```
/// use er_textsim::MyersPattern;
///
/// let mut p = MyersPattern::new();
/// let kitten: Vec<u32> = "kitten".chars().map(u32::from).collect();
/// let sitting: Vec<u32> = "sitting".chars().map(u32::from).collect();
/// p.prepare(&kitten);
/// assert_eq!(p.distance(&sitting), 3);
/// assert_eq!(p.distance(&kitten), 0, "patterns are reusable");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MyersPattern {
    /// Pattern length in scalar values.
    m: usize,
    /// `⌈m/64⌉` (0 for the empty pattern).
    blocks: usize,
    /// Scalar value → start index of its block run in `slab`.
    peq: FxHashMap<u32, u32>,
    /// Match-mask blocks, `blocks` consecutive words per distinct char.
    slab: Vec<u64>,
    /// Working vertical-delta vectors, reused across `distance` calls.
    vp: Vec<u64>,
    vn: Vec<u64>,
}

impl MyersPattern {
    /// An empty pattern holder (prepare before use).
    pub fn new() -> Self {
        MyersPattern::default()
    }

    /// Prepare the match masks of `pattern`, replacing any previous
    /// pattern. Cost: `O(|pattern| + distinct chars)`; no allocation
    /// beyond the high-water mark of previous patterns.
    pub fn prepare(&mut self, pattern: &[u32]) {
        self.m = pattern.len();
        self.blocks = pattern.len().div_ceil(64);
        self.peq.clear();
        self.slab.clear();
        for (i, &c) in pattern.iter().enumerate() {
            let at = match self.peq.get(&c) {
                Some(&at) => at as usize,
                None => {
                    let at = self.slab.len();
                    self.slab.resize(at + self.blocks, 0);
                    self.peq.insert(c, at as u32);
                    at
                }
            };
            self.slab[at + i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Levenshtein distance of the prepared pattern to `text` in
    /// `O(⌈m/64⌉·|text|)` word operations.
    pub fn distance(&mut self, text: &[u32]) -> usize {
        if self.m == 0 {
            return text.len();
        }
        if text.is_empty() {
            return self.m;
        }
        let blocks = self.blocks;
        self.vp.clear();
        self.vp.resize(blocks, !0u64);
        self.vn.clear();
        self.vn.resize(blocks, 0u64);
        let mut score = self.m;
        let last = blocks - 1;
        let last_mask = 1u64 << ((self.m - 1) % 64);
        for &c in text {
            let eq_at = self.peq.get(&c).map(|&at| at as usize);
            // Horizontal deltas crossing the row-0 boundary: D[0][j] −
            // D[0][j−1] = +1.
            let mut hp_carry = 1u64;
            let mut hn_carry = 0u64;
            for b in 0..blocks {
                let eq = eq_at.map_or(0, |at| self.slab[at + b]);
                let vp = self.vp[b];
                let vn = self.vn[b];
                let x = eq | hn_carry;
                let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x | vn;
                let mut hp = vn | !(d0 | vp);
                let mut hn = vp & d0;
                if b == last {
                    score += usize::from(hp & last_mask != 0);
                    score -= usize::from(hn & last_mask != 0);
                }
                let hp_out = hp >> 63;
                let hn_out = hn >> 63;
                hp = (hp << 1) | hp_carry;
                hn = (hn << 1) | hn_carry;
                self.vp[b] = hn | !(d0 | hp);
                self.vn[b] = hp & d0;
                hp_carry = hp_out;
                hn_carry = hn_out;
            }
        }
        score
    }
}

/// Reusable row buffers for the banded dynamic programs (per worker —
/// the bounded kernels never allocate once the high-water mark is
/// reached).
#[derive(Debug, Clone, Default)]
pub struct BandRows {
    prev: Vec<usize>,
    cur: Vec<usize>,
    prev2: Vec<usize>,
}

/// Damerau-Levenshtein distance (optimal string alignment variant, as
/// [`damerau_levenshtein_distance`](crate::charlevel::damerau_levenshtein_distance))
/// if it is `≤ max_dist`, `None` otherwise — Ukkonen's banded DP: only
/// cells within `max_dist` of the diagonal exist, and the pair is
/// abandoned once the band rows exceed the cutoff. Cost
/// `O((2·max_dist + 1) · |a|)`.
///
/// The early exit requires **two** consecutive band rows above the
/// cutoff: a transposition bridges from row `i−2` directly to row `i`,
/// so one bad row alone does not prove the tail unreachable.
///
/// ```
/// use er_textsim::{osa_bounded, BandRows};
///
/// let a: Vec<u32> = "ca".chars().map(u32::from).collect();
/// let b: Vec<u32> = "ac".chars().map(u32::from).collect();
/// let mut rows = BandRows::default();
/// assert_eq!(osa_bounded(&a, &b, 1, &mut rows), Some(1));
/// assert_eq!(osa_bounded(&a, &b, 0, &mut rows), None);
/// ```
pub fn osa_bounded(a: &[u32], b: &[u32], max_dist: usize, rows: &mut BandRows) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > max_dist {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    if m == 0 {
        return Some(n);
    }
    let inf = max_dist.saturating_add(1);
    rows.prev2.clear();
    rows.prev2.resize(m + 1, inf);
    rows.prev.clear();
    rows.prev
        .extend((0..=m).map(|j| if j <= max_dist { j } else { inf }));
    rows.cur.clear();
    rows.cur.resize(m + 1, inf);
    let mut prev_row_min = 0usize; // row 0's minimum is 0
    for i in 1..=n {
        let lo = i.saturating_sub(max_dist).max(1);
        let hi = (i + max_dist).min(m);
        if lo > hi {
            return None;
        }
        rows.cur[lo - 1] = if lo == 1 && i <= max_dist { i } else { inf };
        let mut row_min = inf;
        for j in lo..=hi {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut d = (rows.prev[j - 1].saturating_add(cost))
                .min(rows.prev[j].saturating_add(1))
                .min(rows.cur[j - 1].saturating_add(1));
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(rows.prev2[j - 2].saturating_add(1));
            }
            let d = d.min(inf);
            rows.cur[j] = d;
            row_min = row_min.min(d);
        }
        if hi < m {
            rows.cur[hi + 1] = inf;
        }
        if row_min > max_dist && prev_row_min > max_dist {
            return None;
        }
        prev_row_min = row_min;
        std::mem::swap(&mut rows.prev2, &mut rows.prev);
        std::mem::swap(&mut rows.prev, &mut rows.cur);
    }
    (rows.prev[m] <= max_dist).then_some(rows.prev[m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charlevel::{damerau_levenshtein_distance, levenshtein_distance_classic};

    fn codes(s: &str) -> Vec<u32> {
        s.chars().map(u32::from).collect()
    }

    #[test]
    fn myers_matches_classic_on_known_cases() {
        let cases = [
            ("kitten", "sitting"),
            ("", "abc"),
            ("abc", ""),
            ("", ""),
            ("abc", "abc"),
            ("flaw", "lawn"),
            ("βßΩ漢", "ßΩ漢x"),
        ];
        let mut p = MyersPattern::new();
        for (a, b) in cases {
            p.prepare(&codes(a));
            assert_eq!(
                p.distance(&codes(b)),
                levenshtein_distance_classic(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn myers_multi_block_patterns() {
        // Patterns of 64, 65, 130 chars force 1, 2 and 3 blocks.
        let base: String = ('a'..='z').cycle().take(130).collect();
        for plen in [63usize, 64, 65, 100, 130] {
            let a: String = base.chars().take(plen).collect();
            let b: String = base.chars().skip(3).take(plen).collect();
            let mut p = MyersPattern::new();
            p.prepare(&codes(&a));
            assert_eq!(
                p.distance(&codes(&b)),
                levenshtein_distance_classic(&a, &b),
                "pattern length {plen}"
            );
        }
    }

    #[test]
    fn osa_bounded_agrees_with_classic() {
        let mut rows = BandRows::default();
        for (a, b) in [("ca", "ac"), ("ca", "abc"), ("abcdef", "abcdfe"), ("x", "")] {
            let d = damerau_levenshtein_distance(a, b);
            for max_dist in 0..=(d + 2) {
                let got = osa_bounded(&codes(a), &codes(b), max_dist, &mut rows);
                if max_dist >= d {
                    assert_eq!(got, Some(d), "{a:?} vs {b:?} @ {max_dist}");
                } else {
                    assert_eq!(got, None, "{a:?} vs {b:?} @ {max_dist}");
                }
            }
        }
    }

    #[test]
    fn osa_transposition_survives_single_bad_row() {
        // A transposition bridges row i−2 → i; a one-row early exit
        // would wrongly abandon this pair at tight cutoffs.
        let a = codes("ab");
        let b = codes("ba");
        let mut rows = BandRows::default();
        assert_eq!(osa_bounded(&a, &b, 1, &mut rows), Some(1));
    }
}
