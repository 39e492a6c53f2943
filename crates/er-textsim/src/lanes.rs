//! Lane-parallel (SWAR / array-of-lanes) character kernels.
//!
//! The scalar scoring engine walks one candidate at a time, and each
//! candidate's kernel is a *serial dependency chain*: the Myers step for
//! text position `t` cannot start before position `t − 1` finished, and
//! a bound formula's float ops depend on each other. One left row,
//! however, faces hundreds of independent right candidates — so this
//! module restructures the hot kernels to advance [`LANE_WIDTH`]
//! candidates per step through fixed-width lane arrays (`[u64; L]`,
//! `[f64; L]`). The lanes are fully independent, which buys
//! instruction-level parallelism on any core and lets LLVM
//! autovectorize the regular inner loops — with **no** nightly
//! `core::simd`, no intrinsics, and no target-feature gates.
//!
//! # Exactness contract
//!
//! Every kernel here is **bit-identical** to its scalar counterpart,
//! by construction rather than by tolerance:
//!
//! * [`MyersBatch`] runs the exact
//!   [`MyersPattern`](crate::bitpar::MyersPattern) block recurrence per
//!   lane — integer/bit operations only, so any evaluation order
//!   reproduces the same distances.
//! * The batched bound helpers ([`length_upper_bounds`],
//!   [`bag_upper_bounds_from_common`]) evaluate the *same* per-candidate
//!   `f64` formula as [`CharMeasure::length_upper_bound`] /
//!   [`CharMeasure::bag_upper_bound_from_common`], one candidate per
//!   lane. Each lane performs the identical sequence of float operations
//!   the scalar call performs, and IEEE-754 ops are deterministic, so
//!   the lane result equals the scalar result bit for bit (the property
//!   suite `er-pipeline/tests/kernel_props.rs` pins this for every
//!   measure, including multi-block patterns and ragged tails).
//!
//! The equivalences are proven in this crate's `tests/proptests.rs` and
//! re-proven end-to-end (graph bits) in `er-pipeline`.

use er_core::FxHashMap;

use crate::charlevel::CharMeasure;
use crate::chartable::sorted_common_count;

/// Number of candidates one lane step advances. Eight `u64` lanes fill a
/// 512-bit vector register and keep eight independent dependency chains
/// in flight on narrower cores; the batch helpers accept any slice up to
/// this width, so ragged tails (a chunk shorter than `LANE_WIDTH`) are
/// ordinary inputs, not special cases.
pub const LANE_WIDTH: usize = 8;

/// A multi-text Myers bit-parallel Levenshtein batch: one prepared
/// pattern (the left row) scored against up to [`LANE_WIDTH`] texts
/// (right candidates) at once.
///
/// The per-character match masks are prepared once per row, exactly as
/// [`MyersPattern`](crate::bitpar::MyersPattern) prepares them; the
/// distance loop then advances all lanes position by position, each lane
/// executing the identical multi-block recurrence the scalar kernel
/// executes. Lanes whose text is exhausted simply stop stepping — their
/// score is already final — so texts of different lengths batch
/// together without padding.
///
/// ```
/// use er_textsim::lanes::MyersBatch;
///
/// let codes = |s: &str| -> Vec<u32> { s.chars().map(u32::from).collect() };
/// let kitten = codes("kitten");
/// let texts = [codes("sitting"), codes("kitten"), codes("")];
/// let refs: Vec<&[u32]> = texts.iter().map(Vec::as_slice).collect();
/// let mut batch = MyersBatch::new();
/// batch.prepare(&kitten);
/// let mut out = [0usize; 3];
/// batch.distances(&refs, &mut out);
/// assert_eq!(out, [3, 0, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct MyersBatch {
    /// Pattern length in scalar values.
    m: usize,
    /// `⌈m/64⌉` (0 for the empty pattern).
    blocks: usize,
    /// Scalar value → start index of its block run in `slab`.
    peq: FxHashMap<u32, u32>,
    /// Match-mask blocks, `blocks` consecutive words per distinct char.
    slab: Vec<u64>,
    /// Direct-mapped single-block masks for ASCII scalars — the same
    /// mask bits `slab` holds, just reachable without hashing. Only
    /// maintained for single-block patterns (the hot case); the gather
    /// loop falls back to `peq` for scalars ≥ 128.
    ascii: [u64; 128],
    /// Lane-interleaved vertical deltas: block `b` of lane `l` lives at
    /// `b * LANE_WIDTH + l`, so the per-block lane loop walks one
    /// contiguous `[u64; LANE_WIDTH]` window.
    vp: Vec<u64>,
    vn: Vec<u64>,
}

impl Default for MyersBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl MyersBatch {
    /// An empty batch holder (prepare before use).
    pub fn new() -> Self {
        MyersBatch {
            m: 0,
            blocks: 0,
            peq: FxHashMap::default(),
            slab: Vec::new(),
            ascii: [0u64; 128],
            vp: Vec::new(),
            vn: Vec::new(),
        }
    }

    /// Prepare the match masks of `pattern`, replacing any previous
    /// pattern — the same masks, bit for bit, that
    /// [`MyersPattern::prepare`](crate::bitpar::MyersPattern::prepare)
    /// builds.
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
        if self.blocks <= 1 {
            self.ascii = [0u64; 128];
            for (i, &c) in pattern.iter().enumerate() {
                if c < 128 {
                    self.ascii[c as usize] |= 1u64 << i;
                }
            }
        }
    }

    /// Levenshtein distances of the prepared pattern to each text in
    /// `texts` (at most [`LANE_WIDTH`] of them), written to the first
    /// `texts.len()` slots of `out`. Equal to calling
    /// [`MyersPattern::distance`](crate::bitpar::MyersPattern::distance)
    /// per text, for any mix of lengths (ragged tails included).
    pub fn distances(&mut self, texts: &[&[u32]], out: &mut [usize]) {
        let n = texts.len();
        assert!(n <= LANE_WIDTH, "at most {LANE_WIDTH} texts per batch");
        assert!(out.len() >= n, "output slice too short");
        if self.m == 0 {
            for l in 0..n {
                out[l] = texts[l].len();
            }
            return;
        }
        let mut lens = [0usize; LANE_WIDTH];
        let mut max_len = 0usize;
        for l in 0..n {
            lens[l] = texts[l].len();
            max_len = max_len.max(lens[l]);
        }
        let mut score = [self.m; LANE_WIDTH];
        if max_len == 0 {
            out[..n].copy_from_slice(&score[..n]);
            return;
        }
        if self.blocks == 1 {
            self.distances_single_block(texts, n, &lens, &mut score);
            out[..n].copy_from_slice(&score[..n]);
            return;
        }
        let blocks = self.blocks;
        self.vp.clear();
        self.vp.resize(blocks * LANE_WIDTH, !0u64);
        self.vn.clear();
        self.vn.resize(blocks * LANE_WIDTH, 0u64);
        let last = blocks - 1;
        let last_mask = 1u64 << ((self.m - 1) % 64);
        // One per-lane match-mask run per step: lane `l` looks up its own
        // text character, then every lane advances through the shared
        // block recurrence. The eight chains are independent, so the
        // core overlaps their latencies instead of serializing them.
        let mut eq_at = [usize::MAX; LANE_WIDTH];
        // An index loop on purpose: `t` walks every lane's text at once
        // (ragged lengths), not one iterable.
        #[allow(clippy::needless_range_loop)]
        for t in 0..max_len {
            for l in 0..n {
                eq_at[l] = if t < lens[l] {
                    self.peq
                        .get(&texts[l][t])
                        .map_or(usize::MAX, |&at| at as usize)
                } else {
                    usize::MAX
                };
            }
            // Horizontal deltas crossing the row-0 boundary:
            // D[0][j] − D[0][j−1] = +1, per lane.
            let mut hp_carry = [1u64; LANE_WIDTH];
            let mut hn_carry = [0u64; LANE_WIDTH];
            for b in 0..blocks {
                let base = b * LANE_WIDTH;
                for l in 0..n {
                    if t >= lens[l] {
                        continue;
                    }
                    let eq = if eq_at[l] == usize::MAX {
                        0
                    } else {
                        self.slab[eq_at[l] + b]
                    };
                    let vp = self.vp[base + l];
                    let vn = self.vn[base + l];
                    let x = eq | hn_carry[l];
                    let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x | vn;
                    let mut hp = vn | !(d0 | vp);
                    let mut hn = vp & d0;
                    if b == last {
                        score[l] += usize::from(hp & last_mask != 0);
                        score[l] -= usize::from(hn & last_mask != 0);
                    }
                    let hp_out = hp >> 63;
                    let hn_out = hn >> 63;
                    hp = (hp << 1) | hp_carry[l];
                    hn = (hn << 1) | hn_carry[l];
                    self.vp[base + l] = hn | !(d0 | hp);
                    self.vn[base + l] = hp & d0;
                    hp_carry[l] = hp_out;
                    hn_carry[l] = hn_out;
                }
            }
        }
        out[..n].copy_from_slice(&score[..n]);
    }

    /// The hot path: patterns of at most 64 scalar values keep every
    /// lane's column state (`vp`, `vn`, score) in registers. Two passes:
    /// first each lane's per-character match masks are gathered into a
    /// lane-interleaved buffer (tight per-lane loops — the hash lookups
    /// pipeline without the recurrence in between), then the recurrence
    /// runs branch-free over all lanes up to the shortest lane length
    /// (the shape LLVM autovectorizes) and finishes the ragged tails one
    /// lane at a time in scalar registers. Both halves execute exactly
    /// the single-block Myers recurrence per lane (integer/bit ops
    /// only), so the split changes scheduling, never a result bit.
    fn distances_single_block(
        &mut self,
        texts: &[&[u32]],
        n: usize,
        lens: &[usize; LANE_WIDTH],
        score: &mut [usize; LANE_WIDTH],
    ) {
        let min_len = lens[..n].iter().copied().min().unwrap_or(0);
        // `vp` doubles as the eq-mask scratch: lane `l`'s mask for text
        // position `t` lives at `t * LANE_WIDTH + l` (tail positions are
        // stored per lane past the interleaved region's layout, same
        // indexing — slots of exhausted lanes just stay zero).
        let max_len = lens[..n].iter().copied().max().unwrap_or(0);
        self.vp.clear();
        self.vp.resize(max_len * LANE_WIDTH, 0u64);
        let eq_buf = &mut self.vp;
        for l in 0..n {
            let text = texts[l];
            for (t, &c) in text.iter().enumerate() {
                eq_buf[t * LANE_WIDTH + l] = if c < 128 {
                    self.ascii[c as usize]
                } else {
                    self.peq.get(&c).map_or(0, |&at| self.slab[at as usize])
                };
            }
        }
        let last_mask = 1u64 << ((self.m - 1) % 64);
        let mut vp = [!0u64; LANE_WIDTH];
        let mut vn = [0u64; LANE_WIDTH];
        for t in 0..min_len {
            let eq = &eq_buf[t * LANE_WIDTH..(t + 1) * LANE_WIDTH];
            for l in 0..n {
                let (vpl, vnl) = (vp[l], vn[l]);
                let x = eq[l];
                let d0 = ((x & vpl).wrapping_add(vpl) ^ vpl) | x | vnl;
                let hp = vnl | !(d0 | vpl);
                let hn = vpl & d0;
                score[l] += usize::from(hp & last_mask != 0);
                score[l] -= usize::from(hn & last_mask != 0);
                let hp2 = (hp << 1) | 1;
                let hn2 = hn << 1;
                vp[l] = hn2 | !(d0 | hp2);
                vn[l] = hp2 & d0;
            }
        }
        for l in 0..n {
            let (mut vpl, mut vnl, mut s) = (vp[l], vn[l], score[l]);
            for t in min_len..lens[l] {
                let x = eq_buf[t * LANE_WIDTH + l];
                let d0 = ((x & vpl).wrapping_add(vpl) ^ vpl) | x | vnl;
                let hp = vnl | !(d0 | vpl);
                let hn = vpl & d0;
                s += usize::from(hp & last_mask != 0);
                s -= usize::from(hn & last_mask != 0);
                let hp2 = (hp << 1) | 1;
                let hn2 = hn << 1;
                vpl = hn2 | !(d0 | hp2);
                vnl = hp2 & d0;
            }
            score[l] = s;
        }
    }
}

/// Batched [`CharMeasure::length_upper_bound`]: the bound of `(la,
/// lens[i])` written to `out[i]` for every lane. The measure `match` is
/// resolved once; each lane then evaluates the identical float formula
/// the scalar method evaluates, so `out[i]` equals
/// `measure.length_upper_bound(la, lens[i])` bit for bit.
///
/// ```
/// use er_textsim::lanes::length_upper_bounds;
/// use er_textsim::CharMeasure;
///
/// let m = CharMeasure::Levenshtein;
/// let lens = [4usize, 6, 0];
/// let mut out = [0.0f64; 3];
/// length_upper_bounds(m, 6, &lens, &mut out);
/// for (i, &len) in lens.iter().enumerate() {
///     assert_eq!(out[i].to_bits(), m.length_upper_bound(6, len).to_bits());
/// }
/// ```
pub fn length_upper_bounds(measure: CharMeasure, la: usize, lens: &[usize], out: &mut [f64]) {
    assert!(out.len() >= lens.len(), "output slice too short");
    for (o, &lb) in out.iter_mut().zip(lens) {
        *o = measure.length_upper_bound(la, lb);
    }
}

/// Batched counting-filter screen:
/// [`CharMeasure::bag_upper_bound_from_common`] per lane, with
/// `f64::INFINITY` standing in for the measures without a bag bound
/// (q-grams) — an infinite upper bound never falls below an admission
/// bound, which is exactly the scalar `None` behaviour.
///
/// `commons[i]` must be the multiset-intersection size of the probe bag
/// and candidate `i`'s bag (see [`sorted_common_counts`]); `la` /
/// `lens[i]` the two character lengths.
pub fn bag_upper_bounds_from_common(
    measure: CharMeasure,
    commons: &[usize],
    la: usize,
    lens: &[usize],
    out: &mut [f64],
) {
    assert!(
        commons.len() == lens.len() && out.len() >= lens.len(),
        "lane slices disagree"
    );
    for l in 0..lens.len() {
        out[l] = measure
            .bag_upper_bound_from_common(commons[l], la, lens[l])
            .unwrap_or(f64::INFINITY);
    }
}

/// Batched [`sorted_common_count`]: the multiset-intersection size of
/// `bag_a` with each candidate bag. The per-lane two-pointer merge is
/// data-dependent (it cannot be a fixed-width SWAR loop), but hoisting
/// it out of the scoring loop lets the screen run bound checks over
/// whole lanes at once.
pub fn sorted_common_counts(bag_a: &[u32], bags: &[&[u32]], out: &mut [usize]) {
    assert!(out.len() >= bags.len(), "output slice too short");
    for (o, bag_b) in out.iter_mut().zip(bags) {
        *o = sorted_common_count(bag_a, bag_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpar::MyersPattern;

    fn codes(s: &str) -> Vec<u32> {
        s.chars().map(u32::from).collect()
    }

    #[test]
    fn batch_matches_scalar_on_known_cases() {
        let pattern = codes("kitten");
        let texts = [
            codes("sitting"),
            codes("kitten"),
            codes(""),
            codes("k"),
            codes("βßΩ漢"),
        ];
        let refs: Vec<&[u32]> = texts.iter().map(Vec::as_slice).collect();
        let mut batch = MyersBatch::new();
        batch.prepare(&pattern);
        let mut got = [0usize; LANE_WIDTH];
        batch.distances(&refs, &mut got);
        let mut p = MyersPattern::new();
        p.prepare(&pattern);
        for (l, t) in texts.iter().enumerate() {
            assert_eq!(got[l], p.distance(t), "lane {l}");
        }
    }

    #[test]
    fn batch_handles_empty_pattern_and_multi_block() {
        let mut batch = MyersBatch::new();
        batch.prepare(&[]);
        let texts = [codes("abc"), codes("")];
        let refs: Vec<&[u32]> = texts.iter().map(Vec::as_slice).collect();
        let mut got = [0usize; 2];
        batch.distances(&refs, &mut got);
        assert_eq!(got, [3, 0]);

        // A 130-char pattern forces 3 blocks and inter-block carries.
        let base: String = ('a'..='z').cycle().take(130).collect();
        let pattern = codes(&base);
        let shifted: String = base.chars().skip(3).chain("xyz".chars()).collect();
        let texts = [codes(&shifted), codes(&base), codes("short")];
        let refs: Vec<&[u32]> = texts.iter().map(Vec::as_slice).collect();
        batch.prepare(&pattern);
        let mut got = [0usize; 3];
        batch.distances(&refs, &mut got);
        let mut p = MyersPattern::new();
        p.prepare(&pattern);
        for (l, t) in texts.iter().enumerate() {
            assert_eq!(got[l], p.distance(t), "multi-block lane {l}");
        }
    }

    #[test]
    fn bound_batches_match_scalar_bits() {
        let m = CharMeasure::NeedlemanWunsch;
        let bag_a = codes("abbey");
        let mut sorted_a = bag_a.clone();
        sorted_a.sort_unstable();
        let bags = [codes("abba"), codes(""), codes("zzz")];
        let mut sorted_bags: Vec<Vec<u32>> = bags.to_vec();
        for b in &mut sorted_bags {
            b.sort_unstable();
        }
        let refs: Vec<&[u32]> = sorted_bags.iter().map(Vec::as_slice).collect();
        let lens: Vec<usize> = bags.iter().map(Vec::len).collect();

        let mut commons = [0usize; 3];
        sorted_common_counts(&sorted_a, &refs, &mut commons);
        let mut bag_ub = [0f64; 3];
        bag_upper_bounds_from_common(m, &commons, bag_a.len(), &lens, &mut bag_ub);
        let mut len_ub = [0f64; 3];
        length_upper_bounds(m, bag_a.len(), &lens, &mut len_ub);
        for l in 0..3 {
            assert_eq!(
                len_ub[l].to_bits(),
                m.length_upper_bound(bag_a.len(), lens[l]).to_bits()
            );
            assert_eq!(
                bag_ub[l].to_bits(),
                m.bag_upper_bound(&sorted_a, &sorted_bags[l])
                    .unwrap()
                    .to_bits()
            );
        }
        // The q-grams lane screen is a no-op bound, like the scalar None.
        let mut qg = [0f64; 3];
        bag_upper_bounds_from_common(CharMeasure::QGrams, &commons, bag_a.len(), &lens, &mut qg);
        assert!(qg.iter().all(|&x| x == f64::INFINITY));
    }
}
