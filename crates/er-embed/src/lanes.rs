//! Lane-parallel dense-vector kernels.
//!
//! The scalar geometry of [`DenseVector`] is a *serial* float chain: a
//! 300-dimension dot product is 300 dependent additions, and every
//! candidate pays the full chain latency before the next one starts.
//! One left row, however, is scored against many independent right
//! candidates — so these kernels restructure the loops to advance up to
//! [`LANE_WIDTH`] candidates per dimension step through `[f64; L]` lane
//! accumulators. The lanes are independent dependency chains, which
//! buys instruction-level parallelism on any core and gives LLVM
//! regular loops to autovectorize — no nightly `core::simd`, no
//! intrinsics.
//!
//! # Exactness contract
//!
//! Each lane performs **exactly the scalar operation sequence**: lane
//! `l`'s accumulator receives the same values, in the same order, with
//! the same rounding steps as `a.dot(&bs[l])` / `a.cosine(&bs[l])` /
//! `a.euclidean_distance(&bs[l])` would produce. Interleaving *between*
//! accumulators never reorders the operations *within* one, and
//! IEEE-754 ops are deterministic — so the batch results equal the
//! scalar results bit for bit (property-pinned in
//! `er-pipeline/tests/kernel_props.rs`). This is what keeps the
//! pipeline's lane builds bit-identical to the per-pair scalar measure
//! all the way up to finished graph weights.

use crate::dense::DenseVector;
use crate::measures::SemanticMeasure;

/// Number of candidates one lane step advances — mirrors
/// `er_textsim::lanes::LANE_WIDTH` (eight independent `f64` chains keep
/// a 512-bit FMA pipe busy without spilling lane state to the stack).
pub const LANE_WIDTH: usize = 8;

/// Batched dot products: `out[l] = a.dot(bs[l])` for up to
/// [`LANE_WIDTH`] right-hand vectors, bit-identical to the scalar calls.
/// Panics on dimension mismatch, like [`DenseVector::dot`].
///
/// ```
/// use er_embed::lanes::dot_batch;
/// use er_embed::DenseVector;
///
/// let a = DenseVector(vec![1.0, 2.0]);
/// let bs = [DenseVector(vec![3.0, 4.0]), DenseVector(vec![-1.0, 0.5])];
/// let refs: Vec<&DenseVector> = bs.iter().collect();
/// let mut out = [0.0f64; 2];
/// dot_batch(&a, &refs, &mut out);
/// assert_eq!(out[0].to_bits(), a.dot(&bs[0]).to_bits());
/// assert_eq!(out[1].to_bits(), a.dot(&bs[1]).to_bits());
/// ```
pub fn dot_batch(a: &DenseVector, bs: &[&DenseVector], out: &mut [f64]) {
    let n = bs.len();
    assert!(n <= LANE_WIDTH, "at most {LANE_WIDTH} vectors per batch");
    assert!(out.len() >= n, "output slice too short");
    for b in bs {
        assert_eq!(a.dim(), b.dim(), "dimension mismatch");
    }
    // `-0.0`, as the scalar `.sum()` starts: a sum of `-0.0` products
    // stays `-0.0` there, where a `+0.0` start would make it `+0.0`.
    let mut acc = [-0.0f64; LANE_WIDTH];
    for (i, &av) in a.0.iter().enumerate() {
        let av = av as f64;
        for l in 0..n {
            acc[l] += av * bs[l].0[i] as f64;
        }
    }
    out[..n].copy_from_slice(&acc[..n]);
}

/// Batched cosine similarities: `out[l] = a.cosine(bs[l])`, bit for
/// bit. `a`'s norm is computed once — the scalar call recomputes it per
/// pair, but the recomputation is deterministic, so one shared value is
/// the same bits.
pub fn cosine_batch(a: &DenseVector, bs: &[&DenseVector], out: &mut [f64]) {
    let n = bs.len();
    assert!(n <= LANE_WIDTH, "at most {LANE_WIDTH} vectors per batch");
    assert!(out.len() >= n, "output slice too short");
    for b in bs {
        assert_eq!(a.dim(), b.dim(), "dimension mismatch");
    }
    let norm_a = a.norm();
    // Both start at `-0.0`, as the scalar sums do (see `dot_batch`).
    let mut dot = [-0.0f64; LANE_WIDTH];
    let mut sq = [-0.0f64; LANE_WIDTH];
    for (i, &av) in a.0.iter().enumerate() {
        let av = av as f64;
        for l in 0..n {
            let bv = bs[l].0[i] as f64;
            dot[l] += av * bv;
            sq[l] += bv * bv;
        }
    }
    for l in 0..n {
        let denom = norm_a * sq[l].sqrt();
        out[l] = if denom == 0.0 {
            0.0
        } else {
            (dot[l] / denom).clamp(0.0, 1.0)
        };
    }
}

/// Batched Euclidean distances: `out[l] = a.euclidean_distance(bs[l])`,
/// bit for bit (the squared-difference sum per lane runs in the scalar
/// dimension order; `sqrt` is correctly rounded).
pub fn euclidean_distance_batch(a: &DenseVector, bs: &[&DenseVector], out: &mut [f64]) {
    let n = bs.len();
    assert!(n <= LANE_WIDTH, "at most {LANE_WIDTH} vectors per batch");
    assert!(out.len() >= n, "output slice too short");
    for b in bs {
        assert_eq!(a.dim(), b.dim(), "dimension mismatch");
    }
    let mut acc = [0.0f64; LANE_WIDTH];
    for (i, &av) in a.0.iter().enumerate() {
        let av = av as f64;
        for l in 0..n {
            let d = av - bs[l].0[i] as f64;
            acc[l] += d * d;
        }
    }
    for l in 0..n {
        out[l] = acc[l].sqrt();
    }
}

/// Vectors of one dimension stored in [`LANE_WIDTH`]-interleaved blocks:
/// block `b` holds vectors `b·W .. b·W + W`, component `k` of lane `l` at
/// offset `k·W + l`, so the block kernel loads one component of all `W`
/// lanes as one contiguous run. The last block is zero-padded.
///
/// ```
/// use er_embed::lanes::{InterleavedBlocks, LANE_WIDTH};
/// use er_embed::DenseVector;
///
/// let vs: Vec<DenseVector> = (0..10).map(|i| DenseVector(vec![i as f32, 1.0, -2.0])).collect();
/// let blocks = InterleavedBlocks::new(3, vs.iter());
/// assert_eq!(blocks.n_blocks(), 2);
/// let a = DenseVector(vec![0.5, 0.25, 4.0]);
/// let mut out = [0.0f64; LANE_WIDTH];
/// blocks.euclidean_distances(&a, 1, &mut out);
/// assert_eq!(out[1].to_bits(), a.euclidean_distance(&vs[9]).to_bits());
///
/// let mut grown = InterleavedBlocks::new(3, vs[..8].iter());
/// grown.push(&vs[8]);
/// grown.push(&vs[9]);
/// let mut again = [0.0f64; LANE_WIDTH];
/// grown.euclidean_distances(&a, 1, &mut again);
/// assert_eq!(again.map(f64::to_bits), out.map(f64::to_bits));
/// ```
#[derive(Debug, Clone)]
pub struct InterleavedBlocks {
    dim: usize,
    len: usize,
    data: Vec<f32>,
}

impl InterleavedBlocks {
    /// Interleave `vectors`, each of dimension `dim`.
    pub fn new<'a>(dim: usize, vectors: impl ExactSizeIterator<Item = &'a DenseVector>) -> Self {
        let mut blocks = InterleavedBlocks {
            dim,
            len: 0,
            data: Vec::with_capacity(vectors.len().div_ceil(LANE_WIDTH) * dim * LANE_WIDTH),
        };
        for v in vectors {
            blocks.push(v);
        }
        blocks
    }

    /// Append `v` as the next lane, opening a zero-padded block when the
    /// last one is full.
    pub fn push(&mut self, v: &DenseVector) {
        assert_eq!(v.dim(), self.dim, "dimension mismatch");
        let (block, lane) = (self.len / LANE_WIDTH, self.len % LANE_WIDTH);
        let width = self.dim * LANE_WIDTH;
        if lane == 0 {
            self.data.resize(self.data.len() + width, 0.0);
        }
        let block = &mut self.data[block * width..];
        for (k, &x) in v.0.iter().enumerate() {
            block[k * LANE_WIDTH + lane] = x;
        }
        self.len += 1;
    }

    /// Number of blocks, `⌈len / W⌉`.
    pub fn n_blocks(&self) -> usize {
        self.len.div_ceil(LANE_WIDTH)
    }

    /// `out[l] = a.euclidean_distance(v)` for the vector `v` in lane `l` of
    /// `block`, bit for bit: each lane accumulates the squared differences
    /// in the scalar component order (and `(a − b)² = (b − a)²` exactly, so
    /// operand order is irrelevant). Padding lanes hold `‖a‖`.
    pub fn euclidean_distances(&self, a: &DenseVector, block: usize, out: &mut [f64; LANE_WIDTH]) {
        assert_eq!(a.dim(), self.dim, "dimension mismatch");
        let width = self.dim * LANE_WIDTH;
        let (comps, _) = self.data[block * width..(block + 1) * width].as_chunks::<LANE_WIDTH>();
        let mut acc = [0.0f64; LANE_WIDTH];
        for (&av, lanes) in a.0.iter().zip(comps) {
            let av = av as f64;
            for l in 0..LANE_WIDTH {
                let d = av - lanes[l] as f64;
                acc[l] += d * d;
            }
        }
        for l in 0..LANE_WIDTH {
            out[l] = acc[l].sqrt();
        }
    }
}

/// Batched [`SemanticMeasure::similarity_vectors`] for the dense
/// measures (cosine, Euclidean `1/(1+d)`): `out[l]` equals the scalar
/// call bit for bit, zero-vector guards included. Panics for
/// [`SemanticMeasure::WordMovers`], exactly like the scalar method.
pub fn similarity_vectors_batch(
    measure: SemanticMeasure,
    a: &DenseVector,
    bs: &[&DenseVector],
    out: &mut [f64],
) {
    match measure {
        SemanticMeasure::Cosine => cosine_batch(a, bs, out),
        SemanticMeasure::Euclidean => {
            euclidean_distance_batch(a, bs, out);
            let a_zero = a.is_zero();
            for (l, b) in bs.iter().enumerate() {
                out[l] = if a_zero || b.is_zero() {
                    0.0
                } else {
                    1.0 / (1.0 + out[l])
                };
            }
        }
        SemanticMeasure::WordMovers => {
            panic!("WordMovers requires token vectors; use similarity_tokens")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs() -> Vec<DenseVector> {
        vec![
            DenseVector(vec![1.0, 2.0, -3.0]),
            DenseVector(vec![0.5, -0.25, 8.0]),
            DenseVector::zeros(3),
            DenseVector(vec![1e-30, 2e30, 1.0]),
        ]
    }

    #[test]
    fn batches_are_bit_identical_to_scalar() {
        let a = DenseVector(vec![0.1, -7.0, 2.5]);
        let bs = vecs();
        let refs: Vec<&DenseVector> = bs.iter().collect();
        let mut out = [0.0f64; LANE_WIDTH];
        dot_batch(&a, &refs, &mut out);
        for (l, b) in bs.iter().enumerate() {
            assert_eq!(out[l].to_bits(), a.dot(b).to_bits(), "dot lane {l}");
        }
        cosine_batch(&a, &refs, &mut out);
        for (l, b) in bs.iter().enumerate() {
            assert_eq!(out[l].to_bits(), a.cosine(b).to_bits(), "cos lane {l}");
        }
        euclidean_distance_batch(&a, &refs, &mut out);
        for (l, b) in bs.iter().enumerate() {
            assert_eq!(
                out[l].to_bits(),
                a.euclidean_distance(b).to_bits(),
                "dist lane {l}"
            );
        }
        for m in [SemanticMeasure::Cosine, SemanticMeasure::Euclidean] {
            similarity_vectors_batch(m, &a, &refs, &mut out);
            for (l, b) in bs.iter().enumerate() {
                assert_eq!(
                    out[l].to_bits(),
                    m.similarity_vectors(&a, b).to_bits(),
                    "{} lane {l}",
                    m.name()
                );
            }
        }
    }

    /// Every product `-0.0`: the scalar sum keeps the sign of the zero,
    /// and so must the lanes (dot, and cosine through its dot).
    #[test]
    fn all_negative_zero_products_keep_the_sign() {
        let a = DenseVector(vec![-1.0, -2.5, -0.0]);
        let bs = [
            DenseVector::zeros(3),
            DenseVector(vec![0.0, 0.0, 4.0]),
            DenseVector(vec![0.0, 0.0, 1e30]),
        ];
        let refs: Vec<&DenseVector> = bs.iter().collect();
        let mut out = [0.0f64; LANE_WIDTH];
        dot_batch(&a, &refs, &mut out);
        for (l, b) in bs.iter().enumerate() {
            assert_eq!(a.dot(b).to_bits(), (-0.0f64).to_bits(), "scalar lane {l}");
            assert_eq!(out[l].to_bits(), a.dot(b).to_bits(), "dot lane {l}");
        }
        let nonzero = DenseVector(vec![-1.0, 0.0]);
        let b = DenseVector(vec![0.0, -1.0]);
        cosine_batch(&nonzero, &[&b], &mut out);
        assert_eq!(nonzero.cosine(&b).to_bits(), (-0.0f64).to_bits());
        assert_eq!(out[0].to_bits(), nonzero.cosine(&b).to_bits(), "cosine");
    }

    #[test]
    fn zero_probe_matches_scalar_guards() {
        let z = DenseVector::zeros(3);
        let bs = vecs();
        let refs: Vec<&DenseVector> = bs.iter().collect();
        let mut out = [0.0f64; LANE_WIDTH];
        for m in [SemanticMeasure::Cosine, SemanticMeasure::Euclidean] {
            similarity_vectors_batch(m, &z, &refs, &mut out);
            for (l, b) in bs.iter().enumerate() {
                assert_eq!(out[l].to_bits(), m.similarity_vectors(&z, b).to_bits());
            }
        }
    }

    #[test]
    fn interleaved_blocks_are_bit_identical_to_scalar() {
        // 19 vectors: two full blocks and a ragged third.
        let vs: Vec<DenseVector> = (0..19)
            .map(|i| {
                let i = i as f32;
                DenseVector(vec![
                    i * 0.37 - 3.0,
                    1e-3 * i,
                    -i * i,
                    7.5,
                    1e20 / (i + 1.0),
                ])
            })
            .collect();
        let blocks = InterleavedBlocks::new(5, vs.iter());
        assert_eq!(blocks.n_blocks(), 3);
        let mut out = [0.0f64; LANE_WIDTH];
        for a in [
            &vs[3],
            &DenseVector::zeros(5),
            &DenseVector(vec![-1.0, 2.0, 0.0, 9.0, 1e-30]),
        ] {
            for b in 0..blocks.n_blocks() {
                blocks.euclidean_distances(a, b, &mut out);
                for (l, &d) in out.iter().enumerate() {
                    let Some(v) = vs.get(b * LANE_WIDTH + l) else {
                        assert_eq!(d.to_bits(), a.norm().to_bits(), "padding lane");
                        continue;
                    };
                    assert_eq!(d.to_bits(), a.euclidean_distance(v).to_bits());
                    assert_eq!(d.to_bits(), v.euclidean_distance(a).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = DenseVector(vec![1.0]);
        let b = DenseVector(vec![1.0, 2.0]);
        let mut out = [0.0f64; 1];
        dot_batch(&a, &[&b], &mut out);
    }
}
