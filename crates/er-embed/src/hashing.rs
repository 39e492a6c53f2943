//! Deterministic pseudo-random vectors from hashed seeds.
//!
//! Each string (n-gram, token, context signature) deterministically maps to
//! a fixed unit vector whose components come from a splitmix64 stream —
//! the "hash kernel" that replaces learned embedding tables.
//!
//! A key's components form one serial chain: each splitmix64 step needs
//! the previous state, and the normalizing f64 sum of squares adds them
//! in component order. One key alone therefore runs at the latency of
//! that chain. [`pseudo_unit_vectors_into`] runs up to [`KERNEL_LANES`]
//! keys' chains interleaved, component by component, so the processor
//! overlaps independent steps. Each lane still performs exactly its
//! key's own operations in their own order — the same states, the same
//! `f32` roundings, the same f64 sum from the first component to the
//! last — so every vector is bit-identical to hashing its key alone (the
//! scalar kernel survives only as the test oracle).

use er_core::hash::seeded_hash64;

use crate::dense::{scale_slice, DenseVector};

/// The most keys one [`pseudo_unit_vectors_into`] call interleaves.
pub const KERNEL_LANES: usize = 8;

/// Write the unit pseudo-embeddings of up to [`KERNEL_LANES`] byte
/// strings under a model-specific `seed` into `out`: key `k`'s vector is
/// `out[k * dim..(k + 1) * dim]`, where `dim = out.len() / keys.len()`.
///
/// Component `i` of a key's vector is the top 24 bits of the `i`-th
/// splitmix64 step from the key's seeded hash, mapped to a uniform value
/// in `[-1, 1)`; the vector is then normalized. Writing into a caller
/// buffer keeps the encoders' n-gram loops allocation-free.
///
/// # Panics
///
/// If there are more than [`KERNEL_LANES`] keys, or `out` is not
/// `keys.len()` vectors of one dimension.
pub fn pseudo_unit_vectors_into(keys: &[&[u8]], seed: u64, out: &mut [f32]) {
    match keys.len() {
        0 => assert!(out.is_empty(), "no keys, but {} components", out.len()),
        1 => lanes::<1>(keys, seed, out),
        2 => lanes::<2>(keys, seed, out),
        3 => lanes::<3>(keys, seed, out),
        4 => lanes::<4>(keys, seed, out),
        5 => lanes::<5>(keys, seed, out),
        6 => lanes::<6>(keys, seed, out),
        7 => lanes::<7>(keys, seed, out),
        8 => lanes::<8>(keys, seed, out),
        n => panic!("{n} keys; a call interleaves at most {KERNEL_LANES}"),
    }
}

/// The kernel at a fixed lane count, so the lanes' states and sums stay
/// in registers.
#[inline(always)]
fn lanes<const L: usize>(keys: &[&[u8]], seed: u64, out: &mut [f32]) {
    let dim = out.len() / L;
    assert_eq!(out.len(), L * dim, "{} components for {L} keys", out.len());
    if dim == 0 {
        return;
    }
    let mut state: [u64; L] = std::array::from_fn(|k| seeded_hash64(keys[k], seed));
    let mut sum = [0.0f64; L];
    for i in 0..dim {
        for k in 0..L {
            state[k] = splitmix64(state[k]);
            let v = (state[k] >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
            out[k * dim + i] = v;
            sum[k] += v as f64 * v as f64;
        }
    }
    // `normalize_slice`'s float sequence: the f64 sum of squares rounded
    // to `f32` after its root, then every component times `1/n`.
    for (row, sum) in out.chunks_exact_mut(dim).zip(sum) {
        let n = sum.sqrt() as f32;
        if n > 0.0 {
            scale_slice(row, 1.0 / n);
        }
    }
}

/// The shared anisotropy direction of a model: every encoded text blends a
/// fraction of this vector, concentrating all embeddings in a cone.
pub fn anisotropy_direction(dim: usize, seed: u64) -> DenseVector {
    let mut v = DenseVector::zeros(dim);
    pseudo_unit_vectors_into(&["\u{0}__anisotropy__".as_bytes()], seed, &mut v.0);
    v
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn unit(key: &str, dim: usize, seed: u64) -> DenseVector {
        let mut v = DenseVector::zeros(dim);
        pseudo_unit_vectors_into(&[key.as_bytes()], seed, &mut v.0);
        v
    }

    #[test]
    fn vectors_are_deterministic_unit_length() {
        let a = unit("token", 64, 1);
        let b = unit("token", 64, 1);
        assert_eq!(a, b);
        assert!((a.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn different_keys_or_seeds_decorrelate() {
        let a = unit("token", 256, 1);
        let b = unit("other", 256, 1);
        let c = unit("token", 256, 2);
        // Random unit vectors in 256-d are nearly orthogonal.
        assert!(a.dot(&b).abs() < 0.25);
        assert!(a.dot(&c).abs() < 0.25);
    }

    #[test]
    fn components_are_centered() {
        let v = unit("statistics", 512, 7);
        let mean: f32 = v.0.iter().sum::<f32>() / v.0.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean} should be near zero");
    }

    /// A key of 0–5 chars over ASCII, multi-byte scalars of every UTF-8
    /// width and the separators the encoders' keys carry.
    fn key() -> impl Strategy<Value = String> {
        let alphabet = vec!['a', 'b', '<', '>', '\u{0}', '\u{1}', 'é', '漢', '🦀'];
        proptest::collection::vec(proptest::sample::select(alphabet), 0..6)
            .prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every lane of a call of 1–8 keys (ragged lane groups, empty
        /// and non-ASCII keys) holds its key's scalar-kernel vector bit
        /// for bit, at the dimensions of the tests and of both models.
        #[test]
        fn lane_kernel_matches_the_scalar_kernel_bits(
            keys in proptest::collection::vec(key(), 1..=KERNEL_LANES),
            dim in proptest::sample::select(vec![0usize, 1, 7, 300, 768]),
            seed in 0u64..u64::MAX,
        ) {
            let bytes: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
            let mut out = vec![f32::NAN; keys.len() * dim];
            pseudo_unit_vectors_into(&bytes, seed, &mut out);
            for (k, key) in keys.iter().enumerate() {
                let want = crate::oracle::pseudo_unit_vector(key, dim, seed);
                let got = &out[k * dim..(k + 1) * dim];
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got), bits(&want.0), "key {} {:?}", k, key);
            }
        }
    }

    #[test]
    fn into_kernel_matches_the_frozen_allocating_kernel() {
        for key in [
            "",
            "<a>",
            "<ab",
            "héllo",
            "漢字\u{1}x",
            "\u{0}__anisotropy__",
        ] {
            for dim in [0usize, 1, 7, 300] {
                let got = unit(key, dim, 0xfa57_7e87);
                let want = crate::oracle::pseudo_unit_vector(key, dim, 0xfa57_7e87);
                let bits = |v: &DenseVector| v.0.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "key {key:?} dim {dim}");
            }
        }
    }
}
