//! Deterministic pseudo-random vectors from hashed seeds.
//!
//! Each string (n-gram, token, context signature) deterministically maps to
//! a fixed unit vector whose components come from a splitmix64 stream —
//! the "hash kernel" that replaces learned embedding tables.

use er_core::hash::seeded_hash64;

use crate::dense::{normalize_slice, DenseVector};

/// Write the unit pseudo-embedding of the byte string `key` under a
/// model-specific `seed` into `out` (its length is the dimension).
///
/// Component `i` is the top 24 bits of the `i`-th splitmix64 step from
/// the key's seeded hash, mapped to a uniform value in `[-1, 1)`; the
/// vector is then normalized in place. Writing into a caller buffer
/// keeps the encoders' n-gram loops allocation-free.
pub fn pseudo_unit_vector_into(key: &[u8], seed: u64, out: &mut [f32]) {
    let mut state = seeded_hash64(key, seed);
    for v in out.iter_mut() {
        state = splitmix64(state);
        *v = (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
    }
    normalize_slice(out);
}

/// The shared anisotropy direction of a model: every encoded text blends a
/// fraction of this vector, concentrating all embeddings in a cone.
pub fn anisotropy_direction(dim: usize, seed: u64) -> DenseVector {
    let mut v = DenseVector::zeros(dim);
    pseudo_unit_vector_into("\u{0}__anisotropy__".as_bytes(), seed, &mut v.0);
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
    use super::*;

    fn unit(key: &str, dim: usize, seed: u64) -> DenseVector {
        let mut v = DenseVector::zeros(dim);
        pseudo_unit_vector_into(key.as_bytes(), seed, &mut v.0);
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
