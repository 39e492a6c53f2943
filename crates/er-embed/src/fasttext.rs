//! FastText-like encoder: sub-word composition with hashed n-gram vectors.
//!
//! fastText "vectorizes a token by summing the embeddings of all its
//! character n-grams" (paper §4, citing Bojanowski et al.). We keep exactly
//! that composition — boundary-marked character 3–6-grams plus the whole
//! word — but draw the n-gram vectors from a deterministic hash kernel.
//! The defining behaviours survive: no out-of-vocabulary failures, and
//! typo'd tokens stay close to their originals because they share most
//! sub-word units.

use crate::dense::{normalize_slice, scale_slice, DenseVector};
use crate::hashing::{anisotropy_direction, pseudo_unit_vector_into};
use crate::vocab::{self, KernelScratch, UnitModel};

pub(crate) const FASTTEXT_SEED: u64 = 0xfa57_7e87;

/// The paper's fastText dimensionality.
pub const FASTTEXT_DIM: usize = 300;

/// A fastText-like text encoder.
#[derive(Debug, Clone)]
pub struct FastTextLike {
    pub(crate) dim: usize,
    /// Blend factor of the shared anisotropy direction in `[0, 1)`:
    /// higher values push all pairwise similarities up, mimicking the
    /// embedding cone of real pre-trained models.
    pub(crate) anisotropy: f32,
    pub(crate) common: DenseVector,
}

impl Default for FastTextLike {
    fn default() -> Self {
        Self::new(FASTTEXT_DIM, 0.55)
    }
}

impl FastTextLike {
    /// Create an encoder with explicit dimension and anisotropy blend.
    pub fn new(dim: usize, anisotropy: f32) -> Self {
        assert!((0.0..1.0).contains(&anisotropy));
        FastTextLike {
            dim,
            anisotropy,
            common: anisotropy_direction(dim, FASTTEXT_SEED),
        }
    }

    /// Dimensionality of produced vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed a text: mean of token vectors, blended with the anisotropy
    /// direction and re-normalized. Empty text embeds to the zero vector.
    pub fn encode(&self, text: &str) -> DenseVector {
        vocab::encode_all(self, &[text], 1).remove(0)
    }

    /// Per-token context-free vectors of a text (for Word Mover's
    /// similarity). Tokens embed *without* the anisotropy blend so the
    /// transport costs keep their contrast.
    pub fn token_vectors(&self, text: &str) -> Vec<DenseVector> {
        vocab::token_units(self, &[text], usize::MAX, 1)
            .into_bags()
            .remove(0)
    }
}

impl UnitModel for FastTextLike {
    /// fastText vectors are context-free: the unit is the token.
    type Unit<'a> = &'a str;

    fn unit<'a>(tokens: &[&'a str], idx: usize) -> &'a str {
        tokens[idx]
    }

    /// Embed one token into `out`: the normalized sum of its
    /// boundary-marked character 3–6-gram vectors plus the full-word
    /// vector. Every n-gram is hashed as a byte slice of the marked token (cut at char boundaries, so
    /// the bytes equal the `String` the n-gram's chars would collect
    /// into) and its unit vector added straight into the sum.
    fn unit_vector_into(&self, token: &str, s: &mut KernelScratch, out: &mut [f32]) {
        let KernelScratch { key, bounds, unit } = s;
        key.clear();
        key.push('<');
        key.push_str(token);
        key.push('>');
        bounds.clear();
        bounds.extend(key.char_indices().map(|(i, _)| i));
        bounds.push(key.len());
        let n_chars = bounds.len() - 1;
        unit.resize(self.dim, 0.0);
        out.fill(0.0);
        let mut add = |bytes: &[u8]| {
            pseudo_unit_vector_into(bytes, FASTTEXT_SEED, unit);
            for (a, &b) in out.iter_mut().zip(unit.iter()) {
                *a += b;
            }
        };
        let mut parts = 0usize;
        for n in 3..=6 {
            if n_chars < n {
                break;
            }
            for start in 0..=n_chars - n {
                add(&key.as_bytes()[bounds[start]..bounds[start + n]]);
                parts += 1;
            }
        }
        // The whole word is always one of the units.
        add(key.as_bytes());
        parts += 1;
        scale_slice(out, 1.0 / parts as f32);
        normalize_slice(out);
    }

    fn cone(&self) -> (&DenseVector, f32) {
        (&self.common, self.anisotropy)
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_unit_norm() {
        let ft = FastTextLike::default();
        let a = ft.encode("apple iphone 12 pro");
        let b = ft.encode("apple iphone 12 pro");
        assert_eq!(a, b);
        assert!((a.norm() - 1.0).abs() < 1e-5);
        assert_eq!(a.dim(), 300);
    }

    #[test]
    fn typos_stay_close_oov_robustness() {
        // The fastText property the paper selects it for: sub-word sharing
        // keeps misspellings similar.
        let ft = FastTextLike::new(300, 0.0); // raw content, no cone
        let a = ft.encode("panasonic");
        let b = ft.encode("panasonik");
        let c = ft.encode("xerox");
        assert!(
            a.cosine(&b) > a.cosine(&c) + 0.2,
            "typo {:.3} vs unrelated {:.3}",
            a.cosine(&b),
            c.cosine(&a)
        );
    }

    #[test]
    fn anisotropy_raises_all_similarities() {
        let flat = FastTextLike::new(300, 0.0);
        let cone = FastTextLike::default();
        let a_flat = flat.encode("samsung galaxy tab");
        let b_flat = flat.encode("publication database conference");
        let a_cone = cone.encode("samsung galaxy tab");
        let b_cone = cone.encode("publication database conference");
        let s_flat = a_flat.cosine(&b_flat);
        let s_cone = a_cone.cosine(&b_cone);
        assert!(
            s_cone > s_flat + 0.2,
            "cone must raise unrelated-pair similarity: {s_flat:.3} → {s_cone:.3}"
        );
        assert!(s_cone > 0.3, "paper: semantic sims are high for most pairs");
    }

    #[test]
    fn identical_texts_max_similarity() {
        let ft = FastTextLike::default();
        let a = ft.encode("dblp very large databases");
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_text_is_zero() {
        let ft = FastTextLike::default();
        assert!(ft.encode("").is_zero());
        assert!(ft.encode("   ").is_zero());
        assert!(ft.token_vectors("").is_empty());
    }

    #[test]
    fn token_order_does_not_matter_for_mean() {
        let ft = FastTextLike::default();
        let a = ft.encode("alpha beta gamma");
        let b = ft.encode("gamma alpha beta");
        assert!(a.cosine(&b) > 0.999, "bag-of-tokens mean is order-free");
    }
}
