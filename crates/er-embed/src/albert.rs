//! ALBERT-like encoder: context-sensitive token vectors.
//!
//! Transformer language models "vectorize an item based on its context …
//! they assign different vectors to homonyms" (paper §4). We reproduce the
//! *contextuality* property with a hash kernel: a token's vector mixes its
//! own sub-word embedding with hashed signatures of its left and right
//! neighbors, so `bank` next to `river` and `bank` next to `loan` land in
//! different places. Like its real counterpart, the encoder is more
//! aggressive about anisotropy than fastText — sentence embeddings of
//! BERT-family models famously occupy a narrow cone, which is exactly the
//! behaviour behind the paper's weak schema-agnostic semantic results.

use crate::dense::{normalize_slice, scale_slice, DenseVector};
use crate::hashing::{anisotropy_direction, pseudo_unit_vectors_into};
use crate::vocab::{self, KernelScratch, UnitModel};

pub(crate) const ALBERT_SEED: u64 = 0xa1be_0007;

/// The paper's ALBERT dimensionality.
pub const ALBERT_DIM: usize = 768;

/// An ALBERT-like contextual text encoder.
#[derive(Debug, Clone)]
pub struct AlbertLike {
    pub(crate) dim: usize,
    pub(crate) anisotropy: f32,
    pub(crate) common: DenseVector,
}

impl Default for AlbertLike {
    fn default() -> Self {
        Self::new(ALBERT_DIM, 0.65)
    }
}

impl AlbertLike {
    /// Create an encoder with explicit dimension and anisotropy blend.
    pub fn new(dim: usize, anisotropy: f32) -> Self {
        assert!((0.0..1.0).contains(&anisotropy));
        AlbertLike {
            dim,
            anisotropy,
            common: anisotropy_direction(dim, ALBERT_SEED),
        }
    }

    /// Dimensionality of produced vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed a text: mean-pooled contextual token vectors blended into the
    /// anisotropy cone. Empty text embeds to the zero vector.
    pub fn encode(&self, text: &str) -> DenseVector {
        vocab::encode_all(self, &[text], 1).remove(0)
    }

    /// Contextual per-token vectors (for Word Mover's similarity), without
    /// the anisotropy blend.
    pub fn token_vectors(&self, text: &str) -> Vec<DenseVector> {
        vocab::token_units(self, &[text], usize::MAX, 1)
            .into_bags()
            .remove(0)
    }
}

impl UnitModel for AlbertLike {
    /// A contextual vector depends on the token and both neighbours: the
    /// unit is the `(prev, token, next)` signature, with `[CLS]`/`[SEP]`
    /// standing in at the text's ends.
    type Unit<'a> = [&'a str; 3];

    fn unit<'a>(tokens: &[&'a str], idx: usize) -> [&'a str; 3] {
        let prev = if idx > 0 { tokens[idx - 1] } else { "[CLS]" };
        let next = tokens.get(idx + 1).copied().unwrap_or("[SEP]");
        [prev, tokens[idx], next]
    }

    /// `0.6·e(token) + 0.2·e(prev⊕token) + 0.2·e(token⊕next)`, normalized,
    /// into `out`; both signatures sit in one reused key buffer, and the
    /// three vectors come from one lane-kernel call.
    fn unit_vector_into(
        &self,
        [prev, tok, next]: [&str; 3],
        s: &mut KernelScratch,
        out: &mut [f32],
    ) {
        let KernelScratch { key, unit, .. } = s;
        key.clear();
        key.push_str(prev);
        key.push('\u{1}');
        key.push_str(tok);
        let split = key.len();
        key.push_str(tok);
        key.push('\u{1}');
        key.push_str(next);
        let (before, after) = key.as_bytes().split_at(split);
        let dim = self.dim;
        unit.resize(3 * dim, 0.0);
        pseudo_unit_vectors_into(&[tok.as_bytes(), before, after], ALBERT_SEED, unit);
        out.copy_from_slice(&unit[..dim]);
        scale_slice(out, 0.6);
        for context in [&unit[dim..2 * dim], &unit[2 * dim..]] {
            for (o, &u) in out.iter_mut().zip(context) {
                *o += 0.2 * u;
            }
        }
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
    fn deterministic_unit_vectors() {
        let al = AlbertLike::default();
        let a = al.encode("knowledge graph completion");
        assert_eq!(a, al.encode("knowledge graph completion"));
        assert!((a.norm() - 1.0).abs() < 1e-5);
        assert_eq!(a.dim(), 768);
    }

    #[test]
    fn homonyms_in_different_contexts_differ() {
        // The paper's "bank" example: same form, different context vectors.
        let al = AlbertLike::new(768, 0.0);
        let river = al.token_vectors("river bank water");
        let money = al.token_vectors("loan bank money");
        // 'bank' is token index 1 in both.
        let cos = river[1].cosine(&money[1]);
        assert!(
            cos < 0.9,
            "contextual vectors of 'bank' should differ: cos = {cos:.3}"
        );
        // But they still share the dominant self component.
        assert!(cos > 0.2, "same surface form keeps partial similarity");
    }

    #[test]
    fn word_order_matters_unlike_bag_models() {
        let al = AlbertLike::new(768, 0.0);
        let a = al.encode("data base systems");
        let b = al.encode("systems base data");
        assert!(a.cosine(&b) < 0.999, "context encoding is order-sensitive");
    }

    #[test]
    fn anisotropy_is_stronger_than_fasttext() {
        let al = AlbertLike::default();
        let a = al.encode("walmart grill cover");
        let b = al.encode("acm transactions on databases");
        assert!(
            a.cosine(&b) > 0.4,
            "unrelated ALBERT-like texts still score {:.3} — the cone",
            a.cosine(&b)
        );
    }

    #[test]
    fn empty_text_is_zero() {
        let al = AlbertLike::default();
        assert!(al.encode("").is_zero());
        assert!(al.token_vectors(" ").is_empty());
    }
}
