//! The semantic models and measures of the paper's taxonomy (Figure 6).

use serde::{Deserialize, Serialize};

use crate::albert::AlbertLike;
use crate::dense::DenseVector;
use crate::fasttext::FastTextLike;
use crate::vocab::{self, UnitTable};
use crate::wmd::word_movers_similarity;

/// Which pre-trained-model stand-in encodes the texts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmbeddingModel {
    /// fastText-like sub-word encoder (300-d).
    FastText,
    /// ALBERT-like contextual encoder (768-d).
    Albert,
}

impl EmbeddingModel {
    /// Both models.
    pub fn all() -> [EmbeddingModel; 2] {
        [EmbeddingModel::FastText, EmbeddingModel::Albert]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            EmbeddingModel::FastText => "fastText",
            EmbeddingModel::Albert => "ALBERT",
        }
    }

    /// Instantiate the encoder.
    pub fn encoder(&self) -> Encoder {
        match self {
            EmbeddingModel::FastText => Encoder::FastText(FastTextLike::default()),
            EmbeddingModel::Albert => Encoder::Albert(AlbertLike::default()),
        }
    }
}

/// A constructed encoder of either model.
#[derive(Debug, Clone)]
pub enum Encoder {
    /// fastText-like.
    FastText(FastTextLike),
    /// ALBERT-like.
    Albert(AlbertLike),
}

impl Encoder {
    /// Embed a whole text into one vector.
    pub fn encode(&self, text: &str) -> DenseVector {
        match self {
            Encoder::FastText(m) => m.encode(text),
            Encoder::Albert(m) => m.encode(text),
        }
    }

    /// Per-token vectors for transport-based measures.
    pub fn token_vectors(&self, text: &str) -> Vec<DenseVector> {
        match self {
            Encoder::FastText(m) => m.token_vectors(text),
            Encoder::Albert(m) => m.token_vectors(text),
        }
    }

    /// [`encode`](Self::encode) every text of a collection, each distinct
    /// token unit computed once and the work spread over up to `threads`
    /// workers. Bit-identical to encoding each text on its own.
    pub fn encode_all<T: AsRef<str> + Sync>(
        &self,
        texts: &[T],
        threads: usize,
    ) -> Vec<DenseVector> {
        match self {
            Encoder::FastText(m) => vocab::encode_all(m, texts, threads),
            Encoder::Albert(m) => vocab::encode_all(m, texts, threads),
        }
    }

    /// The per-token vectors of every text's first `cap` tokens as one
    /// interned [`UnitTable`]: fastText units are tokens, ALBERT units
    /// `(prev, token, next)` signatures (a kept last token still sees the
    /// dropped token after it as its context). Each bag resolves to
    /// exactly the first `cap` vectors of [`token_vectors`](Self::token_vectors).
    pub fn token_units<T: AsRef<str> + Sync>(
        &self,
        texts: &[T],
        cap: usize,
        threads: usize,
    ) -> UnitTable {
        match self {
            Encoder::FastText(m) => vocab::token_units(m, texts, cap, threads),
            Encoder::Albert(m) => vocab::token_units(m, texts, cap, threads),
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            Encoder::FastText(m) => m.dim(),
            Encoder::Albert(m) => m.dim(),
        }
    }
}

/// The three semantic similarity measures of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SemanticMeasure {
    /// Cosine similarity of text embeddings.
    Cosine,
    /// Euclidean similarity: `1 / (1 + ‖a − b‖₂)`.
    Euclidean,
    /// Word Mover's similarity: `1 / (1 + RWMD)` over token vectors.
    WordMovers,
}

impl SemanticMeasure {
    /// All three measures.
    pub fn all() -> [SemanticMeasure; 3] {
        [
            SemanticMeasure::Cosine,
            SemanticMeasure::Euclidean,
            SemanticMeasure::WordMovers,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SemanticMeasure::Cosine => "Cosine",
            SemanticMeasure::Euclidean => "Euclidean",
            SemanticMeasure::WordMovers => "WordMovers",
        }
    }

    /// Whether the measure consumes per-token vectors rather than a single
    /// text embedding.
    pub fn needs_token_vectors(&self) -> bool {
        matches!(self, SemanticMeasure::WordMovers)
    }

    /// Similarity of two pre-encoded texts.
    pub fn similarity_vectors(&self, a: &DenseVector, b: &DenseVector) -> f64 {
        match self {
            SemanticMeasure::Cosine => a.cosine(b),
            SemanticMeasure::Euclidean => {
                if a.is_zero() || b.is_zero() {
                    return 0.0;
                }
                1.0 / (1.0 + a.euclidean_distance(b))
            }
            SemanticMeasure::WordMovers => {
                panic!("WordMovers requires token vectors; use similarity_tokens")
            }
        }
    }

    /// Similarity of two token-vector bags (Word Mover's only).
    pub fn similarity_tokens(&self, a: &[DenseVector], b: &[DenseVector]) -> f64 {
        match self {
            SemanticMeasure::WordMovers => word_movers_similarity(a, b),
            _ => panic!("{} operates on text embeddings", self.name()),
        }
    }

    /// End-to-end similarity of two texts under an encoder.
    pub fn similarity(&self, enc: &Encoder, a: &str, b: &str) -> f64 {
        if self.needs_token_vectors() {
            self.similarity_tokens(&enc.token_vectors(a), &enc.token_vectors(b))
        } else {
            self.similarity_vectors(&enc.encode(a), &enc.encode(b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters() {
        assert_eq!(EmbeddingModel::all().len(), 2);
        assert_eq!(SemanticMeasure::all().len(), 3);
        assert_eq!(EmbeddingModel::FastText.encoder().dim(), 300);
        assert_eq!(EmbeddingModel::Albert.encoder().dim(), 768);
    }

    #[test]
    fn all_measures_bounded_and_reflexive() {
        for model in EmbeddingModel::all() {
            let enc = model.encoder();
            for m in SemanticMeasure::all() {
                let s = m.similarity(&enc, "canon eos camera", "canon eos camera");
                assert!(
                    (s - 1.0).abs() < 1e-6,
                    "{}/{} reflexive",
                    model.name(),
                    m.name()
                );
                let d = m.similarity(&enc, "canon eos camera", "acm sigmod record");
                assert!(
                    (0.0..=1.0).contains(&d),
                    "{}/{} bounded",
                    model.name(),
                    m.name()
                );
                assert!(d < 1.0, "distinct texts are not identical");
            }
        }
    }

    #[test]
    fn similar_texts_score_higher() {
        let enc = EmbeddingModel::FastText.encoder();
        for m in SemanticMeasure::all() {
            let close = m.similarity(&enc, "apple iphone 12", "apple iphone 12 pro");
            let far = m.similarity(&enc, "apple iphone 12", "restaurant thai cuisine");
            assert!(close > far, "{}: {close:.3} vs {far:.3}", m.name());
        }
    }

    #[test]
    fn empty_text_conventions() {
        let enc = EmbeddingModel::Albert.encoder();
        assert_eq!(SemanticMeasure::Euclidean.similarity(&enc, "", "text"), 0.0);
        assert_eq!(SemanticMeasure::Cosine.similarity(&enc, "", "text"), 0.0);
        assert_eq!(
            SemanticMeasure::WordMovers.similarity(&enc, "", "text"),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "token vectors")]
    fn wmd_requires_token_vectors() {
        let a = DenseVector::zeros(4);
        SemanticMeasure::WordMovers.similarity_vectors(&a, &a);
    }
}
