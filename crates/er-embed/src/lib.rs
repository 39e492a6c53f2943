#![warn(missing_docs)]

//! # er-embed — deterministic semantic embedding substrate
//!
//! The paper's semantic similarity graphs use pre-trained **fastText**
//! (300-d, character-level) and **ALBERT** (768-d, transformer) models.
//! Neither is available offline, so this crate provides *hash-kernel*
//! stand-ins that preserve the properties the paper's analysis depends on
//! (see DESIGN.md §3, substitution 2):
//!
//! * [`FastTextLike`] composes a token vector by summing pseudo-random unit
//!   vectors of its character 3–6-grams — fastText's actual composition
//!   rule with hashed instead of learned n-gram tables. Misspelled or OOV
//!   tokens therefore still embed close to their neighbors.
//! * [`AlbertLike`] hashes each token *together with its neighbors*, so the
//!   same surface form in different contexts receives different vectors
//!   (the homonym property) while synonym handling is approximated by
//!   shared sub-word content.
//! * Both add a shared **anisotropy component** to every vector: real
//!   sentence encoders concentrate embeddings in a narrow cone, which is
//!   why the paper finds that "semantic similarities assign relatively
//!   high similarity scores to most pairs of entities". The blend factor
//!   reproduces that cone.
//!
//! Similarities: cosine, Euclidean (`1/(1+d)`) and Word Mover's
//! (`1/(1+RWMD)` with the standard relaxed-WMD bound) — the three semantic
//! measures of Figure 6.
//!
//! # Encoding at kernel speed
//!
//! The hash kernels write the n-gram / context-signature unit vectors,
//! up to eight keys interleaved per call, into a reused buffer
//! ([`hashing::pseudo_unit_vectors_into`]): an n-gram is hashed as a
//! byte slice of the marked token, cut at char boundaries, with no
//! `String` or `Vec` per n-gram. Over a collection,
//! [`Encoder::encode_all`](measures::Encoder::encode_all) and
//! [`Encoder::token_units`](measures::Encoder::token_units) ([`vocab`])
//! number the distinct token *units* — fastText tokens, ALBERT
//! `(prev, token, next)` signatures — in first-appearance order and
//! compute each once, spread over worker threads. Every path keeps the
//! float sequence of the original per-text encoders, and a test-only
//! frozen copy of those encoders pins them bit for bit. The
//! [`lanes`] module adds the eight-lane dense kernels and the
//! interleaved block kernel ([`lanes::InterleavedBlocks`]) that fills
//! Word Mover's distance tables.

pub mod albert;
pub mod ballindex;
pub mod dense;
pub mod fasttext;
pub mod hashing;
pub mod lanes;
pub mod measures;
#[cfg(test)]
mod oracle;
pub mod vocab;
pub mod wmd;

pub use albert::AlbertLike;
pub use ballindex::{
    cosine_distance_bound, inverse_distance_bound, VectorBallIndex, COSINE_NORMALIZATION_MARGIN,
};
pub use dense::DenseVector;
pub use fasttext::FastTextLike;
pub use measures::{EmbeddingModel, SemanticMeasure};
pub use vocab::UnitTable;
pub use wmd::{relaxed_wmd, word_movers_similarity, BagSummary};

#[cfg(test)]
mod sync_tests {
    //! `er-pipeline`'s parallel construction engine shares encoders,
    //! dense vectors, the interned WMD token table and its interleaved
    //! right blocks immutably across scoped worker threads. Pin the
    //! `Send + Sync` contract at compile time so an accidental
    //! interior-mutability addition fails here, not in a downstream crate.
    use super::*;
    use crate::measures::Encoder;

    fn assert_shared_read_side<T: Send + Sync>() {}

    #[test]
    fn read_side_structures_are_send_sync() {
        assert_shared_read_side::<Encoder>();
        assert_shared_read_side::<FastTextLike>();
        assert_shared_read_side::<AlbertLike>();
        assert_shared_read_side::<DenseVector>();
        assert_shared_read_side::<EmbeddingModel>();
        assert_shared_read_side::<SemanticMeasure>();
        assert_shared_read_side::<UnitTable>();
        assert_shared_read_side::<lanes::InterleavedBlocks>();
    }
}
