#![warn(missing_docs)]

//! # er-textsim — syntactic similarity measures and representation models
//!
//! Implements the full learning-free syntactic taxonomy of §4 / Appendix B
//! of the paper:
//!
//! * **Schema-based, character-level** ([`charlevel`]): Levenshtein,
//!   Damerau-Levenshtein, Jaro, Needleman-Wunch, q-grams distance, longest
//!   common substring and subsequence (7 measures), plus Smith-Waterman as
//!   the secondary measure inside Monge-Elkan.
//! * **Schema-based, token-level** ([`tokenlevel`]): cosine, block distance,
//!   Euclidean, Jaccard, generalized Jaccard, Dice, Simon White, overlap
//!   coefficient, Monge-Elkan (9 measures) — 16 schema-based measures total,
//!   unified by [`SchemaBasedMeasure`].
//! * **Schema-agnostic n-gram vector models** ([`vector`]): character
//!   n∈{2,3,4} and token n∈{1,2,3} bag models with TF/TF-IDF weights and the
//!   ARCS / cosine / Jaccard / generalized-Jaccard similarities, and the
//!   interned [`TermArena`] the construction engine scores them from.
//! * **Schema-agnostic n-gram graph models** ([`graphmodel`]): the JInsect
//!   n-gram graphs with containment / value / normalized value / overall
//!   similarity.
//!
//! All similarities return values in `[0, 1]`; distances are normalized into
//! similarities as documented per measure. Unicode is handled at the
//! `char` level.
//!
//! The character measures run on a bound-driven scoring engine:
//! [`bitpar`] holds the Myers bit-parallel Levenshtein kernel and the
//! Ukkonen-banded Damerau-Levenshtein cutoff kernel, [`chartable`] the interned
//! [`CharTable`] the all-pairs scorers prepare once per corpus, and
//! [`CharMeasure::length_upper_bound`] / [`CharMeasure::bag_upper_bound`]
//! the exact pre-scoring upper bounds a top-k sink prunes against.
//! [`lanes`] holds the lane-parallel (SWAR / array-of-lanes) batch forms
//! of those kernels — a multi-text [`MyersBatch`] and batched
//! length/counting-filter screens — bit-identical to the scalar kernels,
//! which stay the per-pair measures and the test oracle.

pub mod bitpar;
pub mod charindex;
pub mod charlevel;
pub mod chartable;
pub mod graphmodel;
pub mod lanes;
pub mod measure;
pub mod tokenize;
pub mod tokenlevel;
pub mod vector;

pub use bitpar::{osa_bounded, BandRows, MyersPattern};
pub use charindex::LengthBucketIndex;
pub use charlevel::{levenshtein_distance_classic, CharMeasure, CharScratch};
pub use chartable::{sorted_common_count, CharTable};
pub use graphmodel::{GraphSimilarity, NGramGraph};
pub use lanes::{MyersBatch, LANE_WIDTH};
pub use measure::SchemaBasedMeasure;
pub use tokenize::{char_ngrams, normalize_text, token_ngrams, tokens, NGramScheme};
pub use tokenlevel::TokenMeasure;
pub use vector::{
    ArenaRow, DenseProbe, DfIndex, ProbePlan, SparseVector, TermArena, TermVocab, TermWeighting,
    VectorMeasure, VectorModel, SUFFIX_BOUND_MARGIN,
};

#[cfg(test)]
mod sync_tests {
    //! `er-pipeline`'s parallel construction engine shares this crate's
    //! read-side structures (DF indexes, sparse vectors, n-gram graphs,
    //! models and measures) immutably across scoped worker threads. These
    //! assertions pin the `Send + Sync` contract at compile time so an
    //! accidental `Rc`/`RefCell`/raw-pointer addition fails here, not in a
    //! downstream crate.
    use super::*;

    fn assert_shared_read_side<T: Send + Sync>() {}

    #[test]
    fn read_side_structures_are_send_sync() {
        assert_shared_read_side::<CharTable>();
        assert_shared_read_side::<DfIndex>();
        assert_shared_read_side::<SparseVector>();
        assert_shared_read_side::<TermArena>();
        assert_shared_read_side::<TermVocab>();
        assert_shared_read_side::<VectorModel>();
        assert_shared_read_side::<NGramGraph>();
        assert_shared_read_side::<SchemaBasedMeasure>();
        assert_shared_read_side::<VectorMeasure>();
        assert_shared_read_side::<GraphSimilarity>();
        assert_shared_read_side::<NGramScheme>();
        assert_shared_read_side::<TermWeighting>();
    }
}
