#![warn(missing_docs)]

//! # er-pipeline — similarity graph generation
//!
//! Turns a CCER [`Dataset`](er_datasets::Dataset) into the similarity
//! graphs that feed the matching algorithms, exactly as §4/§5 of the paper
//! prescribe:
//!
//! * the full **taxonomy** of learning-free similarity functions
//!   ([`taxonomy`]): 16 schema-based syntactic measures per focus
//!   attribute, 60 schema-agnostic syntactic functions (36 n-gram vector +
//!   24 n-gram graph), and the semantic functions (fastText/ALBERT ×
//!   cosine/Euclidean/Word-Mover's, schema-based and schema-agnostic);
//! * **no blocking**: every entity pair with similarity above 0 becomes an
//!   edge; set/bag measures use exact inverted-index candidate generation
//!   (a pair shares a term iff its similarity is positive), edit-distance
//!   and semantic measures score all pairs;
//! * **min-max normalization** of every graph's weights with a `0.0`
//!   floor: only pairs with a positive score are kept, and they map onto
//!   `(0, 1]`;
//! * the paper's first **cleaning rule** (drop graphs whose true matches
//!   all have zero weight) — the F1-dependent rules 2-3 live in `er-eval`,
//!   as they need algorithm sweeps;
//! * a **parallel construction engine** ([`graphgen`]): per-graph
//!   left-row sharding over scoped workers with bit-identical results to
//!   the serial path, a **streaming top-k path** ([`build_graph_topk`]) that bounds peak
//!   memory at `O(n_left × k)` edges by pruning during the score phase,
//!   and a prepared output ([`build_prepared`]) whose emit-time sorted
//!   edge view is shared with threshold sweeps (one sort across
//!   construction and matching);
//! * **index-driven candidate generation** ([`candidates`]): the top-k
//!   path can generate candidates from per-branch indexes (prefix-filtered
//!   postings, length buckets with counting filters, centroid balls)
//!   under the sink's admission bound — [`build_graph_topk`] with
//!   [`CandidateMode::Indexed`] — so ruled-out pairs are never
//!   materialized while graphs stay bit-identical to enumeration (the
//!   two cosine vector measures walk their weighted postings instead,
//!   which is faster than their prefix filter);
//! * an **out-of-core build** ([`sharded`]): [`build_graph_sharded`]
//!   scores bounded left-row shards through the same engine and appends
//!   each finished shard's rows straight to the columnar store writer
//!   (`er_core::store`), read back as a file-backed `MappedCsr` — peak
//!   resident edges drop to `2 × shard_rows × k` (one shard scored while
//!   the previous one is written) while the store file
//!   stays byte-identical to `write_csr` of the in-RAM top-k build;
//! * a parallel [`runner`] that generates a dataset's whole
//!   graph corpus, dividing its thread budget with the per-graph engine.
//!
//! # Entry points
//!
//! Construction has five public functions, one per capability:
//!
//! | function | output |
//! |---|---|
//! | [`build_graph`] / [`build_graph_over`] | dense graph over a [`Dataset`](er_datasets::Dataset) / two bare collections |
//! | [`build_prepared`] | dense graph plus its sorted edge view |
//! | [`build_graph_topk`] | in-RAM top-k graph, [`BuildStats`], [`NormFrame`] |
//! | [`build_graph_sharded`] | out-of-core top-k store, [`BuildStats`], [`NormFrame`] |
//!
//! Both top-k builds report through the one [`BuildStats`]; the in-RAM
//! build is its single-shard case.
//!
//! A build takes one setting ([`PipelineConfig`]): the thread budget.
//! The out-of-core build adds its shard size and the directory for the
//! store writer's temp files ([`ShardedConfig`]). The engine fixes the rest: the positivity filter
//! is always on, the Word Mover's bags keep [`WMD_TOKEN_CAP`] tokens,
//! candidates are scored through the lane kernels, chunk sizes follow
//! the row and thread counts, writing always overlaps scoring, and the
//! store writer's sort runs follow the shard budget.

pub mod candidates;
pub mod cleaning;
pub mod config;
pub mod graphgen;
pub mod resident;
pub mod runner;
pub mod sharded;
pub mod taxonomy;

pub use candidates::CandidateMode;
pub use cleaning::{clean_graphs, CleaningOutcome};
pub use config::PipelineConfig;
pub use graphgen::{
    build_graph, build_graph_over, build_graph_topk, build_prepared, BuildStats, BuiltGraph,
    GeneratedGraph, NormFrame, WMD_TOKEN_CAP,
};
pub use resident::ResidentScorer;
pub use runner::generate_corpus;
pub use sharded::{build_graph_sharded, ShardedConfig};
pub use taxonomy::{SemanticScope, SimilarityFunction, WeightType};
