#![warn(missing_docs)]

//! # ccer — Clean-Clean Entity Resolution via bipartite graph matching
//!
//! Facade crate re-exporting the full workspace API. See the README for a
//! guided tour and `DESIGN.md` for the system inventory.
//!
//! ```
//! use ccer::core::{GraphBuilder};
//! use ccer::matchers::{Matcher, PreparedGraph, Umc};
//!
//! let mut b = GraphBuilder::new(2, 2);
//! b.add_edge(0, 0, 0.9).unwrap();
//! b.add_edge(1, 1, 0.8).unwrap();
//! let graph = b.build();
//! let prepared = PreparedGraph::new(&graph);
//! let matching = Umc.run(&prepared, 0.5);
//! assert_eq!(matching.pairs(), &[(0, 0), (1, 1)]);
//! ```
//!
//! End-to-end over a generated benchmark dataset:
//!
//! ```
//! use ccer::core::ThresholdGrid;
//! use ccer::datasets::{Dataset, DatasetId};
//! use ccer::eval::sweep::SweepEngine;
//! use ccer::matchers::{AlgorithmConfig, AlgorithmKind, PreparedGraph};
//! use ccer::pipeline::{build_graph, PipelineConfig, SimilarityFunction};
//! use ccer::textsim::{NGramScheme, VectorMeasure};
//!
//! let dataset = Dataset::generate(DatasetId::D2, 0.02, 7);
//! let function = SimilarityFunction::SchemaAgnosticVector {
//!     scheme: NGramScheme::Token(1),
//!     measure: VectorMeasure::CosineTfIdf,
//! };
//! let graph = build_graph(&dataset, &function, &PipelineConfig::default());
//! let prepared = PreparedGraph::new(&graph);
//! let result = SweepEngine::new(AlgorithmConfig::default()).sweep_algorithm(
//!     AlgorithmKind::Umc,
//!     &prepared,
//!     &dataset.ground_truth,
//!     &ThresholdGrid::paper(),
//! );
//! assert!(result.best.f1 > 0.5, "balanced data resolves well");
//! ```

/// Graph substrate: similarity graphs, matchings, ground truth, utilities.
pub use er_core as core;
/// Synthetic CCER dataset generators (D1–D10 analogues).
pub use er_datasets as datasets;
/// Deterministic semantic embedding substrate.
pub use er_embed as embed;
/// Evaluation framework: metrics, sweeps, statistics.
pub use er_eval as eval;
/// The eight bipartite matching algorithms plus the exact min-cost-flow oracle.
pub use er_matchers as matchers;
/// Similarity graph generation pipeline.
pub use er_pipeline as pipeline;
/// Resident matching service: point queries + incremental insert/delete.
pub use er_service as service;
/// Syntactic similarity measures and representation models.
pub use er_textsim as textsim;
