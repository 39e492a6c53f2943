//! Product matching: compare all eight algorithms on an Abt-Buy-style
//! balanced product dataset (the paper's D2 analogue).
//!
//! ```text
//! cargo run --release --example product_matching
//! ```
//!
//! Generates a synthetic balanced dataset, builds a schema-agnostic TF-IDF
//! cosine similarity graph (the configuration the paper pits against
//! ZeroER/DITTO in Table 7), then sweeps the similarity threshold for every
//! algorithm and reports each one's best operating point.

use ccer::core::ThresholdGrid;
use ccer::datasets::{Dataset, DatasetId};
use ccer::eval::sweep::SweepEngine;
use ccer::matchers::{AlgorithmConfig, PreparedGraph};
use ccer::pipeline::{build_graph, PipelineConfig, SimilarityFunction};
use ccer::textsim::{NGramScheme, VectorMeasure};

fn main() {
    // A scaled-down Abt-Buy analogue: every entity has exactly one match.
    let dataset = Dataset::generate(DatasetId::D2, 0.10, 7);
    println!(
        "dataset {}: |V1| = {}, |V2| = {}, duplicates = {}",
        dataset.label(),
        dataset.left.len(),
        dataset.right.len(),
        dataset.ground_truth.len()
    );

    // Schema-agnostic character bi-gram TF-IDF cosine — the representation
    // the paper reports as UMC's best on D2 (Table 7).
    let function = SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Char(2),
        measure: VectorMeasure::CosineTfIdf,
    };
    let graph = build_graph(&dataset, &function, &PipelineConfig::default());
    println!(
        "similarity graph {}: {} edges ({:.1}% of the Cartesian product)\n",
        function.name(),
        graph.n_edges(),
        100.0 * graph.n_edges() as f64 / (graph.n_left() as f64 * graph.n_right() as f64)
    );

    // Sweep all eight algorithms over the paper's threshold grid.
    let prepared = PreparedGraph::new(&graph);
    let results = SweepEngine::new(AlgorithmConfig::default()).sweep_all(
        &prepared,
        &dataset.ground_truth,
        &ThresholdGrid::paper(),
    );

    println!("algorithm  best t   precision  recall  F1");
    println!("--------------------------------------------");
    let mut best = ("", 0.0f64);
    for r in &results {
        println!(
            "{:<9}  {:>5.2}    {:.3}      {:.3}   {:.3}",
            r.algorithm.name(),
            r.best_threshold,
            r.best.precision,
            r.best.recall,
            r.best.f1
        );
        if r.best.f1 > best.1 {
            best = (r.algorithm.name(), r.best.f1);
        }
    }
    println!(
        "\nbest algorithm on this balanced dataset: {} (F1 = {:.3})",
        best.0, best.1
    );
    println!("paper finding (ix): UMC is the best choice for balanced collections.");
}
