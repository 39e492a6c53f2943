//! Bring your own data: TSV in, resolved pairs out.
//!
//! ```text
//! cargo run --release --example custom_dataset
//! ```
//!
//! The full adoption path for real datasets (e.g. the JedAI benchmark
//! files the paper evaluates): two collection TSVs plus a ground-truth
//! TSV are imported, scored by the indexed top-k build, swept over the
//! paper's threshold grid and evaluated — no generated `Dataset`
//! involved. For demonstration the example first *writes* a small
//! dataset to a temp directory, standing in for your own files on disk.

use ccer::core::ThresholdGrid;
use ccer::datasets::export::export_dataset;
use ccer::datasets::{import_dataset, Dataset, DatasetId};
use ccer::eval::sweep::SweepEngine;
use ccer::matchers::{AlgorithmConfig, PreparedGraph};
use ccer::pipeline::{build_graph_topk, CandidateMode, PipelineConfig, SimilarityFunction};
use ccer::textsim::{NGramScheme, VectorMeasure};

fn main() {
    // Stand-in for your own files: export a generated dataset as TSV.
    let dir = std::env::temp_dir().join("ccer_custom_dataset");
    let generated = Dataset::generate(DatasetId::D3, 0.05, 11);
    export_dataset(&generated, &dir).expect("write TSVs");
    println!(
        "wrote {}_{{left,right,truth}}.tsv under {}\n",
        generated.label(),
        dir.display()
    );

    // 1. Import. Collections are validated (dense ids, header shape) and
    //    the ground truth is checked for the one-to-one constraint.
    let data = import_dataset(&dir, generated.label()).expect("import TSVs");
    println!(
        "imported {:?}: |V1| = {}, |V2| = {}, {} known duplicates",
        data.name,
        data.left.len(),
        data.right.len(),
        data.ground_truth.len()
    );

    // 2. Score: schema-agnostic TF-IDF cosine over the whole profiles.
    //    The top-k build keeps each left entity's `k` best candidates.
    //    For the cosines it walks the weighted inverted index once per
    //    row, accumulating every term-sharing pair's dot product term by
    //    term, so pairs that share no term are never generated.
    let function = SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Token(1),
        measure: VectorMeasure::CosineTfIdf,
    };
    let k = 10;
    let (graph, stats, _) = build_graph_topk(
        &data.left,
        &data.right,
        &function,
        k,
        CandidateMode::Indexed,
        &PipelineConfig::default(),
    );
    println!(
        "similarity graph: {} edges (top {k} per left entity), {} of {} pairs generated\n",
        graph.n_edges(),
        stats.generated_pairs,
        data.left.len() * data.right.len()
    );

    // 3. Match: sweep all eight algorithms over the paper's threshold
    //    grid and report each one's best configuration.
    let prepared = PreparedGraph::new(&graph);
    let results = SweepEngine::new(AlgorithmConfig::default()).sweep_all(
        &prepared,
        &data.ground_truth,
        &ThresholdGrid::paper(),
    );
    println!(
        "{:<6} {:>7} {:>10} {:>8} {:>8}",
        "algo", "best t", "precision", "recall", "F1"
    );
    for r in &results {
        println!(
            "{:<6} {:>7.2} {:>10.3} {:>8.3} {:>8.3}",
            r.algorithm.name(),
            r.best_threshold,
            r.best.precision,
            r.best.recall,
            r.best.f1
        );
    }
}
