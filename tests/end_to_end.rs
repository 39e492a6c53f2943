//! End-to-end pipeline: generated dataset → similarity graphs → threshold
//! sweeps → metrics, across crates.

use ccer::core::{GraphStats, ThresholdGrid, WeightSeparation};
use ccer::datasets::{Dataset, DatasetId, DatasetSpec};
use ccer::eval::sweep::SweepEngine;
use ccer::matchers::{AlgorithmConfig, AlgorithmKind, PreparedGraph};
use ccer::pipeline::{
    build_graph, generate_corpus, PipelineConfig, SimilarityFunction, WeightType,
};

#[test]
fn full_pipeline_on_a_balanced_dataset() {
    let dataset = Dataset::generate(DatasetId::D2, 0.05, 3);
    let function = SimilarityFunction::SchemaAgnosticVector {
        scheme: ccer::textsim::NGramScheme::Token(1),
        measure: ccer::textsim::VectorMeasure::CosineTfIdf,
    };
    let graph = build_graph(&dataset, &function, &PipelineConfig::default());
    assert!(!graph.is_empty());

    // True matches carry more weight than noise.
    let sep = WeightSeparation::of(&graph, &dataset.ground_truth);
    assert!(sep.mean_match_weight > sep.mean_nonmatch_weight);

    // Sweep all algorithms; the good ones must do well on balanced data.
    let prepared = PreparedGraph::new(&graph);
    let results = SweepEngine::new(AlgorithmConfig::default()).sweep_all(
        &prepared,
        &dataset.ground_truth,
        &ThresholdGrid::paper(),
    );
    assert_eq!(results.len(), 8);
    let f1 = |k: AlgorithmKind| {
        results
            .iter()
            .find(|r| r.algorithm == k)
            .expect("present")
            .best
            .f1
    };
    assert!(
        f1(AlgorithmKind::Umc) > 0.6,
        "UMC should resolve an easy balanced dataset, got {}",
        f1(AlgorithmKind::Umc)
    );
    assert!(f1(AlgorithmKind::Krc) > 0.6);
}

#[test]
fn corpus_generation_covers_all_weight_types() {
    let dataset = Dataset::generate(DatasetId::D1, 0.03, 9);
    let spec = DatasetSpec::of(DatasetId::D1);
    let functions = SimilarityFunction::catalog(&spec, true);
    // Restrict to a manageable, type-covering subset.
    let subset: Vec<SimilarityFunction> = {
        let mut picked = Vec::new();
        for wt in WeightType::ALL {
            picked.extend(
                functions
                    .iter()
                    .filter(|f| f.weight_type() == wt)
                    .take(2)
                    .cloned(),
            );
        }
        picked
    };
    let corpus = generate_corpus(&dataset, &subset, &PipelineConfig::default());
    assert_eq!(corpus.len(), subset.len());
    for g in &corpus {
        let stats = GraphStats::of(&g.graph);
        assert!(stats.max_weight <= 1.0);
        assert!(stats.min_weight >= 0.0);
    }
    // All four types represented.
    for wt in WeightType::ALL {
        assert!(
            corpus.iter().any(|g| g.function.weight_type() == wt),
            "missing {}",
            wt.name()
        );
    }
}

#[test]
fn category_structure_survives_scaling() {
    // Balanced: nearly everything matched; scarce: few matches.
    let balanced = Dataset::generate(DatasetId::D2, 0.05, 1);
    let scarce = Dataset::generate(DatasetId::D6, 0.05, 1);
    let ratio = |d: &Dataset| d.ground_truth.len() as f64 / d.left.len().min(d.right.len()) as f64;
    assert!(ratio(&balanced) > 0.9, "D2 is balanced");
    assert!(ratio(&scarce) < 0.35, "D6 is scarce");
}
