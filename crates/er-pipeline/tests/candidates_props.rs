//! Property-based tests for **index-driven candidate generation**
//! (`CandidateMode::Indexed`) — the completeness-proving layer of the
//! sub-quadratic construction path.
//!
//! Invariants:
//! 1. **Completeness / bit-identity**: for every branch of the taxonomy —
//!    all 7 character measures over their length-bucket index, the four
//!    non-cosine n-gram vector measures over the prefix-filtered inverted
//!    index, the semantic cosine/Euclidean/Word-Mover's branches over
//!    their centroid balls, the n-gram graph models over their edge-key
//!    postings, and the schema-based token measures, which walk their
//!    enumeration — the indexed build is **bit-identical** to the
//!    enumerated build, serially and with 4 workers, for every `k`. An
//!    index may only *skip* pairs whose exact upper bound falls strictly
//!    below the sink's admission bound, so no retained edge can ever be
//!    lost. The two cosine vector measures walk their weighted postings
//!    under both modes, so their cases compare that walk with itself;
//!    their prefix filter, which only resident probes still walk, is
//!    pinned to the weighted walk by the unit property
//!    `cosine_prefix_filter_rows_equal_the_weighted_walk` in
//!    `src/candidates.rs`.
//! 2. **Counter consistency** (`BuildStats`): `generated_pairs ==
//!    pruned_pairs + scored_pairs` on both modes (every generated
//!    candidate is pruned or scored, never both, never dropped);
//!    `offered_edges <= scored_pairs`; indexed generation never exceeds
//!    enumerated generation.
//! 3. **Exact token enumeration**: on the positive-similarity token
//!    branches (`CosineTf`, `Jaccard`), every index-generated pair shares
//!    a term and therefore scores positive and is offered —
//!    `offered_edges == generated_pairs` on the indexed path.
//! 4. **Degenerate `k`**: `k = 0` generates nothing at all on the indexed
//!    path (the admission bound is `+∞` from the start); `k = ∞` never
//!    lets a generator skip (the bound stays `-∞`), reproducing the dense
//!    edge set.
//! 5. **The indexes prune on a realistic corpus** (fixed seed): on the
//!    generated movies linkage (D7 at scale 0.05), the edit-distance
//!    index and the token cosine's weighted postings walk (both modes)
//!    materialize strictly fewer pairs than the cross product. No
//!    proptest can state this on random collections, where a degenerate
//!    index that generates every pair is still correct.

use er_core::SimilarityGraph;
use er_datasets::{Dataset, DatasetId, EntityCollection, EntityProfile};
use er_embed::{EmbeddingModel, SemanticMeasure};
use er_pipeline::{
    build_graph_over, build_graph_topk, BuildStats, CandidateMode, PipelineConfig, SemanticScope,
    SimilarityFunction,
};
use er_textsim::{
    CharMeasure, GraphSimilarity, NGramScheme, SchemaBasedMeasure, TokenMeasure, VectorMeasure,
};
use proptest::prelude::*;

/// A vocabulary of short distinct tokens.
const VOCAB: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
];

/// Collections of 1..=max entities with a "name" attribute (always) and a
/// "desc" attribute (missing when its token list is empty).
fn arb_collection(max_entities: usize) -> impl Strategy<Value = EntityCollection> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0usize..VOCAB.len(), 0..4),
            proptest::collection::vec(0usize..VOCAB.len(), 0..3),
        ),
        1..=max_entities,
    )
    .prop_map(|entities| EntityCollection {
        profiles: entities
            .into_iter()
            .enumerate()
            .map(|(i, (name, desc))| {
                let text = |toks: Vec<usize>| -> String {
                    toks.into_iter()
                        .map(|t| VOCAB[t])
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                let mut attrs = vec![("name".to_string(), text(name))];
                if !desc.is_empty() {
                    attrs.push(("desc".to_string(), text(desc)));
                }
                EntityProfile::new(i as u32, attrs)
            })
            .collect(),
        attribute_names: vec!["name".into(), "desc".into()],
    })
}

fn cfg_with(threads: usize) -> PipelineConfig {
    PipelineConfig { threads }
}

/// Exact comparison: edge sequence and weight bits.
fn assert_bit_identical(a: &SimilarityGraph, b: &SimilarityGraph, what: &str) {
    assert_eq!(a.n_left(), b.n_left(), "{what}: n_left");
    assert_eq!(a.n_right(), b.n_right(), "{what}: n_right");
    assert_eq!(a.n_edges(), b.n_edges(), "{what}: edge count");
    for (x, y) in a.edges().iter().zip(b.edges()) {
        assert_eq!((x.left, x.right), (y.left, y.right), "{what}: pair order");
        assert_eq!(
            x.weight.to_bits(),
            y.weight.to_bits(),
            "{what}: weight bits of ({}, {})",
            x.left,
            x.right
        );
    }
}

/// Invariant 2 asserts shared by every case.
fn assert_counters_consistent(stats: &BuildStats, what: &str) {
    assert_eq!(
        stats.generated_pairs,
        stats.pruned_pairs + stats.scored_pairs,
        "{what}: generated != pruned + scored"
    );
    assert!(
        stats.offered_edges <= stats.scored_pairs,
        "{what}: offered {} > scored {}",
        stats.offered_edges,
        stats.scored_pairs
    );
    assert!(
        stats.retained_edges <= stats.offered_edges,
        "{what}: retained {} > offered {}",
        stats.retained_edges,
        stats.offered_edges
    );
}

/// Run one function through both modes and check invariants 1 and 2.
fn check_function(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    threads: usize,
) {
    let cfg = cfg_with(threads);
    let what = format!("{} k={k} threads={threads}", function.name());
    let (g_enum, s_enum, _) =
        build_graph_topk(left, right, function, k, CandidateMode::Enumerated, &cfg);
    let (g_idx, s_idx, _) =
        build_graph_topk(left, right, function, k, CandidateMode::Indexed, &cfg);
    assert_bit_identical(&g_enum, &g_idx, &what);
    assert_counters_consistent(&s_enum, &format!("{what} enumerated"));
    assert_counters_consistent(&s_idx, &format!("{what} indexed"));
    assert!(
        s_idx.generated_pairs <= s_enum.generated_pairs,
        "{what}: indexed generated {} > enumerated generated {}",
        s_idx.generated_pairs,
        s_enum.generated_pairs
    );
}

/// The taxonomy branches with a candidate index.
fn indexed_branches() -> Vec<SimilarityFunction> {
    let mut fns: Vec<SimilarityFunction> = CharMeasure::all()
        .into_iter()
        .map(|m| SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(m),
        })
        .collect();
    fns.extend(VectorMeasure::all().into_iter().map(|measure| {
        SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure,
        }
    }));
    fns.push(SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Char(3),
        measure: VectorMeasure::CosineTfIdf,
    });
    fns.push(SimilarityFunction::Semantic {
        model: EmbeddingModel::FastText,
        measure: SemanticMeasure::Cosine,
        scope: SemanticScope::SchemaAgnostic,
    });
    fns.push(SimilarityFunction::Semantic {
        model: EmbeddingModel::FastText,
        measure: SemanticMeasure::Euclidean,
        scope: SemanticScope::SchemaAgnostic,
    });
    fns.push(SimilarityFunction::Semantic {
        model: EmbeddingModel::Albert,
        measure: SemanticMeasure::WordMovers,
        scope: SemanticScope::SchemaBased {
            attribute: "name".into(),
        },
    });
    fns
}

/// Branches without a candidate index: indexed mode must fall back to
/// enumeration and still be bit-identical with consistent counters.
fn fallback_branches() -> Vec<SimilarityFunction> {
    vec![
        SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Token(TokenMeasure::Jaccard),
        },
        SimilarityFunction::SchemaAgnosticGraph {
            scheme: NGramScheme::Char(3),
            measure: GraphSimilarity::Value,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariants 1 and 2 over every character measure: the inverted
    /// length and counting filters never drop a retained pair, serially
    /// and with 4 workers.
    #[test]
    fn char_indexed_matches_enumerated(
        left in arb_collection(6),
        right in arb_collection(6),
        k in 1usize..=2,
    ) {
        for m in CharMeasure::all() {
            let function = SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(m),
            };
            for threads in [1, 4] {
                check_function(&left, &right, &function, k, threads);
            }
        }
    }

    /// Invariants 1 and 2 over every n-gram vector measure: the
    /// prefix-filtered probe plans never stop early while an admissible
    /// candidate is still undiscovered.
    #[test]
    fn vector_indexed_matches_enumerated(
        left in arb_collection(6),
        right in arb_collection(6),
        k in 1usize..=2,
    ) {
        for measure in VectorMeasure::all() {
            let function = SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Token(1),
                measure,
            };
            for threads in [1, 4] {
                check_function(&left, &right, &function, k, threads);
            }
        }
        // One character-n-gram scheme too: denser postings, longer plans.
        let function = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Char(3),
            measure: VectorMeasure::CosineTfIdf,
        };
        check_function(&left, &right, &function, k, 1);
    }

    /// Invariants 1 and 2 over the semantic branches: centroid-ball
    /// generation (raw vectors for Euclidean, unit-normalized copies for
    /// cosine, bag summaries for Word Mover's) never prunes a retained
    /// pair.
    #[test]
    fn semantic_indexed_matches_enumerated(
        left in arb_collection(5),
        right in arb_collection(5),
        k in 1usize..=2,
    ) {
        let functions = [
            SimilarityFunction::Semantic {
                model: EmbeddingModel::FastText,
                measure: SemanticMeasure::Cosine,
                scope: SemanticScope::SchemaAgnostic,
            },
            SimilarityFunction::Semantic {
                model: EmbeddingModel::FastText,
                measure: SemanticMeasure::Euclidean,
                scope: SemanticScope::SchemaAgnostic,
            },
            SimilarityFunction::Semantic {
                model: EmbeddingModel::Albert,
                measure: SemanticMeasure::WordMovers,
                scope: SemanticScope::SchemaBased { attribute: "name".into() },
            },
        ];
        for function in &functions {
            for threads in [1, 4] {
                check_function(&left, &right, function, k, threads);
            }
        }
    }

    /// Invariants 1 and 2 for branches without an index: their `Index`
    /// candidate source walks the scorer's own enumeration, bit-identical
    /// by construction but checked anyway (the counters must stay
    /// consistent through that fallback walk).
    #[test]
    fn fallback_indexed_matches_enumerated(
        left in arb_collection(6),
        right in arb_collection(6),
        k in 1usize..=2,
    ) {
        for function in fallback_branches() {
            check_function(&left, &right, &function, k, 1);
        }
    }

    /// Invariant 3: on the positive-similarity token branches every
    /// generated candidate shares a term, scores positive, and is
    /// offered — indexed generation is *exact*, not just complete.
    #[test]
    fn token_indexed_generation_is_exact(
        left in arb_collection(6),
        right in arb_collection(6),
        k in 1usize..=3,
    ) {
        for measure in [VectorMeasure::CosineTf, VectorMeasure::Jaccard] {
            let function = SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Token(1),
                measure,
            };
            let (_, stats, _) = build_graph_topk(
                &left,
                &right,
                &function,
                k,
                CandidateMode::Indexed,
                &cfg_with(1),
            );
            prop_assert_eq!(
                stats.offered_edges,
                stats.generated_pairs,
                "{}: every index-generated pair shares a term and is offered",
                function.name()
            );
        }
    }

    /// Invariant 4: `k = 0` generates nothing on the indexed path (the
    /// admission bound starts at `+∞`), and `k = ∞` reproduces the dense
    /// edge set (the bound never leaves `-∞`, so no generator ever
    /// skips).
    #[test]
    fn degenerate_k_bounds_generation(
        left in arb_collection(5),
        right in arb_collection(5),
    ) {
        for function in indexed_branches() {
            let cfg = cfg_with(1);
            let (g0, s0, _) = build_graph_topk(
                &left, &right, &function, 0, CandidateMode::Indexed, &cfg,
            );
            prop_assert_eq!(g0.n_edges(), 0, "{}: k = 0 keeps nothing", function.name());
            prop_assert_eq!(
                s0.generated_pairs,
                0,
                "{}: k = 0 must not generate a single candidate",
                function.name()
            );

            let (g_inf, _, _) = build_graph_topk(
                &left, &right, &function, usize::MAX, CandidateMode::Indexed, &cfg,
            );
            let dense = build_graph_over(&left, &right, &function, &cfg);
            let canon = |g: &SimilarityGraph| -> Vec<(u32, u32, u64)> {
                let mut v: Vec<_> = g
                    .edges()
                    .iter()
                    .map(|e| (e.left, e.right, e.weight.to_bits()))
                    .collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(
                canon(&dense),
                canon(&g_inf),
                "{}: indexed k = ∞ reproduces the dense edge set",
                function.name()
            );
        }
    }
}

/// Invariant 5: the guard that an index has not silently stopped
/// pruning. Bit identity and `indexed ≤ enumerated` are rechecked on the
/// generated corpus, under the production default config.
#[test]
fn indexes_prune_on_a_generated_corpus() {
    let dataset = Dataset::generate(DatasetId::D7, 0.05, 17);
    let (left, right) = (&dataset.left, &dataset.right);
    let cross = left.len() * right.len();
    let cfg = PipelineConfig::default();
    let functions = [
        SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        },
        SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        },
    ];
    for function in &functions {
        let what = format!("{} on D7 x0.05 k=3", function.name());
        let (g_enum, s_enum, _) =
            build_graph_topk(left, right, function, 3, CandidateMode::Enumerated, &cfg);
        let (g_idx, s_idx, _) =
            build_graph_topk(left, right, function, 3, CandidateMode::Indexed, &cfg);
        assert_bit_identical(&g_enum, &g_idx, &what);
        assert!(
            s_idx.generated_pairs <= s_enum.generated_pairs,
            "{what}: indexed generated {} > enumerated generated {}",
            s_idx.generated_pairs,
            s_enum.generated_pairs
        );
        assert!(
            s_idx.generated_pairs < cross,
            "{what}: degenerate index, all {cross} cross pairs generated"
        );
    }
}
