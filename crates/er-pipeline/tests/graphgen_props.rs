//! Property-based tests for the parallel similarity-graph construction
//! engine.
//!
//! Invariants:
//! 1. parallel construction is **bit-identical** to the serial path
//!    (same edges, same order, same weight bits) for every branch of the
//!    similarity-function taxonomy, across thread counts;
//! 2. the prepared output's sorted edge view equals a from-scratch
//!    `sorted_edges()` of the same graph;
//! 3. every normalized weight is finite, in `[0, 1]`, and positive (the
//!    positivity filter and the 0.0-floor normalization contract);
//! 4. the streaming top-k path is bit-identical to dense-then-prune
//!    (`build_graph` + `pruned_top_k`) for finite `k`, reproduces the
//!    dense edge set at `k = ∞`, holds its `O(n_left × k)` peak-resident
//!    bound, and is itself bit-identical across thread counts;
//! 5. **bound-driven scoring is exact**: for every character-level
//!    measure and the Word Mover's branch — the scorers that prune
//!    candidates against the sink's admission bound (length/bag filters,
//!    banded edit-distance cutoffs, centroid bounds, transport
//!    short-circuits) — the pruned top-k build remains bit-identical to
//!    dense-then-prune for `threads ∈ {1, 4}`, and the offered/pruned/
//!    scored accounting stays consistent;
//! 6. **the lane builds equal the scalar oracle**: the top-k graphs
//!    every bounded scorer builds (batched screens, multi-text Myers,
//!    lane-parallel dense kernels, WMD row tables filled by the
//!    interleaved block kernel, the weighted-postings cosine walk) equal
//!    the brute-force scalar oracle (`oracle/mod.rs`) bit for bit, across
//!    both candidate modes and `threads ∈ {1, 4}`;
//! 7. **the thread-count surface is flat in the bits on a realistic
//!    corpus** (fixed seed): on the generated movies linkage (D7 at scale
//!    0.05), every `threads ∈ {1, 2, 4}` cell of an indexed Levenshtein
//!    and an enumerated cosine top-3 build equals the brute-force scalar
//!    oracle and dense-then-prune. Sweeps over a graph are thread-count
//!    invariant by `er-eval/tests/proptests.rs` (2 and 4 workers against
//!    the naive per-threshold re-run).

mod oracle;

use er_core::{GroundTruth, SimilarityGraph};
use er_datasets::{Dataset, DatasetId, DatasetSpec, EntityCollection, EntityProfile};
use er_embed::{EmbeddingModel, SemanticMeasure};
use er_pipeline::{
    build_graph_over, build_graph_topk, build_prepared, BuildStats, CandidateMode, PipelineConfig,
    SemanticScope, SimilarityFunction,
};
use er_textsim::{CharMeasure, GraphSimilarity, NGramScheme, SchemaBasedMeasure, VectorMeasure};
use proptest::prelude::*;

/// A vocabulary of short distinct tokens.
const VOCAB: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
];

/// Collections of 1..=max entities with a "name" attribute (always) and a
/// "desc" attribute (missing when its token list is empty, exercising the
/// attribute filter).
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

/// One representative function per taxonomy branch (the WMD variant covers
/// the token-vector semantic sub-path with its per-worker row tables).
fn branch_representatives() -> Vec<SimilarityFunction> {
    vec![
        SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        },
        SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        },
        SimilarityFunction::SchemaAgnosticGraph {
            scheme: NGramScheme::Char(3),
            measure: GraphSimilarity::Value,
        },
        SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::Cosine,
            scope: SemanticScope::SchemaAgnostic,
        },
        SimilarityFunction::Semantic {
            model: EmbeddingModel::Albert,
            measure: SemanticMeasure::WordMovers,
            scope: SemanticScope::SchemaBased {
                attribute: "name".into(),
            },
        },
    ]
}

/// The enumerated in-RAM top-k build of `function` and its accounting.
fn topk_enumerated(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    cfg: &PipelineConfig,
) -> (SimilarityGraph, BuildStats) {
    let (g, stats, _) = build_graph_topk(left, right, function, k, CandidateMode::Enumerated, cfg);
    (g, stats)
}

fn cfg(threads: usize) -> PipelineConfig {
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

fn assert_weights_normalized(g: &SimilarityGraph, what: &str) {
    for e in g.edges() {
        assert!(
            e.weight.is_finite() && e.weight > 0.0 && e.weight <= 1.0,
            "{what}: weight {} of ({}, {}) outside (0, 1]",
            e.weight,
            e.left,
            e.right
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariants 1 and 3: parallel ≡ serial, bit for bit, for every
    /// taxonomy branch, under an oversubscribed thread count (forcing
    /// multi-chunk merges).
    #[test]
    fn parallel_construction_matches_serial(
        left in arb_collection(6),
        right in arb_collection(6),
        threads in 2usize..=5,
    ) {
        for function in branch_representatives() {
            let serial = build_graph_over(&left, &right, &function, &cfg(1));
            let parallel =
                build_graph_over(&left, &right, &function, &cfg(threads));
            assert_bit_identical(&serial, &parallel, &function.name());
            assert_weights_normalized(&serial, &function.name());
        }
    }

    /// Invariant 4: streaming top-k ≡ dense-then-prune for every branch,
    /// bit for bit; `k = ∞` reproduces the dense edge set; parallel ≡
    /// serial; the peak-resident accounting never exceeds `n_left × k`.
    #[test]
    fn topk_streaming_matches_dense_then_prune(
        left in arb_collection(6),
        right in arb_collection(6),
        threads in 2usize..=4,
        k in 1usize..=3,
    ) {
        for function in branch_representatives() {
            let dense = build_graph_over(&left, &right, &function, &cfg(1));
            let (streamed, stats) =
                topk_enumerated(&left, &right, &function, k, &cfg(1));
            assert_bit_identical(
                &dense.pruned_top_k(k),
                &streamed,
                &format!("{} topk k={k}", function.name()),
            );
            prop_assert!(stats.peak_resident_edges <= left.len() * k);
            prop_assert_eq!(stats.retained_edges, streamed.n_edges());

            let parallel =
                topk_enumerated(&left, &right, &function, k, &cfg(threads)).0;
            assert_bit_identical(
                &streamed,
                &parallel,
                &format!("{} topk parallel k={k}", function.name()),
            );

            let unbounded =
                topk_enumerated(&left, &right, &function, usize::MAX, &cfg(1)).0;
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
                canon(&unbounded),
                "{}: k = ∞ reproduces the dense edge set",
                function.name()
            );
        }
    }

    /// Invariant 5: prune-aware scoring never changes a bit. Every
    /// measure with upper bounds (all 7 character measures, Word
    /// Mover's) builds the same top-k graph as the unpruned
    /// dense-then-prune flow, serially and with 4 workers; small `k`
    /// keeps the admission bound tight so pruning actually fires.
    #[test]
    fn prune_aware_topk_is_exact_for_bounded_scorers(
        left in arb_collection(6),
        right in arb_collection(6),
        k in 1usize..=2,
    ) {
        let mut functions: Vec<SimilarityFunction> = CharMeasure::all()
            .into_iter()
            .map(|m| SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(m),
            })
            .collect();
        functions.push(SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::WordMovers,
            scope: SemanticScope::SchemaBased {
                attribute: "name".into(),
            },
        });
        for function in functions {
            let dense = build_graph_over(&left, &right, &function, &cfg(1));
            let (streamed, stats) =
                topk_enumerated(&left, &right, &function, k, &cfg(1));
            assert_bit_identical(
                &dense.pruned_top_k(k),
                &streamed,
                &format!("{} pruned topk k={k}", function.name()),
            );
            let parallel =
                topk_enumerated(&left, &right, &function, k, &cfg(4)).0;
            assert_bit_identical(
                &streamed,
                &parallel,
                &format!("{} pruned topk 4 threads k={k}", function.name()),
            );
            // Accounting consistency: every emitted candidate was fully
            // scored, and pruned candidates were never emitted.
            prop_assert!(
                stats.offered_edges <= stats.scored_pairs,
                "{}: offered {} > scored {}",
                function.name(),
                stats.offered_edges,
                stats.scored_pairs
            );
            prop_assert!(stats.retained_edges <= stats.offered_edges);
        }
    }

    /// Invariant 6: the lane kernels never change a bit. For every
    /// bounded scorer family (all 7 character measures, Word Mover's,
    /// dense cosine) and both token-vector cosines, `build_graph_topk`
    /// equals the brute-force scalar oracle bit for bit — across both
    /// candidate modes (enumeration and index-driven generation) and
    /// `threads ∈ {1, 4}`. Small `k` keeps the admission bound tight, so
    /// the stale-bound lane screens and buffered index flushes actually
    /// diverge from per-pair pruning *decisions* while the retained
    /// graphs must not.
    #[test]
    fn topk_builds_match_the_scalar_oracle(
        left in arb_collection(6),
        right in arb_collection(6),
        k in 1usize..=2,
    ) {
        let mut functions: Vec<SimilarityFunction> = CharMeasure::all()
            .into_iter()
            .map(|m| SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(m),
            })
            .collect();
        functions.push(SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::WordMovers,
            scope: SemanticScope::SchemaBased {
                attribute: "name".into(),
            },
        });
        functions.push(SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::Cosine,
            scope: SemanticScope::SchemaAgnostic,
        });
        // The token-vector cosine branch has its own accumulator walk
        // (the weighted postings in `VectorScorer`).
        functions.push(SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        });
        functions.push(SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Char(2),
            measure: VectorMeasure::CosineTf,
        });
        for function in functions {
            let want = oracle::topk(&left, &right, &function, k);
            for mode in [CandidateMode::Enumerated, CandidateMode::Indexed] {
                for threads in [1usize, 4] {
                    let (g, _, _) =
                        build_graph_topk(&left, &right, &function, k, mode, &cfg(threads));
                    prop_assert_eq!(
                        oracle::edge_bits(&g),
                        want.clone(),
                        "{} ≡ oracle mode={:?} threads={} k={}",
                        function.name(),
                        mode,
                        threads,
                        k
                    );
                }
            }
        }
    }

    /// Invariant 2: the prepared output's sorted view is exactly the
    /// graph's sorted edge view — no divergence from sorting at emit time.
    #[test]
    fn prepared_output_sorted_view_is_canonical(
        left in arb_collection(6),
        right in arb_collection(6),
        threads in 1usize..=4,
    ) {
        let function = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::Jaccard,
        };
        let dataset = Dataset {
            spec: DatasetSpec::of(DatasetId::D1),
            left,
            right,
            ground_truth: GroundTruth::new(Vec::new()),
        };
        let built = build_prepared(&dataset, &function, &cfg(threads));
        let reference = built.graph.sorted_edges();
        prop_assert_eq!(built.sorted.len(), built.graph.n_edges());
        for (a, b) in built.sorted.all().iter().zip(reference.all()) {
            prop_assert_eq!((a.left, a.right), (b.left, b.right));
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }
}

/// Invariant 7. The cosine build runs enumerated on purpose: the indexed
/// prefix-filter walk scores one candidate at a time, so enumerated
/// candidates are where the weighted-postings accumulator engages.
#[test]
fn threads_are_bit_identical_on_a_generated_corpus() {
    let dataset = Dataset::generate(DatasetId::D7, 0.05, 17);
    let (left, right) = (&dataset.left, &dataset.right);
    let k = 3;
    let builds = [
        (
            SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
            },
            CandidateMode::Indexed,
        ),
        (
            SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Token(1),
                measure: VectorMeasure::CosineTfIdf,
            },
            CandidateMode::Enumerated,
        ),
    ];
    for (function, mode) in &builds {
        let want = oracle::topk(left, right, function, k);
        let dense = build_graph_over(left, right, function, &cfg(1));
        assert_eq!(
            oracle::edge_bits(&dense.pruned_top_k(k)),
            want,
            "{} dense-then-prune on D7",
            function.name()
        );
        for threads in [1, 2, 4] {
            let (g, _, _) = build_graph_topk(left, right, function, k, *mode, &cfg(threads));
            assert_eq!(
                oracle::edge_bits(&g),
                want,
                "{} {mode:?} threads={threads} on D7",
                function.name()
            );
        }
    }
}
