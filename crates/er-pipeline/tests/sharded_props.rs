//! Property tests for the out-of-core sharded construction path
//! (`er_pipeline::sharded`).
//!
//! Invariants:
//! 1. **bit identity**: `build_graph_sharded` followed by
//!    `MappedCsr::to_csr` equals `CsrGraph::from_graph` over the in-RAM
//!    `build_graph_topk` graph — same edges, same order, same
//!    weight bits — for every taxonomy branch, across shard sizes
//!    (including 1-row shards and shards larger than the input), thread
//!    counts, and both candidate modes;
//! 2. **normalization frame identity**: the frame folded from per-shard
//!    maxima equals the in-RAM build's frame (`NormFrame` is `PartialEq`
//!    over its raw `f64` field, so this is a bitwise statement);
//! 3. **resident budget**: peak resident edges never exceed the
//!    admission budget (`2 × shard_rows × k`: one shard scored while the
//!    previous one is written), the spill accounting is consistent with
//!    the retained edge count, the spill directory is empty after the
//!    build, and the flow counters (generated,
//!    offered, pruned, scored, retained) equal the in-RAM build's — its
//!    single-shard case;
//! 4. **one byte format from both store writers**: at one to four
//!    scoring threads, the store file the sharded build writes is
//!    *byte-identical* to `write_csr` of the in-RAM build — sorted edge
//!    section, checksum and all;
//! 5. **the budget bites on a realistic corpus** (fixed seed): on the
//!    generated movies linkage (D7 at scale 0.05), the shard budget is
//!    strictly below the stored edge count, so the build really holds
//!    less than its output resident, and invariants 3 and 4 still hold.

use er_core::{write_csr, CsrGraph};
use er_datasets::{Dataset, DatasetId, EntityCollection, EntityProfile};
use er_embed::{EmbeddingModel, SemanticMeasure};
use er_pipeline::{
    build_graph_sharded, build_graph_topk, BuildStats, CandidateMode, PipelineConfig,
    SemanticScope, ShardedConfig, SimilarityFunction,
};
use er_textsim::{CharMeasure, GraphSimilarity, NGramScheme, SchemaBasedMeasure, VectorMeasure};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ccer-sharded-props-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const VOCAB: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
];

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
        // Unbounded raw scores: raw weights above 1 reach the store
        // writer, which maps them through the frame at seal.
        SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::Arcs,
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

fn cfg(threads: usize) -> PipelineConfig {
    PipelineConfig { threads }
}

/// A successful build leaves none of its temp files behind.
fn assert_spill_dir_is_empty(spill_dir: &Path) {
    let left: Vec<_> = std::fs::read_dir(spill_dir)
        .expect("the build creates its spill directory")
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        left.is_empty(),
        "temp files left in the spill directory: {left:?}"
    );
}

/// Exact comparison of the read-back store against the in-RAM build.
fn assert_sharded_matches_ram(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    mode: CandidateMode,
    config: &PipelineConfig,
    shard_rows: usize,
) {
    let (ram_graph, ram_stats, ram_frame) =
        build_graph_topk(left, right, function, k, mode, config);
    let want = CsrGraph::from_graph(&ram_graph);

    let dir = scratch_dir();
    let out = dir.join("graph.slab");
    let sharding = ShardedConfig::new(shard_rows, dir.join("spills"));
    let (mapped, stats, frame) =
        build_graph_sharded(left, right, function, k, mode, config, &sharding, &out)
            .expect("sharded build succeeds");
    assert_spill_dir_is_empty(&sharding.spill_dir);

    let what = format!(
        "{} k={k} shard_rows={shard_rows} mode={mode:?}",
        function.name()
    );
    assert_eq!(mapped.to_csr(), want, "{what}: bit-identical store");
    let sorted: Vec<_> = (0..mapped.n_edges())
        .map(|i| mapped.sorted_edge(i))
        .collect();
    assert_eq!(
        sorted,
        ram_graph.sorted_edges().all(),
        "{what}: the persisted sort-order column is the in-RAM sorted view"
    );
    assert_eq!(frame, ram_frame, "{what}: identical normalization frame");
    assert_eq!(stats.retained_edges, want.n_edges(), "{what}: retained");
    let flow = |s: &BuildStats| {
        (
            s.generated_pairs,
            s.offered_edges,
            s.pruned_pairs,
            s.scored_pairs,
            s.retained_edges,
        )
    };
    assert_eq!(
        flow(&stats),
        flow(&ram_stats),
        "{what}: same candidate flow"
    );
    assert!(
        stats.peak_resident_edges <= stats.resident_budget_edges,
        "{what}: peak {} exceeds shard budget {}",
        stats.peak_resident_edges,
        stats.resident_budget_edges
    );
    assert_eq!(
        stats.spilled_triples, stats.retained_edges,
        "{what}: every retained edge passed through a spill"
    );
    assert_eq!(stats.spilled_bytes, stats.spilled_triples * 12);
    // The scorer's row count can undershoot `left.len()` (schema-based
    // branches skip rows without the focus attribute), so the shard
    // count is bounded, not exact.
    assert!(
        stats.shards <= left.len().div_ceil(shard_rows),
        "{what}: {} shards for {} rows",
        stats.shards,
        left.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Invariant 4: build `function` out of core at each of `threads`, and
/// require every store file to be byte-identical to `write_csr` of the
/// in-RAM build, with the configured resident budget and the in-RAM
/// frame.
fn assert_store_bytes_match_write_csr(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    shard_rows: usize,
    threads: &[usize],
) -> Vec<BuildStats> {
    let dir = scratch_dir();
    let (ram_graph, _, ram_frame) =
        build_graph_topk(left, right, function, k, CandidateMode::Indexed, &cfg(1));
    let reference = dir.join("write_csr.slab");
    write_csr(&CsrGraph::from_graph(&ram_graph), &reference).expect("write_csr succeeds");
    let want = std::fs::read(&reference).unwrap();

    let mut all_stats = Vec::new();
    for &t in threads {
        let what = format!(
            "{} k={k} shard_rows={shard_rows} threads={t}",
            function.name()
        );
        let out = dir.join(format!("sharded-{t}.slab"));
        let sharding = ShardedConfig::new(shard_rows, dir.join(format!("spills-{t}")));
        let (mapped, stats, frame) = build_graph_sharded(
            left,
            right,
            function,
            k,
            CandidateMode::Indexed,
            &cfg(t),
            &sharding,
            &out,
        )
        .unwrap_or_else(|e| panic!("{what}: sharded build failed: {e}"));
        drop(mapped);
        assert_spill_dir_is_empty(&sharding.spill_dir);
        assert!(
            std::fs::read(&out).unwrap() == want,
            "{what}: store bytes differ from write_csr of the in-RAM build"
        );
        assert_eq!(frame, ram_frame, "{what}: frame");
        assert_eq!(
            stats.resident_budget_edges,
            2 * shard_rows * k,
            "{what}: budget"
        );
        assert!(
            stats.peak_resident_edges <= stats.resident_budget_edges,
            "{what}: peak {} over budget {}",
            stats.peak_resident_edges,
            stats.resident_budget_edges
        );
        all_stats.push(stats);
    }
    std::fs::remove_dir_all(&dir).ok();
    all_stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariants 1-3 across every taxonomy branch, with shard sizes
    /// spanning degenerate (1 row per shard) through larger-than-input.
    #[test]
    fn sharded_build_is_bit_identical_to_ram_build(
        left in arb_collection(6),
        right in arb_collection(6),
        shard_rows in 1usize..=8,
        k in 1usize..=3,
    ) {
        for function in branch_representatives() {
            assert_sharded_matches_ram(
                &left,
                &right,
                &function,
                k,
                CandidateMode::Enumerated,
                &cfg(1),
                shard_rows,
            );
        }
    }

    /// Indexed candidate generation and multi-threaded scoring change
    /// nothing: the written store still equals the in-RAM graph.
    #[test]
    fn sharded_build_is_stable_across_modes_and_threads(
        left in arb_collection(6),
        right in arb_collection(6),
        threads in 2usize..=4,
        shard_rows in 1usize..=5,
    ) {
        let function = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        for mode in [CandidateMode::Enumerated, CandidateMode::Indexed] {
            assert_sharded_matches_ram(
                &left,
                &right,
                &function,
                2,
                mode,
                &cfg(threads),
                shard_rows,
            );
        }
    }

    /// Invariant 4 on the schema-agnostic cosine: one thread and several
    /// write `write_csr`'s bytes.
    #[test]
    fn store_bytes_equal_write_csr_of_the_ram_build(
        left in arb_collection(8),
        right in arb_collection(8),
        shard_rows in 1usize..=4,
        threads in 2usize..=4,
    ) {
        let function = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        assert_store_bytes_match_write_csr(
            &left, &right, &function, 2, shard_rows, &[1, threads],
        );
    }

    /// Regression: a schema-based scorer skips entities that lack its
    /// attribute, so its shards cut scorer rows, not left ids, and the
    /// skipped ids become empty rows. A build that assumed shard `s`
    /// started at left id `s · shard_rows` once rejected such builds.
    /// Every thread count must accept them and write `write_csr`'s
    /// bytes.
    #[test]
    fn sharded_build_accepts_schema_based_shards(
        left in arb_collection(10),
        right in arb_collection(6),
        shard_rows in 1usize..=3,
        threads in 2usize..=4,
    ) {
        // `desc` is absent wherever an entity drew no desc tokens.
        let function = SimilarityFunction::SchemaBasedSyntactic {
            attribute: "desc".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        assert_store_bytes_match_write_csr(
            &left, &right, &function, 2, shard_rows, &[1, threads],
        );
    }
}

/// Invariant 5: a cosine top-3 build at 16 rows per shard, at one to
/// four threads, against `write_csr` of the in-RAM build.
#[test]
fn shard_budget_stays_below_the_stored_graph_on_a_generated_corpus() {
    let dataset = Dataset::generate(DatasetId::D7, 0.05, 17);
    let function = SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Token(1),
        measure: VectorMeasure::CosineTfIdf,
    };
    for stats in assert_store_bytes_match_write_csr(
        &dataset.left,
        &dataset.right,
        &function,
        3,
        16,
        &[1, 2, 3, 4],
    ) {
        assert!(
            stats.resident_budget_edges < stats.retained_edges,
            "degenerate case, the store ({} edges) fits the budget ({})",
            stats.retained_edges,
            stats.resident_budget_edges
        );
    }
}
