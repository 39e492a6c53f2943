//! Reproducer for a sharded-build failure found while sizing `topk-store`.
//!
//! `build_graph_sharded` with `ShardedConfig::new(256, dir)` and two merge
//! workers, over `sb-syn/name/Levenshtein` on D7 at scale 0.25 (k = 5,
//! seed 17), fails with `StoreError::Format("spill records outside the
//! left id space")`. `ShardedConfig::serial` and schema-agnostic cosine
//! both succeed on the same inputs.
//!
//! Likely cause: the parallel merge treats shard `s` as left ids
//! `s·shard_rows…`, but shards cut *scorer* rows, and the schema-based
//! scorer skips entities that lack the attribute (22 vs 24 shards on the
//! full D7). Until a fix lands, `topk-store` uses schema-agnostic
//! functions only.

use perfbench::api;

fn build(function: &str, tag: &str) -> Result<api::StoreBuild, String> {
    let id = api::dataset_id("D7").expect("known dataset");
    let d = api::generate(id, 0.25, 17);
    let f = api::function_named(&d, function).expect("function in the catalog");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sharded-{tag}"));
    let out = dir.join("graph.slab");
    // Two construction threads, so the merge runs on two workers on any
    // host.
    let r = api::build_store(
        &d,
        &f,
        5,
        &api::pipeline(2),
        256,
        &dir.join("spill"),
        &out,
        "pipeline.build",
    );
    let _ = std::fs::remove_dir_all(&dir);
    r.map_err(|e| e.to_string())
}

#[test]
#[ignore = "fails until the parallel merge maps scorer-row shards to left ids"]
fn parallel_merge_accepts_a_schema_based_function() {
    let r = build("sb-syn/name/Levenshtein", "levenshtein");
    assert!(r.is_ok(), "{r:?}");
}

#[test]
fn parallel_merge_accepts_a_schema_agnostic_function() {
    let r = build("sa-syn/t1/CosineTFIDF", "cosine");
    assert!(r.is_ok(), "{r:?}");
}
