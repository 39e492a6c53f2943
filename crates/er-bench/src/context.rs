//! Orchestration of a full reproduction run.
//!
//! Per dataset: generate → build graph corpus → cleaning rule 1 → sweep all
//! eight algorithms per graph (parallel over graphs) → cleaning rules 2–3 →
//! time each algorithm at its optimal threshold. Only compact records are
//! kept; graphs are dropped as soon as their records exist, bounding peak
//! memory to one dataset's corpus.

use std::path::{Path, PathBuf};
use std::time::Duration;

use er_core::{par, GraphStats, ThresholdGrid, WeightSeparation};
use er_datasets::{Dataset, DatasetId, DatasetStats};
use er_eval::cleaning::{dedup_duplicate_inputs, is_noisy_graph, GraphFingerprint};
use er_eval::sweep::{SweepEngine, SweepResult};
use er_eval::timing::time_algorithm;
use er_matchers::{AlgorithmConfig, AlgorithmKind, BahConfig, Basis, PreparedGraph};
use er_pipeline::{PipelineConfig, SimilarityFunction};

use crate::records::{AlgoOutcome, CleaningSummary, GraphRecord, RunData, RUN_DATA_VERSION};

/// Configuration of a reproduction run.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Scale factor on the Table 2 sizes (1.0 = paper scale).
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Timing repetitions per (graph, algorithm); the paper uses 10.
    pub timing_reps: usize,
    /// BAH budgets (paper: 10,000 steps / 2 minutes).
    pub bah: BahConfig,
    /// Threshold grid (paper: 0.05..=1.0 step 0.05).
    pub grid: ThresholdGrid,
    /// Pipeline knobs.
    pub pipeline: PipelineConfig,
    /// Datasets to include.
    pub datasets: Vec<DatasetId>,
    /// Print progress to stderr.
    pub verbose: bool,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            scale: 0.05,
            seed: 17,
            timing_reps: 3,
            bah: BahConfig {
                max_moves: 10_000,
                time_limit: Duration::from_secs(120),
                seed: 0x5eed_cafe,
            },
            grid: ThresholdGrid::paper(),
            pipeline: PipelineConfig::default(),
            datasets: DatasetId::ALL.to_vec(),
            verbose: false,
        }
    }
}

impl ReproConfig {
    /// A fast smoke configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        ReproConfig {
            scale: 0.015,
            timing_reps: 2,
            ..ReproConfig::default()
        }
    }

    /// Cache file path for this configuration under `out_dir`.
    pub fn cache_path(&self, out_dir: &Path) -> PathBuf {
        let datasets: Vec<&str> = self.datasets.iter().map(|d| d.label()).collect();
        out_dir.join(format!(
            "rundata-s{}-seed{}-r{}-{}.json",
            self.scale,
            self.seed,
            self.timing_reps,
            datasets.join("_")
        ))
    }

    /// The paper excludes schema-agnostic semantic inputs for D8/D10
    /// (Table 3/6 report no such runs).
    fn include_agnostic_semantic(&self, id: DatasetId) -> bool {
        !matches!(id, DatasetId::D8 | DatasetId::D10)
    }
}

/// Execute the full run.
pub fn run_all(cfg: &ReproConfig) -> RunData {
    let mut records = Vec::new();
    let mut dataset_stats = Vec::new();
    let mut cleaning = CleaningSummary::default();

    for &id in &cfg.datasets {
        let dataset = Dataset::generate(id, cfg.scale, cfg.seed);
        dataset_stats.push(DatasetStats::of(&dataset));
        if cfg.verbose {
            eprintln!(
                "[repro] {id}: |V1|={} |V2|={} duplicates={}",
                dataset.left.len(),
                dataset.right.len(),
                dataset.ground_truth.len()
            );
        }

        // Generate + evaluate each graph in one fused parallel pass so at
        // most `workers` graphs are ever materialized (corpus graphs can be
        // large at higher scales).
        let functions =
            SimilarityFunction::catalog(&dataset.spec, cfg.include_agnostic_semantic(id));
        let (evaluated, rule1_dropped) = evaluate_dataset(cfg, &dataset, &functions);
        cleaning.rule1_zero_matches += rule1_dropped;

        // Cleaning rule 2 (noisy graphs).
        let (mut kept, noisy): (Vec<_>, Vec<_>) = evaluated
            .into_iter()
            .partition(|(_, _, _, sweeps, _)| !is_noisy_graph(sweeps));
        cleaning.rule2_noisy += noisy.len();

        // Cleaning rule 3 (duplicate inputs).
        let fingerprints: Vec<GraphFingerprint> = kept
            .iter()
            .map(|(_, _, stats, sweeps, _)| {
                GraphFingerprint::new(id.label(), stats.n_edges, sweeps)
            })
            .collect();
        let dropped = dedup_duplicate_inputs(&fingerprints);
        cleaning.rule3_duplicates += dropped.len();
        let dropped: er_core::FxHashSet<usize> = dropped.into_iter().collect();
        let mut idx = 0usize;
        kept.retain(|_| {
            let keep = !dropped.contains(&idx);
            idx += 1;
            keep
        });

        // Materialize records.
        let category = dataset.spec.category.label().to_string();
        for (function, _wt, stats, sweeps, timings) in kept {
            records.push(GraphRecord {
                dataset: id.label().to_string(),
                category: category.clone(),
                weight_type: function.weight_type(),
                function: function.name(),
                n_edges: stats.n_edges,
                normalized_size: stats.normalized_size,
                outcomes: sweeps
                    .iter()
                    .zip(timings)
                    .map(|(s, t)| AlgoOutcome {
                        algorithm: s.algorithm,
                        best_threshold: s.best_threshold,
                        precision: s.best.precision,
                        recall: s.best.recall,
                        f1: s.best.f1,
                        runtime_mean_s: t.0,
                        runtime_std_s: t.1,
                    })
                    .collect(),
            });
        }
        if cfg.verbose {
            eprintln!(
                "[repro] {id}: {} graphs retained ({} records total)",
                records.iter().filter(|r| r.dataset == id.label()).count(),
                records.len()
            );
        }
    }

    RunData {
        format_version: RUN_DATA_VERSION,
        scale: cfg.scale,
        seed: cfg.seed,
        timing_reps: cfg.timing_reps,
        dataset_stats,
        records,
        cleaning,
    }
}

type Evaluated = (
    SimilarityFunction,
    er_pipeline::WeightType,
    GraphStats,
    Vec<SweepResult>,
    Vec<(f64, f64)>,
);

/// Generate, clean (rule 1), sweep and time every similarity function over
/// one dataset. Fused and parallel over functions: a graph lives only for
/// the duration of its own evaluation. Returns the evaluated survivors (in
/// catalog order) and the number of graphs dropped by cleaning rule 1.
fn evaluate_dataset(
    cfg: &ReproConfig,
    dataset: &Dataset,
    functions: &[SimilarityFunction],
) -> (Vec<Evaluated>, usize) {
    let n = functions.len();
    let workers = cfg.pipeline.effective_threads().min(n.max(1));
    // This loop already fans out across functions, so each build gets a
    // divided intra-graph thread budget (see PipelineConfig::divided_among).
    let pipeline_cfg = cfg.pipeline.divided_among(workers);
    let algo_config = AlgorithmConfig {
        bah: cfg.bah,
        bmc_basis: Basis::Left,
    };

    let per_function = par::map_indexed(
        n,
        workers,
        || (),
        |_, idx| {
            let function = functions[idx].clone();
            // Prepared construction: the sorted edge view is emitted
            // with the graph and handed to the sweep via from_sorted,
            // so exactly one view build happens per graph.
            let built = er_pipeline::build_prepared(dataset, &function, &pipeline_cfg);
            let graph = built.graph;
            // Cleaning rule 1: all true matches at zero weight.
            let sep = WeightSeparation::of(&graph, &dataset.ground_truth);
            if sep.all_matches_zero() {
                return None;
            }
            let stats = GraphStats::of(&graph);
            let pg = PreparedGraph::from_sorted(&graph, built.sorted);
            // This loop already fans out across similarity functions, so
            // the engine runs its units serially (still incremental);
            // nesting its default thread pool here would oversubscribe.
            let sweeps = SweepEngine::new(algo_config).with_threads(1).sweep_all(
                &pg,
                &dataset.ground_truth,
                &cfg.grid,
            );
            // Time each algorithm at its optimal threshold; BMC times
            // under its winning basis.
            let timings: Vec<(f64, f64)> = sweeps
                .iter()
                .map(|sw| {
                    let mut conf = algo_config;
                    if sw.algorithm == AlgorithmKind::Bmc {
                        conf.bmc_basis = if sw.bmc_basis_right == Some(true) {
                            Basis::Right
                        } else {
                            Basis::Left
                        };
                    }
                    let t = time_algorithm(
                        sw.algorithm,
                        &conf,
                        &pg,
                        sw.best_threshold,
                        cfg.timing_reps,
                    );
                    (t.mean_s, t.std_s)
                })
                .collect();
            let wt = function.weight_type();
            Some((function, wt, stats, sweeps, timings))
        },
    );

    let dropped = per_function.iter().filter(|o| o.is_none()).count();
    (per_function.into_iter().flatten().collect(), dropped)
}

/// Parse a cache file's bytes into run data, accepting only the current
/// [`RUN_DATA_VERSION`]. A cache from an older layout — a different stamp,
/// or pre-stamp JSON with no `format_version` at all (serde rejects the
/// missing field) — returns `None` and is recomputed rather than served
/// with silently reinterpreted numbers.
fn parse_cache(bytes: &[u8]) -> Option<RunData> {
    serde_json::from_slice::<RunData>(bytes)
        .ok()
        .filter(|data| data.format_version == RUN_DATA_VERSION)
}

/// Load cached run data or compute and cache it.
pub fn load_or_run(cfg: &ReproConfig, out_dir: &Path, fresh: bool) -> RunData {
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let cache = cfg.cache_path(out_dir);
    if !fresh {
        if let Ok(bytes) = std::fs::read(&cache) {
            match parse_cache(&bytes) {
                Some(data) => {
                    if cfg.verbose {
                        eprintln!("[repro] loaded cached run data from {}", cache.display());
                    }
                    return data;
                }
                None => {
                    if cfg.verbose {
                        eprintln!(
                            "[repro] stale or unreadable cache at {}; recomputing",
                            cache.display()
                        );
                    }
                }
            }
        }
    }
    let data = run_all(cfg);
    let json = serde_json::to_vec(&data).expect("serialize run data");
    std::fs::write(&cache, json).expect("write run data cache");
    if cfg.verbose {
        eprintln!("[repro] cached run data at {}", cache.display());
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_round_trips_run_data() {
        let cfg = ReproConfig {
            scale: 0.015,
            timing_reps: 1,
            datasets: vec![DatasetId::D1],
            bah: BahConfig {
                max_moves: 100,
                ..BahConfig::default()
            },
            ..ReproConfig::default()
        };
        let dir = std::env::temp_dir().join("ccer-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let first = load_or_run(&cfg, &dir, false);
        assert!(cfg.cache_path(&dir).exists(), "cache file written");
        let second = load_or_run(&cfg, &dir, false);
        assert_eq!(first.n_graphs(), second.n_graphs());
        assert_eq!(first.records[0].function, second.records[0].function);
        // --fresh recomputes and must agree (determinism).
        let fresh = load_or_run(&cfg, &dir, true);
        assert_eq!(fresh.n_graphs(), first.n_graphs());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a cache written under another layout version — or one
    /// predating the stamp entirely — must be treated as absent, not
    /// blindly reparsed into current-layout records.
    #[test]
    fn stale_cache_is_rejected() {
        let current = crate::records::testkit::sample_rundata();
        let json = serde_json::to_vec(&current).unwrap();
        assert!(parse_cache(&json).is_some(), "current stamp accepted");

        // Same payload, older stamp.
        let mut old = current.clone();
        old.format_version = crate::records::RUN_DATA_VERSION.wrapping_sub(1);
        let json = serde_json::to_vec(&old).unwrap();
        assert!(parse_cache(&json).is_none(), "older stamp rejected");

        // Pre-stamp cache: valid JSON of the legacy layout (no
        // format_version field). serde's missing-field error rejects it.
        let json = String::from_utf8(serde_json::to_vec(&current).unwrap()).unwrap();
        let stamp = format!("\"format_version\":{},", crate::records::RUN_DATA_VERSION);
        let legacy = json.replacen(&stamp, "", 1);
        assert_ne!(legacy, json, "stamp field located and stripped");
        assert!(
            parse_cache(legacy.as_bytes()).is_none(),
            "pre-stamp cache rejected"
        );

        // Garbage is rejected, not panicked on.
        assert!(parse_cache(b"{not json").is_none());
    }

    /// End-to-end smoke: one small dataset through the whole machinery.
    #[test]
    fn run_all_produces_complete_records() {
        let cfg = ReproConfig {
            scale: 0.02,
            timing_reps: 1,
            datasets: vec![DatasetId::D1],
            bah: BahConfig {
                max_moves: 500,
                ..BahConfig::default()
            },
            ..ReproConfig::default()
        };
        let data = run_all(&cfg);
        assert!(
            !data.records.is_empty(),
            "some graphs must survive cleaning"
        );
        assert_eq!(data.dataset_stats.len(), 1);
        for r in &data.records {
            assert_eq!(r.dataset, "D1");
            assert_eq!(r.category, "SCR");
            assert_eq!(r.outcomes.len(), 8);
            for o in &r.outcomes {
                assert!((0.0..=1.0).contains(&o.f1), "{:?}", o);
                assert!(o.best_threshold > 0.0);
                assert!(o.runtime_mean_s >= 0.0);
            }
            // At least one algorithm clears the noise floor (rule 2 kept it).
            assert!(r.outcomes.iter().any(|o| o.f1 >= 0.25));
        }
    }
}
