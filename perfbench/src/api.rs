//! The benchmark's only door into the library.
//!
//! Every call the workloads make into `er-datasets`, `er-pipeline`,
//! `er-core`, `er-matchers`, `er-eval` and `er-service` goes through a
//! function here, and each one is wrapped in a span named after the
//! layer it enters (`datasets.*`, `pipeline.*`, `core.*`, `matchers.*`,
//! `eval.*`, `service.*`). A change to the library's construction API
//! edits this file only; the workloads stay identical.

use std::path::Path;
use std::time::Duration;

use er_core::{
    GroundTruth, MappedCsr, Matching, SimilarityGraph, SortedEdges, StoreError, ThresholdGrid,
};
use er_datasets::{Dataset, DatasetId, EntityProfile};
use er_eval::sweep::SweepEngine;
use er_matchers::{AlgorithmConfig, AlgorithmKind, BahConfig, Basis, PreparedGraph};
use er_pipeline::{CandidateMode, PipelineConfig, ShardedConfig, SimilarityFunction};
use er_service::{ErService, ServiceConfig};

use crate::trace::{self, span, span_detail};

pub use er_core::Side;
pub use er_eval::sweep::SweepResult;
pub use er_pipeline::BuiltGraph;

/// The eight algorithms in the paper's order.
pub const ALGORITHMS: [AlgorithmKind; 8] = AlgorithmKind::ALL;

/// The algorithms that read only the weight-sorted edge prefix, never the
/// adjacency (CNC, BAH and UMC).
pub fn prefix_algorithms() -> Vec<AlgorithmKind> {
    ALGORITHMS
        .into_iter()
        .filter(|k| !k.uses_adjacency())
        .collect()
}

/// BAH's wall-clock budget (the paper's two minutes). A call that returns
/// sooner cannot have hit it, so its result is the move-budget result.
pub const BAH_TIME_LIMIT: Duration = Duration::from_secs(120);

/// The paper's matcher settings: BAH on 10,000 moves and a two-minute
/// budget with a fixed seed, BMC on the left basis.
pub fn paper_matchers() -> AlgorithmConfig {
    AlgorithmConfig {
        bah: BahConfig {
            max_moves: 10_000,
            time_limit: BAH_TIME_LIMIT,
            seed: 0x5eed_cafe,
        },
        bmc_basis: Basis::Left,
    }
}

/// The paper's threshold grid (0.05 ..= 1.0, step 0.05).
fn paper_grid() -> ThresholdGrid {
    ThresholdGrid::paper()
}

/// Short name of a function's construction family, used in metric names.
pub fn family(f: &SimilarityFunction) -> &'static str {
    match f {
        SimilarityFunction::SchemaBasedSyntactic { .. } => "sb_syn",
        SimilarityFunction::SchemaAgnosticVector { .. } => "sa_vec",
        SimilarityFunction::SchemaAgnosticGraph { .. } => "sa_graph",
        SimilarityFunction::Semantic { scope, .. } => match scope {
            er_pipeline::SemanticScope::SchemaBased { .. } => "sb_sem",
            er_pipeline::SemanticScope::SchemaAgnostic => "sa_sem",
        },
    }
}

/// The construction families in catalog order.
pub const FAMILIES: [&str; 5] = ["sb_syn", "sa_vec", "sa_graph", "sb_sem", "sa_sem"];

/// A function's stable name, e.g. `sa-syn/c3/CosineTF`.
pub fn function_name(f: &SimilarityFunction) -> String {
    f.name()
}

/// Look a function up by its stable name in a dataset's catalog.
pub fn function_named(d: &Dataset, name: &str) -> Option<SimilarityFunction> {
    catalog(d).into_iter().find(|f| f.name() == name)
}

// ---------------------------------------------------------------- er-datasets

/// Parse `D1`..`D10`.
pub fn dataset_id(label: &str) -> Option<DatasetId> {
    DatasetId::ALL.into_iter().find(|d| d.label() == label)
}

/// Generate the two collections and ground truth of a benchmark dataset.
pub fn generate(id: DatasetId, scale: f64, seed: u64) -> Dataset {
    let _s = span("datasets.generate");
    Dataset::generate(id, scale, seed)
}

/// Entities on each side.
pub fn sizes(d: &Dataset) -> (usize, usize) {
    (d.left.profiles.len(), d.right.profiles.len())
}

/// The dataset's full similarity catalog (the paper's per-dataset graph
/// set; D8 and D10 have no schema-agnostic semantic graphs).
pub fn catalog(d: &Dataset) -> Vec<SimilarityFunction> {
    let agnostic_semantic = !matches!(d.spec.id, DatasetId::D8 | DatasetId::D10);
    SimilarityFunction::catalog(&d.spec, agnostic_semantic)
}

// ---------------------------------------------------------------- er-pipeline

/// Construction settings on `threads` workers (0 = every core).
pub fn pipeline(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        ..PipelineConfig::default()
    }
}

/// Dense construction with the sorted edge view emitted alongside.
/// `span_op` is `pipeline.build` for measured builds and
/// `pipeline.build_t1` for the single-threaded breakdown.
pub fn build_prepared(
    d: &Dataset,
    f: &SimilarityFunction,
    cfg: &PipelineConfig,
    span_op: &str,
) -> BuiltGraph {
    let _s = span_detail(span_op, family(f));
    er_pipeline::build_prepared(d, f, cfg)
}

/// Edges of a built graph.
pub fn graph_edges(g: &SimilarityGraph) -> usize {
    g.n_edges()
}

/// Dense construction of one graph.
pub fn build_dense(d: &Dataset, f: &SimilarityFunction, cfg: &PipelineConfig) -> SimilarityGraph {
    let _s = span_detail("pipeline.build", family(f));
    er_pipeline::build_graph(d, f, cfg)
}

/// What an out-of-core build reports back.
#[derive(Debug, Clone, Copy)]
pub struct StoreBuild {
    /// Shards scored and spilled.
    pub shards: usize,
    /// Edges in the finished store.
    pub retained_edges: usize,
    /// Peak resident triples during construction.
    pub peak_resident_edges: usize,
    /// The configured resident ceiling.
    pub resident_budget_edges: usize,
}

/// Indexed top-k construction of `f` into a v2 columnar store at `out`,
/// spilling `shard_rows`-row shards under `spill_dir`.
#[allow(clippy::too_many_arguments)]
pub fn build_store(
    d: &Dataset,
    f: &SimilarityFunction,
    k: usize,
    cfg: &PipelineConfig,
    shard_rows: usize,
    spill_dir: &Path,
    out: &Path,
    span_op: &str,
) -> Result<StoreBuild, StoreError> {
    let _s = span_detail(span_op, family(f));
    let (mapped, st, _frame) = er_pipeline::build_graph_sharded(
        &d.left,
        &d.right,
        f,
        k,
        CandidateMode::Indexed,
        cfg,
        &ShardedConfig::new(shard_rows, spill_dir),
        out,
    )?;
    drop(mapped);
    trace::count("pipeline.generated_pairs", st.generated_pairs as f64);
    trace::count("pipeline.pruned_pairs", st.pruned_pairs as f64);
    trace::count("pipeline.scored_pairs", st.scored_pairs as f64);
    trace::count("pipeline.retained_edges", st.retained_edges as f64);
    trace::count("pipeline.shards", st.shards as f64);
    trace::count("pipeline.spilled_bytes", st.spilled_bytes as f64);
    trace::count("pipeline.merged_bytes", st.merged_bytes as f64);
    trace::count(
        "pipeline.peak_resident_edges",
        st.peak_resident_edges as f64,
    );
    Ok(StoreBuild {
        shards: st.shards,
        retained_edges: st.retained_edges,
        peak_resident_edges: st.peak_resident_edges,
        resident_budget_edges: st.resident_budget_edges,
    })
}

// ---------------------------------------------------------------- er-core

/// Open and validate a columnar store file.
pub fn open_store(path: &Path) -> Result<MappedCsr, StoreError> {
    let _s = span("core.store_open");
    MappedCsr::open(path)
}

/// Edges stored in an opened store.
pub fn store_edges(m: &MappedCsr) -> usize {
    m.n_edges()
}

// ---------------------------------------------------------------- er-matchers

/// Matcher input from a built graph and the sorted view its build emitted.
pub fn prepare_built(graph: &SimilarityGraph, sorted: SortedEdges) -> PreparedGraph<'_> {
    let _s = span("matchers.prepare");
    PreparedGraph::from_sorted(graph, sorted)
}

/// Matcher input from a dense graph (sorts its edges).
pub fn prepare_graph(g: &SimilarityGraph) -> PreparedGraph<'_> {
    let _s = span("matchers.prepare");
    PreparedGraph::new(g)
}

/// Matcher input served straight off a store's mmap.
pub fn prepare_mapped(m: &MappedCsr) -> PreparedGraph<'_> {
    let _s = span("matchers.prepare");
    PreparedGraph::from_mapped(m)
}

/// The resident route: hydrate the store into RAM, prepare, and sweep
/// `kinds`. Used only as the oracle the mmap-native sweep is checked
/// against.
pub fn sweep_hydrated(
    kinds: &[AlgorithmKind],
    m: &MappedCsr,
    gt: &GroundTruth,
) -> Vec<SweepResult> {
    let csr = m.to_csr();
    let pg = PreparedGraph::from_csr(&csr);
    sweep_each(kinds, &pg, gt)
}

/// Edge copies the matcher input holds in RAM (0 for mmap-native input).
pub fn resident_edge_copies(pg: &PreparedGraph<'_>) -> usize {
    let n = pg.resident_edge_copies();
    trace::count("matchers.resident_edge_copies", n as f64);
    n
}

/// The paper's §5 timing of one algorithm at threshold `t`: adjacency
/// consumers rebuild their sorted adjacency inside the timed region, the
/// others run on the prepared edges. Returns the matching and its seconds.
pub fn timed_run(
    kind: AlgorithmKind,
    bmc_right: Option<bool>,
    pg: &PreparedGraph<'_>,
    t: f64,
) -> (Matching, f64) {
    let mut cfg = paper_matchers();
    if bmc_right == Some(true) {
        cfg.bmc_basis = Basis::Right;
    }
    let matcher = cfg.build(kind);
    let _s = span_detail("matchers.run", kind.name());
    let start = std::time::Instant::now();
    let m = if kind.uses_adjacency() {
        let fresh = pg.reprepare();
        matcher.run(&fresh, t)
    } else {
        matcher.run(pg, t)
    };
    (m, start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------- er-eval

/// Sweep all eight algorithms over the paper grid on every core.
pub fn sweep_all(pg: &PreparedGraph<'_>, gt: &GroundTruth) -> Vec<SweepResult> {
    let _s = span("eval.sweep");
    SweepEngine::new(paper_matchers()).sweep_all(pg, gt, &paper_grid())
}

/// Sweep each of `kinds` in turn, one thread each.
pub fn sweep_each(
    kinds: &[AlgorithmKind],
    pg: &PreparedGraph<'_>,
    gt: &GroundTruth,
) -> Vec<SweepResult> {
    let _s = span("eval.sweep");
    let engine = SweepEngine::new(paper_matchers()).with_threads(1);
    kinds
        .iter()
        .map(|&k| engine.sweep_algorithm(k, pg, gt, &paper_grid()))
        .collect()
}

/// Sweep one algorithm on one thread (the per-algorithm breakdown).
pub fn sweep_one(kind: AlgorithmKind, pg: &PreparedGraph<'_>, gt: &GroundTruth) -> SweepResult {
    let _s = span_detail("eval.sweep", kind.name());
    SweepEngine::new(paper_matchers())
        .with_threads(1)
        .sweep_algorithm(kind, pg, gt, &paper_grid())
}

/// Precision, recall and F1 of a matching.
pub fn evaluate(m: &Matching, gt: &GroundTruth) -> er_eval::PrecisionRecall {
    er_eval::evaluate(m, gt)
}

// ---------------------------------------------------------------- er-service

/// One resident `ErService`; every method is one call into the service.
pub struct Service(ErService);

impl Service {
    /// Score the top-k graph of `f` and seed the incremental matcher. The
    /// service compacts at its default tombstone ratio,
    /// [`Service::compact_ratio`].
    pub fn load(d: &Dataset, f: &SimilarityFunction, k: usize, threshold: f64) -> Self {
        let _s = span("service.load");
        let cfg = ServiceConfig {
            k,
            threshold,
            algorithm: AlgorithmKind::Umc,
            matchers: paper_matchers(),
            ..ServiceConfig::default()
        };
        Service(ErService::load(&d.left, &d.right, f, cfg))
    }

    /// The tombstone ratio at which a remove folds the store.
    pub fn compact_ratio() -> f64 {
        ServiceConfig::default().auto_compact_ratio
    }

    /// Live neighbors of `id` on `side`.
    pub fn neighbors(&self, side: Side, id: u32) -> Vec<(u32, f64)> {
        let _s = span(match side {
            Side::Left => "service.nbr_left",
            Side::Right => "service.nbr_right",
        });
        self.0.neighbors(side, id)
    }

    /// The partner of left record `id`.
    pub fn match_of(&mut self, id: u32) -> Option<u32> {
        let _s = span("service.match_of");
        self.0.match_of(Side::Left, id)
    }

    /// Insert a copy of `donor` under the side's next id.
    pub fn insert(&mut self, side: Side, donor: &EntityProfile) -> Result<(), String> {
        let mut p = donor.clone();
        p.id = self.0.next_id(side);
        let _s = span("service.insert");
        self.0.insert(side, &p).map(drop).map_err(|e| e.to_string())
    }

    /// Tombstone record `id` on `side`.
    pub fn remove(&mut self, side: Side, id: u32) -> Result<(), String> {
        let _s = span("service.remove");
        self.0.remove(side, id).map(drop).map_err(|e| e.to_string())
    }

    /// Re-run the service's algorithm from scratch.
    pub fn full_rematch(&self) -> Matching {
        let _s = span("service.full_rematch");
        self.0.full_rematch()
    }

    /// The incrementally maintained matching.
    pub fn matching(&mut self) -> Matching {
        self.0.matching()
    }

    /// Registered ids on `side` (live and tombstoned).
    pub fn n(&self, side: Side) -> u32 {
        match side {
            Side::Left => self.0.n_left(),
            Side::Right => self.0.n_right(),
        }
    }

    /// Whether `id` on `side` is live.
    pub fn is_live(&self, side: Side, id: u32) -> bool {
        self.0.is_live(side, id)
    }

    /// The resident profile of `id` on `side`.
    pub fn profile(&self, side: Side, id: u32) -> Option<EntityProfile> {
        self.0.profile(side, id).cloned()
    }

    /// Live edges of the resident graph.
    pub fn n_edges(&self) -> usize {
        self.0.n_edges()
    }

    /// Share of tombstoned slab entries.
    pub fn tombstone_ratio(&self) -> f64 {
        self.0.tombstone_ratio()
    }
}
