#![warn(missing_docs)]

//! # er-service — a resident matching service over one similarity graph
//!
//! The batch pipeline builds a graph, runs a matcher, writes tables and
//! exits. [`ErService`] instead keeps everything **resident** and answers
//! point traffic:
//!
//! * the scored similarity graph, in its delta-capable CSR form
//!   ([`er_core::CsrGraph`]: append-only ids, tombstoned deletes,
//!   ~12 B/edge) — the one record of the graph, of which records are
//!   live, and of the edges a delete removes;
//! * the score-side state of the similarity function
//!   ([`er_pipeline::ResidentScorer`]: the batch scorer's prepared state —
//!   frozen models, DF statistics, encoded entries and both sides'
//!   candidate indexes — prepared once at load, where it also scores the
//!   load-time graph), so one new record is scored against the corpus
//!   through the batch build's index-pruned row walk under its top-k
//!   admission bound rather than by re-preparing the build. It skips the
//!   counterparts the store holds dead;
//! * the algorithm's **incremental matcher**
//!   ([`er_matchers::DeltaMatcher`], the one the threshold sweep steps),
//!   seeded by one step to the service threshold. It holds no graph of
//!   its own: every update goes through it to the resident store, whose
//!   validation it inherits, and it repairs from what the store then
//!   holds — UMC along a bounded cascade over the store's live rows and
//!   columns, BAH through its contribution map, the other six by
//!   re-running over the store. It stays result-equivalent to a
//!   from-scratch [`er_matchers::Matcher::run`] after every update.
//!
//! An [`insert`](ErService::insert) therefore costs one index-pruned
//! probe plus one [`apply_delta`](er_matchers::DeltaMatcher::apply_delta)
//! call — not a graph rebuild plus a full re-match — a
//! [`remove`](ErService::remove) one `apply_delta` call, which reads the
//! record's edges once, in the store, and hands them back; and a
//! [`matching`](ErService::matching) read after any number of updates
//! returns exactly what the batch protocol would.
//!
//! The service itself is single-writer plain Rust (`&mut self` on
//! updates, `&self` on every query); concurrent deployments wrap it in a
//! reader-writer lock, as `tests/service_props.rs` and the benchmark's
//! `serve-mixed` workload do. See `DESIGN.md` §17 for the
//! drift contract inherited from the resident scorer (frozen statistics,
//! right-insert admission, tombstone residue) and when to
//! [`ErService::load`] a fresh instance.

use std::fmt;
use std::path::{Path, PathBuf};

use er_core::{
    write_csr, CoreError, CsrGraph, MappedCsr, Matching, Result, RowDelta, Side, StoreError,
    StoreMeta,
};
use er_datasets::{EntityCollection, EntityProfile};
use er_matchers::{AlgorithmConfig, AlgorithmKind, DeltaMatcher, PreparedGraph};
use er_pipeline::{NormFrame, PipelineConfig, ResidentScorer, SimilarityFunction};

/// Errors surfaced by service updates that touch both the resident
/// store (delta validation) and, for file-backed services, the backing
/// columnar store file (auto-compaction persistence).
#[derive(Debug)]
pub enum ServiceError {
    /// The resident store rejected the update.
    Core(CoreError),
    /// Persisting the folded graph to the backing file failed.
    Store(StoreError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Core(e) => e.fmt(f),
            ServiceError::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Core(e) => Some(e),
            ServiceError::Store(e) => Some(e),
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

/// Everything [`ErService::load`] needs beyond the data: graph bound,
/// matching threshold, and the algorithm configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Edges retained per left row at build time and per inserted record.
    pub k: usize,
    /// Similarity threshold the resident matcher runs at.
    pub threshold: f64,
    /// Which of the eight algorithms answers match queries.
    pub algorithm: AlgorithmKind,
    /// Per-algorithm knobs (BAH budgets/seed, BMC basis).
    pub matchers: AlgorithmConfig,
    /// Graph-construction configuration.
    pub pipeline: PipelineConfig,
    /// Tombstone-ratio bound ([`CsrGraph::tombstone_ratio`]) above which
    /// a [`remove`](ErService::remove) folds the store in place, so
    /// sustained delete traffic can never let dead slab entries dominate
    /// the resident graph. A service hydrated from a columnar store file
    /// ([`ErService::load_mapped`]) also persists the folded graph back
    /// to that file — the on-disk store tracks the resident one instead
    /// of silently diverging under delete traffic; the persist's I/O
    /// error surface is why [`remove`](ErService::remove) returns
    /// [`ServiceError`]. Values `> 1.0` disable auto-compaction (the
    /// ratio is at most `1.0`).
    pub auto_compact_ratio: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            k: 5,
            threshold: 0.5,
            algorithm: AlgorithmKind::Umc,
            matchers: AlgorithmConfig::default(),
            pipeline: PipelineConfig::default(),
            auto_compact_ratio: 0.25,
        }
    }
}

/// Resident corpus + graph + incremental matcher; see the crate docs.
pub struct ErService {
    scorer: ResidentScorer,
    csr: CsrGraph,
    matcher: Box<dyn DeltaMatcher>,
    config: ServiceConfig,
    /// The columnar store file this service hydrated from (and persists
    /// back to on [`compact`](Self::compact)); `None` for RAM-only loads.
    store_path: Option<PathBuf>,
}

impl ErService {
    /// Build the resident state from two collections: prepare the
    /// resident scorer once, score the top-k graph from its prepared
    /// state through the indexed candidate path
    /// ([`ResidentScorer::build`]), load the graph into CSR form, and
    /// seed the incremental matcher.
    ///
    /// # Panics
    ///
    /// Panics unless every profile id equals its position in its
    /// collection (the id discipline of [`ResidentScorer`]).
    pub fn load(
        left: &EntityCollection,
        right: &EntityCollection,
        function: &SimilarityFunction,
        config: ServiceConfig,
    ) -> Self {
        let (graph, scorer) =
            ResidentScorer::build(left, right, function, config.k, &config.pipeline)
                .expect("profile ids must equal their positions");
        ErService::assemble(scorer, CsrGraph::from_graph(&graph), config, None)
    }

    /// Hydrate a service from a **columnar on-disk graph**
    /// (`er_core::store`, e.g. the output of an out-of-core
    /// `build_graph_sharded` run or of a previous service's
    /// [`compact`](Self::compact)) instead of re-scoring the corpus.
    ///
    /// `left`/`right` must be the collections the stored graph was built
    /// over (every on-disk row id must have its profile, tombstoned ids
    /// included — ids are never reused — and every profile id must equal
    /// its position; either mismatch is a [`StoreError::Format`]) and
    /// `frame` the normalization
    /// frame that build derived, so that inserted records are scored onto
    /// the same weight scale as the resident edges. The file is hydrated
    /// into the resident store — tombstones included, which the scorer
    /// then reads from it — and its map dropped; the matcher is seeded
    /// from that store, exactly as [`load`](Self::load) seeds it. The
    /// origin path is remembered: later [`compact`](Self::compact) calls
    /// (and auto-compactions triggered by [`remove`](Self::remove))
    /// persist the folded graph back to it.
    pub fn load_mapped(
        path: &Path,
        left: &EntityCollection,
        right: &EntityCollection,
        function: &SimilarityFunction,
        frame: NormFrame,
        config: ServiceConfig,
    ) -> std::result::Result<Self, StoreError> {
        let mapped = MappedCsr::open(path)?;
        if mapped.n_left() as usize != left.profiles.len()
            || mapped.n_right() as usize != right.profiles.len()
        {
            return Err(StoreError::Format(format!(
                "store shape {}x{} does not match the collections ({}x{})",
                mapped.n_left(),
                mapped.n_right(),
                left.profiles.len(),
                right.profiles.len()
            )));
        }
        let scorer =
            ResidentScorer::prepare(left, right, function, config.k, frame, &config.pipeline)
                .map_err(|e| {
                    StoreError::Format(format!("collections do not fit the store: {e}"))
                })?;
        let csr = mapped.to_csr();
        Ok(ErService::assemble(
            scorer,
            csr,
            config,
            Some(path.to_path_buf()),
        ))
    }

    /// A service over `csr`, its matcher seeded by one step to the
    /// service threshold.
    fn assemble(
        scorer: ResidentScorer,
        csr: CsrGraph,
        config: ServiceConfig,
        store_path: Option<PathBuf>,
    ) -> Self {
        let mut matcher = config.matchers.delta_matcher(config.algorithm);
        matcher.step(&PreparedGraph::from_csr(&csr), config.threshold);
        ErService {
            scorer,
            csr,
            matcher,
            config,
            store_path,
        }
    }

    /// Insert one record: score it against the live counterpart corpus
    /// (index-pruned, top-k bounded), apply the resulting delta to the
    /// store through the matcher, and return the delta (normalized
    /// weights).
    ///
    /// `profile.id` must be the side's next append id — the id the
    /// service hands out via [`next_id`](Self::next_id).
    pub fn insert(&mut self, side: Side, profile: &EntityProfile) -> Result<RowDelta> {
        let delta = self.scorer.score_insert(side, profile, &self.csr)?;
        self.matcher.apply_delta(&mut self.csr, &delta)?;
        Ok(delta)
    }

    /// Delete one record: tombstone it in the store (which the scorer
    /// reads liveness from) and repair the matching incrementally.
    /// Returns the delete delta carrying the edges that disappeared, as
    /// the store read them off the record's row or column — the one read
    /// of them. Errors if `id` is unknown or already dead; ids are never
    /// reused.
    ///
    /// When the tombstone ratio reaches
    /// [`ServiceConfig::auto_compact_ratio`], the store is folded — and,
    /// for a file-backed service, **persisted** back to the backing file
    /// exactly as an explicit [`compact`](Self::compact) would (whence
    /// the [`ServiceError::Store`] arm: the delete itself has fully
    /// applied when that persist fails).
    pub fn remove(&mut self, side: Side, id: u32) -> std::result::Result<RowDelta, ServiceError> {
        let mut delta = match side {
            Side::Left => RowDelta::delete_left(id),
            Side::Right => RowDelta::delete_right(id),
        };
        delta.edges = self.matcher.apply_delta(&mut self.csr, &delta)?;
        if self.csr.tombstone_ratio() >= self.config.auto_compact_ratio {
            self.compact()?;
        }
        Ok(delta)
    }

    /// The id the next [`insert`](Self::insert) on `side` must carry.
    pub fn next_id(&self, side: Side) -> u32 {
        match side {
            Side::Left => self.csr.n_left(),
            Side::Right => self.csr.n_right(),
        }
    }

    /// Whether `id` on `side` is registered and not tombstoned.
    pub fn is_live(&self, side: Side, id: u32) -> bool {
        match side {
            Side::Left => self.csr.is_live_left(id),
            Side::Right => self.csr.is_live_right(id),
        }
    }

    /// Point query: the live graph neighbors of `id` on `side`, weight
    /// descending. Left rows read straight off the CSR row (`O(d log d)`
    /// with the sort); right nodes read the store's column index
    /// ([`CsrGraph::live_column`], one row binary search per edge), built
    /// once in `O(m)` by the first right-side read.
    pub fn neighbors(&self, side: Side, id: u32) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = match side {
            Side::Left => self.csr.live_row(id).collect(),
            Side::Right => self.csr.live_column(id).collect(),
        };
        out.sort_by(|a, b| er_core::total_cmp_desc(&a.1, &b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Point query: the record `id` on `side` is currently matched to,
    /// under the service's algorithm and threshold
    /// ([`DeltaMatcher::partner`]: an array read for UMC, a binary search
    /// over the cached assignment otherwise).
    pub fn match_of(&self, side: Side, id: u32) -> Option<u32> {
        self.matcher.partner(side, id)
    }

    /// The full current matching (incrementally maintained).
    pub fn matching(&self) -> Matching {
        self.matcher.matching()
    }

    /// Run the service's algorithm from scratch on the resident store —
    /// the reference the incremental matching is equivalent to. Costs a
    /// full prepare + run; exists for verification and benchmarking.
    pub fn full_rematch(&self) -> Matching {
        self.config.matchers.run(
            self.config.algorithm,
            &PreparedGraph::from_csr(&self.csr),
            self.config.threshold,
        )
    }

    /// The resident profile for `id` on `side` (tombstoned included —
    /// callers gate on [`is_live`](Self::is_live) where it matters).
    pub fn profile(&self, side: Side, id: u32) -> Option<&EntityProfile> {
        let c = match side {
            Side::Left => self.scorer.left(),
            Side::Right => self.scorer.right(),
        };
        c.profiles.get(id as usize)
    }

    /// Fold pending deltas into the store slabs (`O(m)`); liveness and
    /// results are unaffected, probe/query constants improve.
    ///
    /// A service hydrated from a columnar store file
    /// ([`load_mapped`](Self::load_mapped)) also **persists** the folded
    /// graph back to that file, opens it once to check that it reads
    /// back (a file that does not is a [`StoreError`]), and returns its
    /// [`StoreMeta`]; RAM-only services return `Ok(None)`.
    pub fn compact(&mut self) -> std::result::Result<Option<StoreMeta>, StoreError> {
        self.csr.compact();
        match &self.store_path {
            Some(path) => {
                let meta = write_csr(&self.csr, path)?;
                MappedCsr::open(path)?;
                Ok(Some(meta))
            }
            None => Ok(None),
        }
    }

    /// Fraction of the resident slab entries that are tombstone-masked
    /// ([`CsrGraph::tombstone_ratio`]). Bounded by
    /// [`ServiceConfig::auto_compact_ratio`] under delete traffic.
    pub fn tombstone_ratio(&self) -> f64 {
        self.csr.tombstone_ratio()
    }

    /// Registered left record count, tombstoned ids included — the id
    /// space `0..n_left` (see [`is_live`](Self::is_live)).
    pub fn n_left(&self) -> u32 {
        self.csr.n_left()
    }

    /// Registered right record count, tombstoned ids included — the id
    /// space `0..n_right` (see [`is_live`](Self::is_live)).
    pub fn n_right(&self) -> u32 {
        self.csr.n_right()
    }

    /// Live edge count of the resident graph.
    pub fn n_edges(&self) -> usize {
        self.csr.n_edges()
    }

    /// The matching threshold the service runs at.
    pub fn threshold(&self) -> f64 {
        self.config.threshold
    }

    /// The algorithm answering match queries.
    pub fn algorithm(&self) -> AlgorithmKind {
        self.config.algorithm
    }

    /// Borrow the resident store (read-only).
    pub fn store(&self) -> &CsrGraph {
        &self.csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{Dataset, DatasetId};
    use er_pipeline::{build_graph_topk, CandidateMode};
    use er_textsim::vector::term_id;
    use er_textsim::{DfIndex, NGramScheme, TermWeighting, VectorMeasure, VectorModel};

    fn service() -> (ErService, Dataset) {
        let d = Dataset::generate(DatasetId::D1, 0.02, 11);
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = ServiceConfig {
            k: 3,
            threshold: 0.3,
            ..ServiceConfig::default()
        };
        (ErService::load(&d.left, &d.right, &f, cfg), d)
    }

    #[test]
    fn load_matches_batch_protocol() {
        let (s, _) = service();
        assert_eq!(s.matching(), s.full_rematch());
        assert!(s.n_edges() > 0);
    }

    #[test]
    fn insert_remove_stay_equivalent_to_full_rematch() {
        let (mut s, d) = service();
        let mut p = d.left.profiles[2].clone();
        p.id = s.next_id(Side::Left);
        let delta = s.insert(Side::Left, &p).unwrap();
        assert_eq!(delta.id, p.id);
        assert_eq!(s.matching(), s.full_rematch());

        let mut rp = d.right.profiles[0].clone();
        rp.id = s.next_id(Side::Right);
        s.insert(Side::Right, &rp).unwrap();
        assert_eq!(s.matching(), s.full_rematch());

        let n_left = s.n_left();
        s.remove(Side::Left, 0).unwrap();
        assert!(!s.is_live(Side::Left, 0));
        assert_eq!(s.n_left(), n_left, "a tombstoned id stays registered");
        assert_eq!(s.n_left(), s.next_id(Side::Left));
        assert_eq!(s.matching(), s.full_rematch());
        assert!(s.remove(Side::Left, 0).is_err(), "double delete rejected");
        assert!(matches!(
            s.remove(Side::Right, s.next_id(Side::Right)),
            Err(ServiceError::Core(CoreError::NodeOutOfBounds { .. }))
        ));
    }

    #[test]
    fn insert_rejects_wrong_id() {
        let (mut s, d) = service();
        let mut p = d.left.profiles[0].clone();
        p.id = s.next_id(Side::Left) + 7;
        assert!(matches!(
            s.insert(Side::Left, &p),
            Err(CoreError::DeltaIdMismatch { .. })
        ));
    }

    #[test]
    fn neighbors_answer_point_queries_on_both_sides() {
        let (mut s, d) = service();
        let mut p = d.left.profiles[1].clone();
        p.id = s.next_id(Side::Left);
        let delta = s.insert(Side::Left, &p).unwrap();
        let row = s.neighbors(Side::Left, p.id);
        assert_eq!(row, delta.edges, "left row reads back the insert delta");
        if let Some(&(r, w)) = delta.edges.first() {
            let col = s.neighbors(Side::Right, r);
            assert!(col.contains(&(p.id, w)), "column sees the new record");
        }
        assert!(s.neighbors(Side::Left, 10_000).is_empty());
    }

    /// A left insert carrying a token neither collection holds interns it;
    /// a right insert sharing that token then finds the left insert, at
    /// the frozen vectorizer's per-pair cosine mapped through the
    /// service's frame.
    #[test]
    fn inserts_meet_through_a_term_unseen_at_load() {
        let (mut s, d) = service();
        let model = VectorModel::new(NGramScheme::Token(1));
        let mut df_union = DfIndex::new();
        for p in d.left.profiles.iter().chain(&d.right.profiles) {
            df_union.add_document(model.term_frequencies(&p.all_values_text()).into_keys());
        }
        let unseen = "zqxjvk";
        assert_eq!(df_union.df(term_id(unseen)), 0, "in neither collection");

        let lp = EntityProfile::new(
            s.next_id(Side::Left),
            vec![("name".into(), format!("{unseen} acme"))],
        );
        s.insert(Side::Left, &lp).unwrap();
        let rp = EntityProfile::new(
            s.next_id(Side::Right),
            vec![("name".into(), unseen.to_string())],
        );
        let delta = s.insert(Side::Right, &rp).unwrap();

        let vector = |p: &EntityProfile| {
            model.vector(&p.all_values_text(), TermWeighting::TfIdf, Some(&df_union))
        };
        let raw = VectorMeasure::CosineTfIdf.similarity(&vector(&lp), &vector(&rp), None);
        assert!(raw > 0.0);
        let w = s.scorer.frame().apply(raw);
        assert!(delta.edges.contains(&(lp.id, w)), "{:?}", delta.edges);
        assert!(s.neighbors(Side::Left, lp.id).contains(&(rp.id, w)));
    }

    #[test]
    fn match_of_is_consistent_with_matching() {
        let (s, _) = service();
        let m = s.matching();
        for (l, r) in m.iter() {
            assert_eq!(s.match_of(Side::Left, l), Some(r));
            assert_eq!(s.match_of(Side::Right, r), Some(l));
        }
    }

    #[test]
    fn compact_preserves_results() {
        let (mut s, d) = service();
        let mut p = d.left.profiles[0].clone();
        p.id = s.next_id(Side::Left);
        s.insert(Side::Left, &p).unwrap();
        s.remove(Side::Right, 1).ok();
        let before = s.matching();
        assert_eq!(s.compact().unwrap(), None, "RAM-only load persists nowhere");
        assert_eq!(s.matching(), before);
        assert_eq!(s.matching(), s.full_rematch());
    }

    fn scratch_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccer-service-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_mapped_matches_ram_load() {
        let d = Dataset::generate(DatasetId::D1, 0.02, 11);
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = ServiceConfig {
            k: 3,
            threshold: 0.3,
            ..ServiceConfig::default()
        };
        // Persist the batch build, then hydrate a second service from disk.
        let (graph, _, frame) = build_graph_topk(
            &d.left,
            &d.right,
            &f,
            cfg.k,
            CandidateMode::Indexed,
            &cfg.pipeline,
        );
        let csr = CsrGraph::from_graph(&graph);
        let dir = scratch_dir();
        let path = dir.join("service.slab");
        er_core::write_csr(&csr, &path).unwrap();

        let mut ram = ErService::load(&d.left, &d.right, &f, cfg.clone());
        let mut disk = ErService::load_mapped(&path, &d.left, &d.right, &f, frame, cfg).unwrap();
        assert_eq!(disk.store(), ram.store(), "hydrated store is identical");
        assert_eq!(disk.matching(), ram.matching());

        // Inserts score through the same frozen frame on both services.
        let mut p = d.left.profiles[2].clone();
        p.id = ram.next_id(Side::Left);
        let dr = ram.insert(Side::Left, &p).unwrap();
        let dd = disk.insert(Side::Left, &p).unwrap();
        assert_eq!(dr.edges, dd.edges, "identical insert deltas");
        assert_eq!(disk.matching(), ram.matching());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_mapped_rejects_mismatched_collections() {
        let d = Dataset::generate(DatasetId::D1, 0.02, 11);
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = ServiceConfig::default();
        let mut b = er_core::GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.9).unwrap();
        let csr = CsrGraph::from_graph(&b.build());
        let dir = scratch_dir();
        let path = dir.join("tiny.slab");
        er_core::write_csr(&csr, &path).unwrap();
        let err = ErService::load_mapped(
            &path,
            &d.left,
            &d.right,
            &f,
            er_pipeline::NormFrame::degenerate(),
            cfg,
        );
        assert!(matches!(err, Err(er_core::StoreError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_mapped_rejects_non_positional_ids() {
        let d = Dataset::generate(DatasetId::D1, 0.02, 11);
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = ServiceConfig::default();
        let (graph, _, frame) = build_graph_topk(
            &d.left,
            &d.right,
            &f,
            cfg.k,
            CandidateMode::Indexed,
            &cfg.pipeline,
        );
        let dir = scratch_dir();
        let path = dir.join("shifted.slab");
        er_core::write_csr(&CsrGraph::from_graph(&graph), &path).unwrap();
        // The right shape, but every left id shifted off its position.
        let mut shifted = d.left.clone();
        for p in &mut shifted.profiles {
            p.id += 1;
        }
        let err = ErService::load_mapped(&path, &shifted, &d.right, &f, frame, cfg);
        assert!(matches!(err, Err(er_core::StoreError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_persists_the_folded_graph() {
        let d = Dataset::generate(DatasetId::D1, 0.02, 11);
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = ServiceConfig {
            k: 3,
            threshold: 0.3,
            // Keep deltas pending so compact() has something to fold.
            auto_compact_ratio: 2.0,
            ..ServiceConfig::default()
        };
        let (graph, _, frame) = build_graph_topk(
            &d.left,
            &d.right,
            &f,
            cfg.k,
            CandidateMode::Indexed,
            &cfg.pipeline,
        );
        let csr = CsrGraph::from_graph(&graph);
        let dir = scratch_dir();
        let path = dir.join("persist.slab");
        er_core::write_csr(&csr, &path).unwrap();
        let mut s = ErService::load_mapped(&path, &d.left, &d.right, &f, frame, cfg).unwrap();
        assert_eq!(s.matching(), s.full_rematch());

        let mut p = d.left.profiles[0].clone();
        p.id = s.next_id(Side::Left);
        s.insert(Side::Left, &p).unwrap();
        assert_eq!(s.matching(), s.full_rematch());
        s.remove(Side::Right, 1).unwrap();
        let before = s.matching();

        let meta = s.compact().unwrap().expect("file-backed service persists");
        assert!(meta.file_bytes > 0);
        // The file now holds exactly the folded resident graph —
        // tombstones, appended row and all.
        let reread = er_core::MappedCsr::open(&path).unwrap();
        assert_eq!(&reread.to_csr(), s.store());
        assert!(!reread.is_live_right(1));
        assert_eq!(s.matching(), before);
        assert_eq!(s.matching(), s.full_rematch());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compact_persists_for_file_backed_services() {
        let d = Dataset::generate(DatasetId::D1, 0.02, 11);
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = ServiceConfig {
            k: 3,
            threshold: 0.3,
            // Every remove trips the bound: each delete must round-trip
            // through a persisted fold.
            auto_compact_ratio: 0.0,
            ..ServiceConfig::default()
        };
        let (graph, _, frame) = build_graph_topk(
            &d.left,
            &d.right,
            &f,
            cfg.k,
            CandidateMode::Indexed,
            &cfg.pipeline,
        );
        let csr = CsrGraph::from_graph(&graph);
        let dir = scratch_dir();
        let path = dir.join("autocompact.slab");
        er_core::write_csr(&csr, &path).unwrap();
        let mut s = ErService::load_mapped(&path, &d.left, &d.right, &f, frame, cfg).unwrap();

        s.remove(Side::Right, 1).unwrap();
        // Regression (the fold used to be RAM-only): the auto-compaction
        // a remove triggers must persist the folded graph to the backing
        // file, not let the file silently drift behind the service.
        let reread = er_core::MappedCsr::open(&path).unwrap();
        assert!(!reread.is_live_right(1), "tombstone reached the file");
        assert_eq!(&reread.to_csr(), s.store(), "file equals resident store");
        assert_eq!(s.matching(), s.full_rematch());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sustained_traffic_keeps_liveness_above_threshold() {
        let (mut s, d) = service();
        let ratio = 0.25;
        assert_eq!(s.tombstone_ratio(), 0.0);
        // Churn: keep inserting fresh records while deleting the oldest
        // live ones, on both sides. Auto-compaction must keep the masked
        // share of the slab strictly below the configured ratio at every
        // step — sustained traffic never degrades liveness past the bound.
        let (mut next_dead_left, mut next_dead_right) = (0u32, 0u32);
        for i in 0..40 {
            let mut p = d.left.profiles[i % d.left.profiles.len()].clone();
            p.id = s.next_id(Side::Left);
            s.insert(Side::Left, &p).unwrap();
            let mut q = d.right.profiles[i % d.right.profiles.len()].clone();
            q.id = s.next_id(Side::Right);
            s.insert(Side::Right, &q).unwrap();
            s.remove(Side::Left, next_dead_left).unwrap();
            next_dead_left += 1;
            if i % 2 == 0 {
                s.remove(Side::Right, next_dead_right).unwrap();
                next_dead_right += 1;
            }
            assert!(
                s.tombstone_ratio() < ratio,
                "step {i}: masked share {} reached the auto-compact bound",
                s.tombstone_ratio()
            );
        }
        // Folding along the way never drifted the matching.
        assert_eq!(s.matching(), s.full_rematch());
    }
}
