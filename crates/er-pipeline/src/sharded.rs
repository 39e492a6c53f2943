//! Out-of-core top-k graph construction: score in bounded shards and
//! write each finished shard's rows straight into a columnar on-disk
//! graph.
//!
//! The in-RAM streaming build ([`build_graph_topk`](crate::build_graph_topk)) already bounds
//! peak memory at `O(n_left × k)` edges — but the *finished* edge set
//! still materializes as one heap-resident graph. This module removes
//! that last ceiling: [`build_graph_sharded`] partitions the left rows
//! into contiguous ranges of [`ShardedConfig::shard_rows`], runs the
//! existing bound-driven top-k engine (indexed candidate generation and
//! all) one shard at a time against a scorer **prepared once over the
//! full collections**, and appends each finished shard's rows to one
//! [`SlabWriter`] — column ids into the store file, raw weights into the
//! writer's temp file. At seal the writer maps every raw weight through
//! the normalization frame and sorts the weight-descending sorted edge
//! section in bounded runs, so the finished version-3 [`MappedCsr`]
//! store can be swept mmap-native without ever hydrating. Peak resident
//! edges stay bounded by the shard budget (see below) — the corpus's
//! dense edge set, and even its pruned top-k edge set, never needs to
//! fit in RAM.
//!
//! # Pipelined writes
//!
//! Shard *scoring* overlaps the previous shard's *write*: the scoring
//! loop hands each finished shard across a rendezvous channel to a
//! dedicated spill thread. The channel is unbuffered, so at most **two**
//! shards are in flight — the one being scored and the one being
//! written — and the resident ceiling is `2 × shard_rows × k`
//! ([`BuildStats::resident_budget_edges`]). There is a single producer,
//! so shards arrive at the spill thread in score order, and shards cover
//! ascending left-row ranges, so appending them in arrival order *is*
//! the store's row order. The spill thread groups a shard's triples by
//! left id, sorts each row right-ascending, pads the left ids the scorer
//! skipped with empty rows, and folds the frame maximum on the way. The
//! store writer's sort runs take the same `2 × shard_rows × k` entries
//! (at least 4096).
//!
//! # Bit-identity with the in-RAM path
//!
//! The result is **bit-identical** to
//! `CsrGraph::from_graph(&build_graph_topk(…).0)`, argued in three
//! steps (property-proven per taxonomy branch, thread count and shard
//! size in `tests/sharded_props.rs`, where every store file's bytes
//! must equal `write_csr` of the in-RAM build):
//!
//! 1. **Scores.** The scorer — DF statistics, inverted indexes, encoded
//!    vectors, candidate indexes — is prepared once over the *full*
//!    collections, exactly as the in-RAM build prepares it; per-row
//!    top-k selection is row-local; and row ranges are scored in
//!    ascending order. Concatenating the shard outputs therefore
//!    reproduces the in-RAM score phase's triple stream bit for bit
//!    (see `graphgen::score_sharded`).
//! 2. **Frame.** Every written triple already passed the scorers'
//!    positivity filter, and the normalization frame is folded from
//!    per-shard maxima. Max folding is order- and grouping-independent,
//!    so the frame equals the in-RAM `NormFrame::compute` over the
//!    concatenated retained triples.
//! 3. **Seal.** Each raw weight is mapped through that frame at seal —
//!    the identical `f64` operations the in-RAM finalize applies — and
//!    rows are written right-ascending, which is exactly the canonical
//!    order `CsrGraph::from_graph` produces. Same edges, same weights,
//!    same layout: every row's bytes are a function of that row's
//!    triples alone, however the rows were sharded. The sorted edge
//!    section is sorted by the *stored* (normalized) weights under the
//!    store's one order key, which `MappedCsr::open` re-validates.
//!
//! DESIGN.md §18 and §20 spell the argument out against the on-disk
//! format.

use std::path::{Path, PathBuf};

use er_core::{ConstructionCounters, MappedCsr, SlabWriter, StoreError};
use er_datasets::EntityCollection;

use crate::candidates::{CandidateMode, SourceKind};
use crate::config::PipelineConfig;
use crate::graphgen::{score_sharded, BuildStats, NormFrame, ScoreMode, Triple};
use crate::taxonomy::SimilarityFunction;

/// Bytes one retained triple costs the writer before the frame is known:
/// its `u32` column id and its raw `f64` weight.
const ROW_ENTRY_BYTES: usize = 12;

/// Floor for the store writer's sort-run length: runs shorter than this
/// cost more in file handles than they save in memory (64 KiB resident).
const MIN_SORT_RUN: usize = 4096;

/// Shape of one out-of-core build.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Scorer rows per shard — the resident-memory knob: at most two
    /// shards are in flight, so peak resident edges are at most
    /// `2 × shard_rows × k`.
    pub shard_rows: usize,
    /// Directory for the store writer's temp files — raw weights and
    /// sort runs (created if missing, emptied again when the build
    /// finishes).
    pub spill_dir: PathBuf,
}

impl ShardedConfig {
    /// A config writing temp files to `spill_dir` with `shard_rows`
    /// rows per shard.
    pub fn new(shard_rows: usize, spill_dir: impl Into<PathBuf>) -> Self {
        ShardedConfig {
            shard_rows,
            spill_dir: spill_dir.into(),
        }
    }
}

/// The spill thread's state: the store writer the finished shards' rows
/// go to, and the frame maximum `hi`, folded from `0.0` as
/// `NormFrame::compute` does.
struct SpillState {
    writer: SlabWriter,
    n_left: u32,
    /// The next left id the writer expects.
    next_row: u32,
    row: Vec<(u32, f64)>,
    shards: usize,
    hi: f64,
    spilled_triples: usize,
    err: Option<StoreError>,
}

impl SpillState {
    /// Fold the frame maximum over one scored shard and append its rows
    /// to the writer.
    fn spill_shard(&mut self, bufs: Vec<Vec<Triple>>, acct: &ConstructionCounters) {
        self.shards += 1;
        if self.err.is_some() {
            return;
        }
        let resident: usize = bufs.iter().map(Vec::len).sum();
        match self.append_rows(bufs.into_iter().flatten()) {
            Ok(()) => {
                self.spilled_triples += resident;
                acct.add_spilled_bytes(resident * ROW_ENTRY_BYTES);
                // The shard's buffers are dropped here: release their
                // resident count so the peak tracks the in-flight
                // shards, not the cumulative total.
                acct.sub_resident(resident);
            }
            Err(e) => self.err = Some(e),
        }
    }

    /// Append a shard's triples as rows. A shard's triples arrive
    /// grouped by left id, ids ascending; left ids the scorer skipped
    /// (schema-based scorers skip entities without the attribute) become
    /// empty rows.
    fn append_rows(&mut self, triples: impl Iterator<Item = Triple>) -> Result<(), StoreError> {
        let mut cur: Option<u32> = None;
        for (l, r, w) in triples {
            self.hi = self.hi.max(w);
            if cur != Some(l) {
                if let Some(prev) = cur {
                    self.write_row(prev)?;
                }
                cur = Some(l);
            }
            self.row.push((r, w));
        }
        if let Some(prev) = cur {
            self.write_row(prev)?;
        }
        Ok(())
    }

    /// Write the buffered row as row `l`, padding any gap since the
    /// previous row with empty rows. Shard rows drain weight-descending;
    /// the store's rows are right-ascending.
    fn write_row(&mut self, l: u32) -> Result<(), StoreError> {
        if l >= self.n_left || l < self.next_row {
            return Err(StoreError::Format(
                "scored rows outside the left id space or out of order".into(),
            ));
        }
        self.pad_to(l)?;
        self.row.sort_unstable_by_key(|&(r, _)| r);
        self.writer.append_row(&self.row)?;
        self.row.clear();
        self.next_row += 1;
        Ok(())
    }

    /// Append empty rows up to (not including) left id `l`.
    fn pad_to(&mut self, l: u32) -> Result<(), StoreError> {
        while self.next_row < l {
            self.writer.append_row(&[])?;
            self.next_row += 1;
        }
        Ok(())
    }
}

/// Build the top-k graph of `function` **out of core**: bounded shards
/// through the streaming engine, their rows written straight into a
/// columnar on-disk store at `out_path` — opened and returned as a
/// file-backed [`MappedCsr`] view (sorted edge section included),
/// bit-identical to what the in-RAM
/// [`build_graph_topk`](crate::build_graph_topk) path would have
/// produced (see the module docs for the argument), with the frame and
/// the write accounting alongside. The store writer's temp files go to
/// [`ShardedConfig::spill_dir`], which a successful build leaves empty.
///
/// ```
/// use er_datasets::{Dataset, DatasetId};
/// use er_pipeline::{
///     build_graph_sharded, build_graph_topk, CandidateMode, PipelineConfig, ShardedConfig,
/// };
/// use er_pipeline::SimilarityFunction;
/// use er_textsim::{NGramScheme, VectorMeasure};
///
/// let d = Dataset::generate(DatasetId::D1, 0.02, 7);
/// let f = SimilarityFunction::SchemaAgnosticVector {
///     scheme: NGramScheme::Token(1),
///     measure: VectorMeasure::CosineTfIdf,
/// };
/// let cfg = PipelineConfig::default();
/// let dir = std::env::temp_dir().join("ccer-sharded-doc");
/// let out = dir.join("graph.slab");
/// let sharding = ShardedConfig::new(8, dir.join("tmp"));
/// let (mapped, stats, _frame) = build_graph_sharded(
///     &d.left, &d.right, &f, 2, CandidateMode::Indexed, &cfg, &sharding, &out,
/// ).unwrap();
///
/// // Bit-identical to the in-RAM build, resident bound respected, no
/// // temp file left behind.
/// let (g, _, _) = build_graph_topk(&d.left, &d.right, &f, 2, CandidateMode::Indexed, &cfg);
/// assert_eq!(mapped.to_csr(), er_core::CsrGraph::from_graph(&g));
/// assert!(stats.peak_resident_edges <= stats.resident_budget_edges);
/// assert_eq!(std::fs::read_dir(&sharding.spill_dir).unwrap().count(), 0);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[allow(clippy::too_many_arguments)]
pub fn build_graph_sharded(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    mode: CandidateMode,
    cfg: &PipelineConfig,
    sharding: &ShardedConfig,
    out_path: &Path,
) -> Result<(MappedCsr, BuildStats, NormFrame), StoreError> {
    if sharding.shard_rows == 0 {
        return Err(StoreError::Format("shard_rows must be at least 1".into()));
    }
    std::fs::create_dir_all(&sharding.spill_dir)?;
    let n_left = left.len() as u32;
    let resident_budget = sharding.shard_rows.saturating_mul(k).saturating_mul(2);
    let writer = SlabWriter::create(
        out_path,
        n_left,
        right.len() as u32,
        Vec::new(),
        &sharding.spill_dir,
        resident_budget.max(MIN_SORT_RUN),
    )?;

    // ---- Score phase: shard, hand off, fold the frame max, write rows. ----
    let acct = ConstructionCounters::default();
    let mut state = SpillState {
        writer,
        n_left,
        next_row: 0,
        row: Vec::new(),
        shards: 0,
        hi: 0.0,
        spilled_triples: 0,
        err: None,
    };
    // Rendezvous handoff: the scorer blocks until the spill thread takes
    // the shard, so at most two shards are ever in flight.
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<Vec<Triple>>>(0);
        let state_ref = &mut state;
        let acct_ref = &acct;
        let worker = scope.spawn(move || {
            while let Ok(bufs) = rx.recv() {
                state_ref.spill_shard(bufs, acct_ref);
            }
        });
        score_sharded(
            left,
            right,
            function,
            SourceKind::for_build(mode, function),
            cfg,
            ScoreMode::TopK { k, acct: &acct },
            sharding.shard_rows,
            |bufs| {
                let _ = tx.send(bufs);
            },
        );
        drop(tx);
        worker.join().expect("spill worker panicked");
    });
    if let Some(e) = state.err.take() {
        return Err(e);
    }
    let frame = NormFrame::from_max(state.hi);

    // ---- Seal: pad the last rows, normalize through the frame, sort. ----
    state.pad_to(n_left)?;
    let meta = state.writer.finish(|w| frame.apply(w))?;
    acct.add_merged_bytes(meta.file_bytes as usize);

    let mapped = MappedCsr::open(out_path)?;
    let stats = BuildStats {
        shards: state.shards,
        generated_pairs: acct.generated(),
        offered_edges: acct.offered(),
        retained_edges: meta.n_edges as usize,
        peak_resident_edges: acct.peak(),
        resident_budget_edges: resident_budget,
        pruned_pairs: acct.pruned(),
        scored_pairs: acct.scored(),
        spilled_triples: state.spilled_triples,
        spilled_bytes: acct.spilled_bytes(),
        merged_bytes: acct.merged_bytes(),
    };
    Ok((mapped, stats, frame))
}
