//! Out-of-core top-k graph construction: score in bounded shards, spill,
//! merge into a columnar on-disk graph.
//!
//! The in-RAM streaming build ([`build_graph_topk`](crate::build_graph_topk)) already bounds
//! peak memory at `O(n_left × k)` edges — but the *finished* edge set
//! still materializes as one heap-resident graph. This module removes
//! that last ceiling: [`build_graph_sharded`] partitions the left rows
//! into contiguous ranges of [`ShardedConfig::shard_rows`], runs the
//! existing bound-driven top-k engine (indexed candidate generation and
//! all) one shard at a time against a scorer **prepared once over the
//! full collections**, spills each finished shard's raw triples to a
//! slab file, and externally merges the spills into one on-disk
//! [`MappedCsr`] store — version 2, with the weight-descending
//! sort-order column emitted by an external run sort, so the finished
//! file can be swept mmap-native without ever hydrating. Peak resident
//! edges stay bounded by the shard budget (see below) — the corpus's
//! dense edge set, and even its pruned top-k edge set, never needs to
//! fit in RAM.
//!
//! # Pipelined spill and the in-order merge
//!
//! Shard *scoring* overlaps the previous shard's *spill*: the scoring
//! loop hands each finished shard across a rendezvous channel to a
//! dedicated spill thread. The channel is unbuffered, so at most **two**
//! shards are in flight — the one being scored and the one being
//! spilled — and the resident ceiling is `2 × shard_rows × k`
//! ([`BuildStats::resident_budget_edges`]). There is a single producer,
//! so shards arrive at the spill thread in score order, and the frame's
//! max fold is order-independent anyway.
//!
//! The final merge is one serial pass: shards cover contiguous ascending
//! left-row ranges, so reading the spill files in order *is* the global
//! row order, and no k-way merge is needed. The pass groups each row's
//! records (`for_each_row`), finalizes the row — weights normalized
//! through the frame, entries sorted right-ascending — and streams it
//! straight into the [`SlabWriter`]. Finalizing touches at most `k`
//! edges per row, so the merge is bound by its file I/O, which a
//! parallel pass would only add to.
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
//! 2. **Frame.** Every spilled triple already passed the scorers'
//!    positivity filter, and the normalization frame is folded from
//!    per-shard maxima. Max folding is order- and grouping-independent,
//!    so the frame equals the in-RAM `NormFrame::compute` over the
//!    concatenated retained triples.
//! 3. **Merge.** Each spilled record's raw weight is mapped through
//!    that frame at merge time — the identical `f64` operations the
//!    in-RAM finalize applies — and rows are written right-ascending,
//!    which is exactly the canonical order `CsrGraph::from_graph`
//!    produces. Same edges, same weights, same layout: every row's bytes
//!    are a function of that row's spill records alone, however the
//!    rows were sharded. The sort-order column is sorted by the *stored*
//!    (normalized) weights with ascending-slab-index tie-breaks, and
//!    re-validated against exactly that order when the store is opened.
//!
//! DESIGN.md §18 and §20 spell the argument out against the on-disk
//! format.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use er_core::{ConstructionCounters, MappedCsr, SlabWriter, StoreError, StoreMeta};
use er_datasets::EntityCollection;

use crate::candidates::{CandidateMode, SourceKind};
use crate::config::PipelineConfig;
use crate::graphgen::{score_sharded, BuildStats, NormFrame, ScoreMode, Triple};
use crate::taxonomy::SimilarityFunction;

/// Bytes of one spill record: `(left u32, right u32, raw weight f64)`.
const SPILL_RECORD: usize = 16;

/// Bytes of one sort-order run record: `(weight f64, slab index u64)`.
const PERM_RECORD: usize = 16;

/// Floor for the external sort's run length: runs shorter than this cost
/// more in file handles than they save in memory (64 KiB resident).
const MIN_PERM_RUN: usize = 4096;

/// Shape of one out-of-core build.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Scorer rows per shard — the resident-memory knob: at most two
    /// shards are in flight, so peak resident edges are at most
    /// `2 × shard_rows × k`.
    pub shard_rows: usize,
    /// Directory for the per-shard spill files (created if missing,
    /// spills deleted after the merge).
    pub spill_dir: PathBuf,
}

impl ShardedConfig {
    /// A config spilling to `spill_dir` with `shard_rows` rows per
    /// shard.
    pub fn new(shard_rows: usize, spill_dir: impl Into<PathBuf>) -> Self {
        ShardedConfig {
            shard_rows,
            spill_dir: spill_dir.into(),
        }
    }
}

/// One spill file being merged: a buffered reader plus the
/// decoded look-ahead record — the only triple of the shard resident
/// during the merge.
struct SpillReader {
    rd: BufReader<File>,
    next: Option<(u32, u32, f64)>,
}

impl SpillReader {
    fn open(path: &Path) -> Result<SpillReader, StoreError> {
        let mut reader = SpillReader {
            rd: BufReader::new(File::open(path)?),
            next: None,
        };
        reader.advance()?;
        Ok(reader)
    }

    fn advance(&mut self) -> Result<(), StoreError> {
        let mut buf = [0u8; SPILL_RECORD];
        let mut at = 0;
        while at < SPILL_RECORD {
            let n = self.rd.read(&mut buf[at..])?;
            if n == 0 {
                break;
            }
            at += n;
        }
        self.next = match at {
            0 => None,
            SPILL_RECORD => Some((
                u32::from_le_bytes(buf[0..4].try_into().unwrap()),
                u32::from_le_bytes(buf[4..8].try_into().unwrap()),
                f64::from_le_bytes(buf[8..16].try_into().unwrap()),
            )),
            _ => return Err(StoreError::Format("truncated spill record".into())),
        };
        Ok(())
    }
}

/// Append one spill record.
fn write_record(out: &mut impl Write, l: u32, r: u32, w: f64) -> Result<(), StoreError> {
    out.write_all(&l.to_le_bytes())?;
    out.write_all(&r.to_le_bytes())?;
    out.write_all(&w.to_le_bytes())?;
    Ok(())
}

// ----------------------------------------------------------------------
// Score-phase spilling (the spill thread's state).
// ----------------------------------------------------------------------

/// Mutable state of the spill stage; `hi` folds the frame maximum from
/// `0.0`, as `NormFrame::compute` does.
#[derive(Default)]
struct SpillState {
    spills: Vec<PathBuf>,
    hi: f64,
    spilled_triples: usize,
    err: Option<StoreError>,
}

impl SpillState {
    /// Fold the frame maximum over, and spill, one scored shard.
    fn spill_shard(
        &mut self,
        shard: usize,
        bufs: Vec<Vec<Triple>>,
        spill_dir: &Path,
        acct: &ConstructionCounters,
    ) {
        if self.err.is_some() {
            return;
        }
        let resident: usize = bufs.iter().map(Vec::len).sum();
        let path = spill_dir.join(format!("shard-{shard}.spill"));
        let spill = (|| -> Result<(), StoreError> {
            let mut out = BufWriter::new(File::create(&path)?);
            for (l, r, w) in bufs.into_iter().flatten() {
                self.hi = self.hi.max(w);
                write_record(&mut out, l, r, w)?;
            }
            out.flush()?;
            Ok(())
        })();
        self.spills.push(path);
        match spill {
            Ok(()) => {
                self.spilled_triples += resident;
                acct.add_spilled_bytes(resident * SPILL_RECORD);
                // The shard's buffers are dropped here: release their
                // resident count so the peak tracks the in-flight
                // shards, not the cumulative total.
                acct.sub_resident(resident);
            }
            Err(e) => self.err = Some(e),
        }
    }
}

// ----------------------------------------------------------------------
// External sort of the store's sort-order column.
// ----------------------------------------------------------------------

/// Run comparator: stored weight descending under `total_cmp`, ties by
/// ascending slab index — `edge_key_desc` expressed on `(weight, slab
/// index)`, since slab order is `(left, right)`-ascending.
fn perm_cmp(a: &(f64, u64), b: &(f64, u64)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1))
}

/// Bounded-memory sorter for the sort-order column: buffers `(stored
/// weight, slab index)` entries up to the run budget, spills sorted
/// runs, and k-way-merges them into the order stream
/// [`SlabWriter::finish_with_order`] consumes. Small builds never spill
/// (one resident run).
struct PermSorter {
    dir: PathBuf,
    budget: usize,
    buf: Vec<(f64, u64)>,
    runs: Vec<PathBuf>,
}

impl PermSorter {
    fn new(dir: &Path, budget: usize) -> Self {
        PermSorter {
            dir: dir.to_path_buf(),
            budget: budget.max(MIN_PERM_RUN),
            buf: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn push(&mut self, weight: f64, slab_idx: u64) -> Result<(), StoreError> {
        self.buf.push((weight, slab_idx));
        if self.buf.len() >= self.budget {
            self.spill_run()?;
        }
        Ok(())
    }

    fn spill_run(&mut self) -> Result<(), StoreError> {
        self.buf.sort_unstable_by(perm_cmp);
        let path = self.dir.join(format!("perm-run-{}.spill", self.runs.len()));
        let mut out = BufWriter::new(File::create(&path)?);
        for &(w, idx) in &self.buf {
            out.write_all(&w.to_le_bytes())?;
            out.write_all(&idx.to_le_bytes())?;
        }
        out.flush()?;
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    /// Freeze into the merged order stream (and the run paths to clean
    /// up afterwards).
    fn into_order(mut self) -> Result<(PermOrder, Vec<PathBuf>), StoreError> {
        self.buf.sort_unstable_by(perm_cmp);
        let run_paths = self.runs.clone();
        let mut sources = Vec::with_capacity(self.runs.len() + 1);
        for p in &self.runs {
            sources.push(PermSource::Run(PermRunReader::open(p)?));
        }
        sources.push(PermSource::Ram(self.buf.into_iter()));
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (i, s) in sources.iter_mut().enumerate() {
            if let Some((w, idx)) = s.pop()? {
                heap.push(PermHeapEntry { w, idx, src: i });
            }
        }
        Ok((PermOrder { sources, heap }, run_paths))
    }
}

/// One spilled run of the external sort.
struct PermRunReader {
    rd: BufReader<File>,
}

impl PermRunReader {
    fn open(path: &Path) -> Result<PermRunReader, StoreError> {
        Ok(PermRunReader {
            rd: BufReader::new(File::open(path)?),
        })
    }

    fn read(&mut self) -> Result<Option<(f64, u64)>, StoreError> {
        let mut buf = [0u8; PERM_RECORD];
        let mut at = 0;
        while at < PERM_RECORD {
            let n = self.rd.read(&mut buf[at..])?;
            if n == 0 {
                break;
            }
            at += n;
        }
        match at {
            0 => Ok(None),
            PERM_RECORD => Ok(Some((
                f64::from_le_bytes(buf[0..8].try_into().unwrap()),
                u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            ))),
            _ => Err(StoreError::Format("truncated sort-order run record".into())),
        }
    }
}

enum PermSource {
    Run(PermRunReader),
    Ram(std::vec::IntoIter<(f64, u64)>),
}

impl PermSource {
    fn pop(&mut self) -> Result<Option<(f64, u64)>, StoreError> {
        match self {
            PermSource::Run(r) => r.read(),
            PermSource::Ram(it) => Ok(it.next()),
        }
    }
}

/// Max-heap key: "greater" means "comes first" under [`perm_cmp`], so
/// `BinaryHeap::pop` yields the globally next sort-order entry.
struct PermHeapEntry {
    w: f64,
    idx: u64,
    src: usize,
}

impl PartialEq for PermHeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for PermHeapEntry {}

impl PartialOrd for PermHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PermHeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        perm_cmp(&(other.w, other.idx), &(self.w, self.idx))
    }
}

/// The merged weight-descending order, streamed into
/// [`SlabWriter::finish_with_order`]. One resident record per run.
struct PermOrder {
    sources: Vec<PermSource>,
    heap: BinaryHeap<PermHeapEntry>,
}

impl Iterator for PermOrder {
    type Item = Result<u64, StoreError>;

    fn next(&mut self) -> Option<Result<u64, StoreError>> {
        let top = self.heap.pop()?;
        match self.sources[top.src].pop() {
            Ok(Some((w, idx))) => self.heap.push(PermHeapEntry {
                w,
                idx,
                src: top.src,
            }),
            Ok(None) => {}
            Err(e) => return Some(Err(e)),
        }
        Some(Ok(top.idx))
    }
}

// ----------------------------------------------------------------------
// Store sink: rows in, finished v2 store out.
// ----------------------------------------------------------------------

/// Streams finalized rows (right-ascending, weights normalized) into a
/// [`SlabWriter::create_streamed`] writer while feeding the external
/// sort of the sort-order column. Gaps between pushed rows become empty
/// live rows.
struct StoreSink {
    writer: SlabWriter,
    perm: PermSorter,
    n_left: u32,
    next_row: u32,
    slab_idx: u64,
}

impl StoreSink {
    fn new(
        out_path: &Path,
        n_left: u32,
        n_right: u32,
        spill_dir: &Path,
        perm_budget: usize,
    ) -> Result<StoreSink, StoreError> {
        Ok(StoreSink {
            writer: SlabWriter::create_streamed(out_path, n_left, n_right, Vec::new())?,
            perm: PermSorter::new(spill_dir, perm_budget),
            n_left,
            next_row: 0,
            slab_idx: 0,
        })
    }

    /// Append row `l` (right-ascending `(right, stored weight)` pairs),
    /// filling any gap since the previous pushed row with empty rows.
    fn push_row(&mut self, l: u32, row: &[(u32, f64)]) -> Result<(), StoreError> {
        if l >= self.n_left || l < self.next_row {
            return Err(StoreError::Format(
                "spill records outside the left id space".into(),
            ));
        }
        while self.next_row < l {
            self.writer.append_row(&[])?;
            self.next_row += 1;
        }
        self.writer.append_row(row)?;
        self.next_row += 1;
        for &(_, w) in row {
            self.perm.push(w, self.slab_idx)?;
            self.slab_idx += 1;
        }
        Ok(())
    }

    /// Pad the remaining rows, merge the sort-order runs, seal the file.
    fn finish(mut self) -> Result<(StoreMeta, Vec<PathBuf>), StoreError> {
        while self.next_row < self.n_left {
            self.writer.append_row(&[])?;
            self.next_row += 1;
        }
        let (order, run_paths) = self.perm.into_order()?;
        let meta = self.writer.finish_with_order(order)?;
        Ok((meta, run_paths))
    }
}

// ----------------------------------------------------------------------
// The merge.
// ----------------------------------------------------------------------

/// Stream the records of `files` — spill files covering contiguous,
/// ascending left-row ranges in file order — and hand each left row's
/// `(right, weight)` pairs to `on_row`, rows ascending.
///
/// A file's left-id range is not known up front: shards cut the
/// scorer's rows, and schema-based scorers skip entities that lack the
/// attribute, so shard `s` need not start at left id `s · shard_rows`.
/// The loop checks only that ids ascend and stay below `n_left`.
fn for_each_row(
    files: &[PathBuf],
    n_left: u32,
    mut on_row: impl FnMut(u32, &mut Vec<(u32, f64)>) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut row: Vec<(u32, f64)> = Vec::new();
    let mut cur: Option<u32> = None;
    for p in files {
        let mut rd = SpillReader::open(p)?;
        while let Some((l, r, w)) = rd.next {
            if l >= n_left || cur.is_some_and(|c| l < c) {
                return Err(StoreError::Format(
                    "spill records outside the left id space".into(),
                ));
            }
            if cur != Some(l) {
                if let Some(prev) = cur {
                    on_row(prev, &mut row)?;
                    row.clear();
                }
                cur = Some(l);
            }
            row.push((r, w));
            rd.advance()?;
        }
    }
    if let Some(prev) = cur {
        on_row(prev, &mut row)?;
    }
    Ok(())
}

/// Finalize one spilled row in place: map each raw weight through the
/// frame, then sort right-ascending. Shard rows drain weight-descending;
/// the store's canonical row order is right-ascending, same as
/// `CsrGraph::from_graph`.
fn finalize_row(frame: NormFrame, row: &mut [(u32, f64)]) {
    for e in row.iter_mut() {
        e.1 = frame.apply(e.1);
    }
    row.sort_unstable_by_key(|&(r, _)| r);
}

/// Build the top-k graph of `function` **out of core**: bounded shards
/// through the streaming engine, spill files, an external merge into a
/// columnar on-disk store at `out_path` — opened and returned as a
/// file-backed [`MappedCsr`] view (sort-order column included),
/// bit-identical to what the in-RAM
/// [`build_graph_topk`](crate::build_graph_topk) path would have
/// produced (see the module docs for the argument), with the frame and
/// the spill/merge accounting alongside.
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
/// let (mapped, stats, _frame) = build_graph_sharded(
///     &d.left, &d.right, &f, 2, CandidateMode::Indexed, &cfg,
///     &ShardedConfig::new(8, &dir), &out,
/// ).unwrap();
///
/// // Bit-identical to the in-RAM build, resident bound respected.
/// let (g, _, _) = build_graph_topk(&d.left, &d.right, &f, 2, CandidateMode::Indexed, &cfg);
/// assert_eq!(mapped.to_csr(), er_core::CsrGraph::from_graph(&g));
/// assert!(stats.peak_resident_edges <= stats.resident_budget_edges);
/// # std::fs::remove_file(&out).ok();
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

    // ---- Score phase: shard, hand off, fold the frame max, spill. ----
    let acct = ConstructionCounters::default();
    let mut state = SpillState::default();
    // Rendezvous handoff: the scorer blocks until the spill thread takes
    // the shard, so at most two shards are ever in flight.
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, Vec<Vec<Triple>>)>(0);
        let state_ref = &mut state;
        let acct_ref = &acct;
        let worker = scope.spawn(move || {
            while let Ok((shard, bufs)) = rx.recv() {
                state_ref.spill_shard(shard, bufs, &sharding.spill_dir, acct_ref);
            }
        });
        score_sharded(
            left,
            right,
            function,
            SourceKind::of_mode(mode),
            cfg,
            ScoreMode::TopK { k, acct: &acct },
            sharding.shard_rows,
            |shard, bufs| {
                let _ = tx.send((shard, bufs));
            },
        );
        drop(tx);
        worker.join().expect("spill worker panicked");
    });
    let cleanup = |paths: &[PathBuf]| {
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    };
    let SpillState {
        spills,
        hi,
        spilled_triples,
        err,
    } = state;
    if let Some(e) = err {
        cleanup(&spills);
        return Err(e);
    }
    let frame = NormFrame::from_max(hi);

    // ---- Merge phase: rows in order into the on-disk v2 store. ----
    let n_left = left.len() as u32;
    let n_right = right.len() as u32;
    let resident_budget = sharding.shard_rows.saturating_mul(k).saturating_mul(2);
    let merged = (|| -> Result<(StoreMeta, Vec<PathBuf>), StoreError> {
        let mut sink = StoreSink::new(
            out_path,
            n_left,
            n_right,
            &sharding.spill_dir,
            resident_budget,
        )?;
        for_each_row(&spills, n_left, |l, row| {
            finalize_row(frame, row);
            sink.push_row(l, row)
        })?;
        sink.finish()
    })();
    cleanup(&spills);
    let (meta, run_paths) = merged?;
    cleanup(&run_paths);
    acct.add_merged_bytes(meta.file_bytes as usize);

    let mapped = MappedCsr::open(out_path)?;
    let stats = BuildStats {
        shards: spills.len(),
        generated_pairs: acct.generated(),
        offered_edges: acct.offered(),
        retained_edges: meta.n_edges as usize,
        peak_resident_edges: acct.peak(),
        resident_budget_edges: resident_budget,
        pruned_pairs: acct.pruned(),
        scored_pairs: acct.scored(),
        spilled_triples,
        spilled_bytes: acct.spilled_bytes(),
        merged_bytes: acct.merged_bytes(),
    };
    Ok((mapped, stats, frame))
}
