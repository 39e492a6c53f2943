//! Columnar on-disk storage for [`CsrGraph`] — the durable twin of the
//! in-RAM slab store.
//!
//! # Format (version 3)
//!
//! One file, little-endian throughout, fixed-width columns so every
//! section is directly addressable from a file-backed byte view:
//!
//! ```text
//! offset  size  field
//!      0     8  magic            b"CCERSLAB"
//!      8     4  version          u32 = 3
//!     12     4  n_left           u32 (next left append id)
//!     16     4  n_right          u32 (next right append id)
//!     20     4  (reserved)       u32 = 0
//!     24     8  n_edges          u64 (live slab entries)
//!     32     8  n_dead_left      u64 (tombstoned left rows)
//!     40     8  n_dead_right     u64 (tombstoned right columns)
//!     48     8  checksum         u64 (FNV-1a 64 of the payload)
//!     56     …  payload:
//!            ── row offsets      (n_left + 1) × u64
//!            ── column ids       n_edges × u32, right-ascending per
//!                                row, zero-padded to 8 bytes
//!            ── weights          n_edges × f64
//!            ── left liveness    ⌈n_left / 64⌉ × u64 bitmap words,
//!                                bit set ⇔ row live; tail bits zero
//!            ── dead right ids   n_dead_right × u32, sorted strictly
//!                                ascending, zero-padded to 8 bytes
//!            ── sorted edges     n_edges × 16 B records
//!                                (left u32, right u32, weight f64),
//!                                in edge_sort_key order
//! ```
//!
//! The **sorted edge section** persists the workspace's one total edge
//! order, [`edge_sort_key`]: weight descending under `f64::total_cmp`,
//! ties by `(left, right)` ascending. It holds the edges themselves, so
//! "the edges above `t`" is a **prefix of a file-backed section**: a
//! reader binary-searches the threshold on the records' weight fields
//! and streams the prefix record by record, with no row search and no
//! read into the slab. Both sides state the
//! order through the one key: the writer sorts by it, and the reader
//! requires the keys of adjacent records to strictly ascend and every
//! record to name a slab entry with a bit-identical weight — with the
//! record count fixed by `n_edges`, a bijection with the slab. Versions 1
//! and 2 (no sorted section, and a permutation of slab indices in its
//! place) are no longer read: [`MappedCsr::open`] rejects them as a
//! [`StoreError::Format`].
//!
//! The on-disk form is always **folded**: [`write_csr`] streams
//! [`CsrGraph::live_row`], so tombstone-masked slab entries and pending
//! patch edges never reach the file — `n_edges` counts live edges
//! exactly, and the reader never masks. Tombstoned *ids* survive (the
//! id spaces `n_left` / `n_right` are append-only and never reused), as
//! the left liveness bitmap plus the dead-right id list. The right side
//! deliberately uses a sparse sorted list instead of a bitmap: right
//! ids may legally span the whole `u32` range while tombstones stay
//! few, and a dense bitmap over `u32::MAX` columns would cost 512 MiB
//! before the first edge.
//!
//! [`SlabWriter`] is the one producer of store files: it streams rows
//! out in `O(n_left + run_len)` writer memory (the offset column and one
//! bounded sort run; raw weights detour through a temp file so both
//! variable-width sections can stream in one pass). [`MappedCsr`] is
//! the read side: a file-backed byte view (`memmap2`, see the vendor
//! shim) validated once at open — magic, version, section lengths,
//! checksum, offset monotonicity, per-row ordering, liveness
//! consistency, the sorted section's order and bijection — after which
//! every access decodes fixed-width fields straight from the view.
//! Corruption of any kind is an [`StoreError`], never a panic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use memmap2::Mmap;

use crate::csr::CsrGraph;
use crate::float::{edge_from_sort_key, edge_sort_key};
use crate::graph::Edge;

/// Magic bytes opening every columnar store file.
const MAGIC: &[u8; 8] = b"CCERSLAB";

/// The format version every writer emits and the reader accepts.
const VERSION: u32 = 3;

/// Byte length of the fixed header preceding the payload.
const HEADER_LEN: usize = 56;

/// Byte length of one sorted-edge record: `(left u32, right u32, weight f64)`.
const RECORD_LEN: usize = 16;

/// Errors raised by the columnar store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file (or the data handed to a writer) violates the format.
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Format(m) => write!(f, "store format error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError::Format(msg.into()))
}

// ----------------------------------------------------------------------
// FNV-1a 64 — the payload checksum. Hand-rolled because it is tiny,
// stable across platforms, and needs no dependency.
// ----------------------------------------------------------------------

struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ----------------------------------------------------------------------
// Section layout.
// ----------------------------------------------------------------------

/// Byte offsets of the payload sections, all relative to file start.
/// Computed with checked arithmetic so corrupt headers cannot overflow.
struct Layout {
    offsets_at: usize,
    rights_at: usize,
    weights_at: usize,
    bitmap_at: usize,
    dead_right_at: usize,
    /// Start of the sorted edge section.
    sorted_at: usize,
    total_len: usize,
}

fn pad4(count: u64) -> u64 {
    // u32 columns pad to the 8-byte alignment of the next section.
    if count % 2 == 1 {
        4
    } else {
        0
    }
}

fn layout(n_left: u32, n_edges: u64, n_dead_right: u64) -> Option<Layout> {
    let offsets_at = HEADER_LEN as u64;
    let rights_at = offsets_at.checked_add((n_left as u64 + 1).checked_mul(8)?)?;
    let weights_at = rights_at
        .checked_add(n_edges.checked_mul(4)?)?
        .checked_add(pad4(n_edges))?;
    let bitmap_at = weights_at.checked_add(n_edges.checked_mul(8)?)?;
    let words = (n_left as u64).div_ceil(64);
    let dead_right_at = bitmap_at.checked_add(words.checked_mul(8)?)?;
    let sorted_at = dead_right_at
        .checked_add(n_dead_right.checked_mul(4)?)?
        .checked_add(pad4(n_dead_right))?;
    let total_len = sorted_at.checked_add(n_edges.checked_mul(RECORD_LEN as u64)?)?;
    Some(Layout {
        offsets_at: usize::try_from(offsets_at).ok()?,
        rights_at: usize::try_from(rights_at).ok()?,
        weights_at: usize::try_from(weights_at).ok()?,
        bitmap_at: usize::try_from(bitmap_at).ok()?,
        dead_right_at: usize::try_from(dead_right_at).ok()?,
        sorted_at: usize::try_from(sorted_at).ok()?,
        total_len: usize::try_from(total_len).ok()?,
    })
}

/// What a finished write produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMeta {
    /// Live edges written.
    pub n_edges: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

// ----------------------------------------------------------------------
// Writer.
// ----------------------------------------------------------------------

/// A scratch file, removed when dropped — on success and on every error
/// path alike.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Bounded-memory sorter of the sorted edge section: buffers
/// [`edge_sort_key`]s up to `run_len`, writes each full buffer out as a
/// sorted run, and k-way-merges the runs with the resident tail. A write
/// whose edges fit one run never touches disk. The key is lossless, so
/// the merged keys are the sorted edges themselves.
struct RunSorter {
    /// Run file prefix: the temp directory joined with the store's file
    /// name.
    stem: PathBuf,
    run_len: usize,
    buf: Vec<u128>,
    runs: Vec<TempFile>,
}

impl RunSorter {
    fn push(&mut self, key: u128) -> Result<(), StoreError> {
        self.buf.push(key);
        if self.buf.len() >= self.run_len {
            self.buf.sort_unstable();
            let run = TempFile(suffixed(
                &self.stem,
                &format!(".run-{}.tmp", self.runs.len()),
            ));
            let mut out = BufWriter::new(File::create(&run.0)?);
            self.runs.push(run);
            for k in &self.buf {
                out.write_all(&k.to_le_bytes())?;
            }
            out.flush()?;
            self.buf.clear();
        }
        Ok(())
    }

    /// The merged order: every pushed key, ascending.
    fn into_order(mut self) -> Result<RunMerge, StoreError> {
        self.buf.sort_unstable();
        let mut readers = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            readers.push(BufReader::new(File::open(&run.0)?));
        }
        let mut merge = RunMerge {
            heap: BinaryHeap::with_capacity(readers.len() + 1),
            readers,
            tail: self.buf.into_iter(),
            _runs: self.runs,
        };
        for src in 0..=merge.readers.len() {
            if let Some(key) = merge.pop(src)? {
                merge.heap.push(Reverse((key, src)));
            }
        }
        Ok(merge)
    }
}

/// The k-way merge of a [`RunSorter`]'s runs (sources `0..runs`) and its
/// sorted resident tail (source `runs`): one resident key per source.
struct RunMerge {
    readers: Vec<BufReader<File>>,
    tail: std::vec::IntoIter<u128>,
    heap: BinaryHeap<Reverse<(u128, usize)>>,
    /// Kept so the run files live until the merge is done.
    _runs: Vec<TempFile>,
}

impl RunMerge {
    fn pop(&mut self, src: usize) -> Result<Option<u128>, StoreError> {
        let Some(rd) = self.readers.get_mut(src) else {
            return Ok(self.tail.next());
        };
        let mut buf = [0u8; 16];
        match rd.read_exact(&mut buf) {
            Ok(()) => Ok(Some(u128::from_le_bytes(buf))),
            // A run cut short ends early here, and the seal's count check
            // then rejects the short order.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

impl Iterator for RunMerge {
    type Item = Result<u128, StoreError>;

    fn next(&mut self) -> Option<Result<u128, StoreError>> {
        let Reverse((key, src)) = self.heap.pop()?;
        match self.pop(src) {
            Ok(Some(next)) => self.heap.push(Reverse((next, src))),
            Ok(None) => {}
            Err(e) => return Some(Err(e)),
        }
        Some(Ok(key))
    }
}

/// `path` with `suffix` appended to its last component.
fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Streaming writer of the columnar format — the one producer of store
/// files, sorted edge section included.
///
/// Rows must arrive in left-id order, one call per row id `0..n_left`
/// ([`append_row`](Self::append_row) for live rows — possibly empty —
/// and [`append_dead_row`](Self::append_dead_row) for tombstoned ones),
/// with **raw** weights: finite and non-negative, but not yet in
/// `[0, 1]`. [`finish`](Self::finish) seals the file, mapping every raw
/// weight through a caller-given function into the stored one.
///
/// Writer memory is `O(n_left + run_len)` however many edges stream
/// through: the offset column, the tombstone lists and one sort run.
/// Column ids go straight to the final file; raw weights detour through
/// a `.weights.tmp` file in the temp directory, each beside its right
/// id. At finish, the weights are mapped on their way into place and
/// each stored edge — its left id taken from the offset column — enters
/// a sort run of at most `run_len` [`edge_sort_key`]s; full runs go to
/// `.run-<i>.tmp` files in the temp directory and are merged into the
/// sorted edge section. Every temp file is removed when the writer
/// finishes or is dropped; an abandoned writer leaves only the partial
/// store file behind.
pub struct SlabWriter {
    path: PathBuf,
    /// Temp directory joined with the store's file name: the prefix of
    /// every temp file.
    stem: PathBuf,
    run_len: usize,
    out: BufWriter<File>,
    weights: BufWriter<File>,
    /// Kept so the weights temp file goes with the writer.
    _weights_tmp: TempFile,
    n_left: u32,
    n_right: u32,
    offsets: Vec<u64>,
    dead_left: Vec<u32>,
    dead_right: Vec<u32>,
    rows_written: u32,
    n_edges: u64,
}

impl SlabWriter {
    /// Open a writer of a store at `path` for a graph with `n_left` rows
    /// and `n_right` columns, of which the sorted `dead_right` ids are
    /// tombstoned. Appended rows are checked against `dead_right` — the
    /// format forbids slab entries pointing at dead columns. Temp files
    /// go to `tmp_dir`, which must exist; the sorted edge section is
    /// sorted in runs of at most `run_len` entries (16 B each).
    pub fn create(
        path: &Path,
        n_left: u32,
        n_right: u32,
        dead_right: Vec<u32>,
        tmp_dir: &Path,
        run_len: usize,
    ) -> Result<SlabWriter, StoreError> {
        for pair in dead_right.windows(2) {
            if pair[0] >= pair[1] {
                return format_err("dead right ids must be sorted strictly ascending");
            }
        }
        if let Some(&last) = dead_right.last() {
            if last >= n_right {
                return format_err(format!("dead right id {last} out of bounds ({n_right})"));
            }
        }
        let Some(name) = path.file_name() else {
            return format_err(format!("store path {} names no file", path.display()));
        };
        let stem = tmp_dir.join(name);
        // Read access is needed too: `finish` re-reads the payload for
        // the checksum pass.
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut out = BufWriter::new(file);
        // Reserve the header and offset sections with zeros; both are
        // backfilled at finish.
        let reserve = HEADER_LEN + (n_left as usize + 1) * 8;
        let zeros = [0u8; 8192];
        let mut left = reserve;
        while left > 0 {
            let n = left.min(zeros.len());
            out.write_all(&zeros[..n])?;
            left -= n;
        }
        let weights_tmp = TempFile(suffixed(&stem, ".weights.tmp"));
        let weights = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&weights_tmp.0)?;
        Ok(SlabWriter {
            path: path.to_path_buf(),
            stem,
            run_len: run_len.max(1),
            out,
            weights: BufWriter::new(weights),
            _weights_tmp: weights_tmp,
            n_left,
            n_right,
            offsets: vec![0],
            dead_left: Vec::new(),
            dead_right,
            rows_written: 0,
            n_edges: 0,
        })
    }

    /// Append the next live row: `(right id, raw weight)` pairs, right
    /// ids strictly ascending, raw weights finite and non-negative.
    /// Empty rows are fine — a live left entity with no edges.
    pub fn append_row(&mut self, row: &[(u32, f64)]) -> Result<(), StoreError> {
        if self.rows_written == self.n_left {
            return format_err(format!("more than n_left = {} rows appended", self.n_left));
        }
        // Validate the whole row before writing a single byte, so a
        // rejected row leaves the streams untouched.
        let mut prev: Option<u32> = None;
        for &(r, w) in row {
            if r >= self.n_right {
                return format_err(format!("right id {r} out of bounds ({})", self.n_right));
            }
            if prev.is_some_and(|p| p >= r) {
                return format_err("row right ids must be strictly ascending");
            }
            if self.dead_right.binary_search(&r).is_ok() {
                return format_err(format!("edge points at tombstoned right id {r}"));
            }
            if !(w.is_finite() && w >= 0.0) {
                return format_err(format!("raw weight {w} is not finite and non-negative"));
            }
            prev = Some(r);
        }
        for &(r, w) in row {
            self.out.write_all(&r.to_le_bytes())?;
            self.weights.write_all(&r.to_le_bytes())?;
            self.weights.write_all(&w.to_le_bytes())?;
        }
        self.n_edges += row.len() as u64;
        self.offsets.push(self.n_edges);
        self.rows_written += 1;
        Ok(())
    }

    /// Append the next row as a tombstoned left id: no storage, the
    /// liveness bitmap records the dead bit.
    pub fn append_dead_row(&mut self) -> Result<(), StoreError> {
        if self.rows_written == self.n_left {
            return format_err(format!("more than n_left = {} rows appended", self.n_left));
        }
        self.dead_left.push(self.rows_written);
        self.offsets.push(self.n_edges);
        self.rows_written += 1;
        Ok(())
    }

    /// Seal the file: copy the weight column into place, each raw weight
    /// mapped through `map` (a result outside `[0, 1]`, NaN included, is
    /// a [`StoreError::Format`]); write the liveness sections and the
    /// sorted edge section of the mapped weights; backfill offsets and
    /// header; checksum the payload.
    pub fn finish(mut self, map: impl Fn(f64) -> f64) -> Result<StoreMeta, StoreError> {
        let order = self.place_weights(map)?;
        self.seal(order)
    }

    /// Pad the column ids, then copy the weights temp file into place
    /// through `map`, feeding every stored edge to the sorted section's
    /// run sorter; returns the sorted keys.
    fn place_weights(&mut self, map: impl Fn(f64) -> f64) -> Result<RunMerge, StoreError> {
        if self.rows_written != self.n_left {
            return format_err(format!(
                "{} rows appended, n_left = {}",
                self.rows_written, self.n_left
            ));
        }
        if self.n_edges % 2 == 1 {
            self.out.write_all(&[0u8; 4])?;
        }
        self.weights.flush()?;
        let mut raw = BufReader::new(self.weights.get_ref());
        raw.seek(SeekFrom::Start(0))?;
        let mut sorter = RunSorter {
            stem: self.stem.clone(),
            run_len: self.run_len,
            buf: Vec::with_capacity(self.run_len.min(self.n_edges as usize)),
            runs: Vec::new(),
        };
        let mut buf = [0u8; 12];
        for (left, row) in self.offsets.windows(2).enumerate() {
            for _ in row[0]..row[1] {
                raw.read_exact(&mut buf)?;
                let right = u32::from_le_bytes(buf[..4].try_into().unwrap());
                let w = map(f64::from_le_bytes(buf[4..].try_into().unwrap()));
                // NaN and the infinities fail the range test too.
                if !(0.0..=1.0).contains(&w) {
                    return format_err(format!("mapped weight {w} outside [0, 1]"));
                }
                self.out.write_all(&w.to_le_bytes())?;
                sorter.push(edge_sort_key(&Edge::new(left as u32, right, w)))?;
            }
        }
        sorter.into_order()
    }

    /// Write the liveness sections and the sorted edge section, backfill
    /// offsets and header, checksum the payload. `order` must yield the
    /// [`edge_sort_key`] of every slab edge, strictly ascending; the
    /// ascent and the count are checked here, and that the keys name the
    /// slab's edges whenever the file is opened.
    fn seal(
        mut self,
        order: impl IntoIterator<Item = Result<u128, StoreError>>,
    ) -> Result<StoreMeta, StoreError> {
        // Left liveness bitmap, all-live words with dead bits cleared.
        let words = (self.n_left as usize).div_ceil(64);
        let mut bitmap = vec![u64::MAX; words];
        if words > 0 {
            let rem = self.n_left as usize % 64;
            if rem != 0 {
                bitmap[words - 1] = (1u64 << rem) - 1;
            }
        }
        for &d in &self.dead_left {
            bitmap[d as usize / 64] &= !(1u64 << (d as usize % 64));
        }
        for w in &bitmap {
            self.out.write_all(&w.to_le_bytes())?;
        }
        // Dead right ids.
        for &r in &self.dead_right {
            self.out.write_all(&r.to_le_bytes())?;
        }
        if self.dead_right.len() % 2 == 1 {
            self.out.write_all(&[0u8; 4])?;
        }
        // Sorted edge section: the decoded keys, strictly ascending.
        let mut prev: Option<u128> = None;
        let mut written = 0u64;
        for key in order {
            let key = key?;
            if prev.is_some_and(|p| p >= key) {
                return format_err("sorted edges not strictly ascending under edge_sort_key");
            }
            prev = Some(key);
            let e = edge_from_sort_key(key);
            self.out.write_all(&e.left.to_le_bytes())?;
            self.out.write_all(&e.right.to_le_bytes())?;
            self.out.write_all(&e.weight.to_le_bytes())?;
            written += 1;
        }
        if written != self.n_edges {
            return format_err(format!(
                "sorted section lists {written} of {} edges",
                self.n_edges
            ));
        }
        self.out.flush()?;
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;

        // Backfill the offset column.
        file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let mut enc = Vec::with_capacity(self.offsets.len() * 8);
        for &o in &self.offsets {
            enc.extend_from_slice(&o.to_le_bytes());
        }
        file.write_all(&enc)?;

        // Checksum the payload in one buffered pass.
        file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let mut fnv = Fnv1a::new();
        let mut rd = BufReader::new(&file);
        let mut buf = [0u8; 8192];
        loop {
            let n = rd.read(&mut buf)?;
            if n == 0 {
                break;
            }
            fnv.update(&buf[..n]);
        }

        // Backfill the header.
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&self.n_left.to_le_bytes());
        header.extend_from_slice(&self.n_right.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&self.n_edges.to_le_bytes());
        header.extend_from_slice(&(self.dead_left.len() as u64).to_le_bytes());
        header.extend_from_slice(&(self.dead_right.len() as u64).to_le_bytes());
        header.extend_from_slice(&fnv.finish().to_le_bytes());
        debug_assert_eq!(header.len(), HEADER_LEN);
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.sync_all()?;

        let file_bytes = file.metadata()?.len();
        debug_assert_eq!(
            file_bytes,
            layout(self.n_left, self.n_edges, self.dead_right.len() as u64)
                .map(|l| l.total_len as u64)
                .unwrap_or(0),
            "writer output length disagrees with the declared layout of {}",
            self.path.display(),
        );
        Ok(StoreMeta {
            n_edges: self.n_edges,
            file_bytes,
        })
    }
}

/// Persist a [`CsrGraph`] at `path` in the columnar format (sorted edge
/// section included).
///
/// Streams [`CsrGraph::live_row`], so pending deltas are folded on the
/// way out: masked slab entries and the patch never reach the file,
/// while tombstoned ids keep their dead mark. Reading the file back
/// therefore yields the graph in its compacted form — byte-identical to
/// `{ let mut c = csr.clone(); c.compact(); c }`.
pub fn write_csr(csr: &CsrGraph, path: &Path) -> Result<StoreMeta, StoreError> {
    // One sort run holds every edge, so nothing spills; the weights temp
    // file sits beside the output.
    let mut w = SlabWriter::create(
        path,
        csr.n_left(),
        csr.n_right(),
        csr.dead_right().to_vec(),
        path.parent().unwrap_or(Path::new("")),
        csr.n_edges(),
    )?;
    let mut row: Vec<(u32, f64)> = Vec::new();
    for l in 0..csr.n_left() {
        if !csr.is_live_left(l) {
            w.append_dead_row()?;
            continue;
        }
        row.clear();
        row.extend(csr.live_row(l));
        w.append_row(&row)?;
    }
    w.finish(|w| w)
}

// ----------------------------------------------------------------------
// Reader.
// ----------------------------------------------------------------------

/// A read-only [`CsrGraph`] view decoding directly from a file-backed
/// byte map — the store never materializes as heap slabs.
///
/// Opening validates the whole file once (magic, version, declared
/// section lengths against the file length, payload checksum, offset
/// monotonicity, per-row right-id ordering and bounds, liveness
/// consistency, weight range, the sorted section's order and bijection
/// with the slab); every read after that decodes fixed-width
/// little-endian fields straight out of the map. The view mirrors the
/// read surface of [`CsrGraph`] — `n_left` / `n_right` / `n_edges`,
/// [`degree`](Self::degree), [`live_row`](Self::live_row),
/// [`weight_of`](Self::weight_of), [`iter`](Self::iter), liveness
/// queries — and converts to an owned store via [`to_csr`](Self::to_csr).
pub struct MappedCsr {
    map: Mmap,
    n_left: u32,
    n_right: u32,
    n_edges: usize,
    n_dead_left: usize,
    offsets_at: usize,
    rights_at: usize,
    weights_at: usize,
    bitmap_at: usize,
    /// Start of the sorted edge section.
    sorted_at: usize,
    /// Decoded eagerly: tombstones are sparse and binary-searched hot.
    dead_right: Vec<u32>,
}

impl MappedCsr {
    /// Open and fully validate a columnar store file.
    pub fn open(path: &Path) -> Result<MappedCsr, StoreError> {
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        drop(file);
        if map.len() < HEADER_LEN {
            return format_err("truncated: shorter than the fixed header");
        }
        let u32_at = |at: usize| u32::from_le_bytes(map[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(map[at..at + 8].try_into().unwrap());
        if &map[0..8] != MAGIC {
            return format_err("bad magic: not a ccer columnar store");
        }
        let version = u32_at(8);
        if version != VERSION {
            return format_err(format!("unsupported format version {version}"));
        }
        let n_left = u32_at(12);
        let n_right = u32_at(16);
        let n_edges = u64_at(24);
        let n_dead_left = u64_at(32);
        let n_dead_right = u64_at(40);
        let checksum = u64_at(48);

        let Some(lay) = layout(n_left, n_edges, n_dead_right) else {
            return format_err("declared sizes overflow the addressable layout");
        };
        if map.len() != lay.total_len {
            return format_err(format!(
                "file is {} bytes, header declares {}",
                map.len(),
                lay.total_len
            ));
        }
        let mut fnv = Fnv1a::new();
        fnv.update(&map[HEADER_LEN..]);
        if fnv.finish() != checksum {
            return format_err("payload checksum mismatch");
        }
        if n_dead_left > n_left as u64 {
            return format_err("more dead left rows than rows");
        }
        if n_dead_right > n_right as u64 {
            return format_err("more dead right columns than columns");
        }

        // Dead right ids: sorted strictly ascending, in bounds.
        let mut dead_right = Vec::with_capacity(n_dead_right as usize);
        for i in 0..n_dead_right as usize {
            let r = u32_at(lay.dead_right_at + 4 * i);
            if r >= n_right {
                return format_err(format!("dead right id {r} out of bounds ({n_right})"));
            }
            if dead_right.last().is_some_and(|&p| p >= r) {
                return format_err("dead right ids not sorted strictly ascending");
            }
            dead_right.push(r);
        }

        // Liveness bitmap: tail bits clear, popcount matches the header.
        let words = (n_left as usize).div_ceil(64);
        let mut live_bits = 0u64;
        for i in 0..words {
            let w = u64_at(lay.bitmap_at + 8 * i);
            if i == words - 1 {
                let rem = n_left as usize % 64;
                if rem != 0 && w >> rem != 0 {
                    return format_err("liveness bitmap has bits beyond n_left");
                }
            }
            live_bits += w.count_ones() as u64;
        }
        if live_bits != n_left as u64 - n_dead_left {
            return format_err("liveness bitmap disagrees with the dead-row count");
        }

        // Offsets: zero-based, monotone, closing at n_edges; every row
        // right-ascending, in bounds, live, with weights in [0, 1];
        // dead rows stored empty (the format is always folded).
        if u64_at(lay.offsets_at) != 0 {
            return format_err("offset column does not start at 0");
        }
        let mut prev_end = 0u64;
        for l in 0..n_left as usize {
            let s = prev_end;
            let e = u64_at(lay.offsets_at + 8 * (l + 1));
            if e < s || e > n_edges {
                return format_err("offset column is not monotone within bounds");
            }
            prev_end = e;
            let live = u64_at(lay.bitmap_at + 8 * (l / 64)) >> (l % 64) & 1 == 1;
            if !live && e != s {
                return format_err(format!("tombstoned row {l} has slab entries"));
            }
            let mut prev: Option<u32> = None;
            for i in s as usize..e as usize {
                let r = u32_at(lay.rights_at + 4 * i);
                if r >= n_right {
                    return format_err(format!("right id {r} out of bounds ({n_right})"));
                }
                if prev.is_some_and(|p| p >= r) {
                    return format_err(format!("row {l} right ids not strictly ascending"));
                }
                if dead_right.binary_search(&r).is_ok() {
                    return format_err(format!("row {l} points at tombstoned right id {r}"));
                }
                let w = f64::from_le_bytes(map[lay.weights_at + 8 * i..][..8].try_into().unwrap());
                if !(w.is_finite() && (0.0..=1.0).contains(&w)) {
                    return format_err(format!("weight {w} outside [0, 1]"));
                }
                prev = Some(r);
            }
        }
        if prev_end != n_edges {
            return format_err("offset column does not close at n_edges");
        }

        let mapped = MappedCsr {
            map,
            n_left,
            n_right,
            n_edges: n_edges as usize,
            n_dead_left: n_dead_left as usize,
            offsets_at: lay.offsets_at,
            rights_at: lay.rights_at,
            weights_at: lay.weights_at,
            bitmap_at: lay.bitmap_at,
            sorted_at: lay.sorted_at,
            dead_right,
        };

        // Sorted edge section: records whose `edge_sort_key`s strictly
        // ascend, each naming a slab edge of bit-identical weight.
        // Distinct records then name distinct edges (equal ids would need
        // equal weights, hence equal keys), and there are n_edges of
        // them — a bijection with the slab.
        let mut prev: Option<u128> = None;
        for rank in 0..mapped.n_edges {
            let e = mapped.sorted_edge(rank);
            let key = edge_sort_key(&e);
            if prev.is_some_and(|k| k >= key) {
                return format_err(format!(
                    "sorted edge {rank} does not strictly ascend under edge_sort_key"
                ));
            }
            prev = Some(key);
            if mapped.weight_of(e.left, e.right).map(f64::to_bits) != Some(e.weight.to_bits()) {
                return format_err(format!(
                    "sorted edge {rank} ({}, {}, {}) is not a slab edge",
                    e.left, e.right, e.weight
                ));
            }
        }
        Ok(mapped)
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        u64::from_le_bytes(self.map[self.offsets_at + 8 * i..][..8].try_into().unwrap()) as usize
    }

    #[inline]
    fn right_at(&self, i: usize) -> u32 {
        u32::from_le_bytes(self.map[self.rights_at + 4 * i..][..4].try_into().unwrap())
    }

    #[inline]
    fn weight_at(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.map[self.weights_at + 8 * i..][..8].try_into().unwrap())
    }

    /// Weight field of the record at sorted rank `rank` (0 = heaviest),
    /// without decoding the endpoint ids — the probe for threshold
    /// binary searches.
    #[inline]
    fn sorted_weight(&self, rank: usize) -> f64 {
        let at = self.sorted_at + RECORD_LEN * rank + 8;
        f64::from_le_bytes(self.map[at..at + 8].try_into().unwrap())
    }

    /// The edge at sorted rank `rank` in the workspace [`edge_sort_key`]
    /// order (weight descending, ties `(left, right)` ascending): one
    /// 16 B record decoded straight from the map — no search, no
    /// resident edge copy. Panics if `rank` is out of bounds.
    #[inline]
    pub fn sorted_edge(&self, rank: usize) -> Edge {
        assert!(rank < self.n_edges, "sorted rank {rank} out of bounds");
        let r = &self.map[self.sorted_at + RECORD_LEN * rank..][..RECORD_LEN];
        Edge::new(
            u32::from_le_bytes(r[0..4].try_into().unwrap()),
            u32::from_le_bytes(r[4..8].try_into().unwrap()),
            f64::from_le_bytes(r[8..16].try_into().unwrap()),
        )
    }

    /// How many edges have weight strictly above `t` — mirrors
    /// [`SortedEdges::count_above`](crate::graph::SortedEdges::count_above)
    /// bit for bit.
    pub fn sorted_count_above(&self, t: f64) -> usize {
        self.sorted_partition(|w| w > t)
    }

    /// How many edges have weight at least `t` — mirrors
    /// [`SortedEdges::count_at_least`](crate::graph::SortedEdges::count_at_least).
    pub fn sorted_count_at_least(&self, t: f64) -> usize {
        self.sorted_partition(|w| w >= t)
    }

    /// First sorted rank where `pred(weight)` turns false (weights run
    /// descending, so `pred` must be downward-closed).
    fn sorted_partition(&self, pred: impl Fn(f64) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.n_edges);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.sorted_weight(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Number of entities in the left collection (next left append id).
    #[inline]
    pub fn n_left(&self) -> u32 {
        self.n_left
    }

    /// Number of entities in the right collection (next right append id).
    #[inline]
    pub fn n_right(&self) -> u32 {
        self.n_right
    }

    /// Number of live edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Whether the store holds no live edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_edges == 0
    }

    /// Tombstoned left rows.
    #[inline]
    pub fn n_dead_left(&self) -> usize {
        self.n_dead_left
    }

    /// Tombstoned right columns.
    #[inline]
    pub fn n_dead_right(&self) -> usize {
        self.dead_right.len()
    }

    /// Total file size in bytes — the store's footprint, all of it
    /// file-backed rather than heap-resident.
    #[inline]
    pub fn file_bytes(&self) -> usize {
        self.map.len()
    }

    /// Whether left id `left` is in bounds and not tombstoned.
    #[inline]
    pub fn is_live_left(&self, left: u32) -> bool {
        left < self.n_left && {
            let l = left as usize;
            let w = u64::from_le_bytes(
                self.map[self.bitmap_at + 8 * (l / 64)..][..8]
                    .try_into()
                    .unwrap(),
            );
            w >> (l % 64) & 1 == 1
        }
    }

    /// Whether right id `right` is in bounds and not tombstoned.
    #[inline]
    pub fn is_live_right(&self, right: u32) -> bool {
        right < self.n_right && self.dead_right.binary_search(&right).is_err()
    }

    /// Live degree of row `left` (panics if out of bounds, like
    /// [`CsrGraph::degree`]). The stored form is folded, so this is one
    /// offset subtraction.
    #[inline]
    pub fn degree(&self, left: u32) -> usize {
        assert!(left < self.n_left, "left id {left} out of bounds");
        self.offset(left as usize + 1) - self.offset(left as usize)
    }

    /// Row `left`'s live edges as `(right, weight)` pairs, right ids
    /// ascending — tombstoned rows yield nothing (they are stored
    /// empty). Panics if `left` is out of bounds.
    pub fn live_row(&self, left: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        assert!(left < self.n_left, "left id {left} out of bounds");
        let (s, e) = (self.offset(left as usize), self.offset(left as usize + 1));
        (s..e).map(move |i| (self.right_at(i), self.weight_at(i)))
    }

    /// Look up the weight of edge `(left, right)` — one binary search
    /// over the encoded row. Out-of-bounds or tombstoned ids return
    /// `None`, mirroring [`CsrGraph::weight_of`].
    pub fn weight_of(&self, left: u32, right: u32) -> Option<f64> {
        if left >= self.n_left || !self.is_live_left(left) || !self.is_live_right(right) {
            return None;
        }
        let (mut lo, mut hi) = (self.offset(left as usize), self.offset(left as usize + 1));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let r = self.right_at(mid);
            if r == right {
                return Some(self.weight_at(mid));
            }
            if r < right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        None
    }

    /// Iterate all edges in canonical `(left asc, right asc)` order.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n_left).flat_map(move |l| self.live_row(l).map(move |(r, w)| Edge::new(l, r, w)))
    }

    /// Materialize the view as an owned [`CsrGraph`] — the exact store
    /// [`write_csr`] serialized, in folded form (empty patch, masked
    /// entries dropped, tombstoned ids preserved).
    pub fn to_csr(&self) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.n_left as usize + 1);
        for i in 0..=self.n_left as usize {
            offsets.push(self.offset(i));
        }
        let rights: Vec<u32> = (0..self.n_edges).map(|i| self.right_at(i)).collect();
        let weights: Vec<f64> = (0..self.n_edges).map(|i| self.weight_at(i)).collect();
        let dead_left: Vec<u32> = (0..self.n_left)
            .filter(|&l| !self.is_live_left(l))
            .collect();
        CsrGraph::from_raw_parts(
            self.n_left,
            self.n_right,
            offsets,
            rights,
            weights,
            dead_left,
            self.dead_right.clone(),
            self.n_edges,
        )
    }
}

impl std::fmt::Debug for MappedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCsr")
            .field("n_left", &self.n_left)
            .field("n_right", &self.n_right)
            .field("n_edges", &self.n_edges)
            .field("n_dead_left", &self.n_dead_left)
            .field("n_dead_right", &self.dead_right.len())
            .field("file_bytes", &self.map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// A per-thread scratch directory, removed with its contents when
    /// the test passes; a failing test leaves it for inspection.
    struct ScratchDir(PathBuf);

    impl std::ops::Deref for ScratchDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for ScratchDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    fn scratch_dir() -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "ccer-store-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    fn sample_csr() -> CsrGraph {
        let mut b = GraphBuilder::new(3, 4);
        b.add_edge(0, 3, 0.9).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(2, 0, 0.7).unwrap();
        b.add_edge(2, 2, 0.7).unwrap();
        b.add_edge(2, 1, 0.1).unwrap();
        CsrGraph::from_graph(&b.build())
    }

    #[test]
    fn round_trip_is_exact() {
        let dir = scratch_dir();
        let path = dir.join("round.slab");
        let csr = sample_csr();
        let meta = write_csr(&csr, &path).unwrap();
        assert_eq!(meta.n_edges, 5);
        let mapped = MappedCsr::open(&path).unwrap();
        assert_eq!(mapped.n_left(), 3);
        assert_eq!(mapped.n_right(), 4);
        assert_eq!(mapped.n_edges(), 5);
        assert_eq!(mapped.file_bytes() as u64, meta.file_bytes);
        assert_eq!(mapped.to_csr(), csr);
        assert_eq!(mapped.weight_of(2, 2), Some(0.7));
        assert_eq!(mapped.weight_of(1, 0), None);
        assert_eq!(mapped.degree(2), 3);
        let row: Vec<(u32, f64)> = mapped.live_row(0).collect();
        assert_eq!(row, vec![(1, 0.5), (3, 0.9)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tombstones_survive_and_storage_folds() {
        let dir = scratch_dir();
        let path = dir.join("tomb.slab");
        let mut csr = sample_csr();
        csr.remove_left(0).unwrap();
        csr.remove_right(1).unwrap();
        csr.insert_right(&[(2, 0.65)]).unwrap();
        write_csr(&csr, &path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        assert!(!mapped.is_live_left(0));
        assert!(!mapped.is_live_right(1));
        assert!(mapped.is_live_right(4));
        assert_eq!(mapped.n_edges(), csr.n_edges(), "patch folded on write");
        assert_eq!(mapped.weight_of(2, 4), Some(0.65));
        let mut folded = csr.clone();
        folded.compact();
        assert_eq!(mapped.to_csr(), folded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_bad_rows() {
        let dir = scratch_dir();
        let path = dir.join("reject.slab");
        let mut w = SlabWriter::create(&path, 2, 3, vec![1], &dir, 16).unwrap();
        assert!(matches!(
            w.append_row(&[(3, 0.5)]),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            w.append_row(&[(0, 0.5), (0, 0.6)]),
            Err(StoreError::Format(_))
        ));
        assert!(matches!(
            w.append_row(&[(1, 0.5)]),
            Err(StoreError::Format(_)),
        ));
        // Raw weights need only be finite and non-negative.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert!(
                matches!(w.append_row(&[(0, bad)]), Err(StoreError::Format(_))),
                "raw weight {bad}"
            );
        }
        w.append_row(&[(0, 1.5)]).unwrap();
        w.append_row(&[]).unwrap();
        assert!(matches!(w.append_row(&[]), Err(StoreError::Format(_))));
        w.finish(|w| w / 2.0).unwrap();
        assert_eq!(MappedCsr::open(&path).unwrap().weight_of(0, 0), Some(0.75));
        std::fs::remove_file(&path).ok();
        let short = SlabWriter::create(&path, 2, 3, vec![], &dir, 16).unwrap();
        assert!(matches!(short.finish(|w| w), Err(StoreError::Format(_))));
        std::fs::remove_file(&path).ok();
        assert!(
            !dir.join("reject.slab.weights.tmp").exists(),
            "the weights temp file goes with the writer"
        );
    }

    #[test]
    fn finish_rejects_mapped_weights_outside_the_unit_range() {
        let dir = scratch_dir();
        let path = dir.join("mapped.slab");
        let maps: [fn(f64) -> f64; 4] =
            [|_| f64::NAN, |w| w + 1.0, |w| -w - 0.25, |_| f64::INFINITY];
        for map in maps {
            let mut w = SlabWriter::create(&path, 1, 2, vec![], &dir, 1).unwrap();
            w.append_row(&[(0, 0.5), (1, 0.25)]).unwrap();
            assert!(matches!(w.finish(map), Err(StoreError::Format(_))));
        }
        std::fs::remove_file(&path).ok();
        assert!(
            std::fs::read_dir(&dir).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("mapped.slab.")),
            "a failed finish leaves no temp file"
        );
    }

    #[test]
    fn sorted_edge_section_round_trips() {
        let dir = scratch_dir();
        let path = dir.join("sorted.slab");
        let csr = sample_csr();
        write_csr(&csr, &path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        let mut expect: Vec<Edge> = mapped.iter().collect();
        expect.sort_unstable_by_key(edge_sort_key);
        let got: Vec<Edge> = (0..mapped.n_edges())
            .map(|i| mapped.sorted_edge(i))
            .collect();
        assert_eq!(got, expect);
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(mapped.sorted_weight(i), e.weight);
        }
        assert_eq!(mapped.sorted_count_above(0.7), 1);
        assert_eq!(mapped.sorted_count_at_least(0.7), 3);
        assert_eq!(mapped.sorted_count_above(1.0), 0);
        assert_eq!(mapped.sorted_count_at_least(0.0), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_1_and_2_headers_are_format_errors() {
        let dir = scratch_dir();
        let path = dir.join("old.slab");
        write_csr(&sample_csr(), &path).unwrap();
        let current = std::fs::read(&path).unwrap();
        for version in [1u32, 2] {
            let mut bytes = current.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(MappedCsr::open(&path), Err(StoreError::Format(_))),
                "version {version}"
            );
        }
    }

    #[test]
    fn seal_validates_the_order() {
        let dir = scratch_dir();
        let rows: &[&[(u32, f64)]] = &[&[(1, 0.5), (3, 0.9)], &[], &[(0, 0.7)]];
        let write = |name: &str| -> SlabWriter {
            let mut w = SlabWriter::create(&dir.join(name), 3, 4, vec![], &dir, 8).unwrap();
            for row in rows {
                w.append_row(row).unwrap();
            }
            w.place_weights(|w| w).unwrap();
            w
        };
        let key = |l, r, w| edge_sort_key(&Edge::new(l, r, w));
        let (a, b, c) = (key(0, 3, 0.9), key(2, 0, 0.7), key(0, 1, 0.5));
        // Repeated, descending and short orders are rejected.
        for (name, order) in [
            ("b", vec![a, b, b]),
            ("c", vec![a, c, b]),
            ("d", vec![a, b]),
        ] {
            assert!(
                matches!(
                    write(&format!("{name}.slab")).seal(order.into_iter().map(Ok)),
                    Err(StoreError::Format(_))
                ),
                "{name}"
            );
        }
        // That the keys are the slab's edges is enforced at open: an
        // ascending set naming another edge fails validation there.
        write("e.slab")
            .seal([a, b, key(0, 1, 0.25)].map(Ok))
            .unwrap();
        assert!(matches!(
            MappedCsr::open(&dir.join("e.slab")),
            Err(StoreError::Format(_))
        ));
        // The slab's edges in edge_sort_key order round-trip.
        write("f.slab").seal([a, b, c].map(Ok)).unwrap();
        let mapped = MappedCsr::open(&dir.join("f.slab")).unwrap();
        assert_eq!(mapped.sorted_edge(0), Edge::new(0, 3, 0.9));
        assert_eq!(mapped.sorted_edge(1), Edge::new(2, 0, 0.7));
        assert_eq!(mapped.sorted_edge(2), Edge::new(0, 1, 0.5));
    }

    #[test]
    fn several_sort_runs_write_the_bytes_of_one_run() {
        let dir = scratch_dir();
        let mut b = GraphBuilder::new(40, 30);
        for l in 0..40u32 {
            for r in (l % 3..30).step_by(4) {
                // Coarse weights, so many ties cross run boundaries.
                b.add_edge(l, r, f64::from((l * 7 + r * 13) % 5) / 4.0)
                    .unwrap();
            }
        }
        let csr = CsrGraph::from_graph(&b.build());
        write_csr(&csr, &dir.join("one-run.slab")).unwrap();
        let want = std::fs::read(dir.join("one-run.slab")).unwrap();
        for run_len in [1, 2, 7, csr.n_edges() - 1] {
            let path = dir.join("runs.slab");
            let mut w = SlabWriter::create(&path, 40, 30, vec![], &dir, run_len).unwrap();
            let mut row = Vec::new();
            for l in 0..40 {
                row.clear();
                row.extend(csr.live_row(l));
                w.append_row(&row).unwrap();
            }
            w.finish(|w| w).unwrap();
            assert!(std::fs::read(&path).unwrap() == want, "run_len {run_len}");
        }
        std::fs::remove_file(dir.join("one-run.slab")).ok();
        std::fs::remove_file(dir.join("runs.slab")).ok();
    }

    #[test]
    fn fnv_vector() {
        // Reference vectors for FNV-1a 64.
        let mut h = Fnv1a::new();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
