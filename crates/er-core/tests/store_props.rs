//! Property and edge-case tests for the columnar on-disk store
//! (`er_core::store`).
//!
//! Invariants:
//! 1. **round trip**: `write_csr` → `MappedCsr::open` → `to_csr` equals
//!    the compacted source graph for arbitrary graphs with arbitrary
//!    tombstone patterns, bit for bit (weights compared by bits), with
//!    liveness, degrees and point lookups agreeing on every id;
//! 2. **edge cases** are first-class: empty rows, all-tombstoned rows,
//!    zero-edge and zero-node graphs, and column ids at the top of the
//!    `u32` range all round-trip;
//! 3. **corruption is an error, never a panic**: bad magic, unknown
//!    version, truncation at any boundary, header fields that disagree
//!    with the file length (including overflow-inducing ones), and
//!    payload bit flips are all rejected by `MappedCsr::open`;
//! 4. **the version-3 sorted edge section is validated, not trusted**:
//!    truncating the file at the section's boundary, flipping its bits,
//!    or rewriting it (checksum re-fixed) into out-of-range ids,
//!    repeated records, orders that are not `edge_sort_key` order,
//!    weights that differ from the slab's, or edges the slab lacks are
//!    all `StoreError::Format`, never a panic;
//! 5. **versions 1 and 2 are rejected**: a version-1 file (no sorted
//!    section) and a version-2 file (a permutation column in its place)
//!    are a `StoreError::Format` at open, never a panic;
//! 6. **bounded sort runs change no byte**: a `SlabWriter` fed raw
//!    weights and sorting its sorted edge section in runs of any length
//!    writes the bytes `write_csr` writes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use er_core::{write_csr, CsrGraph, GraphBuilder, MappedCsr, SimilarityGraph, SlabWriter};
use proptest::prelude::*;

static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

/// A scratch file path in a directory of its own, which goes with the
/// guard when the test passes; a failing test leaves it for inspection.
struct ScratchFile {
    dir: PathBuf,
    path: PathBuf,
}

impl std::ops::Deref for ScratchFile {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for ScratchFile {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// A fresh scratch file; proptest shrinks re-enter the test body, so
/// every invocation gets its own.
fn scratch_file(tag: &str) -> ScratchFile {
    let dir = std::env::temp_dir().join(format!(
        "ccer-store-props-{}-{}",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.slab"));
    ScratchFile { dir, path }
}

fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..16, 1u32..16).prop_flat_map(|(nl, nr)| {
        proptest::collection::btree_map((0..nl, 0..nr), 0.0f64..=1.0, 0..48).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(nl, nr);
                for ((l, r), w) in edges {
                    b.add_edge(l, r, w).unwrap();
                }
                b.build()
            },
        )
    })
}

/// Assert the full read-side surface of `mapped` agrees with `csr`.
fn assert_mapped_agrees(mapped: &MappedCsr, csr: &CsrGraph) {
    let mut folded = csr.clone();
    folded.compact();
    assert_eq!(&mapped.to_csr(), &folded, "round trip equals compaction");
    assert_eq!(mapped.n_left(), csr.n_left());
    assert_eq!(mapped.n_right(), csr.n_right());
    assert_eq!(mapped.n_edges(), csr.n_edges());
    for l in 0..csr.n_left() {
        assert_eq!(mapped.is_live_left(l), csr.is_live_left(l), "left {l}");
        if csr.is_live_left(l) {
            let want: Vec<(u32, f64)> = csr.live_row(l).collect();
            assert_eq!(mapped.degree(l), want.len(), "degree of {l}");
            let got: Vec<(u32, f64)> = mapped.live_row(l).collect();
            assert_eq!(got.len(), want.len());
            for ((gr, gw), (wr, ww)) in got.iter().zip(&want) {
                assert_eq!(gr, wr);
                assert_eq!(gw.to_bits(), ww.to_bits(), "weight bits of ({l}, {wr})");
            }
        } else {
            assert_eq!(mapped.degree(l), 0, "dead row {l} reads empty");
        }
    }
    for r in 0..csr.n_right() {
        assert_eq!(mapped.is_live_right(r), csr.is_live_right(r), "right {r}");
    }
    for e in csr.iter() {
        assert_eq!(
            mapped.weight_of(e.left, e.right).map(f64::to_bits),
            Some(e.weight.to_bits()),
            "lookup ({}, {})",
            e.left,
            e.right
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Invariant 1: arbitrary graph, arbitrary delete pattern — the file
    /// reads back as the compacted graph, across the whole read surface.
    #[test]
    fn round_trip_equals_compacted_source(
        g in arb_graph(),
        dead_left in proptest::collection::vec(0u32..16, 0..5),
        dead_right in proptest::collection::vec(0u32..16, 0..5),
    ) {
        let mut csr = CsrGraph::from_graph(&g);
        for l in dead_left {
            if l < csr.n_left() && csr.is_live_left(l) {
                csr.remove_left(l).unwrap();
            }
        }
        for r in dead_right {
            if r < csr.n_right() && csr.is_live_right(r) {
                csr.remove_right(r).unwrap();
            }
        }
        let path = scratch_file("prop");
        let meta = write_csr(&csr, &path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        prop_assert_eq!(meta.n_edges as usize, csr.n_edges());
        prop_assert_eq!(meta.file_bytes as usize, mapped.file_bytes());
        assert_mapped_agrees(&mapped, &csr);
    }

    /// Invariant 6: rows of raw weights at twice the stored ones, mapped
    /// back at seal (`x / 2.0` undoes `w * 2.0` exactly), in sort runs
    /// of any length — one entry per run up to one run for all — write
    /// `write_csr`'s bytes.
    #[test]
    fn sort_runs_and_the_seal_map_write_write_csr_bytes(
        g in arb_graph(),
        dead_left in proptest::collection::vec(0u32..16, 0..3),
        run_len in 1usize..=50,
    ) {
        let mut csr = CsrGraph::from_graph(&g);
        for l in dead_left {
            if l < csr.n_left() && csr.is_live_left(l) {
                csr.remove_left(l).unwrap();
            }
        }
        let want_path = scratch_file("runs-want");
        write_csr(&csr, &want_path).unwrap();
        let path = scratch_file("runs");
        let mut w =
            SlabWriter::create(&path, csr.n_left(), csr.n_right(), vec![], path.parent().unwrap(), run_len)
                .unwrap();
        for l in 0..csr.n_left() {
            if csr.is_live_left(l) {
                let raw: Vec<(u32, f64)> = csr.live_row(l).map(|(r, w)| (r, w * 2.0)).collect();
                w.append_row(&raw).unwrap();
            } else {
                w.append_dead_row().unwrap();
            }
        }
        w.finish(|x| x / 2.0).unwrap();
        prop_assert!(std::fs::read(&path).unwrap() == std::fs::read(&want_path).unwrap());
    }
}

#[test]
fn empty_rows_round_trip() {
    // Live left entities with no edges at all — offsets repeat.
    let mut b = GraphBuilder::new(5, 3);
    b.add_edge(1, 0, 0.5).unwrap();
    b.add_edge(1, 2, 0.25).unwrap();
    b.add_edge(3, 1, 1.0).unwrap();
    let csr = CsrGraph::from_graph(&b.build());
    let path = scratch_file("empty-rows");
    write_csr(&csr, &path).unwrap();
    let mapped = MappedCsr::open(&path).unwrap();
    assert_eq!(mapped.degree(0), 0);
    assert_eq!(mapped.degree(2), 0);
    assert_eq!(mapped.degree(4), 0);
    assert!(mapped.is_live_left(0), "empty is not dead");
    assert_mapped_agrees(&mapped, &csr);
}

#[test]
fn all_rows_tombstoned_round_trip() {
    let mut b = GraphBuilder::new(4, 4);
    for i in 0..4 {
        b.add_edge(i, i, 0.75).unwrap();
    }
    let mut csr = CsrGraph::from_graph(&b.build());
    for i in 0..4 {
        csr.remove_left(i).unwrap();
    }
    let path = scratch_file("all-dead");
    let meta = write_csr(&csr, &path).unwrap();
    assert_eq!(meta.n_edges, 0, "no live edge reaches the file");
    let mapped = MappedCsr::open(&path).unwrap();
    assert_eq!(mapped.n_left(), 4, "dead ids keep their id space");
    assert_eq!(mapped.n_dead_left(), 4);
    assert!((0..4).all(|l| !mapped.is_live_left(l)));
    assert_mapped_agrees(&mapped, &csr);
}

#[test]
fn zero_edge_and_zero_node_graphs_round_trip() {
    for (nl, nr) in [(4u32, 3u32), (0, 0), (0, 7), (6, 0)] {
        let csr = CsrGraph::from_graph(&GraphBuilder::new(nl, nr).build());
        let path = scratch_file("zero");
        write_csr(&csr, &path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        assert_eq!(mapped.n_edges(), 0, "{nl}x{nr}");
        assert!(mapped.is_empty());
        assert_mapped_agrees(&mapped, &csr);
    }
}

#[test]
fn max_u32_column_ids_round_trip() {
    // The dead-right section is a sorted id list precisely so the column
    // space can span all of u32; the writer must accept ids at the top.
    let top = u32::MAX - 1;
    let path = scratch_file("max-col");
    let mut w = SlabWriter::create(
        &path,
        3,
        u32::MAX,
        vec![7, u32::MAX - 2],
        path.parent().unwrap(),
        3,
    )
    .unwrap();
    w.append_row(&[(0, 0.5), (top, 1.0)]).unwrap();
    w.append_dead_row().unwrap();
    w.append_row(&[(top, 0.125)]).unwrap();
    let meta = w.finish(|w| w).unwrap();
    assert_eq!(meta.n_edges, 3);
    let mapped = MappedCsr::open(&path).unwrap();
    assert_eq!(mapped.n_right(), u32::MAX);
    assert_eq!(mapped.weight_of(0, top), Some(1.0));
    assert_eq!(mapped.weight_of(2, top), Some(0.125));
    assert!(!mapped.is_live_right(7));
    assert!(!mapped.is_live_right(u32::MAX - 2));
    assert!(mapped.is_live_right(top));
    assert_eq!(mapped.weight_of(0, 7), None, "dead column answers nothing");
}

/// Write a valid store once, then re-open arbitrarily mutated copies.
/// Every mutation must yield `Err`, never a panic.
#[test]
fn corrupted_files_are_rejected_not_panicked_on() {
    let mut b = GraphBuilder::new(3, 3);
    b.add_edge(0, 1, 0.5).unwrap();
    b.add_edge(1, 0, 0.25).unwrap();
    b.add_edge(2, 2, 1.0).unwrap();
    let mut csr = CsrGraph::from_graph(&b.build());
    csr.remove_right(0).unwrap();
    let path = scratch_file("corrupt-base");
    write_csr(&csr, &path).unwrap();
    let base = std::fs::read(&path).unwrap();

    let open_mutated = |mutate: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = base.clone();
        mutate(&mut bytes);
        let p = scratch_file("corrupt");
        std::fs::write(&p, &bytes).unwrap();
        MappedCsr::open(&p)
    };

    // Pristine copy sanity check.
    assert!(open_mutated(&|_| {}).is_ok());

    // Bad magic.
    assert!(open_mutated(&|b| b[0] ^= 0xFF).is_err());
    // Unknown version.
    assert!(open_mutated(&|b| b[8..12].copy_from_slice(&9u32.to_le_bytes())).is_err());
    // Truncation at every prefix boundary class: empty, mid-magic,
    // one-short-of-header, header-only, one-short-of-payload.
    for len in [0usize, 5, 55, 56, base.len() - 1] {
        assert!(
            open_mutated(&|b| b.truncate(len)).is_err(),
            "truncated to {len} bytes must be rejected"
        );
    }
    // Header claims an edge count the file cannot hold.
    assert!(open_mutated(&|b| b[24..32].copy_from_slice(&1_000u64.to_le_bytes())).is_err());
    // Header edge count large enough to overflow naive layout math.
    assert!(open_mutated(&|b| b[24..32].copy_from_slice(&u64::MAX.to_le_bytes())).is_err());
    // Header row count disagrees with the offset section.
    assert!(open_mutated(&|b| b[12..16].copy_from_slice(&2_000_000u32.to_le_bytes())).is_err());
    // Dead-right count overruns the file.
    assert!(open_mutated(&|b| b[40..48].copy_from_slice(&77u64.to_le_bytes())).is_err());
    // A payload bit flip fails the checksum.
    let payload_byte = base.len() - 3;
    assert!(open_mutated(&|b| b[payload_byte] ^= 0x10).is_err());
    // Every byte of the header flipped one at a time: never a panic.
    for i in 0..56 {
        let _ = open_mutated(&|b| b[i] ^= 0xA5);
    }
}

/// The test's own FNV-1a 64 (the store's checksum function), so the
/// sorted-section fuzz below can hand `open` *checksum-consistent* files
/// — exercising the semantic validation, not just the checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Satellite fuzz for the v3 sorted edge section: every way the section
/// can lie — missing bytes, flipped bits, out-of-range ids, repeated
/// records, wrong order, a weight or an edge the slab does not hold —
/// must be a `Format` error, never a panic.
#[test]
fn sorted_edge_section_corruption_is_rejected_not_panicked_on() {
    // Two live edges: (0, 1, 0.5) and (2, 2, 1.0); (1, 0, 0.25) goes with
    // its dead column. The section is therefore the records
    // (2, 2, 1.0), (0, 1, 0.5) — 32 trailing bytes.
    let mut b = GraphBuilder::new(3, 3);
    b.add_edge(0, 1, 0.5).unwrap();
    b.add_edge(1, 0, 0.25).unwrap();
    b.add_edge(2, 2, 1.0).unwrap();
    let mut csr = CsrGraph::from_graph(&b.build());
    csr.remove_right(0).unwrap();
    assert_eq!(csr.n_edges(), 2);
    let path = scratch_file("sorted-base");
    write_csr(&csr, &path).unwrap();
    let base = std::fs::read(&path).unwrap();
    let sorted_at = base.len() - 32;

    let open_mutated = |mutate: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = base.clone();
        mutate(&mut bytes);
        let p = scratch_file("sorted-fuzz");
        std::fs::write(&p, &bytes).unwrap();
        MappedCsr::open(&p)
    };
    // Rewrite the two records and re-fix the checksum, so only the
    // semantic validation can object.
    let with_records = |a: (u32, u32, f64), bb: (u32, u32, f64)| {
        move |bytes: &mut Vec<u8>| {
            for (i, (l, r, w)) in [a, bb].into_iter().enumerate() {
                let at = sorted_at + 16 * i;
                bytes[at..at + 4].copy_from_slice(&l.to_le_bytes());
                bytes[at + 4..at + 8].copy_from_slice(&r.to_le_bytes());
                bytes[at + 8..at + 16].copy_from_slice(&w.to_le_bytes());
            }
            let sum = fnv1a64(&bytes[56..]);
            bytes[48..56].copy_from_slice(&sum.to_le_bytes());
        }
    };
    let is_format = |r: Result<MappedCsr, er_core::StoreError>| matches!(r, Err(er_core::StoreError::Format(msg)) if !msg.is_empty());

    open_mutated(&|_| {}).expect("pristine v3 file opens");

    // Checksum-fixing round-trip sanity: rewriting the *correct* records
    // through the mutator must still open.
    assert!(open_mutated(&with_records((2, 2, 1.0), (0, 1, 0.5))).is_ok());

    // Truncation exactly at (and within) the section boundary.
    assert!(open_mutated(&|b| b.truncate(sorted_at)).is_err());
    assert!(open_mutated(&|b| b.truncate(sorted_at + 16)).is_err());
    // Bit flip inside the section fails the checksum.
    assert!(open_mutated(&|b| b[sorted_at] ^= 0x01).is_err());
    // Out-of-range left and right ids (checksum consistent).
    assert!(is_format(open_mutated(&with_records(
        (7, 2, 1.0),
        (0, 1, 0.5)
    ))));
    assert!(is_format(open_mutated(&with_records(
        (u32::MAX, 2, 1.0),
        (0, 1, 0.5)
    ))));
    assert!(is_format(open_mutated(&with_records(
        (2, 2, 1.0),
        (0, 9, 0.5)
    ))));
    // A repeated record.
    assert!(is_format(open_mutated(&with_records(
        (2, 2, 1.0),
        (2, 2, 1.0)
    ))));
    assert!(is_format(open_mutated(&with_records(
        (0, 1, 0.5),
        (0, 1, 0.5)
    ))));
    // The valid set in the wrong (weight-ascending) order.
    assert!(is_format(open_mutated(&with_records(
        (0, 1, 0.5),
        (2, 2, 1.0)
    ))));
    // A record whose weight differs from its slab entry.
    assert!(is_format(open_mutated(&with_records(
        (2, 2, 0.75),
        (0, 1, 0.5)
    ))));
    assert!(is_format(open_mutated(&with_records(
        (2, 2, 1.0),
        (0, 1, 0.25)
    ))));
    // A record naming an (l, r) the slab does not hold — the edge that
    // went with its dead column included.
    assert!(is_format(open_mutated(&with_records(
        (2, 2, 1.0),
        (1, 1, 0.5)
    ))));
    assert!(is_format(open_mutated(&with_records(
        (2, 2, 1.0),
        (1, 0, 0.25)
    ))));
    // Every byte of the section flipped one at a time: never a panic.
    for i in sorted_at..base.len() {
        let _ = open_mutated(&|b| b[i] ^= 0xA5);
    }
}

/// Open `bytes` as a store: a `Format` error with a message, never a
/// panic — and every truncation of it an error too.
fn assert_rejected_as_format_error(bytes: &[u8]) {
    let open_bytes = |bytes: &[u8]| {
        let p = scratch_file("old");
        std::fs::write(&p, bytes).unwrap();
        MappedCsr::open(&p)
    };
    match open_bytes(bytes) {
        Err(er_core::StoreError::Format(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected Format error, got {other:?}"),
    }
    for len in 0..bytes.len() {
        assert!(open_bytes(&bytes[..len]).is_err(), "truncated at {len}");
    }
}

/// A version-1 file as the last writer of that format emitted it: the
/// 4×4 graph `(0, 3, 0.75)`, `(1, 1, 0.5)`, `(3, 0, 1.0)` in the layout
/// without the sort-order column (header, offsets, column ids, weights,
/// liveness bitmap; no dead right ids).
const V1_FILE: [u8; 144] = [
    0x43, 0x43, 0x45, 0x52, 0x53, 0x4c, 0x41, 0x42, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x3f, 0x4b, 0xa1, 0xfa, 0x9d, 0xe7, 0xfe, 0x4b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Version 1 is no longer read: opening a genuine v1 file is a
/// `StoreError::Format`, never a panic — and so is every truncation of
/// it.
#[test]
fn v1_files_are_rejected_as_format_errors() {
    assert_rejected_as_format_error(&V1_FILE);
}

/// The same graph as a version-2 file, as the last writer of that format
/// emitted it: the v1 layout plus the u32 sort-order permutation
/// `[2, 0, 1]` and its padding word.
const V2_FILE: [u8; 160] = [
    0x43, 0x43, 0x45, 0x52, 0x53, 0x4c, 0x41, 0x42, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x5c, 0x88, 0x13, 0x6a, 0x0b, 0x28, 0xb9, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Version 2 is no longer read either: a genuine v2 file is a
/// `StoreError::Format`, never a panic, as is every truncation of it.
#[test]
fn v2_files_are_rejected_as_format_errors() {
    assert_rejected_as_format_error(&V2_FILE);
}
