//! Property tests for the **mmap-native sweep path**: matching directly
//! over a file-backed [`er_core::MappedCsr`] without hydrating edge
//! copies into RAM (`PreparedGraph::from_mapped`).
//!
//! Invariants:
//! 1. **bit identity**: for arbitrary graphs, every one of the eight
//!    algorithms — run fresh and stepped through its incremental
//!    matcher —
//!    produces the *identical* matching over the mapped store as over
//!    the resident graph, at every threshold of the paper's grid;
//! 2. **zero edge copies**: the store persists its sorted edges, so
//!    the prepared graph reports `resident_edge_copies() == 0` until an
//!    adjacency-consuming algorithm materializes its CSR — the
//!    weight-descending sweep itself reads the file;
//! 3. **concurrent readers**: one `MappedCsr` serves simultaneous
//!    sweeps from multiple threads (the mmap read surface is `Sync`),
//!    each bit-identical to the resident reference.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use er_core::{write_csr, CsrGraph, GraphBuilder, MappedCsr, SimilarityGraph, ThresholdGrid};
use er_matchers::bah::BahConfig;
use er_matchers::{AlgorithmConfig, AlgorithmKind, PreparedGraph};
use proptest::prelude::*;

static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

/// A store path in a fresh scratch directory (proptest shrinks re-enter
/// the test body, so every invocation gets its own). The test removes the
/// directory with [`remove_scratch`] once it passes; a failing test
/// leaves it, and its captured output names it.
fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ccer-mapped-sweep-{}-{}",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    eprintln!("scratch directory {}", dir.display());
    dir.join(format!("{tag}.slab"))
}

/// Remove a passing test's scratch directory.
fn remove_scratch(file: &Path) {
    std::fs::remove_dir_all(file.parent().expect("a scratch file has a directory")).unwrap();
}

fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..12, 1u32..12).prop_flat_map(|(nl, nr)| {
        proptest::collection::btree_map((0..nl, 0..nr), 0.0f64..=1.0, 0..40).prop_map(
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

/// A config with a bounded BAH search budget, so the full
/// 8-algorithm × 20-threshold sweep stays fast under proptest.
fn config() -> AlgorithmConfig {
    AlgorithmConfig {
        bah: BahConfig {
            max_moves: 300,
            ..BahConfig::default()
        },
        ..AlgorithmConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariants 1-2: all eight algorithms, fresh and swept, across the
    /// full paper grid, over the mmap-native store.
    #[test]
    fn mapped_sweeps_are_bit_identical_to_resident(g in arb_graph()) {
        let csr = CsrGraph::from_graph(&g);
        let store = scratch_file("store");
        write_csr(&csr, &store).unwrap();
        let m2 = MappedCsr::open(&store).unwrap();

        let pg_ram = PreparedGraph::new(&g);
        let pg_map = PreparedGraph::from_mapped(&m2);
        // Invariant 2: the mapped path holds no edge copies up front.
        prop_assert_eq!(pg_map.resident_edge_copies(), 0);

        let cfg = config();
        let grid = ThresholdGrid::paper();
        for kind in AlgorithmKind::ALL {
            let matcher = cfg.build(kind);
            let mut sw_map = cfg.delta_matcher(kind);
            for t in grid.values_desc() {
                let want = matcher.run(&pg_ram, t);
                let got_map = matcher.run(&pg_map, t);
                prop_assert_eq!(
                    &got_map, &want,
                    "{} fresh diverged at t={} on the mmap-native path", kind, t
                );
                sw_map.step(&pg_map, t);
                let swept_map = sw_map.matching();
                prop_assert_eq!(
                    &swept_map, &want,
                    "{} sweeper diverged at t={} on the mmap-native path", kind, t
                );
            }
        }
        // Invariant 2 after a sweep: UMC consumes only the weight-descending
        // prefix, so a full sweep over a fresh mapped prepare still holds
        // no edge copy.
        let pg_umc = PreparedGraph::from_mapped(&m2);
        let mut sw_umc = cfg.delta_matcher(AlgorithmKind::Umc);
        for t in grid.values_desc() {
            sw_umc.step(&pg_umc, t);
        }
        prop_assert_eq!(pg_umc.resident_edge_copies(), 0, "the UMC sweep copied edges");
        remove_scratch(&store);
    }
}

/// Invariant 3: two threads sweep one shared `MappedCsr` concurrently;
/// both reproduce the resident reference exactly.
#[test]
fn concurrent_readers_share_one_mapped_store() {
    let mut b = GraphBuilder::new(8, 8);
    // A dense-ish deterministic graph with weight ties to exercise the
    // tie-break order under concurrency.
    for l in 0..8u32 {
        for r in 0..8u32 {
            if (l + 2 * r) % 3 != 0 {
                let w = f64::from((l * 7 + r * 3) % 11) / 11.0;
                b.add_edge(l, r, w).unwrap();
            }
        }
    }
    let g = b.build();
    let csr = CsrGraph::from_graph(&g);
    let path = scratch_file("concurrent");
    write_csr(&csr, &path).unwrap();
    let mapped = MappedCsr::open(&path).unwrap();

    let cfg = config();
    let grid = ThresholdGrid::paper();
    let pg_ram = PreparedGraph::new(&g);
    let reference: Vec<_> = AlgorithmKind::ALL
        .into_iter()
        .map(|kind| {
            let matcher = cfg.build(kind);
            let runs: Vec<_> = grid
                .values_desc()
                .map(|t| matcher.run(&pg_ram, t))
                .collect();
            (kind, runs)
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..2 {
            let mapped = &mapped;
            let reference = &reference;
            let cfg = &cfg;
            let grid = &grid;
            scope.spawn(move || {
                // Each thread prepares its own view over the SAME mmap.
                let pg = PreparedGraph::from_mapped(mapped);
                assert_eq!(pg.resident_edge_copies(), 0);
                for (kind, want) in reference {
                    let matcher = cfg.build(*kind);
                    for (t, w) in grid.values_desc().zip(want) {
                        assert_eq!(
                            &matcher.run(&pg, t),
                            w,
                            "worker {worker}: {kind} diverged at t={t}"
                        );
                    }
                }
            });
        }
    });
    remove_scratch(&path);
}
