//! Extension experiment: the resident service under concurrent traffic.
//!
//! Two portraits of the PR's delta-incremental stack:
//!
//! 1. **Load test** — an [`ErService`] (resident scorer + CSR store +
//!    incremental UMC) behind a `parking_lot::RwLock`, with reader
//!    threads issuing point neighbor queries against live ids while a
//!    writer thread interleaves record inserts and deletes (each update
//!    re-scoring the record through the candidate indexes, applying the
//!    delta and repairing the matching). Reported as p50/p99/max latency
//!    per operation class. On the 1-vCPU reference machine the threads
//!    time-slice rather than run in parallel — the numbers portray
//!    lock-and-repair cost under contention, not scaling.
//!
//! 2. **Incremental vs. re-match** — the same delta stream applied to
//!    UMC two ways on a synthetic graph of ≥100k edges: the
//!    [`UmcDelta`](er_matchers::UmcDelta) cascade repair versus a full
//!    `PreparedGraph::from_csr` + `Matcher::run` after every delta, with
//!    the matchings asserted equal step by step. This is the acceptance
//!    measurement that incremental maintenance beats re-matching at
//!    scale; the baseline numbers live in `docs/BENCH_BASELINE.md`.
//!
//! `smoke` shrinks both portraits to the CI configuration (seconds, not
//! minutes) while keeping every assertion live.

use std::time::Instant;

use crossbeam::thread;
use er_core::{CsrGraph, GraphBuilder, RowDelta, Side};
use er_datasets::{Dataset, DatasetId};
use er_eval::report::Table;
use er_matchers::{AlgorithmConfig, AlgorithmKind, PreparedGraph};
use er_pipeline::SimilarityFunction;
use er_service::{ErService, ServiceConfig};
use er_textsim::{NGramScheme, VectorMeasure};
use parking_lot::RwLock;

use crate::records::BenchData;

/// Deterministic 64-bit LCG (the experiment must not depend on `rand`,
/// which is a dev-dependency only).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn weight(&mut self) -> f64 {
        (self.below(1000) + 1) as f64 / 1000.0
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn latency_row(
    t: &mut Table,
    bench: &mut BenchData,
    class: &str,
    slug: &str,
    ops: usize,
    mut us: Vec<f64>,
) {
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let fmt = |v: f64| format!("{v:.1}");
    t.row(vec![
        class.to_string(),
        ops.to_string(),
        fmt(percentile(&us, 0.5)),
        fmt(percentile(&us, 0.99)),
        fmt(us.last().copied().unwrap_or(0.0)),
    ]);
    bench.push(format!("{slug}_ops"), ops as f64, "ops");
    bench.push(format!("{slug}_p50_us"), percentile(&us, 0.5), "us");
    bench.push(format!("{slug}_p99_us"), percentile(&us, 0.99), "us");
}

/// Run both portraits and render their tables.
pub fn render(seed: u64, smoke: bool) -> String {
    run(seed, smoke).0
}

/// [`render`], also returning the machine-readable measurement record
/// the `repro` driver writes as `BENCH_service.json`.
pub fn run(seed: u64, smoke: bool) -> (String, BenchData) {
    let mut bench = BenchData::new("service", seed, smoke);
    let mut out = load_test(seed, smoke, &mut bench);
    out.push('\n');
    out.push_str(&incremental_vs_rematch(seed, smoke, &mut bench));
    (out, bench)
}

/// Portrait 1: concurrent query/update traffic against one service.
fn load_test(seed: u64, smoke: bool, bench: &mut BenchData) -> String {
    let scale = if smoke { 0.02 } else { 0.25 };
    let (n_queries, n_updates) = if smoke { (400, 40) } else { (4000, 400) };
    let readers = 2;

    let dataset = Dataset::generate(DatasetId::D2, scale, seed);
    let function = SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Token(1),
        measure: VectorMeasure::CosineTfIdf,
    };
    let cfg = ServiceConfig {
        k: 5,
        threshold: 0.3,
        algorithm: AlgorithmKind::Umc,
        ..ServiceConfig::default()
    };
    let built = Instant::now();
    let svc = RwLock::new(ErService::load(
        &dataset.left,
        &dataset.right,
        &function,
        cfg,
    ));
    let build_ms = built.elapsed().as_secs_f64() * 1e3;
    bench.push("service_build_ms", build_ms, "ms");
    let (n_left0, n_edges0) = {
        let s = svc.read();
        (s.n_left(), s.n_edges())
    };

    // Reader threads hammer point queries; one writer interleaves
    // inserts (cloned resident attribute sets under fresh ids) and
    // deletes, each repairing the matching before the lock drops.
    let result = thread::scope(|scope| {
        let mut readers_out = Vec::new();
        for r in 0..readers {
            let svc = &svc;
            readers_out.push(scope.spawn(move |_| {
                let mut rng = Lcg(seed ^ (0x9e37 + r as u64));
                let mut lat = Vec::with_capacity(n_queries);
                for _ in 0..n_queries {
                    let s = svc.read();
                    let side = if rng.below(2) == 0 {
                        Side::Left
                    } else {
                        Side::Right
                    };
                    let n = match side {
                        Side::Left => s.n_left(),
                        Side::Right => s.n_right(),
                    };
                    let id = rng.below(n as u64) as u32;
                    let t0 = Instant::now();
                    let neigh = s.neighbors(side, id);
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                    std::hint::black_box(neigh);
                }
                lat
            }));
        }
        let writer = scope.spawn(|_| {
            let mut rng = Lcg(seed ^ 0xabcd);
            let mut ins = Vec::new();
            let mut del = Vec::new();
            for i in 0..n_updates {
                let mut s = svc.write();
                if i % 3 == 2 {
                    // Delete a live record from the larger side.
                    let side = if s.n_left() >= s.n_right() {
                        Side::Left
                    } else {
                        Side::Right
                    };
                    let n = match side {
                        Side::Left => s.n_left(),
                        Side::Right => s.n_right(),
                    };
                    let start = rng.below(n as u64) as u32;
                    if let Some(id) = (0..n)
                        .map(|d| (start + d) % n)
                        .find(|&x| s.is_live(side, x))
                    {
                        let t0 = Instant::now();
                        s.remove(side, id).expect("live id removes");
                        let _ = s.matching();
                        del.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                } else {
                    let side = if i % 2 == 0 { Side::Left } else { Side::Right };
                    let donor = s
                        .profile(side, rng.below(64) as u32 % s.n_left().max(1))
                        .or_else(|| s.profile(side, 0))
                        .expect("resident donor profile")
                        .clone();
                    let mut p = donor;
                    p.id = s.next_id(side);
                    let t0 = Instant::now();
                    s.insert(side, &p).expect("insert with handed-out id");
                    let _ = s.matching();
                    ins.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
            (ins, del)
        });
        let query_lat: Vec<Vec<f64>> = readers_out
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        let (ins, del) = writer.join().expect("writer thread");
        (query_lat, ins, del)
    })
    .expect("load-test scope");
    let (query_lat, ins, del) = result;

    // The traffic must leave the service equivalent to a full re-match.
    {
        let s = svc.read();
        let incremental = s.matching();
        assert_eq!(
            incremental,
            s.full_rematch(),
            "service diverged from the batch protocol under load"
        );
    }

    let mut t =
        Table::new(vec!["operation", "ops", "p50 µs", "p99 µs", "max µs"]).with_title(format!(
            "Extension: resident ErService under concurrent traffic (D2 scale {scale}, \
             {n_left0} left rows, {n_edges0} edges at load; build+prepare {build_ms:.0} ms; \
             {readers} reader threads + 1 writer behind a RwLock; incremental UMC at t=0.3; \
             matching re-verified against a full re-match after the run). Latencies include \
             lock acquisition; on 1 vCPU this portrays contention cost, not parallel scaling.",
        ));
    let n_q: usize = query_lat.iter().map(Vec::len).sum();
    latency_row(
        &mut t,
        bench,
        "point query (read lock)",
        "service_query",
        n_q,
        query_lat.into_iter().flatten().collect(),
    );
    latency_row(
        &mut t,
        bench,
        "insert + rematch (write lock)",
        "service_insert",
        ins.len(),
        ins,
    );
    latency_row(
        &mut t,
        bench,
        "delete + rematch (write lock)",
        "service_delete",
        del.len(),
        del,
    );
    t.render()
}

/// Portrait 2: the same delta stream, incremental UMC vs full re-match.
fn incremental_vs_rematch(seed: u64, smoke: bool, bench: &mut BenchData) -> String {
    let (n_left, n_right, deg, n_deltas) = if smoke {
        (2_000u32, 2_000u32, 5usize, 60usize)
    } else {
        (25_000u32, 25_000u32, 5usize, 200usize)
    };

    // Synthetic normalized graph: `deg` distinct partners per left row.
    let mut rng = Lcg(seed ^ 0x51c3);
    let mut b = GraphBuilder::new(n_left, n_right);
    for l in 0..n_left {
        let start = rng.below(n_right as u64) as u32;
        let stride = (rng.below((n_right - 1) as u64) + 1) as u32;
        for j in 0..deg {
            let r = (start + stride * j as u32) % n_right;
            let _ = b.add_edge(l, r, rng.weight()); // rare duplicate → skip
        }
    }
    let mut csr = CsrGraph::from_graph(&b.build());
    let n_edges0 = csr.n_edges();
    let t = 0.3;
    let cfg = AlgorithmConfig::default();

    // Pre-generate the delta stream against a scratch copy so both
    // timed passes see identical work.
    let mut scratch = csr.clone();
    let mut deltas: Vec<RowDelta> = Vec::with_capacity(n_deltas);
    for i in 0..n_deltas {
        let delta = if i % 3 == 2 {
            let id = (0..scratch.n_left())
                .map(|d| (rng.below(scratch.n_left() as u64) as u32 + d) % scratch.n_left())
                .find(|&x| scratch.is_live_left(x))
                .expect("a live left row");
            let removed = scratch.remove_left(id).expect("live row removes");
            RowDelta::delete_left(id, removed)
        } else {
            let mut edges = Vec::with_capacity(deg);
            let mut seen = std::collections::BTreeSet::new();
            while edges.len() < deg {
                let r = rng.below(scratch.n_right() as u64) as u32;
                if scratch.is_live_right(r) && seen.insert(r) {
                    edges.push((r, rng.weight()));
                }
            }
            let d = RowDelta::insert_left(scratch.n_left(), edges);
            scratch.apply(&d).expect("generated insert applies");
            d
        };
        deltas.push(delta);
    }

    // Incremental pass: cascade repair + read after every delta.
    let mut dm = cfg.delta_matcher(AlgorithmKind::Umc, &csr, t);
    let t0 = Instant::now();
    let mut incremental_matchings = Vec::with_capacity(n_deltas);
    for d in &deltas {
        dm.apply_delta(d);
        incremental_matchings.push(dm.matching());
    }
    let inc_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Re-match pass: apply to the store, full prepare + run every time.
    let t0 = Instant::now();
    let mut full_matchings = Vec::with_capacity(n_deltas);
    for d in &deltas {
        csr.apply(d).expect("delta applies to the store");
        let pg = PreparedGraph::from_csr(&csr);
        full_matchings.push(cfg.run(AlgorithmKind::Umc, &pg, t));
    }
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        incremental_matchings, full_matchings,
        "incremental UMC diverged from per-delta full re-match"
    );

    let speedup = full_ms / inc_ms.max(1e-9);
    bench.push("delta_graph_edges", n_edges0 as f64, "edges");
    bench.push("delta_incremental_ms", inc_ms, "ms");
    bench.push("delta_full_rematch_ms", full_ms, "ms");
    bench.push("delta_speedup", speedup, "x");
    let mut table = Table::new(vec![
        "strategy",
        "deltas",
        "total ms",
        "per-delta µs",
        "speedup",
    ])
    .with_title(format!(
        "Extension: incremental UMC vs full re-match per delta (synthetic \
         {n_left}×{n_right} graph, {n_edges0} edges, t={t}; stream of {n_deltas} \
         left inserts/deletes, matchings asserted equal after every delta). \
         The full pass pays O(m log m) prepare+run per delta; the cascade \
         repairs locally and reads in O(n).",
    ));
    table.row(vec![
        "UmcDelta (cascade repair)".to_string(),
        n_deltas.to_string(),
        format!("{inc_ms:.1}"),
        format!("{:.1}", inc_ms * 1e3 / n_deltas as f64),
        "—".to_string(),
    ]);
    table.row(vec![
        "full re-match (from_csr + run)".to_string(),
        n_deltas.to_string(),
        format!("{full_ms:.1}"),
        format!("{:.1}", full_ms * 1e3 / n_deltas as f64),
        format!("{speedup:.1}×"),
    ]);
    if !smoke {
        assert!(
            n_edges0 >= 100_000,
            "full configuration must exercise >=100k edges"
        );
        assert!(
            speedup > 1.0,
            "incremental maintenance must beat re-matching at scale"
        );
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_smoke_renders_both_portraits() {
        let s = render(5, true);
        // Portrait 1: the load test ran all three operation classes and
        // its internal assert (incremental == full re-match) held.
        assert!(s.contains("point query"), "query latency row missing");
        assert!(s.contains("insert + rematch"), "insert latency row missing");
        assert!(s.contains("delete + rematch"), "delete latency row missing");
        assert!(s.contains("p99"), "percentile column missing");
        // Portrait 2: incremental vs re-match, with a speedup cell.
        assert!(s.contains("UmcDelta"), "incremental strategy row missing");
        assert!(s.contains("full re-match"), "re-match baseline row missing");
        assert!(
            s.split_whitespace()
                .any(|t| t.ends_with('×') && t.contains('.')),
            "no `N.N×` speedup cell rendered"
        );
    }

    #[test]
    fn service_smoke_emits_versioned_bench_metrics() {
        let (_, bench) = run(7, true);
        assert_eq!(bench.format_version, crate::records::BENCH_DATA_VERSION);
        assert_eq!(bench.experiment, "service");
        assert!(bench.quick);
        for name in [
            "service_build_ms",
            "service_query_p50_us",
            "service_query_p99_us",
            "service_insert_p99_us",
            "service_delete_p99_us",
            "delta_graph_edges",
            "delta_incremental_ms",
            "delta_full_rematch_ms",
            "delta_speedup",
        ] {
            assert!(bench.get(name).is_some(), "metric {name} missing");
        }
        assert!(bench.get("delta_graph_edges").unwrap() > 0.0);
    }
}
