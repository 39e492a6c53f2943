//! `topk-store`: the out-of-core production path.
//!
//! Each pass runs an indexed top-k sharded build into a v2 columnar store,
//! opens and validates the store, and sweeps it mmap-native to F1. The
//! candidate indexes, spill/merge/permutation sort and store validation do
//! the work; no dense scorer runs. The operation classes are the three
//! stages: build, open and sweep.
//!
//! The sweep covers the algorithms that consume only the weight-sorted
//! edge prefix (CNC, BAH, UMC): served off the store's sort-order column
//! they hold no resident edge copy, which every pass asserts. The other
//! five build a resident adjacency (two entries per edge) on first use.
//!
//! Only schema-agnostic functions are used: the sharded build with a
//! parallel merge rejects schema-based functions whose attribute some
//! entities lack (see `tests/sharded_merge.rs`).

use std::time::Instant;

use super::{breakdown, measure, secs, setup, sweep_digest, Ctx, Outcome, Pass};
use crate::api;
use crate::digest::Digest;
use crate::trace::{self, Group};

/// Rows per shard of the out-of-core build.
const SHARD_ROWS: usize = 256;

/// Dataset, scale, function and k: D10 at full size is the largest
/// benchmark; token TF-IDF cosine is its indexed top-k function.
fn params(ctx: &Ctx) -> (&'static str, f64, &'static str, usize) {
    if ctx.smoke {
        ("D10", 0.02, "sa-syn/t1/CosineTFIDF", 5)
    } else {
        ("D10", 1.0, "sa-syn/t1/CosineTFIDF", 5)
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let (label, scale, fname, k) = params(ctx);
    let id = api::dataset_id(label).expect("known dataset");
    let d = setup(ctx, out, || api::generate(id, scale, ctx.seed));
    let f = api::function_named(&d, fname).expect("function in the catalog");
    let (n_left, n_right) = api::sizes(&d);
    out.params = vec![
        ("dataset", label.to_string()),
        ("scale", scale.to_string()),
        ("entities", format!("{n_left}x{n_right}")),
        ("function", fname.to_string()),
        ("k", k.to_string()),
        ("shard_rows", SHARD_ROWS.to_string()),
        ("build_threads", "all".into()),
        ("sweep_threads", "1".into()),
    ];
    let gt = &d.ground_truth;
    let cfg = api::pipeline(0);
    let prefix = api::prefix_algorithms();
    let spill = ctx.work_dir.join("spill");
    let store = ctx.work_dir.join("graph.slab");

    measure(ctx, out, |i, out| {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let built = api::build_store(
            &d,
            &f,
            k,
            &cfg,
            SHARD_ROWS,
            &spill,
            &store,
            "pipeline.build",
        );
        let t_build = secs(t0);
        let built = match built {
            Ok(b) => b,
            Err(e) => {
                out.check(false, || format!("pass {i}: build failed: {e}"));
                return pass;
            }
        };
        let t1 = Instant::now();
        let mapped = match api::open_store(&store) {
            Ok(m) => m,
            Err(e) => {
                out.check(false, || format!("pass {i}: open failed: {e}"));
                return pass;
            }
        };
        let t_open = secs(t1);
        let t2 = Instant::now();
        let pg = api::prepare_mapped(&mapped);
        let copies_before = api::resident_edge_copies(&pg);
        let sweeps = api::sweep_each(&prefix, &pg, gt);
        let t_sweep = secs(t2);
        pass.seconds = secs(t0);
        pass.ops = vec![
            ("build", t_build * 1e6),
            ("open", t_open * 1e6),
            ("sweep", t_sweep * 1e6),
        ];

        out.check(
            built.retained_edges == api::store_edges(&mapped)
                && built.peak_resident_edges <= built.resident_budget_edges,
            || format!("pass {i}: store does not match its build report"),
        );
        // BAH stops on its move budget, never on its wall-clock limit, so
        // the digest stays deterministic.
        out.check(t_sweep < api::BAH_TIME_LIMIT.as_secs_f64(), || {
            format!("pass {i}: the sweep ran past BAH's time limit")
        });
        let copies_after = api::resident_edge_copies(&pg);
        out.check(copies_before == 0 && copies_after == 0, || {
            format!("pass {i}: mmap sweep held {copies_after} resident edge copies")
        });
        let mut dg = Digest::default();
        sweep_digest(&mut dg, fname, &sweeps);
        let dg = dg.hex();
        if i == 0 {
            // The mmap-native sweep must equal the resident one. The oracle
            // is recorded outside the pass, so its sweep does not count
            // towards the pass's layers.
            let group = trace::group();
            trace::set_group(Group::Other);
            let hydrated = api::sweep_hydrated(&prefix, &mapped, gt);
            trace::set_group(group);
            let mut resident = Digest::default();
            sweep_digest(&mut resident, fname, &hydrated);
            out.check(resident.hex() == dg, || {
                "mmap-native sweep differs from the resident sweep".into()
            });
        }
        out.check_digest(ctx, dg, 1);
        pass
    });

    breakdown(ctx, || {
        let one = api::pipeline(1);
        if api::build_store(
            &d,
            &f,
            k,
            &one,
            SHARD_ROWS,
            &spill,
            &store,
            "pipeline.build_t1",
        )
        .is_ok()
        {
            if let Ok(mapped) = api::open_store(&store) {
                let pg = api::prepare_mapped(&mapped);
                for &kind in &prefix {
                    api::sweep_one(kind, &pg, gt);
                }
            }
        }
    });
}
