//! `paper-catalog`: the paper's protocol over one dataset's full
//! similarity catalog.
//!
//! Each pass builds every dense graph of the catalog (all cores), sweeps
//! the eight algorithms over the paper grid on it, and keeps the best F1
//! per algorithm. Construction does most of the work; matching little.
//! The operation classes are the pass's two stages: all builds, and all
//! prepares and sweeps.

use std::collections::BTreeMap;
use std::time::Instant;

use super::{breakdown, measure, secs, setup, sweep_digest, Ctx, Outcome, Pass};
use crate::api;
use crate::digest::Digest;

/// Dataset and scale: D2 (Abt-Buy) has one focus attribute, so its catalog
/// is 88 functions covering every construction family.
fn params(ctx: &Ctx) -> (&'static str, f64) {
    if ctx.smoke {
        ("D2", 0.02)
    } else {
        ("D2", 0.06)
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let (label, scale) = params(ctx);
    let id = api::dataset_id(label).expect("known dataset");
    let (d, functions) = setup(ctx, out, || {
        let d = api::generate(id, scale, ctx.seed);
        let functions = api::catalog(&d);
        (d, functions)
    });
    let (n_left, n_right) = api::sizes(&d);
    out.params = vec![
        ("dataset", label.to_string()),
        ("scale", scale.to_string()),
        ("entities", format!("{n_left}x{n_right}")),
        ("functions", functions.len().to_string()),
        ("build_threads", "all".into()),
        ("sweep_threads", "all".into()),
    ];
    let cfg = api::pipeline(0);
    let gt = &d.ground_truth;

    // Per graph: the digest of its eight sweep results, from the first pass.
    let mut first: Vec<String> = Vec::new();
    measure(ctx, out, |i, out| {
        let mut pass = Pass::default();
        let mut best_f1: BTreeMap<&str, f64> = BTreeMap::new();
        let mut all = Digest::default();
        let (mut build_s, mut sweep_s) = (0.0, 0.0);
        let t_pass = Instant::now();
        for (g, f) in functions.iter().enumerate() {
            let t0 = Instant::now();
            let api::BuiltGraph { graph, sorted } =
                api::build_prepared(&d, f, &cfg, "pipeline.build");
            let t1 = Instant::now();
            let pg = api::prepare_built(&graph, sorted);
            let sweeps = api::sweep_all(&pg, gt);
            build_s += (t1 - t0).as_secs_f64();
            sweep_s += secs(t1);
            let took = secs(t0);

            let mut dg = Digest::default();
            sweep_digest(&mut dg, &api::function_name(f), &sweeps);
            let dg = dg.hex();
            all.str(&dg);
            if i == 0 {
                first.push(dg);
            } else {
                out.check(first[g] == dg, || {
                    format!(
                        "pass {i}: {} changed its sweep results",
                        api::function_name(f)
                    )
                });
            }
            out.check(took < api::BAH_TIME_LIMIT.as_secs_f64(), || {
                format!("{} ran past BAH's time limit", api::function_name(f))
            });
            for s in &sweeps {
                let e = best_f1.entry(s.algorithm.name()).or_insert(0.0);
                *e = e.max(s.best.f1);
            }
        }
        pass.seconds = secs(t_pass);
        pass.ops = vec![("build", build_s * 1e6), ("sweep", sweep_s * 1e6)];
        if i == 0 {
            out.check_digest(ctx, all.hex(), functions.len() as u64);
            out.check(best_f1.values().any(|&f| f > 0.0), || {
                "no algorithm reached a positive F1".into()
            });
        }
        pass
    });

    // Construction on one thread, next to `pipeline.build_s`, gives the
    // parallel fraction of construction.
    breakdown(ctx, || {
        let one = api::pipeline(1);
        for f in &functions {
            drop(api::build_prepared(&d, f, &one, "pipeline.build_t1"));
        }
    });
}
