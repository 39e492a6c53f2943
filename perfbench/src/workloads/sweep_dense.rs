//! `sweep-dense`: matching and evaluation on a large dense graph.
//!
//! The graph is built during set-up, so construction does no work in the
//! measured phase. Each pass prepares the matcher input (the weight sort),
//! runs `sweep_all` over the paper grid on every core, then times each
//! algorithm once at its best threshold as the paper's §5 does. The
//! operation classes are those three stages: prepare, sweep and timed
//! runs.

use std::time::Instant;

use super::{breakdown, measure, secs, setup, sweep_digest, Ctx, Outcome, Pass};
use crate::api;
use crate::digest::Digest;

/// Dataset, scale and function: D7 (movies) weighted by character 3-gram
/// TF cosine gives about a million positive edges at 15% of its size.
fn params(ctx: &Ctx) -> (&'static str, f64, &'static str) {
    if ctx.smoke {
        ("D7", 0.02, "sa-syn/c3/CosineTF")
    } else {
        ("D7", 0.15, "sa-syn/c3/CosineTF")
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let (label, scale, fname) = params(ctx);
    let id = api::dataset_id(label).expect("known dataset");
    let cfg = api::pipeline(0);
    let (d, graph) = setup(ctx, out, || {
        let d = api::generate(id, scale, ctx.seed);
        let f = api::function_named(&d, fname).expect("function in the catalog");
        let g = api::build_dense(&d, &f, &cfg);
        (d, g)
    });
    let (n_left, n_right) = api::sizes(&d);
    out.params = vec![
        ("dataset", label.to_string()),
        ("scale", scale.to_string()),
        ("entities", format!("{n_left}x{n_right}")),
        ("function", fname.to_string()),
        ("edges", api::graph_edges(&graph).to_string()),
        ("sweep_threads", "all".into()),
        ("timed_threads", "1".into()),
    ];
    let gt = &d.ground_truth;

    measure(ctx, out, |i, out| {
        let mut pass = Pass::default();
        let t_pass = Instant::now();
        let pg = api::prepare_graph(&graph);
        let t_prepare = secs(t_pass);
        let t1 = Instant::now();
        let sweeps = api::sweep_all(&pg, gt);
        let t_sweep = secs(t1);
        let t2 = Instant::now();
        let timed: Vec<_> = sweeps
            .iter()
            .map(|s| api::timed_run(s.algorithm, s.bmc_basis_right, &pg, s.best_threshold))
            .collect();
        let t_timed = secs(t2);
        pass.seconds = secs(t_pass);
        pass.ops = vec![
            ("prepare", t_prepare * 1e6),
            ("sweep", t_sweep * 1e6),
            ("timed", t_timed * 1e6),
        ];

        let mut dg = Digest::default();
        sweep_digest(&mut dg, fname, &sweeps);
        out.check_digest(ctx, dg.hex(), 1);
        for (s, (m, took)) in sweeps.iter().zip(&timed) {
            // The timed run must reproduce the sweep's best point exactly;
            // for BAH that also shows the time limit never cut it short.
            let pr = api::evaluate(m, gt);
            out.check(
                pr.f1.to_bits() == s.best.f1.to_bits()
                    && pr.precision.to_bits() == s.best.precision.to_bits()
                    && pr.recall.to_bits() == s.best.recall.to_bits()
                    && *took < api::BAH_TIME_LIMIT.as_secs_f64(),
                || {
                    format!(
                        "pass {i}: timed {} diverged from its sweep",
                        s.algorithm.name()
                    )
                },
            );
        }
        pass
    });

    // Each algorithm's sweep on one thread.
    breakdown(ctx, || {
        let pg = api::prepare_graph(&graph);
        for kind in api::ALGORITHMS {
            api::sweep_one(kind, &pg, gt);
        }
    });
}
