//! The benchmark's workloads and the set-up / measured-pass loop they share.
//!
//! Every workload is set up at least five times (the median is `setup_s`),
//! then runs whole passes until its time is up. In a traced run the passes
//! alternate traced and untraced, so the report can state what tracing
//! itself costs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::digest::Digest;
use crate::trace::{self, Group};
use crate::{alloc, api};

pub mod paper_catalog;
pub mod serve_mixed;
pub mod sweep_dense;
pub mod topk_store;

/// Workload names, in the order they are documented.
pub const NAMES: [&str; 4] = ["paper-catalog", "sweep-dense", "topk-store", "serve-mixed"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: u32 = 5;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// The small inputs of the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory for stores and spills, removed at the end.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// `"smoke"` or `"full"`, the size column of the reference table.
    pub fn size(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload parameters for the record's stamp.
    pub params: Vec<(&'static str, String)>,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Measured seconds of each untraced pass.
    pub pass_s: Vec<f64>,
    /// Measured seconds of each traced pass.
    pub traced_pass_s: Vec<f64>,
    /// Peak live heap in MiB during each untraced pass.
    pub pass_peak_mb: Vec<f64>,
    /// Latency in µs of every operation of the untraced passes, by class.
    pub ops: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted (calls made and outputs checked).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// What went wrong, for the first few failures.
    pub notes: Vec<String>,
    /// Per-layer metrics the workload measures itself, by name.
    pub layer: Vec<(&'static str, f64)>,
    /// Digest of the first pass's outputs.
    pub digest: Option<String>,
}

impl Outcome {
    /// Count one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Compare a pass digest with the stored reference for this seed (when
    /// the table has one) and with the first pass; `n` operations produced
    /// it and all count as failed on a mismatch.
    pub fn check_digest(&mut self, ctx: &Ctx, digest: String, n: u64) {
        self.attempted += n;
        let expected = match &self.digest {
            Some(first) => Some(first.clone()),
            None => {
                crate::digest::reference(&ctx.workload, ctx.size(), ctx.seed).map(str::to_string)
            }
        };
        if let Some(expected) = expected {
            if expected != digest {
                for _ in 0..n {
                    self.fail(format!("output digest {digest} != expected {expected}"));
                }
            }
        }
        self.digest.get_or_insert(digest);
    }
}

/// The measured result of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds of the measured region.
    pub seconds: f64,
    /// Per-operation latencies in µs, by class.
    pub ops: Vec<(&'static str, f64)>,
}

/// Run `setup` [`SETUP_REPS`] times (dropping each result before the next)
/// and keep the last result.
pub fn setup<T>(ctx: &Ctx, out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut state = None;
    for r in 0..SETUP_REPS {
        drop(state.take());
        trace::set_enabled(ctx.traced);
        trace::set_group(Group::Setup(r));
        let t0 = Instant::now();
        let s = setup();
        out.setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    trace::set_group(Group::Other);
    state.expect("at least one set-up repetition")
}

/// Run passes until `ctx.seconds` have gone by (at least one; at least one
/// traced and one untraced in a traced run).
pub fn measure(ctx: &Ctx, out: &mut Outcome, mut pass: impl FnMut(u32, &mut Outcome) -> Pass) {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let min_passes = if ctx.traced { 2 } else { 1 };
    let mut i = 0u32;
    while i < min_passes || Instant::now() < deadline {
        let traced = ctx.traced && i.is_multiple_of(2);
        trace::set_enabled(traced);
        trace::set_group(Group::Pass(i));
        alloc::reset_peak();
        let p = {
            let _s = trace::span("bench.pass");
            pass(i, out)
        };
        trace::set_group(Group::Other);
        if traced {
            out.traced_pass_s.push(p.seconds);
        } else {
            out.pass_s.push(p.seconds);
            out.pass_peak_mb.push(alloc::peak_heap_mb());
            for (class, us) in p.ops {
                out.ops.entry(class).or_default().push(us);
            }
        }
        i += 1;
    }
    trace::set_enabled(ctx.traced);
}

/// In a traced run, run the single-threaded layer breakdown once.
pub fn breakdown(ctx: &Ctx, f: impl FnOnce()) {
    if !ctx.traced {
        return;
    }
    trace::set_enabled(true);
    trace::set_group(Group::Breakdown);
    f();
    trace::set_group(Group::Other);
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Fold one graph's sweep results (best threshold and P/R/F1 bits of all
/// eight algorithms) into a digest.
pub fn sweep_digest(d: &mut Digest, graph: &str, sweeps: &[api::SweepResult]) {
    d.str(graph);
    for s in sweeps {
        d.str(s.algorithm.name())
            .f64(s.best_threshold)
            .f64(s.best.precision)
            .f64(s.best.recall)
            .f64(s.best.f1);
    }
}

/// Dispatch by name.
pub fn run(ctx: &Ctx) -> Option<Outcome> {
    let mut out = Outcome::default();
    match ctx.workload.as_str() {
        "paper-catalog" => paper_catalog::run(ctx, &mut out),
        "sweep-dense" => sweep_dense::run(ctx, &mut out),
        "topk-store" => topk_store::run(ctx, &mut out),
        "serve-mixed" => serve_mixed::run(ctx, &mut out),
        _ => return None,
    }
    Some(out)
}
