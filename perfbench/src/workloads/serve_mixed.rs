//! `serve-mixed`: open-loop traffic against one resident `ErService`
//! behind a reader-writer lock.
//!
//! Two client threads each follow a fixed-rate schedule drawn from the
//! seed. The reader sends `neighbors(Left)`, `neighbors(Right)` and
//! `match_of` (which needs the write lock, as it takes `&mut self`); the
//! writer sends `insert`, `remove` and a rare `full_rematch`. A request's
//! latency counts from when it was due, so lock wait and the generator's
//! own lateness are included.
//!
//! One service, loaded in set-up, serves every pass; a pass is one window
//! of traffic. Tombstones build up across windows until a remove folds
//! the store at the service's default ratio. After each window the
//! incremental matching must equal a full re-match. The pass time is the
//! window's service time: the time requests held the lock, plus that
//! check. The window's length is fixed by the schedule, so its wall time
//! would say nothing about the service.

use std::time::{Duration, Instant};

use parking_lot::RwLock;

use super::{measure, setup, Ctx, Outcome, Pass};
use crate::api::{self, Service, Side};
use crate::digest::Digest;
use crate::stats::percentile;
use crate::trace::{self, Group};

/// Traffic shape. The mix and rates are chosen, not taken from a trace
/// (the service has no recorded production traffic):
///
/// * reads split 40/30/30 over `nbr_left`/`nbr_right`/`match_of`, so each
///   class has at least ~300 samples per window for a steady p99;
/// * writes split evenly between insert and remove, so the live corpus
///   keeps its size while tombstones build up towards auto-compaction;
///   every 25th write is a `full_rematch` (6 per window);
/// * at the in-call medians a traced run measures on a 2-vCPU x86 host
///   (`nbr_left` 3 µs, `nbr_right` 340 µs, `match_of` 30 µs, `insert`
///   200 µs, `remove` 40 µs, `full_rematch` 2.6 ms), the reader keeps the
///   service busy about 11% of a window and the writer about 3%, so
///   neither client builds a backlog. Every record reports the queue wait
///   and the generator's lateness, which show it.
struct Shape {
    dataset: &'static str,
    scale: f64,
    function: &'static str,
    k: usize,
    threshold: f64,
    /// Length of one window of traffic.
    window: Duration,
    reader_per_s: f64,
    writer_per_s: f64,
    /// Every n-th writer request is a `full_rematch`.
    rematch_every: usize,
}

fn shape(ctx: &Ctx) -> Shape {
    let full = Shape {
        dataset: "D4",
        scale: 1.0,
        function: "sa-syn/t1/CosineTFIDF",
        k: 5,
        threshold: 0.3,
        window: Duration::from_secs(1),
        reader_per_s: 1000.0,
        writer_per_s: 150.0,
        rematch_every: 25,
    };
    if ctx.smoke {
        Shape {
            scale: 0.05,
            window: Duration::from_millis(300),
            ..full
        }
    } else {
        full
    }
}

/// Deterministic 64-bit generator for the schedules.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) % n.max(1)
    }
}

/// Request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    NbrLeft,
    NbrRight,
    MatchOf,
    Insert,
    Remove,
    FullRematch,
}

impl Op {
    fn class(self) -> &'static str {
        match self {
            Op::NbrLeft => "nbr_left",
            Op::NbrRight => "nbr_right",
            Op::MatchOf => "match_of",
            Op::Insert => "insert",
            Op::Remove => "remove",
            Op::FullRematch => "full_rematch",
        }
    }

    /// Name of the client-side span of one request.
    fn request_span(self) -> &'static str {
        match self {
            Op::NbrLeft => "serve.nbr_left",
            Op::NbrRight => "serve.nbr_right",
            Op::MatchOf => "serve.match_of",
            Op::Insert => "serve.insert",
            Op::Remove => "serve.remove",
            Op::FullRematch => "serve.full_rematch",
        }
    }
}

/// One request of a schedule: what to send and a raw draw that picks its
/// target when it is sent.
#[derive(Debug, Clone, Copy)]
struct Request {
    op: Op,
    side: Side,
    draw: u64,
}

fn reader_schedule(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Lcg(seed ^ 0x7265_6164);
    (0..n)
        .map(|_| {
            let op = match rng.below(10) {
                0..=3 => Op::NbrLeft,
                4..=6 => Op::NbrRight,
                _ => Op::MatchOf,
            };
            Request {
                op,
                side: Side::Left,
                draw: rng.below(u64::MAX >> 12),
            }
        })
        .collect()
}

fn writer_schedule(seed: u64, n: usize, rematch_every: usize) -> Vec<Request> {
    let mut rng = Lcg(seed ^ 0x7772_6974);
    (0..n)
        .map(|i| {
            let op = if (i + 1) % rematch_every == 0 {
                Op::FullRematch
            } else if rng.below(2) == 0 {
                Op::Insert
            } else {
                Op::Remove
            };
            let side = if rng.below(2) == 0 {
                Side::Left
            } else {
                Side::Right
            };
            Request {
                op,
                side,
                draw: rng.below(u64::MAX >> 12),
            }
        })
        .collect()
}

/// Timing of one served request, in µs.
#[derive(Debug, Clone, Copy)]
struct Served {
    op: Op,
    /// Due → response.
    latency: f64,
    /// Due → sent (the generator's lateness).
    queue: f64,
    /// Sent → lock acquired.
    lock: f64,
    /// Lock acquired → response: the service time.
    busy: f64,
    ok: bool,
    compacted: bool,
}

/// Sleep, then spin, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Serve one request on the locked service. `donors` bounds the ids whose
/// profiles inserts copy (the records loaded at start, never removed from
/// the profile table).
fn serve(svc: &RwLock<Service>, req: Request, due: Instant, donors: (u32, u32)) -> Served {
    let _request = trace::span_from(req.op.request_span(), due);
    let pick = |n: u32| (req.draw % u64::from(n.max(1))) as u32;
    let sent = Instant::now();
    let (acquired, ok, compacted) = match req.op {
        Op::NbrLeft | Op::NbrRight => {
            let s = svc.read();
            let acquired = Instant::now();
            let side = if req.op == Op::NbrLeft {
                Side::Left
            } else {
                Side::Right
            };
            std::hint::black_box(s.neighbors(side, pick(s.n(side))));
            (acquired, true, false)
        }
        Op::FullRematch => {
            let s = svc.read();
            let acquired = Instant::now();
            std::hint::black_box(s.full_rematch());
            (acquired, true, false)
        }
        Op::MatchOf => {
            let mut s = svc.write();
            let acquired = Instant::now();
            let id = pick(s.n(Side::Left));
            std::hint::black_box(s.match_of(id));
            (acquired, true, false)
        }
        Op::Insert => {
            let mut s = svc.write();
            let acquired = Instant::now();
            let n0 = match req.side {
                Side::Left => donors.0,
                Side::Right => donors.1,
            };
            let ok = match s.profile(req.side, pick(n0)) {
                Some(p) => s.insert(req.side, &p).is_ok(),
                None => false,
            };
            (acquired, ok, false)
        }
        Op::Remove => {
            let mut s = svc.write();
            let acquired = Instant::now();
            let n = s.n(req.side);
            let start = pick(n);
            let target = (0..n)
                .map(|d| (start + d) % n)
                .find(|&x| s.is_live(req.side, x));
            let before = s.tombstone_ratio();
            let ok = match target {
                Some(id) => s.remove(req.side, id).is_ok(),
                None => false,
            };
            (acquired, ok, s.tombstone_ratio() < before)
        }
    };
    let done = Instant::now();
    Served {
        op: req.op,
        latency: us(done - due),
        queue: us(sent - due),
        lock: us(acquired - sent),
        busy: us(done - acquired),
        ok,
        compacted,
    }
}

/// Run one client's schedule from `start`, one request every `period`.
fn client(
    svc: &RwLock<Service>,
    schedule: &[Request],
    start: Instant,
    period: Duration,
    donors: (u32, u32),
    group: Group,
) -> Vec<Served> {
    trace::set_group(group);
    schedule
        .iter()
        .enumerate()
        .map(|(i, &req)| {
            let due = start + period.mul_f64(i as f64);
            wait_until(due);
            serve(svc, req, due, donors)
        })
        .collect()
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let sh = shape(ctx);
    let id = api::dataset_id(sh.dataset).expect("known dataset");
    let (d, svc) = setup(ctx, out, || {
        let d = api::generate(id, sh.scale, ctx.seed);
        let f = api::function_named(&d, sh.function).expect("function in the catalog");
        let svc = Service::load(&d, &f, sh.k, sh.threshold);
        (d, svc)
    });
    let (n_left, n_right) = api::sizes(&d);
    let donors = (n_left as u32, n_right as u32);
    let edges_at_load = svc.n_edges();
    let svc = RwLock::new(svc);
    let n_reader = (sh.reader_per_s * sh.window.as_secs_f64()).round() as usize;
    let n_writer = (sh.writer_per_s * sh.window.as_secs_f64()).round() as usize;
    let reads = reader_schedule(ctx.seed, n_reader);
    let writes = writer_schedule(ctx.seed, n_writer, sh.rematch_every);
    let reader_period = Duration::from_secs_f64(1.0 / sh.reader_per_s);
    let writer_period = Duration::from_secs_f64(1.0 / sh.writer_per_s);

    let mut lock_waits = Vec::new();
    let mut queue_waits = Vec::new();
    let mut compactions = 0usize;
    let mut windows = 0u32;
    measure(ctx, out, |i, out| {
        let group = trace::group();
        let start = Instant::now() + Duration::from_millis(2);
        let (read_log, write_log) = std::thread::scope(|s| {
            let svc = &svc;
            let r = s.spawn(|| client(svc, &reads, start, reader_period, donors, group));
            let w = s.spawn(|| client(svc, &writes, start, writer_period, donors, group));
            (
                r.join().expect("reader client panicked"),
                w.join().expect("writer client panicked"),
            )
        });
        let mut s = svc.write();
        let t0 = Instant::now();
        let incremental = s.matching();
        let matches = incremental == s.full_rematch();
        let check_s = t0.elapsed().as_secs_f64();
        drop(s);
        windows += 1;

        let mut pass = Pass {
            seconds: check_s,
            ops: Vec::new(),
        };
        for r in read_log.iter().chain(&write_log) {
            out.check(r.ok, || format!("pass {i}: a {} call failed", r.op.class()));
            pass.seconds += r.busy / 1e6;
            if r.op != Op::FullRematch {
                pass.ops.push((r.op.class(), r.latency));
            }
            if matches!(r.op, Op::NbrLeft | Op::NbrRight) {
                lock_waits.push(r.lock);
            }
            queue_waits.push(r.queue);
            compactions += usize::from(r.compacted);
        }
        out.check(matches, || {
            format!("pass {i}: incremental matching differs from a full re-match")
        });
        // The first window starts from the loaded state, the same on every
        // run, so its matching is compared with the reference table.
        if i == 0 {
            let mut dg = Digest::default();
            for (l, r) in incremental.iter() {
                dg.u64(u64::from(l) << 32 | u64::from(r));
            }
            out.check_digest(ctx, dg.hex(), 1);
        }
        pass
    });
    let svc = svc.into_inner();

    out.params = vec![
        ("dataset", sh.dataset.to_string()),
        ("scale", sh.scale.to_string()),
        ("entities", format!("{n_left}x{n_right}")),
        ("function", sh.function.to_string()),
        ("k", sh.k.to_string()),
        ("edges_at_load", edges_at_load.to_string()),
        ("edges_at_end", svc.n_edges().to_string()),
        ("algorithm", "UMC".into()),
        ("threshold", sh.threshold.to_string()),
        ("auto_compact_ratio", Service::compact_ratio().to_string()),
        ("window_s", sh.window.as_secs_f64().to_string()),
        ("windows", windows.to_string()),
        ("reader_per_s", sh.reader_per_s.to_string()),
        ("writer_per_s", sh.writer_per_s.to_string()),
        ("rematch_every", sh.rematch_every.to_string()),
        ("client_threads", "2".into()),
    ];
    let late_ms = queue_waits.iter().copied().fold(0.0, f64::max) / 1e3;
    out.layer = vec![
        (
            "service.lock_wait_us",
            percentile(&lock_waits, 0.99).unwrap_or(0.0),
        ),
        (
            "service.queue_wait_us",
            percentile(&queue_waits, 0.99).unwrap_or(0.0),
        ),
        ("service.generator_late_ms", late_ms),
        ("service.compactions", compactions as f64),
        ("service.tombstone_ratio_end", svc.tombstone_ratio()),
    ];
}
