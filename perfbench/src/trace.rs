//! Span and count recorder for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it (its
//! parent, per thread) and the request it belongs to (the id of its root
//! span). Spans are kept in memory and written out once, when the
//! benchmark ends. With tracing off every call here is one relaxed atomic
//! load, so untraced runs pay nothing measurable.
//!
//! Every span and count also carries the [`Group`] it was recorded in — a
//! set-up repetition, a measured pass or the one-off breakdown step — so
//! the report can aggregate per pass and take medians across passes.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which phase of the run a span or count belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Group {
    /// One repetition of the workload's set-up.
    Setup(u32),
    /// One measured pass.
    Pass(u32),
    /// Single-threaded re-runs of the pass's layers, made once after the
    /// measured passes of a traced run.
    Breakdown,
    /// Anything else (per-pass resets, output checks).
    Other,
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that was open on this thread when this one started.
    pub parent: Option<u64>,
    /// Id of the root span of the request this span belongs to.
    pub request: u64,
    /// Phase of the run.
    pub group: Group,
    /// `layer.operation[.detail]`, e.g. `pipeline.build.sa_vec`.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// One recorded count, e.g. candidate pairs generated by a build.
#[derive(Debug, Clone)]
pub struct Count {
    /// Phase of the run.
    pub group: Group,
    /// Counter name, e.g. `pipeline.generated_pairs`.
    pub name: &'static str,
    /// Amount added.
    pub value: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTS: Mutex<Vec<Count>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static GROUP: Cell<Group> = const { Cell::new(Group::Other) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn nanos(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Set the phase later spans and counts on this thread are recorded in.
pub fn set_group(group: Group) {
    GROUP.with(|g| g.set(group));
}

/// The phase this thread records in.
pub fn group() -> Group {
    GROUP.with(|g| g.get())
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<Open>);

struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: String,
    start: Instant,
}

/// Open a span named `name` starting now.
pub fn span(name: &str) -> Guard {
    span_from(name, Instant::now())
}

/// Open a span named `layer.op.detail`; the name is only built when
/// tracing is on.
pub fn span_detail(layer_op: &str, detail: &str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    span(&format!("{layer_op}.{detail}"))
}

/// Open a span that started at `start` — a request's span starts when the
/// request was due, which may be before the client got to send it.
pub fn span_from(name: &str, start: Instant) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let link = s.last().copied();
        let request = link.map_or(id, |(_, req)| req);
        s.push((id, request));
        (link.map(|(p, _)| p), request)
    });
    Guard(Some(Open {
        id,
        parent,
        request,
        name: name.to_string(),
        start,
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == open.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            group: group(),
            name: open.name,
            start_ns: nanos(open.start),
            end_ns: nanos(end),
        };
        // A poisoned recorder only means another thread panicked while
        // pushing; the vector itself is still valid.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Add `value` to counter `name` in this thread's current phase.
pub fn count(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let c = Count {
        group: group(),
        name,
        value,
    };
    COUNTS.lock().unwrap_or_else(|e| e.into_inner()).push(c);
}

/// All spans recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// All counts recorded so far.
pub fn counts() -> Vec<Count> {
    COUNTS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Returned in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return total;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            total.saturating_sub(covered)
        })
        .collect()
}

fn group_label(g: Group) -> String {
    match g {
        Group::Setup(r) => format!("setup{r}"),
        Group::Pass(i) => format!("pass{i}"),
        Group::Breakdown => "breakdown".into(),
        Group::Other => "other".into(),
    }
}

/// The recorded spans and counts as JSON lines, one object per line.
pub fn to_json_lines(spans: &[Span], counts: &[Count]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{},\"parent\":{},\"request\":{},\"group\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            parent,
            s.request,
            group_label(s.group),
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    for c in counts {
        let _ = writeln!(
            out,
            "{{\"count\":\"{}\",\"group\":\"{}\",\"value\":{}}}",
            c.name,
            group_label(c.group),
            c.value
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: Option<u64>, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            group: Group::Other,
            name: String::new(),
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            mk(1, None, 0, 100),
            mk(2, Some(1), 10, 30),
            mk(3, Some(1), 20, 40),
            mk(4, Some(1), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 10, 20, 20, 10]);
    }
}
