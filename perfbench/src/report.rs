//! Turning what a run measured into the named metrics and the records.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::api::{ALGORITHMS, FAMILIES};
use crate::stats::{geomean, median, percentile};
use crate::trace::{self_times_ns, Count, Group, Span};
use crate::workloads::Outcome;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced run.
///
/// * `setup_s`: median of the set-up repetitions;
/// * `peak_heap_mb`: median over the measured passes of the peak live
///   heap during the pass, set-up state included (see [`crate::alloc`]);
/// * `run_s`: median time of one measured pass (wall time for the batch
///   workloads, service time for `serve-mixed`);
/// * `op_p50_us`: for each operation class of the workload, the median
///   latency; then the geometric mean across classes, so every class
///   weighs the same however rare or cheap it is. The record keeps each
///   class's own p50 and p99.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let per_class: Vec<f64> = out
        .ops
        .values()
        .filter_map(|v| percentile(v, 0.5))
        .collect();
    vec![
        metric("setup_s", "s", median(&out.setup_s).unwrap_or(0.0)),
        metric(
            "peak_heap_mb",
            "MB",
            median(&out.pass_peak_mb).unwrap_or(0.0),
        ),
        metric("run_s", "s", median(&out.pass_s).unwrap_or(0.0)),
        metric("op_p50_us", "us", geomean(&per_class).unwrap_or(0.0)),
    ]
}

/// Per operation class: sample count, p50 and p99 in µs, as JSON.
pub fn classes_json(out: &Outcome) -> String {
    let body: Vec<String> = out
        .ops
        .iter()
        .map(|(class, v)| {
            format!(
                "{}: {{\"n\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
                json_str(class),
                v.len(),
                json_num(percentile(v, 0.5).unwrap_or(0.0)),
                json_num(percentile(v, 0.99).unwrap_or(0.0))
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A list of numbers as JSON.
pub fn list_json(v: &[f64]) -> String {
    let body: Vec<String> = v.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", body.join(", "))
}

/// Spans and counts of one run, indexed for aggregation.
struct Trace<'a> {
    spans: &'a [Span],
    self_s: Vec<f64>,
    counts: &'a [Count],
    passes: BTreeSet<Group>,
}

impl<'a> Trace<'a> {
    fn new(spans: &'a [Span], counts: &'a [Count]) -> Self {
        let passes = spans
            .iter()
            .map(|s| s.group)
            .filter(|g| matches!(g, Group::Pass(_)))
            .collect();
        Trace {
            spans,
            self_s: self_times_ns(spans)
                .into_iter()
                .map(|ns| ns as f64 / 1e9)
                .collect(),
            counts,
            passes,
        }
    }

    /// Per group, the summed self time of the spans `pick` selects.
    fn sums(&self, groups: impl Fn(Group) -> bool, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut by_group: BTreeMap<Group, f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&self.self_s) {
            if groups(s.group) && pick(&s.name) {
                *by_group.entry(s.group).or_default() += t;
            }
        }
        by_group.into_values().collect()
    }

    /// Median over traced passes of the per-pass self time (0 when the
    /// workload never enters that layer).
    fn per_pass(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let sums = self.sums(|g| self.passes.contains(&g), pick);
        if sums.is_empty() {
            return 0.0;
        }
        // Passes that never entered the layer count as zero.
        let mut all = sums;
        all.resize(self.passes.len().max(all.len()), 0.0);
        median(&all).unwrap_or(0.0)
    }

    /// Median over set-up repetitions.
    fn per_setup(&self, name: &str) -> f64 {
        median(&self.sums(|g| matches!(g, Group::Setup(_)), |n| n == name)).unwrap_or(0.0)
    }

    /// Total in the breakdown step.
    fn breakdown(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.sums(|g| g == Group::Breakdown, pick)
            .iter()
            .fold(0.0, |a, b| a + b)
    }

    /// Median self time of single calls, over traced passes.
    fn per_call(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(&self.self_s)
            .filter(|(s, _)| self.passes.contains(&s.group) && s.name == name)
            .map(|(_, &t)| t)
            .collect();
        median(&v).unwrap_or(0.0)
    }

    /// Median over traced passes of a counter's per-pass total.
    fn count(&self, name: &str) -> f64 {
        let mut by_group: BTreeMap<Group, f64> = BTreeMap::new();
        for c in self.counts {
            if self.passes.contains(&c.group) && c.name == name {
                *by_group.entry(c.group).or_default() += c.value;
            }
        }
        median(&by_group.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

/// Service operation classes, as in `service.busy_us.<class>`.
const SERVICE_OPS: [&str; 6] = [
    "nbr_left",
    "nbr_right",
    "match_of",
    "insert",
    "remove",
    "full_rematch",
];

/// Metrics the workload measures itself rather than through spans.
const WORKLOAD_LAYER: [(&str, &str); 5] = [
    ("service.lock_wait_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.generator_late_ms", "ms"),
    ("service.compactions", "count"),
    ("service.tombstone_ratio_end", "ratio"),
];

/// The per-layer metrics of a traced run. Layers a workload never enters
/// read 0.
pub fn per_layer(out: &Outcome, spans: &[Span], counts: &[Count]) -> Vec<Metric> {
    let t = Trace::new(spans, counts);
    let mut m = vec![metric(
        "datasets.generate_s",
        "s",
        t.per_setup("datasets.generate"),
    )];

    m.push(metric(
        "pipeline.build_s",
        "s",
        t.per_pass(|n| n.starts_with("pipeline.build.")),
    ));
    for fam in FAMILIES {
        let name = format!("pipeline.build.{fam}");
        m.push(metric(
            format!("pipeline.build_s.{fam}"),
            "s",
            t.per_pass(|n| n == name),
        ));
    }
    m.push(metric(
        "pipeline.build_t1_s",
        "s",
        t.breakdown(|n| n.starts_with("pipeline.build_t1.")),
    ));
    let generated = t.count("pipeline.generated_pairs");
    let retained = t.count("pipeline.retained_edges");
    m.push(metric("pipeline.generated_pairs", "count", generated));
    m.push(metric(
        "pipeline.pruned_pairs",
        "count",
        t.count("pipeline.pruned_pairs"),
    ));
    m.push(metric(
        "pipeline.scored_pairs",
        "count",
        t.count("pipeline.scored_pairs"),
    ));
    let ratio = if generated > 0.0 {
        retained / generated
    } else {
        0.0
    };
    m.push(metric("pipeline.retained_per_generated", "ratio", ratio));
    m.push(metric(
        "pipeline.shards",
        "count",
        t.count("pipeline.shards"),
    ));
    m.push(metric(
        "pipeline.spilled_bytes",
        "bytes",
        t.count("pipeline.spilled_bytes"),
    ));
    m.push(metric(
        "pipeline.merged_bytes",
        "bytes",
        t.count("pipeline.merged_bytes"),
    ));
    m.push(metric(
        "pipeline.peak_resident_edges",
        "count",
        t.count("pipeline.peak_resident_edges"),
    ));

    m.push(metric(
        "core.store_open_s",
        "s",
        t.per_pass(|n| n == "core.store_open"),
    ));

    m.push(metric(
        "matchers.prepare_s",
        "s",
        t.per_pass(|n| n == "matchers.prepare"),
    ));
    for kind in ALGORITHMS {
        let name = format!("matchers.run.{}", kind.name());
        m.push(metric(
            format!("matchers.run_ms.{}", kind.name()),
            "ms",
            t.per_pass(|n| n == name) * 1e3,
        ));
    }
    m.push(metric(
        "matchers.resident_edge_copies",
        "count",
        t.count("matchers.resident_edge_copies"),
    ));

    m.push(metric(
        "eval.sweep_s",
        "s",
        t.per_pass(|n| n == "eval.sweep"),
    ));
    for kind in ALGORITHMS {
        let name = format!("eval.sweep.{}", kind.name());
        m.push(metric(
            format!("eval.sweep_s.{}", kind.name()),
            "s",
            t.breakdown(|n| n == name),
        ));
    }

    m.push(metric("service.load_s", "s", t.per_setup("service.load")));
    for op in SERVICE_OPS {
        m.push(metric(
            format!("service.busy_us.{op}"),
            "us",
            t.per_call(&format!("service.{op}")) * 1e6,
        ));
    }
    for (name, unit) in WORKLOAD_LAYER {
        let v = out
            .layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        m.push(metric(name, unit, v));
    }

    let overhead = match (median(&out.traced_pass_s), median(&out.pass_s)) {
        (Some(traced), Some(plain)) if plain > 0.0 => (traced / plain - 1.0) * 100.0,
        _ => 0.0,
    };
    m.push(metric("trace.overhead_pct", "%", overhead));
    m
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}
