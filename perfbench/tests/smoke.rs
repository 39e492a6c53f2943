//! Every workload at its smoke size, untraced and traced, through the real
//! command line: each metric `BENCHMARK.json` names must print with its
//! unit, and the output checks must have run and passed.

use std::process::Command;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`, which
/// keeps one metric per line.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = text[start..].find(']').map_or(text.len(), |e| start + e);
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    text[start..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload} trace {trace}: {line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
        assert!(
            !line.contains("\"attempted\": 0,"),
            "{workload}: no checks ran"
        );
        let metrics = listed(section);
        assert!(!metrics.is_empty(), "no {section} metrics listed");
        for (name, unit) in &metrics {
            let want = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&want)
                .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
            let tail = &line[at..];
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(
                tail[..tail.find('}').map_or(tail.len(), |e| e + 1)].ends_with(&unit_field),
                "{workload}: {name} not in {unit}"
            );
        }
        assert_eq!(
            line.matches("\"unit\": ").count(),
            metrics.len(),
            "{workload}: metrics beyond {section}"
        );
    }
}

#[test]
fn paper_catalog_smoke() {
    check("paper-catalog");
}

#[test]
fn sweep_dense_smoke() {
    check("sweep-dense");
}

#[test]
fn topk_store_smoke() {
    check("topk-store");
}

#[test]
fn serve_mixed_smoke() {
    check("serve-mixed");
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such", "--seed", "1", "--seconds", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result on a refused run");
}
