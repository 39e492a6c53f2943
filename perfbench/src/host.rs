//! The host and build stamp every record carries, so numbers from
//! different machines or toolchains are never compared by accident.

use crate::report::json_str;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model from `/proc/cpuinfo`, if the platform has one.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The stamp as a JSON object.
pub fn stamp(workload: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}, \"workload\": {}, \
         \"seed\": {seed}, \"seconds\": {seconds}, \"traced\": {traced}, \"size\": {}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_GIT_REV")),
        json_str(workload),
        json_str(if smoke { "smoke" } else { "full" }),
    )
}
