//! The ccer benchmark: end-to-end and per-layer metrics over four
//! workloads, measured from outside through the library crates' public
//! functions (all routed through [`api`]).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-catalog|sweep-dense|topk-store|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an
//! untraced run (`--trace 0`), or the per-layer metrics of a traced run
//! (`--trace 1`). The line before it is the full record, stamped with the
//! host and the run. The record and, for traced runs, every span are also
//! written under `perfbench/out/`.

pub mod alloc;
pub mod api;
pub mod digest;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
