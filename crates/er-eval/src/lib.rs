#![warn(missing_docs)]

//! # er-eval — evaluation framework
//!
//! Implements the paper's full evaluation protocol (§5–§6):
//!
//! * pair-level **precision / recall / F-Measure** against the ground truth
//!   ([`metrics`]);
//! * the **threshold sweep**: every algorithm × every threshold in
//!   0.05..=1.0 step 0.05, selecting the *largest* threshold that achieves
//!   the highest F1 ([`sweep`]), with BMC evaluated under both bases —
//!   executed by the incremental, parallel [`SweepEngine`] (sorted-prefix
//!   edge views, descending-threshold state reuse, scoped worker threads);
//! * run-time measurement at the optimal threshold over repeated
//!   executions ([`timing`]);
//! * macro-averages with standard deviations ([`aggregate`]);
//! * the BLC/OSD/SCR **category analysis** with #Top1 / Δ% / #Top2 and tie
//!   handling ([`category`]);
//! * the **Friedman test** and post-hoc **Nemenyi** critical-distance
//!   analysis with ASCII CD diagrams ([`friedman`], [`nemenyi`]);
//! * **Pearson correlations** and **quartile** descriptive statistics for
//!   the threshold analysis ([`mod@pearson`], [`quartiles`]);
//! * the F1-dependent corpus **cleaning rules** 2–3 ([`cleaning`]);
//! * plain-text table rendering shared by the harness ([`report`]).

pub mod aggregate;
pub mod category;
pub mod cleaning;
pub mod friedman;
pub mod metrics;
pub mod nemenyi;
pub mod pearson;
pub mod quartiles;
pub mod report;
pub mod sweep;
pub mod timing;

pub use aggregate::{mean_std, MeanStd};
pub use category::{top_counts, TopCounts};
pub use cleaning::{dedup_duplicate_inputs, is_noisy_graph, GraphFingerprint};
pub use friedman::{friedman_test, FriedmanResult};
pub use metrics::{evaluate, PrecisionRecall};
pub use nemenyi::{nemenyi_critical_distance, render_cd_diagram, NemenyiAnalysis};
pub use pearson::{pearson, pearson_matrix};
pub use quartiles::Quartiles;
pub use report::Table;
pub use sweep::{sweep_naive, SweepEngine, SweepResult};
pub use timing::{time_algorithm, TimingStats};
