//! The record set produced by a full reproduction run.

use serde::{Deserialize, Serialize};

use er_datasets::DatasetStats;
use er_matchers::AlgorithmKind;
use er_pipeline::WeightType;

/// One algorithm's outcome on one similarity graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgoOutcome {
    /// The algorithm.
    pub algorithm: AlgorithmKind,
    /// Optimal similarity threshold (largest achieving maximum F1).
    pub best_threshold: f64,
    /// Precision at the optimal threshold.
    pub precision: f64,
    /// Recall at the optimal threshold.
    pub recall: f64,
    /// F-Measure at the optimal threshold.
    pub f1: f64,
    /// Mean run-time at the optimal threshold (seconds).
    pub runtime_mean_s: f64,
    /// Run-time standard deviation (seconds).
    pub runtime_std_s: f64,
}

/// One similarity graph's full evaluation record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphRecord {
    /// Dataset label ("D1" … "D10").
    pub dataset: String,
    /// BLC / OSD / SCR category of the dataset.
    pub category: String,
    /// Which of the four input types produced the weights.
    pub weight_type: WeightType,
    /// The similarity function's stable name.
    pub function: String,
    /// Number of edges.
    pub n_edges: usize,
    /// `|E| / ||V1 × V2||`.
    pub normalized_size: f64,
    /// Per-algorithm outcomes, in [`AlgorithmKind::ALL`] order.
    pub outcomes: Vec<AlgoOutcome>,
}

impl GraphRecord {
    /// The outcome of a specific algorithm.
    pub fn outcome(&self, kind: AlgorithmKind) -> &AlgoOutcome {
        self.outcomes
            .iter()
            .find(|o| o.algorithm == kind)
            .expect("records carry all eight algorithms")
    }
}

/// How many graphs each cleaning rule removed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CleaningSummary {
    /// Rule 1: all matches at zero weight.
    pub rule1_zero_matches: usize,
    /// Rule 2: every algorithm below F1 = 0.25.
    pub rule2_noisy: usize,
    /// Rule 3: duplicate inputs.
    pub rule3_duplicates: usize,
}

/// Version stamp of the serialized [`RunData`] layout. Bump whenever a
/// record's shape **or meaning** changes (new fields, changed units,
/// different cleaning semantics): the on-disk JSON cache is keyed by run
/// parameters only, so without the stamp a layout change would keep
/// serving stale results from old caches. Caches written before the
/// stamp existed are rejected by serde itself (`missing field
/// format_version`).
pub const RUN_DATA_VERSION: u32 = 1;

/// A complete reproduction run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunData {
    /// Layout version this run was serialized under; caches with any
    /// other value are recomputed. See [`RUN_DATA_VERSION`].
    pub format_version: u32,
    /// Scale factor applied to Table 2 sizes.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Timing repetitions per (graph, algorithm).
    pub timing_reps: usize,
    /// Table 2 statistics of the generated datasets.
    pub dataset_stats: Vec<DatasetStats>,
    /// One record per retained similarity graph.
    pub records: Vec<GraphRecord>,
    /// Cleaning-rule accounting.
    pub cleaning: CleaningSummary,
}

impl RunData {
    /// Records of one dataset.
    pub fn of_dataset<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a GraphRecord> {
        self.records.iter().filter(move |r| r.dataset == label)
    }

    /// Records of one weight type.
    pub fn of_type(&self, wt: WeightType) -> impl Iterator<Item = &GraphRecord> {
        self.records.iter().filter(move |r| r.weight_type == wt)
    }

    /// Total number of retained similarity graphs.
    pub fn n_graphs(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    use super::*;

    /// A small synthetic record set for experiment unit tests.
    pub fn sample_rundata() -> RunData {
        let mk = |ds: &str, cat: &str, wt: WeightType, f1s: [f64; 8], edges: usize| GraphRecord {
            dataset: ds.into(),
            category: cat.into(),
            weight_type: wt,
            function: format!("fn-{ds}-{edges}"),
            n_edges: edges,
            normalized_size: edges as f64 / 1e4,
            outcomes: AlgorithmKind::ALL
                .into_iter()
                .zip(f1s)
                .map(|(algorithm, f1)| AlgoOutcome {
                    algorithm,
                    best_threshold: 0.3 + f1 / 10.0,
                    precision: (f1 + 0.05).min(1.0),
                    recall: (f1 - 0.05).max(0.0),
                    f1,
                    runtime_mean_s: 0.001 * edges as f64 / 1000.0,
                    runtime_std_s: 0.0001,
                })
                .collect(),
        };
        RunData {
            format_version: RUN_DATA_VERSION,
            scale: 0.01,
            seed: 1,
            timing_reps: 2,
            dataset_stats: vec![],
            records: vec![
                mk(
                    "D1",
                    "SCR",
                    WeightType::SchemaBasedSyntactic,
                    [0.5, 0.5, 0.45, 0.3, 0.55, 0.6, 0.62, 0.61],
                    1000,
                ),
                mk(
                    "D1",
                    "SCR",
                    WeightType::SchemaAgnosticSyntactic,
                    [0.4, 0.42, 0.41, 0.2, 0.5, 0.52, 0.56, 0.55],
                    5000,
                ),
                mk(
                    "D2",
                    "BLC",
                    WeightType::SchemaBasedSyntactic,
                    [0.3, 0.35, 0.4, 0.5, 0.6, 0.58, 0.65, 0.66],
                    2000,
                ),
                mk(
                    "D2",
                    "BLC",
                    WeightType::SchemaBasedSemantic,
                    [0.2, 0.25, 0.3, 0.45, 0.5, 0.48, 0.55, 0.54],
                    8000,
                ),
            ],
            cleaning: CleaningSummary::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::sample_rundata;
    use super::*;

    #[test]
    fn accessors_filter_correctly() {
        let rd = sample_rundata();
        assert_eq!(rd.n_graphs(), 4);
        assert_eq!(rd.of_dataset("D1").count(), 2);
        assert_eq!(rd.of_type(WeightType::SchemaBasedSyntactic).count(), 2);
        let r = &rd.records[0];
        assert_eq!(r.outcome(AlgorithmKind::Krc).f1, 0.62);
    }

    #[test]
    fn rundata_round_trips_through_json() {
        let rd = sample_rundata();
        let json = serde_json::to_string(&rd).unwrap();
        let back: RunData = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_graphs(), rd.n_graphs());
        assert_eq!(back.records[1].function, rd.records[1].function);
    }
}
