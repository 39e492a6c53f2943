//! One module per table/figure of the paper's evaluation.
//!
//! Every experiment is a pure function `&RunData -> String` (Table 1 is
//! static), so outputs are reproducible from a cached record set.

pub mod conclusions;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig9;
pub mod nemenyi_figs;
pub mod oracle;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;
pub mod tradeoff;

use er_matchers::AlgorithmKind;

use crate::records::{AlgoOutcome, GraphRecord};

/// Which effectiveness metric an analysis ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Precision.
    Precision,
    /// Recall.
    Recall,
    /// F-Measure.
    F1,
}

impl Metric {
    /// Extract the metric from an outcome.
    pub fn of(&self, o: &AlgoOutcome) -> f64 {
        match self {
            Metric::Precision => o.precision,
            Metric::Recall => o.recall,
            Metric::F1 => o.f1,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Precision => "Precision",
            Metric::Recall => "Recall",
            Metric::F1 => "F-Measure",
        }
    }
}

/// Per-algorithm metric values of one record, in `AlgorithmKind::ALL` order.
pub fn metric_row(record: &GraphRecord, metric: Metric) -> Vec<f64> {
    AlgorithmKind::ALL
        .iter()
        .map(|&k| metric.of(record.outcome(k)))
        .collect()
}

/// Collect one algorithm's metric across records.
pub fn metric_series<'a>(
    records: impl Iterator<Item = &'a GraphRecord>,
    kind: AlgorithmKind,
    metric: Metric,
) -> Vec<f64> {
    records.map(|r| metric.of(r.outcome(kind))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::testkit::sample_rundata;

    #[test]
    fn metric_row_follows_all_order() {
        let rd = sample_rundata();
        let row = metric_row(&rd.records[0], Metric::F1);
        assert_eq!(row.len(), 8);
        assert_eq!(row[0], rd.records[0].outcome(AlgorithmKind::Cnc).f1);
        assert_eq!(row[7], rd.records[0].outcome(AlgorithmKind::Umc).f1);
    }

    #[test]
    fn metric_series_filters() {
        let rd = sample_rundata();
        let s = metric_series(rd.of_dataset("D1"), AlgorithmKind::Umc, Metric::Recall);
        assert_eq!(s.len(), 2);
    }
}
