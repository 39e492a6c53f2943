//! Pipeline configuration.

use serde::Serialize;

/// Knobs for graph generation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PipelineConfig {
    /// Number of worker threads (0 = all cores). Governs the corpus
    /// runner's across-graph fan-out and the construction engine's
    /// within-graph left-row sharding; the runner divides its budget so
    /// the fan-outs never multiply (see `runner::generate_corpus`).
    pub threads: usize,
}

impl PipelineConfig {
    /// Effective worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The config an outer fan-out (corpus runner, repro harness) hands
    /// to each of its `workers` per-graph builds: the thread budget is
    /// **divided**, `⌊T / workers⌋` (at least 1) intra-graph threads, so
    /// nested fan-outs never multiply into `T × T` threads.
    pub fn divided_among(&self, workers: usize) -> PipelineConfig {
        PipelineConfig {
            threads: (self.effective_threads() / workers.max(1)).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PipelineConfig::default();
        assert!(c.effective_threads() >= 1);
        let c2 = PipelineConfig { threads: 3 };
        assert_eq!(c2.effective_threads(), 3);
    }

    #[test]
    fn divided_among_splits_without_multiplying() {
        let c = PipelineConfig { threads: 8 };
        assert_eq!(c.divided_among(4).effective_threads(), 2);
        assert_eq!(c.divided_among(8).effective_threads(), 1);
        assert_eq!(c.divided_among(100).effective_threads(), 1, "floors at 1");
        assert_eq!(
            c.divided_among(0).effective_threads(),
            8,
            "0 workers → whole budget"
        );
        assert_eq!(c.divided_among(1).effective_threads(), 8);
    }
}
