//! Pipeline configuration.

use serde::Serialize;

/// Which kernel set the scoring engine runs.
///
/// Both modes produce **bit-identical** graphs for every branch of the
/// taxonomy, every candidate mode and every thread count — the lane
/// kernels replicate the scalar float/integer operation sequences per
/// lane (see `er_textsim::lanes` / `er_embed::lanes` and DESIGN.md §19;
/// property-proven in `tests/kernel_props.rs` and
/// `tests/graphgen_props.rs`). What changes is throughput: lanes
/// advance up to eight candidates per kernel step, turning the serial
/// per-candidate dependency chains into independent lanes the core can
/// overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum KernelMode {
    /// One-candidate-at-a-time kernels (the PR 5–8 engine).
    Scalar,
    /// Lane-parallel batch kernels: multi-text Myers, batched
    /// length/counting-filter screens, lane-parallel dense dot/cosine
    /// and batched WMD token distances. The default — strictly more
    /// work per step at identical results.
    #[default]
    Lanes,
}

/// Knobs for graph generation.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineConfig {
    /// Cap on token-bag size for schema-agnostic Word Mover's similarity.
    ///
    /// Relaxed WMD is quadratic in bag size; whole-profile texts can carry
    /// dozens of tokens. Capping at the first `wmd_token_cap` tokens bounds
    /// the cost while preserving the measure's character (documented
    /// substitution; schema-based values stay uncapped in practice as they
    /// are short).
    pub wmd_token_cap: usize,
    /// Number of worker threads (0 = all cores). Governs the corpus
    /// runner's across-graph fan-out, the construction engine's
    /// within-graph left-row sharding and the out-of-core build's merge
    /// workers (clamped to the shard count); the runner divides its
    /// budget so the fan-outs never multiply (see
    /// `runner::generate_corpus`).
    pub threads: usize,
    /// Which kernel set scores candidates. Both settings build
    /// bit-identical graphs; [`KernelMode::Lanes`] (the default) batches
    /// up to eight candidates per kernel step.
    pub kernel_mode: KernelMode,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            wmd_token_cap: 16,
            threads: 0,
            kernel_mode: KernelMode::default(),
        }
    }
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
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PipelineConfig::default();
        assert!(c.wmd_token_cap >= 8);
        assert!(c.effective_threads() >= 1);
        let c2 = PipelineConfig {
            threads: 3,
            ..PipelineConfig::default()
        };
        assert_eq!(c2.effective_threads(), 3);
    }

    #[test]
    fn divided_among_splits_without_multiplying() {
        let c = PipelineConfig {
            threads: 8,
            ..PipelineConfig::default()
        };
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
