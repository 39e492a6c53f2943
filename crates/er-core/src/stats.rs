//! Descriptive statistics of a similarity graph.
//!
//! These power the paper's Table 3 (graph counts and average sizes) and the
//! threshold-analysis correlations of Table 8 (`|E| / ||V1 × V2||`), plus
//! the cross-worker [`ConstructionCounters`] behind the streaming
//! construction engine's accounting (`er_pipeline::BuildStats`).

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use crate::graph::SimilarityGraph;
use crate::ground_truth::GroundTruth;

/// Atomic cross-worker accounting of one streaming graph construction.
///
/// Scoring workers accumulate locally per chunk and flush into these
/// counters; `Relaxed` ordering suffices because the construction joins
/// every worker before reading. The candidate-flow invariant every
/// construction path maintains is
/// `generated == pruned + scored` — a candidate handed to a scorer is
/// either skipped via an exact upper bound or fully scored, never both,
/// never silently dropped.
///
/// ```
/// use er_core::ConstructionCounters;
///
/// let c = ConstructionCounters::default();
/// c.add_generated(10);
/// c.add_pruned(4);
/// c.add_scored(6);
/// assert_eq!(c.generated(), c.pruned() + c.scored());
/// ```
#[derive(Debug, Default)]
pub struct ConstructionCounters {
    /// Candidate pairs handed to a scorer (enumerated or index-generated).
    generated: AtomicUsize,
    /// Triples emitted into the edge sink.
    offered: AtomicUsize,
    /// Triples resident right now (bounded row heaps + shard buffers).
    resident: AtomicUsize,
    /// Running peak of `resident`.
    peak: AtomicUsize,
    /// Candidates skipped via an exact upper bound before scoring.
    pruned: AtomicUsize,
    /// Candidates fully scored (then emitted or positivity-dropped).
    scored: AtomicUsize,
    /// Bytes an out-of-core build wrote for its shards' rows before the
    /// frame was known.
    spilled_bytes: AtomicUsize,
    /// Bytes of the store file an out-of-core build wrote.
    merged_bytes: AtomicUsize,
}

impl ConstructionCounters {
    /// Add to the generated-candidate tally.
    pub fn add_generated(&self, n: usize) {
        self.generated.fetch_add(n, Ordering::Relaxed);
    }

    /// Add to the offered-triple tally.
    pub fn add_offered(&self, n: usize) {
        self.offered.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one more resident triple and fold the new total into the
    /// running peak.
    pub fn add_resident(&self) {
        let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Release `n` resident triples — an out-of-core build calls this
    /// when a finished shard's buffers are spilled to disk and freed, so
    /// the peak tracks the *largest simultaneously resident* set rather
    /// than the cumulative total. Saturates at zero rather than wrapping
    /// if callers over-release.
    pub fn sub_resident(&self, n: usize) {
        let mut now = self.resident.load(Ordering::Relaxed);
        loop {
            let next = now.saturating_sub(n);
            match self.resident.compare_exchange_weak(
                now,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => now = seen,
            }
        }
    }

    /// Add to the shard-row byte tally.
    pub fn add_spilled_bytes(&self, n: usize) {
        self.spilled_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Add to the store-file byte tally.
    pub fn add_merged_bytes(&self, n: usize) {
        self.merged_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Add to the bound-pruned tally.
    pub fn add_pruned(&self, n: usize) {
        self.pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Add to the fully-scored tally.
    pub fn add_scored(&self, n: usize) {
        self.scored.fetch_add(n, Ordering::Relaxed);
    }

    /// Candidate pairs handed to a scorer.
    pub fn generated(&self) -> usize {
        self.generated.load(Ordering::Relaxed)
    }

    /// Triples emitted into the edge sink.
    pub fn offered(&self) -> usize {
        self.offered.load(Ordering::Relaxed)
    }

    /// Peak resident triples observed.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Candidates skipped via upper bounds.
    pub fn pruned(&self) -> usize {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Candidates fully scored.
    pub fn scored(&self) -> usize {
        self.scored.load(Ordering::Relaxed)
    }

    /// Bytes written for shard rows.
    pub fn spilled_bytes(&self) -> usize {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of the finished store file.
    pub fn merged_bytes(&self) -> usize {
        self.merged_bytes.load(Ordering::Relaxed)
    }
}

/// Summary statistics of one similarity graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// `|V1|`.
    pub n_left: u32,
    /// `|V2|`.
    pub n_right: u32,
    /// `|E|`.
    pub n_edges: usize,
    /// Minimum edge weight (0 if empty).
    pub min_weight: f64,
    /// Maximum edge weight (0 if empty).
    pub max_weight: f64,
    /// Mean edge weight (0 if empty).
    pub mean_weight: f64,
    /// Normalized size `|E| / (|V1| · |V2|)` — the paper's Table 8 regressor.
    pub normalized_size: f64,
}

impl GraphStats {
    /// Compute statistics for `g`.
    pub fn of(g: &SimilarityGraph) -> Self {
        let (min_weight, max_weight) = g.weight_range().unwrap_or((0.0, 0.0));
        let mean_weight = if g.is_empty() {
            0.0
        } else {
            g.edges().iter().map(|e| e.weight).sum::<f64>() / g.n_edges() as f64
        };
        let cartesian = g.n_left() as f64 * g.n_right() as f64;
        GraphStats {
            n_left: g.n_left(),
            n_right: g.n_right(),
            n_edges: g.n_edges(),
            min_weight,
            max_weight,
            mean_weight,
            normalized_size: if cartesian > 0.0 {
                g.n_edges() as f64 / cartesian
            } else {
                0.0
            },
        }
    }
}

/// Weight separation between matching and non-matching pairs of a graph,
/// relative to a ground truth. Used by the pipeline's cleaning rules (§5):
/// a graph where every true match has zero weight is discarded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightSeparation {
    /// Number of ground-truth pairs that appear as graph edges.
    pub matches_with_edges: usize,
    /// Maximum weight over ground-truth pairs present in the graph.
    pub max_match_weight: f64,
    /// Mean weight over ground-truth pairs present in the graph.
    pub mean_match_weight: f64,
    /// Mean weight over non-matching edges.
    pub mean_nonmatch_weight: f64,
}

impl WeightSeparation {
    /// Compute separation statistics for `g` against `gt`.
    pub fn of(g: &SimilarityGraph, gt: &GroundTruth) -> Self {
        let mut match_sum = 0.0;
        let mut match_max = 0.0f64;
        let mut match_n = 0usize;
        let mut non_sum = 0.0;
        let mut non_n = 0usize;
        for e in g.edges() {
            if gt.is_match(e.left, e.right) {
                match_sum += e.weight;
                match_max = match_max.max(e.weight);
                match_n += 1;
            } else {
                non_sum += e.weight;
                non_n += 1;
            }
        }
        WeightSeparation {
            matches_with_edges: match_n,
            max_match_weight: match_max,
            mean_match_weight: if match_n > 0 {
                match_sum / match_n as f64
            } else {
                0.0
            },
            mean_nonmatch_weight: if non_n > 0 {
                non_sum / non_n as f64
            } else {
                0.0
            },
        }
    }

    /// The paper's first cleaning rule: "we removed all similarity graphs
    /// where all matching entities had a zero edge weight".
    pub fn all_matches_zero(&self) -> bool {
        self.matches_with_edges == 0 || self.max_match_weight <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn sample() -> SimilarityGraph {
        let mut b = GraphBuilder::new(2, 3);
        b.add_edge(0, 0, 0.8).unwrap();
        b.add_edge(0, 1, 0.2).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn stats_basic() {
        let s = GraphStats::of(&sample());
        assert_eq!(s.n_left, 2);
        assert_eq!(s.n_right, 3);
        assert_eq!(s.n_edges, 3);
        assert_eq!(s.min_weight, 0.2);
        assert_eq!(s.max_weight, 0.8);
        assert!((s.mean_weight - 0.5).abs() < 1e-12);
        assert!((s.normalized_size - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_graph() {
        let g = GraphBuilder::new(0, 0).build();
        let s = GraphStats::of(&g);
        assert_eq!(s.n_edges, 0);
        assert_eq!(s.normalized_size, 0.0);
        assert_eq!(s.mean_weight, 0.0);
    }

    #[test]
    fn separation_distinguishes_match_weights() {
        let gt = GroundTruth::new(vec![(0, 0), (1, 2)]);
        let sep = WeightSeparation::of(&sample(), &gt);
        assert_eq!(sep.matches_with_edges, 2);
        assert_eq!(sep.max_match_weight, 0.8);
        assert!((sep.mean_match_weight - 0.65).abs() < 1e-12);
        assert!((sep.mean_nonmatch_weight - 0.2).abs() < 1e-12);
        assert!(!sep.all_matches_zero());
    }

    #[test]
    fn separation_flags_zero_match_graphs() {
        let gt = GroundTruth::new(vec![(1, 0)]); // not an edge at all
        let sep = WeightSeparation::of(&sample(), &gt);
        assert!(sep.all_matches_zero());

        // Matches present but with zero weight.
        let mut b = GraphBuilder::new(1, 1);
        b.add_edge(0, 0, 0.0).unwrap();
        let g = b.build();
        let gt = GroundTruth::new(vec![(0, 0)]);
        assert!(WeightSeparation::of(&g, &gt).all_matches_zero());
    }
}
