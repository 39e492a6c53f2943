//! Experimental: a Q-learning bipartite matcher (the paper's future work).
//!
//! The paper's related work cites Wang et al. (ICDE 2019), who match
//! bipartite graphs with reinforcement learning: "a state is represented
//! by the pair (|L|, |R|), where L ⊆ V1, R ⊆ V2 are the nodes matched from
//! the two partitions, and the reward is computed as the sum of the
//! weights of the selected matches". The study excludes it ("we consider
//! only learning-free methods, but we plan to further explore it in our
//! future works"); this module provides that exploration as a clearly
//! experimental **extension** — it is *not* part of the evaluated eight
//! and never enters the reproduction tables.
//!
//! Adaptation to the offline CCER setting: edges stream in descending
//! weight (the same deterministic order UMC consumes); the agent decides
//! *accept* or *skip* for each compatible edge. States discretize the
//! matched fraction (the |L|/|R| signal of the original) together with the
//! current edge's weight bucket; rewards are the accepted edge weights.
//! Tabular Q-learning with ε-greedy exploration trains over repeated
//! episodes on the same graph, then a greedy rollout of the learned policy
//! produces the matching. Deterministic for a fixed seed.

use er_core::Matching;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matcher::{EdgeView, Matcher};

/// Hyper-parameters of the Q-learning matcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QLearnConfig {
    /// Training episodes over the edge stream.
    pub episodes: usize,
    /// Learning rate α.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Initial exploration rate ε (decays linearly to 0 over training).
    pub epsilon: f64,
    /// Discretization buckets per state dimension.
    pub buckets: usize,
    /// RNG seed (exploration only; rollout is greedy).
    pub seed: u64,
}

impl Default for QLearnConfig {
    fn default() -> Self {
        QLearnConfig {
            episodes: 60,
            alpha: 0.2,
            gamma: 0.95,
            epsilon: 0.4,
            buckets: 8,
            seed: 0x091e_a412,
        }
    }
}

/// The experimental Q-learning matcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct QMatcher {
    /// Training configuration.
    pub config: QLearnConfig,
}

const ACTIONS: usize = 2; // 0 = skip, 1 = accept

impl QMatcher {
    fn state(&self, matched: usize, max_matched: usize, weight: f64) -> usize {
        let b = self.config.buckets;
        let frac = if max_matched == 0 {
            0.0
        } else {
            matched as f64 / max_matched as f64
        };
        let m_bucket = ((frac * b as f64) as usize).min(b - 1);
        let w_bucket = ((weight * b as f64) as usize).min(b - 1);
        m_bucket * b + w_bucket
    }

    /// One pass over the edge stream under an ε-greedy policy; updates Q
    /// in place and returns the resulting pairs.
    #[allow(clippy::too_many_arguments)]
    fn episode(
        &self,
        edges: &[(f64, u32, u32)],
        n_left: usize,
        n_right: usize,
        q: &mut [f64],
        epsilon: f64,
        rng: &mut StdRng,
    ) -> Vec<(u32, u32)> {
        let max_matched = n_left.min(n_right).max(1);
        let mut matched_left = vec![false; n_left];
        let mut matched_right = vec![false; n_right];
        let mut pairs = Vec::new();
        // (state, action) trace for the backward-free online update: we
        // update on transition, so only the previous decision is needed.
        let mut prev: Option<(usize, usize, f64)> = None; // (state, action, reward)
        for &(w, l, r) in edges {
            if matched_left[l as usize] || matched_right[r as usize] {
                continue; // incompatible: no decision to make
            }
            let s = self.state(pairs.len(), max_matched, w);
            // Online TD update for the previous decision, now that the
            // successor state is known.
            if let Some((ps, pa, pr)) = prev {
                let best_next = q[s * ACTIONS].max(q[s * ACTIONS + 1]);
                let idx = ps * ACTIONS + pa;
                q[idx] += self.config.alpha * (pr + self.config.gamma * best_next - q[idx]);
            }
            let a = if rng.gen::<f64>() < epsilon {
                rng.gen_range(0..ACTIONS)
            } else if q[s * ACTIONS + 1] >= q[s * ACTIONS] {
                1
            } else {
                0
            };
            let reward = if a == 1 {
                matched_left[l as usize] = true;
                matched_right[r as usize] = true;
                pairs.push((l, r));
                w
            } else {
                0.0
            };
            prev = Some((s, a, reward));
        }
        // Terminal update: no successor value.
        if let Some((ps, pa, pr)) = prev {
            let idx = ps * ACTIONS + pa;
            q[idx] += self.config.alpha * (pr - q[idx]);
        }
        pairs
    }
}

impl Matcher for QMatcher {
    fn name(&self) -> &'static str {
        "QRL"
    }

    fn run_view(&self, view: &EdgeView<'_, '_>) -> Matching {
        // The view's strict prefix is already in edge_key_desc order.
        let edges: Vec<(f64, u32, u32)> = view
            .edges()
            .iter()
            .map(|e| (e.weight, e.left, e.right))
            .collect();
        if edges.is_empty() {
            return Matching::empty();
        }

        let b = self.config.buckets;
        let mut q = vec![0.0f64; b * b * ACTIONS];
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n_left = view.n_left() as usize;
        let n_right = view.n_right() as usize;

        // Train with linearly decaying exploration …
        for ep in 0..self.config.episodes {
            let eps = self.config.epsilon * (1.0 - ep as f64 / self.config.episodes.max(1) as f64);
            let _ = self.episode(&edges, n_left, n_right, &mut q, eps, &mut rng);
        }
        // … then roll out the greedy policy.
        let pairs = self.episode(&edges, n_left, n_right, &mut q, 0.0, &mut rng);
        Matching::new(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::PreparedGraph;
    use crate::testkit::{diamond, figure1};
    use crate::umc::Umc;

    #[test]
    fn produces_valid_matchings() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = QMatcher::default().run(&pg, 0.5);
        assert!(m.is_unique_mapping());
        for (l, r) in m.iter() {
            assert!(g.weight_of(l, r).unwrap() > 0.5);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        let a = QMatcher::default().run(&pg, 0.1);
        let b = QMatcher::default().run(&pg, 0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn learns_to_accept_heavy_edges() {
        // On an easy graph the learned policy must not be pathological:
        // it should capture a decent fraction of the greedy (UMC) weight.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let q = QMatcher::default().run(&pg, 0.3).total_weight(&g);
        let umc = Umc.run(&pg, 0.3).total_weight(&g);
        assert!(
            q >= 0.5 * umc,
            "Q-learning weight {q:.3} too far below greedy {umc:.3}"
        );
    }

    #[test]
    fn empty_and_pruned_graphs() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        assert!(QMatcher::default().run(&pg, 0.95).is_empty());
    }

    #[test]
    fn more_episodes_never_invalidates_output() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        for episodes in [1, 10, 100] {
            let m = QMatcher {
                config: QLearnConfig {
                    episodes,
                    ..QLearnConfig::default()
                },
            }
            .run(&pg, 0.1);
            assert!(m.is_unique_mapping(), "episodes = {episodes}");
        }
    }
}
