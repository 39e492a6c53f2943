//! Full CCER clustering output: matched pairs plus singletons.
//!
//! §2 of the paper: "the output of ER, ideally, is a set of clusters C,
//! each containing all the matching profiles … the resulting clusters
//! should contain at most two profiles, one from each collection.
//! Singular clusters, corresponding to profiles for which no match has
//! been found, are also acceptable." Pair-level metrics only need the
//! [`Matching`]; this view materializes the complete partition for
//! downstream consumers (e.g. writing resolved records back out).

use serde::{Deserialize, Serialize};

use crate::matching::Matching;

/// One output cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cluster {
    /// A matched pair: one entity from each collection.
    Pair {
        /// Entity id in `V1`.
        left: u32,
        /// Entity id in `V2`.
        right: u32,
    },
    /// An unmatched `V1` entity.
    LeftSingleton(u32),
    /// An unmatched `V2` entity.
    RightSingleton(u32),
}

/// The complete partition of `V1 ∪ V2` induced by a matching.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Clustering {
    clusters: Vec<Cluster>,
    n_pairs: usize,
}

impl Clustering {
    /// Materialize the clustering of a matching over collections of the
    /// given sizes: every matched pair plus one singleton per unmatched
    /// entity. Pairs come first, then left singletons, then right ones.
    pub fn from_matching(m: &Matching, n_left: u32, n_right: u32) -> Self {
        let mut matched_left = vec![false; n_left as usize];
        let mut matched_right = vec![false; n_right as usize];
        let mut clusters = Vec::with_capacity(n_left as usize + n_right as usize - m.len());
        for (l, r) in m.iter() {
            debug_assert!(l < n_left && r < n_right, "pair out of bounds");
            matched_left[l as usize] = true;
            matched_right[r as usize] = true;
            clusters.push(Cluster::Pair { left: l, right: r });
        }
        for (i, &used) in matched_left.iter().enumerate() {
            if !used {
                clusters.push(Cluster::LeftSingleton(i as u32));
            }
        }
        for (j, &used) in matched_right.iter().enumerate() {
            if !used {
                clusters.push(Cluster::RightSingleton(j as u32));
            }
        }
        Clustering {
            n_pairs: m.len(),
            clusters,
        }
    }

    /// All clusters: pairs first, then singletons.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of 2-entity clusters.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of singleton clusters.
    pub fn n_singletons(&self) -> usize {
        self.clusters.len() - self.n_pairs
    }

    /// Total number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters at all (both collections empty).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster containing a `V1` entity.
    pub fn cluster_of_left(&self, id: u32) -> Option<Cluster> {
        self.clusters.iter().copied().find(|c| {
            matches!(c, Cluster::Pair { left, .. } if *left == id)
                || matches!(c, Cluster::LeftSingleton(l) if *l == id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_every_node_exactly_once() {
        let m = Matching::new(vec![(0, 1), (2, 0)]);
        let c = Clustering::from_matching(&m, 4, 3);
        // 2 pairs + 2 left singletons (1, 3) + 1 right singleton (2).
        assert_eq!(c.n_pairs(), 2);
        assert_eq!(c.n_singletons(), 3);
        assert_eq!(c.len(), 5);
        // Node coverage: 4 + 3 nodes = 2*2 + 3 singles.
        let covered: usize = c
            .clusters()
            .iter()
            .map(|cl| match cl {
                Cluster::Pair { .. } => 2,
                _ => 1,
            })
            .sum();
        assert_eq!(covered, 7);
    }

    #[test]
    fn lookup_by_side() {
        let m = Matching::new(vec![(1, 1)]);
        let c = Clustering::from_matching(&m, 2, 2);
        assert_eq!(
            c.cluster_of_left(1),
            Some(Cluster::Pair { left: 1, right: 1 })
        );
        assert_eq!(c.cluster_of_left(0), Some(Cluster::LeftSingleton(0)));
        assert_eq!(c.cluster_of_left(5), None);
    }

    #[test]
    fn empty_matching_and_collections() {
        let c = Clustering::from_matching(&Matching::empty(), 0, 0);
        assert!(c.is_empty());
        let c = Clustering::from_matching(&Matching::empty(), 2, 1);
        assert_eq!(c.n_pairs(), 0);
        assert_eq!(c.n_singletons(), 3);
    }
}
