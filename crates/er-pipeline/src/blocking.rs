//! Blocking — step (i) of the CCER pipeline.
//!
//! §2 of the paper: "a typical CCER pipeline involves the steps of
//! (i) (meta-)blocking, i.e., indexing steps that generate candidate
//! matching pairs, this way reducing the otherwise quadratic search space
//! of matches, (ii) matching, … and (iii) bipartite graph matching". The
//! paper's evaluation deliberately skips this step ("we do not apply any
//! blocking method when producing these inputs"), letting the similarity
//! threshold play its role; a production pipeline, however, cannot score
//! `|V1|·|V2|` pairs. This module provides the standard learning-free
//! block-building stack from the blocking survey the paper builds on:
//!
//! * **Token blocking** — one block per normalized token occurring on
//!   both sides; redundancy-positive and schema-agnostic.
//! * **Block purging** — drop oversized blocks (stop-word keys) whose
//!   comparison count exceeds a cap.
//! * **Block filtering** — keep each entity only in its `⌈r·|Bₑ|⌉`
//!   smallest blocks, shrinking the comparison set around every entity.
//!
//! plus the standard blocking quality measures (pairs completeness, pairs
//! quality, reduction ratio) and [`restrict_graph`], which turns a scored
//! similarity graph into its blocked counterpart so the effect of
//! blocking on the *matching algorithms* can be isolated.

use er_core::{FxHashMap, FxHashSet, GraphBuilder, GroundTruth, SimilarityGraph};
use er_datasets::EntityCollection;
use er_textsim::tokenize::{normalize_text, tokens};

/// One block: the entities of each collection sharing a blocking key.
#[derive(Debug, Clone)]
pub struct Block {
    /// The blocking key (a normalized token).
    pub key: String,
    /// Entity ids from `V1`.
    pub left: Vec<u32>,
    /// Entity ids from `V2`.
    pub right: Vec<u32>,
}

impl Block {
    /// Cross-source comparisons this block suggests.
    #[inline]
    pub fn comparisons(&self) -> u64 {
        self.left.len() as u64 * self.right.len() as u64
    }

    /// Total entities in the block.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.left.len() + self.right.len()
    }
}

/// A set of blocks over two clean collections.
#[derive(Debug, Clone)]
pub struct BlockCollection {
    blocks: Vec<Block>,
    n_left: u32,
    n_right: u32,
}

impl BlockCollection {
    /// The blocks, sorted by key.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// **Block purging**: drop every block whose comparison count exceeds
    /// `max_comparisons`. Oversized blocks stem from stop-word-like keys
    /// and contribute quadratically many, mostly useless comparisons.
    pub fn purge(mut self, max_comparisons: u64) -> Self {
        self.blocks.retain(|b| b.comparisons() <= max_comparisons);
        self
    }

    /// **Block filtering**: keep each entity only in the `⌈ratio·|Bₑ|⌉`
    /// smallest (by cardinality) of its blocks; a comparison survives only
    /// if *both* entities keep the block. `ratio` must lie in `(0, 1]`
    /// (values above 1 are clamped down); `1.0` is a no-op.
    ///
    /// # Panics
    ///
    /// Panics on `ratio <= 0.0` or NaN. A non-positive ratio has no
    /// meaningful reading — the old behaviour silently clamped it to
    /// `f64::MIN_POSITIVE`, turning an invalid argument into a near-zero
    /// filter that kept exactly one block per entity.
    pub fn filter(self, ratio: f64) -> Self {
        assert!(
            ratio > 0.0,
            "block-filtering ratio must be positive, got {ratio}"
        );
        let ratio = ratio.min(1.0);
        if ratio >= 1.0 {
            return self;
        }
        // Rank blocks by cardinality (ties: key order — blocks are sorted).
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..self.blocks.len()).collect();
            idx.sort_by_key(|&i| self.blocks[i].cardinality());
            let mut rank = vec![0usize; self.blocks.len()];
            for (pos, &i) in idx.iter().enumerate() {
                rank[i] = pos;
            }
            rank
        };

        // Per-entity block lists (indices into self.blocks).
        let mut left_blocks: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        let mut right_blocks: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for (i, b) in self.blocks.iter().enumerate() {
            for &l in &b.left {
                left_blocks.entry(l).or_default().push(i);
            }
            for &r in &b.right {
                right_blocks.entry(r).or_default().push(i);
            }
        }

        let keep = |blocks: &mut FxHashMap<u32, Vec<usize>>| -> FxHashMap<u32, FxHashSet<usize>> {
            let mut kept = FxHashMap::default();
            for (&e, list) in blocks.iter_mut() {
                list.sort_by_key(|&i| order[i]);
                let k = ((ratio * list.len() as f64).ceil() as usize).max(1);
                kept.insert(e, list.iter().copied().take(k).collect());
            }
            kept
        };
        let left_kept = keep(&mut left_blocks);
        let right_kept = keep(&mut right_blocks);

        let blocks = self
            .blocks
            .into_iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let left: Vec<u32> = b
                    .left
                    .iter()
                    .copied()
                    .filter(|l| left_kept.get(l).is_some_and(|s| s.contains(&i)))
                    .collect();
                let right: Vec<u32> = b
                    .right
                    .iter()
                    .copied()
                    .filter(|r| right_kept.get(r).is_some_and(|s| s.contains(&i)))
                    .collect();
                if left.is_empty() || right.is_empty() {
                    None
                } else {
                    Some(Block {
                        key: b.key,
                        left,
                        right,
                    })
                }
            })
            .collect();
        BlockCollection {
            blocks,
            n_left: self.n_left,
            n_right: self.n_right,
        }
    }

    /// The deduplicated candidate pairs all blocks suggest.
    pub fn candidate_pairs(&self) -> FxHashSet<(u32, u32)> {
        let mut out = FxHashSet::default();
        for b in &self.blocks {
            for &l in &b.left {
                for &r in &b.right {
                    out.insert((l, r));
                }
            }
        }
        out
    }
}

/// Schema-agnostic token blocking: every normalized token appearing in any
/// attribute value is a blocking key; blocks that touch only one side are
/// dropped (they suggest no cross-source comparison).
pub fn token_blocking(left: &EntityCollection, right: &EntityCollection) -> BlockCollection {
    let mut index: FxHashMap<String, (Vec<u32>, Vec<u32>)> = FxHashMap::default();
    let mut insert = |side: usize, id: u32, profile: &er_datasets::EntityProfile| {
        let mut seen: FxHashSet<String> = FxHashSet::default();
        for value in profile.values() {
            for tok in tokens(&normalize_text(value)) {
                if seen.insert(tok.to_string()) {
                    let entry = index.entry(tok.to_string()).or_default();
                    if side == 0 {
                        entry.0.push(id);
                    } else {
                        entry.1.push(id);
                    }
                }
            }
        }
    };
    for (id, p) in left.profiles.iter().enumerate() {
        insert(0, id as u32, p);
    }
    for (id, p) in right.profiles.iter().enumerate() {
        insert(1, id as u32, p);
    }

    let mut blocks: Vec<Block> = index
        .into_iter()
        .filter(|(_, (l, r))| !l.is_empty() && !r.is_empty())
        .map(|(key, (left, right))| Block { key, left, right })
        .collect();
    blocks.sort_by(|a, b| a.key.cmp(&b.key));
    BlockCollection {
        blocks,
        n_left: left.len() as u32,
        n_right: right.len() as u32,
    }
}

/// The standard blocking quality measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingQuality {
    /// Pairs completeness: recall of the candidate set over the ground
    /// truth (1 when there are no true pairs).
    pub pairs_completeness: f64,
    /// Pairs quality: precision of the candidate set (1 when empty).
    pub pairs_quality: f64,
    /// Reduction ratio: `1 − |candidates| / (|V1|·|V2|)`.
    pub reduction_ratio: f64,
    /// Candidate pair count.
    pub n_candidates: u64,
}

/// Score a candidate set against the ground truth.
pub fn blocking_quality(
    candidates: &FxHashSet<(u32, u32)>,
    gt: &GroundTruth,
    n_left: u32,
    n_right: u32,
) -> BlockingQuality {
    let hits = gt
        .pairs()
        .iter()
        .filter(|&&(l, r)| candidates.contains(&(l, r)))
        .count() as u64;
    let n_candidates = candidates.len() as u64;
    let total = n_left as u64 * n_right as u64;
    BlockingQuality {
        pairs_completeness: if gt.is_empty() {
            1.0
        } else {
            hits as f64 / gt.len() as f64
        },
        pairs_quality: if n_candidates == 0 {
            1.0
        } else {
            hits as f64 / n_candidates as f64
        },
        reduction_ratio: if total == 0 {
            0.0
        } else {
            1.0 - n_candidates as f64 / total as f64
        },
        n_candidates,
    }
}

/// Restrict a scored similarity graph to the blocked candidate pairs,
/// keeping the full graph's normalized weights — the tool for isolating
/// blocking's effect on the *matching algorithms* over identical weights.
///
/// A production pipeline that blocks **before** scoring should use
/// [`crate::graphgen::build_graph_restricted`] instead: it scores only the
/// candidate pairs (instead of building the full graph and discarding most
/// of it) and normalizes over the restricted score set.
pub fn restrict_graph(g: &SimilarityGraph, candidates: &FxHashSet<(u32, u32)>) -> SimilarityGraph {
    let mut b = GraphBuilder::with_capacity(g.n_left(), g.n_right(), candidates.len());
    for e in g.edges() {
        if candidates.contains(&(e.left, e.right)) {
            b.add_edge(e.left, e.right, e.weight)
                .expect("edges of a valid graph remain valid");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::EntityProfile;

    fn collection(texts: &[&str]) -> EntityCollection {
        EntityCollection {
            profiles: texts
                .iter()
                .enumerate()
                .map(|(i, t)| EntityProfile::new(i as u32, vec![("name".into(), (*t).into())]))
                .collect(),
            attribute_names: vec!["name".into()],
        }
    }

    fn sample() -> (EntityCollection, EntityCollection) {
        (
            collection(&["apple iphone pro", "samsung galaxy", "nokia brick"]),
            collection(&["iphone pro max", "galaxy ultra", "sony xperia"]),
        )
    }

    #[test]
    fn token_blocking_builds_cross_blocks_only() {
        let (l, r) = sample();
        let bc = token_blocking(&l, &r);
        let keys: Vec<&str> = bc.blocks().iter().map(|b| b.key.as_str()).collect();
        // "iphone", "pro", "galaxy" co-occur; "apple", "nokia", "sony" etc.
        // appear on one side only and yield no block.
        assert_eq!(keys, vec!["galaxy", "iphone", "pro"]);
        assert_eq!(bc.n_blocks(), 3);
        let cands = bc.candidate_pairs();
        assert!(cands.contains(&(0, 0)), "iphone pair");
        assert!(cands.contains(&(1, 1)), "galaxy pair");
        assert!(!cands.contains(&(2, 2)), "nokia-sony never co-blocked");
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn duplicate_tokens_in_one_entity_count_once() {
        let l = collection(&["pro pro pro"]);
        let r = collection(&["pro"]);
        let bc = token_blocking(&l, &r);
        assert_eq!(bc.n_blocks(), 1);
        assert_eq!(bc.blocks()[0].left, vec![0]);
    }

    #[test]
    fn purging_drops_oversized_blocks() {
        let l = collection(&["the alpha", "the beta", "the gamma"]);
        let r = collection(&["the alpha", "the delta"]);
        let bc = token_blocking(&l, &r);
        // "the" suggests 3·2 = 6 comparisons, "alpha" 1.
        let purged = bc.purge(5);
        assert_eq!(purged.n_blocks(), 1);
        assert_eq!(purged.blocks()[0].key, "alpha");
        assert_eq!(purged.candidate_pairs().len(), 1);
    }

    #[test]
    fn purging_keeps_blocks_at_the_cap() {
        let l = collection(&["x y"]);
        let r = collection(&["x y"]);
        let bc = token_blocking(&l, &r).purge(1);
        assert_eq!(bc.n_blocks(), 2, "blocks exactly at the cap survive");
    }

    #[test]
    fn filtering_keeps_smallest_blocks_per_entity() {
        // Entity l0 is in blocks "a" (small) and "stop" (big); ratio 0.5
        // keeps only its smallest block.
        let l = collection(&["a stop", "stop", "stop"]);
        let r = collection(&["a stop", "stop"]);
        let bc = token_blocking(&l, &r);
        assert_eq!(bc.n_blocks(), 2);
        let filtered = bc.filter(0.5);
        // l0/r0 keep "a" (cardinality 2 < 5); the pure-"stop" entities keep
        // "stop" (their only block), so "stop" survives with fewer members.
        let cands = filtered.candidate_pairs();
        assert!(cands.contains(&(0, 0)), "kept via block 'a'");
        assert!(cands.contains(&(1, 1)) && cands.contains(&(2, 1)));
        assert!(
            !cands.contains(&(0, 1)),
            "l0 dropped 'stop', so the l0-r1 comparison disappears"
        );
    }

    #[test]
    fn filter_ratio_one_is_a_noop() {
        let (l, r) = sample();
        let bc = token_blocking(&l, &r);
        let before = bc.candidate_pairs();
        let after = bc.filter(1.0).candidate_pairs();
        assert_eq!(before, after);
    }

    #[test]
    fn filter_ratio_above_one_clamps_to_noop() {
        let (l, r) = sample();
        let bc = token_blocking(&l, &r);
        let before = bc.candidate_pairs();
        assert_eq!(bc.filter(1.5).candidate_pairs(), before);
    }

    #[test]
    #[should_panic(expected = "ratio must be positive")]
    fn filter_rejects_zero_ratio() {
        let (l, r) = sample();
        token_blocking(&l, &r).filter(0.0);
    }

    #[test]
    #[should_panic(expected = "ratio must be positive")]
    fn filter_rejects_negative_ratio() {
        let (l, r) = sample();
        token_blocking(&l, &r).filter(-0.5);
    }

    #[test]
    #[should_panic(expected = "ratio must be positive")]
    fn filter_rejects_nan_ratio() {
        let (l, r) = sample();
        token_blocking(&l, &r).filter(f64::NAN);
    }

    #[test]
    fn quality_measures() {
        let (l, r) = sample();
        let bc = token_blocking(&l, &r);
        let gt = GroundTruth::new(vec![(0, 0), (1, 1), (2, 2)]);
        let q = blocking_quality(&bc.candidate_pairs(), &gt, 3, 3);
        // 2 of 3 true pairs covered by 2 candidates out of 9 possible.
        assert!((q.pairs_completeness - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.pairs_quality - 1.0).abs() < 1e-12);
        assert!((q.reduction_ratio - (1.0 - 2.0 / 9.0)).abs() < 1e-12);
        assert_eq!(q.n_candidates, 2);
    }

    #[test]
    fn quality_degenerate_cases() {
        let empty = FxHashSet::default();
        let gt = GroundTruth::new(vec![]);
        let q = blocking_quality(&empty, &gt, 0, 0);
        assert_eq!(q.pairs_completeness, 1.0);
        assert_eq!(q.pairs_quality, 1.0);
        assert_eq!(q.reduction_ratio, 0.0);
    }

    #[test]
    fn restrict_graph_keeps_only_candidates() {
        let mut b = er_core::GraphBuilder::new(2, 2);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(0, 1, 0.8).unwrap();
        b.add_edge(1, 1, 0.7).unwrap();
        let g = b.build();
        let mut cands = FxHashSet::default();
        cands.insert((0, 0));
        cands.insert((1, 1));
        cands.insert((1, 0)); // candidate without a scored edge: fine
        let rg = restrict_graph(&g, &cands);
        assert_eq!(rg.n_edges(), 2);
        assert_eq!(rg.weight_of(0, 0), Some(0.9));
        assert_eq!(rg.weight_of(0, 1), None);
        assert_eq!(rg.n_left(), 2);
        assert_eq!(rg.n_right(), 2);
    }
}
