//! Resident incremental row scoring: one new record against the corpus.
//!
//! The batch engine ([`crate::graphgen`]) scores `n_left × n_right` once
//! and exits; a long-lived matching service instead receives records one
//! at a time and must score each against an **already-resident** corpus
//! without re-preparing anything. [`ResidentScorer`] keeps the score-side
//! state of one similarity function alive between calls — for every
//! family, **the batch scorer's prepared state**:
//!
//! * **token-vector measures** — the n-gram model, the term vocabulary
//!   with its frozen DF statistics, both sides' term arenas and per-side
//!   term postings; an insert interns its unseen terms, and a probe walks
//!   the opposite side's postings in
//!   [`ProbePlan`](er_textsim::ProbePlan) order;
//! * **character measures** — both sides' interned char tables and
//!   per-side [`LengthBucketIndex`](er_textsim::LengthBucketIndex)es;
//! * **schema-based token measures** — both sides' attribute values; a
//!   probe enumerates the opposite side;
//! * **n-gram graph models** — both sides' graphs and per-side edge-key
//!   postings;
//! * **dense semantic measures** — both sides' encoded vectors and
//!   per-side [`VectorBallIndex`](er_embed::VectorBallIndex)es;
//! * **Word Mover's** — the interned token vectors, both sides' bags and
//!   token universes, and per-side centroid-ball indexes over the bag
//!   summaries.
//!
//! [`ResidentScorer::build`] prepares that state **once**: it scores the
//! load-time top-k graph from it (the indexed batch build, bit for bit)
//! and keeps it. An insert appends the record to its side's entries and
//! probes the opposite side through the very `score_row` walk the batch
//! build runs — the same candidate index, screens and kernels — so a
//! copy of a resident record scores exactly as the batch build scored the
//! original (`tests/resident_props.rs`). Postings take each insert at
//! once; length buckets and balls are rebuilt once the appended overflow
//! passes a quarter of the indexed prefix. The function → scorer
//! dispatch is the batch build's own (`graphgen::with_scorer`).
//!
//! Each probe runs under the row's **top-k admission bound**: a
//! [`TopKRow`] heap collects the candidates, its k-th weight feeds the
//! generators' early-stopping bounds, and the survivors are normalized
//! through the build's frozen [`NormFrame`] and emitted as a
//! [`RowDelta`] ready for `CsrGraph::apply` and the delta matchers.
//!
//! # Incremental drift (what a full rebuild removes)
//!
//! The resident path trades three documented approximations for `O(k)`
//! admission state and index-pruned probes; all three vanish on rebuild:
//!
//! 1. **Frozen statistics** — the normalization frame (every family) and
//!    the token-vector family's DF statistics are those of the load-time
//!    build. New records are *scored* against them but do not update
//!    them, so a probe's raw score can drift from what a batch rebuild
//!    would produce once many records have churned. The other families
//!    read no collection statistic, so the frame is their only frozen
//!    state.
//! 2. **Row-local admission** — a left insert's top-k admission matches
//!    the batch semantics exactly (per-left-row best `k`); a right insert
//!    keeps its own best `k` edges but does **not** retroactively evict
//!    weaker edges from resident left rows the way a batch rebuild would.
//! 3. **Tombstone residue** — deleted records stay in the resident
//!    indexes until a rebuild compacts them away. The scorer keeps no
//!    liveness of its own: each probe reads it from the store it is
//!    given, and a tombstoned counterpart is never emitted.

use er_core::delta::Side;
use er_core::{CoreError, CsrGraph, RowDelta, SimilarityGraph, TopKRow};
use er_datasets::{EntityCollection, EntityProfile};

use crate::candidates::CandidateSource;
use crate::config::PipelineConfig;
use crate::graphgen::{
    build_topk_prepared, with_scorer, EdgeSink, NormFrame, RowScorer, ScorerUse, Triple,
};
use crate::taxonomy::SimilarityFunction;

/// Resident score-side state of one similarity function over one pair of
/// collections, supporting incremental record inserts (see the module
/// docs for the drift contract).
///
/// Id discipline matches [`CsrGraph`]: profile ids equal their position
/// in the collection, inserts append the next id, deletes tombstone ids
/// forever. The tombstones live in the store alone, which every
/// [`score_insert`](Self::score_insert) reads.
pub struct ResidentScorer {
    left: EntityCollection,
    right: EntityCollection,
    k: usize,
    frame: NormFrame,
    /// The function's prepared scorer, its encoder and indexes.
    family: Box<dyn Probe>,
}

impl ResidentScorer {
    /// Prepare the resident state **once** and score the load-time top-k
    /// graph from it — bit-identical to
    /// [`build_graph_topk`](crate::build_graph_topk) in
    /// [`CandidateMode::Indexed`](crate::CandidateMode::Indexed), whose
    /// frame the scorer keeps.
    ///
    /// Errors with [`CoreError::DeltaIdMismatch`] when a profile id
    /// differs from its position in its collection.
    pub fn build(
        left: &EntityCollection,
        right: &EntityCollection,
        function: &SimilarityFunction,
        k: usize,
        cfg: &PipelineConfig,
    ) -> Result<(SimilarityGraph, Self), CoreError> {
        let mut scorer =
            ResidentScorer::prepare(left, right, function, k, NormFrame::degenerate(), cfg)?;
        let graph;
        (graph, scorer.frame) = scorer.family.build(left, right, k, cfg);
        Ok((graph, scorer))
    }

    /// Prepare the resident state for a graph built elsewhere over the
    /// same collections with `k`, whose [`NormFrame`] is `frame` (from
    /// [`build_graph_topk`](crate::build_graph_topk) or
    /// `build_graph_sharded`).
    ///
    /// Errors as [`build`](Self::build) does.
    pub fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        function: &SimilarityFunction,
        k: usize,
        frame: NormFrame,
        cfg: &PipelineConfig,
    ) -> Result<Self, CoreError> {
        check_positional(left)?;
        check_positional(right)?;
        let source = CandidateSource::Index(());
        Ok(ResidentScorer {
            family: with_scorer(left, right, function, source, cfg, Probing),
            left: left.clone(),
            right: right.clone(),
            k,
            frame,
        })
    }

    /// The frozen normalization frame probes are mapped through.
    pub fn frame(&self) -> NormFrame {
        self.frame
    }

    /// Edges kept per inserted row (the build's `k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The resident left collection (tombstoned profiles included).
    pub fn left(&self) -> &EntityCollection {
        &self.left
    }

    /// The resident right collection (tombstoned profiles included).
    pub fn right(&self) -> &EntityCollection {
        &self.right
    }

    /// Score `profile` (arriving on `side`) against the records of the
    /// opposite side that are live in `store` under the row's top-k
    /// admission bound, register it in the resident state, and return the
    /// insert [`RowDelta`] with **normalized** edge weights — ready for
    /// [`CsrGraph::apply`] and the delta matchers. `store` is the graph
    /// the delta will be applied to.
    ///
    /// Errors with [`CoreError::DeltaIdMismatch`] (and changes nothing)
    /// unless `profile.id` is the side's next append id.
    pub fn score_insert(
        &mut self,
        side: Side,
        profile: &EntityProfile,
        store: &CsrGraph,
    ) -> Result<RowDelta, CoreError> {
        let own = match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        };
        let expected = own.len() as u32;
        if profile.id != expected {
            return Err(CoreError::DeltaIdMismatch {
                expected,
                got: profile.id,
            });
        }
        let mut sink = ProbeSink {
            id: profile.id,
            row: TopKRow::new(self.k),
            store,
            other: side.opposite(),
        };
        self.family.insert(side, profile, &mut sink);
        let edges: Vec<(u32, f64)> = sink
            .into_triples()
            .into_iter()
            .map(|(_, other, w)| (other, self.frame.apply(w)))
            .collect();
        Ok(match side {
            Side::Left => {
                self.left.profiles.push(profile.clone());
                RowDelta::insert_left(profile.id, edges)
            }
            Side::Right => {
                self.right.profiles.push(profile.clone());
                RowDelta::insert_right(profile.id, edges)
            }
        })
    }
}

/// The row sink of one insert: the probe's top-k heap, which takes no
/// counterpart the store does not hold live (so a dead candidate is never
/// scored, and cannot raise the admission bound either).
struct ProbeSink<'a> {
    /// The probing record's id.
    id: u32,
    row: TopKRow,
    store: &'a CsrGraph,
    /// The counterparts' side.
    other: Side,
}

impl EdgeSink for ProbeSink<'_> {
    #[inline]
    fn emit(&mut self, _: u32, other: u32, weight: f64) {
        self.row.offer(other, weight);
    }

    #[inline]
    fn admission_bound(&self) -> f64 {
        self.row.admission_bound()
    }

    #[inline]
    fn takes(&self, other: u32) -> bool {
        match self.other {
            Side::Left => self.store.is_live_left(other),
            Side::Right => self.store.is_live_right(other),
        }
    }

    /// The retained edges, weight descending, ties by ascending id.
    fn into_triples(mut self) -> Vec<Triple> {
        let mut edges = Vec::new();
        self.row.drain_sorted_into(&mut edges);
        edges.into_iter().map(|(o, w)| (self.id, o, w)).collect()
    }
}

/// Check the positional-id discipline: profile `i` carries id `i`.
fn check_positional(c: &EntityCollection) -> Result<(), CoreError> {
    match c
        .profiles
        .iter()
        .enumerate()
        .find(|&(i, p)| p.id as usize != i)
    {
        Some((i, p)) => Err(CoreError::DeltaIdMismatch {
            expected: i as u32,
            got: p.id,
        }),
        None => Ok(()),
    }
}

/// The resident use of the taxonomy dispatch: keep the prepared scorer
/// and its encoder, with both sides' indexes, as a [`Probe`].
struct Probing;

impl ScorerUse for Probing {
    type Output = Box<dyn Probe>;

    fn prepared<S: RowScorer + 'static>(
        self,
        scorer: S,
        encoder: S::ProfileEncoder,
    ) -> Box<dyn Probe> {
        Box::new(Probed {
            index: [scorer.index(Side::Left), scorer.index(Side::Right)],
            scratch: [scorer.scratch(), scorer.scratch()],
            scorer,
            encoder,
        })
    }
}

/// One function's prepared state, kept between inserts: the batch
/// scorer, its encoder, one candidate index per side and one scratch per
/// probing side (`Side as usize` throughout).
struct Probed<S: RowScorer> {
    scorer: S,
    encoder: S::ProfileEncoder,
    index: [S::Index; 2],
    scratch: [S::Scratch; 2],
}

/// The family-independent face of [`Probed`].
trait Probe: Send + Sync {
    /// The load-time top-k graph and its frame, scored from this state.
    fn build(
        &self,
        left: &EntityCollection,
        right: &EntityCollection,
        k: usize,
        cfg: &PipelineConfig,
    ) -> (SimilarityGraph, NormFrame);

    /// Append `profile` to `side` and probe the opposite side into `sink`.
    fn insert(&mut self, side: Side, profile: &EntityProfile, sink: &mut ProbeSink<'_>);
}

impl<S: RowScorer> Probe for Probed<S> {
    fn build(
        &self,
        left: &EntityCollection,
        right: &EntityCollection,
        k: usize,
        cfg: &PipelineConfig,
    ) -> (SimilarityGraph, NormFrame) {
        let index = &self.index[Side::Right as usize];
        build_topk_prepared(&self.scorer, index, left, right, k, cfg)
    }

    fn insert(&mut self, side: Side, profile: &EntityProfile, sink: &mut ProbeSink<'_>) {
        let Some(row) = self.scorer.append(&self.encoder, side, profile) else {
            return; // No entry (a missing attribute), no edges.
        };
        let (own, other) = (side as usize, side.opposite() as usize);
        self.scorer.index_appended(side, row, &mut self.index[own]);
        let source = CandidateSource::Index(&self.index[other]);
        self.scorer
            .score_row(side, row, source, &mut self.scratch[own], sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateMode;
    use crate::graphgen::build_graph_topk;
    use crate::taxonomy::SemanticScope;
    use er_core::CsrGraph;
    use er_datasets::{Dataset, DatasetId};
    use er_embed::{EmbeddingModel, SemanticMeasure};
    use er_textsim::{
        CharMeasure, GraphSimilarity, NGramScheme, SchemaBasedMeasure, TokenMeasure, VectorMeasure,
    };

    fn small_dataset() -> Dataset {
        Dataset::generate(DatasetId::D1, 0.02, 7)
    }

    fn token_fn() -> SimilarityFunction {
        SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        }
    }

    /// One function per family: token vectors, a character measure, a
    /// schema-based token measure, an n-gram graph model, dense semantic
    /// and Word Mover's.
    fn family_fns(d: &Dataset) -> [SimilarityFunction; 6] {
        let attribute = d.left.attribute_names[0].clone();
        [
            token_fn(),
            SimilarityFunction::SchemaBasedSyntactic {
                attribute: attribute.clone(),
                measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
            },
            SimilarityFunction::SchemaBasedSyntactic {
                attribute,
                measure: SchemaBasedMeasure::Token(TokenMeasure::Jaccard),
            },
            SimilarityFunction::SchemaAgnosticGraph {
                scheme: NGramScheme::Char(3),
                measure: GraphSimilarity::Value,
            },
            SimilarityFunction::Semantic {
                model: EmbeddingModel::FastText,
                measure: SemanticMeasure::Cosine,
                scope: SemanticScope::SchemaAgnostic,
            },
            SimilarityFunction::Semantic {
                model: EmbeddingModel::FastText,
                measure: SemanticMeasure::WordMovers,
                scope: SemanticScope::SchemaAgnostic,
            },
        ]
    }

    #[test]
    fn built_graph_equals_the_indexed_batch_build() {
        let d = small_dataset();
        let cfg = PipelineConfig::default();
        for f in family_fns(&d) {
            let (g, _, frame) =
                build_graph_topk(&d.left, &d.right, &f, 3, CandidateMode::Indexed, &cfg);
            let (built, rs) = ResidentScorer::build(&d.left, &d.right, &f, 3, &cfg).unwrap();
            assert_eq!(built.edges(), g.edges(), "{}", f.name());
            assert_eq!(rs.frame(), frame, "{}", f.name());
        }
    }

    #[test]
    fn deltas_apply_cleanly_to_the_built_store() {
        let d = small_dataset();
        let f = token_fn();
        let cfg = PipelineConfig::default();
        let k = 2;
        let (g, mut rs) = ResidentScorer::build(&d.left, &d.right, &f, k, &cfg).unwrap();
        let mut csr = CsrGraph::from_graph(&g);

        let mut probe = d.left.profiles[1].clone();
        probe.id = d.left.len() as u32;
        let delta = rs.score_insert(Side::Left, &probe, &csr).unwrap();
        csr.apply(&delta).expect("insert applies");
        assert_eq!(csr.n_left(), d.left.len() as u32 + 1);
        assert_eq!(csr.degree(probe.id), delta.edges.len());

        let mut rprobe = d.right.profiles[2].clone();
        rprobe.id = d.right.len() as u32;
        let rdelta = rs.score_insert(Side::Right, &rprobe, &csr).unwrap();
        csr.apply(&rdelta).expect("right insert applies");
        assert!(rdelta.edges.len() <= k);
        for &(l, w) in &rdelta.edges {
            assert_eq!(csr.weight_of(l, rprobe.id), Some(w));
        }
    }

    /// Every family, both insert sides: once every counterpart a probe
    /// found is tombstoned in the store, a second identical probe emits
    /// none of them. The donor is the side's first record with a batch
    /// edge (a schema-based token measure leaves some records isolated).
    #[test]
    fn tombstoned_counterparts_are_never_emitted() {
        let d = small_dataset();
        let cfg = PipelineConfig::default();
        let k = 5;
        for f in family_fns(&d) {
            for side in [Side::Left, Side::Right] {
                let (g, mut rs) = ResidentScorer::build(&d.left, &d.right, &f, k, &cfg).unwrap();
                let mut csr = CsrGraph::from_graph(&g);
                let first = g
                    .edges()
                    .iter()
                    .map(|e| match side {
                        Side::Left => e.left,
                        Side::Right => e.right,
                    })
                    .min()
                    .expect("the build has edges") as usize;
                let donor = match side {
                    Side::Left => &d.left.profiles[first],
                    Side::Right => &d.right.profiles[first],
                };
                let next_id = |rs: &ResidentScorer| match side {
                    Side::Left => rs.left().len() as u32,
                    Side::Right => rs.right().len() as u32,
                };
                let mut probe = donor.clone();
                probe.id = next_id(&rs);
                let before = rs.score_insert(side, &probe, &csr).unwrap();
                assert!(!before.edges.is_empty(), "{} {side:?}", f.name());
                csr.apply(&before).unwrap();
                // Kill every counterpart the first probe found, then
                // re-probe.
                for &(o, _) in &before.edges {
                    let live = match side.opposite() {
                        Side::Left => {
                            csr.apply(&RowDelta::delete_left(o)).unwrap();
                            csr.is_live_left(o)
                        }
                        Side::Right => {
                            csr.apply(&RowDelta::delete_right(o)).unwrap();
                            csr.is_live_right(o)
                        }
                    };
                    assert!(!live);
                }
                probe.id = next_id(&rs);
                let after = rs.score_insert(side, &probe, &csr).unwrap();
                for &(o, _) in &after.edges {
                    assert!(
                        before.edges.iter().all(|&(b, _)| b != o),
                        "{} {side:?}: tombstoned {o} re-emitted",
                        f.name()
                    );
                }
            }
        }
    }

    #[test]
    fn id_discipline_violations_are_typed_errors() {
        let d = small_dataset();
        let cfg = PipelineConfig::default();
        let mut shifted = d.right.clone();
        for p in &mut shifted.profiles {
            p.id += 1;
        }
        for f in [token_fn(), family_fns(&d)[1].clone()] {
            let err =
                ResidentScorer::prepare(&d.left, &shifted, &f, 3, NormFrame::degenerate(), &cfg);
            assert!(matches!(
                err,
                Err(CoreError::DeltaIdMismatch {
                    expected: 0,
                    got: 1
                })
            ));
        }
        let (g, mut rs) = ResidentScorer::build(&d.left, &d.right, &token_fn(), 3, &cfg).unwrap();
        let mut probe = d.left.profiles[0].clone();
        probe.id = d.left.len() as u32 + 1;
        assert!(matches!(
            rs.score_insert(Side::Left, &probe, &CsrGraph::from_graph(&g)),
            Err(CoreError::DeltaIdMismatch { .. })
        ));
        assert_eq!(
            rs.left().len(),
            d.left.len(),
            "a rejected insert changes nothing"
        );
    }
}
