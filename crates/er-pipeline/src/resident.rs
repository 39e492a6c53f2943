//! Resident incremental row scoring: one new record against the corpus.
//!
//! The batch engine ([`crate::graphgen`]) scores `n_left × n_right` once
//! and exits; a long-lived matching service instead receives records one
//! at a time and must score each against an **already-resident** corpus
//! without re-preparing anything. [`ResidentScorer`] keeps the score-side
//! state of one similarity function alive between calls:
//!
//! * **token-vector measures** — the frozen [`VectorModel`], the DF
//!   indexes and the term postings stay resident; a probe builds its
//!   sparse vector once and walks the postings in
//!   [`ProbePlan`](er_textsim::ProbePlan) order through
//!   [`generate_token_candidates`](crate::candidates), exactly the PR 6
//!   index path;
//! * **character edit measures** — interned char bags and the
//!   [`LengthBucketIndex`] stay resident; probes ride
//!   [`generate_char_candidates`](crate::candidates);
//! * **dense semantic measures** — encoded vectors and the
//!   [`VectorBallIndex`] stay resident; probes ride
//!   [`generate_ball_candidates`](crate::candidates);
//! * every other taxonomy branch (schema-based token measures, n-gram
//!   graph models, Word Mover's) falls back to re-preparing a
//!   singleton-probe build over the resident collections — correct, just
//!   not sub-linear in the corpus.
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
//! 1. **Frozen statistics** — DF indexes, the normalization frame, and
//!    (for the fallback families) collection-level stats are those of the
//!    load-time build. New records are *scored* against them but do not
//!    update them, so a probe's raw score can drift from what a batch
//!    rebuild would produce once many records have churned.
//! 2. **Row-local admission** — a left insert's top-k admission matches
//!    the batch semantics exactly (per-left-row best `k`); a right insert
//!    keeps its own best `k` edges but does **not** retroactively evict
//!    weaker edges from resident left rows the way a batch rebuild would.
//! 3. **Tombstone residue** — deleted records stay in the resident
//!    indexes (marked dead and never emitted) until a rebuild compacts
//!    them away.

use er_core::delta::Side;
use er_core::{FxHashMap, FxHashSet, RowDelta, TopKRow};
use er_datasets::{EntityCollection, EntityProfile};
use er_embed::measures::Encoder;
use er_embed::{
    cosine_distance_bound, inverse_distance_bound, DenseVector, SemanticMeasure, VectorBallIndex,
};
use er_textsim::lanes::{MyersBatch, LANE_WIDTH};
use er_textsim::{
    CharMeasure, DfIndex, LengthBucketIndex, SchemaBasedMeasure, SparseVector, TermWeighting,
    VectorMeasure, VectorModel,
};

use crate::candidates::{
    generate_ball_candidates, generate_char_candidates, generate_token_candidates, CandidateSource,
};
use crate::config::{KernelMode, PipelineConfig};
use crate::graphgen::{encode_sides, scoped_text, score_shards, unit_probe, NormFrame, ScoreMode};
use crate::taxonomy::{SemanticScope, SimilarityFunction};

/// Fraction of un-indexed overflow entries (relative to the indexed
/// prefix) that triggers a resident index rebuild. Overflow entries are
/// scored without index pruning, so letting them accumulate unboundedly
/// would degrade probes back to linear scans.
const OVERFLOW_REBUILD_FRACTION: f64 = 0.25;

/// Resident score-side state of one similarity function over one pair of
/// collections, supporting incremental record inserts (see the module
/// docs for the drift contract).
///
/// Id discipline matches [`er_core::CsrGraph`]: profile ids equal their
/// position in the collection, inserts append the next id, deletes
/// tombstone ids forever.
pub struct ResidentScorer {
    left: EntityCollection,
    right: EntityCollection,
    function: SimilarityFunction,
    cfg: PipelineConfig,
    k: usize,
    frame: NormFrame,
    dead_left: FxHashSet<u32>,
    dead_right: FxHashSet<u32>,
    family: Family,
}

enum Family {
    Token(Box<TokenFamily>),
    Char(Box<CharFamily>),
    Dense(Box<DenseFamily>),
    Fallback,
}

impl ResidentScorer {
    /// Build the resident state from the collections a graph was built
    /// over, the build's `k`, and its [`NormFrame`] (from
    /// [`build_graph_topk_framed`](crate::build_graph_topk_framed)).
    pub fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        function: &SimilarityFunction,
        k: usize,
        frame: NormFrame,
        cfg: &PipelineConfig,
    ) -> Self {
        for (i, p) in left.profiles.iter().enumerate() {
            assert_eq!(p.id as usize, i, "left profile ids must be positional");
        }
        for (i, p) in right.profiles.iter().enumerate() {
            assert_eq!(p.id as usize, i, "right profile ids must be positional");
        }
        let family = match function {
            SimilarityFunction::SchemaAgnosticVector { scheme, measure } => Family::Token(
                Box::new(TokenFamily::prepare(left, right, *scheme, *measure)),
            ),
            SimilarityFunction::SchemaBasedSyntactic { attribute, measure } => match measure {
                SchemaBasedMeasure::Char(m) => Family::Char(Box::new(CharFamily::prepare(
                    left,
                    right,
                    attribute,
                    *m,
                    cfg.kernel_mode,
                ))),
                SchemaBasedMeasure::Token(_) => Family::Fallback,
            },
            SimilarityFunction::Semantic {
                model,
                measure,
                scope,
            } if !measure.needs_token_vectors() => Family::Dense(Box::new(DenseFamily::prepare(
                left,
                right,
                model.encoder(),
                *measure,
                scope.clone(),
                cfg.effective_threads(),
            ))),
            _ => Family::Fallback,
        };
        ResidentScorer {
            left: left.clone(),
            right: right.clone(),
            function: function.clone(),
            cfg: cfg.clone(),
            k,
            frame,
            dead_left: FxHashSet::default(),
            dead_right: FxHashSet::default(),
            family,
        }
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

    /// Score `profile` (arriving on `side`) against the live records of
    /// the opposite side under the row's top-k admission bound, register
    /// it in the resident indexes, and return the insert [`RowDelta`]
    /// with **normalized** edge weights — ready for `CsrGraph::apply`
    /// and the delta matchers.
    ///
    /// Panics unless `profile.id` is the side's next append id.
    pub fn score_insert(&mut self, side: Side, profile: &EntityProfile) -> RowDelta {
        let expected = match side {
            Side::Left => self.left.len(),
            Side::Right => self.right.len(),
        };
        assert_eq!(
            profile.id as usize, expected,
            "insert must carry the side's next append id"
        );
        let dead = match side {
            Side::Left => &self.dead_right,
            Side::Right => &self.dead_left,
        };
        let keep_positive = self.cfg.keep_positive_only;
        let mut row = TopKRow::new(self.k);
        // Each family encodes the probe once: scoring returns the
        // encoding and registration stores it.
        match &mut self.family {
            Family::Token(f) => {
                let v = f.score_probe(profile, side, dead, keep_positive, &mut row);
                f.register(v, side);
            }
            Family::Char(f) => {
                let bag = f.score_probe(profile, side, dead, keep_positive, &mut row);
                f.register(profile, bag, side);
            }
            Family::Dense(f) => {
                let v = f.score_probe(profile, side, dead, keep_positive, &mut row);
                f.register(v, side);
            }
            Family::Fallback => fallback_probe(
                &self.left,
                &self.right,
                &self.function,
                &self.cfg,
                profile,
                side,
                dead,
                keep_positive,
                &mut row,
            ),
        }
        let mut raw = Vec::new();
        row.drain_sorted_into(&mut raw);
        let edges: Vec<(u32, f64)> = raw
            .into_iter()
            .map(|(other, w)| (other, self.frame.apply(w)))
            .collect();
        match side {
            Side::Left => {
                self.left.profiles.push(profile.clone());
                RowDelta::insert_left(profile.id, edges)
            }
            Side::Right => {
                self.right.profiles.push(profile.clone());
                RowDelta::insert_right(profile.id, edges)
            }
        }
    }

    /// Tombstone a record: it stays in the resident indexes but is never
    /// emitted as a candidate again. Mirrors `CsrGraph::remove_*`.
    pub fn mark_deleted(&mut self, side: Side, id: u32) {
        match side {
            Side::Left => self.dead_left.insert(id),
            Side::Right => self.dead_right.insert(id),
        };
    }

    /// Whether `id` on `side` is registered and not tombstoned.
    pub fn is_live(&self, side: Side, id: u32) -> bool {
        match side {
            Side::Left => (id as usize) < self.left.len() && !self.dead_left.contains(&id),
            Side::Right => (id as usize) < self.right.len() && !self.dead_right.contains(&id),
        }
    }
}

/// Offer one scored candidate to the row heap under the positivity
/// protocol, returning the updated admission bound.
#[inline]
fn offer(row: &mut TopKRow, other: u32, w: f64, keep_positive: bool) -> f64 {
    if w > 0.0 || !keep_positive {
        row.offer(other, w);
    }
    row.admission_bound()
}

// ---------------------------------------------------------------------------
// Token-vector family: frozen model + DF + postings, ProbePlan probes.
// ---------------------------------------------------------------------------

struct TokenSide {
    vecs: Vec<SparseVector>,
    postings: FxHashMap<u64, Vec<u32>>,
    stamp: Vec<u32>,
}

impl TokenSide {
    fn build(vecs: Vec<SparseVector>) -> Self {
        let mut postings: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (j, v) in vecs.iter().enumerate() {
            for &(t, _) in v.terms() {
                postings.entry(t).or_default().push(j as u32);
            }
        }
        let stamp = vec![0u32; vecs.len()];
        TokenSide {
            vecs,
            postings,
            stamp,
        }
    }

    fn push(&mut self, v: SparseVector) {
        let j = self.vecs.len() as u32;
        for &(t, _) in v.terms() {
            self.postings.entry(t).or_default().push(j);
        }
        self.vecs.push(v);
        self.stamp.push(0);
    }
}

struct TokenFamily {
    model: VectorModel,
    weighting: TermWeighting,
    measure: VectorMeasure,
    df_left: DfIndex,
    df_right: DfIndex,
    df_union: DfIndex,
    left: TokenSide,
    right: TokenSide,
    mark: u32,
}

impl TokenFamily {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        scheme: er_textsim::NGramScheme,
        measure: VectorMeasure,
    ) -> Self {
        let model = VectorModel::new(scheme);
        let weighting = measure.weighting();
        let mut df_left = DfIndex::new();
        let mut df_right = DfIndex::new();
        let mut df_union = DfIndex::new();
        let texts_left: Vec<String> = left.profiles.iter().map(|p| p.all_values_text()).collect();
        let texts_right: Vec<String> = right.profiles.iter().map(|p| p.all_values_text()).collect();
        for t in &texts_left {
            let terms: Vec<u64> = model.term_frequencies(t).keys().copied().collect();
            df_left.add_document(terms.iter().copied());
            df_union.add_document(terms);
        }
        for t in &texts_right {
            let terms: Vec<u64> = model.term_frequencies(t).keys().copied().collect();
            df_right.add_document(terms.iter().copied());
            df_union.add_document(terms);
        }
        let vec_of = |text: &String| model.vector(text, weighting, Some(&df_union));
        TokenFamily {
            model,
            weighting,
            measure,
            left: TokenSide::build(texts_left.iter().map(vec_of).collect()),
            right: TokenSide::build(texts_right.iter().map(vec_of).collect()),
            df_left,
            df_right,
            df_union,
            mark: 0,
        }
    }

    /// The probe's vector under the frozen model and DF statistics.
    fn probe_vector(&self, p: &EntityProfile) -> SparseVector {
        self.model
            .vector(&p.all_values_text(), self.weighting, Some(&self.df_union))
    }

    fn next_mark(&mut self) -> u32 {
        if self.mark == u32::MAX {
            self.left.stamp.fill(0);
            self.right.stamp.fill(0);
            self.mark = 0;
        }
        self.mark += 1;
        self.mark
    }

    /// Score the probe into `row` and return its vector for
    /// [`register`](Self::register).
    fn score_probe(
        &mut self,
        p: &EntityProfile,
        side: Side,
        dead: &FxHashSet<u32>,
        keep_positive: bool,
        row: &mut TopKRow,
    ) -> SparseVector {
        let mark = self.next_mark();
        let pv = self.probe_vector(p);
        let dfs = Some((&self.df_left, &self.df_right));
        let plan = self.measure.probe_plan(&pv, dfs);
        let target = match side {
            Side::Left => &mut self.right,
            Side::Right => &mut self.left,
        };
        let measure = self.measure;
        generate_token_candidates(
            &plan,
            pv.terms(),
            &target.postings,
            &mut target.stamp,
            mark,
            row.admission_bound(),
            |j| {
                if dead.contains(&j) {
                    return row.admission_bound();
                }
                let cv = &target.vecs[j as usize];
                let w = match side {
                    Side::Left => measure.similarity(&pv, cv, dfs),
                    Side::Right => measure.similarity(cv, &pv, dfs),
                };
                offer(row, j, w, keep_positive)
            },
        );
        pv
    }

    fn register(&mut self, v: SparseVector, side: Side) {
        match side {
            Side::Left => self.left.push(v),
            Side::Right => self.right.push(v),
        }
    }
}

// ---------------------------------------------------------------------------
// Character family: resident bags + length buckets, counting-filter probes.
// ---------------------------------------------------------------------------

struct CharSide {
    /// Entity ids carrying the attribute (slot → id).
    ids: Vec<u32>,
    values: Vec<String>,
    /// Sorted Unicode-scalar bags (comparable across entries — scalar
    /// values are a global code space).
    bags: Vec<Vec<u32>>,
    /// Length-bucket index over `bags[..indexed_len]`; later entries are
    /// overflow, scanned with explicit bounds until the next rebuild.
    index: LengthBucketIndex,
    indexed_len: usize,
}

impl CharSide {
    fn build(ids: Vec<u32>, values: Vec<String>) -> Self {
        let bags: Vec<Vec<u32>> = values.iter().map(|v| char_bag(v)).collect();
        let index = LengthBucketIndex::build(bags.iter().map(Vec::as_slice));
        let indexed_len = bags.len();
        CharSide {
            ids,
            values,
            bags,
            index,
            indexed_len,
        }
    }

    fn push(&mut self, id: u32, value: String, bag: Vec<u32>) {
        self.bags.push(bag);
        self.values.push(value);
        self.ids.push(id);
        let overflow = self.bags.len() - self.indexed_len;
        if overflow as f64 > self.indexed_len.max(4) as f64 * OVERFLOW_REBUILD_FRACTION {
            self.index = LengthBucketIndex::build(self.bags.iter().map(Vec::as_slice));
            self.indexed_len = self.bags.len();
        }
    }
}

fn char_bag(v: &str) -> Vec<u32> {
    let mut bag: Vec<u32> = v.chars().map(u32::from).collect();
    bag.sort_unstable();
    bag
}

/// Flush one lane chunk of a resident Levenshtein probe: decode the
/// buffered slots' values into the per-lane code buffers, run the
/// multi-text Myers batch (prepared over the probe), and offer the
/// similarities to the row heap. Bit-identical to the scalar
/// `measure.similarity` calls: the integer edit distance is symmetric,
/// so probe-as-pattern equals the scalar kernel's
/// shorter-side-as-pattern, and the weight formula is the same float
/// expression.
#[allow(clippy::too_many_arguments)]
fn flush_char_lanes(
    target: &CharSide,
    batch: &mut MyersBatch,
    lane_codes: &mut [Vec<u32>],
    probe_m: usize,
    slots: &[u32],
    dead: &FxHashSet<u32>,
    keep_positive: bool,
    row: &mut TopKRow,
) {
    let mut ids = [0u32; LANE_WIDTH];
    let mut kn = 0;
    for &slot in slots {
        let id = target.ids[slot as usize];
        if dead.contains(&id) {
            continue;
        }
        let lc = &mut lane_codes[kn];
        lc.clear();
        lc.extend(target.values[slot as usize].chars().map(u32::from));
        ids[kn] = id;
        kn += 1;
    }
    if kn == 0 {
        return;
    }
    let mut dists = [0usize; LANE_WIDTH];
    {
        let mut texts: [&[u32]; LANE_WIDTH] = [&[]; LANE_WIDTH];
        for (i, lc) in lane_codes[..kn].iter().enumerate() {
            texts[i] = lc;
        }
        batch.distances(&texts[..kn], &mut dists[..kn]);
    }
    for i in 0..kn {
        let max_len = probe_m.max(lane_codes[i].len());
        let w = if max_len == 0 {
            1.0
        } else {
            1.0 - dists[i] as f64 / max_len as f64
        };
        offer(row, ids[i], w, keep_positive);
    }
}

struct CharFamily {
    attribute: String,
    measure: CharMeasure,
    left: CharSide,
    right: CharSide,
    order: Vec<u32>,
    counts: Vec<u32>,
    kernel: KernelMode,
    /// Lanes-mode probe state (Levenshtein only): the probe's code
    /// points, the multi-text Myers batch prepared over them, and the
    /// per-lane candidate code buffers.
    probe_codes: Vec<u32>,
    batch: MyersBatch,
    lane_codes: Vec<Vec<u32>>,
}

impl CharFamily {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        attribute: &str,
        measure: CharMeasure,
        kernel: KernelMode,
    ) -> Self {
        fn with_attr(c: &EntityCollection, attribute: &str) -> (Vec<u32>, Vec<String>) {
            let mut ids = Vec::new();
            let mut values = Vec::new();
            for p in &c.profiles {
                if let Some(v) = p.value(attribute) {
                    ids.push(p.id);
                    values.push(v.to_string());
                }
            }
            (ids, values)
        }
        let (lid, lval) = with_attr(left, attribute);
        let (rid, rval) = with_attr(right, attribute);
        CharFamily {
            attribute: attribute.to_string(),
            measure,
            left: CharSide::build(lid, lval),
            right: CharSide::build(rid, rval),
            order: Vec::new(),
            counts: Vec::new(),
            kernel,
            probe_codes: Vec::new(),
            batch: MyersBatch::new(),
            lane_codes: vec![Vec::new(); LANE_WIDTH],
        }
    }

    /// Score the probe into `row` and return its character bag for
    /// [`register`](Self::register) — `None` when the probe lacks the
    /// attribute.
    fn score_probe(
        &mut self,
        p: &EntityProfile,
        side: Side,
        dead: &FxHashSet<u32>,
        keep_positive: bool,
        row: &mut TopKRow,
    ) -> Option<Vec<u32>> {
        let Some(value) = p.value(&self.attribute) else {
            return None; // No attribute, no edges — as in the batch scorer.
        };
        let probe_bag = char_bag(value);
        let probe_len = probe_bag.len();
        let target = match side {
            Side::Left => &self.right,
            Side::Right => &self.left,
        };
        let measure = self.measure;
        if matches!(self.kernel, KernelMode::Lanes) && matches!(measure, CharMeasure::Levenshtein) {
            // Lanes mode: buffer generated slots and flush them through
            // the multi-text Myers batch. Between flushes the
            // generators see the bound of the last flush — a superset
            // of the scalar candidates whose extras all score strictly
            // below the final admission bound, so the retained row is
            // bit-identical (same argument as the batch engine's
            // indexed path, DESIGN.md §19).
            self.probe_codes.clear();
            self.probe_codes.extend(value.chars().map(u32::from));
            self.batch.prepare(&self.probe_codes);
            let probe_m = self.probe_codes.len();
            let batch = &mut self.batch;
            let lane_codes = &mut self.lane_codes;
            let mut buf = [0u32; LANE_WIDTH];
            let mut cn = 0usize;
            generate_char_candidates(
                &target.index,
                measure,
                probe_len,
                &probe_bag,
                &mut self.order,
                &mut self.counts,
                row.admission_bound(),
                |slot| {
                    buf[cn] = slot;
                    cn += 1;
                    if cn == LANE_WIDTH {
                        flush_char_lanes(
                            target,
                            batch,
                            lane_codes,
                            probe_m,
                            &buf[..cn],
                            dead,
                            keep_positive,
                            row,
                        );
                        cn = 0;
                    }
                    row.admission_bound()
                },
            );
            for slot in target.indexed_len..target.bags.len() {
                let bound = row.admission_bound();
                if bound != f64::NEG_INFINITY {
                    let blen = target.bags[slot].len();
                    if measure.length_upper_bound(probe_len, blen) < bound {
                        continue;
                    }
                    if let Some(ub) = measure.bag_upper_bound(&probe_bag, &target.bags[slot]) {
                        if ub < bound {
                            continue;
                        }
                    }
                }
                buf[cn] = slot as u32;
                cn += 1;
                if cn == LANE_WIDTH {
                    flush_char_lanes(
                        target,
                        batch,
                        lane_codes,
                        probe_m,
                        &buf[..cn],
                        dead,
                        keep_positive,
                        row,
                    );
                    cn = 0;
                }
            }
            if cn > 0 {
                flush_char_lanes(
                    target,
                    batch,
                    lane_codes,
                    probe_m,
                    &buf[..cn],
                    dead,
                    keep_positive,
                    row,
                );
            }
            return Some(probe_bag);
        }
        let score = |slot: u32, row: &mut TopKRow| -> f64 {
            let id = target.ids[slot as usize];
            if dead.contains(&id) {
                return row.admission_bound();
            }
            let w = measure.similarity(value, &target.values[slot as usize]);
            offer(row, id, w, keep_positive)
        };
        generate_char_candidates(
            &target.index,
            measure,
            probe_len,
            &probe_bag,
            &mut self.order,
            &mut self.counts,
            row.admission_bound(),
            |slot| score(slot, row),
        );
        // Overflow entries carry no bucket structure: apply the same
        // length and counting-filter bounds per entry.
        for slot in target.indexed_len..target.bags.len() {
            let bound = row.admission_bound();
            if bound != f64::NEG_INFINITY {
                let blen = target.bags[slot].len();
                if measure.length_upper_bound(probe_len, blen) < bound {
                    continue;
                }
                if let Some(ub) = measure.bag_upper_bound(&probe_bag, &target.bags[slot]) {
                    if ub < bound {
                        continue;
                    }
                }
            }
            score(slot as u32, row);
        }
        Some(probe_bag)
    }

    fn register(&mut self, p: &EntityProfile, bag: Option<Vec<u32>>, side: Side) {
        if let (Some(v), Some(bag)) = (p.value(&self.attribute), bag) {
            let v = v.to_string();
            match side {
                Side::Left => self.left.push(p.id, v, bag),
                Side::Right => self.right.push(p.id, v, bag),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dense semantic family: resident encodings + centroid-ball probes.
// ---------------------------------------------------------------------------

struct DenseSide {
    vecs: Vec<DenseVector>,
    /// Ball index over the non-zero vectors of `vecs[..indexed_len]`
    /// (unit-normalized copies for cosine); later entries are overflow.
    ball: VectorBallIndex,
    indexed_len: usize,
}

impl DenseSide {
    fn build(vecs: Vec<DenseVector>, cosine: bool) -> Self {
        let ball = build_ball(&vecs, cosine);
        let indexed_len = vecs.len();
        DenseSide {
            vecs,
            ball,
            indexed_len,
        }
    }

    fn push(&mut self, v: DenseVector, cosine: bool) {
        self.vecs.push(v);
        let overflow = self.vecs.len() - self.indexed_len;
        if overflow as f64 > self.indexed_len.max(4) as f64 * OVERFLOW_REBUILD_FRACTION {
            self.ball = build_ball(&self.vecs, cosine);
            self.indexed_len = self.vecs.len();
        }
    }
}

fn build_ball(vecs: &[DenseVector], cosine: bool) -> VectorBallIndex {
    if cosine {
        let normalized: Vec<(u32, DenseVector, f64)> = vecs
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_zero())
            .map(|(j, v)| {
                let (u, r) = unit_probe(v);
                (j as u32, u, r)
            })
            .collect();
        let entries: Vec<(u32, &DenseVector, f64)> =
            normalized.iter().map(|(j, u, r)| (*j, u, *r)).collect();
        VectorBallIndex::build(&entries)
    } else {
        let entries: Vec<(u32, &DenseVector, f64)> = vecs
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_zero())
            .map(|(j, v)| (j as u32, v, 0.0))
            .collect();
        VectorBallIndex::build(&entries)
    }
}

struct DenseFamily {
    encoder: Encoder,
    measure: SemanticMeasure,
    scope: SemanticScope,
    left: DenseSide,
    right: DenseSide,
    scratch: Vec<(f64, u32)>,
}

impl DenseFamily {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        encoder: Encoder,
        measure: SemanticMeasure,
        scope: SemanticScope,
        threads: usize,
    ) -> Self {
        let cosine = matches!(measure, SemanticMeasure::Cosine);
        let (lv, rv) = encode_sides(left, right, &encoder, &scope, threads);
        DenseFamily {
            encoder,
            measure,
            scope,
            left: DenseSide::build(lv, cosine),
            right: DenseSide::build(rv, cosine),
            scratch: Vec::new(),
        }
    }

    /// Score the probe into `row` and return its encoding for
    /// [`register`](Self::register).
    fn score_probe(
        &mut self,
        p: &EntityProfile,
        side: Side,
        dead: &FxHashSet<u32>,
        keep_positive: bool,
        row: &mut TopKRow,
    ) -> DenseVector {
        let a = self.encoder.encode(&scoped_text(p, &self.scope));
        if a.is_zero() {
            return a;
        }
        let cosine = matches!(self.measure, SemanticMeasure::Cosine);
        let probe_owned;
        let (probe, probe_radius) = if cosine {
            let (u, r) = unit_probe(&a);
            probe_owned = u;
            (&probe_owned, r)
        } else {
            (&a, 0.0)
        };
        let map: fn(f64) -> f64 = if cosine {
            cosine_distance_bound
        } else {
            inverse_distance_bound
        };
        let target = match side {
            Side::Left => &self.right,
            Side::Right => &self.left,
        };
        let measure = self.measure;
        let score = |j: u32, row: &mut TopKRow| -> f64 {
            if dead.contains(&j) {
                return row.admission_bound();
            }
            let w = measure.similarity_vectors(&a, &target.vecs[j as usize]);
            offer(row, j, w, keep_positive)
        };
        generate_ball_candidates(
            &target.ball,
            probe,
            probe_radius,
            &mut self.scratch,
            map,
            row.admission_bound(),
            |j| score(j, row),
        );
        for j in target.indexed_len..target.vecs.len() {
            if target.vecs[j].is_zero() {
                continue;
            }
            score(j as u32, row);
        }
        a
    }

    fn register(&mut self, v: DenseVector, side: Side) {
        let cosine = matches!(self.measure, SemanticMeasure::Cosine);
        match side {
            Side::Left => self.left.push(v, cosine),
            Side::Right => self.right.push(v, cosine),
        }
    }
}

// ---------------------------------------------------------------------------
// Fallback: singleton-probe re-preparation over the resident collections.
// ---------------------------------------------------------------------------

/// Score a probe through the batch engine with a singleton collection on
/// the probe's side. Re-prepares the branch scorer per call (`O(corpus)`
/// — the documented fallback cost) but sees the *current* collections,
/// so its per-call statistics are fresher than the frozen fast paths'.
#[allow(clippy::too_many_arguments)]
fn fallback_probe(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
    p: &EntityProfile,
    side: Side,
    dead: &FxHashSet<u32>,
    keep_positive: bool,
    row: &mut TopKRow,
) {
    let singleton = EntityCollection {
        profiles: vec![p.clone()],
        attribute_names: match side {
            Side::Left => left.attribute_names.clone(),
            Side::Right => right.attribute_names.clone(),
        },
    };
    let (left, right) = match side {
        Side::Left => (&singleton, right),
        Side::Right => (left, &singleton),
    };
    let shards = score_shards(
        left,
        right,
        function,
        CandidateSource::Enumerate,
        cfg,
        ScoreMode::Dense,
    );
    for (l, r, w) in shards.into_iter().flatten() {
        // The probe's own component carries whatever id its branch
        // assigns (positional or entity id); only the resident side's
        // component is read — it equals the entity id under the
        // positional-id invariant.
        let other = match side {
            Side::Left => r,
            Side::Right => l,
        };
        if dead.contains(&other) {
            continue;
        }
        offer(row, other, w, keep_positive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphgen::build_graph_topk_framed;
    use crate::CandidateMode;
    use er_core::CsrGraph;
    use er_datasets::{Dataset, DatasetId};
    use er_textsim::NGramScheme;

    fn small_dataset() -> Dataset {
        Dataset::generate(DatasetId::D1, 0.02, 7)
    }

    fn token_fn() -> SimilarityFunction {
        SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        }
    }

    /// The reference for one probe: rebuild the graph with the probe in
    /// its collection (frozen-stats drift excluded by construction: the
    /// reference uses the *original* collections plus the probe, so DF
    /// indexes differ — the assertion therefore checks candidate set and
    /// ordering agreement through the shared frame, not bit equality).
    #[test]
    fn left_insert_edges_match_a_fresh_row_scoring() {
        let d = small_dataset();
        let f = token_fn();
        let cfg = PipelineConfig::default();
        let k = 3;
        let (_, _, frame) =
            build_graph_topk_framed(&d.left, &d.right, &f, k, CandidateMode::Indexed, &cfg);
        let mut rs = ResidentScorer::prepare(&d.left, &d.right, &f, k, frame, &cfg);

        // Take an existing left profile's attributes as the new record.
        let mut probe = d.left.profiles[0].clone();
        probe.id = d.left.len() as u32;
        let delta = rs.score_insert(Side::Left, &probe);
        assert_eq!(delta.id, probe.id);
        assert!(delta.edges.len() <= k);
        // The probe duplicates left row 0, whose scored row under the
        // same frozen DF statistics is exactly row 0's edge list.
        let mut reference = TopKRow::new(k);
        match &mut rs.family {
            Family::Token(fam) => {
                let p0 = &d.left.profiles[0];
                fam.score_probe(
                    p0,
                    Side::Left,
                    &FxHashSet::default(),
                    cfg.keep_positive_only,
                    &mut reference,
                );
            }
            _ => unreachable!(),
        }
        let mut expect = Vec::new();
        reference.drain_sorted_into(&mut expect);
        let expect: Vec<(u32, f64)> = expect
            .into_iter()
            .map(|(r, w)| (r, frame.apply(w)))
            .collect();
        assert_eq!(delta.edges, expect);
    }

    #[test]
    fn deltas_apply_cleanly_to_the_built_store() {
        let d = small_dataset();
        let f = token_fn();
        let cfg = PipelineConfig::default();
        let k = 2;
        let (g, _, frame) =
            build_graph_topk_framed(&d.left, &d.right, &f, k, CandidateMode::Indexed, &cfg);
        let mut csr = CsrGraph::from_graph(&g);
        let mut rs = ResidentScorer::prepare(&d.left, &d.right, &f, k, frame, &cfg);

        let mut probe = d.left.profiles[1].clone();
        probe.id = d.left.len() as u32;
        let delta = rs.score_insert(Side::Left, &probe);
        csr.apply(&delta).expect("insert applies");
        assert_eq!(csr.n_left(), d.left.len() as u32 + 1);
        assert_eq!(csr.degree(probe.id), delta.edges.len());

        let mut rprobe = d.right.profiles[2].clone();
        rprobe.id = d.right.len() as u32;
        let rdelta = rs.score_insert(Side::Right, &rprobe);
        csr.apply(&rdelta).expect("right insert applies");
        assert!(rdelta.edges.len() <= k);
        for &(l, w) in &rdelta.edges {
            assert_eq!(csr.weight_of(l, rprobe.id), Some(w));
        }
    }

    #[test]
    fn tombstoned_counterparts_are_never_emitted() {
        let d = small_dataset();
        let f = token_fn();
        let cfg = PipelineConfig::default();
        let k = 5;
        let (_, _, frame) =
            build_graph_topk_framed(&d.left, &d.right, &f, k, CandidateMode::Indexed, &cfg);
        let mut rs = ResidentScorer::prepare(&d.left, &d.right, &f, k, frame, &cfg);

        let mut probe = d.left.profiles[0].clone();
        probe.id = d.left.len() as u32;
        let before = rs.score_insert(Side::Left, &probe);
        // Kill every counterpart the first probe found, then re-probe.
        for &(r, _) in &before.edges {
            rs.mark_deleted(Side::Right, r);
            assert!(!rs.is_live(Side::Right, r));
        }
        let mut probe2 = d.left.profiles[0].clone();
        probe2.id = rs.left().len() as u32;
        let after = rs.score_insert(Side::Left, &probe2);
        for &(r, _) in &after.edges {
            assert!(
                before.edges.iter().all(|&(br, _)| br != r),
                "tombstoned right {r} re-emitted"
            );
        }
    }

    #[test]
    fn char_family_probe_agrees_with_direct_similarity() {
        let d = small_dataset();
        let attribute = d.left.attribute_names[0].clone();
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute: attribute.clone(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        let cfg = PipelineConfig::default();
        let k = 4;
        let (_, _, frame) =
            build_graph_topk_framed(&d.left, &d.right, &f, k, CandidateMode::Indexed, &cfg);
        let mut rs = ResidentScorer::prepare(&d.left, &d.right, &f, k, frame, &cfg);
        let mut probe = d.left.profiles[3].clone();
        probe.id = d.left.len() as u32;
        let delta = rs.score_insert(Side::Left, &probe);
        let value = probe.value(&attribute).unwrap();
        for &(r, w) in &delta.edges {
            let rv = d.right.profiles[r as usize].value(&attribute).unwrap();
            let raw = CharMeasure::Levenshtein.similarity(value, rv);
            assert!(
                (frame.apply(raw) - w).abs() < 1e-12,
                "edge weight must be the framed direct similarity"
            );
        }
    }

    #[test]
    fn fallback_family_emits_probe_edges() {
        let d = small_dataset();
        let attribute = d.left.attribute_names[0].clone();
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute,
            measure: SchemaBasedMeasure::Token(er_textsim::TokenMeasure::Jaccard),
        };
        let cfg = PipelineConfig::default();
        let k = 3;
        let (g, _, frame) =
            build_graph_topk_framed(&d.left, &d.right, &f, k, CandidateMode::Enumerated, &cfg);
        let mut rs = ResidentScorer::prepare(&d.left, &d.right, &f, k, frame, &cfg);
        let mut probe = d.left.profiles[0].clone();
        probe.id = d.left.len() as u32;
        let delta = rs.score_insert(Side::Left, &probe);
        // The probe clones left 0's attributes and the fallback re-scores
        // with fresh per-call statistics over the same corpus, so its top
        // candidate set matches row 0's resident edges.
        let mut resident_row: Vec<u32> = g
            .edges()
            .iter()
            .filter(|e| e.left == 0)
            .map(|e| e.right)
            .collect();
        resident_row.sort_unstable();
        let mut got: Vec<u32> = delta.edges.iter().map(|&(r, _)| r).collect();
        got.sort_unstable();
        assert_eq!(got, resident_row);
    }
}
