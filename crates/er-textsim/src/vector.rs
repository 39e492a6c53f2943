//! Schema-agnostic n-gram **vector** (bag) models — Appendix B.2.1.
//!
//! An entity is modelled as a sparse vector with one dimension per distinct
//! n-gram, weighted by TF or TF-IDF. Term dimensions are *feature-hashed*
//! to `u64` ids (deterministic, collision probability negligible at our
//! vocabulary sizes), which keeps corpus statistics and inverted indexes
//! allocation-light.
//!
//! The four measure families of the paper: ARCS, cosine (TF / TF-IDF),
//! Jaccard (set), generalized Jaccard (TF / TF-IDF) — six similarity
//! functions per scheme, matching Figure 6.

use er_core::delta::Side;
use er_core::hash::seeded_hash64;
use er_core::FxHashMap;
use serde::{Deserialize, Serialize};

use crate::tokenize::NGramScheme;

/// Seed for term-id hashing (fixed so vectors are comparable across runs).
const TERM_SEED: u64 = 0x7e57_0123_4567_89ab;

/// Hash an n-gram to its dimension id.
#[inline]
pub fn term_id(gram: &str) -> u64 {
    seeded_hash64(gram.as_bytes(), TERM_SEED)
}

/// A sparse vector: `(term id, weight)` pairs sorted by term id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    terms: Vec<(u64, f64)>,
}

impl SparseVector {
    /// Build from unordered (term, weight) pairs; duplicate terms are summed.
    pub fn from_pairs(mut pairs: Vec<(u64, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let mut terms: Vec<(u64, f64)> = Vec::with_capacity(pairs.len());
        for (t, w) in pairs {
            match terms.last_mut() {
                Some(last) if last.0 == t => last.1 += w,
                _ => terms.push((t, w)),
            }
        }
        SparseVector { terms }
    }

    /// The empty vector.
    pub fn empty() -> Self {
        SparseVector { terms: Vec::new() }
    }

    /// Number of non-zero dimensions.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vector has no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Sorted `(term, weight)` pairs.
    #[inline]
    pub fn terms(&self) -> &[(u64, f64)] {
        &self.terms
    }

    /// Dot product (sorted merge join).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        self.join(other).map(|(_, wa, wb)| wa * wb).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.terms.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Sum of weights.
    pub fn weight_sum(&self) -> f64 {
        self.terms.iter().map(|&(_, w)| w).sum()
    }

    /// Number of common terms.
    pub fn common_terms(&self, other: &SparseVector) -> usize {
        self.join(other).count()
    }

    /// Σ min(w_a, w_b) over common terms.
    pub fn common_min_sum(&self, other: &SparseVector) -> f64 {
        self.join(other).map(|(_, wa, wb)| wa.min(wb)).sum()
    }

    /// Iterate common terms as `(term, w_self, w_other)`.
    pub fn join<'a>(
        &'a self,
        other: &'a SparseVector,
    ) -> impl Iterator<Item = (u64, f64, f64)> + 'a {
        JoinIter {
            a: &self.terms,
            b: &other.terms,
            i: 0,
            j: 0,
        }
    }
}

struct JoinIter<'a> {
    a: &'a [(u64, f64)],
    b: &'a [(u64, f64)],
    i: usize,
    j: usize,
}

impl Iterator for JoinIter<'_> {
    type Item = (u64, f64, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.i < self.a.len() && self.j < self.b.len() {
            let (ta, wa) = self.a[self.i];
            let (tb, wb) = self.b[self.j];
            match ta.cmp(&tb) {
                std::cmp::Ordering::Less => self.i += 1,
                std::cmp::Ordering::Greater => self.j += 1,
                std::cmp::Ordering::Equal => {
                    self.i += 1;
                    self.j += 1;
                    return Some((ta, wa, wb));
                }
            }
        }
        None
    }
}

/// Term weighting scheme for bag models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TermWeighting {
    /// Term frequency, normalized by the entity's n-gram count.
    Tf,
    /// TF × inverse document frequency over an entity collection.
    TfIdf,
}

/// Document-frequency statistics of one entity collection.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DfIndex {
    n_docs: usize,
    df: FxHashMap<u64, u32>,
}

impl DfIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one document's distinct terms.
    pub fn add_document<I: IntoIterator<Item = u64>>(&mut self, distinct_terms: I) {
        self.n_docs += 1;
        for t in distinct_terms {
            *self.df.entry(t).or_insert(0) += 1;
        }
    }

    /// Number of registered documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Document frequency of a term.
    pub fn df(&self, term: u64) -> u32 {
        self.df.get(&term).copied().unwrap_or(0)
    }

    /// `IDF(t) = ln(|E| / (df(t) + 1))`, clamped at 0 (the paper's
    /// Appendix B.2.1 formula; frequent terms approach zero weight).
    pub fn idf(&self, term: u64) -> f64 {
        idf_of(self.n_docs, self.df(term))
    }
}

/// `IDF = ln(n_docs / (df + 1))`, clamped at 0; 0 over no documents.
fn idf_of(n_docs: usize, df: u32) -> f64 {
    if n_docs == 0 {
        return 0.0;
    }
    (n_docs as f64 / (df as f64 + 1.0)).ln().max(0.0)
}

/// A bag-of-n-grams representation model for one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorModel {
    /// Which n-grams this model extracts.
    pub scheme: NGramScheme,
}

impl VectorModel {
    /// Create a model over `scheme`.
    pub fn new(scheme: NGramScheme) -> Self {
        VectorModel { scheme }
    }

    /// Normalized term frequencies of a text: `TF(t) = f_t / N`.
    pub fn term_frequencies(&self, text: &str) -> FxHashMap<u64, f64> {
        self.sorted_term_frequencies(text).into_iter().collect()
    }

    /// [`term_frequencies`](Self::term_frequencies) as `(term, TF)` pairs
    /// in ascending term order — the order of a [`SparseVector`] and of a
    /// [`TermArena`] row.
    pub fn sorted_term_frequencies(&self, text: &str) -> Vec<(u64, f64)> {
        let mut ids: Vec<u64> = Vec::new();
        self.scheme.for_each_ngram(text, |g| ids.push(term_id(g)));
        let n = ids.len() as f64;
        ids.sort_unstable();
        let mut tf: Vec<(u64, f64)> = Vec::new();
        for t in ids {
            match tf.last_mut() {
                Some(last) if last.0 == t => last.1 += 1.0,
                _ => tf.push((t, 1.0)),
            }
        }
        // Counts are exact integers, so one division gives each term the
        // bits a running `+= 1.0` then `/= N` gives.
        for (_, w) in &mut tf {
            *w /= n;
        }
        tf
    }

    /// Build the entity vector under a weighting scheme.
    ///
    /// For TF-IDF, `df` must be the entity's own collection index.
    pub fn vector(
        &self,
        text: &str,
        weighting: TermWeighting,
        df: Option<&DfIndex>,
    ) -> SparseVector {
        let pairs = self
            .sorted_term_frequencies(text)
            .into_iter()
            .map(|(t, w)| {
                let w = match weighting {
                    TermWeighting::Tf => w,
                    TermWeighting::TfIdf => {
                        w * df.expect("TF-IDF weighting requires a DfIndex").idf(t)
                    }
                };
                (t, w)
            })
            .collect();
        SparseVector::from_pairs(pairs)
    }
}

/// The six bag-model similarity functions (Figure 6, schema-agnostic
/// vector column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VectorMeasure {
    /// ARCS: Σ over common terms of `log 2 / log(DF1·DF2)` — rare shared
    /// n-grams dominate. Unbounded above; the pipeline min-max normalizes.
    Arcs,
    /// Cosine with TF weights.
    CosineTf,
    /// Cosine with TF-IDF weights.
    CosineTfIdf,
    /// Set Jaccard over term sets.
    Jaccard,
    /// Generalized Jaccard with TF weights.
    GeneralizedJaccardTf,
    /// Generalized Jaccard with TF-IDF weights.
    GeneralizedJaccardTfIdf,
}

impl VectorMeasure {
    /// All six measures.
    pub fn all() -> [VectorMeasure; 6] {
        [
            VectorMeasure::Arcs,
            VectorMeasure::CosineTf,
            VectorMeasure::CosineTfIdf,
            VectorMeasure::Jaccard,
            VectorMeasure::GeneralizedJaccardTf,
            VectorMeasure::GeneralizedJaccardTfIdf,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            VectorMeasure::Arcs => "ARCS",
            VectorMeasure::CosineTf => "CosineTF",
            VectorMeasure::CosineTfIdf => "CosineTFIDF",
            VectorMeasure::Jaccard => "Jaccard",
            VectorMeasure::GeneralizedJaccardTf => "GenJaccardTF",
            VectorMeasure::GeneralizedJaccardTfIdf => "GenJaccardTFIDF",
        }
    }

    /// Which weighting the entity vectors must carry for this measure.
    pub fn weighting(&self) -> TermWeighting {
        match self {
            VectorMeasure::CosineTfIdf | VectorMeasure::GeneralizedJaccardTfIdf => {
                TermWeighting::TfIdf
            }
            // ARCS and set-Jaccard ignore weights; TF vectors suffice.
            _ => TermWeighting::Tf,
        }
    }

    /// Whether the raw score can exceed 1 (requiring graph-level
    /// normalization).
    pub fn is_unbounded(&self) -> bool {
        matches!(self, VectorMeasure::Arcs)
    }

    /// Similarity of two entity vectors. `dfs` are the per-collection
    /// document-frequency indexes, required by ARCS.
    pub fn similarity(
        &self,
        a: &SparseVector,
        b: &SparseVector,
        dfs: Option<(&DfIndex, &DfIndex)>,
    ) -> f64 {
        if a.is_empty() && b.is_empty() {
            return match self {
                VectorMeasure::Arcs => 0.0,
                _ => 1.0,
            };
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        match self {
            VectorMeasure::Arcs => {
                let (df1, df2) = dfs.expect("ARCS requires per-collection DF indexes");
                a.join(b)
                    .map(|(t, _, _)| arcs_term_weight(df1.df(t), df2.df(t)))
                    .sum()
            }
            VectorMeasure::CosineTf | VectorMeasure::CosineTfIdf => {
                let denom = a.norm() * b.norm();
                if denom == 0.0 {
                    0.0
                } else {
                    (a.dot(b) / denom).clamp(0.0, 1.0)
                }
            }
            VectorMeasure::Jaccard => {
                let inter = a.common_terms(b);
                let union = a.len() + b.len() - inter;
                if union == 0 {
                    1.0
                } else {
                    inter as f64 / union as f64
                }
            }
            VectorMeasure::GeneralizedJaccardTf | VectorMeasure::GeneralizedJaccardTfIdf => {
                let min_sum = a.common_min_sum(b);
                let max_sum = a.weight_sum() + b.weight_sum() - min_sum;
                if max_sum <= 0.0 {
                    1.0
                } else {
                    (min_sum / max_sum).clamp(0.0, 1.0)
                }
            }
        }
    }
}

/// One common term's ARCS contribution: `log 2 / log(DF1·DF2)`, guarding
/// the degenerate `DF1·DF2 ≤ 1` case (unique terms) by flooring the product
/// at 2 — such terms then contribute the maximal weight 1.
#[inline]
fn arcs_term_weight(df1: u32, df2: u32) -> f64 {
    let prod = (df1 as f64 * df2 as f64).max(2.0);
    std::f64::consts::LN_2 / prod.ln()
}

/// Relative slack applied to every [`ProbePlan`] suffix bound.
///
/// The plan accumulates per-term contributions in *its* visit order while
/// [`VectorMeasure::similarity`] sums the same quantities in term-id order;
/// two float summation orders can disagree by a relative `n·ε ≈ 1e-12` at
/// realistic vector lengths. `1e-9` leaves three orders of magnitude of
/// headroom while staying far below any similarity gap the top-k heap could
/// distinguish.
pub const SUFFIX_BOUND_MARGIN: f64 = 1e-9;

/// A prefix-filter probe plan for one row vector — the generation-side form
/// of the token measures' shared-term upper bounds (AllPairs/PPJoin style).
///
/// The plan visits the probe's terms in an order chosen per measure
/// (descending bound contribution; ascending right-side document frequency
/// for set Jaccard, whose contributions are uniform) and carries
/// `suffix_bound(i)`: an upper bound on the similarity of the probe with
/// **any** vector sharing terms only among `order[i..]`. A candidate
/// generator that probes postings in plan order may therefore stop at step
/// `i` once `suffix_bound(i)` falls strictly below a top-k admission bound:
/// every not-yet-discovered candidate shares no term before `i`, so its
/// true similarity is dominated by `suffix_bound(i)` and it could never be
/// admitted. Bounds are monotone non-increasing in `i` and carry
/// [`SUFFIX_BOUND_MARGIN`] against float-sum reordering.
///
/// ```
/// use er_textsim::{SparseVector, VectorMeasure};
///
/// let probe = SparseVector::from_pairs(vec![(1, 0.8), (2, 0.5), (3, 0.1)]);
/// let plan = VectorMeasure::CosineTf.probe_plan(&probe, None);
/// assert_eq!(plan.len(), 3);
/// // Suffix bounds dominate every candidate sharing only suffix terms:
/// // a vector sharing only term 3 (visited last) scores at most the
/// // final single-term bound.
/// let tail = SparseVector::from_pairs(vec![(3, 1.0), (9, 1.0)]);
/// let sim = VectorMeasure::CosineTf.similarity(&probe, &tail, None);
/// assert!(sim <= plan.suffix_bound(plan.len() - 1));
/// // And the full-prefix bound dominates any candidate at all.
/// assert!(sim <= plan.suffix_bound(0));
/// ```
#[derive(Debug, Clone)]
pub struct ProbePlan {
    /// Positions into the probe's `terms()`, in visit order.
    order: Vec<u32>,
    /// `order.len() + 1` bounds; entry `i` bounds any pair sharing terms
    /// only among `order[i..]`.
    suffix_bounds: Vec<f64>,
}

impl ProbePlan {
    /// Number of planned probe steps (the probe's term count).
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the probe has no terms to visit.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Position (into the probe's `terms()`) visited at step `i`.
    #[inline]
    pub fn term_position(&self, i: usize) -> usize {
        self.order[i] as usize
    }

    /// Upper bound on the similarity of the probe with any vector sharing
    /// terms only among steps `i..` (`i == len()` means no shared terms).
    #[inline]
    pub fn suffix_bound(&self, i: usize) -> f64 {
        self.suffix_bounds[i]
    }
}

impl VectorMeasure {
    /// Build the prefix-filter [`ProbePlan`] for `probe` under this
    /// measure. `dfs` carries the per-collection document-frequency
    /// indexes — required by ARCS (as in [`similarity`](Self::similarity)),
    /// used as a postings-cost heuristic by set Jaccard, ignored otherwise.
    pub fn probe_plan(&self, probe: &SparseVector, dfs: Option<(&DfIndex, &DfIndex)>) -> ProbePlan {
        let terms = probe.terms();
        self.plan(
            terms.len(),
            |i| terms[i].1,
            dfs.map(|(df1, df2)| move |i: usize| (df1.df(terms[i].0), df2.df(terms[i].0))),
            probe.norm(),
            probe.weight_sum(),
        )
    }

    /// [`probe_plan`](Self::probe_plan) for row `row` of a [`TermArena`],
    /// reading the DF statistics of `vocab` and the row's cached norm and
    /// weight sum: the plan `probe_plan` builds for the row's vector, bit
    /// for bit.
    pub fn arena_probe_plan(&self, row: ArenaRow<'_>, vocab: &TermVocab) -> ProbePlan {
        self.plan(
            row.len(),
            |i| row.weights[i],
            Some(|i: usize| vocab.df_pair(row.ids[i])),
            row.norm,
            row.weight_sum,
        )
    }

    /// The plan over `n` probe terms: term `i` has weight `weight(i)` and
    /// `(left, right)` document frequencies `dfs(i)`.
    fn plan(
        &self,
        n: usize,
        weight: impl Fn(usize) -> f64,
        dfs: Option<impl Fn(usize) -> (u32, u32)>,
        norm: f64,
        wsum: f64,
    ) -> ProbePlan {
        if n == 0 {
            return ProbePlan {
                order: Vec::new(),
                suffix_bounds: vec![0.0],
            };
        }
        // Additive per-term contribution to the shared-term bound.
        let contrib: Vec<f64> = match self {
            VectorMeasure::Arcs => {
                let dfs = dfs
                    .as_ref()
                    .expect("ARCS requires per-collection DF indexes");
                (0..n)
                    .map(|i| {
                        let (df1, df2) = dfs(i);
                        arcs_term_weight(df1, df2)
                    })
                    .collect()
            }
            VectorMeasure::CosineTf | VectorMeasure::CosineTfIdf => {
                (0..n).map(|i| weight(i) * weight(i)).collect()
            }
            VectorMeasure::Jaccard => vec![1.0; n],
            VectorMeasure::GeneralizedJaccardTf | VectorMeasure::GeneralizedJaccardTfIdf => {
                (0..n).map(weight).collect()
            }
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        match self {
            // Uniform contributions: any order yields the same bounds, so
            // visit rare right-side terms (short postings) first.
            VectorMeasure::Jaccard => {
                if let Some(dfs) = dfs {
                    order.sort_by_key(|&i| (dfs(i as usize).1, i));
                }
            }
            _ => order.sort_by(|&i, &j| {
                contrib[j as usize]
                    .partial_cmp(&contrib[i as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(i.cmp(&j))
            }),
        }
        let mut suffix_bounds = vec![0.0; n + 1];
        let mut acc = 0.0f64;
        suffix_bounds[n] = self.suffix_bound_of(acc, n, 0, norm, wsum);
        for i in (0..n).rev() {
            acc += contrib[order[i] as usize];
            suffix_bounds[i] = self.suffix_bound_of(acc, n, n - i, norm, wsum);
        }
        ProbePlan {
            order,
            suffix_bounds,
        }
    }

    /// Map an accumulated suffix contribution to a similarity upper bound.
    ///
    /// * ARCS: the score *is* the shared-term sum, so `acc` bounds it.
    /// * Cosine: Cauchy–Schwarz — `dot(a, b) ≤ ‖a_S‖·‖b‖` when shared
    ///   terms lie in `S`, so `cos ≤ ‖a_S‖ / ‖a‖ = √acc / ‖a‖` (zero norm
    ///   scores exactly 0 by convention).
    /// * Set Jaccard: `inter ≤ |S|` and `union ≥ |a|`, so
    ///   `J ≤ remaining / |a|`.
    /// * Generalized Jaccard: `min_sum ≤ Σ_S w_a` and
    ///   `max_sum ≥ Σ_a w_a`, so `GJ ≤ acc / wsum` (non-positive total
    ///   weight scores the degenerate 1.0, which we bound by 1.0).
    fn suffix_bound_of(&self, acc: f64, n: usize, remaining: usize, norm: f64, wsum: f64) -> f64 {
        let raw = match self {
            VectorMeasure::Arcs => acc,
            VectorMeasure::CosineTf | VectorMeasure::CosineTfIdf => {
                if norm == 0.0 {
                    0.0
                } else {
                    (acc.sqrt() / norm).min(1.0)
                }
            }
            VectorMeasure::Jaccard => remaining as f64 / n as f64,
            VectorMeasure::GeneralizedJaccardTf | VectorMeasure::GeneralizedJaccardTfIdf => {
                if wsum <= 0.0 {
                    1.0
                } else {
                    (acc / wsum).min(1.0)
                }
            }
        };
        raw * (1.0 + SUFFIX_BOUND_MARGIN)
    }
}

// ---------------------------------------------------------------------------
// The interned term arena and its dense-probe join.
// ---------------------------------------------------------------------------

/// The vocabulary both sides' [`TermArena`]s intern their terms into:
/// each distinct `u64` term gets the next `u32` id, with its document
/// frequency in the left and in the right collection.
#[derive(Debug, Clone, Default)]
pub struct TermVocab {
    ids: FxHashMap<u64, u32>,
    /// Per id: the document frequency on each side (`Side as usize`).
    df: Vec<[u32; 2]>,
    /// Documents counted on each side.
    n_docs: [usize; 2],
}

impl TermVocab {
    /// Number of interned terms; every id is below it.
    pub fn len(&self) -> usize {
        self.df.len()
    }

    /// Whether no term is interned.
    pub fn is_empty(&self) -> bool {
        self.df.is_empty()
    }

    /// The vocabulary and both sides' arenas of two collections, from
    /// each text's [`VectorModel::sorted_term_frequencies`] in collection
    /// order: the `n_left` left texts, then the right ones. Each text
    /// counts as one document of its side; its weights are its TFs, times
    /// each term's IDF over both collections under
    /// [`TermWeighting::TfIdf`] — the bits of [`VectorModel::vector`]
    /// with the union of the two collections' [`DfIndex`]es.
    pub fn build(
        tfs: impl IntoIterator<Item = Vec<(u64, f64)>>,
        n_left: usize,
        weighting: TermWeighting,
    ) -> (TermVocab, [TermArena; 2]) {
        let mut vocab = TermVocab::default();
        let mut arenas: [TermArena; 2] = Default::default();
        for (i, tf) in tfs.into_iter().enumerate() {
            let side = if i < n_left { Side::Left } else { Side::Right };
            let arena = &mut arenas[side as usize];
            let row = arena.push_row(&mut vocab, &tf, TermWeighting::Tf);
            vocab.add_document(side, arena.row(row).ids());
        }
        if weighting == TermWeighting::TfIdf {
            for arena in &mut arenas {
                arena.reweight(|id, w| w * vocab.idf(id));
            }
        }
        (vocab, arenas)
    }

    /// The id of `term`, interning it (with no documents) when unseen.
    fn intern(&mut self, term: u64) -> u32 {
        let next = self.df.len() as u32;
        let id = *self.ids.entry(term).or_insert(next);
        if id == next {
            self.df.push([0, 0]);
        }
        id
    }

    /// Count one document of `side` whose distinct term ids are `ids`, as
    /// [`DfIndex::add_document`] does.
    fn add_document(&mut self, side: Side, ids: &[u32]) {
        self.n_docs[side as usize] += 1;
        for &id in ids {
            self.df[id as usize][side as usize] += 1;
        }
    }

    /// The `(left, right)` document frequencies of term `id`.
    #[inline]
    fn df_pair(&self, id: u32) -> (u32, u32) {
        let [l, r] = self.df[id as usize];
        (l, r)
    }

    /// The IDF of term `id` over both collections: the bits
    /// [`DfIndex::idf`] gives on one index that counted every document of
    /// either side.
    fn idf(&self, id: u32) -> f64 {
        let (l, r) = self.df_pair(id);
        idf_of(self.n_docs[0] + self.n_docs[1], l + r)
    }
}

/// One row of a [`TermArena`]: term ids and weights in ascending `u64`
/// term order, with the row's cached norm and weight sum.
#[derive(Debug, Clone, Copy)]
pub struct ArenaRow<'a> {
    ids: &'a [u32],
    weights: &'a [f64],
    norm: f64,
    weight_sum: f64,
}

impl<'a> ArenaRow<'a> {
    /// The row's term ids, in ascending `u64` term order.
    #[inline]
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// The row's weights, one per id.
    #[inline]
    pub fn weights(&self) -> &'a [f64] {
        self.weights
    }

    /// Number of terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the row has no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Euclidean norm: [`SparseVector::norm`]'s bits.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Sum of weights: [`SparseVector::weight_sum`]'s bits.
    #[inline]
    pub fn weight_sum(&self) -> f64 {
        self.weight_sum
    }
}

/// One side's term vectors in one flat store: row offsets, interned term
/// ids, weights, and a cached norm and weight sum per row.
///
/// A row keeps its terms in ascending `u64` term order — the order of
/// its [`SparseVector`], not of the ids — so a walk over its terms adds
/// in the order [`SparseVector`]'s merge join does.
#[derive(Debug, Clone)]
pub struct TermArena {
    /// Row `r` is `ids[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<usize>,
    ids: Vec<u32>,
    weights: Vec<f64>,
    norms: Vec<f64>,
    sums: Vec<f64>,
}

impl Default for TermArena {
    fn default() -> Self {
        TermArena {
            offsets: vec![0],
            ids: Vec::new(),
            weights: Vec::new(),
            norms: Vec::new(),
            sums: Vec::new(),
        }
    }
}

impl TermArena {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the arena has no rows.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Append a row of `(term, TF)` pairs in strictly ascending term
    /// order ([`VectorModel::sorted_term_frequencies`]), interning its
    /// unseen terms into `vocab` with no documents counted, weighted under
    /// `weighting` by `vocab`'s document frequencies as they stand; return
    /// the row's index.
    pub fn push_row(
        &mut self,
        vocab: &mut TermVocab,
        tf: &[(u64, f64)],
        weighting: TermWeighting,
    ) -> usize {
        debug_assert!(tf.windows(2).all(|w| w[0].0 < w[1].0));
        for &(t, w) in tf {
            let id = vocab.intern(t);
            self.ids.push(id);
            self.weights.push(match weighting {
                TermWeighting::Tf => w,
                TermWeighting::TfIdf => w * vocab.idf(id),
            });
        }
        self.offsets.push(self.ids.len());
        self.norms.push(0.0);
        self.sums.push(0.0);
        let row = self.len() - 1;
        self.seal(row);
        row
    }

    /// Row `r`'s norm: [`ArenaRow::norm`] without the row's slices,
    /// for walks that need only the norm.
    #[inline]
    pub fn norm(&self, r: usize) -> f64 {
        self.norms[r]
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> ArenaRow<'_> {
        let span = self.offsets[r]..self.offsets[r + 1];
        ArenaRow {
            ids: &self.ids[span.clone()],
            weights: &self.weights[span],
            norm: self.norms[r],
            weight_sum: self.sums[r],
        }
    }

    /// Postings over the rows, indexed by term id below `n_terms`:
    /// `entry(r, weight)` per term of row `r`, in ascending `r` order.
    /// Each list is allocated at its exact length.
    pub fn postings<T>(&self, n_terms: usize, entry: impl Fn(u32, f64) -> T) -> Vec<Vec<T>> {
        let mut lens = vec![0usize; n_terms];
        for &id in &self.ids {
            lens[id as usize] += 1;
        }
        let mut postings: Vec<Vec<T>> = lens.into_iter().map(Vec::with_capacity).collect();
        for r in 0..self.len() {
            let row = self.row(r);
            for (&id, &w) in row.ids.iter().zip(row.weights) {
                postings[id as usize].push(entry(r as u32, w));
            }
        }
        postings
    }

    /// Replace each weight `w` of term `id` by `weight(id, w)`, and
    /// recompute every row's norm and sum.
    fn reweight(&mut self, weight: impl Fn(u32, f64) -> f64) {
        for r in 0..self.len() {
            let span = self.offsets[r]..self.offsets[r + 1];
            for (w, &id) in self.weights[span.clone()].iter_mut().zip(&self.ids[span]) {
                *w = weight(id, *w);
            }
            self.seal(r);
        }
    }

    /// Cache row `r`'s norm and weight sum, summed as [`SparseVector`]
    /// sums them.
    fn seal(&mut self, r: usize) {
        let weights = &self.weights[self.offsets[r]..self.offsets[r + 1]];
        self.norms[r] = weights.iter().map(|&w| w * w).sum::<f64>().sqrt();
        self.sums[r] = weights.iter().sum();
    }
}

/// The per-worker scratch of the arena join: one probe row scattered into
/// a dense, vocabulary-indexed weight array, NaN where the probe holds no
/// term (arena weights are never NaN).
///
/// [`similarity`](Self::similarity) then walks a candidate row's terms in
/// order and meets the probe's weight on each common term — the common
/// terms in ascending `u64` order, as the merge join of
/// [`VectorMeasure::similarity`] meets them — so every sum adds the same
/// values in the same order from the same `-0.0` start, and each measure
/// keeps its bits.
#[derive(Debug, Clone)]
pub struct DenseProbe {
    /// Per term id: the probe's weight, or NaN.
    weights: Vec<f64>,
    /// The probe's term ids, reset to NaN by the next scatter.
    held: Vec<u32>,
    /// The side the probe row belongs to.
    side: Side,
    norm: f64,
    weight_sum: f64,
}

impl Default for DenseProbe {
    fn default() -> Self {
        DenseProbe {
            weights: Vec::new(),
            held: Vec::new(),
            side: Side::Left,
            norm: 0.0,
            weight_sum: 0.0,
        }
    }
}

impl DenseProbe {
    /// A scratch with no row scattered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scatter `row` of `side`, replacing the previous probe. `n_terms`
    /// is the vocabulary's length: every id of the row and of the
    /// candidates it meets must be below it. The scratch grows with the
    /// vocabulary.
    pub fn scatter(&mut self, side: Side, row: ArenaRow<'_>, n_terms: usize) {
        if self.weights.len() < n_terms {
            self.weights.resize(n_terms, f64::NAN);
        }
        for &id in &self.held {
            self.weights[id as usize] = f64::NAN;
        }
        self.held.clear();
        self.held.extend_from_slice(row.ids);
        for (&id, &w) in row.ids.iter().zip(row.weights) {
            self.weights[id as usize] = w;
        }
        self.side = side;
        self.norm = row.norm;
        self.weight_sum = row.weight_sum;
    }

    /// The common terms of the probe and `cand` (a row of the opposite
    /// side) in `cand`'s term order, as `(id, probe weight, candidate
    /// weight)`.
    #[inline]
    fn common<'a>(&'a self, cand: ArenaRow<'a>) -> impl Iterator<Item = (u32, f64, f64)> + 'a {
        cand.ids.iter().zip(cand.weights).filter_map(|(&id, &wc)| {
            let wp = self.weights[id as usize];
            (!wp.is_nan()).then_some((id, wp, wc))
        })
    }

    /// `measure` between the scattered probe and `cand`, a row of the
    /// opposite side, with the left row as the first argument: the bits of
    /// [`VectorMeasure::similarity`] on the two rows' vectors, with
    /// `vocab`'s document frequencies as the per-collection indexes.
    ///
    /// # Panics
    ///
    /// If an id of `cand` is at or past the `n_terms` of the last
    /// [`scatter`](Self::scatter).
    #[inline]
    pub fn similarity(&self, measure: VectorMeasure, cand: ArenaRow<'_>, vocab: &TermVocab) -> f64 {
        let probe = (self.held.len(), self.norm, self.weight_sum);
        let candidate = (cand.len(), cand.norm, cand.weight_sum);
        let ((len_a, norm_a, sum_a), (len_b, norm_b, sum_b)) = match self.side {
            Side::Left => (probe, candidate),
            Side::Right => (candidate, probe),
        };
        if len_a == 0 && len_b == 0 {
            return match measure {
                VectorMeasure::Arcs => 0.0,
                _ => 1.0,
            };
        }
        if len_a == 0 || len_b == 0 {
            return 0.0;
        }
        match measure {
            VectorMeasure::Arcs => self
                .common(cand)
                .map(|(id, _, _)| {
                    let (df1, df2) = vocab.df_pair(id);
                    arcs_term_weight(df1, df2)
                })
                .sum(),
            VectorMeasure::CosineTf | VectorMeasure::CosineTfIdf => {
                let denom = norm_a * norm_b;
                if denom == 0.0 {
                    0.0
                } else {
                    // `wa·wb` and `wb·wa` are the same bits.
                    let dot: f64 = self.common(cand).map(|(_, wp, wc)| wp * wc).sum();
                    (dot / denom).clamp(0.0, 1.0)
                }
            }
            VectorMeasure::Jaccard => {
                let inter = self.common(cand).count();
                let union = len_a + len_b - inter;
                if union == 0 {
                    1.0
                } else {
                    inter as f64 / union as f64
                }
            }
            VectorMeasure::GeneralizedJaccardTf | VectorMeasure::GeneralizedJaccardTfIdf => {
                let min_sum: f64 = self
                    .common(cand)
                    .map(|(_, wp, wc)| match self.side {
                        Side::Left => wp.min(wc),
                        Side::Right => wc.min(wp),
                    })
                    .sum();
                let max_sum = sum_a + sum_b - min_sum;
                if max_sum <= 0.0 {
                    1.0
                } else {
                    (min_sum / max_sum).clamp(0.0, 1.0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    fn vec_of(pairs: &[(u64, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    #[test]
    fn sparse_vector_merges_duplicates_and_sorts() {
        let v = vec_of(&[(5, 1.0), (2, 0.5), (5, 2.0)]);
        assert_eq!(v.terms(), &[(2, 0.5), (5, 3.0)]);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn dot_and_norm() {
        let a = vec_of(&[(1, 1.0), (2, 2.0)]);
        let b = vec_of(&[(2, 3.0), (3, 4.0)]);
        assert!((a.dot(&b) - 6.0).abs() < EPS);
        assert!((a.norm() - 5.0f64.sqrt()).abs() < EPS);
        assert_eq!(a.common_terms(&b), 1);
        assert!((a.common_min_sum(&b) - 2.0).abs() < EPS);
    }

    #[test]
    fn model_builds_normalized_tf() {
        let m = VectorModel::new(NGramScheme::Token(1));
        let tf = m.term_frequencies("a b a");
        assert_eq!(tf.len(), 2);
        assert!((tf[&term_id("a")] - 2.0 / 3.0).abs() < EPS);
        assert!((tf[&term_id("b")] - 1.0 / 3.0).abs() < EPS);
    }

    #[test]
    fn tfidf_discounts_common_terms() {
        let m = VectorModel::new(NGramScheme::Token(1));
        let mut df = DfIndex::new();
        // "the" appears in all 4 docs; "zebra" in 1.
        for _ in 0..3 {
            df.add_document([term_id("the")]);
        }
        df.add_document([term_id("the"), term_id("zebra")]);
        let v = m.vector("the zebra", TermWeighting::TfIdf, Some(&df));
        let w_the = v
            .terms()
            .iter()
            .find(|&&(t, _)| t == term_id("the"))
            .unwrap()
            .1;
        let w_zebra = v
            .terms()
            .iter()
            .find(|&&(t, _)| t == term_id("zebra"))
            .unwrap()
            .1;
        assert!(w_zebra > w_the, "rare term must outweigh stop word");
        assert!((w_the - 0.0).abs() < EPS, "df+1 == |E| → idf 0");
    }

    #[test]
    fn cosine_tf_identity_and_disjoint() {
        let m = VectorModel::new(NGramScheme::Char(3));
        let a = m.vector("john smith", TermWeighting::Tf, None);
        let b = m.vector("john smith", TermWeighting::Tf, None);
        let c = m.vector("zzzzzz", TermWeighting::Tf, None);
        assert!((VectorMeasure::CosineTf.similarity(&a, &b, None) - 1.0).abs() < EPS);
        assert_eq!(VectorMeasure::CosineTf.similarity(&a, &c, None), 0.0);
    }

    #[test]
    fn jaccard_counts_term_sets() {
        let a = vec_of(&[(1, 0.9), (2, 0.1), (3, 0.5)]);
        let b = vec_of(&[(2, 0.7), (3, 0.2), (4, 0.4)]);
        assert!((VectorMeasure::Jaccard.similarity(&a, &b, None) - 0.5).abs() < EPS);
    }

    #[test]
    fn generalized_jaccard_uses_weights() {
        let a = vec_of(&[(1, 0.6), (2, 0.4)]);
        let b = vec_of(&[(1, 0.2), (3, 0.8)]);
        // min common = 0.2; max total = 1.0 + 1.0 - 0.2 = 1.8.
        let s = VectorMeasure::GeneralizedJaccardTf.similarity(&a, &b, None);
        assert!((s - 0.2 / 1.8).abs() < EPS);
    }

    #[test]
    fn arcs_prefers_rare_shared_terms() {
        let mut df1 = DfIndex::new();
        let mut df2 = DfIndex::new();
        // term 1 is common in both collections, term 2 rare.
        for _ in 0..100 {
            df1.add_document([1u64]);
            df2.add_document([1u64]);
        }
        df1.add_document([2u64]);
        df2.add_document([2u64]);
        let shared_common = vec_of(&[(1, 1.0)]);
        let shared_rare = vec_of(&[(2, 1.0)]);
        let s_common =
            VectorMeasure::Arcs.similarity(&shared_common, &shared_common, Some((&df1, &df2)));
        let s_rare = VectorMeasure::Arcs.similarity(&shared_rare, &shared_rare, Some((&df1, &df2)));
        assert!(
            s_rare > s_common,
            "rare shared term {s_rare} must beat common {s_common}"
        );
        // Exact: df=100 each → ln2/ln(10000); df=1 each → floor at 2.
        assert!((s_common - std::f64::consts::LN_2 / 10_000f64.ln()).abs() < EPS);
        assert!((s_rare - 1.0).abs() < EPS);
    }

    #[test]
    fn measure_roster_and_weighting() {
        assert_eq!(VectorMeasure::all().len(), 6);
        assert_eq!(VectorMeasure::CosineTfIdf.weighting(), TermWeighting::TfIdf);
        assert_eq!(VectorMeasure::Jaccard.weighting(), TermWeighting::Tf);
        assert!(VectorMeasure::Arcs.is_unbounded());
        assert!(!VectorMeasure::CosineTf.is_unbounded());
    }

    #[test]
    fn empty_vector_conventions() {
        let e = SparseVector::empty();
        let v = vec_of(&[(1, 1.0)]);
        for m in VectorMeasure::all() {
            if m == VectorMeasure::Arcs {
                continue; // needs DF indexes
            }
            assert_eq!(m.similarity(&e, &v, None), 0.0, "{}", m.name());
            assert_eq!(m.similarity(&e, &e, None), 1.0, "{}", m.name());
        }
    }
}
