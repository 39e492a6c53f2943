//! Similarity-graph construction for every function of the taxonomy.
//!
//! The paper applies **no blocking**: every cross-pair with similarity
//! above zero becomes an edge. For set/bag measures a pair has positive
//! similarity iff it shares at least one term (or n-gram-graph edge), so an
//! inverted index enumerates the positive pairs *exactly*; edit-distance
//! and semantic measures score the full Cartesian product.
//!
//! Every scored pair passes the positivity filter (`weight > 0`) before
//! it reaches a sink, and all weights are normalized by the largest
//! retained raw score: raw scores map onto `(0, 1]`, so the weakest
//! retained edge keeps a positive weight instead of being demoted to an
//! exact-0 non-edge.
//!
//! # The parallel construction engine
//!
//! Construction of one graph is split into a **prepare** phase that
//! builds the immutable read-side structures — the interned term arenas
//! and their DF statistics, the inverted index, encoded vectors / n-gram
//! graphs, the interned WMD token table — and a **score** phase that
//! shards the left-entity rows over `cfg.effective_threads()` workers of
//! the `er_core::par` pool. Prepare is serial except for the per-text
//! term frequencies of the token-vector branch and the collection encode
//! of the semantic branches, which spread over the same workers. Workers
//! share the prepared state read-only (plain `&` reads, no locks on the
//! hot path), keep their own scratch (probe stamps, dense join probes,
//! WMD row tables), claim contiguous row chunks through an atomic
//! cursor, and emit local triple buffers that a deterministic
//! chunk-order merge feeds into
//! [`GraphBuilder`] — so results are **bit-identical** to the serial path
//! for any thread count (property-tested in `tests/graphgen_props.rs`).
//!
//! # One scoring loop per scorer
//!
//! Each taxonomy branch has one scorer with exactly one row walk,
//! `RowScorer::score_row`, over a *candidate source*
//! (`crate::candidates::CandidateSource`): the branch's own enumeration
//! (full cross product, or every term-sharing pair), its candidate index
//! ([`CandidateMode::Indexed`]), or blocked candidate lists. Every source
//! hands candidates to the same per-scorer callback, so a candidate is
//! scored — screened, batched into lane kernels, counted and emitted —
//! in one place whatever produced it. Prepare
//! builds only the structures the requested source reads. The score
//! phase is one chunked loop generic over the sink: the dense build
//! collects every triple, the top-k build streams each row through a
//! bounded heap, and the in-RAM build is the single-shard case of the
//! out-of-core one (`crate::sharded`).
//!
//! [`build_graph_restricted`] uses the blocked source to score *only*
//! blocked candidate pairs — the production "blocking first" pipeline —
//! instead of building the full graph and discarding most of it, and
//! [`build_prepared`] emits the sorted edge view alongside the graph, so
//! construction and a following threshold sweep
//! (`er_matchers::PreparedGraph::from_sorted`) share exactly one
//! `O(m log m)` sort between them instead of each deriving its own view.
//!
//! # The streaming top-k path
//!
//! [`build_graph_topk`] bounds peak memory at `O(n_left × k)` edges: each
//! worker streams its rows' candidates through a bounded per-row binary
//! heap (`er_core::TopKRow`) **during** the score phase, so the dense
//! graph never materializes — scored-and-rejected candidates cost one
//! heap comparison and no storage. Selection is deterministic (weight
//! descending, ties by ascending right id) and row-local, so results are
//! bit-identical across thread counts; with `k = usize::MAX` the retained
//! edge set equals [`build_graph`]'s (property-tested in
//! `tests/graphgen_props.rs`). It returns the builder accounting
//! ([`BuildStats`]) that proves the bound.
//!
//! # Bound-driven scoring
//!
//! The all-pairs branches (character edit distances, Word Mover's) go
//! further: they **prune before scoring**. The sink exposes an
//! *admission bound* — the row heap's current k-th weight — and the
//! scorers skip any candidate whose cheap exact upper bound (length /
//! character-bag counting filters for the char measures, centroid
//! distance for relaxed WMD) falls strictly below it; Damerau-Levenshtein
//! additionally runs a banded early-exit kernel that abandons a pair
//! once its distance provably exceeds what the bound admits, and the
//! WMD transport sum short-circuits on its monotone partial sums.
//! Every bound dominates the measure's own `f64` under monotone float
//! steps and pruning is strict-below only, so a pruned candidate could
//! never have entered the heap: [`build_graph_topk`] output stays
//! **bit-identical** to the dense-then-prune flow (property-proven per
//! measure and thread count). [`BuildStats`] reports the
//! offered/pruned/scored accounting.

use std::hash::Hasher;
use std::ops::Range;
use std::sync::OnceLock;

use er_core::{
    par, ConstructionCounters, Edge, FxHashMap, FxHashSet, FxHasher, GraphBuilder, Side,
    SimilarityGraph, SortedEdges, TopKRow,
};
use er_datasets::{Dataset, EntityCollection, EntityProfile};
use er_embed::lanes as embed_lanes;
use er_embed::lanes::InterleavedBlocks;
use er_embed::measures::Encoder;
use er_embed::{
    cosine_distance_bound, inverse_distance_bound, BagSummary, DenseVector, SemanticMeasure,
    UnitTable, VectorBallIndex,
};
use er_textsim::lanes::{self, MyersBatch, LANE_WIDTH};
use er_textsim::{
    CharMeasure, CharScratch, CharTable, DenseProbe, GraphSimilarity, LengthBucketIndex,
    NGramGraph, NGramScheme, SchemaBasedMeasure, TermArena, TermVocab, VectorMeasure, VectorModel,
};
use serde::Serialize;

use crate::candidates::{
    generate_ball_candidates, generate_char_candidates, generate_token_candidates, CandidateLists,
    CandidateMode, CandidateSource, SourceKind,
};
use crate::config::PipelineConfig;
use crate::taxonomy::{SemanticScope, SimilarityFunction};

/// A scored pair before normalization: `(left, right, raw weight)`.
pub(crate) type Triple = (u32, u32, f64);

/// The normalization frame one build derived from its retained raw
/// scores — the map the construction finalize step applies to every edge
/// weight.
///
/// A resident service that scores *new* records against an already-built
/// graph must map their raw scores through the **same** frame, or the new
/// edges would live on a different scale than the resident ones. The
/// frame is therefore a first-class output of the top-k build
/// ([`build_graph_topk`]) and an input to
/// [`ResidentScorer`](crate::resident::ResidentScorer). It is frozen at
/// build time: later inserts could in principle widen the raw score
/// range, which a full rebuild would absorb into a new frame — documented
/// drift of the incremental path (the clamp keeps weights valid anyway).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NormFrame {
    /// The largest retained raw score, folded from `0.0`: every retained
    /// score is positive, so the range's lower end is the `0.0` floor and
    /// this is the whole span. A span at or below `f64::EPSILON` (an
    /// empty build) is degenerate: every weight maps to `1.0`.
    span: f64,
}

impl NormFrame {
    /// The frame of a retained raw-score multiset. Mirrors the finalize
    /// step bit for bit.
    pub(crate) fn compute(shards: &[Vec<Triple>]) -> Self {
        let hi = shards
            .iter()
            .flatten()
            .fold(0.0, |hi: f64, &(_, _, w)| hi.max(w));
        NormFrame::from_max(hi)
    }

    /// The frame over a maximum folded externally: `hi` is the running
    /// max over the retained raw scores, folded from `0.0`. Because max
    /// folding is order- and grouping-independent, a frame assembled
    /// from per-shard maxima is **bit-identical** to
    /// [`compute`](Self::compute) over the concatenated triples — the
    /// keystone of the out-of-core build's equivalence with the in-RAM
    /// path (`crate::sharded`).
    pub(crate) fn from_max(hi: f64) -> Self {
        NormFrame { span: hi }
    }

    /// A degenerate frame mapping every raw score to `1.0` — what an
    /// empty build produces.
    pub fn degenerate() -> Self {
        NormFrame { span: 0.0 }
    }

    /// Normalize one raw score exactly as the producing build did.
    #[inline]
    pub fn apply(&self, w: f64) -> f64 {
        if self.span <= f64::EPSILON {
            1.0
        } else {
            (w / self.span).clamp(0.0, 1.0)
        }
    }
}

/// Where a scorer's retained triples go. The dense sink collects them
/// verbatim (`Vec<Triple>`); the top-k sink ([`TopKSink`]) routes them
/// through a bounded per-row heap so rejected candidates never occupy
/// memory. The score phase drives one sink per row chunk: the scorer
/// emits into it, [`end_row`](EdgeSink::end_row) closes each row, and
/// [`into_triples`](EdgeSink::into_triples) hands over the chunk's
/// retained triples.
///
/// The sink also drives **bound-driven scoring**: before paying for a
/// full similarity computation a scorer may ask for the sink's
/// [`admission_bound`](EdgeSink::admission_bound) and skip any candidate
/// whose cheap *exact* upper bound falls strictly below it — the skipped
/// emit could not have entered the sink, so results stay bit-identical.
/// The dense sink admits everything (bound `-∞`, pruning never fires);
/// [`TopKSink`] answers with its row heap's current k-th weight.
///
/// A pair is `(row, other)`: the id of the probing entry and of the
/// candidate. The score phase probes from the left, so its pairs are
/// `(left, right)`; a resident right insert probes the left side.
pub(crate) trait EdgeSink {
    /// Accept one scored pair (already positivity-filtered by
    /// [`scored`](EdgeSink::scored)).
    fn emit(&mut self, row: u32, other: u32, weight: f64);

    /// The weight a new candidate of the current row must reach to
    /// possibly be retained. A scorer may skip a candidate iff its upper
    /// bound is **strictly** below this (equal weights can still win the
    /// sink's tie-break).
    #[inline]
    fn admission_bound(&self) -> f64 {
        f64::NEG_INFINITY
    }

    /// Whether the sink takes pairs with candidate `other` at all; a
    /// scorer skips a refused candidate before scoring it. The score
    /// phase's sinks take every candidate; a resident probe's sink
    /// refuses tombstoned ones.
    #[inline]
    fn takes(&self, _other: u32) -> bool {
        true
    }

    /// Count one candidate pair materialized and handed to a measure
    /// (it will subsequently be pruned or scored, never both). Pairs an
    /// index skips *before* generation are not counted anywhere — that
    /// is the point of [`CandidateMode::Indexed`].
    #[inline]
    fn note_generated(&mut self) {}

    /// Count one candidate skipped via an upper bound (never emitted).
    #[inline]
    fn note_pruned(&mut self) {}

    /// Count one candidate fully scored (emitted or positivity-dropped).
    #[inline]
    fn note_scored(&mut self) {}

    /// Count one fully scored candidate and emit it unless the
    /// positivity filter drops it (`weight <= 0`, the paper's protocol).
    #[inline]
    fn scored(&mut self, row: u32, other: u32, weight: f64) {
        self.note_scored();
        if weight > 0.0 {
            self.emit(row, other, weight);
        }
    }

    /// Close the current row (the next emit starts a new one).
    #[inline]
    fn end_row(&mut self) {}

    /// The chunk's retained triples, in row order.
    fn into_triples(self) -> Vec<Triple>;
}

impl EdgeSink for Vec<Triple> {
    #[inline]
    fn emit(&mut self, row: u32, other: u32, weight: f64) {
        self.push((row, other, weight));
    }

    fn into_triples(self) -> Vec<Triple> {
        self
    }
}

/// A similarity graph together with the function that produced it.
#[derive(Debug, Clone, Serialize)]
pub struct GeneratedGraph {
    /// The producing similarity function.
    pub function: SimilarityFunction,
    /// The normalized similarity graph.
    pub graph: SimilarityGraph,
}

/// A constructed graph bundled with its weight-descending sorted edge
/// view, produced in one pass by [`build_prepared`]. Feed it to
/// `er_matchers::PreparedGraph::from_sorted`: the sort happens once, at
/// emit time, and every downstream consumer (sweeps, stats, caches)
/// shares this view instead of deriving its own.
#[derive(Debug, Clone)]
pub struct BuiltGraph {
    /// The normalized similarity graph.
    pub graph: SimilarityGraph,
    /// The graph's edges sorted once at emit time (weight descending).
    pub sorted: SortedEdges,
}

/// Build the similarity graph of `function` over `dataset`.
pub fn build_graph(
    dataset: &Dataset,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    build_graph_over(&dataset.left, &dataset.right, function, cfg)
}

/// Build the similarity graph of `function` over two bare collections.
///
/// The entry point for *imported* data (`er_datasets::import`): everything
/// `build_graph` does — inverted-index candidate generation, parallel
/// scoring, min-max normalization — without requiring a generated
/// [`Dataset`].
pub fn build_graph_over(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    finalize(
        left,
        right,
        score_shards(
            left,
            right,
            function,
            CandidateSource::Enumerate,
            cfg,
            ScoreMode::Dense,
        ),
    )
    .0
}

/// Build the **top-k pruned** similarity graph of `function` over two
/// collections: only each left entity's best `k` edges are kept,
/// selected *during* scoring so the dense graph never materializes.
/// Returns the graph, the builder accounting that proves the memory
/// bound ([`BuildStats`]), and the [`NormFrame`] the build normalized
/// with — the frame a resident service needs to score later record
/// inserts onto the same weight scale (see [`crate::resident`]).
///
/// Semantics: each left row keeps its `k` best candidates by **raw**
/// score, ties broken by ascending right id (the deterministic
/// `er_core::TopKRow` order); min-max normalization then runs over
/// the retained set. The result equals
/// `build_graph_over(..).pruned_top_k(k)` bit for bit — retained raw
/// scores are positive, so the normalizer divides by the global maximum,
/// which (always some row's best edge) survives pruning, making it the
/// same strictly monotone map — at a fraction of the memory. (One
/// theoretical caveat: the dense flow selects on *normalized* weights,
/// so two distinct raw scores that collide onto one f64 after
/// normalization would tie there but not here; no taxonomy measure emits
/// adjacent-ulp raw scores, and the per-branch property suite enforces
/// exact equality in practice.) `k = usize::MAX` reproduces
/// [`build_graph_over`]'s edge set exactly; results are bit-identical
/// across thread counts either way.
///
/// `mode` picks the candidate source. [`CandidateMode::Enumerated`]
/// walks each branch's own enumeration (the full cross product, or
/// every term-sharing pair). [`CandidateMode::Indexed`] replaces it with
/// index-driven generation under the sink's admission bound
/// (prefix-filtered postings for the token-vector measures, length
/// buckets with counting filters for the character measures, centroid
/// balls for the semantic measures — see [`crate::candidates`]): pairs
/// an index rules out are never materialized, so
/// [`BuildStats::generated_pairs`] itself drops below
/// `n_left × n_right` while the finished graph stays **bit-identical**
/// to enumeration for every taxonomy branch, `k` and thread count
/// (property-proven in `tests/candidates_props.rs`). Branches without a
/// candidate index (the schema-based token measures) walk their own
/// enumeration, and the n-gram graph models' index is the edge-key
/// postings their enumeration walks — still correct, just not
/// sub-quadratic.
///
/// The accounting is the single-shard case of the out-of-core build
/// ([`build_graph_sharded`](crate::build_graph_sharded)): `shards = 1`,
/// `resident_budget_edges = n_left × k`, and the spill and merge
/// counters are 0.
///
/// ```
/// use er_datasets::{Dataset, DatasetId};
/// use er_pipeline::{build_graph_topk, CandidateMode, PipelineConfig, SimilarityFunction};
/// use er_textsim::{CharMeasure, SchemaBasedMeasure};
///
/// let d = Dataset::generate(DatasetId::D1, 0.02, 7);
/// let f = SimilarityFunction::SchemaBasedSyntactic {
///     attribute: "name".into(),
///     measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
/// };
/// let (cfg, k) = (PipelineConfig::default(), 2);
/// let build = |mode| build_graph_topk(&d.left, &d.right, &f, k, mode, &cfg);
/// let (g_enum, s_enum, _) = build(CandidateMode::Enumerated);
/// let (g_idx, s_idx, _) = build(CandidateMode::Indexed);
/// assert_eq!(g_enum.edges(), g_idx.edges());
/// let adj = g_idx.adjacency();
/// assert!((0..g_idx.n_left()).all(|l| adj.left_degree(l) <= k));
/// assert_eq!(s_idx.retained_edges, g_idx.n_edges());
/// assert!(s_idx.peak_resident_edges <= s_idx.resident_budget_edges);
/// assert!(s_idx.generated_pairs <= s_enum.generated_pairs);
/// assert_eq!(s_idx.generated_pairs, s_idx.pruned_pairs + s_idx.scored_pairs);
/// ```
pub fn build_graph_topk(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    mode: CandidateMode,
    cfg: &PipelineConfig,
) -> (SimilarityGraph, BuildStats, NormFrame) {
    let acct = ConstructionCounters::default();
    let shards = score_shards(
        left,
        right,
        function,
        SourceKind::of_mode(mode),
        cfg,
        ScoreMode::TopK { k, acct: &acct },
    );
    let (graph, frame) = finalize(left, right, shards);
    let stats = BuildStats {
        shards: 1,
        generated_pairs: acct.generated(),
        offered_edges: acct.offered(),
        retained_edges: graph.n_edges(),
        peak_resident_edges: acct.peak(),
        resident_budget_edges: left.len().saturating_mul(k),
        pruned_pairs: acct.pruned(),
        scored_pairs: acct.scored(),
        spilled_triples: 0,
        spilled_bytes: 0,
        merged_bytes: 0,
    };
    (graph, stats, frame)
}

/// Builder accounting of one top-k construction, in RAM
/// ([`build_graph_topk`]) or out of core
/// ([`build_graph_sharded`](crate::build_graph_sharded)). The in-RAM
/// build is the single-shard case: `shards = 1`,
/// `resident_budget_edges = n_left × k`, and every spill and merge
/// counter is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BuildStats {
    /// Shards scored (and, out of core, spilled); 1 in RAM.
    pub shards: usize,
    /// Candidate pairs the scorers **generated** — materialized and
    /// handed to a measure, after which each was either bound-pruned or
    /// fully scored (`generated_pairs == pruned_pairs + scored_pairs` on
    /// every path). [`CandidateMode::Enumerated`] generates the branch's
    /// full candidate enumeration; [`CandidateMode::Indexed`] generates
    /// only the pairs its candidate index could not rule out, so this is
    /// the counter that proves the all-pairs loop is dead
    /// (`generated_pairs ≪ n_left × n_right`).
    pub generated_pairs: usize,
    /// Triples the scorers emitted — what the dense path would have
    /// buffered in full.
    pub offered_edges: usize,
    /// Edges in the finished graph (at most `n_left × k`).
    pub retained_edges: usize,
    /// Maximum triples resident at once during the score phase —
    /// bounded row heaps plus the finished shard buffers not yet
    /// spilled. At most [`Self::resident_budget_edges`], however many
    /// edges were offered.
    pub peak_resident_edges: usize,
    /// The resident ceiling: `n_left × k` in RAM; `2 × shard_rows × k`
    /// out of core, where the spill thread holds one finished shard
    /// while the next is scored.
    pub resident_budget_edges: usize,
    /// Candidate pairs a bound-aware scorer skipped **before** scoring:
    /// their exact upper bound fell strictly below the row heap's
    /// admission weight, so scoring them could not have changed the
    /// result. Zero for scorers without upper bounds (the
    /// inverted-index branches, whose candidate enumeration is already
    /// the filter).
    pub pruned_pairs: usize,
    /// Candidate pairs fully scored (then emitted or positivity-dropped).
    /// `pruned_pairs + scored_pairs` is the candidate volume a
    /// bound-aware scorer faced; the prune rate is their ratio.
    pub scored_pairs: usize,
    /// Triples written to spill files (every one already passed the
    /// positivity filter).
    pub spilled_triples: usize,
    /// Bytes written to spill files.
    pub spilled_bytes: usize,
    /// Bytes of the merged on-disk graph (the final store file).
    pub merged_bytes: usize,
}

/// Build the similarity graph of `function` over `dataset`, emitting the
/// sorted edge view alongside (see [`BuiltGraph`]), sorted once at emit
/// time by the one packed-key sort ([`SortedEdges::from_edges`]). That
/// sort is all `PreparedGraph::new` would do: the adjacency is scattered
/// lazily from the sorted view either way. The point is ownership —
/// construction emits the view, so callers that need the graph *and* a
/// prepared sweep input hand it to `PreparedGraph::from_sorted` and
/// never sort twice.
pub fn build_prepared(
    dataset: &Dataset,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
) -> BuiltGraph {
    let graph = build_graph(dataset, function, cfg);
    let sorted = graph.sorted_edges();
    BuiltGraph { graph, sorted }
}

/// Build the similarity graph of `function` restricted to the blocked
/// `candidates` — the **blocking-first** pipeline.
///
/// Only candidate pairs are scored, so the cost is `O(|candidates|)`
/// comparisons instead of the full (or inverted-index) enumeration the
/// unrestricted build pays; the edge set equals
/// `restrict_graph(build_graph_over(..), candidates)`'s. Normalization
/// runs over the *restricted* score set — exactly what a pipeline that
/// blocks before scoring would see — so absolute weights can differ from
/// the build-full-then-restrict flow, which normalizes over the full graph
/// first. Candidate pairs referencing out-of-range entity ids are
/// ignored.
pub fn build_graph_restricted(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    candidates: &FxHashSet<(u32, u32)>,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    let lists = CandidateLists::new(left.len() as u32, right.len() as u32, candidates);
    finalize(
        left,
        right,
        score_shards(
            left,
            right,
            function,
            CandidateSource::Blocked(&lists),
            cfg,
            ScoreMode::Dense,
        ),
    )
    .0
}

/// One taxonomy branch's scoring state: prepared serially, then shared
/// read-only (`Sync`) by every worker of the score phase.
///
/// A scorer has exactly **one** row method: [`score_row`] walks the
/// row's candidates from a [`CandidateSource`] — the branch's own
/// enumeration, its candidate index, or blocked candidate lists — and
/// scores every candidate in one place, so each source runs the same
/// screens and kernels. Prepare builds only what the requested source
/// reads; structures another source would read are left empty.
///
/// Every scorer hands its scores to [`EdgeSink::scored`], so only
/// positive-similarity pairs are emitted (the paper's protocol). The
/// inverted-index branches enumerate only term-sharing pairs on top of
/// that — their exactness guarantee, not a second filter.
///
/// A scorer's entries grow on either side: the resident scorer
/// (`crate::resident`) keeps the prepared state between inserts,
/// [`append`](RowScorer::append)s each new record and probes the
/// opposite side through the same [`score_row`].
///
/// [`score_row`]: RowScorer::score_row
pub(crate) trait RowScorer: Send + Sync {
    /// Per-worker mutable scratch (probe stamps, dense join probes, WMD
    /// row tables).
    type Scratch: Send + Sync;

    /// The candidate index the `Index` source walks; `()` for branches
    /// without one.
    type Index: Send + Sync;

    /// What turns a profile into an entry: the token family's n-gram
    /// model, the schema-based families' attribute, the n-gram
    /// scheme, the semantic families' encoder and scope. The dispatch
    /// ([`with_scorer`]) hands one out with every scorer; batch builds
    /// drop it, and only the resident scorer keeps one.
    type ProfileEncoder: Send + Sync;

    /// Number of left rows to score.
    fn n_rows(&self) -> usize;

    /// Fresh scratch for one worker.
    fn scratch(&self) -> Self::Scratch;

    /// Build the candidate index over `side`'s prepared entries (the
    /// score phase indexes the right side).
    fn index(&self, side: Side) -> Self::Index;

    /// Score entry `row` of `side` against the candidates `source`
    /// yields from the opposite side, emitting retained pairs into `out`
    /// and skipping every candidate it does not [`take`](EdgeSink::takes).
    /// The score phase scores left rows; a resident right insert scores
    /// a right entry, and every measure sees the batch `(left, right)`
    /// argument order either way ([`oriented`]).
    fn score_row<O: EdgeSink>(
        &self,
        side: Side,
        row: usize,
        source: CandidateSource<'_, &Self::Index>,
        scratch: &mut Self::Scratch,
        out: &mut O,
    );

    /// Append `profile` to `side`'s entries and return its row; `None`
    /// when it yields no entry (a schema-based measure's attribute is
    /// missing).
    fn append(
        &mut self,
        enc: &Self::ProfileEncoder,
        side: Side,
        profile: &EntityProfile,
    ) -> Option<usize>;

    /// Bring `side`'s index up to date with its just-appended entry
    /// `row`: postings take the entry at once; length buckets and balls
    /// are rebuilt once [`overflow_passes_rebuild`].
    fn index_appended(&self, side: Side, row: usize, index: &mut Self::Index);
}

/// Rebuild a length-bucket or ball index once the entries appended after
/// its build — scored one by one, unindexed — outnumber this fraction of
/// the entries it covers, so probes never degrade to linear scans.
const OVERFLOW_REBUILD_FRACTION: f64 = 0.25;

/// Whether an index over the first `indexed` of a side's `len` entries is
/// due for a rebuild.
fn overflow_passes_rebuild(indexed: usize, len: usize) -> bool {
    (len - indexed) as f64 > indexed.max(4) as f64 * OVERFLOW_REBUILD_FRACTION
}

/// A probe/candidate pair in batch `(left, right)` order, whichever side
/// probes, so a right probe's bits never rest on a measure being
/// symmetric in its arguments.
#[inline]
fn oriented<T>(side: Side, probe: T, candidate: T) -> (T, T) {
    match side {
        Side::Left => (probe, candidate),
        Side::Right => (candidate, probe),
    }
}

/// Candidates batched for a lane kernel: [`push`](Self::push) hands
/// every full batch of `N` to its `flush`, [`finish`](Self::finish) the
/// ragged tail, so candidates reach the kernel in source order.
struct LaneBuffer<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> LaneBuffer<T, N> {
    fn new() -> Self {
        LaneBuffer {
            items: [T::default(); N],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, item: T, flush: impl FnOnce(&[T])) {
        self.items[self.len] = item;
        self.len += 1;
        if self.len == N {
            flush(&self.items);
            self.len = 0;
        }
    }

    fn finish(&mut self, flush: impl FnOnce(&[T])) {
        if self.len > 0 {
            flush(&self.items[..self.len]);
            self.len = 0;
        }
    }
}

/// The chunked score phase over a contiguous range of the scorer's rows:
/// the rows are split into chunks fanned out over the workers, and each
/// chunk is scored into a fresh sink from `new_sink`. Every sink is
/// row-local — the dense sink keeps every retained triple, [`TopKSink`]
/// a bounded heap per row — so scoring `rows` in isolation yields
/// exactly the triples a full run emits for those rows, in the same
/// order: the output is bit-identical for any thread count, chunk size
/// and range split.
fn score_rows<S: RowScorer, K: EdgeSink>(
    scorer: &S,
    source: CandidateSource<'_, &S::Index>,
    cfg: &PipelineConfig,
    rows: Range<usize>,
    new_sink: impl Fn() -> K + Sync,
) -> Vec<Vec<Triple>> {
    let n_rows = rows.len();
    let base = rows.start;
    let threads = cfg.effective_threads();
    let chunk = par::chunk_len(n_rows, threads);
    let n_chunks = n_rows.div_ceil(chunk);

    // Chunks come back in chunk order — the serial row order — so the
    // merge is deterministic and every build is bit-identical to
    // `threads: 1`.
    par::map_indexed(
        n_chunks,
        threads,
        || scorer.scratch(),
        |scratch, c| {
            let mut sink = new_sink();
            for row in base + c * chunk..base + ((c + 1) * chunk).min(n_rows) {
                scorer.score_row(Side::Left, row, source, scratch, &mut sink);
                sink.end_row();
            }
            sink.into_triples()
        },
    )
}

/// Per-worker [`EdgeSink`] of the top-k path: candidates of the current
/// row stream through a bounded binary heap; only net insertions touch
/// the shared resident/peak counters (evictions swap one entry for
/// another), and the flow counters are accumulated locally per chunk and
/// flushed once into the shared [`ConstructionCounters`].
struct TopKSink<'a> {
    row: TopKRow,
    left: u32,
    generated: usize,
    offered: usize,
    pruned: usize,
    scored: usize,
    drain_scratch: Vec<(u32, f64)>,
    /// The chunk's finished rows (weight desc, right asc within a row).
    buf: Vec<Triple>,
    acct: &'a ConstructionCounters,
}

impl<'a> TopKSink<'a> {
    fn new(k: usize, acct: &'a ConstructionCounters) -> Self {
        TopKSink {
            row: TopKRow::new(k),
            left: 0,
            generated: 0,
            offered: 0,
            pruned: 0,
            scored: 0,
            drain_scratch: Vec::new(),
            buf: Vec::new(),
            acct,
        }
    }
}

impl EdgeSink for TopKSink<'_> {
    #[inline]
    fn emit(&mut self, row: u32, other: u32, weight: f64) {
        self.left = row;
        self.offered += 1;
        let before = self.row.len();
        self.row.offer(other, weight);
        if self.row.len() > before {
            self.acct.add_resident();
        }
    }

    #[inline]
    fn admission_bound(&self) -> f64 {
        self.row.admission_bound()
    }

    #[inline]
    fn note_generated(&mut self) {
        self.generated += 1;
    }

    #[inline]
    fn note_pruned(&mut self) {
        self.pruned += 1;
    }

    #[inline]
    fn note_scored(&mut self) {
        self.scored += 1;
    }

    /// Move the finished row's survivors into the chunk buffer and reset
    /// the heap for the next row.
    fn end_row(&mut self) {
        self.drain_scratch.clear();
        self.row.drain_sorted_into(&mut self.drain_scratch);
        let left = self.left;
        self.buf
            .extend(self.drain_scratch.iter().map(|&(r, w)| (left, r, w)));
    }

    fn into_triples(self) -> Vec<Triple> {
        self.acct.add_generated(self.generated);
        self.acct.add_offered(self.offered);
        self.acct.add_pruned(self.pruned);
        self.acct.add_scored(self.scored);
        self.buf
    }
}

/// How the score phase collects a row's retained triples.
#[derive(Clone, Copy)]
pub(crate) enum ScoreMode<'a> {
    /// Keep every retained triple — the paper's dense protocol.
    Dense,
    /// Stream through bounded per-row top-k heaps (the scale path).
    TopK {
        /// Edges kept per left row.
        k: usize,
        /// Shared candidate-flow and resident/peak counters.
        acct: &'a ConstructionCounters,
    },
}

/// The score phase of one build, ready to run over whichever scorer the
/// taxonomy dispatch ([`with_scorer`]) prepares.
struct ScorePhase<'a, F> {
    source: SourceKind<'a>,
    cfg: &'a PipelineConfig,
    mode: ScoreMode<'a>,
    shard_rows: usize,
    on_shard: F,
}

/// What the taxonomy dispatch ([`with_scorer`]) hands a function's
/// prepared scorer and profile encoder to: the score phase, or the
/// resident scorer (`crate::resident`), which keeps both.
pub(crate) trait ScorerUse {
    /// What the use makes of the scorer.
    type Output;

    /// Take the prepared `scorer` and the `encoder` of its entries.
    fn prepared<S: RowScorer + 'static>(
        self,
        scorer: S,
        encoder: S::ProfileEncoder,
    ) -> Self::Output;
}

/// The one taxonomy dispatch: prepare `function`'s scorer over the two
/// collections for `source`, together with its profile encoder, and hand
/// both to `user`.
pub(crate) fn with_scorer<U: ScorerUse>(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    source: SourceKind<'_>,
    cfg: &PipelineConfig,
    user: U,
) -> U::Output {
    match function {
        SimilarityFunction::SchemaBasedSyntactic { attribute, measure } => match measure {
            // Character measures ride the bound-driven engine: interned
            // char tables, bit-parallel Levenshtein, prune-aware sinks.
            SchemaBasedMeasure::Char(m) => user.prepared(
                CharScorer::prepare(left, right, attribute, *m, source),
                attribute.clone(),
            ),
            SchemaBasedMeasure::Token(_) => user.prepared(
                SchemaBasedScorer::prepare(left, right, attribute, *measure, source),
                attribute.clone(),
            ),
        },
        SimilarityFunction::SchemaAgnosticVector { scheme, measure } => {
            let (scorer, model) =
                VectorScorer::prepare(left, right, *scheme, *measure, source, cfg);
            user.prepared(scorer, model)
        }
        SimilarityFunction::SchemaAgnosticGraph { scheme, measure } => user.prepared(
            GraphModelScorer::prepare(left, right, *scheme, *measure, source),
            *scheme,
        ),
        SimilarityFunction::Semantic {
            model,
            measure,
            scope,
        } => {
            let enc = model.encoder();
            if measure.needs_token_vectors() {
                let scorer = WmdScorer::prepare(left, right, &enc, scope, cfg);
                user.prepared(scorer, (enc, scope.clone()))
            } else {
                let scorer = DenseSemanticScorer::prepare(left, right, &enc, *measure, scope, cfg);
                user.prepared(scorer, (enc, scope.clone()))
            }
        }
    }
}

/// The score phase runs over the prepared scorer: it builds the source's
/// right-side index (if any), then [`run_over`](ScorePhase::run_over)s
/// it. Batch builds drop the encoder.
impl<F: FnMut(usize, Vec<Vec<Triple>>)> ScorerUse for ScorePhase<'_, F> {
    type Output = ();

    fn prepared<S: RowScorer + 'static>(self, scorer: S, _: S::ProfileEncoder) {
        let source = self.source.with_index(|| scorer.index(Side::Right));
        self.run_over(&scorer, source.as_ref());
    }
}

impl<F: FnMut(usize, Vec<Vec<Triple>>)> ScorePhase<'_, F> {
    /// Score the rows `shard_rows` at a time, handing each shard's chunk
    /// buffers to `on_shard` before the next shard starts.
    fn run_over<S: RowScorer>(mut self, scorer: &S, source: CandidateSource<'_, &S::Index>) {
        let n_rows = scorer.n_rows();
        for (shard, start) in (0..n_rows).step_by(self.shard_rows).enumerate() {
            let rows = start..n_rows.min(start.saturating_add(self.shard_rows));
            let bufs = match self.mode {
                ScoreMode::Dense => score_rows(scorer, source, self.cfg, rows, Vec::new),
                ScoreMode::TopK { k, acct } => {
                    score_rows(scorer, source, self.cfg, rows, || TopKSink::new(k, acct))
                }
            };
            (self.on_shard)(shard, bufs);
        }
    }
}

/// The indexed top-k build over a scorer prepared (and kept) by the
/// caller, walking the caller's right-side `index`: the build
/// [`build_graph_topk`] runs in [`CandidateMode::Indexed`], minus
/// the prepare — the resident scorer's load-time graph.
pub(crate) fn build_topk_prepared<S: RowScorer>(
    scorer: &S,
    index: &S::Index,
    left: &EntityCollection,
    right: &EntityCollection,
    k: usize,
    cfg: &PipelineConfig,
) -> (SimilarityGraph, NormFrame) {
    let acct = ConstructionCounters::default();
    let mut shards = Vec::new();
    ScorePhase {
        source: CandidateSource::Index(()),
        cfg,
        mode: ScoreMode::TopK { k, acct: &acct },
        shard_rows: usize::MAX,
        on_shard: |_, bufs| shards.extend(bufs),
    }
    .run_over(scorer, CandidateSource::Index(index));
    finalize(left, right, shards)
}

/// Prepare the branch's scorer **once** over the full collections — DF
/// statistics, indexes, encoded vectors, interned token tables — then
/// run the score phase shard by shard: `shard_rows` scorer rows at a
/// time, each finished shard's triple buffers passed to `on_shard` in
/// row order and dropped before the next shard is scored.
///
/// The in-RAM build is the single-shard case ([`score_shards`]). Because
/// the prepared scorer (and with it every statistic that feeds the raw
/// scores) is the same however the rows are sharded, and each row's
/// retained set is row-local, concatenating the `on_shard` payloads in
/// call order reproduces the single-shard output bit for bit — the
/// out-of-core builder (`crate::sharded`) owes its equivalence proof to
/// exactly this invariant. `shard_rows` must be at least 1.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_sharded(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    source: SourceKind<'_>,
    cfg: &PipelineConfig,
    mode: ScoreMode<'_>,
    shard_rows: usize,
    on_shard: impl FnMut(usize, Vec<Vec<Triple>>),
) {
    let phase = ScorePhase {
        source,
        cfg,
        mode,
        shard_rows,
        on_shard,
    };
    with_scorer(left, right, function, source, cfg, phase);
}

/// Prepare the branch's scorer and run the score phase over all rows.
pub(crate) fn score_shards(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    source: SourceKind<'_>,
    cfg: &PipelineConfig,
    mode: ScoreMode<'_>,
) -> Vec<Vec<Triple>> {
    let mut all = Vec::new();
    score_sharded(
        left,
        right,
        function,
        source,
        cfg,
        mode,
        usize::MAX,
        |_, bufs| all.extend(bufs),
    );
    all
}

/// Normalize the (positive) retained weights by their maximum — min-max
/// with a `0.0` floor — and merge the shards into the graph
/// (deterministic shard order).
///
/// The floor keeps the weights on `(0, 1]`: with plain min-max the
/// weakest retained edge maps to exactly `0.0`, silently demoting a
/// positive-similarity pair to a non-edge at every positive grid
/// threshold.
///
/// Returns the [`NormFrame`] it applied alongside, so a resident service
/// can normalize later incremental scores identically.
fn finalize(
    left: &EntityCollection,
    right: &EntityCollection,
    shards: Vec<Vec<Triple>>,
) -> (SimilarityGraph, NormFrame) {
    let frame = NormFrame::compute(&shards);
    let n1 = left.len() as u32;
    let n2 = right.len() as u32;
    let n_edges = shards.iter().map(Vec::len).sum();
    let mut b = GraphBuilder::with_capacity(n1, n2, n_edges);
    for shard in shards {
        b.merge_shard(
            shard
                .into_iter()
                .map(|(l, r, w)| Edge::new(l, r, frame.apply(w))),
        )
        .expect("scorers emit valid unique edges");
    }
    (b.build(), frame)
}

// ---------------------------------------------------------------------------
// Schema-based syntactic: all-pairs scoring of one attribute.
// ---------------------------------------------------------------------------

/// Right entity id → position among the right entries that carry the
/// attribute (the last one wins on a repeated id) — the lookup the
/// `Blocked` source needs, whose candidate lists carry entity ids.
fn slots_by_id(ids: impl Iterator<Item = u32>) -> FxHashMap<u32, u32> {
    ids.enumerate().map(|(j, id)| (id, j as u32)).collect()
}

/// The ids and values of the entities of `c` that carry `attribute`, in
/// profile order.
fn with_attribute<'a>(
    c: &'a EntityCollection,
    attribute: &'a str,
) -> impl Iterator<Item = (u32, &'a str)> {
    c.profiles
        .iter()
        .filter_map(move |p| p.value(attribute).map(|v| (p.id, v)))
}

/// All-pairs scoring of one attribute with a string measure. Entities
/// missing the attribute produce no edges; rows range over the left
/// entities that *have* the attribute.
struct SchemaBasedScorer {
    /// Per side (`Side as usize`): the ids of the entities carrying the
    /// attribute, in profile order.
    ids: [Vec<u32>; 2],
    /// Per side: their values; slot `j` is entity `ids[side][j]`'s.
    values: [Vec<String>; 2],
    /// Right entity id → right slot; `Blocked` source only.
    right_slot_by_id: FxHashMap<u32, u32>,
    measure: SchemaBasedMeasure,
}

impl SchemaBasedScorer {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        attribute: &str,
        measure: SchemaBasedMeasure,
        source: SourceKind<'_>,
    ) -> Self {
        let side = |c| -> (Vec<u32>, Vec<String>) {
            with_attribute(c, attribute)
                .map(|(id, v)| (id, v.to_owned()))
                .unzip()
        };
        let (left_ids, left_values) = side(left);
        let (right_ids, right_values) = side(right);
        let right_slot_by_id = match source {
            CandidateSource::Blocked(_) => slots_by_id(right_ids.iter().copied()),
            _ => FxHashMap::default(),
        };
        SchemaBasedScorer {
            ids: [left_ids, right_ids],
            values: [left_values, right_values],
            right_slot_by_id,
            measure,
        }
    }
}

impl RowScorer for SchemaBasedScorer {
    type Scratch = ();
    type Index = ();
    /// The scored attribute.
    type ProfileEncoder = String;

    fn n_rows(&self) -> usize {
        self.ids[0].len()
    }

    fn scratch(&self) -> Self::Scratch {}

    fn index(&self, _: Side) {}

    fn score_row<O: EdgeSink>(
        &self,
        side: Side,
        row: usize,
        source: CandidateSource<'_, &()>,
        _scratch: &mut (),
        out: &mut O,
    ) {
        let (own, other) = (side as usize, side.opposite() as usize);
        let (id, value) = (self.ids[own][row], self.values[own][row].as_str());
        let mut score = |j: u32| {
            let cand = self.ids[other][j as usize];
            if !out.takes(cand) {
                return;
            }
            out.note_generated();
            let (a, b) = oriented(side, value, self.values[other][j as usize].as_str());
            out.scored(id, cand, self.measure.similarity(a, b));
        };
        match source {
            // No candidate index: the `Index` source walks the enumeration.
            CandidateSource::Enumerate | CandidateSource::Index(_) => {
                for j in 0..self.ids[other].len() as u32 {
                    score(j);
                }
            }
            CandidateSource::Blocked(lists) => {
                for r in lists.row(id) {
                    if let Some(&j) = self.right_slot_by_id.get(r) {
                        score(j);
                    }
                }
            }
        }
    }

    fn append(
        &mut self,
        attribute: &Self::ProfileEncoder,
        side: Side,
        profile: &EntityProfile,
    ) -> Option<usize> {
        let value = profile.value(attribute)?;
        let s = side as usize;
        self.ids[s].push(profile.id);
        self.values[s].push(value.to_owned());
        Some(self.ids[s].len() - 1)
    }

    fn index_appended(&self, _: Side, _: usize, _: &mut ()) {}
}

// ---------------------------------------------------------------------------
// Schema-based character measures: bound-driven all-pairs scoring over a
// prepared char table.
// ---------------------------------------------------------------------------

/// All-pairs scoring of one attribute with a **character-level** measure,
/// rebuilt around upper bounds that prune before scoring.
///
/// The prepare phase interns every attribute value once into one
/// [`CharTable`] per side — contiguous scalar-value slab, offsets and
/// sorted character bags — so the score phase never re-decodes a string
/// or allocates a `Vec<char>` per pair. Per candidate the scorer asks the
/// sink for its admission bound and, when one exists (the top-k path):
///
/// 1. checks the `O(1)` length bound, then the `O(|a| + |b|)`
///    counting-filter bag bound ([`CharMeasure::length_upper_bound`] /
///    [`CharMeasure::bag_upper_bound`]);
/// 2. for Damerau-Levenshtein, derives the largest distance the bound
///    still admits and runs the banded early-exit kernel, which abandons
///    the pair once the distance provably exceeds it. Levenshtein gets
///    exact distances from the row-prepared multi-text Myers kernel.
///
/// Every bound is **exact** (≥ the measure's own `f64` under monotone
/// float steps) and pruning fires only on *strictly* smaller bounds, so
/// the retained edge set — and therefore the finished graph — is
/// bit-identical to the unpruned build (property-proven per measure in
/// `tests/graphgen_props.rs`). The dense path reports bound `-∞` and
/// skips the bound machinery entirely; it still gains the char tables
/// and the row-prepared Myers bit-parallel Levenshtein. Both bounds and
/// every edit distance are symmetric in the pair, so a right entry
/// probes the left side through the same screens and kernels; the other
/// measures see the batch `(left, right)` order.
pub(crate) struct CharScorer {
    /// Per side (`Side as usize`): the ids of the entities carrying the
    /// attribute, in profile order; slot `j` is entry `j` of the side's
    /// table.
    ids: [Vec<u32>; 2],
    /// Per side: the interned attribute values.
    tables: [CharTable; 2],
    /// Right entity id → right slot; `Blocked` source only.
    right_slot_by_id: FxHashMap<u32, u32>,
    measure: CharMeasure,
}

impl CharScorer {
    pub(crate) fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        attribute: &str,
        measure: CharMeasure,
        source: SourceKind<'_>,
    ) -> Self {
        let side = |c| -> (Vec<u32>, CharTable) {
            let (ids, values): (Vec<u32>, Vec<&str>) = with_attribute(c, attribute).unzip();
            (ids, CharTable::build(values))
        };
        let (left_ids, left_table) = side(left);
        let (right_ids, right_table) = side(right);
        let right_slot_by_id = match source {
            CandidateSource::Blocked(_) => slots_by_id(right_ids.iter().copied()),
            _ => FxHashMap::default(),
        };
        CharScorer {
            ids: [left_ids, right_ids],
            tables: [left_table, right_table],
            right_slot_by_id,
            measure,
        }
    }

    /// The probing side's table and the opposite side's.
    fn tables(&self, side: Side) -> (&CharTable, &CharTable) {
        (
            &self.tables[side as usize],
            &self.tables[side.opposite() as usize],
        )
    }

    /// Whether the measure runs on the row-prepared multi-text Myers
    /// kernel (Levenshtein does).
    #[inline]
    fn uses_pattern(&self) -> bool {
        matches!(self.measure, CharMeasure::Levenshtein)
    }

    /// The length and counting-filter screens: whether a candidate with
    /// character bag `bag` provably scores below a live `bound`.
    fn screened_out(&self, probe_bag: &[u32], bag: &[u32], bound: f64) -> bool {
        bound != f64::NEG_INFINITY
            && (self.measure.length_upper_bound(probe_bag.len(), bag.len()) < bound
                || self
                    .measure
                    .bag_upper_bound(probe_bag, bag)
                    .is_some_and(|ub| ub < bound))
    }

    /// Similarity of an entry of `side` (`probe`) and a candidate
    /// (`cand`) under an admission bound: Damerau-Levenshtein runs the
    /// banded early-exit kernel with the largest cutoff a positive bound
    /// still admits, where the band beats the full kernel; `None` means
    /// the pair provably scores below the bound (counted as pruned).
    /// Every other case is the measure's own kernel. Levenshtein never
    /// comes here: it always runs through [`Self::score_lane_chunk`]'s
    /// multi-text Myers kernel.
    fn bounded_similarity(
        &self,
        side: Side,
        probe: &[u32],
        cand: &[u32],
        bound: f64,
        s: &mut CharScratch,
    ) -> Option<f64> {
        let (a, b) = oriented(side, probe, cand);
        if matches!(self.measure, CharMeasure::DamerauLevenshtein) && bound > 0.0 {
            let max_len = a.len().max(b.len());
            let cutoff = edit_cutoff(bound, max_len);
            if 2 * cutoff + 1 < max_len {
                let d = s.osa_bounded(a, b, cutoff)?;
                return Some(1.0 - d as f64 / max_len as f64);
            }
        }
        Some(self.measure.similarity_codes(a, b, s))
    }

    /// Score candidate slot `j` of the opposite side for entry `row` of
    /// `side` (entity `id`) through the bounded kernel, one candidate of
    /// an index walk at a time: the generator already applied the length
    /// and counting-filter screens.
    fn score_candidate<O: EdgeSink>(
        &self,
        side: Side,
        (id, row): (u32, usize),
        j: u32,
        scratch: &mut CharScratch,
        out: &mut O,
    ) {
        out.note_generated();
        let (probe, target) = self.tables(side);
        let j = j as usize;
        let bound = out.admission_bound();
        match self.bounded_similarity(side, probe.codes(row), target.codes(j), bound, scratch) {
            Some(w) => {
                let other = self.ids[side.opposite() as usize][j];
                out.scored(id, other, w);
            }
            None => out.note_pruned(),
        }
    }

    /// Lane-parallel scoring of up to [`LANE_WIDTH`] candidate slots (in
    /// candidate order). The graph this path builds is **bit-identical**
    /// to scoring every candidate with the per-pair scalar measure
    /// ([`CharMeasure::similarity`]) and offering it to the sink — the
    /// argument, expanded in DESIGN.md §19:
    ///
    /// * The batched length/counting-filter screens compute the exact
    ///   scalar bound values (`lanes::length_upper_bounds` /
    ///   `lanes::bag_upper_bounds_from_common` are bit-identical by
    ///   construction), against the admission bound captured at chunk
    ///   start. The bound only rises, so every candidate the screen
    ///   prunes scores strictly below the final bound and could never
    ///   have been retained; every survivor it lets through that scores
    ///   below the final bound is rejected by the sink's heap without
    ///   displacing anything.
    /// * Levenshtein survivors get **exact** distances from the
    ///   multi-text [`MyersBatch`] — the integer the scalar measure
    ///   computes — through the measure's own `1 − d / max_len`.
    /// * Other measures score their survivors through
    ///   [`Self::bounded_similarity`] with a *refreshed* per-candidate
    ///   bound.
    ///
    /// `prescreened` skips the chunk screens: an index generator already
    /// applied them.
    #[allow(clippy::too_many_arguments)]
    fn score_lane_chunk<O: EdgeSink>(
        &self,
        side: Side,
        (id, row): (u32, usize),
        cands: &[u32],
        prescreened: bool,
        chars: &mut CharScratch,
        batch: &mut MyersBatch,
        out: &mut O,
    ) {
        let n = cands.len();
        debug_assert!(n <= LANE_WIDTH && n > 0);
        let (probe, target) = self.tables(side);
        let target_ids = &self.ids[side.opposite() as usize];
        let a = probe.codes(row);
        let bound = out.admission_bound();
        let mut keep = [true; LANE_WIDTH];
        if bound != f64::NEG_INFINITY && !prescreened {
            let mut lens = [0usize; LANE_WIDTH];
            for (l, &j) in cands.iter().enumerate() {
                lens[l] = target.char_len(j as usize);
            }
            let mut ubs = [0.0f64; LANE_WIDTH];
            lanes::length_upper_bounds(self.measure, a.len(), &lens[..n], &mut ubs[..n]);
            for l in 0..n {
                keep[l] = ubs[l] >= bound;
            }
            if self.measure.has_bag_bound() {
                let mut kept_lane = [0usize; LANE_WIDTH];
                let mut kept_bags: [&[u32]; LANE_WIDTH] = [&[]; LANE_WIDTH];
                let mut kept_lens = [0usize; LANE_WIDTH];
                let mut kn = 0;
                for l in 0..n {
                    if keep[l] {
                        kept_lane[kn] = l;
                        kept_bags[kn] = target.bag(cands[l] as usize);
                        kept_lens[kn] = lens[l];
                        kn += 1;
                    }
                }
                if kn > 0 {
                    let mut commons = [0usize; LANE_WIDTH];
                    lanes::sorted_common_counts(
                        probe.bag(row),
                        &kept_bags[..kn],
                        &mut commons[..kn],
                    );
                    lanes::bag_upper_bounds_from_common(
                        self.measure,
                        &commons[..kn],
                        a.len(),
                        &kept_lens[..kn],
                        &mut ubs[..kn],
                    );
                    for i in 0..kn {
                        if ubs[i] < bound {
                            keep[kept_lane[i]] = false;
                        }
                    }
                }
            }
        }
        for &kept in keep.iter().take(n) {
            out.note_generated();
            if !kept {
                out.note_pruned();
            }
        }
        if self.uses_pattern() {
            // Multi-text Myers: exact distances for all surviving lanes.
            let mut kept_lane = [0usize; LANE_WIDTH];
            let mut texts: [&[u32]; LANE_WIDTH] = [&[]; LANE_WIDTH];
            let mut kn = 0;
            for l in 0..n {
                if keep[l] {
                    kept_lane[kn] = l;
                    texts[kn] = target.codes(cands[l] as usize);
                    kn += 1;
                }
            }
            if kn == 0 {
                return;
            }
            let mut dists = [0usize; LANE_WIDTH];
            batch.distances(&texts[..kn], &mut dists[..kn]);
            for i in 0..kn {
                let other = target_ids[cands[kept_lane[i]] as usize];
                let max_len = a.len().max(texts[i].len());
                let w = if max_len == 0 {
                    1.0
                } else {
                    1.0 - dists[i] as f64 / max_len as f64
                };
                out.scored(id, other, w);
            }
        } else {
            for (&j, _) in cands.iter().zip(keep).filter(|&(_, kept)| kept) {
                let b = target.codes(j as usize);
                match self.bounded_similarity(side, a, b, out.admission_bound(), chars) {
                    Some(w) => out.scored(id, target_ids[j as usize], w),
                    None => out.note_pruned(),
                }
            }
        }
    }
}

/// Largest edit distance whose similarity `1 − d/L` still reaches
/// `bound`. Safety (the exactness of edit-distance pruning): on return,
/// either `cutoff == L` — the kernel can never report "exceeded" — or
/// `1.0 − (cutoff + 1) as f64 / L as f64 < bound` holds in **the same
/// f64 arithmetic the similarity formula uses**; since that formula is
/// monotone non-increasing in the integer distance, every `d > cutoff`
/// yields a similarity strictly below the bound. The float guess only
/// seeds the search — the verification loops decide.
fn edit_cutoff(bound: f64, max_len: usize) -> usize {
    let l = max_len as f64;
    let sim = |d: usize| 1.0 - d as f64 / l;
    let guess = (1.0 - bound) * l;
    let mut cutoff = if guess.is_finite() && guess > 0.0 {
        (guess as usize).min(max_len)
    } else {
        0
    };
    while cutoff > 0 && sim(cutoff) < bound {
        cutoff -= 1;
    }
    while cutoff < max_len && sim(cutoff + 1) >= bound {
        cutoff += 1;
    }
    cutoff
}

/// Per-worker scratch of the char scorer: the kernel scratch, the
/// index walk's bucket-order and common-count buffers, and the lane
/// kernels' multi-text Myers state.
pub(crate) struct CharGenScratch {
    chars: CharScratch,
    order: Vec<u32>,
    counts: Vec<u32>,
    batch: MyersBatch,
}

impl RowScorer for CharScorer {
    type Scratch = CharGenScratch;
    /// Length-bucketed index over one side's character bags — the
    /// inverted form of the length and counting filters; slot `j` is the
    /// side's `j`-th entry.
    type Index = LengthBucketIndex;
    /// The scored attribute.
    type ProfileEncoder = String;

    fn n_rows(&self) -> usize {
        self.ids[0].len()
    }

    fn scratch(&self) -> CharGenScratch {
        CharGenScratch {
            chars: CharScratch::new(),
            order: Vec::new(),
            counts: Vec::new(),
            batch: MyersBatch::new(),
        }
    }

    fn index(&self, side: Side) -> LengthBucketIndex {
        let table = &self.tables[side as usize];
        LengthBucketIndex::build((0..table.len()).map(|j| table.bag(j)))
    }

    fn score_row<O: EdgeSink>(
        &self,
        side: Side,
        row: usize,
        source: CandidateSource<'_, &LengthBucketIndex>,
        scratch: &mut CharGenScratch,
        out: &mut O,
    ) {
        let (probe, target) = self.tables(side);
        let target_ids = &self.ids[side.opposite() as usize];
        let entry = (self.ids[side as usize][row], row);
        let prescreened = matches!(source, CandidateSource::Index(_));
        // Lane kernels batch the candidates of every source, except the
        // index walk of the measures without a multi-text kernel: their
        // batches would only reorder the screens the generator already
        // applied, so they score one candidate at a time. Between
        // flushes a generator keeps the bound of the last flush, so it
        // may yield extra candidates, every one scoring strictly below
        // the final admission bound (see [`Self::score_lane_chunk`]).
        let batched = self.uses_pattern() || !prescreened;
        let CharGenScratch {
            chars,
            order,
            counts,
            batch,
        } = scratch;
        if self.uses_pattern() {
            batch.prepare(probe.codes(row));
        }
        let mut chunk = LaneBuffer::<u32, LANE_WIDTH>::new();
        let bound = out.admission_bound();
        let mut score = |j: u32| {
            if !out.takes(target_ids[j as usize]) {
                return out.admission_bound();
            }
            if batched {
                chunk.push(j, |c| {
                    self.score_lane_chunk(side, entry, c, prescreened, chars, batch, out)
                });
            } else {
                self.score_candidate(side, entry, j, chars, out);
            }
            out.admission_bound()
        };
        match source {
            CandidateSource::Enumerate => {
                for j in 0..target.len() as u32 {
                    score(j);
                }
            }
            CandidateSource::Index(index) => {
                let mut bound = generate_char_candidates(
                    index,
                    self.measure,
                    probe.char_len(row),
                    probe.bag(row),
                    order,
                    counts,
                    bound,
                    &mut score,
                );
                // Entries appended after the index build (resident
                // inserts) pass the generator's two screens one at a
                // time, so every candidate of this walk is prescreened.
                for j in index.n_entries()..target.len() {
                    if !self.screened_out(probe.bag(row), target.bag(j), bound) {
                        bound = score(j as u32);
                    }
                }
            }
            CandidateSource::Blocked(lists) => {
                for r in lists.row(entry.0) {
                    if let Some(&j) = self.right_slot_by_id.get(r) {
                        score(j);
                    }
                }
            }
        }
        chunk.finish(|c| self.score_lane_chunk(side, entry, c, prescreened, chars, batch, out));
    }

    fn append(
        &mut self,
        attribute: &Self::ProfileEncoder,
        side: Side,
        profile: &EntityProfile,
    ) -> Option<usize> {
        let value = profile.value(attribute)?;
        let s = side as usize;
        self.ids[s].push(profile.id);
        self.tables[s].push(value);
        Some(self.ids[s].len() - 1)
    }

    fn index_appended(&self, side: Side, _: usize, index: &mut LengthBucketIndex) {
        if overflow_passes_rebuild(index.n_entries(), self.ids[side as usize].len()) {
            *index = self.index(side);
        }
    }
}

// ---------------------------------------------------------------------------
// Schema-agnostic n-gram vector models: inverted-index scoring.
// ---------------------------------------------------------------------------

/// Per-worker probe scratch: a stamp array deduplicates inverted-index
/// hits per row (mark = row + 1, unique per row, so workers never need to
/// clear it).
pub(crate) struct ProbeScratch {
    stamp: Vec<u32>,
    candidates: Vec<u32>,
}

impl ProbeScratch {
    fn new(n_right: usize) -> Self {
        ProbeScratch {
            stamp: vec![0u32; n_right],
            candidates: Vec::new(),
        }
    }

    /// Grow the stamp array to cover a side of `len` entries (a resident
    /// side grows past it).
    fn cover(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
    }

    /// The distinct ids the postings `lists` hold, in discovery order.
    fn discover<'a>(&mut self, mark: u32, lists: impl Iterator<Item = &'a [u32]>) -> &[u32] {
        self.candidates.clear();
        for js in lists {
            for &j in js {
                if self.stamp[j as usize] != mark {
                    self.stamp[j as usize] = mark;
                    self.candidates.push(j);
                }
            }
        }
        &self.candidates
    }
}

/// The postings of term `id`; none for a term the side has never held.
#[inline]
fn postings_at(postings: &[Vec<u32>], id: u32) -> &[u32] {
    postings.get(id as usize).map_or(&[], Vec::as_slice)
}

/// The right-side postings the `Enumerate` source walks, by term id.
enum TermPostings {
    /// Right rows per term, each candidate scored through the arena join
    /// (every measure but the cosines).
    Plain(Vec<Vec<u32>>),
    /// `(right row, weight)` per term for the cosine measures' walk: one
    /// pass over these accumulates every candidate's dot product in the
    /// probe's term order — the **same ascending-term order** (and hence
    /// the same f64 addition sequence, bit for bit) that
    /// `SparseVector::dot`'s sorted merge join produces per pair.
    Weighted(Vec<Vec<(u32, f64)>>),
}

/// Per-worker scratch of the token-vector walks.
pub(crate) struct VectorScratch {
    /// Candidate stamps over the opposite side's rows.
    probe: ProbeScratch,
    /// Per-right-row dot accumulators of the weighted cosine walk (empty
    /// otherwise). A slot is zeroed when its candidate is first
    /// discovered, so no end-of-row sweep is needed.
    acc: Vec<f64>,
    /// The probe row, scattered for the arena join.
    join: DenseProbe,
}

/// Inverted-index scoring of n-gram vector models, from one interned term
/// arena per side.
pub(crate) struct VectorScorer {
    /// The terms of both sides, with their document frequencies in either
    /// collection. Frozen statistics: inserts intern their unseen terms
    /// but count no documents.
    vocab: TermVocab,
    /// Per side (`Side as usize`): the profiles' weighted term rows.
    rows: [TermArena; 2],
    /// The `Enumerate` walk's postings; empty under the other sources
    /// (the `Index` source owns its postings, `Blocked` reads none).
    postings: TermPostings,
    measure: VectorMeasure,
}

impl VectorScorer {
    /// The scorer, with the model its entries are vectorized by: each
    /// text's term frequencies once, over the workers, then the
    /// vocabulary and both arenas from them, serially in collection order
    /// ([`TermVocab::build`]).
    pub(crate) fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        scheme: NGramScheme,
        measure: VectorMeasure,
        source: SourceKind<'_>,
        cfg: &PipelineConfig,
    ) -> (Self, VectorModel) {
        let model = VectorModel::new(scheme);
        let profiles: Vec<&EntityProfile> = left.profiles.iter().chain(&right.profiles).collect();
        let threads = cfg.effective_threads();
        let chunk = par::chunk_len(profiles.len(), threads);
        let tfs = par::map_indexed(
            profiles.len().div_ceil(chunk),
            threads,
            || (),
            |_, c| {
                profiles[c * chunk..profiles.len().min((c + 1) * chunk)]
                    .iter()
                    .map(|p| model.sorted_term_frequencies(&p.all_values_text()))
                    .collect::<Vec<_>>()
            },
        );

        let (vocab, rows) =
            TermVocab::build(tfs.into_iter().flatten(), left.len(), measure.weighting());
        let cosine = matches!(
            measure,
            VectorMeasure::CosineTf | VectorMeasure::CosineTfIdf
        );
        let right_rows = &rows[Side::Right as usize];
        let postings = match source {
            CandidateSource::Enumerate if cosine => {
                TermPostings::Weighted(right_rows.postings(vocab.len(), |j, w| (j, w)))
            }
            CandidateSource::Enumerate => {
                TermPostings::Plain(right_rows.postings(vocab.len(), |j, _| j))
            }
            _ => TermPostings::Plain(Vec::new()),
        };
        let scorer = VectorScorer {
            vocab,
            rows,
            postings,
            measure,
        };
        (scorer, model)
    }
}

impl RowScorer for VectorScorer {
    type Scratch = VectorScratch;
    /// One side's rows per term id, probed in [`er_textsim::ProbePlan`]
    /// order by the prefix filter.
    type Index = Vec<Vec<u32>>;
    /// The n-gram model inserts are vectorized by, under the vocabulary's
    /// frozen document frequencies.
    type ProfileEncoder = VectorModel;

    fn n_rows(&self) -> usize {
        self.rows[Side::Left as usize].len()
    }

    fn scratch(&self) -> VectorScratch {
        let n_right = self.rows[Side::Right as usize].len();
        let n_acc = match self.postings {
            TermPostings::Weighted(_) => n_right,
            TermPostings::Plain(_) => 0,
        };
        VectorScratch {
            probe: ProbeScratch::new(n_right),
            acc: vec![0.0; n_acc],
            join: DenseProbe::new(),
        }
    }

    fn index(&self, side: Side) -> Vec<Vec<u32>> {
        self.rows[side as usize].postings(self.vocab.len(), |j, _| j)
    }

    fn score_row<O: EdgeSink>(
        &self,
        side: Side,
        row: usize,
        source: CandidateSource<'_, &Vec<Vec<u32>>>,
        scratch: &mut VectorScratch,
        out: &mut O,
    ) {
        let probe = self.rows[side as usize].row(row);
        let target = &self.rows[side.opposite() as usize];
        let li = row as u32;
        let mark = li + 1;
        let VectorScratch {
            probe: stamps,
            acc,
            join,
        } = scratch;
        stamps.cover(target.len());
        if let (CandidateSource::Enumerate, TermPostings::Weighted(postings)) =
            (source, &self.postings)
        {
            // Candidate `j`'s products arrive in ascending probe-term
            // order — exactly the order `SparseVector::dot`'s sorted
            // merge adds them — from an accumulator zeroed at discovery.
            // Its +0.0 start gives the bits of the dot's −0.0 start
            // because no product of two weights is −0.0 (DESIGN.md §19),
            // so `acc[j]` equals the per-pair dot bit for bit; the cached
            // norms and the `denom == 0 → 0` / clamp steps replicate
            // `VectorMeasure::similarity`'s cosine arm exactly.
            let ProbeScratch { stamp, candidates } = stamps;
            candidates.clear();
            for (&id, &wa) in probe.ids().iter().zip(probe.weights()) {
                for &(j, wb) in &postings[id as usize] {
                    let ju = j as usize;
                    if stamp[ju] != mark {
                        stamp[ju] = mark;
                        candidates.push(j);
                        acc[ju] = 0.0;
                    }
                    acc[ju] += wa * wb;
                }
            }
            for &j in candidates.iter() {
                out.note_generated();
                let denom = probe.norm() * target.row(j as usize).norm();
                let w = if denom == 0.0 {
                    0.0
                } else {
                    (acc[j as usize] / denom).clamp(0.0, 1.0)
                };
                out.scored(li, j, w);
            }
            return;
        }
        join.scatter(side, probe, self.vocab.len());
        let bound = out.admission_bound();
        let mut score = |j: u32| {
            if !out.takes(j) {
                return out.admission_bound();
            }
            out.note_generated();
            let w = join.similarity(self.measure, target.row(j as usize), &self.vocab);
            out.scored(li, j, w);
            out.admission_bound()
        };
        match source {
            CandidateSource::Enumerate => {
                let TermPostings::Plain(postings) = &self.postings else {
                    unreachable!("the weighted walk returned above");
                };
                let lists = probe.ids().iter().map(|&id| postings_at(postings, id));
                for &j in stamps.discover(mark, lists) {
                    score(j);
                }
            }
            CandidateSource::Index(postings) => {
                let plan = self.measure.arena_probe_plan(probe, &self.vocab);
                generate_token_candidates(
                    &plan,
                    |p| postings_at(postings, probe.ids()[p]),
                    &mut stamps.stamp,
                    mark,
                    bound,
                    &mut score,
                );
            }
            CandidateSource::Blocked(lists) => {
                // The walks pair only rows that share a term, so a pair
                // with an empty side is never scored.
                if !probe.is_empty() {
                    for &j in lists.row(li) {
                        if !target.row(j as usize).is_empty() {
                            score(j);
                        }
                    }
                }
            }
        }
    }

    fn append(
        &mut self,
        model: &VectorModel,
        side: Side,
        profile: &EntityProfile,
    ) -> Option<usize> {
        let tf = model.sorted_term_frequencies(&profile.all_values_text());
        let weighting = self.measure.weighting();
        Some(self.rows[side as usize].push_row(&mut self.vocab, &tf, weighting))
    }

    fn index_appended(&self, side: Side, row: usize, postings: &mut Vec<Vec<u32>>) {
        for &id in self.rows[side as usize].row(row).ids() {
            if postings.len() <= id as usize {
                postings.resize_with(id as usize + 1, Vec::new);
            }
            postings[id as usize].push(row as u32);
        }
    }
}

// ---------------------------------------------------------------------------
// Schema-agnostic n-gram graph models: inverted-index scoring by edge key.
// ---------------------------------------------------------------------------

/// Postings of graph edge keys over `graphs`: the ids of the graphs
/// holding each key, ascending.
fn edge_postings(graphs: &[NGramGraph]) -> FxHashMap<(u64, u64), Vec<u32>> {
    let mut postings: FxHashMap<(u64, u64), Vec<u32>> = FxHashMap::default();
    for (j, g) in graphs.iter().enumerate() {
        for k in g.edge_keys() {
            postings.entry(k).or_default().push(j as u32);
        }
    }
    postings
}

/// Inverted-index scoring of n-gram graph models (indexed by graph edges).
struct GraphModelScorer {
    /// Per side (`Side as usize`): the profiles' n-gram graphs.
    graphs: [Vec<NGramGraph>; 2],
    /// The `Enumerate` walk's right postings; empty under the other
    /// sources (the `Index` source owns its postings, `Blocked` reads
    /// none).
    postings: FxHashMap<(u64, u64), Vec<u32>>,
    measure: GraphSimilarity,
}

impl GraphModelScorer {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        scheme: NGramScheme,
        measure: GraphSimilarity,
        source: SourceKind<'_>,
    ) -> Self {
        let graphs_of = |c: &EntityCollection| -> Vec<NGramGraph> {
            c.profiles
                .iter()
                .map(|p| NGramGraph::from_values(p.values(), scheme))
                .collect()
        };
        let graphs = [graphs_of(left), graphs_of(right)];
        let postings = match source {
            CandidateSource::Enumerate => edge_postings(&graphs[Side::Right as usize]),
            _ => FxHashMap::default(),
        };
        GraphModelScorer {
            graphs,
            postings,
            measure,
        }
    }
}

impl RowScorer for GraphModelScorer {
    type Scratch = ProbeScratch;
    /// One side's ids per graph edge key: exactly the term-sharing
    /// enumeration, so the `Index` source walks what `Enumerate` walks.
    type Index = FxHashMap<(u64, u64), Vec<u32>>;
    /// The n-gram scheme the graphs are built with.
    type ProfileEncoder = NGramScheme;

    fn n_rows(&self) -> usize {
        self.graphs[Side::Left as usize].len()
    }

    fn scratch(&self) -> ProbeScratch {
        ProbeScratch::new(self.graphs[Side::Right as usize].len())
    }

    fn index(&self, side: Side) -> Self::Index {
        edge_postings(&self.graphs[side as usize])
    }

    fn score_row<O: EdgeSink>(
        &self,
        side: Side,
        row: usize,
        source: CandidateSource<'_, &Self::Index>,
        scratch: &mut ProbeScratch,
        out: &mut O,
    ) {
        let g = &self.graphs[side as usize][row];
        let target = &self.graphs[side.opposite() as usize];
        let li = row as u32;
        scratch.cover(target.len());
        let mut score = |j: u32| {
            if !out.takes(j) {
                return;
            }
            out.note_generated();
            let (a, b) = oriented(side, g, &target[j as usize]);
            out.scored(li, j, self.measure.similarity(a, b));
        };
        let postings = match source {
            CandidateSource::Enumerate => &self.postings,
            CandidateSource::Index(postings) => postings,
            CandidateSource::Blocked(lists) => {
                // The walks pair only graphs that share an edge, so a
                // pair with an empty side is never scored.
                if !g.is_empty() {
                    for &j in lists.row(li) {
                        if !target[j as usize].is_empty() {
                            score(j);
                        }
                    }
                }
                return;
            }
        };
        let lists = g
            .edge_keys()
            .filter_map(|k| postings.get(&k))
            .map(Vec::as_slice);
        for &j in scratch.discover(li + 1, lists) {
            score(j);
        }
    }

    fn append(
        &mut self,
        scheme: &NGramScheme,
        side: Side,
        profile: &EntityProfile,
    ) -> Option<usize> {
        let graphs = &mut self.graphs[side as usize];
        graphs.push(NGramGraph::from_values(profile.values(), *scheme));
        Some(graphs.len() - 1)
    }

    fn index_appended(&self, side: Side, row: usize, postings: &mut Self::Index) {
        for k in self.graphs[side as usize][row].edge_keys() {
            postings.entry(k).or_default().push(row as u32);
        }
    }
}

// ---------------------------------------------------------------------------
// Semantic: dense all-pairs scoring (cosine / Euclidean).
// ---------------------------------------------------------------------------

/// The text a semantic function compares for one profile.
fn scoped_text(p: &EntityProfile, scope: &SemanticScope) -> String {
    match scope {
        SemanticScope::SchemaBased { attribute } => {
            p.value(attribute).unwrap_or_default().to_string()
        }
        SemanticScope::SchemaAgnostic => p.all_values_text(),
    }
}

/// Tolerance of the unit-normalization check behind the cosine ball
/// index: a normalized clone whose norm strays further than this from 1
/// gets probe/entry radius `+∞`, which turns every one of its distance
/// lower bounds into 0 — the pair is simply never pruned. Well inside
/// the `COSINE_NORMALIZATION_MARGIN` the similarity bound adds, so the
/// margin absorbs the residual norm error with orders of headroom.
const UNIT_NORM_TOLERANCE: f64 = 1e-5;

/// Normalized copy of `v` plus its ball probe/entry radius: `0` when the
/// copy is verifiably unit-norm, `+∞` when normalization failed (zero or
/// degenerate norms) so the vector can never be pruned.
fn unit_probe(v: &DenseVector) -> (DenseVector, f64) {
    let mut u = v.clone();
    u.normalize();
    let radius = if (u.norm() - 1.0).abs() <= UNIT_NORM_TOLERANCE {
        0.0
    } else {
        f64::INFINITY
    };
    (u, radius)
}

/// The scoped texts of the left then the right profiles — one collection,
/// so a token unit shared by both sides is encoded once.
fn scoped_texts(
    left: &EntityCollection,
    right: &EntityCollection,
    scope: &SemanticScope,
) -> Vec<String> {
    left.profiles
        .iter()
        .chain(&right.profiles)
        .map(|p| scoped_text(p, scope))
        .collect()
}

/// A candidate index over the first `len` entries of one side: entries
/// appended after its build (resident inserts) are scored one by one
/// after the index walk, until a rebuild covers them.
pub(crate) struct PrefixIndex<I> {
    index: I,
    len: usize,
}

/// All-pairs semantic scoring over pre-encoded text vectors.
pub(crate) struct DenseSemanticScorer {
    /// Per side (`Side as usize`): the encoded scoped texts.
    vecs: [Vec<DenseVector>; 2],
    measure: SemanticMeasure,
}

impl DenseSemanticScorer {
    /// Embed both sides' scoped texts through one collection encode
    /// ([`Encoder::encode_all`]): each distinct token unit of either side
    /// is computed once, spread over the configured workers.
    pub(crate) fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        enc: &Encoder,
        measure: SemanticMeasure,
        scope: &SemanticScope,
        cfg: &PipelineConfig,
    ) -> Self {
        let mut vecs = enc.encode_all(&scoped_texts(left, right, scope), cfg.effective_threads());
        let right_vecs = vecs.split_off(left.len());
        DenseSemanticScorer {
            vecs: [vecs, right_vecs],
            measure,
        }
    }

    /// Score one lane chunk of slots `js` of `target` against the probe
    /// vector `a` of entity `id` through the batched dense kernels
    /// ([`er_embed::lanes`]) and emit — bit-identical to looping
    /// [`SemanticMeasure::similarity_vectors`] over the same slots in the
    /// same order, because each lane runs the exact scalar float
    /// sequence. A right probe gets the `(left, right)` bits too: both
    /// measures are symmetric bit for bit (commutative products and sums,
    /// `(a − b)² = (b − a)²`). All `js` must reference non-zero vectors.
    fn emit_dense_lanes<O: EdgeSink>(
        &self,
        (id, a): (u32, &DenseVector),
        target: &[DenseVector],
        js: &[u32],
        out: &mut O,
    ) {
        debug_assert!(!js.is_empty() && js.len() <= embed_lanes::LANE_WIDTH);
        let mut refs: [&DenseVector; embed_lanes::LANE_WIDTH] = [a; embed_lanes::LANE_WIDTH];
        for (i, &j) in js.iter().enumerate() {
            refs[i] = &target[j as usize];
        }
        let mut sims = [0.0f64; embed_lanes::LANE_WIDTH];
        embed_lanes::similarity_vectors_batch(self.measure, a, &refs[..js.len()], &mut sims);
        for (&j, &w) in js.iter().zip(&sims) {
            out.note_generated();
            out.scored(id, j, w);
        }
    }
}

impl RowScorer for DenseSemanticScorer {
    /// Ball-distance scratch of the index walk (unused otherwise).
    type Scratch = Vec<(f64, u32)>;
    /// Centroid-ball index over one side's non-zero vectors. Euclidean
    /// indexes the raw vectors; cosine indexes unit-normalized copies
    /// (angles become chord distances), dropped after the build — only
    /// ball leaders are retained.
    type Index = PrefixIndex<VectorBallIndex>;
    /// The model's encoder and the scope of the compared text.
    type ProfileEncoder = (Encoder, SemanticScope);

    fn n_rows(&self) -> usize {
        self.vecs[Side::Left as usize].len()
    }

    fn scratch(&self) -> Self::Scratch {
        Vec::new()
    }

    fn index(&self, side: Side) -> PrefixIndex<VectorBallIndex> {
        let vecs = &self.vecs[side as usize];
        let nonzero = || vecs.iter().enumerate().filter(|(_, v)| !v.is_zero());
        let index = if matches!(self.measure, SemanticMeasure::Cosine) {
            let normalized: Vec<(u32, DenseVector, f64)> = nonzero()
                .map(|(j, v)| {
                    let (u, r) = unit_probe(v);
                    (j as u32, u, r)
                })
                .collect();
            let entries: Vec<(u32, &DenseVector, f64)> =
                normalized.iter().map(|(j, u, r)| (*j, u, *r)).collect();
            VectorBallIndex::build(&entries)
        } else {
            let entries: Vec<(u32, &DenseVector, f64)> =
                nonzero().map(|(j, v)| (j as u32, v, 0.0)).collect();
            VectorBallIndex::build(&entries)
        };
        PrefixIndex {
            index,
            len: vecs.len(),
        }
    }

    fn score_row<O: EdgeSink>(
        &self,
        side: Side,
        row: usize,
        source: CandidateSource<'_, &PrefixIndex<VectorBallIndex>>,
        scratch: &mut Self::Scratch,
        out: &mut O,
    ) {
        let a = &self.vecs[side as usize][row];
        if a.is_zero() {
            return;
        }
        let target = &self.vecs[side.opposite() as usize];
        let li = row as u32;
        // Between lane flushes a generator keeps the bound of the last
        // flush, so it may yield extra candidates, all scoring strictly
        // below the final admission bound (the generator's prune is
        // strict `<` against a non-decreasing bound) — the retained
        // graph is bit-identical to scoring each pair on its own.
        let mut chunk = LaneBuffer::<u32, { embed_lanes::LANE_WIDTH }>::new();
        let bound = out.admission_bound();
        let mut score = |j: u32| {
            if out.takes(j) {
                chunk.push(j, |js| self.emit_dense_lanes((li, a), target, js, out));
            }
            out.admission_bound()
        };
        let nonzero = |j: u32| !target[j as usize].is_zero();
        match source {
            CandidateSource::Enumerate => {
                for j in 0..target.len() as u32 {
                    if nonzero(j) {
                        score(j);
                    }
                }
            }
            CandidateSource::Index(PrefixIndex { index: ball, len }) => {
                let cosine = matches!(self.measure, SemanticMeasure::Cosine);
                let probe_owned;
                let (probe, probe_radius) = if cosine {
                    let (u, r) = unit_probe(a);
                    probe_owned = u;
                    (&probe_owned, r)
                } else {
                    (a, 0.0)
                };
                let map: fn(f64) -> f64 = if cosine {
                    cosine_distance_bound
                } else {
                    inverse_distance_bound
                };
                generate_ball_candidates(
                    ball,
                    probe,
                    probe_radius,
                    scratch,
                    map,
                    bound,
                    &mut score,
                );
                // Entries appended after the ball build (resident
                // inserts) are scored unpruned.
                for j in *len as u32..target.len() as u32 {
                    if nonzero(j) {
                        score(j);
                    }
                }
            }
            CandidateSource::Blocked(lists) => {
                for &j in lists.row(li) {
                    if nonzero(j) {
                        score(j);
                    }
                }
            }
        }
        chunk.finish(|js| self.emit_dense_lanes((li, a), target, js, out));
    }

    fn append(
        &mut self,
        (enc, scope): &Self::ProfileEncoder,
        side: Side,
        profile: &EntityProfile,
    ) -> Option<usize> {
        let vecs = &mut self.vecs[side as usize];
        vecs.push(enc.encode(&scoped_text(profile, scope)));
        Some(vecs.len() - 1)
    }

    fn index_appended(&self, side: Side, _: usize, index: &mut PrefixIndex<VectorBallIndex>) {
        if overflow_passes_rebuild(index.len, self.vecs[side as usize].len()) {
            *index = self.index(side);
        }
    }
}

// ---------------------------------------------------------------------------
// Semantic: Word Mover's over interned token bags with row-local distance
// tables.
// ---------------------------------------------------------------------------

/// Tokens of a text that Word Mover's similarity keeps: its bags are
/// truncated to the first 16 tokens, and only the kept tokens are
/// encoded. Relaxed WMD is quadratic in bag size and whole-profile texts
/// can carry dozens of tokens, so the cap bounds the cost while keeping
/// the measure's character — a documented substitution (DESIGN.md §3);
/// the short schema-based values stay uncapped in practice.
pub const WMD_TOKEN_CAP: usize = 16;

/// Renumber `bags`' unit ids (below `n_units`) as positions in their
/// side's token universe, and return that universe: the distinct units
/// by position, in first-appearance order over the bags.
fn universe(bags: &mut [Vec<u32>], n_units: usize) -> Vec<u32> {
    let mut position = vec![u32::MAX; n_units];
    let mut units = Vec::new();
    for id in bags.iter_mut().flatten() {
        let pos = &mut position[*id as usize];
        if *pos == u32::MAX {
            *pos = units.len() as u32;
            units.push(*id);
        }
        *id = *pos;
    }
    units
}

/// Word Mover's scoring over interned token bags of at most
/// [`WMD_TOKEN_CAP`] tokens.
///
/// The transport loops read token distances from a row-local
/// [`RowTable`]: for the current row, the distances from its distinct
/// tokens to the opposite side's token universe, filled one
/// [`LANE_WIDTH`](embed_lanes::LANE_WIDTH)-wide block of that universe at
/// a time on first touch — so the `Index` and `Blocked` sources compute
/// only the blocks their candidates reach.
///
/// Every side-specific structure is kept per side (`Side as usize`), so
/// a right entry probes the left side exactly as a left row probes the
/// right. The structures only a right probe reads — the left universe's
/// interleaved blocks — are built on first use, like the bag summaries,
/// so a batch build pays for neither.
struct WmdScorer {
    /// Interned token-vector table of both sides. Units are the
    /// encoder's (fastText tokens, ALBERT `(prev, token, next)`
    /// signatures), numbered in first-appearance order; shared across
    /// workers as plain immutable slice reads. Appended bags add the
    /// units their side does not hold yet after the interned ones.
    vectors: Vec<DenseVector>,
    /// Per side: the bags as positions in the side's universe.
    bags: [Vec<Vec<u32>>; 2],
    /// Per side: the token universe, unit ids by position.
    units: [Vec<u32>; 2],
    /// Per side: the universe's vectors, interleaved for the block
    /// kernel that fills the opposite side's row tables. Built on first
    /// read.
    blocks: [OnceLock<InterleavedBlocks>; 2],
    /// Per side: the bags' centroid + radius summaries (`None` for an
    /// empty bag). `RWMD(a, b) ≥ ‖c_a − c_b‖ − r_a − r_b`, so one vector
    /// distance upper-bounds the similarity of a pair before any
    /// transport work. Built on first read — by a ball index build or the
    /// first live admission bound — so the dense path, whose sink never
    /// exposes a bound, never pays for them.
    summaries: [OnceLock<Vec<Option<BagSummary>>>; 2],
    /// Per side: universe positions by a hash of their vector's bits,
    /// built on the side's first append, which looks its units up here —
    /// two units with the same bits have the same distances, so an
    /// appended unit the side holds takes the held position.
    positions: [Option<FxHashMap<u64, u32>>; 2],
    dim: usize,
}

/// A hash of `v`'s bits.
fn bits_key(v: &DenseVector) -> u64 {
    let mut h = FxHasher::default();
    for x in &v.0 {
        h.write_u32(x.to_bits());
    }
    h.finish()
}

/// One row's token-distance table (per-worker scratch, reset per row):
/// `d(x, y)` for every distinct token `x` of the row and every
/// opposite-universe token `y` in a filled block.
///
/// Slot `s` of `dists` holds one block's `m × W` distances, row-token
/// major — `dists[s·m·W + xi·W + lane]` — so a fill writes each row
/// token's `W` lanes contiguously and a lookup is one add off a base
/// precomputed per candidate token.
struct RowTable {
    /// Distinct universe positions of the row's bag, first-appearance
    /// order.
    tokens: Vec<u32>,
    /// The row's bag as indexes into `tokens`, scaled by `W`.
    local: Vec<usize>,
    /// Position → index in `tokens`, for building `local`.
    index_of: FxHashMap<u32, u32>,
    /// Opposite-universe block → its slot in `dists`; `u32::MAX` while
    /// unfilled.
    slot: Vec<u32>,
    /// The blocks filled for the current row, in fill order.
    filled: Vec<u32>,
    dists: Vec<f64>,
    /// Per token of the current candidate bag, its column base in
    /// `dists`.
    column: Vec<usize>,
}

impl WmdScorer {
    const W: usize = embed_lanes::LANE_WIDTH;

    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        enc: &Encoder,
        scope: &SemanticScope,
        cfg: &PipelineConfig,
    ) -> Self {
        let UnitTable {
            vectors,
            bags: mut left_bags,
        } = enc.token_units(
            &scoped_texts(left, right, scope),
            WMD_TOKEN_CAP,
            cfg.effective_threads(),
        );
        let mut right_bags = left_bags.split_off(left.len());
        let units = [
            universe(&mut left_bags, vectors.len()),
            universe(&mut right_bags, vectors.len()),
        ];
        WmdScorer {
            vectors,
            bags: [left_bags, right_bags],
            units,
            blocks: [OnceLock::new(), OnceLock::new()],
            summaries: [OnceLock::new(), OnceLock::new()],
            positions: [None, None],
            dim: enc.dim(),
        }
    }

    /// The vector of `side`'s universe token `pos`.
    fn vector(&self, side: Side, pos: u32) -> &DenseVector {
        &self.vectors[self.units[side as usize][pos as usize] as usize]
    }

    /// `side`'s interleaved universe, built on first call.
    fn blocks(&self, side: Side) -> &InterleavedBlocks {
        self.blocks[side as usize].get_or_init(|| {
            let units = &self.units[side as usize];
            InterleavedBlocks::new(self.dim, units.iter().map(|&u| &self.vectors[u as usize]))
        })
    }

    /// The summary of a bag of `side`.
    fn summary(&self, side: Side, bag: &[u32]) -> Option<BagSummary> {
        BagSummary::from_vectors(bag.len(), bag.iter().map(|&p| self.vector(side, p)))
    }

    /// `side`'s bag summaries, built on first call.
    fn summaries(&self, side: Side) -> &[Option<BagSummary>] {
        self.summaries[side as usize].get_or_init(|| {
            self.bags[side as usize]
                .iter()
                .map(|bag| self.summary(side, bag))
                .collect()
        })
    }

    /// Reset the row table to row `row` of `side`: empty it and intern
    /// the row's distinct tokens.
    fn start_row(&self, t: &mut RowTable, side: Side, row: usize) {
        for &b in &t.filled {
            t.slot[b as usize] = u32::MAX;
        }
        // The opposite universe grows with resident appends.
        let n_blocks = self.units[side.opposite() as usize].len().div_ceil(Self::W);
        if t.slot.len() < n_blocks {
            t.slot.resize(n_blocks, u32::MAX);
        }
        t.filled.clear();
        t.dists.clear();
        t.tokens.clear();
        t.index_of.clear();
        t.local.clear();
        for &x in &self.bags[side as usize][row] {
            let xi = *t.index_of.entry(x).or_insert_with(|| {
                t.tokens.push(x);
                t.tokens.len() as u32 - 1
            });
            t.local.push(xi as usize * Self::W);
        }
    }

    /// Fill block `block` of the opposite universe into the table of a
    /// `side` row: the distances from every row token to the block's `W`
    /// tokens, through the interleaved block kernel — the bits of one
    /// [`DenseVector::euclidean_distance`] per entry, whichever operand
    /// comes first (the block kernel runs the scalar float sequence per
    /// lane, and `(a − b)² = (b − a)²`).
    fn fill_block(&self, side: Side, t: &mut RowTable, block: usize) {
        t.slot[block] = t.filled.len() as u32;
        t.filled.push(block as u32);
        let base = t.dists.len();
        t.dists.resize(base + t.tokens.len() * Self::W, 0.0);
        let rows = t.dists[base..]
            .as_chunks_mut::<{ embed_lanes::LANE_WIDTH }>()
            .0;
        let blocks = self.blocks(side.opposite());
        for (&x, out) in t.tokens.iter().zip(rows) {
            blocks.euclidean_distances(self.vector(side, x), block, out);
        }
    }

    /// Relaxed WMD similarity of the table's row bag and the candidate
    /// bag `b` (both non-empty): `1 / (1 + max of the two directed
    /// nearest-neighbor means)` — with an **exact** admission-bound
    /// short-circuit.
    ///
    /// The two directed means are each summed in their own bag's order,
    /// with exact `min`s over the other bag, and `max` is symmetric, so a
    /// right row gets the bits of the batch `(left, right)` computation.
    ///
    /// `None` means the final similarity is provably `< bound`: the
    /// directed sums accumulate non-negative terms, and every float
    /// step from a partial sum to the final similarity (add, divide by
    /// a positive constant, `max`, `1/(1+d)`) is monotone — so once
    /// `1/(1 + partial/|a|)` falls below the bound, the fully computed
    /// similarity must too, bit for bit. Passing
    /// `bound = f64::NEG_INFINITY` disables the short-circuit and
    /// reproduces the plain computation exactly.
    fn similarity_bounded(
        &self,
        side: Side,
        t: &mut RowTable,
        b: &[u32],
        bound: f64,
    ) -> Option<f64> {
        t.column.clear();
        for &pos in b {
            let (block, lane) = (pos as usize / Self::W, pos as usize % Self::W);
            if t.slot[block] == u32::MAX {
                self.fill_block(side, t, block);
            }
            t.column
                .push(t.slot[block] as usize * t.tokens.len() * Self::W + lane);
        }
        let RowTable {
            local,
            dists,
            column,
            ..
        } = t;
        let mut d_ab = 0.0;
        for &xi in local.iter() {
            let mut best = f64::INFINITY;
            for &c in column.iter() {
                best = best.min(dists[c + xi]);
            }
            d_ab += best;
            if 1.0 / (1.0 + d_ab / local.len() as f64) < bound {
                return None;
            }
        }
        d_ab /= local.len() as f64;
        let mut d_ba = 0.0;
        for &c in column.iter() {
            let mut best = f64::INFINITY;
            for &xi in local.iter() {
                best = best.min(dists[c + xi]);
            }
            d_ba += best;
            if 1.0 / (1.0 + d_ab.max(d_ba / b.len() as f64)) < bound {
                return None;
            }
        }
        d_ba /= b.len() as f64;
        Some(1.0 / (1.0 + d_ab.max(d_ba)))
    }

    /// Score the candidate pair `(table row of side, opposite j)` — both
    /// known non-empty: centroid upper bound first, then the
    /// short-circuiting transport computation.
    fn score_pair<O: EdgeSink>(
        &self,
        side: Side,
        row: usize,
        j: usize,
        t: &mut RowTable,
        out: &mut O,
    ) {
        out.note_generated();
        let bound = out.admission_bound();
        if bound != f64::NEG_INFINITY {
            let probe = &self.summaries(side)[row];
            let cand = &self.summaries(side.opposite())[j];
            if let (Some(sa), Some(sb)) = oriented(side, probe, cand) {
                if sa.wms_upper_bound(sb) < bound {
                    out.note_pruned();
                    return;
                }
            }
        }
        let b = &self.bags[side.opposite() as usize][j];
        match self.similarity_bounded(side, t, b, bound) {
            None => out.note_pruned(),
            Some(w) => out.scored(row as u32, j as u32, w),
        }
    }
}

/// Per-worker scratch of the WMD scorer: the row table and the index
/// walk's ball-distance buffer.
struct WmdScratch {
    table: RowTable,
    bounds: Vec<(f64, u32)>,
}

impl RowScorer for WmdScorer {
    type Scratch = WmdScratch;
    /// Centroid-ball index over one side's non-empty bags' summary
    /// centroids, entry radius = summary radius, so a ball's distance
    /// lower bound is simultaneously a relaxed-WMD lower bound.
    type Index = PrefixIndex<VectorBallIndex>;
    /// The model's encoder and the scope of the compared text.
    type ProfileEncoder = (Encoder, SemanticScope);

    fn n_rows(&self) -> usize {
        self.bags[Side::Left as usize].len()
    }

    fn scratch(&self) -> WmdScratch {
        WmdScratch {
            table: RowTable {
                tokens: Vec::new(),
                local: Vec::new(),
                index_of: FxHashMap::default(),
                slot: Vec::new(),
                filled: Vec::new(),
                dists: Vec::new(),
                column: Vec::new(),
            },
            bounds: Vec::new(),
        }
    }

    fn index(&self, side: Side) -> PrefixIndex<VectorBallIndex> {
        let summaries = self.summaries(side);
        let entries: Vec<(u32, &DenseVector, f64)> = summaries
            .iter()
            .enumerate()
            .filter_map(|(j, s)| s.as_ref().map(|s| (j as u32, s.centroid(), s.radius())))
            .collect();
        PrefixIndex {
            index: VectorBallIndex::build(&entries),
            len: summaries.len(),
        }
    }

    fn score_row<O: EdgeSink>(
        &self,
        side: Side,
        row: usize,
        source: CandidateSource<'_, &PrefixIndex<VectorBallIndex>>,
        scratch: &mut WmdScratch,
        out: &mut O,
    ) {
        if self.bags[side as usize][row].is_empty() {
            return;
        }
        let target = &self.bags[side.opposite() as usize];
        let WmdScratch { table, bounds } = scratch;
        self.start_row(table, side, row);
        let bound = out.admission_bound();
        let mut score = |j: u32| {
            if out.takes(j) {
                self.score_pair(side, row, j as usize, table, out);
            }
            out.admission_bound()
        };
        let nonempty = |j: u32| !target[j as usize].is_empty();
        match source {
            CandidateSource::Enumerate => {
                for j in 0..target.len() as u32 {
                    if nonempty(j) {
                        score(j);
                    }
                }
            }
            CandidateSource::Index(PrefixIndex { index: ball, len }) => {
                let sa = self.summaries(side)[row]
                    .as_ref()
                    .expect("non-empty bag has a summary");
                generate_ball_candidates(
                    ball,
                    sa.centroid(),
                    sa.radius(),
                    bounds,
                    inverse_distance_bound,
                    bound,
                    &mut score,
                );
                // Bags appended after the ball build (resident inserts)
                // are scored unpruned by the ball.
                for j in *len as u32..target.len() as u32 {
                    if nonempty(j) {
                        score(j);
                    }
                }
            }
            CandidateSource::Blocked(lists) => {
                for &j in lists.row(row as u32) {
                    if nonempty(j) {
                        score(j);
                    }
                }
            }
        }
    }

    fn append(
        &mut self,
        (enc, scope): &Self::ProfileEncoder,
        side: Side,
        profile: &EntityProfile,
    ) -> Option<usize> {
        let s = side as usize;
        let UnitTable { vectors, bags } =
            enc.token_units(&[scoped_text(profile, scope)], WMD_TOKEN_CAP, 1);
        let units = &mut self.units[s];
        let positions = self.positions[s].get_or_insert_with(|| {
            let mut positions = FxHashMap::default();
            for (pos, &u) in units.iter().enumerate() {
                positions
                    .entry(bits_key(&self.vectors[u as usize]))
                    .or_insert(pos as u32);
            }
            positions
        });
        let mut position_of = Vec::with_capacity(vectors.len());
        for v in vectors {
            let key = bits_key(&v);
            let held = positions.get(&key).copied();
            if let Some(pos) = held.filter(|&p| self.vectors[units[p as usize] as usize] == v) {
                position_of.push(pos);
                continue;
            }
            let pos = units.len() as u32;
            positions.entry(key).or_insert(pos);
            if let Some(blocks) = self.blocks[s].get_mut() {
                blocks.push(&v);
            }
            units.push(self.vectors.len() as u32);
            self.vectors.push(v);
            position_of.push(pos);
        }
        let bag: Vec<u32> = bags[0].iter().map(|&u| position_of[u as usize]).collect();
        let summary = self.summary(side, &bag);
        if let Some(summaries) = self.summaries[s].get_mut() {
            summaries.push(summary);
        }
        self.bags[s].push(bag);
        Some(self.bags[s].len() - 1)
    }

    fn index_appended(&self, side: Side, _: usize, index: &mut PrefixIndex<VectorBallIndex>) {
        if overflow_passes_rebuild(index.len, self.bags[side as usize].len()) {
            *index = self.index(side);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::DatasetId;
    use er_embed::EmbeddingModel;
    use er_textsim::{CharMeasure, SparseVector};

    fn tiny() -> Dataset {
        er_datasets::Dataset::generate(DatasetId::D1, 0.03, 42)
    }

    fn weights_in_bounds(g: &SimilarityGraph) {
        for e in g.edges() {
            assert!((0.0..=1.0).contains(&e.weight));
        }
    }

    /// The enumerated top-k graph of `f` over `d` and its accounting.
    fn topk(
        d: &Dataset,
        f: &SimilarityFunction,
        k: usize,
        cfg: &PipelineConfig,
    ) -> (SimilarityGraph, BuildStats) {
        let (g, stats, _) =
            build_graph_topk(&d.left, &d.right, f, k, CandidateMode::Enumerated, cfg);
        (g, stats)
    }

    /// Edge triples with weight bits, for exact graph comparison.
    fn edge_bits(g: &SimilarityGraph) -> Vec<(u32, u32, u64)> {
        g.edges()
            .iter()
            .map(|e| (e.left, e.right, e.weight.to_bits()))
            .collect()
    }

    #[test]
    fn schema_based_graph_is_normalized() {
        let d = tiny();
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        weights_in_bounds(&g);
        let (lo, hi) = g.weight_range().unwrap();
        assert!(lo >= 0.0 && hi <= 1.0);
        assert!((hi - 1.0).abs() < 1e-12, "min-max maps max weight to 1");
    }

    #[test]
    fn min_weight_edge_survives_lowest_grid_threshold() {
        // Regression: plain min-max mapped the weakest retained edge to
        // exactly 0.0, demoting a positive-similarity pair to a non-edge
        // for every positive grid threshold. The 0.0 floor keeps
        // non-negative measures on (0, 1]: weight = raw / max(raw).
        let left = named(&["alpha", "alphas", "alpha x"]);
        let right = named(&["alpha", "alph"]);
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        let g = build_graph_over(&left, &right, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        let (lo, _) = g.weight_range().unwrap();
        assert!(lo > 0.0, "weakest edge keeps positive weight, got {lo}");
        let lowest_grid_t = er_core::ThresholdGrid::paper().values().next().unwrap();
        assert_eq!(
            g.edges()
                .iter()
                .filter(|e| e.weight > lowest_grid_t)
                .count(),
            g.n_edges(),
            "every retained edge survives the lowest grid threshold here"
        );
        // The floor makes normalization proportional: weight = raw / hi.
        let raws: Vec<(u32, u32, f64)> = {
            let mut out = Vec::new();
            for (i, lp) in left.profiles.iter().enumerate() {
                for (j, rp) in right.profiles.iter().enumerate() {
                    let w = SchemaBasedMeasure::Char(CharMeasure::Levenshtein)
                        .similarity(lp.value("name").unwrap(), rp.value("name").unwrap());
                    if w > 0.0 {
                        out.emit(i as u32, j as u32, w);
                    }
                }
            }
            out
        };
        let hi = raws.iter().map(|&(_, _, w)| w).fold(0.0, f64::max);
        for (l, r, raw) in raws {
            let got = g.weight_of(l, r).unwrap();
            assert!((got - raw / hi).abs() < 1e-12, "({l},{r}): {got} vs raw/hi");
        }
    }

    #[test]
    fn zero_similarity_pairs_are_never_edges() {
        // "abc" vs "xyz": Levenshtein similarity is exactly 0, so the pair
        // is not an edge on any output path (the paper keeps only pairs
        // "with a similarity higher than 0").
        let left = named(&["abc"]);
        let right = named(&["abc", "xyz"]);
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        let only_the_match = |edges: Vec<(u32, u32, u64)>| {
            assert_eq!(
                edges,
                vec![(0, 0, 1.0f64.to_bits())],
                "zero-similarity pair dropped"
            );
        };
        for threads in [1, 3] {
            let cfg = PipelineConfig { threads };
            only_the_match(edge_bits(&build_graph_over(&left, &right, &f, &cfg)));
            // Top-k with `k` covering the whole row selects nothing away.
            for mode in [CandidateMode::Enumerated, CandidateMode::Indexed] {
                let (g, stats, _) = build_graph_topk(&left, &right, &f, 2, mode, &cfg);
                only_the_match(edge_bits(&g));
                assert_eq!(stats.retained_edges, 1);
            }
            let dir = std::env::temp_dir()
                .join(format!("ccer-positivity-{}-{threads}", std::process::id()));
            let (mapped, stats, _) = crate::build_graph_sharded(
                &left,
                &right,
                &f,
                2,
                CandidateMode::Indexed,
                &cfg,
                &crate::ShardedConfig::new(1, &dir),
                &dir.join("graph.slab"),
            )
            .expect("sharded build");
            only_the_match(edge_bits(&mapped.to_csr().to_graph()));
            assert_eq!(stats.spilled_triples, 1, "the zero pair never spills");
            std::fs::remove_dir_all(&dir).ok();
        }
        // A resident insert of a copy of "abc" scores against "xyz" too,
        // and drops it the same way.
        let (built, mut resident) =
            crate::ResidentScorer::build(&left, &right, &f, 2, &PipelineConfig::default())
                .expect("positional ids");
        let copy = EntityProfile::new(1, vec![("name".into(), "abc".into())]);
        let store = er_core::CsrGraph::from_graph(&built);
        let delta = resident
            .score_insert(Side::Left, &copy, &store)
            .expect("next id");
        assert_eq!(delta.edges, vec![(0, 1.0)]);
    }

    #[test]
    fn vector_graph_scores_ground_truth_higher() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        weights_in_bounds(&g);
        let sep = er_core::WeightSeparation::of(&g, &d.ground_truth);
        assert!(
            sep.mean_match_weight > sep.mean_nonmatch_weight,
            "matches {:.3} must outweigh non-matches {:.3}",
            sep.mean_match_weight,
            sep.mean_nonmatch_weight
        );
    }

    #[test]
    fn graph_model_graph_builds() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticGraph {
            scheme: NGramScheme::Char(3),
            measure: GraphSimilarity::Value,
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        weights_in_bounds(&g);
    }

    #[test]
    fn semantic_graphs_are_dense_and_high_scoring() {
        let d = tiny();
        let f = SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::Cosine,
            scope: SemanticScope::SchemaAgnostic,
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        weights_in_bounds(&g);
        // The anisotropy cone makes nearly every pair positive (the paper's
        // "semantic similarities assign relatively high scores to most
        // pairs").
        let density = g.n_edges() as f64 / (g.n_left() as f64 * g.n_right() as f64);
        assert!(density > 0.9, "semantic graph density {density:.3}");
    }

    /// Collections of one "name" attribute per text.
    fn named(texts: &[&str]) -> EntityCollection {
        EntityCollection {
            profiles: texts
                .iter()
                .enumerate()
                .map(|(i, t)| EntityProfile::new(i as u32, vec![("name".into(), (*t).into())]))
                .collect(),
            attribute_names: vec!["name".into()],
        }
    }

    #[test]
    fn wmd_scope_and_cap() {
        let d = tiny();
        let f = SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::WordMovers,
            scope: SemanticScope::SchemaBased {
                attribute: "name".into(),
            },
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        weights_in_bounds(&g);

        // Texts that agree on their first WMD_TOKEN_CAP tokens and differ
        // only after them have identical capped bags: they score exactly
        // 1, like a text with itself, and unlike a text that differs
        // inside the cap.
        let head: Vec<String> = (0..WMD_TOKEN_CAP).map(|i| format!("tok{i}")).collect();
        let head = head.join(" ");
        let (a, b) = (format!("{head} alpha beta"), format!("{head} gamma delta"));
        let inside = format!("zeta {head}");
        let left = named(&[&a]);
        let right = named(&[&b, &inside]);
        let g = build_graph_over(&left, &right, &f, &PipelineConfig::default());
        assert_eq!(g.weight_of(0, 0), Some(1.0), "truncation bites");
        assert!(g.weight_of(0, 1).is_some_and(|w| w < 1.0));
    }

    #[test]
    fn wmd_raw_scores_match_direct_computation_bitwise() {
        // The row-table transport runs the measure's own float sequence,
        // so every raw score must equal `similarity_tokens` over the
        // capped per-text bags (no interning, no table) bit for bit —
        // for context-free and contextual units. The ALBERT texts run
        // past the cap, so this also pins the capped encode: the last
        // kept token keeps its real right neighbour. D2's whole-profile
        // texts run past WMD_TOKEN_CAP tokens (D1's do not).
        let d = er_datasets::Dataset::generate(DatasetId::D2, 0.03, 42);
        let cases = [
            (
                EmbeddingModel::FastText,
                SemanticScope::SchemaBased {
                    attribute: "name".into(),
                },
            ),
            (EmbeddingModel::Albert, SemanticScope::SchemaAgnostic),
        ];
        for (model, scope) in cases {
            let f = SimilarityFunction::Semantic {
                model,
                measure: SemanticMeasure::WordMovers,
                scope: scope.clone(),
            };
            let cap = WMD_TOKEN_CAP;
            let enc = model.encoder();
            let bag = |p: &EntityProfile| -> Vec<DenseVector> {
                let mut toks = enc.token_vectors(&scoped_text(p, &scope));
                toks.truncate(cap);
                toks
            };
            let left: Vec<Vec<DenseVector>> = d.left.profiles.iter().map(&bag).collect();
            let right: Vec<Vec<DenseVector>> = d.right.profiles.iter().map(&bag).collect();
            if scope == SemanticScope::SchemaAgnostic {
                assert!(
                    d.left
                        .profiles
                        .iter()
                        .any(|p| scoped_text(p, &scope).split_whitespace().count() > cap),
                    "some whole-profile text must exceed the cap"
                );
            }
            let mut want: Vec<(u32, u32, u64)> = Vec::new();
            for (i, a) in left.iter().enumerate() {
                for (j, b) in right.iter().enumerate() {
                    if a.is_empty() || b.is_empty() {
                        continue;
                    }
                    let raw = SemanticMeasure::WordMovers.similarity_tokens(a, b);
                    if raw > 0.0 {
                        want.push((i as u32, j as u32, raw.to_bits()));
                    }
                }
            }
            let got: Vec<(u32, u32, u64)> = score_shards(
                &d.left,
                &d.right,
                &f,
                CandidateSource::Enumerate,
                &PipelineConfig::default(),
                ScoreMode::Dense,
            )
            .into_iter()
            .flatten()
            .map(|(l, r, w)| (l, r, w.to_bits()))
            .collect();
            assert_eq!(got, want, "{}", model.name());
        }
    }

    #[test]
    fn wmd_row_table_fills_each_block_once_per_row() {
        // Identical bags score exactly 1, and a row scored against every
        // right bag fills each right block of its table at most once:
        // the table holds exactly one `m × W` slab per filled block.
        let left = named(&["alpha beta gamma alpha", "delta"]);
        // 3 + 10 right tokens: two blocks, both touched by row 0.
        let right = named(&[
            "alpha beta gamma alpha",
            "zeta eta theta iota kappa lambda mu nu xi omicron",
            "gamma beta",
        ]);
        let w = embed_lanes::LANE_WIDTH;
        let scorer = WmdScorer::prepare(
            &left,
            &right,
            &EmbeddingModel::FastText.encoder(),
            &SemanticScope::SchemaBased {
                attribute: "name".into(),
            },
            &PipelineConfig::default(),
        );
        let right_blocks = scorer.blocks(Side::Right);
        assert_eq!(scorer.units[1].len(), 13, "13 distinct right tokens");
        assert_eq!(right_blocks.n_blocks(), 13usize.div_ceil(w));
        let mut scratch = scorer.scratch();
        for row in 0..2 {
            let mut out = Vec::new();
            scorer.score_row(
                Side::Left,
                row,
                CandidateSource::Enumerate,
                &mut scratch,
                &mut out,
            );
            assert_eq!(out.len(), 3, "row {row}");
            if row == 0 {
                assert_eq!(out[0], (0, 0, 1.0), "identical bags score exactly 1");
            }
            let t = &scratch.table;
            assert_eq!(t.tokens.len(), [3, 1][row], "distinct row tokens");
            let mut blocks = t.filled.clone();
            blocks.sort_unstable();
            blocks.dedup();
            assert_eq!(blocks.len(), t.filled.len(), "no block filled twice");
            assert_eq!(t.filled.len(), right_blocks.n_blocks());
            assert_eq!(t.dists.len(), t.filled.len() * t.tokens.len() * w);
        }
    }

    #[test]
    fn wmd_appended_bags_score_as_direct_computation_bitwise() {
        // Resident appends on both sides, after both sides' blocks and
        // summaries are built: copies of the other side's profiles bring
        // units their new side does not hold (pushed into the built
        // blocks), copies of the side's own profiles reuse held
        // positions. Every raw score of the first and the appended rows,
        // probed from either side, equals `similarity_tokens` over the
        // capped per-text bags bit for bit.
        let d = er_datasets::Dataset::generate(DatasetId::D2, 0.03, 42);
        let cfg = PipelineConfig::default();
        for (model, scope) in [
            (EmbeddingModel::FastText, SemanticScope::SchemaAgnostic),
            (
                EmbeddingModel::Albert,
                SemanticScope::SchemaBased {
                    attribute: "name".into(),
                },
            ),
        ] {
            let enc = model.encoder();
            let mut scorer = WmdScorer::prepare(&d.left, &d.right, &enc, &scope, &cfg);
            let mut scratch = scorer.scratch();
            for side in [Side::Left, Side::Right] {
                let mut out = Vec::new();
                let source = CandidateSource::Enumerate;
                scorer.score_row(side, 0, source, &mut scratch, &mut out);
                scorer.summaries(side);
            }
            let mut texts = [d.left.profiles.clone(), d.right.profiles.clone()];
            let encoder = (enc.clone(), scope.clone());
            for i in 0..3 {
                for (side, donor) in [
                    (Side::Left, &d.right.profiles[i]),
                    (Side::Right, &d.left.profiles[i]),
                    (Side::Right, &d.right.profiles[i]),
                ] {
                    let row = scorer.append(&encoder, side, donor);
                    assert_eq!(row, Some(texts[side as usize].len()));
                    texts[side as usize].push(donor.clone());
                }
            }
            let bag = |p: &EntityProfile| -> Vec<DenseVector> {
                let mut toks = enc.token_vectors(&scoped_text(p, &scope));
                toks.truncate(WMD_TOKEN_CAP);
                toks
            };
            let bags = texts.map(|side| side.iter().map(&bag).collect::<Vec<_>>());
            for side in [Side::Left, Side::Right] {
                let (own, other) = (&bags[side as usize], &bags[side.opposite() as usize]);
                let appended = [d.left.len(), d.right.len()][side as usize]..own.len();
                for row in (0..3).chain(appended) {
                    let a = &own[row];
                    let mut want: Vec<(u32, u32, u64)> = Vec::new();
                    for (j, b) in other.iter().enumerate() {
                        if a.is_empty() || b.is_empty() {
                            continue;
                        }
                        let (l, r) = oriented(side, a, b);
                        let raw = SemanticMeasure::WordMovers.similarity_tokens(l, r);
                        if raw > 0.0 {
                            want.push((row as u32, j as u32, raw.to_bits()));
                        }
                    }
                    let mut out = Vec::new();
                    let source = CandidateSource::Enumerate;
                    scorer.score_row(side, row, source, &mut scratch, &mut out);
                    let got: Vec<(u32, u32, u64)> = out
                        .into_iter()
                        .map(|(i, j, w)| (i, j, w.to_bits()))
                        .collect();
                    assert_eq!(got, want, "{} {side:?} row {row}", model.name());
                }
            }
        }
    }

    #[test]
    fn inverted_index_matches_bruteforce_for_vectors() {
        // The index must produce exactly the positive pairs.
        let d = tiny();
        let scheme = NGramScheme::Char(3);
        let measure = VectorMeasure::CosineTf;
        let f = SimilarityFunction::SchemaAgnosticVector { scheme, measure };
        let g = build_graph(&d, &f, &PipelineConfig::default());

        // Brute force.
        let model = VectorModel::new(scheme);
        let lv: Vec<SparseVector> = d
            .left
            .profiles
            .iter()
            .map(|p| model.vector(&p.all_values_text(), er_textsim::TermWeighting::Tf, None))
            .collect();
        let rv: Vec<SparseVector> = d
            .right
            .profiles
            .iter()
            .map(|p| model.vector(&p.all_values_text(), er_textsim::TermWeighting::Tf, None))
            .collect();
        let mut brute = 0usize;
        for a in &lv {
            for b in &rv {
                if measure.similarity(a, b, None) > 0.0 {
                    brute += 1;
                }
            }
        }
        assert_eq!(g.n_edges(), brute);
    }

    #[test]
    fn parallel_construction_is_bit_identical_to_serial() {
        // Quick smoke over one branch; the exhaustive four-branch property
        // suite lives in tests/graphgen_props.rs.
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let serial = PipelineConfig { threads: 1 };
        let parallel = PipelineConfig { threads: 4 };
        let gs = build_graph(&d, &f, &serial);
        let gp = build_graph(&d, &f, &parallel);
        assert_eq!(edge_bits(&gs), edge_bits(&gp));
    }

    #[test]
    fn restricted_build_matches_full_restriction() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = PipelineConfig::default();
        let candidates = crate::blocking::token_blocking(&d.left, &d.right).candidate_pairs();
        let full = build_graph(&d, &f, &cfg);
        let via_restrict = crate::blocking::restrict_graph(&full, &candidates);
        let direct = build_graph_restricted(&d.left, &d.right, &f, &candidates, &cfg);
        let pairs = |g: &SimilarityGraph| -> FxHashSet<(u32, u32)> {
            g.edges().iter().map(|e| (e.left, e.right)).collect()
        };
        assert_eq!(
            pairs(&direct),
            pairs(&via_restrict),
            "restricted build scores exactly the candidate edges"
        );
        assert!(!direct.is_empty());
        weights_in_bounds(&direct);
    }

    /// A blocked pair whose n-gram graphs or term vectors are empty is no
    /// edge: two empty sides would score 1, but the walks pair only
    /// profiles that share a graph edge or a term, and the restricted
    /// build skips the same pairs.
    #[test]
    fn restricted_build_skips_pairs_with_an_empty_side() {
        let collection = |texts: [&str; 2]| EntityCollection {
            profiles: texts
                .iter()
                .enumerate()
                .map(|(i, t)| EntityProfile::new(i as u32, vec![("name".into(), t.to_string())]))
                .collect(),
            attribute_names: vec!["name".into()],
        };
        let (left, right) = (
            collection(["", "hello world"]),
            collection(["", "hello world"]),
        );
        let every_pair: FxHashSet<(u32, u32)> =
            [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().collect();
        let cfg = PipelineConfig::default();
        for f in [
            SimilarityFunction::SchemaAgnosticGraph {
                scheme: NGramScheme::Char(3),
                measure: GraphSimilarity::Value,
            },
            SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Token(1),
                measure: VectorMeasure::CosineTf,
            },
        ] {
            let full = build_graph_over(&left, &right, &f, &cfg);
            let direct = build_graph_restricted(&left, &right, &f, &every_pair, &cfg);
            assert_eq!(edge_bits(&direct), edge_bits(&full), "{}", f.name());
            assert!(direct.weight_of(0, 0).is_none(), "{}", f.name());
        }
    }

    #[test]
    fn topk_matches_dense_then_prune_bitwise() {
        let d = tiny();
        let cfg = PipelineConfig::default();
        let functions = [
            SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Token(1),
                measure: VectorMeasure::CosineTfIdf,
            },
            SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
            },
        ];
        for f in &functions {
            let dense = build_graph(&d, f, &cfg);
            for k in [1usize, 3] {
                let (streamed, _) = topk(&d, f, k, &cfg);
                assert_eq!(
                    edge_bits(&streamed),
                    edge_bits(&dense.pruned_top_k(k)),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn topk_peak_is_bounded_while_dense_volume_is_not() {
        // Semantic cosine makes nearly every pair an edge (density > 0.9),
        // so the dense candidate volume is ~n_left × n_right while the
        // streaming path's accounting must stay within n_left × k.
        let d = tiny();
        let f = SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::Cosine,
            scope: SemanticScope::SchemaAgnostic,
        };
        let k = 2usize;
        let (g, stats) = topk(&d, &f, k, &PipelineConfig::default());
        let bound = d.left.len() * k;
        assert!(
            stats.peak_resident_edges <= bound,
            "peak {} exceeds n_left × k = {bound}",
            stats.peak_resident_edges
        );
        assert_eq!(stats.retained_edges, g.n_edges());
        assert!(g.n_edges() <= bound);
        assert!(
            stats.offered_edges > 4 * bound,
            "dense volume {} should dwarf the bound {bound} — otherwise \
             this test proves nothing",
            stats.offered_edges
        );
        // The same accounting holds when workers shard the rows.
        let (_, par_stats) = topk(&d, &f, k, &PipelineConfig { threads: 4 });
        assert!(par_stats.peak_resident_edges <= bound);
        assert_eq!(par_stats.offered_edges, stats.offered_edges);
    }

    #[test]
    fn topk_parallel_is_bit_identical_to_serial() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let (serial, _) = topk(&d, &f, 2, &PipelineConfig { threads: 1 });
        let (parallel, _) = topk(&d, &f, 2, &PipelineConfig { threads: 4 });
        assert_eq!(edge_bits(&serial), edge_bits(&parallel));
    }

    #[test]
    fn topk_unbounded_reproduces_dense_edge_set() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = PipelineConfig::default();
        let dense = build_graph(&d, &f, &cfg);
        let (unbounded, _) = topk(&d, &f, usize::MAX, &cfg);
        let canon = |g: &SimilarityGraph| {
            let mut v = edge_bits(g);
            v.sort_unstable();
            v
        };
        assert_eq!(canon(&dense), canon(&unbounded));
    }

    #[test]
    fn topk_zero_keeps_nothing() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let (g, stats) = topk(&d, &f, 0, &PipelineConfig::default());
        assert!(g.is_empty());
        assert_eq!(stats.peak_resident_edges, 0);
        assert!(stats.offered_edges > 0, "candidates were still scored");
    }

    #[test]
    fn prepared_output_matches_separate_sort() {
        let d = tiny();
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        let cfg = PipelineConfig::default();
        let built = build_prepared(&d, &f, &cfg);
        assert_eq!(built.sorted.len(), built.graph.n_edges());
        let reference = build_graph(&d, &f, &cfg).sorted_edges();
        for (a, b) in built.sorted.all().iter().zip(reference.all()) {
            assert_eq!((a.left, a.right), (b.left, b.right));
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }
}
