//! Resident ≡ batch oracle suite: a record inserted into a
//! [`ResidentScorer`] scores exactly as the batch build scored its twin.
//!
//! The resident scorer freezes the load-time statistics, so a copy of an
//! existing profile inserted under the next id must reproduce that
//! profile's batch edges **bit for bit** through the build's frame:
//!
//! 1. **Left inserts.** A copy of left profile `i` returns exactly row `i`
//!    of `build_graph_topk(.., k, CandidateMode::Indexed, ..)` —
//!    the same top-k admission, the same raw scores, the same frame.
//! 2. **Right inserts.** With `k = usize::MAX` (no row bound), a copy of
//!    right profile `j` returns exactly column `j`: every measure sees
//!    the batch `(left, right)` argument order whichever side probes.
//! 3. **Appended entries are found.** Further copies, inserted on
//!    alternating sides, return the best `k` (or all) of their original's
//!    row or column with every edge repeated to each copy of the
//!    neighbour — the resident indexes take appended entries, whether
//!    indexed at once or scored as overflow until a rebuild, and right
//!    inserts prune under a live bound too.
//!
//! Every profile of every catalog function of a small generated dataset
//! runs: token vectors, character measures, schema-based token measures,
//! n-gram graphs, dense semantic and Word Mover's.

use er_core::{CsrGraph, RowDelta, Side, SimilarityGraph};
use er_datasets::{Dataset, DatasetId, EntityProfile};
use er_pipeline::{
    build_graph_topk, CandidateMode, NormFrame, PipelineConfig, ResidentScorer, SimilarityFunction,
};

fn resident(
    d: &Dataset,
    f: &SimilarityFunction,
    k: usize,
    frame: NormFrame,
    cfg: &PipelineConfig,
) -> ResidentScorer {
    ResidentScorer::prepare(&d.left, &d.right, f, k, frame, cfg)
        .expect("generated profile ids are positional")
}

/// A copy of `p` under `side`'s next id, inserted into `rs` against
/// `store` and then applied to it.
fn insert_copy(
    rs: &mut ResidentScorer,
    store: &mut CsrGraph,
    side: Side,
    p: &EntityProfile,
) -> RowDelta {
    let mut copy = p.clone();
    copy.id = match side {
        Side::Left => rs.left().len() as u32,
        Side::Right => rs.right().len() as u32,
    };
    let delta = rs
        .score_insert(side, &copy, store)
        .expect("the copy carries the next append id");
    store
        .apply(&delta)
        .expect("the insert applies to its store");
    delta
}

/// `(counterpart, weight bits)`, ascending by counterpart.
fn bits(edges: impl Iterator<Item = (u32, f64)>) -> Vec<(u32, u64)> {
    let mut out: Vec<(u32, u64)> = edges.map(|(o, w)| (o, w.to_bits())).collect();
    out.sort_unstable();
    out
}

fn row(g: &SimilarityGraph, i: u32) -> Vec<(u32, u64)> {
    bits(
        g.edges()
            .iter()
            .filter(|e| e.left == i)
            .map(|e| (e.right, e.weight)),
    )
}

fn column(g: &SimilarityGraph, j: u32) -> Vec<(u32, u64)> {
    bits(
        g.edges()
            .iter()
            .filter(|e| e.right == j)
            .map(|e| (e.left, e.weight)),
    )
}

/// `original`'s edges plus, per `(original, copy)` pair whose original
/// is a neighbour, the same edge to the copy.
fn with_copies(original: Vec<(u32, u64)>, copies: &[(u32, u32)]) -> Vec<(u32, u64)> {
    let mut out = original.clone();
    for &(orig, copy) in copies {
        if let Some(&(_, w)) = original.iter().find(|&&(o, _)| o == orig) {
            out.push((copy, w));
        }
    }
    out.sort_unstable();
    out
}

/// The `k` best edges — weight descending, ties by ascending id, as a
/// row heap keeps them — ascending by id.
fn best(mut edges: Vec<(u32, u64)>, k: usize) -> Vec<(u32, u64)> {
    edges.sort_by(|a, b| {
        f64::from_bits(b.1)
            .total_cmp(&f64::from_bits(a.1))
            .then(a.0.cmp(&b.0))
    });
    edges.truncate(k);
    edges.sort_unstable();
    edges
}

/// A resident scorer keeping the best `top` edges per insert, the store
/// its inserts are applied to, and the copies inserted so far per side
/// (`(original, copy)` ids).
struct Resident {
    rs: ResidentScorer,
    store: CsrGraph,
    top: usize,
    copies: [Vec<(u32, u32)>; 2],
}

impl Resident {
    fn new(rs: ResidentScorer, graph: &SimilarityGraph, top: usize) -> Self {
        Resident {
            rs,
            store: CsrGraph::from_graph(graph),
            top,
            copies: [Vec::new(), Vec::new()],
        }
    }

    /// Insert a copy of `side`'s profile `i`; its edges as [`bits`].
    fn insert(&mut self, d: &Dataset, side: Side, i: usize) -> Vec<(u32, u64)> {
        let profile = match side {
            Side::Left => &d.left.profiles[i],
            Side::Right => &d.right.profiles[i],
        };
        let delta = insert_copy(&mut self.rs, &mut self.store, side, profile);
        self.copies[side as usize].push((i as u32, delta.id));
        bits(delta.edges.into_iter())
    }

    /// What a copy of `side`'s profile `i` must meet: the best `top` of
    /// its original's edges in the unbounded build `all`, each also
    /// repeated to every copy of the neighbour.
    fn expected(&self, all: &SimilarityGraph, side: Side, i: usize) -> Vec<(u32, u64)> {
        let (original, copies) = match side {
            Side::Left => (row(all, i as u32), &self.copies[Side::Right as usize]),
            Side::Right => (column(all, i as u32), &self.copies[Side::Left as usize]),
        };
        best(with_copies(original, copies), self.top)
    }
}

/// The insert oracles for `f`, inserting a copy of every `stride`-th
/// profile. With `among_copies`, both residents then
/// insert more copies on alternating sides, which must meet the earlier
/// copies exactly as their originals met each other — the check on the
/// resident index maintenance (postings appended per insert, buckets and
/// balls scored as overflow until rebuilt).
fn check(d: &Dataset, f: &SimilarityFunction, k: usize, stride: usize, among_copies: bool) {
    let cfg = PipelineConfig { threads: 2 };
    let label = f.name();
    let build = |k| build_graph_topk(&d.left, &d.right, f, k, CandidateMode::Indexed, &cfg);
    let (g, _, frame) = build(k);
    let (all, _, all_frame) = build(usize::MAX);
    // The row bound keeps the global maximum and the 0.0 floor.
    assert_eq!(frame, all_frame, "{label}: one frame for both builds");

    let mut top_k = Resident::new(resident(d, f, k, frame, &cfg), &g, k);
    for i in (0..d.left.len()).step_by(stride) {
        assert_eq!(
            top_k.insert(d, Side::Left, i),
            row(&g, i as u32),
            "{label}: left insert of a copy of left {i}"
        );
    }
    let mut unbounded = Resident::new(resident(d, f, usize::MAX, frame, &cfg), &all, usize::MAX);
    for j in (0..d.right.len()).step_by(stride) {
        assert_eq!(
            unbounded.insert(d, Side::Right, j),
            column(&all, j as u32),
            "{label}: right insert of a copy of right {j}"
        );
    }
    if !among_copies {
        return;
    }
    for mut r in [top_k, unbounded] {
        for t in (0..d.left.len().max(d.right.len())).step_by(stride) {
            for (side, n) in [(Side::Right, d.right.len()), (Side::Left, d.left.len())] {
                let expect = r.expected(&all, side, t % n);
                assert_eq!(
                    r.insert(d, side, t % n),
                    expect,
                    "{label}: top-{} {side:?} insert of a copy of {} among copies",
                    r.top,
                    t % n
                );
            }
        }
    }
}

/// D2 at 0.04: 43 × 43 profiles.
fn dataset() -> Dataset {
    Dataset::generate(DatasetId::D2, 0.04, 5)
}

/// Every profile of both sides, for every catalog function, with copies
/// among copies. Two workers share the functions; a failed check
/// re-raises here.
#[test]
fn inserts_reproduce_their_batch_rows_and_columns() {
    let d = dataset();
    let functions = SimilarityFunction::catalog(&d.spec, true);
    assert_eq!(functions.len(), 88, "every catalog function runs");
    er_core::par::map_indexed(
        functions.len(),
        2,
        || (),
        |_, i| check(&d, &functions[i], 3, 1, true),
    );
}
