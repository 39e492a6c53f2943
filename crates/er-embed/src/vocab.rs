//! Collection-level encoding: every distinct unit computed once.
//!
//! Both encoders embed a text by pooling per-token vectors, and a token's
//! vector is a pure function of a small key — the token itself for
//! fastText, the `(prev, token, next)` signature for ALBERT. Over a
//! collection those *units* repeat heavily (shared vocabulary, repeated
//! attribute values), so the collection paths number the distinct units
//! in first-appearance order, compute each unit's vector once, and spread
//! that work over scoped worker threads. Every vector is produced by the
//! same float sequence as the single-text path, so the results are
//! bit-identical to encoding each text on its own, for any thread count
//! (property-pinned against the frozen per-text encoders).

use std::hash::Hash;

use er_core::{par, FxHashMap};
use er_textsim::normalize_text;

use crate::dense::DenseVector;

/// Reusable buffers of the unit kernels: the key being hashed (marked
/// token or context signature), the marked token's char boundaries, and
/// one hashed unit vector.
#[derive(Default)]
pub(crate) struct KernelScratch {
    pub(crate) key: String,
    pub(crate) bounds: Vec<usize>,
    pub(crate) unit: Vec<f32>,
}

/// A hash-kernel encoder whose text embedding pools per-token vectors of
/// hashable units.
pub(crate) trait UnitModel: Sync {
    /// The key a token's vector is a pure function of.
    type Unit<'a>: Copy + Eq + Hash + Sync;

    /// The unit of token `idx` of a text's full token list.
    fn unit<'a>(tokens: &[&'a str], idx: usize) -> Self::Unit<'a>;

    /// Write the unit's vector into `out` (length [`UnitModel::dim`]).
    fn unit_vector_into(&self, unit: Self::Unit<'_>, s: &mut KernelScratch, out: &mut [f32]);

    /// The shared anisotropy direction and its blend factor.
    fn cone(&self) -> (&DenseVector, f32);

    /// Vector dimensionality.
    fn dim(&self) -> usize;
}

/// Token-level encoding of a text collection: each distinct unit's vector
/// once, and every text as the unit ids of its tokens.
///
/// ```
/// use er_embed::EmbeddingModel;
///
/// let enc = EmbeddingModel::FastText.encoder();
/// let units = enc.token_units(&["red apple", "apple pie apple"], usize::MAX, 2);
/// assert_eq!(units.vectors.len(), 3, "red, apple, pie");
/// assert_eq!(units.bags, vec![vec![0, 1], vec![1, 2, 1]]);
/// assert_eq!(units.vectors[1], enc.token_vectors("apple")[0]);
/// ```
#[derive(Debug, Clone)]
pub struct UnitTable {
    /// Unit vectors by unit id; ids number the units in order of first
    /// appearance over the texts.
    pub vectors: Vec<DenseVector>,
    /// Per text, the unit id of each kept token, in text order.
    pub bags: Vec<Vec<u32>>,
}

impl UnitTable {
    /// Resolve every bag into owned vectors.
    pub fn into_bags(self) -> Vec<Vec<DenseVector>> {
        let UnitTable { vectors, bags } = self;
        bags.iter()
            .map(|bag| bag.iter().map(|&u| vectors[u as usize].clone()).collect())
            .collect()
    }
}

/// The distinct units of a collection in first-appearance order, their
/// occurrence counts, and each text's unit ids.
struct Vocabulary<U> {
    units: Vec<U>,
    counts: Vec<u32>,
    bags: Vec<Vec<u32>>,
}

/// Number the units of the first `cap` tokens of every normalized text.
/// A kept token's unit still sees the full token list, so ALBERT's last
/// kept token keeps its real right neighbour.
fn vocabulary<'a, M: UnitModel>(normalized: &'a [String], cap: usize) -> Vocabulary<M::Unit<'a>> {
    let mut ids: FxHashMap<M::Unit<'a>, u32> = FxHashMap::default();
    let mut units = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut tokens: Vec<&'a str> = Vec::new();
    let bags = normalized
        .iter()
        .map(|text| {
            tokens.clear();
            tokens.extend(text.split_whitespace());
            (0..tokens.len().min(cap))
                .map(|i| {
                    let unit = M::unit(&tokens, i);
                    let id = *ids.entry(unit).or_insert_with(|| {
                        units.push(unit);
                        counts.push(0);
                        units.len() as u32 - 1
                    });
                    counts[id as usize] += 1;
                    id
                })
                .collect()
        })
        .collect();
    Vocabulary {
        units,
        counts,
        bags,
    }
}

/// `f(scratch, i)` for every `i in 0..n`, in index order. Workers claim
/// small contiguous chunks (unit and text costs vary with length), each
/// with its own scratch from `init`.
fn par_map<S, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let chunk = par::chunk_len(n, threads);
    let chunks = par::map_indexed(n.div_ceil(chunk), threads, init, |s, c| {
        (c * chunk..((c + 1) * chunk).min(n))
            .map(|i| f(s, i))
            .collect::<Vec<T>>()
    });
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// One unit's vector, freshly allocated.
fn unit_vector<M: UnitModel>(m: &M, unit: M::Unit<'_>, s: &mut KernelScratch) -> DenseVector {
    let mut v = DenseVector::zeros(m.dim());
    m.unit_vector_into(unit, s, &mut v.0);
    v
}

/// Every text's pooled embedding: the mean of its token vectors, blended
/// into the model's anisotropy cone (the zero vector for an empty text).
///
/// Units occurring more than once are computed up front, spread over the
/// workers; single-occurrence units — most ALBERT signatures — are
/// computed inline by the worker pooling their text and never stored, so
/// the memo holds only what is reused.
pub(crate) fn encode_all<M: UnitModel, T: AsRef<str> + Sync>(
    m: &M,
    texts: &[T],
    threads: usize,
) -> Vec<DenseVector> {
    let normalized: Vec<String> = texts.iter().map(|t| normalize_text(t.as_ref())).collect();
    let vocab = vocabulary::<M>(&normalized, usize::MAX);
    let repeated: Vec<u32> = (0..vocab.units.len() as u32)
        .filter(|&u| vocab.counts[u as usize] > 1)
        .collect();
    let memo = par_map(repeated.len(), threads, KernelScratch::default, |s, r| {
        unit_vector(m, vocab.units[repeated[r] as usize], s)
    });
    let mut slot = vec![u32::MAX; vocab.units.len()];
    for (r, &u) in repeated.iter().enumerate() {
        slot[u as usize] = r as u32;
    }
    let dim = m.dim();
    let init = || (KernelScratch::default(), vec![0.0f32; dim]);
    par_map(texts.len(), threads, init, |(s, inline), t| {
        let bag = &vocab.bags[t];
        if bag.is_empty() {
            return DenseVector::zeros(dim);
        }
        let mut mean = DenseVector::zeros(dim);
        for &u in bag {
            let v: &[f32] = match slot[u as usize] {
                u32::MAX => {
                    m.unit_vector_into(vocab.units[u as usize], s, inline);
                    inline
                }
                r => &memo[r as usize].0,
            };
            for (a, &b) in mean.0.iter_mut().zip(v) {
                *a += b;
            }
        }
        let (common, anisotropy) = m.cone();
        mean.scale(1.0 / bag.len() as f32);
        mean.normalize();
        // Blend into the cone: v ← (1-α)·v + α·common.
        let mut out = common.clone();
        out.scale(anisotropy);
        out.add_scaled(&mean, 1.0 - anisotropy);
        out.normalize();
        out
    })
}

/// The units of every text's first `cap` tokens, each unit's vector
/// computed once, spread over the workers.
pub(crate) fn token_units<M: UnitModel, T: AsRef<str> + Sync>(
    m: &M,
    texts: &[T],
    cap: usize,
    threads: usize,
) -> UnitTable {
    let normalized: Vec<String> = texts.iter().map(|t| normalize_text(t.as_ref())).collect();
    let vocab = vocabulary::<M>(&normalized, cap);
    let vectors = par_map(
        vocab.units.len(),
        threads,
        KernelScratch::default,
        |s, u| unit_vector(m, vocab.units[u], s),
    );
    UnitTable {
        vectors,
        bags: vocab.bags,
    }
}
