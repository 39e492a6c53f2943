//! Frozen reference encoders (test-only).
//!
//! The allocating per-text encoders the production kernels replaced, kept
//! verbatim: one `String` and one `Vec` per n-gram, one `format!` per
//! context signature, no vocabulary memo. The property tests at the end
//! pin the production paths — single-text [`Encoder::encode`] and
//! [`Encoder::token_vectors`], the collection-level
//! [`Encoder::encode_all`] and [`Encoder::token_units`] — to these bit
//! for bit.

use er_core::hash::seeded_hash64;
use er_core::FxHashMap;
use er_textsim::normalize_text;

use crate::albert::{AlbertLike, ALBERT_SEED};
use crate::dense::DenseVector;
use crate::fasttext::{FastTextLike, FASTTEXT_SEED};
use crate::measures::Encoder;

/// The unit pseudo-embedding of `key`, one allocation per call.
pub(crate) fn pseudo_unit_vector(key: &str, dim: usize, seed: u64) -> DenseVector {
    let mut state = seeded_hash64(key.as_bytes(), seed);
    let mut v = Vec::with_capacity(dim);
    for _ in 0..dim {
        state = splitmix64(state);
        // Map the top 24 bits to a uniform value in [-1, 1).
        let u = (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
        v.push(u);
    }
    let mut dv = DenseVector(v);
    dv.normalize();
    dv
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Blend a pooled mean into the model's anisotropy cone.
fn blend(mut mean: DenseVector, n: usize, common: &DenseVector, anisotropy: f32) -> DenseVector {
    mean.scale(1.0 / n as f32);
    mean.normalize();
    let mut out = common.clone();
    out.scale(anisotropy);
    out.add_scaled(&mean, 1.0 - anisotropy);
    out.normalize();
    out
}

/// fastText: normalized sum of the boundary-marked 3–6-gram vectors plus
/// the whole-word vector.
pub(crate) fn fasttext_token_vector(m: &FastTextLike, token: &str) -> DenseVector {
    let marked = format!("<{token}>");
    let chars: Vec<char> = marked.chars().collect();
    let mut sum = DenseVector::zeros(m.dim);
    let mut parts = 0usize;
    for n in 3..=6 {
        if chars.len() < n {
            break;
        }
        for w in chars.windows(n) {
            let gram: String = w.iter().collect();
            sum.add_assign(&pseudo_unit_vector(&gram, m.dim, FASTTEXT_SEED));
            parts += 1;
        }
    }
    sum.add_assign(&pseudo_unit_vector(&marked, m.dim, FASTTEXT_SEED));
    parts += 1;
    sum.scale(1.0 / parts as f32);
    sum.normalize();
    sum
}

fn fasttext_encode(m: &FastTextLike, text: &str) -> DenseVector {
    let normalized = normalize_text(text);
    let toks: Vec<&str> = normalized.split_whitespace().collect();
    if toks.is_empty() {
        return DenseVector::zeros(m.dim);
    }
    let mut mean = DenseVector::zeros(m.dim);
    let mut cache: FxHashMap<&str, DenseVector> = FxHashMap::default();
    for t in &toks {
        let v = cache
            .entry(t)
            .or_insert_with(|| fasttext_token_vector(m, t))
            .clone();
        mean.add_assign(&v);
    }
    blend(mean, toks.len(), &m.common, m.anisotropy)
}

/// ALBERT: `0.6·e(token) + 0.2·e(prev⊕token) + 0.2·e(token⊕next)`,
/// normalized.
pub(crate) fn albert_contextual_token_vector(
    m: &AlbertLike,
    tokens: &[&str],
    idx: usize,
) -> DenseVector {
    let tok = tokens[idx];
    let mut v = pseudo_unit_vector(tok, m.dim, ALBERT_SEED);
    v.scale(0.6);
    let prev = if idx > 0 { tokens[idx - 1] } else { "[CLS]" };
    let next = if idx + 1 < tokens.len() {
        tokens[idx + 1]
    } else {
        "[SEP]"
    };
    v.add_scaled(
        &pseudo_unit_vector(&format!("{prev}\u{1}{tok}"), m.dim, ALBERT_SEED),
        0.2,
    );
    v.add_scaled(
        &pseudo_unit_vector(&format!("{tok}\u{1}{next}"), m.dim, ALBERT_SEED),
        0.2,
    );
    v.normalize();
    v
}

fn albert_encode(m: &AlbertLike, text: &str) -> DenseVector {
    let normalized = normalize_text(text);
    let toks: Vec<&str> = normalized.split_whitespace().collect();
    if toks.is_empty() {
        return DenseVector::zeros(m.dim);
    }
    let mut mean = DenseVector::zeros(m.dim);
    for i in 0..toks.len() {
        mean.add_assign(&albert_contextual_token_vector(m, &toks, i));
    }
    blend(mean, toks.len(), &m.common, m.anisotropy)
}

/// The reference whole-text embedding.
pub(crate) fn encode(enc: &Encoder, text: &str) -> DenseVector {
    match enc {
        Encoder::FastText(m) => fasttext_encode(m, text),
        Encoder::Albert(m) => albert_encode(m, text),
    }
}

/// The reference per-token vectors.
pub(crate) fn token_vectors(enc: &Encoder, text: &str) -> Vec<DenseVector> {
    let normalized = normalize_text(text);
    let toks: Vec<&str> = normalized.split_whitespace().collect();
    match enc {
        Encoder::FastText(m) => toks.iter().map(|t| fasttext_token_vector(m, t)).collect(),
        Encoder::Albert(m) => (0..toks.len())
            .map(|i| albert_contextual_token_vector(m, &toks, i))
            .collect(),
    }
}

mod props {
    use proptest::prelude::*;

    use super::*;

    fn bits(v: &DenseVector) -> Vec<u32> {
        v.0.iter().map(|f| f.to_bits()).collect()
    }

    /// Both models at small dimensions (the kernels are dimension-generic;
    /// small vectors keep the frozen allocating oracle fast) plus the
    /// production defaults.
    fn encoders() -> Vec<Encoder> {
        vec![
            Encoder::FastText(FastTextLike::new(13, 0.55)),
            Encoder::Albert(AlbertLike::new(11, 0.65)),
            Encoder::FastText(FastTextLike::default()),
            Encoder::Albert(AlbertLike::default()),
        ]
    }

    /// Arbitrary Unicode text over an alphabet that forces the interesting
    /// cases: multi-byte scalars of every UTF-8 width (2: `é ß Ω`, 3: `漢 字`,
    /// 4: `🦀`), a scalar whose lowercase mapping changes length (`İ`),
    /// separators and punctuation, so tokens below the 3-gram floor, repeated
    /// tokens and empty texts all occur.
    fn text() -> impl Strategy<Value = String> {
        let alphabet = vec![
            'a', 'b', 'c', 'A', '1', 'é', 'ß', 'Ω', '漢', '字', '🦀', 'İ', ' ', ' ', ' ', '-', '.',
        ];
        proptest::collection::vec(proptest::sample::select(alphabet), 0..24)
            .prop_map(|cs| cs.into_iter().collect::<String>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn single_text_paths_match_frozen_encoders(t in text()) {
            for enc in encoders() {
                prop_assert_eq!(bits(&enc.encode(&t)), bits(&encode(&enc, &t)));
                let got = enc.token_vectors(&t);
                let want = token_vectors(&enc, &t);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(bits(g), bits(w));
                }
            }
        }

        #[test]
        fn collection_paths_match_frozen_encoders(
            texts in proptest::collection::vec(text(), 0..7),
            cap in 0usize..6,
            threads in 1usize..4,
        ) {
            for enc in encoders() {
                let all = enc.encode_all(&texts, threads);
                prop_assert_eq!(all.len(), texts.len());
                for (g, t) in all.iter().zip(&texts) {
                    prop_assert_eq!(bits(g), bits(&encode(&enc, t)));
                }
                let units = enc.token_units(&texts, cap, threads);
                prop_assert_eq!(units.bags.len(), texts.len());
                for (bag, t) in units.bags.iter().zip(&texts) {
                    let mut want = token_vectors(&enc, t);
                    want.truncate(cap);
                    prop_assert_eq!(bag.len(), want.len());
                    for (&id, w) in bag.iter().zip(&want) {
                        prop_assert_eq!(bits(&units.vectors[id as usize]), bits(w));
                    }
                }
            }
        }
    }
}
