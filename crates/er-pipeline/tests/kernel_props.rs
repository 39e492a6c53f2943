//! Kernel-equivalence property suite: the lane-parallel (SWAR) kernels
//! the construction engine runs are **bit-identical** to the scalar
//! kernels that define each measure — not approximately, not "up to an
//! epsilon", but the same integers and the same `f64` bit patterns.
//!
//! Layers covered:
//! * the multi-text Myers batch vs. the scalar bit-parallel pattern
//!   kernel, over arbitrary unicode (beyond-BMP scalars included),
//!   multi-block patterns (> 64 chars), and ragged batch tails;
//! * the batched length/counting-filter screens vs. the scalar
//!   per-candidate bound formulas, for all 7 character measures;
//! * the lane-parallel dense kernels (dot, cosine, Euclidean, the
//!   guarded similarity wrapper) vs. the scalar `DenseVector` geometry,
//!   plus the operand-order symmetry the WMD row tables rely on, and
//!   the interleaved block kernel that fills those tables;
//! * whole graphs: for all 7 character measures, the three semantic
//!   measures (cosine, Euclidean, Word Mover's) and both token-vector
//!   cosines, dense and top-k builds equal the brute-force scalar oracle
//!   (`oracle/mod.rs`: every pair scored by the public per-pair measure)
//!   bit for bit — over both candidate sources (the branch's own
//!   enumeration and its candidate index), and on right sides wide
//!   enough to fill whole lanes as well as ragged tails.

mod oracle;

use er_datasets::{EntityCollection, EntityProfile};
use er_embed::{lanes as embed_lanes, DenseVector, EmbeddingModel, SemanticMeasure};
use er_pipeline::{
    build_graph_over, build_graph_topk, CandidateMode, PipelineConfig, SemanticScope,
    SimilarityFunction,
};
use er_textsim::lanes::{
    bag_upper_bounds_from_common, length_upper_bounds, sorted_common_counts, MyersBatch, LANE_WIDTH,
};
use er_textsim::{
    sorted_common_count, CharMeasure, MyersPattern, NGramScheme, SchemaBasedMeasure, VectorMeasure,
};
use proptest::prelude::*;

/// An alphabet that spans ASCII, Latin-1, BMP CJK, and beyond-BMP
/// scalars (𝄞 U+1D11E, 😀 U+1F600) — the char kernels operate on
/// unicode scalar values, so supplementary-plane chars must round-trip
/// exactly like ASCII.
const ALPHABET: [char; 10] = ['a', 'b', 'c', 'é', 'ß', 'Ω', '漢', 'か', '𝄞', '😀'];

/// Strings of 0..=max chars from [`ALPHABET`]; `max > 64` forces
/// multi-block Myers patterns with inter-block carries.
fn arb_text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(ALPHABET.to_vec()), 0..=max)
        .prop_map(|cs| cs.into_iter().collect())
}

fn codes(s: &str) -> Vec<u32> {
    s.chars().map(u32::from).collect()
}

fn sorted_bag(s: &str) -> Vec<u32> {
    let mut bag = codes(s);
    bag.sort_unstable();
    bag
}

/// Collections whose "name" values come from the unicode alphabet —
/// small enough for dense reference builds, adversarial enough to hit
/// multi-block patterns and supplementary-plane chars in the pipeline.
fn arb_unicode_collection(max_entities: usize) -> impl Strategy<Value = EntityCollection> {
    collection_of(arb_text(70), max_entities)
}

/// [`arb_unicode_collection`] with spaces between the characters, so
/// values split into short tokens that the two sides share — enough
/// token-vector candidates per row to reach the postings walks.
fn arb_tokenized_collection(max_entities: usize) -> impl Strategy<Value = EntityCollection> {
    let alphabet: Vec<char> = ALPHABET.iter().copied().chain([' ', ' ', ' ']).collect();
    let text = proptest::collection::vec(proptest::sample::select(alphabet), 0..=70)
        .prop_map(|cs| cs.into_iter().collect::<String>());
    collection_of(text, max_entities)
}

fn collection_of(
    text: impl Strategy<Value = String>,
    max_entities: usize,
) -> impl Strategy<Value = EntityCollection> {
    proptest::collection::vec(text, 1..=max_entities).prop_map(|names| EntityCollection {
        profiles: names
            .into_iter()
            .enumerate()
            .map(|(i, name)| EntityProfile::new(i as u32, vec![("name".to_string(), name)]))
            .collect(),
        attribute_names: vec!["name".into()],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The multi-text Myers batch returns exactly the scalar kernel's
    /// distances for every lane — any pattern length (0, 1..64, and
    /// multi-block > 64), any text lengths (ragged tails), any unicode.
    #[test]
    fn myers_batch_matches_scalar_pattern(
        pattern in arb_text(100),
        texts in proptest::collection::vec(arb_text(100), 1..=LANE_WIDTH),
    ) {
        let pattern = codes(&pattern);
        let text_codes: Vec<Vec<u32>> = texts.iter().map(|t| codes(t)).collect();
        let refs: Vec<&[u32]> = text_codes.iter().map(Vec::as_slice).collect();
        let mut batch = MyersBatch::new();
        batch.prepare(&pattern);
        let mut got = [0usize; LANE_WIDTH];
        batch.distances(&refs, &mut got);
        let mut scalar = MyersPattern::new();
        scalar.prepare(&pattern);
        for (l, t) in text_codes.iter().enumerate() {
            prop_assert_eq!(
                got[l],
                scalar.distance(t),
                "lane {} of {} (pattern {} chars, text {} chars)",
                l,
                refs.len(),
                pattern.len(),
                t.len()
            );
        }
    }

    /// The batched length and counting-filter screens compute the same
    /// `f64` bits as the scalar per-candidate bound calls, for all 7
    /// character measures (q-grams' missing bag bound maps to +∞, which
    /// never prunes — the scalar `None` behaviour).
    #[test]
    fn bound_screens_match_scalar_bits(
        a in arb_text(80),
        bs in proptest::collection::vec(arb_text(80), 1..=LANE_WIDTH),
    ) {
        let bag_a = sorted_bag(&a);
        let bags: Vec<Vec<u32>> = bs.iter().map(|b| sorted_bag(b)).collect();
        let refs: Vec<&[u32]> = bags.iter().map(Vec::as_slice).collect();
        let lens: Vec<usize> = bags.iter().map(Vec::len).collect();
        let la = bag_a.len();
        let mut commons = [0usize; LANE_WIDTH];
        sorted_common_counts(&bag_a, &refs, &mut commons[..refs.len()]);
        for (l, bag_b) in bags.iter().enumerate() {
            prop_assert_eq!(commons[l], sorted_common_count(&bag_a, bag_b));
        }
        for m in CharMeasure::all() {
            let mut len_ub = [0.0f64; LANE_WIDTH];
            length_upper_bounds(m, la, &lens, &mut len_ub[..lens.len()]);
            let mut bag_ub = [0.0f64; LANE_WIDTH];
            bag_upper_bounds_from_common(
                m,
                &commons[..lens.len()],
                la,
                &lens,
                &mut bag_ub[..lens.len()],
            );
            for (l, bag_b) in bags.iter().enumerate() {
                prop_assert_eq!(
                    len_ub[l].to_bits(),
                    m.length_upper_bound(la, lens[l]).to_bits(),
                    "{:?} length bound lane {}",
                    m,
                    l
                );
                match m.bag_upper_bound(&bag_a, bag_b) {
                    Some(ub) => prop_assert_eq!(
                        bag_ub[l].to_bits(),
                        ub.to_bits(),
                        "{:?} bag bound lane {}",
                        m,
                        l
                    ),
                    None => prop_assert_eq!(bag_ub[l], f64::INFINITY),
                }
            }
        }
    }

    /// The lane-parallel dense kernels equal the scalar `DenseVector`
    /// geometry bit for bit — including zero vectors (the guarded
    /// similarity wrapper) and ragged batches. Also pins the symmetry
    /// `‖a − b‖ ≡ ‖b − a‖` at the bit level: a WMD row table holds
    /// `d(row token, right token)` while the measure's directed sums
    /// read it in both directions, and this is why one table serves both.
    #[test]
    fn dense_lane_kernels_match_scalar_bits(
        a in proptest::collection::vec(-1000.0f32..1000.0, 5),
        bs in proptest::collection::vec(
            (0usize..6, proptest::collection::vec(-1000.0f32..1000.0, 5)),
            1..=embed_lanes::LANE_WIDTH,
        ),
    ) {
        let a = DenseVector(a);
        // Selector 0 swaps in a zero vector (~1 lane in 6), exercising
        // the guarded similarity wrapper's zero cases.
        let bs: Vec<DenseVector> = bs
            .into_iter()
            .map(|(z, v)| if z == 0 { DenseVector::zeros(5) } else { DenseVector(v) })
            .collect();
        let refs: Vec<&DenseVector> = bs.iter().collect();
        let mut out = [0.0f64; embed_lanes::LANE_WIDTH];
        embed_lanes::dot_batch(&a, &refs, &mut out);
        for (l, b) in bs.iter().enumerate() {
            prop_assert_eq!(out[l].to_bits(), a.dot(b).to_bits(), "dot lane {}", l);
        }
        embed_lanes::cosine_batch(&a, &refs, &mut out);
        for (l, b) in bs.iter().enumerate() {
            prop_assert_eq!(out[l].to_bits(), a.cosine(b).to_bits(), "cosine lane {}", l);
        }
        embed_lanes::euclidean_distance_batch(&a, &refs, &mut out);
        for (l, b) in bs.iter().enumerate() {
            prop_assert_eq!(
                out[l].to_bits(),
                a.euclidean_distance(b).to_bits(),
                "distance lane {}",
                l
            );
            prop_assert_eq!(
                a.euclidean_distance(b).to_bits(),
                b.euclidean_distance(&a).to_bits(),
                "operand-order symmetry lane {}",
                l
            );
        }
        for m in [SemanticMeasure::Cosine, SemanticMeasure::Euclidean] {
            embed_lanes::similarity_vectors_batch(m, &a, &refs, &mut out);
            for (l, b) in bs.iter().enumerate() {
                prop_assert_eq!(
                    out[l].to_bits(),
                    m.similarity_vectors(&a, b).to_bits(),
                    "{} lane {}",
                    m.name(),
                    l
                );
            }
        }
    }
}

proptest! {
    /// The interleaved block kernel that fills WMD row tables equals the
    /// scalar distance bit for bit in every lane of every block —
    /// ragged final blocks and zero vectors included.
    #[test]
    fn interleaved_block_kernel_matches_scalar_bits(
        dim in 1usize..12,
        seeds in proptest::collection::vec((0usize..6, -1000.0f32..1000.0), 1..=3 * embed_lanes::LANE_WIDTH),
        probe in proptest::collection::vec(-1000.0f32..1000.0, 12),
    ) {
        // Vector i: a zero vector for selector 0, else a ramp off its seed.
        let vectors: Vec<DenseVector> = seeds
            .iter()
            .map(|&(z, x)| {
                if z == 0 {
                    DenseVector::zeros(dim)
                } else {
                    DenseVector((0..dim).map(|k| x * (k as f32 + 0.5) - z as f32).collect())
                }
            })
            .collect();
        let a = DenseVector(probe[..dim].to_vec());
        let blocks = embed_lanes::InterleavedBlocks::new(dim, vectors.iter());
        let mut out = [0.0f64; embed_lanes::LANE_WIDTH];
        for b in 0..blocks.n_blocks() {
            blocks.euclidean_distances(&a, b, &mut out);
            for (l, v) in vectors.iter().enumerate().skip(b * embed_lanes::LANE_WIDTH).take(embed_lanes::LANE_WIDTH) {
                prop_assert_eq!(
                    out[l % embed_lanes::LANE_WIDTH].to_bits(),
                    a.euclidean_distance(v).to_bits(),
                    "block {} lane {}",
                    b,
                    l
                );
            }
        }
    }
}

proptest! {
    // Whole-graph equivalence scores every pair per measure, so fewer,
    // larger cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end: for all 7 character measures, the three semantic
    /// measures and both token-vector cosines, the dense build and the
    /// pruned top-k build (both candidate modes) equal the brute-force
    /// scalar oracle bit for bit. The unicode collections include
    /// > 64-char values (multi-block Myers) and supplementary-plane
    /// chars; right-side counts indivisible by the lane width exercise
    /// ragged tails through every chunked path. A second pair of
    /// space-separated collections, with up to 12 right entities, runs
    /// whole 8-wide lanes through the same comparisons and shares tokens
    /// across sides.
    #[test]
    fn lane_builds_match_the_scalar_oracle(
        left in arb_unicode_collection(5),
        right in arb_unicode_collection(7),
        tokenized_left in arb_tokenized_collection(5),
        tokenized_right in arb_tokenized_collection(12),
        k in 1usize..=2,
    ) {
        let cfg = PipelineConfig { threads: 1 };
        let inputs = [(&left, &right), (&tokenized_left, &tokenized_right)];
        let mut functions: Vec<SimilarityFunction> = CharMeasure::all()
            .into_iter()
            .map(|m| SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(m),
            })
            .collect();
        for measure in [
            SemanticMeasure::Cosine,
            SemanticMeasure::Euclidean,
            SemanticMeasure::WordMovers,
        ] {
            functions.push(SimilarityFunction::Semantic {
                model: EmbeddingModel::FastText,
                measure,
                scope: SemanticScope::SchemaAgnostic,
            });
        }
        // Token-vector cosine: the weighted-postings dot accumulator
        // must add candidate products in exactly the sorted-merge order.
        functions.push(SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        });
        functions.push(SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Char(3),
            measure: VectorMeasure::CosineTf,
        });
        for function in functions {
            let name = function.name();
            for (input, &(left, right)) in inputs.iter().enumerate() {
                prop_assert_eq!(
                    oracle::edge_bits(&build_graph_over(left, right, &function, &cfg)),
                    oracle::dense(left, right, &function),
                    "{} dense input={}",
                    name,
                    input
                );
                let want = oracle::topk(left, right, &function, k);
                for mode in [CandidateMode::Enumerated, CandidateMode::Indexed] {
                    let (g, _, _) = build_graph_topk(left, right, &function, k, mode, &cfg);
                    prop_assert_eq!(
                        oracle::edge_bits(&g),
                        want.clone(),
                        "{} topk k={} mode={:?} input={}",
                        name,
                        k,
                        mode,
                        input
                    );
                }
            }
        }
    }
}
