//! Property tests for the similarity measures: bounds, symmetry,
//! reflexivity and tokenization invariants over random ASCII-ish strings —
//! plus the **candidate-index filter kernels** (probe-plan suffix bounds,
//! length buckets, counting filters) behind index-driven generation:
//! none of them may ever drop a pair whose true similarity meets the
//! admission bound — and the interned term arena's join and probe plans,
//! which must keep the per-pair vector measures' bits.

use er_core::delta::Side;
use er_textsim::vector::term_id;
use er_textsim::{
    char_ngrams, levenshtein_distance_classic, normalize_text, osa_bounded, sorted_common_count,
    token_ngrams, BandRows, CharMeasure, CharScratch, CharTable, DenseProbe, DfIndex,
    GraphSimilarity, LengthBucketIndex, MyersBatch, MyersPattern, NGramGraph, NGramScheme,
    SchemaBasedMeasure, SparseVector, TermVocab, TermWeighting, VectorMeasure, VectorModel,
};
use proptest::prelude::*;

fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9 ]{0,24}").expect("valid regex")
}

/// A small repeat-heavy alphabet with multi-byte and supplementary-plane
/// characters, so edit distances are interesting and `char`-level
/// handling (not byte-level) is exercised.
const UNI_ALPHA: [char; 10] = ['a', 'b', 'c', 'd', ' ', '-', 'é', 'ß', '漢', '𝄞'];

/// Arbitrary unicode strings up to `max` scalars — beyond 64 to force
/// multi-block bit-parallel patterns.
fn arb_unicode(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..UNI_ALPHA.len(), 0..=max)
        .prop_map(|ix| ix.into_iter().map(|i| UNI_ALPHA[i]).collect())
}

fn codes(s: &str) -> Vec<u32> {
    s.chars().map(u32::from).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn schema_based_measures_bounded_symmetric(a in arb_text(), b in arb_text()) {
        for m in SchemaBasedMeasure::all() {
            let s = m.similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "{} = {s} for {a:?} vs {b:?}", m.name());
            let r = m.similarity(&b, &a);
            prop_assert!((s - r).abs() < 1e-9, "{} asymmetric", m.name());
        }
    }

    #[test]
    fn schema_based_measures_reflexive(a in arb_text()) {
        for m in SchemaBasedMeasure::all() {
            let s = m.similarity(&a, &a);
            prop_assert!((s - 1.0).abs() < 1e-9, "{}({a:?},{a:?}) = {s}", m.name());
        }
    }

    /// The Myers bit-parallel kernel (single- and multi-block: strings
    /// run past 64 scalars) computes exactly the classic DP distance,
    /// both through the `&str` API and a reused prepared pattern.
    #[test]
    fn bit_parallel_levenshtein_matches_classic(
        a in arb_unicode(140),
        b in arb_unicode(140),
    ) {
        let expect = levenshtein_distance_classic(&a, &b);
        prop_assert_eq!(er_textsim::charlevel::levenshtein_distance(&a, &b), expect);
        let mut p = MyersPattern::new();
        p.prepare(&codes(&a));
        prop_assert_eq!(p.distance(&codes(&b)), expect);
        // The pattern survives reuse against a second text.
        prop_assert_eq!(p.distance(&codes(&a)), 0);
    }

    /// The banded OSA (Damerau) kernel returns the exact distance iff it
    /// is within `max_dist`, and `None` otherwise — including `max_dist`
    /// exactly at, one below and far beyond the true distance.
    #[test]
    fn bounded_osa_matches_classic(
        a in arb_unicode(60),
        b in arb_unicode(60),
        max_dist in 0usize..=30,
    ) {
        let d = er_textsim::charlevel::damerau_levenshtein_distance(&a, &b);
        let mut rows = BandRows::default();
        let (ca, cb) = (codes(&a), codes(&b));
        let got = osa_bounded(&ca, &cb, max_dist, &mut rows);
        if max_dist >= d {
            prop_assert_eq!(got, Some(d));
        } else {
            prop_assert_eq!(got, None);
        }
        prop_assert_eq!(osa_bounded(&ca, &cb, d, &mut rows), Some(d));
        if d > 0 {
            prop_assert_eq!(osa_bounded(&ca, &cb, d - 1, &mut rows), None);
        }
    }

    /// The exactness contract behind prune-aware scoring: every upper
    /// bound dominates the measure's own computed similarity.
    #[test]
    fn char_upper_bounds_dominate(a in arb_unicode(40), b in arb_unicode(40)) {
        let (ca, cb) = (codes(&a), codes(&b));
        let (mut bag_a, mut bag_b) = (ca.clone(), cb.clone());
        bag_a.sort_unstable();
        bag_b.sort_unstable();
        for m in CharMeasure::all() {
            let sim = m.similarity(&a, &b);
            let len_ub = m.length_upper_bound(ca.len(), cb.len());
            prop_assert!(
                sim <= len_ub,
                "{}: length bound {len_ub} < sim {sim} for {a:?} vs {b:?}",
                m.name()
            );
            if let Some(bag_ub) = m.bag_upper_bound(&bag_a, &bag_b) {
                prop_assert!(
                    sim <= bag_ub,
                    "{}: bag bound {bag_ub} < sim {sim} for {a:?} vs {b:?}",
                    m.name()
                );
            }
        }
    }

    /// The slice kernels behind the prepared char tables are bit-identical
    /// to the `&str` API for every measure.
    #[test]
    fn codes_kernels_bit_identical_to_str(a in arb_unicode(70), b in arb_unicode(70)) {
        let (ca, cb) = (codes(&a), codes(&b));
        let mut s = CharScratch::new();
        for m in CharMeasure::all() {
            prop_assert_eq!(
                m.similarity_codes(&ca, &cb, &mut s).to_bits(),
                m.similarity(&a, &b).to_bits(),
                "{} diverges on {:?} vs {:?}",
                m.name(), &a, &b
            );
        }
    }

    #[test]
    fn ngram_counts_match_lengths(a in arb_text(), n in 1usize..5) {
        let grams = char_ngrams(&a, n);
        let len = a.chars().count();
        if len == 0 {
            prop_assert!(grams.is_empty());
        } else if len <= n {
            prop_assert_eq!(grams.len(), 1);
        } else {
            prop_assert_eq!(grams.len(), len - n + 1);
        }
        for g in &grams {
            prop_assert!(g.chars().count() <= n.max(len.min(n)));
        }
    }

    #[test]
    fn token_ngram_counts(a in arb_text(), n in 1usize..4) {
        let grams = token_ngrams(&a, n);
        let toks = a.split_whitespace().count();
        if toks == 0 {
            prop_assert!(grams.is_empty());
        } else if toks <= n {
            prop_assert_eq!(grams.len(), 1);
        } else {
            prop_assert_eq!(grams.len(), toks - n + 1);
        }
    }

    #[test]
    fn normalization_is_idempotent(a in "[\\PC]{0,32}") {
        let once = normalize_text(&a);
        let twice = normalize_text(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn vector_measures_bounded_symmetric(a in arb_text(), b in arb_text()) {
        for scheme in NGramScheme::all() {
            let model = VectorModel::new(scheme);
            let va = model.vector(&a, TermWeighting::Tf, None);
            let vb = model.vector(&b, TermWeighting::Tf, None);
            for m in [
                VectorMeasure::CosineTf,
                VectorMeasure::Jaccard,
                VectorMeasure::GeneralizedJaccardTf,
            ] {
                let s = m.similarity(&va, &vb, None);
                prop_assert!((0.0..=1.0).contains(&s), "{} = {s}", m.name());
                let r = m.similarity(&vb, &va, None);
                prop_assert!((s - r).abs() < 1e-9, "{} asymmetric", m.name());
            }
        }
    }

    #[test]
    fn vector_identity_is_one(a in "[a-z0-9 ]{1,24}") {
        prop_assume!(!a.trim().is_empty());
        let model = VectorModel::new(NGramScheme::Char(3));
        let v = model.vector(&a, TermWeighting::Tf, None);
        prop_assume!(!v.is_empty());
        for m in [
            VectorMeasure::CosineTf,
            VectorMeasure::Jaccard,
            VectorMeasure::GeneralizedJaccardTf,
        ] {
            let s = m.similarity(&v, &v, None);
            prop_assert!((s - 1.0).abs() < 1e-9, "{}(v,v) = {s}", m.name());
        }
    }

    #[test]
    fn sparse_vector_dot_is_commutative(
        pairs_a in proptest::collection::vec((0u64..50, 0.0f64..2.0), 0..20),
        pairs_b in proptest::collection::vec((0u64..50, 0.0f64..2.0), 0..20),
    ) {
        let a = SparseVector::from_pairs(pairs_a);
        let b = SparseVector::from_pairs(pairs_b);
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-9);
        prop_assert!(a.common_min_sum(&b) <= a.weight_sum() + 1e-9);
        prop_assert_eq!(a.common_terms(&b), b.common_terms(&a));
    }

    #[test]
    fn graph_similarities_bounded_symmetric(a in arb_text(), b in arb_text()) {
        for scheme in [NGramScheme::Char(3), NGramScheme::Token(1)] {
            let ga = NGramGraph::from_value(&a, scheme);
            let gb = NGramGraph::from_value(&b, scheme);
            for m in GraphSimilarity::all() {
                let s = m.similarity(&ga, &gb);
                prop_assert!((0.0..=1.0).contains(&s), "{} = {s}", m.name());
                let r = m.similarity(&gb, &ga);
                prop_assert!((s - r).abs() < 1e-9, "{} asymmetric", m.name());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Candidate-index filter kernels. These are the contracts the er-pipeline
// generators (`candidates` module) rely on for completeness: every skip
// decision an index takes is one the exact scorer would also have taken.
// ---------------------------------------------------------------------------

fn distinct_terms(v: &SparseVector) -> impl Iterator<Item = u64> + '_ {
    v.terms().iter().map(|&(t, _)| t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Prefix filter: for any candidate, the suffix bound at its *first*
    /// plan step touching a shared term dominates the true similarity.
    /// A generator that stops probing once the suffix bound falls
    /// strictly below an admission bound therefore never drops a pair
    /// whose similarity meets the bound — not-yet-discovered candidates
    /// share terms only among the remaining steps.
    #[test]
    fn probe_plan_suffix_bounds_never_drop_candidates(
        probe in arb_text(),
        cands in proptest::collection::vec(arb_text(), 1..5),
    ) {
        for scheme in [NGramScheme::Token(1), NGramScheme::Char(3)] {
            let model = VectorModel::new(scheme);
            // Mirror the scorer's DF setup: per-side indexes feed the plan
            // (and ARCS), the union index feeds TF-IDF weighting.
            let raw_probe = model.vector(&probe, TermWeighting::Tf, None);
            let raw_cands: Vec<SparseVector> = cands
                .iter()
                .map(|c| model.vector(c, TermWeighting::Tf, None))
                .collect();
            let mut df_left = DfIndex::new();
            let mut df_right = DfIndex::new();
            let mut df_union = DfIndex::new();
            df_left.add_document(distinct_terms(&raw_probe));
            df_union.add_document(distinct_terms(&raw_probe));
            for v in &raw_cands {
                df_right.add_document(distinct_terms(v));
                df_union.add_document(distinct_terms(v));
            }
            for m in VectorMeasure::all() {
                let va = model.vector(&probe, m.weighting(), Some(&df_union));
                if va.is_empty() {
                    continue; // the scorer skips zero-vector rows entirely
                }
                let plan = m.probe_plan(&va, Some((&df_left, &df_right)));
                prop_assert_eq!(plan.len(), va.terms().len());
                for i in 0..plan.len() {
                    prop_assert!(
                        plan.suffix_bound(i) >= plan.suffix_bound(i + 1),
                        "{}: suffix bounds not monotone at {i}",
                        m.name()
                    );
                }
                for text in &cands {
                    let vb = model.vector(text, m.weighting(), Some(&df_union));
                    if vb.is_empty() {
                        continue;
                    }
                    let sim = m.similarity(&va, &vb, Some((&df_left, &df_right)));
                    let first = (0..plan.len()).find(|&i| {
                        let (t, _) = va.terms()[plan.term_position(i)];
                        vb.terms().iter().any(|&(tb, _)| tb == t)
                    });
                    let step = first.unwrap_or(plan.len());
                    let bound = plan.suffix_bound(step);
                    prop_assert!(
                        sim <= bound,
                        "{}: sim {sim} > suffix bound {bound} at step {step} \
                         for {probe:?} vs {text:?}",
                        m.name()
                    );
                }
            }
        }
    }

    /// Length-bucket index: traversal covers every entry exactly once in
    /// ascending length-gap order, the counting probe reproduces the
    /// two-pointer multiset intersection bit-exactly, and the length and
    /// bag bounds derived from bucket metadata dominate the true
    /// similarity — so bucket- and member-level skips never drop an
    /// admissible pair.
    #[test]
    fn length_bucket_kernels_never_drop_admissible_pairs(
        values in proptest::collection::vec(arb_unicode(12), 0..8),
        probe in arb_unicode(12),
    ) {
        let t = CharTable::build(values.iter().map(|s| s.as_str()));
        let index = LengthBucketIndex::build((0..t.len()).map(|i| t.bag(i)));
        let pt = CharTable::build([probe.as_str()]);
        let (probe_bag, probe_len) = (pt.bag(0), pt.char_len(0));

        // Traversal order is a permutation of the buckets, sorted by gap.
        let mut order = Vec::new();
        index.bucket_order_closest_first(probe_len, &mut order);
        prop_assert_eq!(order.len(), index.n_buckets());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert!(sorted.iter().enumerate().all(|(i, &b)| b as usize == i));
        let gaps: Vec<usize> = order
            .iter()
            .map(|&b| index.bucket_char_len(b as usize).abs_diff(probe_len))
            .collect();
        prop_assert!(gaps.windows(2).all(|w| w[0] <= w[1]), "gaps {gaps:?}");

        let mut counts = Vec::new();
        let mut seen = vec![false; t.len()];
        for b in 0..index.n_buckets() {
            let bucket_len = index.bucket_char_len(b);
            index.count_common_into(b, probe_bag, &mut counts);
            for (pos, &slot) in index.bucket_members(b).iter().enumerate() {
                let slot = slot as usize;
                prop_assert!(!seen[slot], "slot {slot} indexed twice");
                seen[slot] = true;
                prop_assert_eq!(t.char_len(slot), bucket_len);
                let common = counts[pos] as usize;
                prop_assert_eq!(common, sorted_common_count(probe_bag, t.bag(slot)));
                for m in CharMeasure::all() {
                    let sim = m.similarity(&probe, &values[slot]);
                    let len_ub = m.length_upper_bound(probe_len, bucket_len);
                    prop_assert!(
                        sim <= len_ub,
                        "{}: bucket length bound {len_ub} < sim {sim}",
                        m.name()
                    );
                    let from_common =
                        m.bag_upper_bound_from_common(common, probe_len, bucket_len);
                    prop_assert_eq!(from_common.is_some(), m.has_bag_bound());
                    if let Some(ub) = from_common {
                        let per_pair = m
                            .bag_upper_bound(probe_bag, t.bag(slot))
                            .expect("bag bound availability must agree");
                        prop_assert_eq!(
                            ub.to_bits(),
                            per_pair.to_bits(),
                            "{}: probed bag bound diverges from per-pair bound",
                            m.name()
                        );
                        prop_assert!(
                            sim <= ub,
                            "{}: probed bag bound {ub} < sim {sim}",
                            m.name()
                        );
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every entry indexed exactly once");
    }
}

// ---------------------------------------------------------------------------
// Kernel-state isolation: the lane engine interleaves multi-text Myers
// batches with scalar kernel calls on the same worker thread (one
// CharScratch + one MyersBatch per worker). Nothing the batch does may
// disturb the scratch's prepared pattern or band state, and nothing the
// scalar kernels do may disturb the batch's prepared masks — a shared
// buffer would make interleaved results depend on call order.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Regression: interleaved batch and scalar calls on one thread do
    /// not corrupt each other's state. A `CharScratch` pattern prepared
    /// before a `MyersBatch` runs (with a *different* pattern) must
    /// return the same distances after the batch as before it, through
    /// every scalar kernel that shares the scratch — and the batch must
    /// return the same distances after the scalar calls as a fresh
    /// batch would.
    #[test]
    fn interleaved_batch_and_scalar_calls_do_not_corrupt_scratch(
        scalar_pattern in arb_unicode(80),
        batch_pattern in arb_unicode(80),
        texts in proptest::collection::vec(arb_unicode(80), 1..=8),
    ) {
        let sp = codes(&scalar_pattern);
        let bp = codes(&batch_pattern);
        let text_codes: Vec<Vec<u32>> = texts.iter().map(|t| codes(t)).collect();
        let refs: Vec<&[u32]> = text_codes.iter().map(Vec::as_slice).collect();

        // Reference results from isolated state.
        let mut fresh = MyersPattern::new();
        fresh.prepare(&sp);
        let scalar_ref: Vec<usize> = text_codes.iter().map(|t| fresh.distance(t)).collect();
        let mut fresh_batch = MyersBatch::new();
        fresh_batch.prepare(&bp);
        let mut batch_ref = [0usize; 8];
        fresh_batch.distances(&refs, &mut batch_ref);

        // Interleave on shared per-worker state.
        let mut scratch = CharScratch::new();
        let mut batch = MyersBatch::new();
        scratch.set_pattern(&sp);
        batch.prepare(&bp);
        for (i, t) in text_codes.iter().enumerate() {
            // Scalar kernels between batch steps: the banded kernel
            // and the non-Levenshtein measures all share the scratch.
            prop_assert_eq!(scratch.pattern_distance(t), scalar_ref[i]);
            let mut got = [0usize; 8];
            batch.distances(&refs, &mut got);
            prop_assert_eq!(&got[..refs.len()], &batch_ref[..refs.len()]);
            scratch.osa_bounded(&sp, t, 2);
            CharMeasure::Jaro.similarity_codes(&sp, t, &mut scratch);
            CharMeasure::QGrams.similarity_codes(&sp, t, &mut scratch);
            CharMeasure::DamerauLevenshtein.similarity_codes(&sp, t, &mut scratch);
            // The scratch pattern survives everything above.
            prop_assert_eq!(scratch.pattern_distance(t), scalar_ref[i]);
            let mut again = [0usize; 8];
            batch.distances(&refs, &mut again);
            prop_assert_eq!(&again[..refs.len()], &batch_ref[..refs.len()]);
        }
    }
}

// ---------------------------------------------------------------------------
// The interned term arena the construction engine scores token vectors
// from: its dense-probe join and its probe plans are the per-pair vector
// measures' bits.
// ---------------------------------------------------------------------------

/// Collection words, few enough that pairs often share terms and a term
/// held by (nearly) every document gets IDF 0, hence TF-IDF weight 0.
const WORDS: [&str; 6] = ["acme", "corp", "ltd", "blue", "x", "9"];

/// Words of rows appended after the build: two no collection text holds.
const LATE_WORDS: [&str; 3] = ["zeta", "omega", "acme"];

/// Up to four words of `words` (the empty text included).
fn arb_words(words: &'static [&'static str]) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..words.len(), 0..5)
        .prop_map(move |ix| ix.iter().map(|&i| words[i]).collect::<Vec<_>>().join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For all six measures, the arena join of a probe row scattered from
    /// either side with every row of the other side ≡
    /// `VectorMeasure::similarity` on the two rows' vectors, bit for bit;
    /// each row's weights, norm and weight sum are its vector's bits, and
    /// its arena probe plan is the vector's plan. Rows appended after the
    /// build intern their unseen terms under the frozen DF statistics, as
    /// a resident insert does. `shared == 1` puts one word in every
    /// collection text, so its IDF is 0.
    #[test]
    fn arena_join_matches_the_merge_join_bit_for_bit(
        left in proptest::collection::vec(arb_words(&WORDS), 0..5),
        right in proptest::collection::vec(arb_words(&WORDS), 0..5),
        late in proptest::collection::vec((0u8..2, arb_words(&LATE_WORDS)), 0..4),
        shared in 0u8..2,
    ) {
        let prefixed = |texts: Vec<String>| -> Vec<String> {
            texts
                .into_iter()
                .map(|t| if shared == 1 { format!("acme {t}") } else { t })
                .collect()
        };
        let collections = [prefixed(left), prefixed(right)];
        for scheme in [NGramScheme::Token(1), NGramScheme::Char(3)] {
            let model = VectorModel::new(scheme);
            // The oracle's statistics, counted over the collections only:
            // per-side DF (ARCS and the plans) and union DF (TF-IDF).
            let mut dfs = [DfIndex::new(), DfIndex::new()];
            let mut df_union = DfIndex::new();
            for (df, texts) in dfs.iter_mut().zip(&collections) {
                for text in texts {
                    let terms: Vec<u64> = model.term_frequencies(text).into_keys().collect();
                    df.add_document(terms.iter().copied());
                    df_union.add_document(terms);
                }
            }
            let stats = Some((&dfs[0], &dfs[1]));
            let tfs = |texts: &[String]| -> Vec<Vec<(u64, f64)>> {
                texts.iter().map(|t| model.sorted_term_frequencies(t)).collect()
            };
            let [l, r] = &collections;
            for m in VectorMeasure::all() {
                let (mut vocab, mut rows) =
                    TermVocab::build(tfs(l).into_iter().chain(tfs(r)), l.len(), m.weighting());
                let mut texts = collections.clone();
                for (on_left, text) in &late {
                    let side = if *on_left == 1 { Side::Left } else { Side::Right };
                    let tf = model.sorted_term_frequencies(text);
                    rows[side as usize].push_row(&mut vocab, &tf, m.weighting());
                    texts[side as usize].push(text.clone());
                }
                let vectors = texts.map(|side| {
                    side.iter()
                        .map(|t| model.vector(t, m.weighting(), Some(&df_union)))
                        .collect::<Vec<_>>()
                });
                let mut probe = DenseProbe::new();
                for side in [Side::Left, Side::Right] {
                    let other = side.opposite() as usize;
                    for (p, pv) in vectors[side as usize].iter().enumerate() {
                        let row = rows[side as usize].row(p);
                        let weight_bits: Vec<u64> = pv.terms().iter().map(|&(_, w)| w.to_bits()).collect();
                        let row_bits: Vec<u64> = row.weights().iter().map(|w| w.to_bits()).collect();
                        prop_assert_eq!(row_bits, weight_bits);
                        prop_assert_eq!(row.norm().to_bits(), pv.norm().to_bits());
                        prop_assert_eq!(row.weight_sum().to_bits(), pv.weight_sum().to_bits());
                        let (want, got) = (m.probe_plan(pv, stats), m.arena_probe_plan(row, &vocab));
                        prop_assert_eq!(got.len(), want.len());
                        for i in 0..want.len() {
                            prop_assert_eq!(got.term_position(i), want.term_position(i));
                        }
                        for i in 0..=want.len() {
                            prop_assert_eq!(got.suffix_bound(i).to_bits(), want.suffix_bound(i).to_bits());
                        }
                        probe.scatter(side, row, vocab.len());
                        for (c, cv) in vectors[other].iter().enumerate() {
                            let (a, b) = match side {
                                Side::Left => (pv, cv),
                                Side::Right => (cv, pv),
                            };
                            let want = m.similarity(a, b, stats);
                            let got = probe.similarity(m, rows[other].row(c), &vocab);
                            prop_assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{} {:?} probe {} vs {}: {} != {}",
                                m.name(), side, p, c, got, want
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Texts over letters of every UTF-8 width, a scalar whose lowercase
/// changes length (`İ`), punctuation and whitespace of several kinds and
/// widths (space, tab, newline, U+0085, U+3000), so texts with runs of
/// spaces, leading and trailing whitespace, tokens joined by other
/// whitespace, fewer chars or tokens than `n`, and empty texts all occur.
fn arb_spaced_text() -> impl Strategy<Value = String> {
    let alphabet = vec![
        'a', 'b', 'é', '漢', '🦀', 'İ', '-', ' ', ' ', ' ', '\t', '\n', '\u{85}', '\u{3000}',
    ];
    proptest::collection::vec(proptest::sample::select(alphabet), 0..24)
        .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For all six schemes, the TF list hashed straight from the text ≡
    /// the TF list of `extract`'s `String`s, bit for bit, and the n-grams
    /// the walk hashes are `extract`'s.
    #[test]
    fn text_walk_tf_matches_the_extracted_ngrams_tf(text in arb_spaced_text()) {
        for scheme in NGramScheme::all() {
            let grams = scheme.extract(&text);
            let mut walked = Vec::new();
            scheme.for_each_ngram(&text, |g| walked.push(g.to_string()));
            prop_assert_eq!(&walked, &grams, "{:?} of {:?}", scheme, text);
            let mut counts = std::collections::BTreeMap::<u64, f64>::new();
            for g in &grams {
                *counts.entry(term_id(g)).or_insert(0.0) += 1.0;
            }
            let want: Vec<(u64, u64)> = counts
                .into_iter()
                .map(|(t, c)| (t, (c / grams.len() as f64).to_bits()))
                .collect();
            let got: Vec<(u64, u64)> = VectorModel::new(scheme)
                .sorted_term_frequencies(&text)
                .into_iter()
                .map(|(t, w)| (t, w.to_bits()))
                .collect();
            prop_assert_eq!(got, want, "{:?} of {:?}", scheme, text);
        }
    }
}
