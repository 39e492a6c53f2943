//! The brute-force scalar oracle for whole-graph construction.
//!
//! Every pair of profiles is scored by the public per-pair measure of
//! its taxonomy branch, kept if its score is positive, and divided by
//! the largest kept score exactly as `NormFrame::apply` does. No
//! candidate index, no bound, no lane kernel and no prepared row state
//! is involved, so a production build that equals this graph bit for
//! bit has batched, indexed and pruned its candidates without changing
//! a single weight.
//!
//! Graphs are compared as sorted `(left, right, weight bits)` lists.

#![allow(dead_code)]

use er_core::SimilarityGraph;
use er_datasets::{EntityCollection, EntityProfile};
use er_pipeline::{SemanticScope, SimilarityFunction, WMD_TOKEN_CAP};
use er_textsim::{DfIndex, VectorModel};

/// One edge as `(left, right, weight bits)`.
pub type EdgeBits = (u32, u32, u64);

/// A graph's edges as a sorted `(left, right, weight bits)` list.
pub fn edge_bits(g: &SimilarityGraph) -> Vec<EdgeBits> {
    let mut v: Vec<EdgeBits> = g
        .edges()
        .iter()
        .map(|e| (e.left, e.right, e.weight.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// Every positive raw score of `function` over `left × right`, as
/// `(left id, right id, raw score)` in row-major order.
pub fn raw_scores(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
) -> Vec<(u32, u32, f64)> {
    let mut out = Vec::new();
    let mut keep = |l: u32, r: u32, w: f64| {
        if w > 0.0 {
            out.push((l, r, w));
        }
    };
    match function {
        SimilarityFunction::SchemaBasedSyntactic { attribute, measure } => {
            for (l, lv) in attribute_values(left, attribute) {
                for (r, rv) in attribute_values(right, attribute) {
                    keep(l, r, measure.similarity(lv, rv));
                }
            }
        }
        SimilarityFunction::SchemaAgnosticVector { scheme, measure } => {
            let model = VectorModel::new(*scheme);
            let texts = |c: &EntityCollection| -> Vec<String> {
                c.profiles
                    .iter()
                    .map(EntityProfile::all_values_text)
                    .collect()
            };
            let (lt, rt) = (texts(left), texts(right));
            let (mut df_left, mut df_right, mut df_union) =
                (DfIndex::new(), DfIndex::new(), DfIndex::new());
            for (side, df) in [(&lt, &mut df_left), (&rt, &mut df_right)] {
                for t in side {
                    let terms: Vec<u64> = model.term_frequencies(t).keys().copied().collect();
                    df.add_document(terms.iter().copied());
                    df_union.add_document(terms);
                }
            }
            let vector = |t: &String| model.vector(t, measure.weighting(), Some(&df_union));
            let rv: Vec<_> = rt.iter().map(vector).collect();
            for (l, t) in lt.iter().enumerate() {
                let a = vector(t);
                for (r, b) in rv.iter().enumerate() {
                    // The branch pairs only profiles that share a term, so
                    // the measures' "two empty vectors score 1" convention
                    // never reaches a graph.
                    if !a.is_empty() && !b.is_empty() {
                        let w = measure.similarity(&a, b, Some((&df_left, &df_right)));
                        keep(l as u32, r as u32, w);
                    }
                }
            }
        }
        SimilarityFunction::SchemaAgnosticGraph { .. } => {
            panic!("no brute-force oracle for the n-gram graph models")
        }
        SimilarityFunction::Semantic {
            model,
            measure,
            scope,
        } => {
            let enc = model.encoder();
            let text = |p: &EntityProfile| match scope {
                SemanticScope::SchemaBased { attribute } => {
                    p.value(attribute).unwrap_or_default().to_string()
                }
                SemanticScope::SchemaAgnostic => p.all_values_text(),
            };
            if measure.needs_token_vectors() {
                let bag = |p: &EntityProfile| {
                    let mut tokens = enc.token_vectors(&text(p));
                    tokens.truncate(WMD_TOKEN_CAP);
                    tokens
                };
                let rb: Vec<_> = right.profiles.iter().map(bag).collect();
                for (l, p) in left.profiles.iter().enumerate() {
                    let a = bag(p);
                    for (r, b) in rb.iter().enumerate() {
                        // Only non-empty bags are paired: two empty bags
                        // would score 1 with nothing to transport.
                        if !a.is_empty() && !b.is_empty() {
                            keep(l as u32, r as u32, measure.similarity_tokens(&a, b));
                        }
                    }
                }
            } else {
                let rv: Vec<_> = right
                    .profiles
                    .iter()
                    .map(|p| enc.encode(&text(p)))
                    .collect();
                for (l, p) in left.profiles.iter().enumerate() {
                    let a = enc.encode(&text(p));
                    for (r, b) in rv.iter().enumerate() {
                        keep(l as u32, r as u32, measure.similarity_vectors(&a, b));
                    }
                }
            }
        }
    }
    out
}

/// The `(id, value)` of every profile that carries `attribute`.
fn attribute_values<'a>(
    c: &'a EntityCollection,
    attribute: &'a str,
) -> impl Iterator<Item = (u32, &'a str)> + 'a {
    c.profiles
        .iter()
        .filter_map(move |p| p.value(attribute).map(|v| (p.id, v)))
}

/// Normalize retained raw scores by their maximum, as `NormFrame::apply`
/// does (a maximum at or below `f64::EPSILON` maps every weight to 1).
fn normalized(raw: Vec<(u32, u32, f64)>) -> Vec<EdgeBits> {
    let hi = raw.iter().fold(0.0, |hi: f64, &(_, _, w)| hi.max(w));
    let mut v: Vec<EdgeBits> = raw
        .into_iter()
        .map(|(l, r, w)| {
            let w = if hi <= f64::EPSILON {
                1.0
            } else {
                (w / hi).clamp(0.0, 1.0)
            };
            (l, r, w.to_bits())
        })
        .collect();
    v.sort_unstable();
    v
}

/// The dense graph: every positive pair.
pub fn dense(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
) -> Vec<EdgeBits> {
    normalized(raw_scores(left, right, function))
}

/// The top-k graph: each left row keeps its `k` best raw scores (ties by
/// ascending right id), normalized over the kept set.
pub fn topk(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
) -> Vec<EdgeBits> {
    let mut raw = raw_scores(left, right, function);
    raw.sort_by(|a, b| a.0.cmp(&b.0).then(b.2.total_cmp(&a.2)).then(a.1.cmp(&b.1)));
    let mut kept = Vec::new();
    let mut row = (u32::MAX, 0usize);
    for e in raw {
        if row.0 != e.0 {
            row = (e.0, 0);
        }
        if row.1 < k {
            kept.push(e);
            row.1 += 1;
        }
    }
    normalized(kept)
}
