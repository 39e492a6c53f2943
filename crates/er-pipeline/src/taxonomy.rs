//! The similarity-function taxonomy of Figure 6.

use serde::{Deserialize, Serialize};

use er_datasets::DatasetSpec;
use er_embed::{EmbeddingModel, SemanticMeasure};
use er_textsim::{GraphSimilarity, NGramScheme, SchemaBasedMeasure, VectorMeasure};

/// The four input types the paper's analysis groups by (Tables 3–9,
/// Figures 3–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WeightType {
    /// Schema-based syntactic edge weights.
    SchemaBasedSyntactic,
    /// Schema-agnostic syntactic edge weights.
    SchemaAgnosticSyntactic,
    /// Schema-based semantic edge weights.
    SchemaBasedSemantic,
    /// Schema-agnostic semantic edge weights.
    SchemaAgnosticSemantic,
}

impl WeightType {
    /// All four types, in the paper's presentation order.
    pub const ALL: [WeightType; 4] = [
        WeightType::SchemaBasedSyntactic,
        WeightType::SchemaAgnosticSyntactic,
        WeightType::SchemaBasedSemantic,
        WeightType::SchemaAgnosticSemantic,
    ];

    /// Display name as used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            WeightType::SchemaBasedSyntactic => "schema-based syntactic",
            WeightType::SchemaAgnosticSyntactic => "schema-agnostic syntactic",
            WeightType::SchemaBasedSemantic => "schema-based semantic",
            WeightType::SchemaAgnosticSemantic => "schema-agnostic semantic",
        }
    }
}

/// The scope of a semantic similarity function.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum SemanticScope {
    /// Compare one attribute's values.
    SchemaBased {
        /// The compared attribute.
        attribute: String,
    },
    /// Compare whole-profile texts.
    SchemaAgnostic,
}

/// One similarity function of the taxonomy: representation model +
/// similarity measure (+ scope).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum SimilarityFunction {
    /// A schema-based syntactic measure applied to one attribute.
    SchemaBasedSyntactic {
        /// The compared attribute.
        attribute: String,
        /// One of the 16 string measures.
        measure: SchemaBasedMeasure,
    },
    /// An n-gram **vector** model with a bag similarity.
    SchemaAgnosticVector {
        /// n-gram scheme (char 2-4 / token 1-3).
        scheme: NGramScheme,
        /// One of the 6 bag measures.
        measure: VectorMeasure,
    },
    /// An n-gram **graph** model with a graph similarity.
    SchemaAgnosticGraph {
        /// n-gram scheme (char 2-4 / token 1-3).
        scheme: NGramScheme,
        /// One of the 4 graph measures.
        measure: GraphSimilarity,
    },
    /// A semantic (embedding) function.
    Semantic {
        /// fastText-like or ALBERT-like encoder.
        model: EmbeddingModel,
        /// Cosine / Euclidean / Word Mover's.
        measure: SemanticMeasure,
        /// Schema-based (one attribute) or schema-agnostic.
        scope: SemanticScope,
    },
}

impl SimilarityFunction {
    /// Which of the four input types this function produces.
    pub fn weight_type(&self) -> WeightType {
        match self {
            SimilarityFunction::SchemaBasedSyntactic { .. } => WeightType::SchemaBasedSyntactic,
            SimilarityFunction::SchemaAgnosticVector { .. }
            | SimilarityFunction::SchemaAgnosticGraph { .. } => WeightType::SchemaAgnosticSyntactic,
            SimilarityFunction::Semantic { scope, .. } => match scope {
                SemanticScope::SchemaBased { .. } => WeightType::SchemaBasedSemantic,
                SemanticScope::SchemaAgnostic => WeightType::SchemaAgnosticSemantic,
            },
        }
    }

    /// A stable human-readable identifier, e.g.
    /// `sb-syn/title/Levenshtein` or `sa-syn/c3/CosineTF`.
    pub fn name(&self) -> String {
        match self {
            SimilarityFunction::SchemaBasedSyntactic { attribute, measure } => {
                format!("sb-syn/{attribute}/{}", measure.name())
            }
            SimilarityFunction::SchemaAgnosticVector { scheme, measure } => {
                format!("sa-syn/{}/{}", scheme.short_name(), measure.name())
            }
            SimilarityFunction::SchemaAgnosticGraph { scheme, measure } => {
                format!("sa-syn/{}g/{}", scheme.short_name(), measure.name())
            }
            SimilarityFunction::Semantic {
                model,
                measure,
                scope,
            } => match scope {
                SemanticScope::SchemaBased { attribute } => {
                    format!("sb-sem/{attribute}/{}-{}", model.name(), measure.name())
                }
                SemanticScope::SchemaAgnostic => {
                    format!("sa-sem/{}-{}", model.name(), measure.name())
                }
            },
        }
    }

    /// The full catalog of similarity functions for a dataset:
    ///
    /// * 16 schema-based syntactic measures × each focus attribute;
    /// * 36 vector + 24 graph schema-agnostic syntactic functions;
    /// * 6 schema-based semantic functions × each focus attribute;
    /// * 6 schema-agnostic semantic functions (2 models × 3 measures),
    ///   unless `include_agnostic_semantic` is false (the paper reports no
    ///   such runs for D8/D10).
    pub fn catalog(spec: &DatasetSpec, include_agnostic_semantic: bool) -> Vec<SimilarityFunction> {
        let mut out = Vec::new();
        // Schema-based syntactic: 16 per focus attribute.
        for attr in &spec.focus_attributes {
            for measure in SchemaBasedMeasure::all() {
                out.push(SimilarityFunction::SchemaBasedSyntactic {
                    attribute: attr.to_string(),
                    measure,
                });
            }
        }
        // Schema-agnostic syntactic: 6 schemes × (6 vector + 4 graph) = 60.
        for scheme in NGramScheme::all() {
            for measure in VectorMeasure::all() {
                out.push(SimilarityFunction::SchemaAgnosticVector { scheme, measure });
            }
            for measure in GraphSimilarity::all() {
                out.push(SimilarityFunction::SchemaAgnosticGraph { scheme, measure });
            }
        }
        // Semantic.
        for model in EmbeddingModel::all() {
            for measure in SemanticMeasure::all() {
                for attr in &spec.focus_attributes {
                    out.push(SimilarityFunction::Semantic {
                        model,
                        measure,
                        scope: SemanticScope::SchemaBased {
                            attribute: attr.to_string(),
                        },
                    });
                }
                if include_agnostic_semantic {
                    out.push(SimilarityFunction::Semantic {
                        model,
                        measure,
                        scope: SemanticScope::SchemaAgnostic,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{DatasetId, DatasetSpec};

    #[test]
    fn catalog_counts_match_the_paper() {
        // D2 has one focus attribute ("name"): 16 + 60 + 6 + 6 = 88.
        let d2 = DatasetSpec::of(DatasetId::D2);
        let cat = SimilarityFunction::catalog(&d2, true);
        assert_eq!(cat.len(), 16 + 60 + 6 + 6);
        // D4 has two focus attributes: 32 + 60 + 12 + 6 = 110.
        let d4 = DatasetSpec::of(DatasetId::D4);
        let cat = SimilarityFunction::catalog(&d4, true);
        assert_eq!(cat.len(), 32 + 60 + 12 + 6);
        // Without agnostic semantic (D8/D10 policy): 6 fewer.
        let cat = SimilarityFunction::catalog(&d4, false);
        assert_eq!(cat.len(), 32 + 60 + 12);
    }

    #[test]
    fn schema_agnostic_syntactic_is_sixty() {
        let d2 = DatasetSpec::of(DatasetId::D2);
        let n = SimilarityFunction::catalog(&d2, true)
            .into_iter()
            .filter(|f| f.weight_type() == WeightType::SchemaAgnosticSyntactic)
            .count();
        assert_eq!(n, 60, "36 vector + 24 graph functions");
    }

    #[test]
    fn names_are_unique_and_stable() {
        let d4 = DatasetSpec::of(DatasetId::D4);
        let cat = SimilarityFunction::catalog(&d4, true);
        let mut names: Vec<String> = cat.iter().map(|f| f.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "function names must be unique");
        assert!(names.iter().any(|n| n == "sb-syn/title/Levenshtein"));
        assert!(names.iter().any(|n| n == "sa-syn/c3/CosineTF"));
        assert!(names.iter().any(|n| n == "sa-sem/fastText-Cosine"));
    }

    #[test]
    fn weight_type_properties() {
        assert_eq!(WeightType::ALL.len(), 4);
    }
}
