//! The 16 schema-based syntactic measures, unified.
//!
//! The paper applies character-level measures to short attribute values and
//! token-level measures to word-structured values; the pipeline combines
//! every measure with the selected high-coverage/high-distinctiveness
//! attributes of each dataset.

use serde::{Deserialize, Serialize};

use crate::charlevel::CharMeasure;
use crate::tokenlevel::TokenMeasure;

/// One of the paper's 16 schema-based syntactic similarity measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemaBasedMeasure {
    /// A character-level measure.
    Char(CharMeasure),
    /// A token-level measure.
    Token(TokenMeasure),
}

impl SchemaBasedMeasure {
    /// All 16 measures: 7 character-level + 9 token-level.
    pub fn all() -> Vec<SchemaBasedMeasure> {
        CharMeasure::all()
            .into_iter()
            .map(SchemaBasedMeasure::Char)
            .chain(
                TokenMeasure::all()
                    .into_iter()
                    .map(SchemaBasedMeasure::Token),
            )
            .collect()
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemaBasedMeasure::Char(m) => m.name(),
            SchemaBasedMeasure::Token(m) => m.name(),
        }
    }

    /// Compute the similarity of two attribute values.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        match self {
            SchemaBasedMeasure::Char(m) => m.similarity(a, b),
            SchemaBasedMeasure::Token(m) => m.similarity(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_measures_total() {
        let all = SchemaBasedMeasure::all();
        assert_eq!(all.len(), 16);
        let chars = all
            .iter()
            .filter(|m| matches!(m, SchemaBasedMeasure::Char(_)));
        assert_eq!(chars.count(), 7);
        // Names are unique.
        let mut names: Vec<&str> = all.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn dispatch_reaches_both_families() {
        let lev = SchemaBasedMeasure::Char(CharMeasure::Levenshtein);
        assert_eq!(lev.similarity("abc", "abc"), 1.0);
        let jac = SchemaBasedMeasure::Token(TokenMeasure::Jaccard);
        assert!((jac.similarity("a b", "b c") - 1.0 / 3.0).abs() < 1e-9);
    }
}
