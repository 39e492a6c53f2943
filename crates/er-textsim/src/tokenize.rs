//! Text normalization, tokenization and n-gram extraction.
//!
//! Every representation model starts from the same preprocessing:
//! lowercasing and whitespace/punctuation token splitting, as is standard in
//! the ER toolkits the paper builds on (JedAI / Simmetrics).

use serde::{Deserialize, Serialize};

/// Lowercase and collapse runs of whitespace/punctuation into single spaces.
///
/// Keeps alphanumerics (any script) and intra-token characters; everything
/// else becomes a separator.
pub fn normalize_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_was_space = true;
    for c in s.chars() {
        if c.is_alphanumeric() {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            last_was_space = false;
        } else if !last_was_space {
            out.push(' ');
            last_was_space = true;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Whitespace tokens of a (raw or normalized) string.
pub fn tokens(s: &str) -> Vec<&str> {
    s.split_whitespace().collect()
}

/// Character n-grams of `s` as they appear (no padding): the paper's
/// "Joe Biden" has the seven 3-grams `Joe`, `oe_`, `e_B`, `_Bi`, `Bid`,
/// `ide`, `den` (spaces rendered as `_` there).
///
/// Strings shorter than `n` yield a single n-gram equal to the whole string
/// (so short values are still representable), except the empty string,
/// which yields nothing.
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= n {
        return vec![chars.iter().collect()];
    }
    (0..=chars.len() - n)
        .map(|i| chars[i..i + n].iter().collect())
        .collect()
}

/// Token n-grams of `s`: contiguous token windows joined by a single space.
/// `n = 1` is the plain token list.
pub fn token_ngrams(s: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    let toks = tokens(s);
    if toks.is_empty() {
        return Vec::new();
    }
    if toks.len() <= n {
        return vec![toks.join(" ")];
    }
    (0..=toks.len() - n)
        .map(|i| toks[i..i + n].join(" "))
        .collect()
}

/// A schema-agnostic n-gram scheme: which unit and which `n`.
///
/// The paper uses `n ∈ {2,3,4}` for character and `n ∈ {1,2,3}` for token
/// n-grams, for both the vector and the graph models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NGramScheme {
    /// Character n-grams of the given size.
    Char(usize),
    /// Token n-grams of the given size.
    Token(usize),
}

impl NGramScheme {
    /// The six schemes of the paper.
    pub fn all() -> [NGramScheme; 6] {
        [
            NGramScheme::Char(2),
            NGramScheme::Char(3),
            NGramScheme::Char(4),
            NGramScheme::Token(1),
            NGramScheme::Token(2),
            NGramScheme::Token(3),
        ]
    }

    /// Extract this scheme's n-grams from a text.
    pub fn extract(&self, s: &str) -> Vec<String> {
        match *self {
            NGramScheme::Char(n) => char_ngrams(s, n),
            NGramScheme::Token(n) => token_ngrams(s, n),
        }
    }

    /// Call `f` with each n-gram [`extract`](Self::extract) returns, in
    /// its order and with its bytes, but with no `String` per n-gram: a
    /// char n-gram is a slice of `s` cut at char boundaries, a token
    /// 1-gram is the token, and a longer token n-gram is joined by single
    /// spaces into one reused buffer.
    pub fn for_each_ngram(&self, s: &str, mut f: impl FnMut(&str)) {
        match *self {
            NGramScheme::Char(n) => {
                assert!(n > 0, "n-gram size must be positive");
                if s.is_empty() {
                    return;
                }
                let bounds = || s.char_indices().map(|(i, _)| i).chain([s.len()]);
                let mut ends = bounds().skip(n).peekable();
                if ends.peek().is_none() {
                    // Fewer than `n` chars: the whole string.
                    return f(s);
                }
                for (start, end) in bounds().zip(ends) {
                    f(&s[start..end]);
                }
            }
            NGramScheme::Token(n) => {
                assert!(n > 0, "n-gram size must be positive");
                let toks = tokens(s);
                if toks.is_empty() {
                    return;
                }
                let mut joined = String::new();
                // At most `n` tokens: one n-gram of them all.
                for w in toks.windows(n.min(toks.len())) {
                    if let [t] = w {
                        f(t);
                        continue;
                    }
                    joined.clear();
                    for (k, t) in w.iter().enumerate() {
                        if k > 0 {
                            joined.push(' ');
                        }
                        joined.push_str(t);
                    }
                    f(&joined);
                }
            }
        }
    }

    /// Short display name, e.g. `c3` or `t2`.
    pub fn short_name(&self) -> String {
        match *self {
            NGramScheme::Char(n) => format!("c{n}"),
            NGramScheme::Token(n) => format!("t{n}"),
        }
    }

    /// The window size used by the corresponding n-gram *graph* model
    /// (JInsect uses the n-gram size itself).
    pub fn window(&self) -> usize {
        match *self {
            NGramScheme::Char(n) | NGramScheme::Token(n) => n.max(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_lowercases_and_collapses() {
        assert_eq!(normalize_text("  Joe   BIDEN! "), "joe biden");
        assert_eq!(normalize_text("A-B_C"), "a b c");
        assert_eq!(normalize_text(""), "");
        assert_eq!(normalize_text("---"), "");
        assert_eq!(normalize_text("Σίσυφος 42"), "σίσυφος 42");
    }

    #[test]
    fn paper_joe_biden_char_trigrams() {
        // §4: "the set of character 3-grams {'Joe', 'oe_', 'e_B', '_Bi',
        // 'Bid', 'ide', 'den'}" — seven 3-grams.
        let grams = char_ngrams("Joe Biden", 3);
        assert_eq!(grams, vec!["Joe", "oe ", "e B", " Bi", "Bid", "ide", "den"]);
    }

    #[test]
    fn short_strings_become_single_gram() {
        assert_eq!(char_ngrams("ab", 3), vec!["ab"]);
        assert_eq!(char_ngrams("abc", 3), vec!["abc"]);
        assert!(char_ngrams("", 3).is_empty());
    }

    #[test]
    fn token_ngrams_window_over_tokens() {
        assert_eq!(
            token_ngrams("joe biden usa", 1),
            vec!["joe", "biden", "usa"]
        );
        assert_eq!(
            token_ngrams("joe biden usa", 2),
            vec!["joe biden", "biden usa"]
        );
        assert_eq!(token_ngrams("joe biden", 3), vec!["joe biden"]);
        assert!(token_ngrams("", 2).is_empty());
    }

    #[test]
    fn paper_token_bigram_example() {
        // §4: "a token 2-gram vector of 'Joe Biden' would be all zeros …
        // except for the place corresponding to the 2-gram 'Joe Biden'".
        assert_eq!(token_ngrams("Joe Biden", 2), vec!["Joe Biden"]);
    }

    #[test]
    fn scheme_roster_matches_paper() {
        let names: Vec<String> = NGramScheme::all().iter().map(|s| s.short_name()).collect();
        assert_eq!(names, vec!["c2", "c3", "c4", "t1", "t2", "t3"]);
    }

    #[test]
    fn scheme_extract_dispatches() {
        assert_eq!(NGramScheme::Char(2).extract("abc"), vec!["ab", "bc"]);
        assert_eq!(NGramScheme::Token(1).extract("a b"), vec!["a", "b"]);
    }

    #[test]
    fn unicode_ngrams_are_char_based() {
        // Multi-byte chars count as single units.
        assert_eq!(char_ngrams("αβγδ", 2), vec!["αβ", "βγ", "γδ"]);
    }
}
