//! Interned character tables for prepared all-pairs scoring.
//!
//! The character-level scorers compare the *same* attribute values
//! against each other `n₁ × n₂` times; decoding a value's `char`s per
//! pair (the old `Vec<char>`-per-call shape) re-did the same UTF-8 walk
//! and allocation hundreds of millions of times at paper scale. A
//! [`CharTable`] decodes every value **once** in the prepare phase into
//! one contiguous `u32` scalar-value slab (plus per-value sorted
//! character bags for the counting-filter upper bounds of
//! [`CharMeasure`](crate::CharMeasure)) and hands out borrowed slices —
//! the score phase allocates nothing and shares the table read-only
//! across workers.

/// Interned character data of a sequence of attribute values: per value
/// a `&[u32]` of Unicode scalar values in order, and the same scalars
/// sorted ascending (a multiset "bag") for order-free bounds.
///
/// ```
/// use er_textsim::{sorted_common_count, CharTable};
///
/// let t = CharTable::build(["cab", "bad", ""]);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.codes(0), &"cab".chars().map(u32::from).collect::<Vec<_>>()[..]);
/// assert_eq!(t.bag(0), &"abc".chars().map(u32::from).collect::<Vec<_>>()[..]);
/// assert!(t.codes(2).is_empty());
/// // "cab" and "bad" share {a, b}.
/// assert_eq!(sorted_common_count(t.bag(0), t.bag(1)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CharTable {
    /// Scalar values of every entry, concatenated.
    codes: Vec<u32>,
    /// The same scalar values, sorted ascending within each entry.
    bags: Vec<u32>,
    /// Entry boundaries into `codes` / `bags` (`n + 1` fenceposts).
    offsets: Vec<u32>,
}

impl CharTable {
    /// Intern `values` in order. Total character count must fit `u32`
    /// (4 billion scalars — far beyond any collection this crate
    /// handles in one table).
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(values: I) -> Self {
        let mut codes: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        for v in values {
            codes.extend(v.chars().map(u32::from));
            let end = u32::try_from(codes.len()).expect("char table exceeds u32 offsets");
            offsets.push(end);
        }
        let mut bags = codes.clone();
        for w in offsets.windows(2) {
            bags[w[0] as usize..w[1] as usize].sort_unstable();
        }
        CharTable {
            codes,
            bags,
            offsets,
        }
    }

    /// Intern one more value as entry [`len`](Self::len) — how a
    /// resident table grows with inserted records.
    ///
    /// ```
    /// # use er_textsim::CharTable;
    /// let mut t = CharTable::build(["ab"]);
    /// t.push("cba");
    /// assert_eq!(t.len(), 2);
    /// assert_eq!(t.bag(1), &"abc".chars().map(u32::from).collect::<Vec<_>>()[..]);
    /// ```
    pub fn push(&mut self, value: &str) {
        let start = self.codes.len();
        self.codes.extend(value.chars().map(u32::from));
        let end = u32::try_from(self.codes.len()).expect("char table exceeds u32 offsets");
        self.bags.extend_from_slice(&self.codes[start..]);
        self.bags[start..].sort_unstable();
        self.offsets.push(end);
    }

    /// Number of interned values.
    ///
    /// ```
    /// # use er_textsim::CharTable;
    /// assert_eq!(CharTable::build(["a", "b"]).len(), 2);
    /// ```
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table holds no values.
    ///
    /// ```
    /// # use er_textsim::CharTable;
    /// assert!(CharTable::build([]).is_empty());
    /// ```
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i`'s scalar values in text order.
    #[inline]
    pub fn codes(&self, i: usize) -> &[u32] {
        &self.codes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Entry `i`'s scalar values sorted ascending (its character bag).
    #[inline]
    pub fn bag(&self, i: usize) -> &[u32] {
        &self.bags[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Entry `i`'s length in scalar values (what `str::chars().count()`
    /// re-computed per pair before the table existed).
    #[inline]
    pub fn char_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }
}

/// Size of the multiset intersection of two ascending-sorted slices —
/// the shared-character count behind the counting-filter bounds
/// (`O(|a| + |b|)` two-pointer merge).
///
/// ```
/// use er_textsim::sorted_common_count;
///
/// assert_eq!(sorted_common_count(&[1, 2, 2, 5], &[2, 2, 2, 6]), 2);
/// assert_eq!(sorted_common_count(&[], &[1]), 0);
/// ```
pub fn sorted_common_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut common) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_values() {
        let values = ["hello", "", "漢字テスト", "aba"];
        let t = CharTable::build(values);
        assert_eq!(t.len(), 4);
        for (i, v) in values.iter().enumerate() {
            let expect: Vec<u32> = v.chars().map(u32::from).collect();
            assert_eq!(t.codes(i), &expect[..], "entry {i}");
            assert_eq!(t.char_len(i), expect.len());
            let mut sorted = expect;
            sorted.sort_unstable();
            assert_eq!(t.bag(i), &sorted[..], "bag {i}");
        }
    }

    #[test]
    fn pushed_entries_equal_built_ones() {
        let values = ["hello", "", "漢字テスト", "aba"];
        let mut t = CharTable::build(values[..1].iter().copied());
        for v in &values[1..] {
            t.push(v);
        }
        let built = CharTable::build(values);
        for i in 0..values.len() {
            assert_eq!(t.codes(i), built.codes(i), "entry {i}");
            assert_eq!(t.bag(i), built.bag(i), "bag {i}");
        }
    }

    #[test]
    fn common_count_is_multiset_intersection() {
        let t = CharTable::build(["aabc", "abbc", "xyz"]);
        assert_eq!(sorted_common_count(t.bag(0), t.bag(1)), 3); // a, b, c
        assert_eq!(sorted_common_count(t.bag(0), t.bag(2)), 0);
        assert_eq!(sorted_common_count(t.bag(0), t.bag(0)), 4);
    }
}
