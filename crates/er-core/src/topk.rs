//! Bounded per-row top-k edge selection.
//!
//! Production-scale graphs cannot afford the dense protocol of the paper
//! (every positive-similarity pair becomes an edge): the similarity graph
//! itself dominates end-to-end memory (§6, Table 9). The practical
//! configuration keeps only the best `k` candidates per left entity, which
//! bounds the graph at `n_left × k` edges regardless of corpus density.
//!
//! [`TopKRow`] is a reusable bounded binary heap selecting the best `k`
//! `(right, weight)` candidates of **one** row, the allocation-free hot
//! path the streaming construction engine (`er-pipeline`) drives once
//! per left row.
//!
//! Selection is deterministic: candidates are ranked by **descending
//! weight**, ties broken by **ascending right id** (the workspace-wide
//! edge order of [`edge_key_desc`](crate::float::edge_key_desc) restricted
//! to one row). With `k = usize::MAX` nothing is ever evicted and the
//! retained set equals the input set.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::float::OrderedF64;

/// A candidate's rank key: greater = better (weight descending, then
/// right id ascending).
type Goodness = (OrderedF64, Reverse<u32>);

/// Heap entry wrapper: the max-heap then surfaces the *worst* survivor.
type WorstFirst = Reverse<Goodness>;

#[inline]
fn goodness(right: u32, weight: f64) -> Goodness {
    (OrderedF64(weight), Reverse(right))
}

/// A bounded binary heap keeping the best `k` candidates of one left row.
///
/// Candidates are offered one at a time; once `k` are held, a new
/// candidate displaces the current worst survivor iff it ranks strictly
/// better under `(weight desc, right asc)`. The heap never holds more
/// than `k` entries, so a full streaming pass over a row of any degree
/// peaks at `k` resident candidates.
///
/// Rights must be unique within a row (the caller's enumeration
/// guarantees it); the row can be drained and reused without
/// reallocating.
///
/// ```
/// use er_core::TopKRow;
///
/// let mut row = TopKRow::new(2);
/// row.offer(7, 0.4);
/// row.offer(3, 0.9);
/// row.offer(5, 0.4); // ties with right 7 — lower id wins
/// assert_eq!(row.len(), 2);
/// let mut kept = Vec::new();
/// row.drain_sorted_into(&mut kept);
/// assert_eq!(kept, vec![(3, 0.9), (5, 0.4)]);
/// assert!(row.is_empty(), "drained rows are reusable");
/// ```
#[derive(Debug, Clone)]
pub struct TopKRow {
    k: usize,
    heap: BinaryHeap<WorstFirst>,
}

impl TopKRow {
    /// A selector keeping the best `k` candidates (`0` keeps nothing,
    /// `usize::MAX` keeps everything).
    ///
    /// ```
    /// # use er_core::TopKRow;
    /// assert_eq!(TopKRow::new(3).k(), 3);
    /// ```
    pub fn new(k: usize) -> Self {
        TopKRow {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// The bound `k`.
    ///
    /// ```
    /// # use er_core::TopKRow;
    /// assert_eq!(TopKRow::new(usize::MAX).k(), usize::MAX);
    /// ```
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of currently retained candidates (never exceeds `k`).
    ///
    /// ```
    /// # use er_core::TopKRow;
    /// let mut row = TopKRow::new(1);
    /// row.offer(0, 0.5);
    /// row.offer(1, 0.6);
    /// assert_eq!(row.len(), 1);
    /// ```
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidates are retained.
    ///
    /// ```
    /// # use er_core::TopKRow;
    /// assert!(TopKRow::new(4).is_empty());
    /// ```
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offer one candidate; returns whether it was retained (possibly
    /// displacing a worse survivor). `right` must not repeat within the
    /// row between drains.
    ///
    /// ```
    /// # use er_core::TopKRow;
    /// let mut row = TopKRow::new(1);
    /// assert!(row.offer(4, 0.3));
    /// assert!(row.offer(2, 0.8), "better weight displaces the survivor");
    /// assert!(!row.offer(9, 0.1), "worse candidates are rejected");
    /// ```
    #[inline]
    pub fn offer(&mut self, right: u32, weight: f64) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(Reverse(goodness(right, weight)));
            return true;
        }
        let cand = goodness(right, weight);
        let worst = self.heap.peek().expect("k > 0 and heap full").0;
        if cand > worst {
            self.heap.pop();
            self.heap.push(Reverse(cand));
            true
        } else {
            false
        }
    }

    /// The weight a fresh candidate must reach to possibly be retained —
    /// the row's **admission bound**.
    ///
    /// Returns `f64::NEG_INFINITY` while the row has spare capacity
    /// (everything is admitted), the current worst retained weight once
    /// the row is full (a candidate strictly below it can never enter; a
    /// candidate *at* it can still win the ascending-right-id
    /// tie-break), and `f64::INFINITY` for `k = 0` (nothing is ever
    /// admitted).
    ///
    /// This is the hook behind bound-driven scoring: a scorer that can
    /// cheaply upper-bound a candidate's weight may skip the candidate
    /// whenever `upper_bound < admission_bound()` — the skipped offer
    /// could not have changed the heap, so the retained set stays
    /// bit-identical.
    ///
    /// ```
    /// # use er_core::TopKRow;
    /// let mut row = TopKRow::new(2);
    /// assert_eq!(row.admission_bound(), f64::NEG_INFINITY);
    /// row.offer(0, 0.9);
    /// row.offer(1, 0.4);
    /// assert_eq!(row.admission_bound(), 0.4);
    /// row.offer(2, 0.7); // evicts 0.4
    /// assert_eq!(row.admission_bound(), 0.7);
    /// assert_eq!(TopKRow::new(0).admission_bound(), f64::INFINITY);
    /// ```
    #[inline]
    pub fn admission_bound(&self) -> f64 {
        if self.k == 0 {
            return f64::INFINITY;
        }
        match self.heap.peek() {
            Some(&Reverse((worst, _))) if self.heap.len() >= self.k => worst.0,
            _ => f64::NEG_INFINITY,
        }
    }

    /// Append the retained candidates to `out` sorted by `(weight desc,
    /// right asc)` and clear the row for reuse (capacity kept).
    ///
    /// ```
    /// # use er_core::TopKRow;
    /// let mut row = TopKRow::new(8);
    /// row.offer(1, 0.2);
    /// row.offer(0, 0.7);
    /// let mut out = Vec::new();
    /// row.drain_sorted_into(&mut out);
    /// assert_eq!(out, vec![(0, 0.7), (1, 0.2)]);
    /// ```
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u32, f64)>) {
        let start = out.len();
        out.extend(self.heap.drain().map(|Reverse((w, Reverse(r)))| (r, w.0)));
        out[start..].sort_unstable_by_key(|&(r, w)| Reverse(goodness(r, w)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_keeps_best_k_with_deterministic_ties() {
        let mut row = TopKRow::new(3);
        for (r, w) in [(9, 0.5), (2, 0.5), (7, 0.9), (4, 0.5), (1, 0.2)] {
            row.offer(r, w);
        }
        let mut kept = Vec::new();
        row.drain_sorted_into(&mut kept);
        // 0.9 first; the three 0.5s tie — ascending right id, ids 2 and 4 win.
        assert_eq!(kept, vec![(7, 0.9), (2, 0.5), (4, 0.5)]);
    }

    #[test]
    fn admission_bound_tracks_worst_survivor() {
        let mut row = TopKRow::new(3);
        assert_eq!(row.admission_bound(), f64::NEG_INFINITY);
        row.offer(0, 0.5);
        row.offer(1, 0.8);
        assert_eq!(
            row.admission_bound(),
            f64::NEG_INFINITY,
            "spare capacity admits everything"
        );
        row.offer(9, 0.2);
        assert_eq!(row.admission_bound(), 0.2);
        // Equal-weight candidates can still be admitted (lower right id
        // wins the tie-break) — the bound is a strict-below filter only.
        assert!(row.offer(4, 0.2), "bound-equal, lower id: admitted");
        assert!(!row.offer(99, 0.2), "bound-equal, higher id: rejected");
        let mut kept = Vec::new();
        row.drain_sorted_into(&mut kept);
        assert_eq!(
            row.admission_bound(),
            f64::NEG_INFINITY,
            "drained rows reset"
        );
    }

    #[test]
    fn row_k_zero_keeps_nothing() {
        let mut row = TopKRow::new(0);
        assert!(!row.offer(0, 1.0));
        assert!(row.is_empty());
    }

    #[test]
    fn row_unbounded_keeps_everything() {
        let mut row = TopKRow::new(usize::MAX);
        for r in 0..100 {
            assert!(row.offer(r, (r as f64) / 100.0));
        }
        assert_eq!(row.len(), 100);
    }

    #[test]
    fn row_matches_per_row_sort_selection() {
        // Reference: sort each row's candidates by (weight desc, right asc)
        // and take the first k.
        let (n_left, n_right, k) = (6u32, 12u32, 4usize);
        let weight = |l: u32, r: u32| ((l * 7 + r * 13) % 23) as f64 / 23.0;
        let mut row = TopKRow::new(k);
        let mut got = Vec::new();
        for l in 0..n_left {
            for r in 0..n_right {
                row.offer(r, weight(l, r));
            }
            got.clear();
            row.drain_sorted_into(&mut got);
            let mut want: Vec<(u32, f64)> = (0..n_right).map(|r| (r, weight(l, r))).collect();
            want.sort_by_key(|&(r, w)| Reverse(goodness(r, w)));
            want.truncate(k);
            assert_eq!(got, want, "row {l}");
        }
    }
}
