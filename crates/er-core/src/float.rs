//! Total-order helpers for `f64` similarity scores.
//!
//! Similarity scores are finite values in `[0, 1]`, but Rust's `f64` only
//! implements `PartialOrd`. The matching algorithms constantly sort and
//! heap-order by weight, so we provide a thin `Ord` wrapper plus comparison
//! helpers with deterministic tie-breaking.

use std::cmp::Ordering;

use crate::graph::Edge;

/// An `f64` with a total order (via `f64::total_cmp`), usable as a key in
/// sorts, heaps and B-tree maps.
///
/// Intended for *finite* similarity values; `NaN` is rejected at graph
/// construction time so the total order degenerates to the usual numeric one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrderedF64 {
    fn from(v: f64) -> Self {
        OrderedF64(v)
    }
}

impl From<OrderedF64> for f64 {
    fn from(v: OrderedF64) -> Self {
        v.0
    }
}

/// Compare two weights in *descending* order.
///
/// `sort_by(total_cmp_desc)` puts the highest similarity first.
#[inline]
pub fn total_cmp_desc(a: &f64, b: &f64) -> Ordering {
    b.total_cmp(a)
}

/// Deterministic descending comparison of `(weight, left, right)` edge keys:
/// higher weight first, then lower left id, then lower right id.
///
/// This is the tie-break rule used throughout the workspace (see DESIGN.md §6)
/// so that every algorithm except the stochastic BAH is fully deterministic.
/// Bulk sorts use the equivalent packed key [`edge_sort_key`] instead.
#[inline]
pub fn edge_key_desc(a: (f64, u32, u32), b: (f64, u32, u32)) -> Ordering {
    b.0.total_cmp(&a.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
}

/// [`edge_key_desc`] packed into one integer: comparing two keys as
/// unsigned integers orders their edges exactly as `edge_key_desc` does,
/// `-0.0`/`0.0` included.
///
/// The high 64 bits are the weight's bits mapped so that unsigned order
/// is `f64::total_cmp` order, then inverted (weight descending); below
/// them sit `left` and `right`. The key is lossless, so two edges with
/// equal keys are identical and every correct sort of a list yields the
/// same output.
///
/// ```
/// use er_core::{float::edge_sort_key, Edge};
///
/// let heavy = Edge::new(7, 7, 0.9);
/// let light = Edge::new(0, 0, 0.1);
/// assert!(edge_sort_key(&heavy) < edge_sort_key(&light));
/// assert!(edge_sort_key(&Edge::new(0, 1, 0.5)) < edge_sort_key(&Edge::new(1, 0, 0.5)));
/// ```
#[inline]
pub fn edge_sort_key(e: &Edge) -> u128 {
    (u128::from(weight_sort_key(e.weight)) << 64) | (u128::from(e.left) << 32) | u128::from(e.right)
}

/// The weight half of [`edge_sort_key`]: comparing two keys as unsigned
/// integers orders their weights as [`total_cmp_desc`] does, `-0.0`/`0.0`
/// included.
#[inline]
fn weight_sort_key(w: f64) -> u64 {
    let bits = w.to_bits();
    // Negative: flip every bit; non-negative: flip the sign bit. Unsigned
    // order is then `total_cmp` order, and `!` makes it descending.
    !(bits ^ (((bits as i64) >> 63) as u64 | 1 << 63))
}

/// The edge an [`edge_sort_key`] was packed from — the key's exact
/// inverse, weight bits included.
#[inline]
pub(crate) fn edge_from_sort_key(key: u128) -> Edge {
    let x = !((key >> 64) as u64);
    // A set top bit marks a non-negative weight (its sign bit was
    // flipped); otherwise every bit was.
    let bits = if x >> 63 == 1 { x ^ 1 << 63 } else { !x };
    Edge::new((key >> 32) as u32, key as u32, f64::from_bits(bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_f64_sorts_numerically() {
        let mut v = vec![OrderedF64(0.3), OrderedF64(0.1), OrderedF64(0.2)];
        v.sort();
        assert_eq!(v, vec![OrderedF64(0.1), OrderedF64(0.2), OrderedF64(0.3)]);
    }

    #[test]
    fn desc_comparator_puts_highest_first() {
        let mut v = vec![0.1, 0.9, 0.5];
        v.sort_by(total_cmp_desc);
        assert_eq!(v, vec![0.9, 0.5, 0.1]);
    }

    #[test]
    fn edge_key_breaks_ties_by_ids() {
        // Same weight: lower left id wins; same left: lower right id wins.
        assert_eq!(
            edge_key_desc((0.5, 1, 9), (0.5, 2, 0)),
            Ordering::Less,
            "lower left id should come first"
        );
        assert_eq!(
            edge_key_desc((0.5, 1, 3), (0.5, 1, 2)),
            Ordering::Greater,
            "lower right id should come first"
        );
        assert_eq!(edge_key_desc((0.9, 5, 5), (0.1, 0, 0)), Ordering::Less);
    }

    #[test]
    fn sort_key_order_is_edge_key_desc() {
        let weights = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            0.25,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            -1.0,
            f64::MAX,
        ];
        let ids = [0, 1, u32::MAX];
        let mut edges = Vec::new();
        for &w in &weights {
            for &l in &ids {
                for &r in &ids {
                    edges.push(Edge::new(l, r, w));
                }
            }
        }
        for a in &edges {
            for b in &edges {
                assert_eq!(
                    edge_sort_key(a).cmp(&edge_sort_key(b)),
                    edge_key_desc((a.weight, a.left, a.right), (b.weight, b.left, b.right)),
                    "{a:?} vs {b:?}"
                );
            }
        }
        // Distinct weight bits never share a key: the sign of zero counts.
        assert!(edge_sort_key(&Edge::new(0, 0, 0.0)) < edge_sort_key(&Edge::new(0, 0, -0.0)));
        // The key is lossless: it decodes back to its edge, bit for bit.
        for e in &edges {
            let back = edge_from_sort_key(edge_sort_key(e));
            assert_eq!((back.left, back.right), (e.left, e.right));
            assert_eq!(back.weight.to_bits(), e.weight.to_bits(), "{e:?}");
        }
    }

    #[test]
    fn conversions_round_trip() {
        let x: OrderedF64 = 0.25.into();
        let y: f64 = x.into();
        assert_eq!(y, 0.25);
    }
}
