//! Row-granular graph deltas: insert/delete of one record with its edges.
//!
//! A long-lived matching service does not rebuild its similarity graph per
//! update — records arrive (and leave) one at a time, each carrying the
//! edge list the scorer produced for it. [`RowDelta`] is that unit: one
//! insert of a **left or right** record with its edges, or one delete
//! naming only its record. `CsrGraph::apply` folds a delta into the
//! resident store without rebuilding the slabs (and returns the edges a
//! delete tombstoned), and the delta-aware matchers in `er-matchers`
//! consume the same type to repair their assignments incrementally.
//!
//! Id discipline: ids are **append-only and never reused**. An insert must
//! carry the next unused id of its side (`n_left` / `n_right` at apply
//! time), and a delete tombstones its id forever. This keeps every edge
//! list's ids stable across the graph's whole history, which is what lets
//! per-row edge storage stay sorted without re-indexing.

/// Which side of the bipartite graph a delta's record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The record joins/leaves the left collection `V1`.
    Left,
    /// The record joins/leaves the right collection `V2`.
    Right,
}

impl Side {
    /// The other side of the bipartition.
    ///
    /// ```
    /// use er_core::delta::Side;
    /// assert_eq!(Side::Left.opposite(), Side::Right);
    /// assert_eq!(Side::Right.opposite(), Side::Left);
    /// ```
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Whether the record is arriving or leaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// A new record with its scored edge list.
    Insert,
    /// An existing record leaves with all its edges.
    Delete,
}

/// One record-level change: insert or delete of a left/right record.
///
/// `edges` pairs the **counterpart** id with the edge weight: for a
/// left-side delta they are `(right_id, weight)`, for a right-side delta
/// `(left_id, weight)`. An insert carries the record's scored edges. A
/// delete names only its record: the store holds its edges, removes
/// them and returns them from `CsrGraph::apply`; whatever list a delete
/// carries is not read.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta {
    /// Insert or delete.
    pub op: DeltaOp,
    /// Which collection the record belongs to.
    pub side: Side,
    /// The record's id on its side.
    pub id: u32,
    /// `(counterpart id, weight)` pairs of the record's edges.
    pub edges: Vec<(u32, f64)>,
}

impl RowDelta {
    /// An insert of left record `id` with its `(right, weight)` edges.
    pub fn insert_left(id: u32, edges: Vec<(u32, f64)>) -> Self {
        RowDelta {
            op: DeltaOp::Insert,
            side: Side::Left,
            id,
            edges,
        }
    }

    /// An insert of right record `id` with its `(left, weight)` edges.
    pub fn insert_right(id: u32, edges: Vec<(u32, f64)>) -> Self {
        RowDelta {
            op: DeltaOp::Insert,
            side: Side::Right,
            id,
            edges,
        }
    }

    /// A delete of left record `id`, with an empty edge list.
    pub fn delete_left(id: u32) -> Self {
        RowDelta {
            op: DeltaOp::Delete,
            side: Side::Left,
            id,
            edges: Vec::new(),
        }
    }

    /// A delete of right record `id`, with an empty edge list.
    pub fn delete_right(id: u32) -> Self {
        RowDelta {
            op: DeltaOp::Delete,
            side: Side::Right,
            id,
            edges: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_op_and_side() {
        let d = RowDelta::insert_left(3, vec![(0, 0.5)]);
        assert_eq!((d.op, d.side, d.id), (DeltaOp::Insert, Side::Left, 3));
        let d = RowDelta::delete_right(7);
        assert_eq!((d.op, d.side, d.id), (DeltaOp::Delete, Side::Right, 7));
        assert!(d.edges.is_empty());
    }
}
