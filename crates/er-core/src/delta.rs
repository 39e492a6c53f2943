//! Row-granular graph deltas: insert/delete of one record with its edges.
//!
//! A long-lived matching service does not rebuild its similarity graph per
//! update — records arrive (and leave) one at a time, each carrying the
//! edge list the scorer produced for it. [`RowDelta`] is that unit: one
//! insert or delete of a **left or right** record together with its edges,
//! and [`GraphDelta`] is an ordered batch of them. `CsrGraph::apply`
//! folds deltas into the resident store without rebuilding the slabs, and
//! the delta-aware matchers in `er-matchers` consume the same type to
//! repair their assignments incrementally.
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
    /// An existing record leaves; `edges` holds the edges being removed.
    Delete,
}

/// One record-level change: insert or delete of a left/right record
/// together with its edge list.
///
/// `edges` pairs the **counterpart** id with the edge weight: for a
/// left-side delta they are `(right_id, weight)`, for a right-side delta
/// `(left_id, weight)`. For deletes the list records the edges that
/// disappear with the record, as the producer read them off the resident
/// graph; the store (and the incremental matchers, which read the store)
/// re-derive them from its own rows, so a delete removes the row's real
/// edges whatever the list holds.
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

    /// A delete of left record `id`; `edges` are its `(right, weight)`
    /// edges at deletion time.
    pub fn delete_left(id: u32, edges: Vec<(u32, f64)>) -> Self {
        RowDelta {
            op: DeltaOp::Delete,
            side: Side::Left,
            id,
            edges,
        }
    }

    /// A delete of right record `id`; `edges` are its `(left, weight)`
    /// edges at deletion time.
    pub fn delete_right(id: u32, edges: Vec<(u32, f64)>) -> Self {
        RowDelta {
            op: DeltaOp::Delete,
            side: Side::Right,
            id,
            edges,
        }
    }
}

/// An ordered batch of row deltas, applied first-to-last.
///
/// Order matters: an insert assigns the next id of its side, so a batch
/// that inserts two right records produces ids `n_right` and
/// `n_right + 1` in batch order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphDelta {
    /// The row changes, in application order.
    pub rows: Vec<RowDelta>,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Append one row change.
    pub fn push(&mut self, row: RowDelta) {
        self.rows.push(row);
    }

    /// Number of row changes in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate the row changes in application order.
    pub fn iter(&self) -> impl Iterator<Item = &RowDelta> {
        self.rows.iter()
    }
}

impl From<RowDelta> for GraphDelta {
    fn from(row: RowDelta) -> Self {
        GraphDelta { rows: vec![row] }
    }
}

impl FromIterator<RowDelta> for GraphDelta {
    fn from_iter<I: IntoIterator<Item = RowDelta>>(iter: I) -> Self {
        GraphDelta {
            rows: iter.into_iter().collect(),
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
        let d = RowDelta::delete_right(7, vec![]);
        assert_eq!((d.op, d.side, d.id), (DeltaOp::Delete, Side::Right, 7));
    }

    #[test]
    fn batch_collects_in_order() {
        let batch: GraphDelta = vec![
            RowDelta::insert_left(0, vec![]),
            RowDelta::delete_left(0, vec![]),
        ]
        .into_iter()
        .collect();
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.iter().count(), 2);
        let one: GraphDelta = RowDelta::insert_right(1, vec![]).into();
        assert_eq!(one.len(), 1);
        assert!(GraphDelta::new().is_empty());
    }
}
