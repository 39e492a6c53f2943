#![warn(missing_docs)]

//! # er-core — bipartite similarity graph substrate for Clean-Clean ER
//!
//! Core data structures shared by every crate in the workspace:
//!
//! * [`SimilarityGraph`] — a weighted bipartite graph `G = (V1, V2, E)` whose
//!   edge weights are similarity scores in `[0, 1]` between entity profiles of
//!   two *clean* (duplicate-free) collections.
//! * [`Adjacency`] — a CSR-style per-node adjacency view over a graph, built
//!   once and shared by the matching algorithms.
//! * [`CsrGraph`] — a compressed-sparse-row edge *store* (`u32` column ids,
//!   weights in a parallel `f64` slab, `O(log d)` pair lookups) for
//!   million-pair pruned graphs, convertible to/from [`SimilarityGraph`].
//! * [`store`] — the columnar on-disk twin of [`CsrGraph`]: a versioned,
//!   checksummed little-endian slab format written by a streaming
//!   [`SlabWriter`] and read back through the file-backed [`MappedCsr`]
//!   view without materializing the slabs in RAM.
//! * [`TopKRow`] — bounded per-row best-`k` edge selection, so pruned
//!   graphs can be built without ever materializing the dense edge set.
//! * [`par`] — the one scoped work pool every parallel fan-out runs on:
//!   indexes claimed from an atomic cursor, results in index order.
//! * [`Matching`] — the output of a bipartite graph matching algorithm: a set
//!   of (left, right) entity pairs respecting the unique-mapping constraint.
//! * [`GroundTruth`] — the known duplicate pairs used for evaluation.
//! * Utilities: min-max [`normalize`]-ation, a [`UnionFind`] for connected
//!   components, total-order float comparison ([`float`]), a fast
//!   non-cryptographic hasher ([`hash`]), the paper's threshold grid
//!   ([`ThresholdGrid`]) and descriptive [`GraphStats`].
//!
//! The algorithms themselves live in `er-matchers`; graph *construction* from
//! entity profiles lives in `er-pipeline`.

pub mod csr;
pub mod delta;
pub mod error;
pub mod float;
pub mod graph;
pub mod ground_truth;
pub mod hash;
pub mod io;
pub mod matching;
pub mod normalize;
pub mod par;
pub mod stats;
pub mod store;
pub mod threshold;
pub mod topk;
pub mod union_find;

pub use csr::CsrGraph;
pub use delta::{DeltaOp, RowDelta, Side};
pub use error::{CoreError, Result};
pub use float::{total_cmp_desc, OrderedF64};
pub use graph::{Adjacency, Neighbor, SortedEdges};
pub use graph::{Edge, GraphBuilder, SimilarityGraph};
pub use ground_truth::GroundTruth;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use matching::Matching;
pub use normalize::min_max_normalize;
pub use stats::{ConstructionCounters, GraphStats, WeightSeparation};
pub use store::{write_csr, MappedCsr, SlabWriter, StoreError, StoreMeta};
pub use threshold::ThresholdGrid;
pub use topk::TopKRow;
pub use union_find::UnionFind;
