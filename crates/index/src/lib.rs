//! # sjpl-index — exact distance joins
//!
//! The paper's ground truth is the exact pair count `PC(r)` — "the count of
//! pairs within distance r or less" (Definition 1). This crate computes
//! that ground truth with four exact join engines that return bit-identical
//! counts, plus the quadratic histogram the paper measures BOPS against:
//!
//! * [`histogram`] — the quadratic pair-distance histogram: one O(N·M) pass
//!   (optionally multi-threaded) yields `PC(r)` at every radius at once.
//!   This is the paper's "PC-plot method" and the baseline for Table 5.
//! * [`kdtree`] — a bulk-built kd-tree with range counting, kNN and a
//!   dual-tree distance-join counter; the engine for high dimensions, where
//!   an axis sweep prunes nothing.
//! * [`sweep`] — a plane-sweep distance join for low dimensions, exposing
//!   the per-partition forward-sweep kernels and the [`SortedByAxis`]
//!   sort-once wrapper.
//! * [`partition`] — the partitioned *parallel* plane sweep (rank-striped
//!   slabs, boundary-band replication with dedup-by-ownership, mini-
//!   partition refinement for skew): the default exact-truth engine for
//!   the accuracy pipeline.
//! * [`join`] — one entry point over the nested-loop oracle and the three
//!   engines above, used by the agreement tests and the benchmarks.
//! * [`morton`] — the [`MortonKey`] interleaving trait behind sjpl-core's
//!   sorted-Morton BOPS engine.
//! * [`psort`] — parallel chunk-sort + merge for `Ord + Copy` arrays.
//! * [`fxhash`] — the Fx multiplicative hasher and `FxHashMap` alias for
//!   hot hash paths keyed by small integer tuples.
//!
//! Pair-count semantics follow the paper exactly: cross joins count ordered
//! `(a, b)` pairs (up to `N·M`); self joins omit self-pairs and count each
//! unordered pair once (up to `N(N−1)/2`).
//!
//! When the [`sjpl_obs`] recorder is enabled, the kd-tree joins publish
//! traversal work as `index.node_visits` / `index.pruned_pairs` /
//! `index.contained_pairs` / `index.candidate_pairs` counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod stats;

pub mod fxhash;
pub mod histogram;
pub mod join;
pub mod kdtree;
pub mod morton;
pub mod partition;
pub mod psort;
pub mod sweep;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use join::{pair_count, self_pair_count, JoinAlgorithm};
pub use kdtree::KdTree;
pub use morton::MortonKey;
pub use partition::{
    par_sweep_join_count, par_sweep_join_count_sorted, par_sweep_self_join_count,
    par_sweep_self_join_count_sorted, resolve_threads,
};
pub use psort::par_sort_unstable;
pub use sweep::SortedByAxis;
