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
//! * [`kdtree`] — a bulk-built kd-tree with range counting and a
//!   dual-tree distance-join counter; the engine for high dimensions, where
//!   an axis sweep prunes too little.
//! * [`sweep`] — a plane-sweep distance join for low dimensions, exposing
//!   the per-partition forward-sweep kernels and the [`SortedByAxis`]
//!   sort-once wrapper.
//! * [`partition`] — the partitioned *parallel* plane sweep (rank-striped
//!   slabs, boundary-band replication with dedup-by-ownership, an axis-1
//!   strip sweep inside each slab): the engine for one and two dimensions.
//! * [`join`] — the one entry point: [`PreparedSet`] prepares a point set
//!   once and counts at any radius, on the engine
//!   [`JoinAlgorithm::planned`] picks from the dimension (par-sweep up to
//!   2-d, kd-tree above) or on a forced one, the nested-loop oracle
//!   included.
//! * [`morton`] — the [`MortonKey`] interleaving trait behind sjpl-core's
//!   BOPS keys on the paper's dyadic grid schedule.
//! * [`par`] — the parallel primitives every kernel above and sjpl-core's
//!   BOPS share: the [`par::workers`] thread-count rule, the scoped
//!   [`par::fan_out`], and a parallel key sort (radix or comparison
//!   chunk-sort + merge).
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

pub mod histogram;
pub mod join;
pub mod kdtree;
pub mod morton;
pub mod par;
pub mod partition;
pub mod sweep;

pub use join::{pair_count, self_pair_count, JoinAlgorithm, PreparedSet};
pub use kdtree::KdTree;
pub use morton::MortonKey;
pub use par::par_sort_keys;
pub use partition::{
    par_sweep_join_count, par_sweep_join_count_sorted, par_sweep_self_join_count,
    par_sweep_self_join_count_sorted,
};
pub use sweep::SortedByAxis;
