//! One uniform entry point over all distance-join algorithms.
//!
//! Every algorithm computes the *same* pair counts (the paper's
//! Definition 1 semantics); they differ only in cost profile. The
//! cross-algorithm agreement tests, the join benchmarks and `sjpl join
//! --algo` dispatch through this module.

use sjpl_geom::{Metric, Point};

use crate::kdtree::KdTree;
use crate::partition::{par_sweep_join_count, par_sweep_self_join_count};
use crate::sweep::{sweep_join_count, sweep_self_join_count};

/// The available distance-join algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// The O(N·M) double loop — the reference everything else must match.
    NestedLoop,
    /// Dual kd-tree traversal with box pruning.
    KdTree,
    /// Sort-by-first-axis sliding-window sweep.
    PlaneSweep,
    /// Partitioned parallel plane sweep: rank-striped slabs along axis 0,
    /// boundary-band replication with dedup-by-ownership, per-slab forward
    /// sweeps on scoped threads, one worker per available CPU (see
    /// [`crate::par::workers`]).
    ParSweep,
}

impl JoinAlgorithm {
    /// All algorithms, for exhaustive tests/benches.
    pub const ALL: [JoinAlgorithm; 4] = [
        JoinAlgorithm::NestedLoop,
        JoinAlgorithm::KdTree,
        JoinAlgorithm::PlaneSweep,
        JoinAlgorithm::ParSweep,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            JoinAlgorithm::NestedLoop => "nested-loop",
            JoinAlgorithm::KdTree => "kd-tree",
            JoinAlgorithm::PlaneSweep => "plane-sweep",
            JoinAlgorithm::ParSweep => "par-sweep",
        }
    }
}

fn nested_cross<const D: usize>(a: &[Point<D>], b: &[Point<D>], r: f64, metric: Metric) -> u64 {
    if r < 0.0 {
        return 0;
    }
    let thresh = metric.rdist_threshold(r);
    let mut c = 0u64;
    for pa in a {
        for pb in b {
            if metric.rdist(pa, pb) <= thresh {
                c += 1;
            }
        }
    }
    c
}

fn nested_self<const D: usize>(a: &[Point<D>], r: f64, metric: Metric) -> u64 {
    if r < 0.0 {
        return 0;
    }
    let thresh = metric.rdist_threshold(r);
    let mut c = 0u64;
    for i in 0..a.len() {
        for pj in &a[i + 1..] {
            if metric.rdist(&a[i], pj) <= thresh {
                c += 1;
            }
        }
    }
    c
}

/// Counts ordered cross pairs `(a, b) ∈ A × B` with `dist(a, b) ≤ r` using
/// the chosen algorithm. All algorithms return identical counts.
pub fn pair_count<const D: usize>(
    algo: JoinAlgorithm,
    a: &[Point<D>],
    b: &[Point<D>],
    r: f64,
    metric: Metric,
) -> u64 {
    match algo {
        JoinAlgorithm::NestedLoop => nested_cross(a, b, r, metric),
        JoinAlgorithm::KdTree => KdTree::build(a).join_count(&KdTree::build(b), r, metric),
        JoinAlgorithm::PlaneSweep => sweep_join_count(a, b, r, metric),
        JoinAlgorithm::ParSweep => par_sweep_join_count(a, b, r, metric, 0),
    }
}

/// Counts unordered self pairs `{i, j}, i ≠ j` with `dist ≤ r` using the
/// chosen algorithm (the paper's self-join convention).
pub fn self_pair_count<const D: usize>(
    algo: JoinAlgorithm,
    a: &[Point<D>],
    r: f64,
    metric: Metric,
) -> u64 {
    match algo {
        JoinAlgorithm::NestedLoop => nested_self(a, r, metric),
        JoinAlgorithm::KdTree => KdTree::build(a).self_join_count(r, metric),
        JoinAlgorithm::PlaneSweep => sweep_self_join_count(a, r, metric),
        JoinAlgorithm::ParSweep => par_sweep_self_join_count(a, r, metric, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point([rng.gen(), rng.gen()])).collect()
    }

    #[test]
    fn all_algorithms_agree_on_cross_join() {
        let a = random_points(200, 1);
        let b = random_points(150, 2);
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            for r in [0.03, 0.15, 0.5] {
                let reference = pair_count(JoinAlgorithm::NestedLoop, &a, &b, r, m);
                for algo in JoinAlgorithm::ALL {
                    assert_eq!(
                        pair_count(algo, &a, &b, r, m),
                        reference,
                        "{} disagrees at m {m:?} r {r}",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn all_algorithms_agree_on_self_join() {
        let a = random_points(250, 3);
        for m in [Metric::L2, Metric::Linf] {
            for r in [0.02, 0.1, 0.4] {
                let reference = self_pair_count(JoinAlgorithm::NestedLoop, &a, r, m);
                for algo in JoinAlgorithm::ALL {
                    assert_eq!(
                        self_pair_count(algo, &a, r, m),
                        reference,
                        "{} disagrees at m {m:?} r {r}",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = JoinAlgorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), JoinAlgorithm::ALL.len());
    }
}
