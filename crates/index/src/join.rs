//! One entry point over all distance-join algorithms.
//!
//! Every algorithm computes the *same* pair counts (the paper's
//! Definition 1 semantics); they differ only in cost profile. A
//! [`PreparedSet`] pays a set's sort or tree build once and then counts at
//! any radius; [`JoinAlgorithm::planned`] picks its engine from the
//! dimension unless one is forced. Every exact count in the workspace (the
//! CLI `join`, the drift oracle, the repro and test oracles) runs through
//! this module.

use sjpl_geom::{Metric, Point};

use crate::kdtree::KdTree;
use crate::partition::{par_sweep_join_count_sorted, par_sweep_self_join_count_sorted};
use crate::sweep::{forward_sweep_cross, forward_sweep_self, SortedByAxis};

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

    /// The engine an exact count runs on `dim`-dimensional points when none
    /// is forced: the one place that chooses an exact engine. A sweep prunes
    /// on two axes at most, which stops paying above 2-d; the kd-tree prunes
    /// on every axis. DESIGN.md §"Choosing an exact engine" has the timings
    /// behind the cutoff.
    pub const fn planned(dim: usize) -> JoinAlgorithm {
        if dim <= 2 {
            JoinAlgorithm::ParSweep
        } else {
            JoinAlgorithm::KdTree
        }
    }

    /// Whether the engine reads a thread count (only the partitioned sweep
    /// runs on more than one thread).
    pub fn threaded(&self) -> bool {
        *self == JoinAlgorithm::ParSweep
    }
}

/// A point set prepared once for exact counts at any number of radii: the
/// sort of a sweep or the build of a kd-tree is paid here, not per count.
///
/// Points with a NaN or infinite coordinate are dropped for every engine,
/// so they take part in no pair and a count never depends on the engine.
pub struct PreparedSet<const D: usize> {
    engine: Engine<D>,
}

enum Engine<const D: usize> {
    NestedLoop(Vec<Point<D>>),
    KdTree(KdTree<D>),
    PlaneSweep(SortedByAxis<D>),
    ParSweep(SortedByAxis<D>),
}

impl<const D: usize> PreparedSet<D> {
    /// Prepares `pts` for the engine [`JoinAlgorithm::planned`] picks for `D`.
    pub fn new(pts: &[Point<D>]) -> Self {
        Self::with(JoinAlgorithm::planned(D), pts)
    }

    /// Prepares `pts` for a forced engine.
    pub fn with(algo: JoinAlgorithm, pts: &[Point<D>]) -> Self {
        let finite =
            || -> Vec<Point<D>> { pts.iter().filter(|p| !p.is_degenerate()).copied().collect() };
        let engine = match algo {
            JoinAlgorithm::NestedLoop => Engine::NestedLoop(finite()),
            JoinAlgorithm::KdTree => Engine::KdTree(KdTree::build(&finite())),
            JoinAlgorithm::PlaneSweep => Engine::PlaneSweep(SortedByAxis::new(pts)),
            JoinAlgorithm::ParSweep => {
                let _part =
                    sjpl_obs::span_with("join.partition", || format!("points={}", pts.len()));
                Engine::ParSweep(SortedByAxis::new(pts))
            }
        };
        PreparedSet { engine }
    }

    /// Counts unordered pairs `{i, j}, i ≠ j` with `dist ≤ r` (the paper's
    /// self-join convention). `threads` is read by par-sweep only (`0` =
    /// one worker per CPU). A negative or NaN `r` counts nothing.
    pub fn self_count(&self, r: f64, metric: Metric, threads: usize) -> u64 {
        self.count(None, r, metric, threads)
    }

    /// Counts ordered pairs `(a, b) ∈ self × other` with `dist(a, b) ≤ r`.
    ///
    /// # Panics
    /// When `other` was prepared for a different engine.
    pub fn cross_count(
        &self,
        other: &PreparedSet<D>,
        r: f64,
        metric: Metric,
        threads: usize,
    ) -> u64 {
        self.count(Some(other), r, metric, threads)
    }

    fn count(&self, other: Option<&Self>, r: f64, metric: Metric, threads: usize) -> u64 {
        if r.is_nan() || r < 0.0 {
            return 0;
        }
        match (&self.engine, other.map(|o| &o.engine)) {
            (Engine::NestedLoop(a), None) => nested_self(a, r, metric),
            (Engine::NestedLoop(a), Some(Engine::NestedLoop(b))) => nested_cross(a, b, r, metric),
            (Engine::KdTree(a), None) => a.self_join_count(r, metric),
            (Engine::KdTree(a), Some(Engine::KdTree(b))) => a.join_count(b, r, metric),
            (Engine::PlaneSweep(a), None) => forward_sweep_self(a.points(), a.len(), 0, r, metric),
            (Engine::PlaneSweep(a), Some(Engine::PlaneSweep(b))) => {
                forward_sweep_cross(a.points(), b.points(), 0, r, metric)
            }
            (Engine::ParSweep(a), None) => par_sweep_self_join_count_sorted(a, r, metric, threads),
            (Engine::ParSweep(a), Some(Engine::ParSweep(b))) => {
                par_sweep_join_count_sorted(a, b, r, metric, threads)
            }
            (_, Some(_)) => panic!("cross count between sets prepared for different engines"),
        }
    }
}

fn nested_cross<const D: usize>(a: &[Point<D>], b: &[Point<D>], r: f64, metric: Metric) -> u64 {
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
    PreparedSet::with(algo, a).cross_count(&PreparedSet::with(algo, b), r, metric, 0)
}

/// Counts unordered self pairs `{i, j}, i ≠ j` with `dist ≤ r` using the
/// chosen algorithm (the paper's self-join convention).
pub fn self_pair_count<const D: usize>(
    algo: JoinAlgorithm,
    a: &[Point<D>],
    r: f64,
    metric: Metric,
) -> u64 {
    PreparedSet::with(algo, a).self_count(r, metric, 0)
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

    fn points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point(std::array::from_fn(|_| rng.gen())))
            .collect()
    }

    #[test]
    fn planner_sweeps_low_dimensions_and_builds_trees_above() {
        assert_eq!(JoinAlgorithm::planned(1), JoinAlgorithm::ParSweep);
        assert_eq!(JoinAlgorithm::planned(2), JoinAlgorithm::ParSweep);
        assert_eq!(JoinAlgorithm::planned(3), JoinAlgorithm::KdTree);
        assert_eq!(JoinAlgorithm::planned(16), JoinAlgorithm::KdTree);
        let threaded: Vec<_> = JoinAlgorithm::ALL
            .into_iter()
            .filter(|a| a.threaded())
            .collect();
        assert_eq!(threaded, [JoinAlgorithm::ParSweep]);
    }

    /// Planned self and cross counts against the nested loop at radii 0, a
    /// mid value, a saturating value, a negative value and NaN, on empty,
    /// one-point and random sets.
    fn prepared_matches_nested_loop<const D: usize>(mid: f64) {
        let sets = [
            points::<D>(0, 0),
            points::<D>(1, 1),
            points::<D>(300, 2),
            points::<D>(200, 3),
        ];
        let radii = [0.0, mid, 1e3, -0.5, f64::NAN];
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            for a in &sets {
                let pa = PreparedSet::new(a);
                for r in radii {
                    let want = self_pair_count(JoinAlgorithm::NestedLoop, a, r, m);
                    for t in [0, 1, 3] {
                        assert_eq!(
                            pa.self_count(r, m, t),
                            want,
                            "{D}-d self, n {} {m:?} r {r}",
                            a.len()
                        );
                    }
                }
                for b in &sets {
                    let pb = PreparedSet::new(b);
                    for r in radii {
                        let want = pair_count(JoinAlgorithm::NestedLoop, a, b, r, m);
                        let got = pa.cross_count(&pb, r, m, 2);
                        assert_eq!(got, want, "{D}-d cross {}x{} {m:?} r {r}", a.len(), b.len());
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_counts_match_the_nested_loop_in_2d() {
        prepared_matches_nested_loop::<2>(0.05);
    }

    #[test]
    fn prepared_counts_match_the_nested_loop_in_16d() {
        prepared_matches_nested_loop::<16>(0.9);
    }

    #[test]
    fn non_finite_points_take_part_in_no_pair_on_any_engine() {
        let mut a = points::<2>(120, 4);
        let clean = a.clone();
        a.extend([
            Point([f64::NAN, 0.5]),
            Point([f64::INFINITY, 0.5]),
            Point([f64::INFINITY, 0.5]),
            Point([0.5, f64::NEG_INFINITY]),
        ]);
        let b = points::<2>(80, 5);
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            for r in [0.0, 0.1, 1e3] {
                let want_self = self_pair_count(JoinAlgorithm::NestedLoop, &clean, r, m);
                let want_cross = pair_count(JoinAlgorithm::NestedLoop, &clean, &b, r, m);
                for algo in JoinAlgorithm::ALL {
                    assert_eq!(
                        self_pair_count(algo, &a, r, m),
                        want_self,
                        "{} {m:?} r {r}",
                        algo.name()
                    );
                    assert_eq!(
                        pair_count(algo, &a, &b, r, m),
                        want_cross,
                        "{} {m:?} r {r}",
                        algo.name()
                    );
                    assert_eq!(
                        pair_count(algo, &b, &a, r, m),
                        want_cross,
                        "{} {m:?} r {r}",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different engines")]
    fn cross_count_needs_one_engine() {
        let a = points::<2>(10, 6);
        let _ = PreparedSet::with(JoinAlgorithm::KdTree, &a).cross_count(
            &PreparedSet::with(JoinAlgorithm::ParSweep, &a),
            0.1,
            Metric::L2,
            0,
        );
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = JoinAlgorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), JoinAlgorithm::ALL.len());
    }
}
