//! ParSweep agreement property tests: the partitioned parallel plane sweep
//! must return counts *bit-identical* to the nested loop for every
//! dimensionality, metric, data shape, and thread count — the whole point
//! of dedup-by-ownership is that parallelism never changes the answer.
//!
//! Small inputs pin ParSweep against `NestedLoop` directly; larger inputs
//! (needed to force genuine multi-slab splits, which only appear above the
//! per-slab point floor) pin it against the serial `PlaneSweep`, which the
//! existing `join_agreement` suite already holds bit-identical to the
//! nested loop.
//!
//! CI runs this suite twice, `SJPL_JOIN_THREADS=1` and `=4`, so both the
//! single-slab fast path and the scoped-worker path stay gated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjpl_datagen::{galaxy, sierpinski, uniform};
use sjpl_geom::{Metric, Point};
use sjpl_index::{
    pair_count, par_sweep_join_count, par_sweep_self_join_count, self_pair_count, JoinAlgorithm,
};

const THREADS: [usize; 3] = [1, 2, 8];
const METRICS: [Metric; 3] = [Metric::L1, Metric::L2, Metric::Linf];

fn check_self<const D: usize>(
    label: &str,
    pts: &[Point<D>],
    radii: &[f64],
    reference: JoinAlgorithm,
) {
    for m in METRICS {
        for &r in radii {
            let expect = self_pair_count(reference, pts, r, m);
            for t in THREADS {
                assert_eq!(
                    par_sweep_self_join_count(pts, r, m, t),
                    expect,
                    "{label}: self join, {m:?}, r={r}, threads={t}"
                );
            }
        }
    }
}

fn check_cross<const D: usize>(
    label: &str,
    a: &[Point<D>],
    b: &[Point<D>],
    radii: &[f64],
    reference: JoinAlgorithm,
) {
    for m in METRICS {
        for &r in radii {
            let expect = pair_count(reference, a, b, r, m);
            for t in THREADS {
                assert_eq!(
                    par_sweep_join_count(a, b, r, m, t),
                    expect,
                    "{label}: cross join, {m:?}, r={r}, threads={t}"
                );
            }
        }
    }
}

#[test]
fn uniform_self_joins_agree_across_dimensions() {
    // D = 2 is covered (at multi-slab sizes) by the other tests; here the
    // axis is dimensionality, against the nested loop itself.
    check_self(
        "uniform 1-d",
        uniform::unit_cube::<1>(900, 11).points(),
        &[0.001, 0.05, 0.4],
        JoinAlgorithm::NestedLoop,
    );
    check_self(
        "uniform 2-d",
        uniform::unit_cube::<2>(900, 12).points(),
        &[0.01, 0.1, 0.6],
        JoinAlgorithm::NestedLoop,
    );
    check_self(
        "uniform 3-d",
        uniform::unit_cube::<3>(900, 13).points(),
        &[0.02, 0.2, 0.8],
        JoinAlgorithm::NestedLoop,
    );
    check_self(
        "uniform 5-d",
        uniform::unit_cube::<5>(900, 14).points(),
        &[0.05, 0.3, 1.0],
        JoinAlgorithm::NestedLoop,
    );
}

#[test]
fn cross_joins_agree_across_dimensions() {
    check_cross(
        "uniform 1-d cross",
        uniform::unit_cube::<1>(700, 15).points(),
        uniform::unit_cube::<1>(600, 16).points(),
        &[0.003, 0.08],
        JoinAlgorithm::NestedLoop,
    );
    check_cross(
        "uniform 3-d cross",
        uniform::unit_cube::<3>(700, 17).points(),
        uniform::unit_cube::<3>(600, 18).points(),
        &[0.05, 0.3],
        JoinAlgorithm::NestedLoop,
    );
    check_cross(
        "uniform 5-d cross",
        uniform::unit_cube::<5>(700, 19).points(),
        uniform::unit_cube::<5>(600, 20).points(),
        &[0.1, 0.5],
        JoinAlgorithm::NestedLoop,
    );
}

#[test]
fn skewed_generators_agree_at_multi_slab_sizes() {
    // 6 000 sierpinski points split into 2+ slabs at 2+ threads; the
    // fractal's dense diagonals are exactly the skew the mini-partition
    // rule exists for. PlaneSweep is the (nested-loop-pinned) reference at
    // sizes where the quadratic loop gets slow under `cargo test`.
    check_self(
        "sierpinski 6k",
        sierpinski::triangle(6_000, 21).points(),
        &[0.004, 0.05, 0.3],
        JoinAlgorithm::PlaneSweep,
    );
    let (dev, exp) = galaxy::correlated_pair(5_000, 4_000, 22);
    check_cross(
        "galaxy 5k x 4k",
        dev.points(),
        exp.points(),
        &[0.002, 0.03, 0.2],
        JoinAlgorithm::PlaneSweep,
    );
}

#[test]
fn duplicate_x_clusters_take_the_skew_path_and_agree() {
    // All the mass on a handful of axis-0 values: the striped partitioning
    // degenerates (every slab's extent is ≤ 2r) and the slabs must refine
    // along axis 1. 6 000 points ⇒ 2 slabs at 2+ threads, so ownership
    // across the duplicate-x boundary is exercised too.
    let mut rng = StdRng::seed_from_u64(23);
    let two: Vec<Point<2>> = (0..6_000)
        .map(|i| Point([[0.2, 0.5, 0.50000001][i % 3], rng.gen()]))
        .collect();
    check_self(
        "duplicate-x 2-d",
        &two,
        &[0.001, 0.05, 0.5],
        JoinAlgorithm::PlaneSweep,
    );
    let three: Vec<Point<3>> = (0..6_000)
        .map(|i| Point([[0.3, 0.7][i % 2], rng.gen(), rng.gen()]))
        .collect();
    check_self(
        "duplicate-x 3-d",
        &three,
        &[0.01, 0.1, 0.45],
        JoinAlgorithm::PlaneSweep,
    );
}

#[test]
fn boundary_band_radii_straddle_slab_edges() {
    // 9 000 uniform points cut into 3 slabs of 3 000: radii from "band is
    // a sliver" to "band swallows a neighboring slab whole" (a slab owns
    // an x-extent of ~1/3, so r = 0.2 reaches well past every edge). Each
    // radius lands pairs exactly on the ownership boundary.
    let set = uniform::unit_cube::<2>(9_000, 24);
    check_self(
        "uniform 9k straddle",
        set.points(),
        &[0.0005, 0.004, 0.03, 0.2],
        JoinAlgorithm::PlaneSweep,
    );
}

#[test]
fn explicit_thread_counts_stay_exact() {
    // The thread counts CI's SJPL_JOIN_THREADS knob resolves to must only
    // change the schedule, never the count. They are passed explicitly: the
    // variable's parsing is unit-tested in `partition.rs`, and setting it
    // here would race sibling tests that read it.
    let pts = uniform::unit_cube::<2>(1_200, 25);
    let expect = self_pair_count(JoinAlgorithm::NestedLoop, pts.points(), 0.07, Metric::L2);
    for threads in [1, 3, 8] {
        assert_eq!(
            par_sweep_self_join_count(pts.points(), 0.07, Metric::L2, threads),
            expect,
            "threads={threads}"
        );
    }
}

#[test]
fn dispatch_enum_reaches_the_parallel_engine() {
    // JoinAlgorithm::ParSweep (auto threads) must agree with the explicit
    // entry points — i.e. join.rs really dispatches to partition.rs.
    let pts = uniform::unit_cube::<2>(1_000, 26);
    for m in METRICS {
        for r in [0.02, 0.3] {
            let expect = self_pair_count(JoinAlgorithm::NestedLoop, pts.points(), r, m);
            assert_eq!(
                self_pair_count(JoinAlgorithm::ParSweep, pts.points(), r, m),
                expect
            );
            assert_eq!(par_sweep_self_join_count(pts.points(), r, m, 0), expect);
        }
    }
}
