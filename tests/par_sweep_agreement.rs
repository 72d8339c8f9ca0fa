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
//! Thread counts are passed explicitly (1–4 and 8), so both the single-slab
//! inline path and the scoped-worker path stay gated on every host.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjpl_datagen::{galaxy, sierpinski, uniform};
use sjpl_geom::{Metric, Point};
use sjpl_index::{
    pair_count, par_sweep_join_count, par_sweep_self_join_count, self_pair_count, JoinAlgorithm,
};

const THREADS: [usize; 3] = [1, 2, 8];
const METRICS: [Metric; 3] = [Metric::L1, Metric::L2, Metric::Linf];

/// The edge-case matrix: thread counts 1–4 and 8, and a general Minkowski
/// order on top of L1 / L2 / L∞.
const EDGE_THREADS: [usize; 5] = [1, 2, 3, 4, 8];
const EDGE_METRICS: [Metric; 4] = [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)];

fn check_self<const D: usize>(
    label: &str,
    pts: &[Point<D>],
    radii: &[f64],
    reference: JoinAlgorithm,
) {
    check_self_over(label, pts, radii, reference, &METRICS, &THREADS);
}

fn check_cross<const D: usize>(
    label: &str,
    a: &[Point<D>],
    b: &[Point<D>],
    radii: &[f64],
    reference: JoinAlgorithm,
) {
    check_cross_over(label, a, b, radii, reference, &METRICS, &THREADS);
}

fn check_self_over<const D: usize>(
    label: &str,
    pts: &[Point<D>],
    radii: &[f64],
    reference: JoinAlgorithm,
    metrics: &[Metric],
    threads: &[usize],
) {
    for &m in metrics {
        for &r in radii {
            let expect = self_pair_count(reference, pts, r, m);
            for &t in threads {
                assert_eq!(
                    par_sweep_self_join_count(pts, r, m, t),
                    expect,
                    "{label}: self join, {m:?}, r={r}, threads={t}"
                );
            }
        }
    }
}

fn check_cross_over<const D: usize>(
    label: &str,
    a: &[Point<D>],
    b: &[Point<D>],
    radii: &[f64],
    reference: JoinAlgorithm,
    metrics: &[Metric],
    threads: &[usize],
) {
    for &m in metrics {
        for &r in radii {
            let expect = pair_count(reference, a, b, r, m);
            for &t in threads {
                assert_eq!(
                    par_sweep_join_count(a, b, r, m, t),
                    expect,
                    "{label}: cross join, {m:?}, r={r}, threads={t}"
                );
            }
        }
    }
}

/// Self and cross joins over the edge-case matrix.
fn check_edges<const D: usize>(
    label: &str,
    a: &[Point<D>],
    b: &[Point<D>],
    radii: &[f64],
    reference: JoinAlgorithm,
) {
    check_self_over(label, a, radii, reference, &EDGE_METRICS, &EDGE_THREADS);
    check_cross_over(label, a, b, radii, reference, &EDGE_METRICS, &EDGE_THREADS);
}

/// A `side × side` lattice with spacing `step`, origin `(0, y0)`.
fn lattice(side: usize, step: f64, y0: f64) -> Vec<Point<2>> {
    (0..side * side)
        .map(|i| Point([(i % side) as f64 * step, y0 + (i / side) as f64 * step]))
        .collect()
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
    // fractal's dense diagonals are exactly the skew the axis-1 strips
    // exist for. PlaneSweep is the (nested-loop-pinned) reference at
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
    // All the mass on a handful of axis-0 values: the axis-0 window prunes
    // nothing, so only the axis-1 strips keep the slabs from going
    // quadratic. 6 000 points ⇒ 2 slabs at 2+ threads, so ownership across
    // the duplicate-x boundary is exercised too.
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
    // An explicit thread count only changes the schedule, never the
    // count.
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

// Edge cases for the strip sweep. Each set has two variants: a small one
// against the nested loop itself, and one above the per-slab floor
// (4 096 points), so 2+ threads cut real slabs, against the plane sweep.

#[test]
fn lattice_at_spacing_exactly_r_agrees() {
    // Every lattice neighbor sits at distance r, give or take one rounding:
    // the worst case for a strip boundary. The second lattice is the first
    // shifted by exactly one row, so cross pairs sit at r as well.
    for r in [0.125, 0.01] {
        for (side, reference) in [
            (24, JoinAlgorithm::NestedLoop),
            (72, JoinAlgorithm::PlaneSweep),
        ] {
            check_edges(
                &format!("lattice {side}² at spacing {r}"),
                &lattice(side, r, 0.0),
                &lattice(side, r, r),
                &[r, 2.0 * r],
                reference,
            );
        }
    }
}

#[test]
fn offset_1e9_with_micro_radius_agrees() {
    // At 10⁹ one ulp is ~1.2·10⁻⁷, so r = 10⁻⁶ spans a handful of
    // representable coordinates and `y − y0` rounds on every point.
    let mut rng = StdRng::seed_from_u64(27);
    let mut near = |n: usize| -> Vec<Point<2>> {
        (0..n)
            .map(|_| Point([1e9 + rng.gen::<f64>() * 4e-5, 1e9 + rng.gen::<f64>() * 4e-5]))
            .collect()
    };
    let (a, b) = (near(700), near(600));
    check_edges(
        "offset 1e9, small",
        &a,
        &b,
        &[1e-6, 3e-6],
        JoinAlgorithm::NestedLoop,
    );
    let (a, b) = (near(5_000), near(4_500));
    check_edges(
        "offset 1e9",
        &a,
        &b,
        &[1e-6, 3e-6],
        JoinAlgorithm::PlaneSweep,
    );
}

#[test]
fn zero_and_infinite_radii_agree() {
    // Points drawn with replacement from 300 sites: r = 0 counts exactly
    // the coincident pairs; r = ∞ counts every pair, which is quadratic
    // work for every engine, so the multi-slab sets check it in closed form.
    let sites = uniform::unit_cube::<2>(300, 28);
    let mut rng = StdRng::seed_from_u64(29);
    let mut draw = |n: usize| -> Vec<Point<2>> {
        (0..n)
            .map(|_| sites.points()[rng.gen_range(0..sites.len())])
            .collect()
    };
    let (a, b) = (draw(800), draw(500));
    check_edges(
        "duplicates, small",
        &a,
        &b,
        &[0.0, f64::INFINITY],
        JoinAlgorithm::NestedLoop,
    );
    let (a, b) = (draw(5_000), draw(4_500));
    check_edges("duplicates", &a, &b, &[0.0], JoinAlgorithm::PlaneSweep);
    let b = &b[..300];
    for t in EDGE_THREADS {
        assert_eq!(
            par_sweep_self_join_count(&a, f64::INFINITY, Metric::L2, t),
            (a.len() * (a.len() - 1) / 2) as u64,
            "self join, r=inf, threads={t}"
        );
        assert_eq!(
            par_sweep_join_count(&a, b, f64::INFINITY, Metric::Linf, t),
            (a.len() * b.len()) as u64,
            "cross join, r=inf, threads={t}"
        );
    }
}

#[test]
fn duplicate_x_column_and_duplicate_y_row_agree() {
    // A column has no axis-0 extent (the slab cut falls inside it); a row
    // has no axis-1 extent (one strip). The cross join pits one against
    // the other. Any sweep checks the whole ±r window of a column × row
    // cross join, so the large radius runs on the small variant only.
    let mut rng = StdRng::seed_from_u64(30);
    let column: Vec<Point<2>> = (0..4_500).map(|_| Point([0.5, rng.gen()])).collect();
    let row: Vec<Point<2>> = (0..4_500).map(|_| Point([rng.gen(), 0.5])).collect();
    let radii = [0.0005, 0.01];
    check_edges(
        "row x column",
        &row,
        &column,
        &radii,
        JoinAlgorithm::PlaneSweep,
    );
    check_cross_over(
        "column x row",
        &column,
        &row,
        &radii,
        JoinAlgorithm::PlaneSweep,
        &EDGE_METRICS,
        &EDGE_THREADS,
    );
    // Swapping the axes preserves every Lp distance, so the transposed
    // column is the column's reference, on which the plane sweep prunes.
    let transposed: Vec<Point<2>> = column.iter().map(|p| Point([p[1], p[0]])).collect();
    for m in EDGE_METRICS {
        for r in radii {
            let expect = self_pair_count(JoinAlgorithm::PlaneSweep, &transposed, r, m);
            for t in EDGE_THREADS {
                assert_eq!(
                    par_sweep_self_join_count(&column, r, m, t),
                    expect,
                    "column: self join, {m:?}, r={r}, threads={t}"
                );
            }
        }
    }
    let small = [0.0005, 0.01, 0.3];
    check_edges(
        "column x row, small",
        &column[..600],
        &row[..600],
        &small,
        JoinAlgorithm::NestedLoop,
    );
    check_edges(
        "row x column, small",
        &row[..600],
        &column[..600],
        &small,
        JoinAlgorithm::NestedLoop,
    );
}

#[test]
fn one_and_three_dimensional_inputs_agree() {
    // 1-d takes a single strip (there is no axis 1); 3-d strips on axis 1
    // and leaves axis 2 to the distance test.
    let (a1, b1) = (
        uniform::unit_cube::<1>(5_000, 31),
        uniform::unit_cube::<1>(4_500, 32),
    );
    check_edges(
        "1-d",
        a1.points(),
        b1.points(),
        &[0.0002, 0.01],
        JoinAlgorithm::PlaneSweep,
    );
    let (a3, b3) = (
        uniform::unit_cube::<3>(5_000, 33),
        uniform::unit_cube::<3>(4_500, 34),
    );
    check_edges(
        "3-d",
        a3.points(),
        b3.points(),
        &[0.01, 0.03],
        JoinAlgorithm::PlaneSweep,
    );
    check_edges(
        "3-d, small",
        &a3.points()[..700],
        &b3.points()[..600],
        &[0.05, 0.3],
        JoinAlgorithm::NestedLoop,
    );
}
