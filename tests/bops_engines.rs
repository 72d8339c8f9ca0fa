//! Property tests pinning BOPS to a naive reference: `bops_plot_cross` /
//! `bops_plot_self` must equal a per-level `BTreeMap` occupancy count — the
//! Figure 7 algorithm, verbatim — **bit for bit**, for every input,
//! dimension, join kind, grid schedule and thread count. The configs cover
//! every key the counting kernel builds: Morton `u32` (1-, 2-d dyadic),
//! `u64` (3-d dyadic, and both sides of the 32- and 64-bit boundaries) and
//! `u128` (8-d dyadic), and on the per-level path packed `u64` / `u128`
//! keys, `[u32; D]` array keys (16-d dyadic, 192 key bits) and dense
//! counts (the coarse levels of the gentle `high_dimensional()` schedule).
//! The proptests stay small; the clustered cases below are large enough
//! that the radix sort runs in several chunks and the counting pass is
//! split across threads, with runs straddling the splits.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sjpl_core::{bops_plot_cross, bops_plot_self, BopsConfig};
use sjpl_geom::{NormalizeInfo, Point, PointSet};

const THREADS: [usize; 4] = [1, 2, 4, 0];

/// Arbitrary D-dimensional point sets over a generously scaled box, so
/// normalization, boundary clamps, and duplicate coordinates all get hit.
fn point_set<const D: usize>(min: usize, max: usize) -> impl Strategy<Value = PointSet<D>> {
    prop::collection::vec(
        prop::collection::vec(-100.0f64..100.0, D..D + 1).prop_map(|v| {
            let mut c = [0.0f64; D];
            c.copy_from_slice(&v);
            Point(c)
        }),
        min..max,
    )
    .prop_map(|v| PointSet::new("prop", v))
}

/// The reference: at each grid side, count every cell's `(A, B)`
/// occupancy in an ordered map keyed by the cell coordinates, then sum
/// `C_A·C_B` (cross, `b = Some`) or `C_A(C_A−1)/2` (self). Sides come from
/// the plot under test; the normalization and quantization are redone here.
fn reference<const D: usize>(a: &PointSet<D>, b: Option<&PointSet<D>>, sides: &[f64]) -> Vec<f64> {
    let sets: Vec<&PointSet<D>> = std::iter::once(a).chain(b).collect();
    let info = NormalizeInfo::from_sets(&sets).unwrap();
    let na = a.normalized(&info);
    let nb = b.map(|b| b.normalized(&info));
    sides
        .iter()
        .map(|&s| {
            let cells = (1.0 / s).ceil() as u64;
            let cell = |p: &Point<D>| {
                let mut k = [0u32; D];
                for (i, c) in k.iter_mut().enumerate() {
                    *c = ((p[i] / s) as u64).min(cells - 1) as u32;
                }
                k
            };
            let mut occ: BTreeMap<[u32; D], (u64, u64)> = BTreeMap::new();
            for p in na.iter() {
                occ.entry(cell(p)).or_default().0 += 1;
            }
            for p in nb.iter().flat_map(|nb| nb.iter()) {
                occ.entry(cell(p)).or_default().1 += 1;
            }
            let total: u64 = match b {
                Some(_) => occ.values().map(|&(ca, cb)| ca * cb).sum(),
                None => occ.values().map(|&(ca, _)| ca * (ca - 1) / 2).sum(),
            };
            total as f64
        })
        .collect()
}

/// Cross join at every thread count: values bit-for-bit equal to the
/// reference, radii equal to the single-threaded plot's.
fn assert_cross_matches<const D: usize>(a: &PointSet<D>, b: &PointSet<D>, cfg: BopsConfig) {
    let plots: Vec<_> = THREADS
        .iter()
        .map(|&t| bops_plot_cross(a, b, &cfg.with_threads(t)).unwrap())
        .collect();
    let expected = reference(a, Some(b), plots[0].sides_normalized());
    for (plot, threads) in plots.iter().zip(THREADS) {
        assert_eq!(
            plot.values(),
            expected,
            "{D}-d cross values diverge: {cfg:?}, {threads} threads"
        );
        assert_eq!(
            plot.radii(),
            plots[0].radii(),
            "{D}-d cross radii diverge: {cfg:?}, {threads} threads"
        );
    }
}

/// Self join at every thread count, against the reference.
fn assert_self_matches<const D: usize>(a: &PointSet<D>, cfg: BopsConfig) {
    let plots: Vec<_> = THREADS
        .iter()
        .map(|&t| bops_plot_self(a, &cfg.with_threads(t)).unwrap())
        .collect();
    let expected = reference(a, None, plots[0].sides_normalized());
    for (plot, threads) in plots.iter().zip(THREADS) {
        assert_eq!(
            plot.values(),
            expected,
            "{D}-d self values diverge: {cfg:?}, {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 1-d: keys are the coordinates themselves (no interleaving).
    #[test]
    fn engines_agree_1d(a in point_set::<1>(2, 120), b in point_set::<1>(1, 120)) {
        assert_cross_matches(&a, &b, BopsConfig::dyadic(12));
        assert_self_matches(&a, BopsConfig::dyadic(12));
    }

    /// 2-d: the paper's main case; exercises the fast Part1By1 interleave.
    #[test]
    fn engines_agree_2d(a in point_set::<2>(2, 120), b in point_set::<2>(1, 120)) {
        assert_cross_matches(&a, &b, BopsConfig::dyadic(12));
        assert_self_matches(&a, BopsConfig::dyadic(12));
    }

    /// 3-d: odd dimension, loop interleave, 36-bit keys still in u64.
    #[test]
    fn engines_agree_3d(a in point_set::<3>(2, 100), b in point_set::<3>(1, 100)) {
        assert_cross_matches(&a, &b, BopsConfig::dyadic(12));
        assert_self_matches(&a, BopsConfig::dyadic(12));
    }

    /// 8-d: 96-bit keys force the u128 Morton path.
    #[test]
    fn engines_agree_8d(a in point_set::<8>(2, 80), b in point_set::<8>(1, 80)) {
        assert_cross_matches(&a, &b, BopsConfig::dyadic(12));
        assert_self_matches(&a, BopsConfig::dyadic(12));
    }

    /// 8-d at 16 levels = exactly 128 key bits: the u128 width boundary.
    #[test]
    fn engines_agree_at_the_key_width_boundary(a in point_set::<8>(2, 50)) {
        assert_self_matches(&a, BopsConfig::dyadic(16));
    }

    /// 16-d dyadic(12): 192 Morton bits, so every level gets its own keys —
    /// packed u64 / u128 at the coarse levels, `[u32; 16]` arrays once
    /// 16 · ⌈log₂ cells⌉ passes 128 bits.
    #[test]
    fn engines_agree_16d_dyadic(a in point_set::<16>(2, 60), b in point_set::<16>(1, 60)) {
        assert_cross_matches(&a, &b, BopsConfig::dyadic(12));
        assert_self_matches(&a, BopsConfig::dyadic(12));
    }

    /// 2-d gentle schedule: non-dyadic sides, packed u64 keys, and dense
    /// counts wherever the level's key space fits within the input.
    #[test]
    fn engines_agree_2d_gentle(a in point_set::<2>(2, 240), b in point_set::<2>(1, 240)) {
        assert_cross_matches(&a, &b, BopsConfig::high_dimensional());
        assert_self_matches(&a, BopsConfig::high_dimensional());
    }

    /// 16-d gentle schedule on small inputs: packed u64 and u128 keys.
    #[test]
    fn engines_agree_16d_gentle_small(a in point_set::<16>(2, 60), b in point_set::<16>(1, 60)) {
        assert_cross_matches(&a, &b, BopsConfig::high_dimensional());
        assert_self_matches(&a, BopsConfig::high_dimensional());
    }

    /// The per-level path at any ratio and level count (slot tables of
    /// every size, and grids too fine for one, which divide at each level)
    /// against the division oracle, in 2, 8 and 16 dimensions.
    #[test]
    fn per_level_matches_the_division_oracle(
        (a2, b2) in (point_set::<2>(2, 120), point_set::<2>(1, 120)),
        (a8, b8) in (point_set::<8>(2, 60), point_set::<8>(1, 60)),
        (a16, b16) in (point_set::<16>(2, 40), point_set::<16>(1, 40)),
        (ratio, levels) in (0.3f64..0.95, 1u32..25),
    ) {
        let cfg = BopsConfig { levels, ratio, threads: 1 };
        // The finest cell coordinate must fit a u32.
        if cfg.fallback::<2>().is_err() {
            return Ok(());
        }
        assert_cross_matches(&a2, &b2, cfg);
        assert_self_matches(&a2, cfg);
        assert_cross_matches(&a8, &b8, cfg);
        assert_self_matches(&a8, cfg);
        assert_cross_matches(&a16, &b16, cfg);
        assert_self_matches(&a16, cfg);
    }

    /// Heavy duplication — many identical points — stresses run-length
    /// scans (long equal-key runs) and occupancy counts far above 1.
    #[test]
    fn engines_agree_with_duplicates(
        seeds in prop::collection::vec([0.0f64..4.0, 0.0f64..4.0].prop_map(Point::new), 1..6),
        reps in 2usize..40,
    ) {
        let pts: Vec<Point<2>> = seeds.iter().cycle().take(seeds.len() * reps).copied().collect();
        let a = PointSet::new("dups", pts);
        for cfg in [BopsConfig::dyadic(10), BopsConfig::high_dimensional()] {
            assert_cross_matches(&a, &a, cfg);
            assert_self_matches(&a, cfg);
        }
    }
}

/// Point sets whose spread collapses to a single cell at coarse levels and
/// one point per cell at fine levels — deterministic spot-checks that the
/// counts hold at both occupancy extremes.
#[test]
fn engines_agree_on_degenerate_grids() {
    let line: Vec<Point<2>> = (0..64).map(|i| Point([i as f64, 0.0])).collect();
    let a = PointSet::new("line", line);
    assert_cross_matches(&a, &a, BopsConfig::dyadic(8));
    assert_self_matches(&a, BopsConfig::dyadic(8));

    let clump = PointSet::new("clump", vec![Point([0.25, 0.25]); 33]);
    assert_self_matches(&clump, BopsConfig::dyadic(6));

    // A 16-d line along axis 0: the points differ only in the coordinate
    // packed first, so a key that dropped any coordinate's bits would merge
    // their cells.
    let line16: Vec<Point<16>> = (0..64)
        .map(|i| {
            let mut c = [0.0; 16];
            c[0] = i as f64;
            Point(c)
        })
        .collect();
    let a = PointSet::new("line16", line16);
    assert_cross_matches(&a, &a, BopsConfig::dyadic(12));
    assert_self_matches(&a, BopsConfig::dyadic(12));
}

/// 16-d gentle schedule — the eigenfaces law's config — with just enough
/// points that the coarsest level's 2¹⁶-cell key space counts densely; the
/// finer levels sort packed u64 and u128 keys.
#[test]
fn engines_agree_16d_gentle() {
    let a = sjpl_datagen::manifold::eigenfaces_like(1 << 16, 3);
    assert_self_matches(&a, BopsConfig::high_dimensional());
}

/// Grids too fine for a slot table (over 65 535 distinct cell bounds)
/// quantize every level by division: 2-d at ratio 0.7 × 30 levels, and
/// 16-d dyadic(17).
#[test]
fn engines_agree_without_a_slot_table() {
    let a = clustered(1 << 12, 47);
    let b = sharing(&a, 48);
    let cfg = BopsConfig {
        levels: 30,
        ratio: 0.7,
        threads: 1,
    };
    assert_cross_matches(&a, &b, cfg);
    assert_self_matches(&a, cfg);
    let hd = sjpl_datagen::manifold::eigenfaces_like(2_000, 5);
    assert_self_matches(&hd, BopsConfig::dyadic(17));
}

/// At the benchmark's sizes, the 16-d eigenfaces law (5·10⁴ points,
/// `high_dimensional()`) and a 2-d gentle cross join of 10⁵ × 10⁵ points
/// equal the division oracle bit for bit. Slow in a debug build; run it
/// with `cargo test --release -p sjpl-core --test bops_engines -- --ignored`.
#[test]
#[ignore]
fn per_level_matches_the_division_oracle_at_scale() {
    let ef = sjpl_datagen::manifold::eigenfaces_like(50_000, 1);
    assert_self_matches(&ef, BopsConfig::high_dimensional());
    let (a, b) = sjpl_datagen::galaxy::correlated_pair(100_000, 100_000, 11);
    assert_cross_matches(&a, &b, BopsConfig::high_dimensional());
    assert_self_matches(&a, BopsConfig::high_dimensional());
}

/// A clustered 2-d set of `n` points in which every eighth point repeats
/// an earlier one, so runs at the finest level hold duplicates.
fn clustered(n: usize, seed: u64) -> PointSet<2> {
    let mut pts = sjpl_datagen::galaxy::cluster_process(n - n / 8, seed)
        .points()
        .to_vec();
    pts.extend_from_within(..n / 8);
    PointSet::new("clustered", pts)
}

/// A second clustered set that shares a quarter of its points with `a`,
/// so cells — and exact keys — hold both sides.
fn sharing(a: &PointSet<2>, seed: u64) -> PointSet<2> {
    let mut pts = clustered(a.len() - a.len() / 4, seed).points().to_vec();
    pts.extend_from_slice(&a.points()[..a.len() / 4]);
    PointSet::new("sharing", pts)
}

/// 2¹⁷ clustered points per side, default 12 dyadic levels: the 25-bit
/// cross keys and 24-bit self keys radix-sort in several chunks, and the
/// counting pass splits inside long coarse-level runs.
#[test]
fn engines_agree_on_clustered_sets_at_scale() {
    let a = clustered(1 << 17, 41);
    let b = sharing(&a, 42);
    assert_cross_matches(&a, &b, BopsConfig::default());
    assert_self_matches(&a, BopsConfig::default());
}

/// Key widths on both sides of a type boundary: 2-d × 16 levels is 32
/// bits for a self join (`u32`) and 33 with the cross join's side tag
/// (`u64`); 4-d × 16 levels is 64 bits self (`u64`) and 65 cross (`u128`).
#[test]
fn engines_agree_across_key_type_boundaries() {
    let cfg = BopsConfig::dyadic(16);
    let a = clustered(1 << 15, 43);
    let b = sharing(&a, 44);
    let engine = |plot: Result<sjpl_core::BopsPlot, _>| plot.unwrap().engine_used();
    assert_eq!(engine(bops_plot_self(&a, &cfg)), "sorted-morton-32");
    assert_eq!(engine(bops_plot_cross(&a, &b, &cfg)), "sorted-morton-64");
    assert_cross_matches(&a, &b, cfg);
    assert_self_matches(&a, cfg);
    let blobs = [
        sjpl_datagen::gaussian::Blob {
            mean: [0.2; 4],
            sd: [0.01; 4],
            weight: 3.0,
        },
        sjpl_datagen::gaussian::Blob {
            mean: [0.7; 4],
            sd: [0.05; 4],
            weight: 1.0,
        },
    ];
    let a4 = sjpl_datagen::gaussian::mixture::<4>(1 << 14, &blobs, 45);
    let mut shared = sjpl_datagen::gaussian::mixture::<4>(1 << 14, &blobs, 46)
        .points()
        .to_vec();
    shared.extend_from_slice(&a4.points()[..1 << 12]);
    let b4 = PointSet::new("shared4", shared);
    assert_eq!(engine(bops_plot_self(&a4, &cfg)), "sorted-morton-64");
    assert_eq!(engine(bops_plot_cross(&a4, &b4, &cfg)), "sorted-morton-128");
    assert_cross_matches(&a4, &b4, cfg);
    assert_self_matches(&a4, cfg);
}
