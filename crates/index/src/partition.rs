//! Partitioned parallel plane-sweep distance join.
//!
//! The partition-based parallel in-memory spatial join of Tsitsigkos &
//! Mamoulis (arXiv 1908.11740), adapted to distance joins over points:
//!
//! 1. **Stripe** the sorted input into `K` contiguous slabs along axis 0,
//!    split by *rank* (equal point counts), not by coordinate — rank
//!    splitting keeps slabs balanced under any data distribution.
//! 2. **Replicate the boundary band.** Every pair within distance `r`
//!    differs by at most `r` along axis 0, so a slab only ever needs to see
//!    its own points plus the `±r` band of its neighbors. Because all
//!    workers share one immutable sorted array, replication is free: each
//!    worker's working set is a subslice that extends past its owned range
//!    into the band.
//! 3. **Dedup by ownership.** A self-join pair `{i, j}` (sorted ranks,
//!    `i < j`) is counted only by the slab that owns rank `i`; a cross-join
//!    pair `(a, b)` only by the slab that owns `a`. Every pair is counted
//!    exactly once, so the total is bit-identical to the nested loop for
//!    every thread count — no merge-time dedup structure needed.
//! 4. **Per-slab workers** on [`crate::par::fan_out`], one slab per worker,
//!    `K` from [`crate::par::workers`] with a floor of 4096 owned points.
//! 5. **Strip sweep inside each slab.** A slab's working set is bucketed
//!    into horizontal strips of height `h ≥ r` along axis 1 by one stable
//!    counting pass over `u32` indices, so every strip keeps the axis-0
//!    order. A pair within `r` differs by at most `r` along axis 1 too, so
//!    it lies in one strip or in two neighboring ones; the plane sweep's
//!    forward predicates (`x' > x + r` breaks, `rdist ≤ thresh` counts)
//!    then run within each strip and between neighboring strips only. A
//!    point checks a window `3h` tall instead of the whole `±r` band, so
//!    on 2-d data the sweep evaluates about two distances per reported pair,
//!    and a degenerate slab (a duplicate-x cluster, a dense fractal core at
//!    a large radius) needs no separate path. Strips never change which
//!    slab owns a pair, so the counts stay exact (see [`Strips`]).
//!
//! The serial [`crate::sweep`] join does not use strips: it stays the
//! independent reference this engine is checked against.
//!
//! Observability: the planning, sweeping, and merging stages publish
//! `join.partition` / `join.sweep` / `join.merge` spans (workers parent
//! under `join.sweep` across threads) and `join.par_sweep.*` counters.

use sjpl_geom::{Metric, Point};

use crate::par::workers;
use crate::sweep::SortedByAxis;

/// Below this many owned points per slab, extra slabs cost more than they
/// save.
const MIN_SLAB_POINTS: usize = 4096;

/// Relative margin of the strip height over `r` (`h ≥ r·(1 + 2⁻¹⁶)`); see
/// [`Strips`] for why it makes the strip test exact.
const STRIP_MARGIN: f64 = 1.0 / 65536.0;

/// Per-worker tallies, accumulated locally (plain integers, no atomics)
/// and published once after the join, `JoinStats`-style.
#[derive(Clone, Copy, Default)]
struct SlabStats {
    /// Points read from neighboring slabs' boundary bands.
    band_points: u64,
    /// Distance evaluations: candidate pairs the strip sweep checked.
    candidates: u64,
}

fn publish(slabs: &[(u64, SlabStats)]) {
    if !sjpl_obs::enabled() {
        return;
    }
    sjpl_obs::counter_add("join.par_sweep.slabs", slabs.len() as u64);
    sjpl_obs::counter_add(
        "join.par_sweep.band_points",
        slabs.iter().map(|(_, s)| s.band_points).sum(),
    );
    sjpl_obs::counter_add(
        "join.par_sweep.candidates",
        slabs.iter().map(|(_, s)| s.candidates).sum(),
    );
}

/// Horizontal strips over axis 1: strip `k` holds the points whose
/// `⌊(y − y0) / h⌋` (clamped to the last strip) is `k`.
///
/// *Exactness.* The strip index is monotone in `y`, and clamping only
/// merges strips, so it is enough that two points within `r` never land
/// two strips apart. With `ε = 2⁻⁵²`, their true axis-1 gap is at most
/// `r·(1 + 4ε)`: the distance test computes `|Δy|` (or its power) with a
/// few roundings at most (barring underflow of a squared gap, which the
/// axis-0 break of every plane sweep assumes away too). The computed
/// `t = (y − y0)·(1/h)` carries a relative error below `1.6ε` (two
/// roundings and the rounded reciprocal), and `t ≤ n`, because
/// `h ≥ extent / n`. Two points' `t` thus differ by at most
/// `(1 + 4ε)/(1 + 2⁻¹⁶) + 3.2ε·n`. For any `n < 2³²` (indices are `u32`)
/// that is below 1, so their floors differ by at most 1.
///
/// One strip covers everything, which is the plain plane sweep, when
/// `D = 1`, when the `y`-extent is zero, or when `h` is not finite
/// (`r = ∞`, or an extent that overflows).
struct Strips {
    y0: f64,
    inv_h: f64,
    count: usize,
}

impl Strips {
    /// Strips of height `max(r·(1 + 2⁻¹⁶), extent / n)` over the `y`-range
    /// of `sets` (`n` = their total size), so there are at most `n`.
    fn over<const D: usize>(sets: &[&[Point<D>]], r: f64) -> Self {
        let n: usize = sets.iter().map(|s| s.len()).sum();
        assert!(
            u32::try_from(n).is_ok(),
            "a slab working set must index with u32"
        );
        let one = Strips {
            y0: 0.0,
            inv_h: 0.0,
            count: 1,
        };
        if D < 2 {
            return one;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in sets.iter().flat_map(|s| s.iter()) {
            lo = lo.min(p[1]);
            hi = hi.max(p[1]);
        }
        let extent = hi - lo;
        let h = (r * (1.0 + STRIP_MARGIN)).max(extent / n as f64);
        let inv_h = 1.0 / h;
        if !(extent > 0.0 && h.is_finite() && inv_h.is_finite()) {
            return one;
        }
        // `extent * inv_h` is `of(hi)` before clamping: the top strip.
        Strips {
            y0: lo,
            inv_h,
            count: ((extent * inv_h) as usize).saturating_add(1).min(n),
        }
    }

    /// The strip of axis-1 coordinate `y`.
    #[inline]
    fn of(&self, y: f64) -> usize {
        (((y - self.y0) * self.inv_h) as usize).min(self.count - 1)
    }

    /// One stable counting pass: `(order, starts)` with strip `k` at
    /// `order[starts[k]..starts[k + 1]]`, indices into `pts` ascending.
    fn bucket<const D: usize>(&self, pts: &[Point<D>]) -> (Vec<u32>, Vec<u32>) {
        if self.count == 1 {
            // Also the 1-d case, which has no axis 1 to read.
            return ((0..pts.len() as u32).collect(), vec![0, pts.len() as u32]);
        }
        let mut starts = vec![0u32; self.count + 1];
        for p in pts {
            starts[self.of(p[1]) + 1] += 1;
        }
        for k in 0..self.count {
            starts[k + 1] += starts[k];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; pts.len()];
        for (i, p) in pts.iter().enumerate() {
            let k = self.of(p[1]);
            order[next[k] as usize] = i as u32;
            next[k] += 1;
        }
        (order, starts)
    }
}

/// The distance test both strip kernels run: `r` bounds the axis-0 scan,
/// `thresh` is `r` in the metric's ranking space.
#[derive(Clone, Copy)]
struct Within {
    r: f64,
    thresh: f64,
    metric: Metric,
}

impl Within {
    fn new(r: f64, metric: Metric) -> Self {
        Within {
            r,
            thresh: metric.rdist_threshold(r),
            metric,
        }
    }
}

/// Strip `k` of a bucketing.
fn strip<'a>(order: &'a [u32], starts: &[u32], k: usize) -> &'a [u32] {
    &order[starts[k] as usize..starts[k + 1] as usize]
}

/// Self-join strip kernel: for every owned `i` (`i < owned`) in `src`,
/// counts the `j > i` of `dst` within `r`, scanning `dst` forward along
/// axis 0. Both strips list indices into `w` in ascending order, so with
/// `src == dst` this is the plane sweep's forward kernel on one strip, and
/// across two strips every pair is seen once, from its lower rank.
fn forward_self<const D: usize>(
    w: &[Point<D>],
    src: &[u32],
    dst: &[u32],
    owned: u32,
    within: Within,
    candidates: &mut u64,
) -> u64 {
    let Within { r, thresh, metric } = within;
    let mut count = 0u64;
    let mut lo = 0usize;
    for &i in src {
        if i >= owned {
            break; // the rest of `src` lies in the band: later slabs own it
        }
        while lo < dst.len() && dst[lo] <= i {
            lo += 1;
        }
        let pi = &w[i as usize];
        let x = pi[0];
        let mut seen = 0u64;
        for &j in &dst[lo..] {
            let pj = &w[j as usize];
            if pj[0] > x + r {
                break;
            }
            seen += 1;
            if metric.rdist(pi, pj) <= thresh {
                count += 1;
            }
        }
        *candidates += seen;
    }
    count
}

/// Cross-join strip kernel: counts `(a, b)` within `r` with `a` listed in
/// `sa` and `b` in `sb`, the plane sweep's sliding `±r` window over the
/// `b` strip.
fn forward_cross<const D: usize>(
    aw: &[Point<D>],
    bw: &[Point<D>],
    sa: &[u32],
    sb: &[u32],
    within: Within,
    candidates: &mut u64,
) -> u64 {
    let Within { r, thresh, metric } = within;
    let mut count = 0u64;
    let mut lo = 0usize;
    for &ia in sa {
        let pa = &aw[ia as usize];
        let x = pa[0];
        while lo < sb.len() && bw[sb[lo] as usize][0] < x - r {
            lo += 1;
        }
        let mut seen = 0u64;
        for &ib in &sb[lo..] {
            let pb = &bw[ib as usize];
            if pb[0] > x + r {
                break;
            }
            seen += 1;
            if metric.rdist(pa, pb) <= thresh {
                count += 1;
            }
        }
        *candidates += seen;
    }
    count
}

/// One self-join slab: count pairs `{i, j}` (global sorted ranks, `i < j`)
/// whose lower rank `i` falls in `[si, ei)`.
fn slab_self<const D: usize>(
    pts: &[Point<D>],
    si: usize,
    ei: usize,
    r: f64,
    metric: Metric,
    stats: &mut SlabStats,
) -> u64 {
    if si >= ei {
        return 0;
    }
    // The forward reach: the last owned point can only pair up to x + r.
    let hi_x = pts[ei - 1][0] + r;
    let ext = ei + pts[ei..].partition_point(|p| p[0] <= hi_x);
    stats.band_points += (ext - ei) as u64;
    let w = &pts[si..ext];
    let strips = Strips::over(&[w], r);
    let owned = (ei - si) as u32; // fits: `over` checked `w.len()`
    let (order, starts) = strips.bucket(w);
    let within = Within::new(r, metric);
    let cand = &mut stats.candidates;
    let mut count = 0u64;
    for k in 0..strips.count {
        let here = strip(&order, &starts, k);
        count += forward_self(w, here, here, owned, within, cand);
        if k + 1 < strips.count {
            let up = strip(&order, &starts, k + 1);
            count += forward_self(w, here, up, owned, within, cand);
            count += forward_self(w, up, here, owned, within, cand);
        }
    }
    count
}

/// One cross-join slab: count ordered pairs `(a, b)` with `a` owned by
/// `[si, ei)` against the `±r` band of `b`.
fn slab_cross<const D: usize>(
    a: &[Point<D>],
    si: usize,
    ei: usize,
    b: &[Point<D>],
    r: f64,
    metric: Metric,
    stats: &mut SlabStats,
) -> u64 {
    if si >= ei {
        return 0;
    }
    let lo_x = a[si][0] - r;
    let hi_x = a[ei - 1][0] + r;
    let b_lo = b.partition_point(|p| p[0] < lo_x);
    let b_hi = b_lo + b[b_lo..].partition_point(|p| p[0] <= hi_x);
    let aw = &a[si..ei];
    let bw = &b[b_lo..b_hi];
    if bw.is_empty() {
        return 0;
    }
    stats.band_points += bw.len() as u64;
    let strips = Strips::over(&[aw, bw], r);
    let (a_order, a_starts) = strips.bucket(aw);
    let (b_order, b_starts) = strips.bucket(bw);
    let within = Within::new(r, metric);
    let mut count = 0u64;
    for k in 0..strips.count {
        let sa = strip(&a_order, &a_starts, k);
        for kb in k.saturating_sub(1)..(k + 2).min(strips.count) {
            let sb = strip(&b_order, &b_starts, kb);
            count += forward_cross(aw, bw, sa, sb, within, &mut stats.candidates);
        }
    }
    count
}

/// Shared fan-out: cut `owned_len` ranks into slabs, run `work` per slab on
/// scoped workers under a `join.sweep` span, merge the counts.
fn fan_out<W>(owned_len: usize, threads: usize, work: W) -> u64
where
    W: Fn(usize, usize, &mut SlabStats) -> u64 + Sync,
{
    let k = workers(owned_len, MIN_SLAB_POINTS, threads);
    let slabs = {
        let sweep = sjpl_obs::span_with("join.sweep", || format!("slabs={k}"));
        let ctx = sweep.context();
        crate::par::fan_out(0..k, |i| {
            let _worker = (k > 1).then(|| sjpl_obs::span_under("join.sweep.worker", ctx));
            let mut stats = SlabStats::default();
            let count = work(i * owned_len / k, (i + 1) * owned_len / k, &mut stats);
            (count, stats)
        })
    };
    let merge = sjpl_obs::span("join.merge");
    let total = slabs.iter().map(|(count, _)| count).sum();
    publish(&slabs);
    merge.close();
    total
}

/// Counts unordered pairs within `r` (self-pairs omitted) with the
/// partitioned parallel plane sweep. `threads = 0` means one worker per
/// CPU (see [`crate::par::workers`]). Bit-identical to
/// [`crate::join::JoinAlgorithm::NestedLoop`] for every thread count.
pub fn par_sweep_self_join_count<const D: usize>(
    a: &[Point<D>],
    r: f64,
    metric: Metric,
    threads: usize,
) -> u64 {
    if a.len() < 2 || r.is_nan() || r < 0.0 {
        return 0;
    }
    let part = sjpl_obs::span_with("join.partition", || format!("points={}", a.len()));
    let sorted = SortedByAxis::new(a);
    part.close();
    par_sweep_self_join_count_sorted(&sorted, r, metric, threads)
}

/// [`par_sweep_self_join_count`] over a pre-sorted set — sort once, query
/// at many radii (the drift monitor and the bench accuracy matrix).
pub fn par_sweep_self_join_count_sorted<const D: usize>(
    sorted: &SortedByAxis<D>,
    r: f64,
    metric: Metric,
    threads: usize,
) -> u64 {
    assert_eq!(
        sorted.axis(),
        0,
        "the partitioned sweep stripes along axis 0"
    );
    let pts = sorted.points();
    if pts.len() < 2 || r.is_nan() || r < 0.0 {
        return 0;
    }
    fan_out(pts.len(), threads, |si, ei, stats| {
        slab_self(pts, si, ei, r, metric, stats)
    })
}

/// Counts ordered pairs `(a, b)` with `dist ≤ r` with the partitioned
/// parallel plane sweep. `threads = 0` means one worker per CPU (see
/// [`crate::par::workers`]).
pub fn par_sweep_join_count<const D: usize>(
    a: &[Point<D>],
    b: &[Point<D>],
    r: f64,
    metric: Metric,
    threads: usize,
) -> u64 {
    if a.is_empty() || b.is_empty() || r.is_nan() || r < 0.0 {
        return 0;
    }
    let part = sjpl_obs::span_with("join.partition", || {
        format!("points={}x{}", a.len(), b.len())
    });
    let sa = SortedByAxis::new(a);
    let sb = SortedByAxis::new(b);
    part.close();
    par_sweep_join_count_sorted(&sa, &sb, r, metric, threads)
}

/// [`par_sweep_join_count`] over pre-sorted sets.
pub fn par_sweep_join_count_sorted<const D: usize>(
    a: &SortedByAxis<D>,
    b: &SortedByAxis<D>,
    r: f64,
    metric: Metric,
    threads: usize,
) -> u64 {
    assert_eq!(a.axis(), 0, "the partitioned sweep stripes along axis 0");
    assert_eq!(b.axis(), 0, "the partitioned sweep stripes along axis 0");
    let (pa, pb) = (a.points(), b.points());
    if pa.is_empty() || pb.is_empty() || r.is_nan() || r < 0.0 {
        return 0;
    }
    fan_out(pa.len(), threads, |si, ei, stats| {
        slab_cross(pa, si, ei, pb, r, metric, stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut c = [0.0; D];
                for v in c.iter_mut() {
                    *v = rng.gen();
                }
                Point(c)
            })
            .collect()
    }

    fn nested_self<const D: usize>(a: &[Point<D>], r: f64, m: Metric) -> u64 {
        let thresh = m.rdist_threshold(r);
        let mut c = 0u64;
        for i in 0..a.len() {
            for pj in &a[i + 1..] {
                if m.rdist(&a[i], pj) <= thresh {
                    c += 1;
                }
            }
        }
        c
    }

    fn nested_cross<const D: usize>(a: &[Point<D>], b: &[Point<D>], r: f64, m: Metric) -> u64 {
        let thresh = m.rdist_threshold(r);
        a.iter()
            .flat_map(|pa| b.iter().map(move |pb| m.rdist(pa, pb)))
            .filter(|&d| d <= thresh)
            .count() as u64
    }

    #[test]
    fn self_join_matches_nested_loop_across_thread_counts() {
        let a = random_points::<2>(900, 1);
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            for r in [0.01, 0.1, 0.5] {
                let expect = nested_self(&a, r, m);
                for t in [1, 2, 3, 8] {
                    assert_eq!(
                        par_sweep_self_join_count(&a, r, m, t),
                        expect,
                        "m {m:?} r {r} threads {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn cross_join_matches_nested_loop_across_thread_counts() {
        let a = random_points::<3>(500, 2);
        let b = random_points::<3>(420, 3);
        for m in [Metric::L2, Metric::Linf] {
            for r in [0.05, 0.3, 0.9] {
                let expect = nested_cross(&a, &b, r, m);
                for t in [1, 2, 8] {
                    assert_eq!(
                        par_sweep_join_count(&a, &b, r, m, t),
                        expect,
                        "m {m:?} r {r} threads {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn forced_many_slabs_still_exact() {
        // Force genuine multi-slab splits on a small set by sweeping over
        // internal slab boundaries directly (MIN_SLAB_POINTS would
        // otherwise collapse this to one slab).
        let a = random_points::<2>(700, 4);
        let sorted = SortedByAxis::new(&a);
        for m in [Metric::L2, Metric::Linf] {
            for r in [0.02, 0.15] {
                let expect = nested_self(&a, r, m);
                for k in [2usize, 3, 7, 16] {
                    let bounds: Vec<usize> = (0..=k).map(|i| i * sorted.len() / k).collect();
                    let mut st = SlabStats::default();
                    let total: u64 = (0..k)
                        .map(|i| {
                            slab_self(sorted.points(), bounds[i], bounds[i + 1], r, m, &mut st)
                        })
                        .sum();
                    assert_eq!(total, expect, "m {m:?} r {r} slabs {k}");
                }
            }
        }
    }

    #[test]
    fn duplicate_x_cluster_stays_exact_and_strips_prune_it() {
        // Every point shares x = 0.5: axis 0 prunes nothing, so only the
        // strips keep the slab from going quadratic — and it must stay
        // exact at every radius, up to one that swallows the whole set.
        let n = 1024;
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<Point<2>> = (0..n).map(|_| Point([0.5, rng.gen()])).collect();
        let sorted = SortedByAxis::new(&a);
        for r in [0.0, 0.001, 0.01, 0.2, 1.0] {
            let expect = nested_self(&a, r, Metric::L2);
            let mut st = SlabStats::default();
            let got = slab_self(sorted.points(), 0, sorted.len(), r, Metric::L2, &mut st);
            assert_eq!(got, expect, "r {r}");
            if r <= 0.01 {
                assert!(
                    st.candidates < (n * n / 20) as u64,
                    "r {r}: {} candidates, the strips pruned nothing",
                    st.candidates
                );
            }
        }
        // Public API agrees too.
        assert_eq!(
            par_sweep_self_join_count(&a, 0.01, Metric::L2, 4),
            nested_self(&a, 0.01, Metric::L2)
        );
    }

    #[test]
    fn strip_ownership_splits_exactly() {
        // A degenerate-x working set split across two owners: the two
        // strip sweeps must partition the pair set, never double count.
        let n = 1024;
        let mut rng = StdRng::seed_from_u64(6);
        let a: Vec<Point<2>> = (0..n).map(|_| Point([0.5, rng.gen()])).collect();
        let sorted = SortedByAxis::new(&a);
        for r in [0.0005, 0.05] {
            let expect = nested_self(&a, r, Metric::Linf);
            for mid in [1, sorted.len() / 3, sorted.len() - 1] {
                let mut st = SlabStats::default();
                let first = slab_self(sorted.points(), 0, mid, r, Metric::Linf, &mut st);
                let second =
                    slab_self(sorted.points(), mid, sorted.len(), r, Metric::Linf, &mut st);
                assert_eq!(first + second, expect, "r {r} split at {mid}");
            }
        }
    }

    #[test]
    fn strip_geometry_edge_cases() {
        let a = random_points::<2>(100, 10);
        let flat: Vec<Point<2>> = a.iter().map(|p| Point([p[0], 0.25])).collect();
        let line = random_points::<1>(100, 11);
        // One strip: r = ∞, zero y-extent, 1-d input.
        assert_eq!(Strips::over(&[&a], f64::INFINITY).count, 1);
        assert_eq!(Strips::over(&[&flat], 0.01).count, 1);
        assert_eq!(Strips::over(&[&line], 0.01).count, 1);
        // r = 0 and tiny radii cap at the working-set size.
        assert_eq!(Strips::over(&[&a], 0.0).count, a.len());
        assert_eq!(Strips::over(&[&a, &a], 1e-12).count, 2 * a.len());
        // A radius past the extent leaves one or two strips.
        assert!(Strips::over(&[&a], 2.0).count <= 2);
        // Every strip index is in range and the bucketing is stable.
        let s = Strips::over(&[&a], 0.1);
        let (order, starts) = s.bucket(&a);
        assert_eq!(starts[s.count] as usize, a.len());
        for k in 0..s.count {
            let st = strip(&order, &starts, k);
            assert!(st.windows(2).all(|w| w[0] < w[1]), "strip {k} not stable");
            assert!(st.iter().all(|&i| s.of(a[i as usize][1]) == k));
        }
    }

    #[test]
    fn one_dimensional_inputs_never_touch_axis_one() {
        let a = random_points::<1>(800, 7);
        for r in [0.0005, 0.01, 0.3] {
            assert_eq!(
                par_sweep_self_join_count(&a, r, Metric::L2, 8),
                nested_self(&a, r, Metric::L2)
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        let a = random_points::<2>(50, 8);
        let none: Vec<Point<2>> = vec![];
        assert_eq!(par_sweep_self_join_count(&none, 0.1, Metric::L2, 4), 0);
        assert_eq!(par_sweep_join_count(&none, &a, 0.1, Metric::L2, 4), 0);
        assert_eq!(par_sweep_join_count(&a, &none, 0.1, Metric::L2, 4), 0);
        assert_eq!(par_sweep_self_join_count(&a, -1.0, Metric::L2, 4), 0);
        assert_eq!(par_sweep_self_join_count(&a, f64::NAN, Metric::L2, 4), 0);
        assert_eq!(par_sweep_self_join_count(&a[..1], 0.1, Metric::L2, 4), 0);
    }

    #[test]
    fn non_finite_points_are_dropped() {
        let mut a = random_points::<2>(300, 9);
        let clean = a.clone();
        a.push(Point([f64::NAN, 0.1]));
        a.push(Point([f64::INFINITY, 0.1]));
        assert_eq!(
            par_sweep_self_join_count(&a, 0.1, Metric::L2, 4),
            par_sweep_self_join_count(&clean, 0.1, Metric::L2, 4)
        );
    }

    #[test]
    fn effective_slabs_respects_floor() {
        let slabs = |owned, threads| workers(owned, MIN_SLAB_POINTS, threads);
        assert_eq!(slabs(100, 8), 1);
        assert_eq!(slabs(MIN_SLAB_POINTS + 1, 8), 2);
        assert_eq!(slabs(10 * MIN_SLAB_POINTS, 4), 4);
        assert_eq!(slabs(0, 4), 1);
        assert_eq!(slabs(MIN_SLAB_POINTS, 0), 1);
    }
}
