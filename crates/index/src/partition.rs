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
//! 4. **Per-slab forward sweep** ([`crate::sweep::forward_sweep_self`] /
//!    [`crate::sweep::forward_sweep_cross`]) on `std::thread::scope`
//!    workers, one slab per worker.
//! 5. **Mini-partition refinement for skew.** When a slab's working set is
//!    degenerate along axis 0 (its whole extent fits in `≤ 2r` — e.g. a
//!    duplicate-x cluster, or the dense core of a sierpinski/galaxy set at
//!    a large radius), the axis-0 window prunes nothing and the sweep goes
//!    quadratic. The slab then re-sorts its working set along axis 1 and
//!    sweeps there instead, preserving the ownership rule via the points'
//!    original axis-0 ranks.
//!
//! Observability: the planning, sweeping, and merging stages publish
//! `join.partition` / `join.sweep` / `join.merge` spans (workers parent
//! under `join.sweep` across threads) and `join.par_sweep.*` counters.

use sjpl_geom::{Metric, Point};

use crate::sweep::{forward_sweep_cross, forward_sweep_self, SortedByAxis};

/// Below this many owned points per slab, extra slabs cost more than they
/// save (mirrors `psort::MIN_CHUNK` thinking at join granularity).
const MIN_SLAB_POINTS: usize = 4096;

/// Working sets smaller than this never take the mini-partition detour:
/// a quadratic pass over a few hundred points is cheaper than a re-sort.
const MINI_REFINE_MIN: usize = 512;

/// Resolves a thread-count request: `0` means "auto" — the
/// `SJPL_JOIN_THREADS` environment variable if set to a positive integer
/// (the knob CI uses to gate both the single- and multi-threaded paths),
/// else one worker per available CPU.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    if let Some(n) = std::env::var("SJPL_JOIN_THREADS")
        .ok()
        .and_then(|v| thread_override(&v))
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses an `SJPL_JOIN_THREADS` value: a positive integer, surrounding
/// whitespace allowed; anything else (empty, zero, negative, junk) is no
/// override.
fn thread_override(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Number of slabs actually worth cutting for `owned` points on `threads`
/// workers.
fn effective_slabs(owned: usize, threads: usize) -> usize {
    threads.max(1).min(owned.div_ceil(MIN_SLAB_POINTS).max(1))
}

/// Per-worker tallies, accumulated locally (plain integers, no atomics)
/// and published once after the join, `JoinStats`-style.
#[derive(Clone, Copy, Default)]
struct SlabStats {
    /// Points read from neighboring slabs' boundary bands.
    band_points: u64,
    /// Slabs that took the axis-1 mini-partition path.
    mini_refinements: u64,
}

fn publish(slabs: usize, stats: &[SlabStats]) {
    if !sjpl_obs::enabled() {
        return;
    }
    sjpl_obs::counter_add("join.par_sweep.slabs", slabs as u64);
    sjpl_obs::counter_add(
        "join.par_sweep.band_points",
        stats.iter().map(|s| s.band_points).sum(),
    );
    sjpl_obs::counter_add(
        "join.par_sweep.mini_refinements",
        stats.iter().map(|s| s.mini_refinements).sum(),
    );
}

/// Is the working set degenerate along axis 0 — i.e. does its whole extent
/// fit within `2r`, so the sliding window can prune (almost) nothing?
fn axis0_degenerate<const D: usize>(span: f64, len: usize, r: f64) -> bool {
    D >= 2 && len >= MINI_REFINE_MIN && span <= 2.0 * r
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
    let owned = ei - si;
    if axis0_degenerate::<D>(w[w.len() - 1][0] - w[0][0], w.len(), r) {
        stats.mini_refinements += 1;
        mini_self(w, owned, r, metric)
    } else {
        forward_sweep_self(w, owned, 0, r, metric)
    }
}

/// Skew refinement for a self-join slab: sweep the working set along
/// axis 1. Ownership must survive the re-sort, so the sweep walks a rank
/// permutation and counts a pair only when the *lower axis-0 rank* is in
/// the owned prefix — the same dedup rule the axis-0 kernel enforces
/// structurally.
fn mini_self<const D: usize>(w: &[Point<D>], owned: usize, r: f64, metric: Metric) -> u64 {
    let mut order: Vec<u32> = (0..w.len() as u32).collect();
    order.sort_unstable_by(|&i, &j| w[i as usize][1].total_cmp(&w[j as usize][1]));
    let thresh = metric.rdist_threshold(r);
    let mut count = 0u64;
    for (pos, &ui) in order.iter().enumerate() {
        let pu = &w[ui as usize];
        let y = pu[1];
        for &vi in &order[pos + 1..] {
            let pv = &w[vi as usize];
            if pv[1] > y + r {
                break;
            }
            if ui.min(vi) as usize >= owned {
                continue; // both ends in the band: a later slab owns this pair
            }
            if metric.rdist(pu, pv) <= thresh {
                count += 1;
            }
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
    let span = (aw[aw.len() - 1][0].max(bw[bw.len() - 1][0])) - (aw[0][0].min(bw[0][0]));
    if axis0_degenerate::<D>(span, aw.len() + bw.len(), r) {
        stats.mini_refinements += 1;
        // Ownership for cross joins is by a-point alone, so a plain re-sort
        // of both windows along axis 1 needs no rank bookkeeping.
        let ay = SortedByAxis::along(aw, 1);
        let by = SortedByAxis::along(bw, 1);
        forward_sweep_cross(ay.points(), by.points(), 1, r, metric)
    } else {
        forward_sweep_cross(aw, bw, 0, r, metric)
    }
}

/// Shared fan-out: cut `owned_len` ranks into slabs, run `work` per slab on
/// scoped workers under a `join.sweep` span, merge the counts.
fn fan_out<W>(owned_len: usize, threads: usize, work: W) -> u64
where
    W: Fn(usize, usize, &mut SlabStats) -> u64 + Sync,
{
    let k = effective_slabs(owned_len, threads);
    let bounds: Vec<usize> = (0..=k).map(|i| i * owned_len / k).collect();
    let mut counts = vec![0u64; k];
    let mut stats = vec![SlabStats::default(); k];
    {
        let sweep = sjpl_obs::span_with("join.sweep", || format!("slabs={k}"));
        let ctx = sweep.context();
        if k == 1 {
            // No point paying a spawn for a single slab.
            counts[0] = work(bounds[0], bounds[1], &mut stats[0]);
        } else {
            std::thread::scope(|s| {
                for (i, (c, st)) in counts.iter_mut().zip(stats.iter_mut()).enumerate() {
                    let work = &work;
                    let (si, ei) = (bounds[i], bounds[i + 1]);
                    s.spawn(move || {
                        let _worker = sjpl_obs::span_under("join.sweep.worker", ctx);
                        *c = work(si, ei, st);
                    });
                }
            });
        }
    }
    let merge = sjpl_obs::span("join.merge");
    let total = counts.iter().sum();
    publish(k, &stats);
    merge.close();
    total
}

/// Counts unordered pairs within `r` (self-pairs omitted) with the
/// partitioned parallel plane sweep. `threads = 0` means auto (see
/// [`resolve_threads`]). Bit-identical to
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
    let threads = resolve_threads(threads);
    fan_out(pts.len(), threads, |si, ei, stats| {
        slab_self(pts, si, ei, r, metric, stats)
    })
}

/// Counts ordered pairs `(a, b)` with `dist ≤ r` with the partitioned
/// parallel plane sweep. `threads = 0` means auto (see [`resolve_threads`]).
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
    let threads = resolve_threads(threads);
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
    fn duplicate_x_cluster_takes_the_mini_partition_path() {
        // Every point shares x = 0.5: axis 0 prunes nothing, so a slab
        // must refine along axis 1 — and stay exact.
        let n = 2 * MINI_REFINE_MIN;
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<Point<2>> = (0..n).map(|_| Point([0.5, rng.gen()])).collect();
        for r in [0.001, 0.01, 0.2] {
            let expect = nested_self(&a, r, Metric::L2);
            let sorted = SortedByAxis::new(&a);
            let mut st = SlabStats::default();
            let got = slab_self(sorted.points(), 0, sorted.len(), r, Metric::L2, &mut st);
            assert_eq!(got, expect, "r {r}");
            assert_eq!(st.mini_refinements, 1, "refinement should trigger at r {r}");
        }
        // Public API agrees too.
        assert_eq!(
            par_sweep_self_join_count(&a, 0.01, Metric::L2, 4),
            nested_self(&a, 0.01, Metric::L2)
        );
    }

    #[test]
    fn mini_partition_ownership_splits_exactly() {
        // A degenerate-x working set split across two owners: the two
        // mini sweeps must partition the pair set, never double count.
        let n = 2 * MINI_REFINE_MIN;
        let mut rng = StdRng::seed_from_u64(6);
        let a: Vec<Point<2>> = (0..n).map(|_| Point([0.5, rng.gen()])).collect();
        let sorted = SortedByAxis::new(&a);
        let r = 0.05;
        let expect = nested_self(&a, r, Metric::Linf);
        let mid = sorted.len() / 3;
        let mut st = SlabStats::default();
        let first = slab_self(sorted.points(), 0, mid, r, Metric::Linf, &mut st);
        let second = slab_self(sorted.points(), mid, sorted.len(), r, Metric::Linf, &mut st);
        assert_eq!(first + second, expect);
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
        assert_eq!(effective_slabs(100, 8), 1);
        assert_eq!(effective_slabs(MIN_SLAB_POINTS + 1, 8), 2);
        assert_eq!(effective_slabs(10 * MIN_SLAB_POINTS, 4), 4);
        assert_eq!(effective_slabs(0, 4), 1);
    }

    #[test]
    fn resolve_threads_prefers_explicit_over_env() {
        // No env manipulation here (tests run in parallel); just the
        // explicit path.
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn thread_override_takes_positive_integers_only() {
        for (v, want) in [
            ("1", Some(1)),
            ("3", Some(3)),
            (" 8\n", Some(8)),
            ("0", None),
            ("-2", None),
            ("", None),
            ("four", None),
            ("2.5", None),
        ] {
            assert_eq!(thread_override(v), want, "SJPL_JOIN_THREADS={v:?}");
        }
    }
}
