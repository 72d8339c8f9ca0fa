//! The exact quadratic pair-distance histogram — the paper's "PC-plot
//! method" and this workspace's ground truth.
//!
//! Evaluating `PC(r)` naively costs one O(N·M) scan *per radius*. Instead we
//! make a single O(N·M) pass that records every pair distance into a
//! log-spaced [`LogHistogram`]; the histogram's cumulative counts then give
//! `PC(r)` at every bin edge simultaneously. The pass is embarrassingly
//! parallel, so a multi-threaded variant (on [`crate::par::fan_out`]) is
//! provided for the Table 5 timing experiments.

use sjpl_geom::{Metric, Point};
use sjpl_stats::LogHistogram;

use crate::par::{fan_out, workers};

/// Minimum rows of `A` handed to one worker thread. Below this, the
/// per-thread histogram clone + spawn + merge costs more than the chunk's
/// distance computations, so the thread count is clamped down rather than
/// fanning out tiny slices.
pub const MIN_ROWS_PER_THREAD: usize = 1024;

/// Sequential exact pass: records the distance of every cross pair
/// `(a, b) ∈ A × B` into `hist`.
pub fn cross_distance_histogram<const D: usize>(
    a: &[Point<D>],
    b: &[Point<D>],
    metric: Metric,
    hist: &mut LogHistogram,
) {
    for pa in a {
        for pb in b {
            hist.record(metric.dist(pa, pb));
        }
    }
}

/// Sequential exact pass for a self join: records each unordered pair
/// `{i, j}, i < j` once, omitting self-pairs — the paper's Definition 1
/// convention for `A == B`.
pub fn self_distance_histogram<const D: usize>(
    a: &[Point<D>],
    metric: Metric,
    hist: &mut LogHistogram,
) {
    for i in 0..a.len() {
        let pi = &a[i];
        for pj in &a[i + 1..] {
            hist.record(metric.dist(pi, pj));
        }
    }
}

/// Multi-threaded exact cross pass: splits `A` into chunks, one empty
/// histogram per worker, merged into `hist` at the end. Exact same counts
/// as the sequential version. `threads = 0` means one worker per CPU; the
/// count is clamped so no worker gets fewer than [`MIN_ROWS_PER_THREAD`]
/// rows of `A`.
pub fn par_cross_distance_histogram<const D: usize>(
    a: &[Point<D>],
    b: &[Point<D>],
    metric: Metric,
    hist: &mut LogHistogram,
    threads: usize,
) {
    let threads = workers(a.len(), MIN_ROWS_PER_THREAD, threads);
    let empty = empty_like(hist);
    let chunks = a.chunks(a.len().div_ceil(threads).max(1));
    let partials = fan_out(chunks, |rows| {
        let mut local = empty.clone();
        cross_distance_histogram(rows, b, metric, &mut local);
        local
    });
    for p in &partials {
        hist.merge(p);
    }
}

/// Multi-threaded exact self pass. Work is split by strided rows (row `i`
/// costs `n − i − 1` inner iterations, so contiguous chunks would be badly
/// unbalanced; striding balances within ~1 row). The thread count is
/// resolved and clamped as in [`par_cross_distance_histogram`].
pub fn par_self_distance_histogram<const D: usize>(
    a: &[Point<D>],
    metric: Metric,
    hist: &mut LogHistogram,
    threads: usize,
) {
    let threads = workers(a.len(), MIN_ROWS_PER_THREAD, threads);
    let empty = empty_like(hist);
    let partials = fan_out(0..threads, move |t| {
        let mut local = empty.clone();
        for i in (t..a.len()).step_by(threads) {
            let pi = &a[i];
            for pj in &a[i + 1..] {
                local.record(metric.dist(pi, pj));
            }
        }
        local
    });
    for p in &partials {
        hist.merge(p);
    }
}

/// A histogram with `hist`'s geometry and no counts: the workers' partials
/// must not carry what `hist` already holds, or the merge would count it
/// once per worker.
fn empty_like(hist: &LogHistogram) -> LogHistogram {
    LogHistogram::new(hist.lo(), hist.hi(), hist.bins())
        .expect("an existing histogram's geometry is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n_side: usize) -> Vec<Point<2>> {
        let mut v = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                v.push(Point([i as f64, j as f64]));
            }
        }
        v
    }

    #[test]
    fn cross_histogram_total_is_nm() {
        let a = grid_points(5);
        let b = grid_points(3);
        let mut h = LogHistogram::new(1e-3, 100.0, 16).unwrap();
        cross_distance_histogram(&a, &b, Metric::Linf, &mut h);
        assert_eq!(h.total(), (a.len() * b.len()) as u64);
    }

    #[test]
    fn self_histogram_total_is_n_choose_2() {
        let a = grid_points(6);
        let mut h = LogHistogram::new(1e-3, 100.0, 16).unwrap();
        self_distance_histogram(&a, Metric::L2, &mut h);
        let n = a.len() as u64;
        assert_eq!(h.total(), n * (n - 1) / 2);
    }

    #[test]
    fn cumulative_matches_brute_force_count() {
        let a = grid_points(4);
        let b: Vec<Point<2>> = grid_points(4)
            .iter()
            .map(|p| *p + Point([0.3, 0.1]))
            .collect();
        let mut h = LogHistogram::new(1e-2, 20.0, 24).unwrap();
        cross_distance_histogram(&a, &b, Metric::Linf, &mut h);
        for (edge, count) in h.cumulative() {
            let brute = a
                .iter()
                .flat_map(|pa| b.iter().map(move |pb| pa.dist_linf(pb)))
                .filter(|&d| d <= edge)
                .count() as u64;
            // Edge fuzz can move boundary-exact pairs by one bin; here no
            // distance equals an edge so counts must agree exactly.
            assert_eq!(count, brute, "at edge {edge}");
        }
    }

    #[test]
    fn parallel_cross_matches_sequential() {
        let a = grid_points(9);
        let b = grid_points(7);
        let mut hs = LogHistogram::new(1e-2, 50.0, 20).unwrap();
        cross_distance_histogram(&a, &b, Metric::L2, &mut hs);
        for threads in [2, 3, 8, 64] {
            let mut hp = LogHistogram::new(1e-2, 50.0, 20).unwrap();
            par_cross_distance_histogram(&a, &b, Metric::L2, &mut hp, threads);
            assert_eq!(hp.counts(), hs.counts(), "threads = {threads}");
            assert_eq!(hp.underflow(), hs.underflow());
            assert_eq!(hp.overflow(), hs.overflow());
        }
    }

    #[test]
    fn parallel_self_matches_sequential() {
        let a = grid_points(9);
        let mut hs = LogHistogram::new(1e-2, 50.0, 20).unwrap();
        self_distance_histogram(&a, Metric::L1, &mut hs);
        for threads in [2, 5, 16] {
            let mut hp = LogHistogram::new(1e-2, 50.0, 20).unwrap();
            par_self_distance_histogram(&a, Metric::L1, &mut hp, threads);
            assert_eq!(hp.counts(), hs.counts(), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_passes_add_to_a_histogram_that_already_holds_counts() {
        let a: Vec<Point<2>> = (0..MIN_ROWS_PER_THREAD + 100)
            .map(|i| Point([(i % 61) as f64, (i % 37) as f64]))
            .collect();
        let b = grid_points(3);
        let fresh = || {
            let mut h = LogHistogram::new(1e-2, 100.0, 20).unwrap();
            h.record(0.5);
            h
        };
        let (mut cs, mut ss) = (fresh(), fresh());
        cross_distance_histogram(&a, &b, Metric::L2, &mut cs);
        self_distance_histogram(&a, Metric::L2, &mut ss);
        for threads in [1, 2, 3] {
            let (mut cp, mut sp) = (fresh(), fresh());
            par_cross_distance_histogram(&a, &b, Metric::L2, &mut cp, threads);
            par_self_distance_histogram(&a, Metric::L2, &mut sp, threads);
            assert_eq!(cp.counts(), cs.counts(), "cross, threads = {threads}");
            assert_eq!(sp.counts(), ss.counts(), "self, threads = {threads}");
        }
    }

    #[test]
    fn thread_count_clamps_to_min_chunk_rows() {
        // Below one chunk's worth of rows everything collapses to 1 thread;
        // beyond that, one thread per started chunk, never more than asked.
        let rows = |n, threads| workers(n, MIN_ROWS_PER_THREAD, threads);
        assert_eq!(rows(0, 8), 1);
        assert_eq!(rows(MIN_ROWS_PER_THREAD, 8), 1);
        assert_eq!(rows(MIN_ROWS_PER_THREAD + 1, 8), 2);
        assert_eq!(rows(10 * MIN_ROWS_PER_THREAD, 4), 4);
        assert_eq!(rows(3 * MIN_ROWS_PER_THREAD, 64), 3);
        // 0 is auto: one worker per CPU, still under the row floor.
        assert_eq!(rows(MIN_ROWS_PER_THREAD, 0), 1);
        assert!(rows(usize::MAX, 0) >= 1);
    }

    #[test]
    fn parallel_path_exact_above_clamp_threshold() {
        // 1.5 chunks of rows: 2 workers actually spawn, counts stay exact.
        let n = MIN_ROWS_PER_THREAD * 3 / 2;
        let a: Vec<Point<2>> = (0..n)
            .map(|i| Point([(i % 53) as f64, (i % 31) as f64]))
            .collect();
        let b = grid_points(4);
        let mut hs = LogHistogram::new(1e-2, 100.0, 20).unwrap();
        cross_distance_histogram(&a, &b, Metric::L2, &mut hs);
        let mut hp = LogHistogram::new(1e-2, 100.0, 20).unwrap();
        par_cross_distance_histogram(&a, &b, Metric::L2, &mut hp, 8);
        assert_eq!(hp.counts(), hs.counts());
        assert_eq!(hp.total(), (n * b.len()) as u64);

        let mut ss = LogHistogram::new(1e-2, 100.0, 20).unwrap();
        self_distance_histogram(&a[..MIN_ROWS_PER_THREAD + 100], Metric::L2, &mut ss);
        let mut sp = LogHistogram::new(1e-2, 100.0, 20).unwrap();
        par_self_distance_histogram(&a[..MIN_ROWS_PER_THREAD + 100], Metric::L2, &mut sp, 8);
        assert_eq!(sp.counts(), ss.counts());
    }

    #[test]
    fn empty_inputs_yield_empty_histograms() {
        let empty: Vec<Point<2>> = Vec::new();
        let b = grid_points(3);
        let mut h = LogHistogram::new(1e-2, 10.0, 8).unwrap();
        cross_distance_histogram(&empty, &b, Metric::Linf, &mut h);
        assert_eq!(h.total(), 0);
        par_cross_distance_histogram(&empty, &b, Metric::Linf, &mut h, 4);
        assert_eq!(h.total(), 0);
        let mut h2 = LogHistogram::new(1e-2, 10.0, 8).unwrap();
        self_distance_histogram(&empty, Metric::Linf, &mut h2);
        assert_eq!(h2.total(), 0);
    }

    #[test]
    fn single_point_self_join_has_no_pairs() {
        let one = vec![Point([0.5, 0.5])];
        let mut h = LogHistogram::new(1e-2, 10.0, 8).unwrap();
        self_distance_histogram(&one, Metric::Linf, &mut h);
        assert_eq!(h.total(), 0);
    }
}
