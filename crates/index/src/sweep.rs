//! Plane-sweep distance join.
//!
//! The one-dimensional "band join" generalized: sort both sets by one
//! coordinate axis; for each point of `A`, only points of `B` whose sort-axis
//! coordinate lies within `±r` can join (for *every* Lp metric a single
//! axis difference lower-bounds the distance). A sliding window over the
//! sorted `B` enumerates exactly those candidates. Excellent in low
//! dimensions where the sort axis is selective; degrades gracefully to the
//! quadratic scan when it is not.
//!
//! The module is split into two layers:
//!
//! * [`forward_sweep_cross`] / [`forward_sweep_self`] — the forward-sweep
//!   **kernels**: they assume already-sorted input, are parameterized by
//!   the sweep axis, and take an owned prefix for the self join. The
//!   partitioned parallel join ([`crate::partition`]) runs the same
//!   predicates over axis-1 strips of each slab but not these kernels, so
//!   this module stays the independent serial reference it is checked
//!   against.
//! * [`sweep_join_count`] / [`sweep_self_join_count`] — the serial
//!   public entry points: validate, sort, run the kernel over one
//!   partition covering everything.
//!
//! Sorting uses [`f64::total_cmp`], so a NaN coordinate can never panic the
//! sort. Points with a non-finite coordinate are filtered out up front: for
//! any finite radius a NaN coordinate makes every distance comparison false,
//! and an infinite coordinate puts the point outside every finite-radius
//! ball, so dropping them matches the nested-loop reference on finite data
//! while keeping the sliding-window arithmetic (`x ± r`) well defined.

use sjpl_geom::{Metric, Point};

/// A point set sorted once along one coordinate axis, with non-finite
/// points filtered out — the precondition of every sweep kernel, made
/// reusable: build it once, then run [`sweep_join_count`]-equivalent
/// queries at many radii (the drift monitor's three probe radii, the bench
/// accuracy matrix's radius sweep) without paying the `O(N log N)` sort or
/// the finite check again.
#[derive(Clone, Debug)]
pub struct SortedByAxis<const D: usize> {
    axis: usize,
    pts: Vec<Point<D>>,
    dropped: usize,
}

impl<const D: usize> SortedByAxis<D> {
    /// Filters non-finite points and sorts the remainder by axis 0 (the
    /// sweep axis of the serial and partitioned joins).
    pub fn new(pts: &[Point<D>]) -> Self {
        Self::along(pts, 0)
    }

    /// [`SortedByAxis::new`] along an arbitrary axis (`axis < D`).
    pub fn along(pts: &[Point<D>], axis: usize) -> Self {
        assert!(axis < D, "sort axis {axis} out of range for {D}-d points");
        let mut v: Vec<Point<D>> = pts
            .iter()
            .filter(|p| (0..D).all(|i| p[i].is_finite()))
            .copied()
            .collect();
        let dropped = pts.len() - v.len();
        v.sort_unstable_by(|a, b| a[axis].total_cmp(&b[axis]));
        SortedByAxis {
            axis,
            pts: v,
            dropped,
        }
    }

    /// The retained points, ascending along the sort axis.
    pub fn points(&self) -> &[Point<D>] {
        &self.pts
    }

    /// The axis the points are sorted by.
    pub fn axis(&self) -> usize {
        self.axis
    }

    /// How many input points were dropped for carrying a non-finite
    /// coordinate.
    pub fn dropped_non_finite(&self) -> usize {
        self.dropped
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// Whether no points were retained.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }
}

/// The cross-join forward-sweep kernel: counts ordered pairs `(a, b)` with
/// `dist(a, b) ≤ r`. Both slices must be sorted ascending by `axis` (the
/// partitioned join hands in per-slab subslices; the serial join hands in
/// everything). `r` must be non-negative and non-NaN.
pub fn forward_sweep_cross<const D: usize>(
    a: &[Point<D>],
    b: &[Point<D>],
    axis: usize,
    r: f64,
    metric: Metric,
) -> u64 {
    let thresh = metric.rdist_threshold(r);
    let mut count = 0u64;
    let mut lo = 0usize;
    for pa in a {
        let x = pa[axis];
        while lo < b.len() && b[lo][axis] < x - r {
            lo += 1;
        }
        for pb in &b[lo..] {
            if pb[axis] > x + r {
                break;
            }
            if metric.rdist(pa, pb) <= thresh {
                count += 1;
            }
        }
    }
    count
}

/// The self-join forward-sweep kernel: counts unordered pairs `{i, j}` with
/// `i < j`, `i < owned`, and `dist ≤ r` over a slice sorted ascending by
/// `axis`. With `owned == pts.len()` this is the whole self join; the
/// partitioned join passes the slab's owned prefix so each worker counts
/// exactly the pairs whose lower-ranked endpoint it owns, while the forward
/// scan is free to read into the replicated boundary band that follows.
pub fn forward_sweep_self<const D: usize>(
    pts: &[Point<D>],
    owned: usize,
    axis: usize,
    r: f64,
    metric: Metric,
) -> u64 {
    let thresh = metric.rdist_threshold(r);
    let mut count = 0u64;
    for i in 0..owned.min(pts.len()) {
        let x = pts[i][axis];
        for pj in &pts[i + 1..] {
            if pj[axis] > x + r {
                break;
            }
            if metric.rdist(&pts[i], pj) <= thresh {
                count += 1;
            }
        }
    }
    count
}

/// Counts ordered pairs `(a, b)` with `dist(a, b) ≤ r` by plane sweep.
pub fn sweep_join_count<const D: usize>(
    a: &[Point<D>],
    b: &[Point<D>],
    r: f64,
    metric: Metric,
) -> u64 {
    if a.is_empty() || b.is_empty() || r.is_nan() || r < 0.0 {
        return 0;
    }
    let a = SortedByAxis::new(a);
    let b = SortedByAxis::new(b);
    forward_sweep_cross(a.points(), b.points(), 0, r, metric)
}

/// Counts unordered pairs within `r` in one set (self-pairs omitted) by
/// plane sweep.
pub fn sweep_self_join_count<const D: usize>(a: &[Point<D>], r: f64, metric: Metric) -> u64 {
    if a.len() < 2 || r.is_nan() || r < 0.0 {
        return 0;
    }
    let a = SortedByAxis::new(a);
    forward_sweep_self(a.points(), a.len(), 0, r, metric)
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
    fn cross_matches_brute_force() {
        let a = random_points(300, 1);
        let b = random_points(280, 2);
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            for r in [0.01, 0.07, 0.3, 1.5] {
                let brute = a
                    .iter()
                    .flat_map(|pa| b.iter().map(move |pb| m.dist(pa, pb)))
                    .filter(|&d| d <= r)
                    .count() as u64;
                assert_eq!(sweep_join_count(&a, &b, r, m), brute, "m {m:?} r {r}");
            }
        }
    }

    #[test]
    fn self_matches_brute_force() {
        let a = random_points(350, 3);
        for r in [0.02, 0.12, 0.6] {
            let mut brute = 0u64;
            for i in 0..a.len() {
                for j in (i + 1)..a.len() {
                    if a[i].dist_l1(&a[j]) <= r {
                        brute += 1;
                    }
                }
            }
            assert_eq!(sweep_self_join_count(&a, r, Metric::L1), brute, "r {r}");
        }
    }

    #[test]
    fn duplicate_x_coordinates() {
        // Many points sharing x: the window must not skip equal keys.
        let a: Vec<Point<2>> = (0..50).map(|i| Point([0.5, i as f64 * 0.01])).collect();
        let brute = {
            let mut c = 0u64;
            for i in 0..a.len() {
                for j in (i + 1)..a.len() {
                    if a[i].dist_linf(&a[j]) <= 0.05 {
                        c += 1;
                    }
                }
            }
            c
        };
        assert_eq!(sweep_self_join_count(&a, 0.05, Metric::Linf), brute);
    }

    #[test]
    fn empty_and_negative() {
        let a = random_points(10, 4);
        let none: Vec<Point<2>> = vec![];
        assert_eq!(sweep_join_count(&none, &a, 1.0, Metric::L2), 0);
        assert_eq!(sweep_join_count(&a, &none, 1.0, Metric::L2), 0);
        assert_eq!(sweep_join_count(&a, &a, -0.5, Metric::L2), 0);
        assert_eq!(sweep_self_join_count(&none, 1.0, Metric::L2), 0);
    }

    #[test]
    fn input_order_does_not_matter() {
        let mut a = random_points(120, 5);
        let b = random_points(100, 6);
        let before = sweep_join_count(&a, &b, 0.2, Metric::L2);
        a.reverse();
        assert_eq!(sweep_join_count(&a, &b, 0.2, Metric::L2), before);
    }

    #[test]
    fn non_finite_points_are_filtered_not_panicked() {
        // Used to hit `partial_cmp(...).expect("NaN...")` mid-sort; now the
        // sort is total and the offending points are dropped up front.
        let mut a = random_points(60, 7);
        a.push(Point([f64::NAN, 0.5]));
        a.push(Point([0.5, f64::NAN]));
        a.push(Point([f64::INFINITY, 0.5]));
        a.push(Point([0.5, f64::NEG_INFINITY]));
        let clean = random_points(60, 7);
        assert_eq!(
            sweep_self_join_count(&a, 0.1, Metric::L2),
            sweep_self_join_count(&clean, 0.1, Metric::L2)
        );
        assert_eq!(
            sweep_join_count(&a, &a, 0.1, Metric::Linf),
            sweep_join_count(&clean, &clean, 0.1, Metric::Linf)
        );
        // NaN radius counts nothing rather than corrupting the window.
        assert_eq!(sweep_self_join_count(&a, f64::NAN, Metric::L2), 0);
    }

    #[test]
    fn sorted_by_axis_sorts_filters_and_reports() {
        let pts = vec![
            Point([3.0, 0.0]),
            Point([f64::NAN, 1.0]),
            Point([1.0, 2.0]),
            Point([2.0, f64::INFINITY]),
            Point([2.0, 5.0]),
        ];
        let s = SortedByAxis::new(&pts);
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped_non_finite(), 2);
        assert_eq!(s.axis(), 0);
        let xs: Vec<f64> = s.points().iter().map(|p| p[0]).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        let by_y = SortedByAxis::along(&pts, 1);
        let ys: Vec<f64> = by_y.points().iter().map(|p| p[1]).collect();
        assert_eq!(ys, vec![0.0, 2.0, 5.0]);
    }

    #[test]
    fn kernels_accept_an_arbitrary_axis() {
        let a = random_points(200, 8);
        let expect = sweep_self_join_count(&a, 0.15, Metric::L2);
        let by_y = SortedByAxis::along(&a, 1);
        assert_eq!(
            forward_sweep_self(by_y.points(), by_y.len(), 1, 0.15, Metric::L2),
            expect
        );
        let b = random_points(150, 9);
        let expect = sweep_join_count(&a, &b, 0.2, Metric::L1);
        let ay = SortedByAxis::along(&a, 1);
        let by = SortedByAxis::along(&b, 1);
        assert_eq!(
            forward_sweep_cross(ay.points(), by.points(), 1, 0.2, Metric::L1),
            expect
        );
    }

    #[test]
    fn owned_prefix_limits_the_self_kernel() {
        // owned = k counts exactly the pairs whose lower-ranked end is in
        // the first k sorted points — the partitioned join's dedup rule.
        let a = random_points(120, 10);
        let s = SortedByAxis::new(&a);
        let r = 0.2;
        let total = forward_sweep_self(s.points(), s.len(), 0, r, Metric::L2);
        let k = 50;
        let owned_part = forward_sweep_self(s.points(), k, 0, r, Metric::L2);
        let rest_part = forward_sweep_self(&s.points()[k..], s.len() - k, 0, r, Metric::L2);
        assert_eq!(owned_part + rest_part, total);
    }
}
