//! Axis-aligned bounding boxes.

use crate::{Metric, Point};

/// An axis-aligned bounding box in `D` dimensions.
///
/// Boxes are the node extents of the kd-tree in `sjpl-index` and the
/// bounds of every point set. The min/max distance helpers
/// drive dual-tree pruning in the distance joins: a node pair whose
/// `min_dist` exceeds the join radius contributes no pairs, and one whose
/// `max_dist` is within the radius contributes *all* its pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb<const D: usize> {
    /// Lower corner (coordinate-wise minimum).
    pub lo: Point<D>,
    /// Upper corner (coordinate-wise maximum).
    pub hi: Point<D>,
}

impl<const D: usize> Aabb<D> {
    /// A box containing exactly one point.
    #[inline]
    pub fn from_point(p: Point<D>) -> Self {
        Aabb { lo: p, hi: p }
    }

    /// The "empty" box: an inverted box that is the identity for
    /// [`Aabb::union`] and contains nothing.
    #[inline]
    pub fn empty() -> Self {
        Aabb {
            lo: Point::splat(f64::INFINITY),
            hi: Point::splat(f64::NEG_INFINITY),
        }
    }

    /// Builds the tight bounding box of a point slice. Returns the empty box
    /// for an empty slice.
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.extend(p);
        }
        b
    }

    /// Returns `true` for the empty (inverted) box.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.lo[i] > self.hi[i])
    }

    /// Grows the box to contain `p`.
    #[inline]
    pub fn extend(&mut self, p: &Point<D>) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        Aabb {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }

    /// Returns `true` if `p` lies inside the box (inclusive bounds).
    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// Side length along axis `axis`.
    #[inline]
    pub fn extent(&self, axis: usize) -> f64 {
        self.hi[axis] - self.lo[axis]
    }

    /// The longest side length, i.e. the side of the tightest enclosing
    /// hyper-cube. BOPS normalization (Figure 7, step 1) divides by this.
    #[inline]
    pub fn longest_extent(&self) -> f64 {
        (0..D).map(|i| self.extent(i)).fold(0.0f64, f64::max)
    }

    /// Per-axis clamp of `p` onto the box — the closest box point to `p`.
    #[inline]
    pub fn clamp(&self, p: &Point<D>) -> Point<D> {
        let mut c = [0.0; D];
        for (i, v) in c.iter_mut().enumerate() {
            *v = p[i].clamp(self.lo[i], self.hi[i]);
        }
        Point(c)
    }

    /// Minimum distance from `p` to any point of the box under `metric`
    /// (zero if `p` is inside).
    #[inline]
    pub fn min_dist(&self, p: &Point<D>, metric: Metric) -> f64 {
        metric.dist(p, &self.clamp(p))
    }

    /// Maximum distance from `p` to any point of the box under `metric`.
    /// For every Lp metric the farthest box point is a corner, reached by
    /// taking per-axis the farther of `lo`/`hi`.
    #[inline]
    pub fn max_dist(&self, p: &Point<D>, metric: Metric) -> f64 {
        let mut far = [0.0; D];
        for (i, v) in far.iter_mut().enumerate() {
            let dlo = (p[i] - self.lo[i]).abs();
            let dhi = (p[i] - self.hi[i]).abs();
            *v = if dlo > dhi { self.lo[i] } else { self.hi[i] };
        }
        metric.dist(p, &Point(far))
    }

    /// Minimum distance between any point of `self` and any point of `other`
    /// under `metric` (zero if they overlap).
    ///
    /// For axis-aligned boxes the per-axis gap vector achieves the minimum
    /// simultaneously for every Lp norm, so one gap computation serves all
    /// metrics.
    #[inline]
    pub fn min_dist_box(&self, other: &Self, metric: Metric) -> f64 {
        let mut gap = [0.0; D];
        for (i, g) in gap.iter_mut().enumerate() {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            *g = (lo - hi).max(0.0);
        }
        metric.dist(&Point(gap), &Point::ORIGIN)
    }

    /// Maximum distance between any point of `self` and any point of `other`
    /// under `metric`.
    #[inline]
    pub fn max_dist_box(&self, other: &Self, metric: Metric) -> f64 {
        let mut span = [0.0; D];
        for (i, s) in span.iter_mut().enumerate() {
            let a = (self.hi[i] - other.lo[i]).abs();
            let b = (other.hi[i] - self.lo[i]).abs();
            *s = a.max(b);
        }
        metric.dist(&Point(span), &Point::ORIGIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb<2> {
        Aabb {
            lo: Point([0.0, 0.0]),
            hi: Point([1.0, 1.0]),
        }
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [Point([1.0, 5.0]), Point([-2.0, 3.0]), Point([0.0, 7.0])];
        let b = Aabb::from_points(&pts);
        assert_eq!(b.lo.coords(), [-2.0, 3.0]);
        assert_eq!(b.hi.coords(), [1.0, 7.0]);
        for p in &pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn empty_box_behaves() {
        let e = Aabb::<2>::empty();
        assert!(e.is_empty());
        assert!(!e.contains(&Point([0.0, 0.0])));
        let b = e.union(&unit_box());
        assert_eq!(b, unit_box());
    }

    #[test]
    fn containment_is_inclusive() {
        let b = unit_box();
        assert!(b.contains(&Point([0.0, 0.0])));
        assert!(b.contains(&Point([1.0, 1.0])));
        assert!(b.contains(&Point([0.5, 0.5])));
        assert!(!b.contains(&Point([1.0 + 1e-12, 0.5])));
    }

    #[test]
    fn min_dist_point_inside_is_zero() {
        let b = unit_box();
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            assert_eq!(b.min_dist(&Point([0.5, 0.5]), m), 0.0);
        }
    }

    #[test]
    fn min_dist_point_outside_matches_geometry() {
        let b = unit_box();
        let p = Point([2.0, 2.0]);
        assert!((b.min_dist(&p, Metric::L2) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(b.min_dist(&p, Metric::Linf), 1.0);
        assert_eq!(b.min_dist(&p, Metric::L1), 2.0);
    }

    #[test]
    fn max_dist_is_to_far_corner() {
        let b = unit_box();
        let p = Point([0.0, 0.0]);
        assert!((b.max_dist(&p, Metric::L2) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(b.max_dist(&p, Metric::Linf), 1.0);
    }

    #[test]
    fn box_box_distances() {
        let a = unit_box();
        let b = Aabb {
            lo: Point([3.0, 0.0]),
            hi: Point([4.0, 1.0]),
        };
        assert_eq!(a.min_dist_box(&b, Metric::Linf), 2.0);
        assert_eq!(a.min_dist_box(&b, Metric::L2), 2.0);
        assert_eq!(a.max_dist_box(&b, Metric::Linf), 4.0);
        // Overlapping boxes have zero min distance.
        let c = Aabb {
            lo: Point([0.5, 0.5]),
            hi: Point([2.0, 2.0]),
        };
        assert_eq!(a.min_dist_box(&c, Metric::L2), 0.0);
    }

    #[test]
    fn min_dist_box_bounds_pointwise_distance() {
        // Sample points from two boxes; every pairwise distance must lie in
        // [min_dist_box, max_dist_box].
        let a = unit_box();
        let b = Aabb {
            lo: Point([1.5, -1.0]),
            hi: Point([2.5, 0.5]),
        };
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            let lo = a.min_dist_box(&b, m);
            let hi = a.max_dist_box(&b, m);
            for i in 0..=4 {
                for j in 0..=4 {
                    let pa = Point([i as f64 / 4.0, j as f64 / 4.0]);
                    for k in 0..=4 {
                        for l in 0..=4 {
                            let pb = Point([1.5 + k as f64 / 4.0, -1.0 + 1.5 * l as f64 / 4.0]);
                            let d = m.dist(&pa, &pb);
                            assert!(d >= lo - 1e-12 && d <= hi + 1e-12);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn longest_extent_is_the_widest_side() {
        let b = Aabb {
            lo: Point([0.0, -1.0]),
            hi: Point([2.0, 5.0]),
        };
        assert_eq!(b.extent(0), 2.0);
        assert_eq!(b.longest_extent(), 6.0);
    }
}
