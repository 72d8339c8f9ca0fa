//! Streaming-vs-batch equivalence: a [`StreamingBops`] sketch fed point by
//! point must produce exactly the BOPS plot the batch path computes in one
//! pass — for the cross join AND for both per-side self joins.
//!
//! The batch path normalizes by the joint bounding box of its inputs, so
//! each comparison re-streams into a sketch whose declared address space
//! equals that normalization (the [`NormalizeInfo`] round-trip below).

use sjpl_core::streaming::Side;
use sjpl_core::{bops_plot_cross, bops_plot_self, BopsConfig, StreamingBops};
use sjpl_datagen::{galaxy, uniform};
use sjpl_geom::{Aabb, NormalizeInfo, Point, PointSet};

const LEVELS: u32 = 8;

/// The address space the batch path normalizes to, recovered from the sets'
/// joint [`NormalizeInfo`]: origin at `offset`, longest extent `1/scale`.
fn batch_bounds(sets: &[&PointSet<2>]) -> Aabb<2> {
    let info = NormalizeInfo::from_sets(sets).unwrap();
    let joint = sets
        .iter()
        .fold(Aabb::empty(), |acc, s| acc.union(&s.bbox()));
    // `offset + 1/scale` can round to 1 ulp below the true max coordinate,
    // which would reject the extreme point; widen to the actual bbox.
    Aabb {
        lo: info.offset,
        hi: (info.offset + Point([1.0 / info.scale, 1.0 / info.scale])).max(&joint.hi),
    }
}

#[test]
fn incremental_cross_plot_matches_batch() {
    let a = galaxy::correlated_pair(2_500, 2_000, 21).0;
    let b = uniform::unit_cube::<2>(2_000, 22);
    let mut s = StreamingBops::new(batch_bounds(&[&a, &b]), LEVELS).unwrap();
    // Insert point by point, interleaving sides (not a bulk load).
    let (pa, pb) = (a.points(), b.points());
    for i in 0..pa.len().max(pb.len()) {
        if let Some(p) = pa.get(i) {
            s.insert(Side::A, p).unwrap();
        }
        if let Some(p) = pb.get(i) {
            s.insert(Side::B, p).unwrap();
        }
    }
    let batch = bops_plot_cross(&a, &b, &BopsConfig::dyadic(LEVELS)).unwrap();
    let stream = s.plot();
    assert_eq!(stream.len(), batch.radii().len());
    for ((sr, sv), (&br, &bv)) in stream
        .into_iter()
        .zip(batch.radii().iter().zip(batch.values().iter()))
    {
        assert!((sr - br).abs() < 1e-12, "radius {sr} vs {br}");
        assert_eq!(sv, bv, "cross BOPS at radius {sr}");
    }
}

#[test]
fn incremental_self_plots_match_batch() {
    let a = galaxy::correlated_pair(3_000, 16, 31).0;
    let b = uniform::unit_cube::<2>(2_200, 32);
    // One sketch holds both sides; its per-side self sums must match the
    // batch self-join plot of each side computed *alone* — provided the
    // address spaces agree, so each side gets a sketch over its own bbox.
    for (side, set) in [(Side::A, &a), (Side::B, &b)] {
        let mut s = StreamingBops::new(batch_bounds(&[set]), LEVELS).unwrap();
        for p in set.iter() {
            s.insert(side, p).unwrap();
        }
        let batch = bops_plot_self(set, &BopsConfig::dyadic(LEVELS)).unwrap();
        let stream = s.self_plot(side);
        assert_eq!(stream.len(), batch.radii().len());
        for ((sr, sv), (&br, &bv)) in stream
            .into_iter()
            .zip(batch.radii().iter().zip(batch.values().iter()))
        {
            assert!((sr - br).abs() < 1e-12, "radius {sr} vs {br}");
            assert_eq!(sv, bv, "{side:?}: self BOPS at radius {sr}");
        }
    }
}

#[test]
fn churn_then_settle_still_matches_batch() {
    // Insert extra points and remove them again: the sketch must land on
    // exactly the batch plot of the surviving points — cross and self.
    let a = uniform::unit_cube::<2>(1_500, 41);
    let b = uniform::unit_cube::<2>(1_200, 42);
    let bounds = batch_bounds(&[&a, &b]);
    // The churn points are an independent sample, so keep only those inside
    // the declared address space (the joint a/b bbox spans nearly all of it).
    let extra: Vec<_> = uniform::unit_cube::<2>(300, 43)
        .iter()
        .filter(|p| bounds.contains(p))
        .copied()
        .collect();
    assert!(extra.len() > 200, "churn sample unexpectedly small");
    let mut s = StreamingBops::new(bounds, LEVELS).unwrap();
    s.load(&a, &b).unwrap();
    for p in &extra {
        s.insert(Side::A, p).unwrap();
        s.insert(Side::B, p).unwrap();
    }
    for p in &extra {
        s.remove(Side::A, p).unwrap();
        s.remove(Side::B, p).unwrap();
    }
    assert_eq!(s.counts(), (a.len(), b.len()));
    let cross = bops_plot_cross(&a, &b, &BopsConfig::dyadic(LEVELS)).unwrap();
    for ((sr, sv), (&br, &bv)) in s
        .plot()
        .into_iter()
        .zip(cross.radii().iter().zip(cross.values().iter()))
    {
        assert!((sr - br).abs() < 1e-12, "radius {sr} vs {br}");
        assert_eq!(sv, bv, "cross BOPS at radius {sr} after churn");
    }
}
