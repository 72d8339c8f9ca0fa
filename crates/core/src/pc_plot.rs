//! The pair-count plot (Definitions 1–2) built by the exact quadratic pass.

use sjpl_geom::{Metric, PointSet};
use sjpl_index::histogram::{par_cross_distance_histogram, par_self_distance_histogram};
use sjpl_stats::{fit_loglog, FitOptions, LogHistogram};

use crate::{CoreError, JoinKind, PairCountLaw};

/// Configuration for building a [`PcPlot`].
#[derive(Clone, Copy, Debug)]
pub struct PcPlotConfig {
    /// Distance function (the paper defaults to L∞; Observation 4 makes the
    /// exponent metric-independent anyway).
    pub metric: Metric,
    /// Number of log-spaced radii probed.
    pub bins: usize,
    /// Radius range `(r_lo, r_hi)`; `None` picks
    /// `[diameter/10⁴, diameter]` from the joint bounding box.
    pub radius_range: Option<(f64, f64)>,
    /// Worker threads for the quadratic pass: `1` is sequential, `0` (the
    /// default) means one per available CPU.
    pub threads: usize,
}

impl Default for PcPlotConfig {
    fn default() -> Self {
        PcPlotConfig {
            metric: Metric::Linf,
            bins: 40,
            radius_range: None,
            threads: 0,
        }
    }
}

/// A pair-count plot: `PC(r)` sampled at log-spaced radii (Definition 2).
#[derive(Clone, Debug)]
pub struct PcPlot {
    radii: Vec<f64>,
    counts: Vec<u64>,
    kind: JoinKind,
    n: usize,
    m: usize,
    metric: Metric,
}

impl PcPlot {
    /// The probed radii (ascending).
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// `PC(r)` at each probed radius.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cross or self join.
    pub fn kind(&self) -> JoinKind {
        self.kind
    }

    /// The metric the plot was built under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Cardinalities `(N, M)` of the joined sets.
    pub fn cardinalities(&self) -> (usize, usize) {
        (self.n, self.m)
    }

    /// `(r, PC(r))` pairs with non-zero counts — the points a log-log fit
    /// can use.
    pub fn nonzero_points(&self) -> (Vec<f64>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (&r, &c) in self.radii.iter().zip(self.counts.iter()) {
            if c > 0 {
                xs.push(r);
                ys.push(c as f64);
            }
        }
        (xs, ys)
    }

    /// Fits the pair-count law (Law 1) over the plot's usable range.
    pub fn fit(&self, opts: &FitOptions) -> Result<PairCountLaw, CoreError> {
        let (xs, ys) = self.nonzero_points();
        if xs.is_empty() {
            return Err(CoreError::NoPairs);
        }
        let needed = opts.min_points.max(2);
        if xs.len() < needed {
            return Err(CoreError::NotEnoughPlotPoints {
                found: xs.len(),
                needed,
            });
        }
        let fit = fit_loglog(&xs, &ys, opts)?;
        crate::law::record_fit_obs(&fit);
        Ok(PairCountLaw {
            exponent: fit.exponent,
            k: fit.k,
            fit,
            kind: self.kind,
            n: self.n,
            m: self.m,
        })
    }

    /// Fits the law using **all** non-empty plot points, without usable-
    /// range selection. Use this when comparing plots that must be fitted
    /// over one common, externally pinned radius window (set via
    /// `PcPlotConfig::radius_range`) — e.g. the sampling- and Lp-invariance
    /// experiments, where letting the window float would compare different
    /// scale regimes of an only-approximately-self-similar dataset.
    pub fn fit_full_range(&self) -> Result<PairCountLaw, CoreError> {
        let (xs, ys) = self.nonzero_points();
        if xs.is_empty() {
            return Err(CoreError::NoPairs);
        }
        let fit = sjpl_stats::fit_loglog_full_range(&xs, &ys)?;
        crate::law::record_fit_obs(&fit);
        Ok(PairCountLaw {
            exponent: fit.exponent,
            k: fit.k,
            fit,
            kind: self.kind,
            n: self.n,
            m: self.m,
        })
    }

    /// The exact `PC(r)` at the largest probed radius ≤ `r` (`None` when
    /// `r` is below the smallest probed radius). Used by accuracy
    /// experiments to compare estimates with ground truth.
    pub fn count_at(&self, r: f64) -> Option<u64> {
        let idx = self.radii.partition_point(|&x| x <= r);
        if idx == 0 {
            None
        } else {
            Some(self.counts[idx - 1])
        }
    }
}

fn resolve_range<const D: usize>(
    sets: &[&PointSet<D>],
    cfg: &PcPlotConfig,
) -> Result<(f64, f64), CoreError> {
    if let Some((lo, hi)) = cfg.radius_range {
        if !lo.is_finite() || lo <= 0.0 || !hi.is_finite() || hi <= lo {
            return Err(CoreError::BadConfig(format!(
                "radius range ({lo}, {hi}) must satisfy 0 < lo < hi < inf"
            )));
        }
        return Ok((lo, hi));
    }
    let mut bbox = sjpl_geom::Aabb::empty();
    for s in sets {
        for p in s.iter() {
            bbox.extend(p);
        }
    }
    if bbox.is_empty() {
        return Err(CoreError::Geom(sjpl_geom::GeomError::EmptySet));
    }
    // The joint bounding box's diameter under the plot's metric is where PC
    // saturates at the full Cartesian product. The top edge is padded by a
    // few ULPs-worth so a pair at *exactly* the diameter cannot fall into
    // the histogram's overflow bucket through float rounding of the
    // log-spaced edges.
    let diameter = bbox.max_dist_box(&bbox, cfg.metric);
    if !diameter.is_finite() || diameter <= 0.0 {
        return Err(CoreError::BadConfig(
            "degenerate data: zero-extent bounding box".to_owned(),
        ));
    }
    let hi = diameter * (1.0 + 1e-9);
    Ok((hi * 1e-4, hi))
}

fn check_cfg(cfg: &PcPlotConfig) -> Result<(), CoreError> {
    if cfg.bins < 2 {
        return Err(CoreError::BadConfig("bins must be >= 2".to_owned()));
    }
    Ok(())
}

/// Builds the pair-count plot of a **cross join** `A × B` by the exact
/// quadratic pass (one O(N·M) sweep regardless of the number of radii).
pub fn pc_plot_cross<const D: usize>(
    a: &PointSet<D>,
    b: &PointSet<D>,
    cfg: &PcPlotConfig,
) -> Result<PcPlot, CoreError> {
    check_cfg(cfg)?;
    if a.is_empty() || b.is_empty() {
        return Err(CoreError::Geom(sjpl_geom::GeomError::EmptySet));
    }
    let (lo, hi) = resolve_range(&[a, b], cfg)?;
    let mut hist = LogHistogram::new(lo, hi, cfg.bins)?;
    par_cross_distance_histogram(a.points(), b.points(), cfg.metric, &mut hist, cfg.threads);
    let (radii, counts): (Vec<f64>, Vec<u64>) = hist.cumulative().into_iter().unzip();
    Ok(PcPlot {
        radii,
        counts,
        kind: JoinKind::Cross,
        n: a.len(),
        m: b.len(),
        metric: cfg.metric,
    })
}

/// Builds the pair-count plot of a **self join** (unordered pairs,
/// self-pairs omitted) by the exact quadratic pass.
pub fn pc_plot_self<const D: usize>(
    a: &PointSet<D>,
    cfg: &PcPlotConfig,
) -> Result<PcPlot, CoreError> {
    check_cfg(cfg)?;
    if a.len() < 2 {
        return Err(CoreError::Geom(sjpl_geom::GeomError::EmptySet));
    }
    let (lo, hi) = resolve_range(&[a], cfg)?;
    let mut hist = LogHistogram::new(lo, hi, cfg.bins)?;
    par_self_distance_histogram(a.points(), cfg.metric, &mut hist, cfg.threads);
    let (radii, counts): (Vec<f64>, Vec<u64>) = hist.cumulative().into_iter().unzip();
    Ok(PcPlot {
        radii,
        counts,
        kind: JoinKind::SelfJoin,
        n: a.len(),
        m: a.len(),
        metric: cfg.metric,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjpl_geom::Point;
    use sjpl_index::PreparedSet;

    fn uniform(n: usize, seed: u64) -> PointSet<2> {
        sjpl_datagen::uniform::unit_cube::<2>(n, seed)
    }

    #[test]
    fn plot_counts_match_exact_joins_at_each_radius() {
        let a = uniform(300, 1);
        let b = uniform(250, 2);
        let cfg = PcPlotConfig {
            bins: 16,
            threads: 2,
            ..Default::default()
        };
        let plot = pc_plot_cross(&a, &b, &cfg).unwrap();
        let (pa, pb) = (PreparedSet::new(a.points()), PreparedSet::new(b.points()));
        for (&r, &c) in plot.radii().iter().zip(plot.counts().iter()) {
            let exact = pa.cross_count(&pb, r, Metric::Linf, 0);
            // Bin-edge float fuzz can shift pairs whose distance equals an
            // edge; allow a relative sliver.
            let diff = (c as i64 - exact as i64).unsigned_abs();
            assert!(diff <= 1 + exact / 1000, "r={r}: plot {c} vs exact {exact}");
        }
    }

    #[test]
    fn self_plot_counts_match_exact_self_join() {
        let a = uniform(400, 3);
        let cfg = PcPlotConfig {
            bins: 12,
            threads: 3,
            ..Default::default()
        };
        let plot = pc_plot_self(&a, &cfg).unwrap();
        assert_eq!(plot.kind(), JoinKind::SelfJoin);
        let prepared = PreparedSet::new(a.points());
        for (&r, &c) in plot.radii().iter().zip(plot.counts().iter()) {
            let exact = prepared.self_count(r, Metric::Linf, 0);
            let diff = (c as i64 - exact as i64).unsigned_abs();
            assert!(diff <= 1 + exact / 1000, "r={r}: {c} vs {exact}");
        }
    }

    #[test]
    fn auto_threads_plot_equals_the_sequential_plot() {
        // 0 (the default) is one worker per CPU; enough rows to clear the
        // histogram's per-worker floor, so a multi-CPU host really fans out.
        assert_eq!(PcPlotConfig::default().threads, 0);
        let a = uniform(2_500, 7);
        let b = uniform(300, 8);
        let at = |threads| PcPlotConfig {
            bins: 16,
            threads,
            ..Default::default()
        };
        let (auto, seq) = (pc_plot_self(&a, &at(0)), pc_plot_self(&a, &at(1)));
        assert_eq!(auto.unwrap().counts(), seq.unwrap().counts());
        let (auto, seq) = (pc_plot_cross(&a, &b, &at(0)), pc_plot_cross(&a, &b, &at(1)));
        assert_eq!(auto.unwrap().counts(), seq.unwrap().counts());
    }

    #[test]
    fn uniform_2d_exponent_is_near_2() {
        // A uniform 2-d set's PC exponent equals its embedding dimension.
        let a = uniform(4_000, 4);
        let plot = pc_plot_self(&a, &PcPlotConfig::default()).unwrap();
        let law = plot.fit(&FitOptions::default()).unwrap();
        assert!(
            (law.exponent - 2.0).abs() < 0.25,
            "uniform exponent {}",
            law.exponent
        );
        assert!(law.fit.line.r_squared > 0.99);
    }

    #[test]
    fn counts_saturate_at_max_pairs() {
        let a = uniform(100, 5);
        let b = uniform(80, 6);
        let plot = pc_plot_cross(&a, &b, &PcPlotConfig::default()).unwrap();
        assert_eq!(*plot.counts().last().unwrap(), 100 * 80);
        assert_eq!(plot.cardinalities(), (100, 80));
    }

    #[test]
    fn explicit_radius_range_is_respected() {
        let a = uniform(50, 7);
        let cfg = PcPlotConfig {
            radius_range: Some((0.01, 0.5)),
            bins: 8,
            ..Default::default()
        };
        let plot = pc_plot_self(&a, &cfg).unwrap();
        assert!(plot.radii()[0] > 0.01);
        assert!((plot.radii()[7] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn explicit_range_top_edge_counts_the_farthest_pair() {
        // A range pinned at the largest pair distance, as the repro
        // experiments pin theirs: every edge, the top one included, must
        // match the nested loop exactly.
        let a = sjpl_datagen::galaxy::correlated_pair(1500, 16, 7).0;
        let pts = a.points();
        let mut dists: Vec<f64> = (0..pts.len())
            .flat_map(|i| (i + 1..pts.len()).map(move |j| Metric::Linf.dist(&pts[i], &pts[j])))
            .collect();
        dists.sort_by(f64::total_cmp);
        let dmax = *dists.last().unwrap();
        let cfg = PcPlotConfig {
            radius_range: Some((dmax * 1e-4, dmax)),
            ..Default::default()
        };
        let plot = pc_plot_self(&a, &cfg).unwrap();
        for (&r, &c) in plot.radii().iter().zip(plot.counts()) {
            let exact = dists.partition_point(|&d| d <= r) as u64;
            assert_eq!(c, exact, "r={r}");
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let a = uniform(50, 8);
        let cfg = PcPlotConfig {
            radius_range: Some((0.5, 0.1)),
            ..Default::default()
        };
        assert!(matches!(
            pc_plot_self(&a, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        let cfg = PcPlotConfig {
            bins: 1,
            ..Default::default()
        };
        assert!(matches!(
            pc_plot_self(&a, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        let empty = PointSet::<2>::empty("e");
        assert!(pc_plot_cross(&empty, &a, &PcPlotConfig::default()).is_err());
        assert!(pc_plot_self(&empty, &PcPlotConfig::default()).is_err());
    }

    #[test]
    fn separated_sets_yield_no_pairs_error_on_fit() {
        let a = PointSet::new("a", vec![Point([0.0, 0.0]), Point([0.1, 0.0])]);
        let b = PointSet::new("b", vec![Point([1000.0, 0.0]), Point([1000.1, 0.0])]);
        let cfg = PcPlotConfig {
            radius_range: Some((1e-3, 1.0)), // probes far below the gap
            bins: 8,
            ..Default::default()
        };
        let plot = pc_plot_cross(&a, &b, &cfg).unwrap();
        assert!(matches!(
            plot.fit(&FitOptions::default()),
            Err(CoreError::NoPairs)
        ));
    }

    #[test]
    fn count_at_looks_up_floor_radius() {
        let a = uniform(100, 9);
        let plot = pc_plot_self(&a, &PcPlotConfig::default()).unwrap();
        assert!(plot.count_at(1e-9).is_none());
        let r = plot.radii()[10];
        assert_eq!(plot.count_at(r), Some(plot.counts()[10]));
        assert_eq!(
            plot.count_at(f64::INFINITY),
            Some(*plot.counts().last().unwrap())
        );
    }
}
