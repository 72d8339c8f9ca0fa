//! The fitted pair-count law and its corollaries.

use sjpl_geom::Metric;
use sjpl_stats::LogLogFit;

/// Publishes a completed log-log fit to the observability layer: the
/// `fit.r_squared` / `fit.exponent` / `fit.rmse_log10` / `fit.points_used`
/// gauges (last fit wins, which matches "what did the run I just traced
/// fit?") plus a running `fit.count`. Free when the recorder is disabled.
pub(crate) fn record_fit_obs(fit: &LogLogFit) {
    if !sjpl_obs::enabled() {
        return;
    }
    sjpl_obs::gauge_set("fit.r_squared", fit.line.r_squared);
    sjpl_obs::gauge_set("fit.exponent", fit.exponent);
    sjpl_obs::gauge_set("fit.rmse_log10", fit.line.rmse);
    sjpl_obs::gauge_set("fit.points_used", fit.line.n as f64);
    sjpl_obs::counter_add("fit.count", 1);
}

/// Checks a query radius that comes from outside the program (a CLI flag,
/// a `POST /estimate` body): it must be finite and `>= 0`. The law itself
/// maps `NaN` to the Cartesian-product ceiling, so this is the one gate.
pub fn check_radius(r: f64) -> Result<f64, String> {
    if r.is_finite() && r >= 0.0 {
        Ok(r)
    } else {
        Err(format!("radius {r} must be finite and >= 0"))
    }
}

/// Whether a law describes a cross join (`A × B`, ordered pairs) or a self
/// join (`A × A`, unordered, self-pairs omitted) — the paper's two cases
/// from Definition 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    /// Two distinct point-sets; up to `N · M` qualifying pairs.
    Cross,
    /// One point-set joined with itself; up to `N(N−1)/2` qualifying pairs.
    SelfJoin,
}

/// A fitted pair-count law `PC(r) = K · r^α` (the paper's Law 1), together
/// with the set sizes needed to turn pair counts into selectivities.
///
/// Once constructed, every estimate is O(1) — the whole point of the paper:
/// "we can achieve accurate selectivity estimates in constant time without
/// the need for sampling or other expensive operations."
#[derive(Clone, Copy, Debug)]
pub struct PairCountLaw {
    /// The pair-count exponent α (Definition 3).
    pub exponent: f64,
    /// The proportionality constant `K`.
    pub k: f64,
    /// The underlying log-log fit (exposes `r²`, the usable range, etc.).
    pub fit: LogLogFit,
    /// Cross or self join.
    pub kind: JoinKind,
    /// Cardinality of the first set (`N`).
    pub n: usize,
    /// Cardinality of the second set (`M`; equals `n` for self joins).
    pub m: usize,
}

/// Everything a consumer needs to audit where an estimate came from: the
/// law's parameters, fit quality, and the radius window the fit is valid
/// on. This is what `sjpl serve`'s `/estimate` endpoint returns alongside
/// each answer, so a client can judge whether to trust it (low `r_squared`
/// or a radius outside `[x_lo, x_hi]` both mean "extrapolation").
#[derive(Clone, Copy, Debug)]
pub struct LawProvenance {
    /// The proportionality constant `K`.
    pub k: f64,
    /// The pair-count exponent α.
    pub alpha: f64,
    /// Goodness of fit of the underlying log-log regression.
    pub r_squared: f64,
    /// RMS error of the regression, in log10 units.
    pub rmse_log10: f64,
    /// Number of plot points the fit used.
    pub points_used: usize,
    /// Smallest radius inside the fitted (usable) range.
    pub x_lo: f64,
    /// Largest radius inside the fitted (usable) range.
    pub x_hi: f64,
    /// Cross or self join.
    pub kind: JoinKind,
    /// Cardinality of the first set.
    pub n: usize,
    /// Cardinality of the second set.
    pub m: usize,
}

impl LawProvenance {
    /// `"cross"` / `"self"` — the label used in accuracy records and JSON.
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            JoinKind::Cross => "cross",
            JoinKind::SelfJoin => "self",
        }
    }
}

impl PairCountLaw {
    /// The audit trail of this law: parameters, fit quality and window.
    pub fn provenance(&self) -> LawProvenance {
        LawProvenance {
            k: self.k,
            alpha: self.exponent,
            r_squared: self.fit.line.r_squared,
            rmse_log10: self.fit.line.rmse,
            points_used: self.fit.line.n,
            x_lo: self.fit.x_lo,
            x_hi: self.fit.x_hi,
            kind: self.kind,
            n: self.n,
            m: self.m,
        }
    }

    /// The size of the Cartesian product the selectivity is defined over:
    /// `N·M` for cross joins, `N(N−1)/2` for self joins.
    pub fn max_pairs(&self) -> f64 {
        match self.kind {
            JoinKind::Cross => self.n as f64 * self.m as f64,
            JoinKind::SelfJoin => self.n as f64 * (self.n as f64 - 1.0) / 2.0,
        }
    }

    /// O(1) estimate of the number of qualifying pairs at radius `r`
    /// (`K · r^α`), clamped to the Cartesian-product ceiling.
    pub fn pair_count(&self, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        (self.k * r.powf(self.exponent)).min(self.max_pairs())
    }

    /// O(1) estimate of the join selectivity at radius `r`: qualifying
    /// pairs divided by the size of the Cartesian product.
    pub fn selectivity(&self, r: f64) -> f64 {
        let mp = self.max_pairs();
        if mp <= 0.0 {
            return 0.0;
        }
        self.pair_count(r) / mp
    }

    /// Extrapolated distance of the closest pair (the paper's Equation 11):
    /// the radius where the law predicts the first pair, `PC(r_min) = 1`,
    /// i.e. `r_min = K^{−1/α}`.
    pub fn r_min(&self) -> f64 {
        self.r_c(1.0)
    }

    /// Extrapolated distance of the c-th closest pair (Equation 12):
    /// `r_c = (c / K)^{1/α}`.
    ///
    /// Returns `NaN` for non-positive `c`, `K`, or α — the extrapolation is
    /// only meaningful for a genuinely increasing law.
    pub fn r_c(&self, c: f64) -> f64 {
        if c <= 0.0 || self.k <= 0.0 || self.exponent <= 0.0 {
            return f64::NAN;
        }
        (c / self.k).powf(1.0 / self.exponent)
    }

    /// `true` when `r` lies inside the usable range the law was fitted on;
    /// estimates outside it are extrapolations.
    pub fn in_fitted_range(&self, r: f64) -> bool {
        self.fit.in_range(r)
    }

    /// Converts a law fitted under one Lp metric into an estimate of the
    /// law under another — the paper's Equation 3, made operational.
    ///
    /// Observation 4's argument: the number of neighbors within Lp-distance
    /// `r` grows as `vol(p, r)^{α/E}` where `vol(p, r)` is the volume of
    /// the Lp ball. The exponent is metric-independent; only the constant
    /// moves, by the unit-ball volume ratio raised to `α/E`:
    ///
    /// `K_to = K_from · (vol_unit(to) / vol_unit(from))^{α/E}`
    ///
    /// `dim` is the embedding dimensionality `E` of the data the law was
    /// fitted on. The converted constant is an approximation with the same
    /// smooth-density assumption as the BOPS lemma — expect accuracy
    /// similar to BOPS (tens of percent), not the exact-PC few percent.
    pub fn converted_to_metric(&self, from: Metric, to: Metric, dim: usize) -> PairCountLaw {
        let ratio = to.unit_ball_volume(dim) / from.unit_ball_volume(dim);
        let factor = ratio.powf(self.exponent / dim as f64);
        let mut out = *self;
        out.k *= factor;
        out.fit.k *= factor;
        out.fit.line.intercept += factor.log10();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjpl_stats::{fit_loglog_full_range, FitOptions};

    fn law(k: f64, alpha: f64, kind: JoinKind, n: usize, m: usize) -> PairCountLaw {
        // Build the inner fit from exact synthetic data so `fit` is honest.
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 / 20.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| k * x.powf(alpha)).collect();
        let fit = fit_loglog_full_range(&xs, &ys).unwrap();
        let _ = FitOptions::default();
        PairCountLaw {
            exponent: alpha,
            k,
            fit,
            kind,
            n,
            m,
        }
    }

    #[test]
    fn pair_count_evaluates_the_power_law() {
        let l = law(100.0, 1.5, JoinKind::Cross, 1000, 1000);
        assert!((l.pair_count(0.25) - 100.0 * 0.25f64.powf(1.5)).abs() < 1e-9);
        assert_eq!(l.pair_count(0.0), 0.0);
        assert_eq!(l.pair_count(-1.0), 0.0);
        // NaN falls through to the ceiling, so callers gate radii first.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(check_radius(bad).is_err(), "{bad}");
        }
        assert_eq!(check_radius(0.0), Ok(0.0));
    }

    #[test]
    fn pair_count_clamps_to_cartesian_product() {
        let l = law(1e12, 2.0, JoinKind::Cross, 100, 50);
        assert_eq!(l.pair_count(10.0), 5000.0);
        assert_eq!(l.selectivity(10.0), 1.0);
    }

    #[test]
    fn selectivity_divides_by_the_right_denominator() {
        let cross = law(10.0, 1.0, JoinKind::Cross, 100, 200);
        assert!((cross.selectivity(1.0) - 10.0 / 20_000.0).abs() < 1e-12);
        let selfj = law(10.0, 1.0, JoinKind::SelfJoin, 100, 100);
        assert!((selfj.selectivity(1.0) - 10.0 / 4950.0).abs() < 1e-12);
    }

    #[test]
    fn r_min_satisfies_equation_11() {
        let l = law(1000.0, 2.0, JoinKind::Cross, 10_000, 10_000);
        let rmin = l.r_min();
        // PC(r_min) = 1 by construction.
        assert!((l.k * rmin.powf(l.exponent) - 1.0).abs() < 1e-9);
        assert!((rmin - (1.0f64 / 1000.0).powf(0.5)).abs() < 1e-12);
    }

    #[test]
    fn r_c_is_monotone_in_c() {
        let l = law(500.0, 1.7, JoinKind::SelfJoin, 1000, 1000);
        let r1 = l.r_c(1.0);
        let r10 = l.r_c(10.0);
        let r100 = l.r_c(100.0);
        assert!(r1 < r10 && r10 < r100);
        // And consistent: PC(r_c) = c.
        assert!((l.k * r10.powf(l.exponent) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn r_c_rejects_degenerate_laws() {
        let l = law(100.0, 1.0, JoinKind::Cross, 10, 10);
        assert!(l.r_c(0.0).is_nan());
        assert!(l.r_c(-5.0).is_nan());
        let mut flat = l;
        flat.exponent = 0.0;
        assert!(flat.r_min().is_nan());
    }

    #[test]
    fn degenerate_self_join_selectivity_is_zero() {
        let l = law(10.0, 1.0, JoinKind::SelfJoin, 1, 1);
        assert_eq!(l.selectivity(1.0), 0.0);
    }

    #[test]
    fn metric_conversion_keeps_the_exponent() {
        let l = law(100.0, 1.7, JoinKind::Cross, 1000, 1000);
        let c = l.converted_to_metric(Metric::Linf, Metric::L2, 2);
        assert_eq!(c.exponent, l.exponent);
        assert_ne!(c.k, l.k);
    }

    #[test]
    fn metric_conversion_shrinks_k_toward_smaller_balls() {
        // L2 balls are smaller than L∞ boxes, so the L2 law predicts fewer
        // pairs at the same radius: K must shrink.
        let l = law(100.0, 1.7, JoinKind::Cross, 1000, 1000);
        let c = l.converted_to_metric(Metric::Linf, Metric::L2, 2);
        assert!(c.k < l.k, "K {} not below {}", c.k, l.k);
        // And L1 (smaller still) shrinks further.
        let c1 = l.converted_to_metric(Metric::Linf, Metric::L1, 2);
        assert!(c1.k < c.k);
    }

    #[test]
    fn metric_conversion_round_trips() {
        let l = law(42.0, 1.9, JoinKind::SelfJoin, 500, 500);
        let back = l
            .converted_to_metric(Metric::Linf, Metric::L2, 2)
            .converted_to_metric(Metric::L2, Metric::Linf, 2);
        assert!((back.k - l.k).abs() / l.k < 1e-12);
    }

    #[test]
    fn provenance_mirrors_the_law() {
        let l = law(100.0, 1.5, JoinKind::SelfJoin, 1000, 1000);
        let p = l.provenance();
        assert_eq!(p.k, l.k);
        assert_eq!(p.alpha, l.exponent);
        assert_eq!(p.r_squared, l.fit.line.r_squared);
        assert_eq!(p.points_used, l.fit.line.n);
        assert_eq!((p.x_lo, p.x_hi), (l.fit.x_lo, l.fit.x_hi));
        assert_eq!(p.kind_label(), "self");
        assert!(l.in_fitted_range(p.x_lo) && l.in_fitted_range(p.x_hi));
        let cross = law(10.0, 1.0, JoinKind::Cross, 100, 200).provenance();
        assert_eq!(cross.kind_label(), "cross");
        assert_eq!((cross.n, cross.m), (100, 200));
    }

    #[test]
    fn identity_conversion_is_a_noop() {
        let l = law(42.0, 1.9, JoinKind::Cross, 500, 700);
        let same = l.converted_to_metric(Metric::L2, Metric::L2, 4);
        assert_eq!(same.k, l.k);
    }
}
