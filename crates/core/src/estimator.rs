//! The packaged O(1) selectivity estimator — Section 4.3 of the paper.
//!
//! Three construction paths, exactly as the paper describes and compares:
//!
//! * **PC plot estimation** — build the exact (quadratic) pair-count plot
//!   once, fit the law, keep `(K, α)` as statistics. Most accurate
//!   (Table 4 reports ~3–7% error); costs O(N·M) once.
//! * **BOPS plot estimation** — build the BOPS plot in O(N+M) per level,
//!   fit the law. Slightly less accurate (~14–35%), orders of magnitude
//!   faster (Table 5).
//! * **Sampled PC plot** — the "obvious trick" of Section 4.3: sample both
//!   sets at rate `p` first, then run the quadratic method on the samples
//!   (O(p²·N·M)). Observation 3 guarantees the slope is preserved; the
//!   constant is corrected by `1/(p_a·p_b)`. The paper's Table 5 shows BOPS
//!   on the *full* data still beats this — it is provided both for the
//!   reproduction and because a sampling-based optimizer may already have
//!   samples lying around.
//!
//! Either way, every subsequent query is O(1).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sjpl_geom::PointSet;
use sjpl_stats::sampling::sample_rate;
use sjpl_stats::FitOptions;

use crate::{
    pc_plot_cross, pc_plot_self, BopsConfig, CoreError, PairCountLaw, PcPlot, PcPlotConfig,
};

/// How the estimator's law is computed.
#[derive(Clone, Copy, Debug)]
pub enum EstimationMethod {
    /// Exact quadratic pair-count plot (the paper's "PC plot estimation").
    ExactPcPlot(PcPlotConfig),
    /// Linear-time BOPS plot (the paper's "BOPS plot estimation").
    Bops(BopsConfig),
    /// Quadratic PC plot on a `rate`-sample of each input, with the fitted
    /// constant scaled back up by `1/rate²` (cross) or `1/rate²` adjusted
    /// for the self-join pair count (Observation 3).
    SampledPcPlot {
        /// Sampling rate in `(0, 1]`.
        rate: f64,
        /// Seed for the deterministic sampler.
        seed: u64,
        /// Plot configuration used on the samples.
        cfg: PcPlotConfig,
    },
}

impl EstimationMethod {
    /// Short stable label for telemetry (`accuracy` records, reports).
    pub fn label(&self) -> &'static str {
        match self {
            EstimationMethod::ExactPcPlot(_) => "pc",
            EstimationMethod::Bops(_) => "bops",
            EstimationMethod::SampledPcPlot { .. } => "sampled-pc",
        }
    }
}

impl Default for EstimationMethod {
    fn default() -> Self {
        EstimationMethod::Bops(BopsConfig::default())
    }
}

fn check_rate(rate: f64) -> Result<(), CoreError> {
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(CoreError::BadConfig(format!(
            "sampling rate {rate} must lie in (0, 1]"
        )));
    }
    Ok(())
}

fn sampled<const D: usize>(set: &PointSet<D>, rate: f64, seed: u64) -> PointSet<D> {
    if rate >= 1.0 {
        return set.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    PointSet::new(
        set.name(),
        sample_rate(set.points(), rate, &mut rng).expect("rate validated"),
    )
}

/// Rescales a law fitted on samples back to the full data: the pair counts
/// gain a multiplicative `factor` (a vertical shift in log-log space — the
/// slope is untouched, per Observation 3) and the cardinalities are
/// restored so selectivities divide by the full Cartesian product.
fn rescale_law(mut law: PairCountLaw, factor: f64, n: usize, m: usize) -> PairCountLaw {
    law.k *= factor;
    law.fit.k *= factor;
    law.fit.line.intercept += factor.log10();
    law.n = n;
    law.m = m;
    law
}

/// The exact PC plot of the cross join `a × b` when `b` is given, else of
/// the self join of `a`.
fn pc_plot<const D: usize>(
    a: &PointSet<D>,
    b: Option<&PointSet<D>>,
    cfg: &PcPlotConfig,
) -> Result<PcPlot, CoreError> {
    match b {
        Some(b) => pc_plot_cross(a, b, cfg),
        None => pc_plot_self(a, cfg),
    }
}

/// An O(1) spatial-join selectivity estimator backed by a fitted
/// [`PairCountLaw`].
#[derive(Clone, Copy, Debug)]
pub struct SelectivityEstimator {
    law: PairCountLaw,
    method_label: &'static str,
}

impl SelectivityEstimator {
    /// Builds an estimator for the cross join `A × B`.
    pub fn from_cross<const D: usize>(
        a: &PointSet<D>,
        b: &PointSet<D>,
        method: EstimationMethod,
    ) -> Result<Self, CoreError> {
        Self::build(a, Some(b), method)
    }

    /// Builds an estimator for the self join of `A`.
    pub fn from_self<const D: usize>(
        a: &PointSet<D>,
        method: EstimationMethod,
    ) -> Result<Self, CoreError> {
        Self::build(a, None, method)
    }

    /// The cross join of `a` and `b` when `b` is given, else the self join
    /// of `a`.
    fn build<const D: usize>(
        a: &PointSet<D>,
        b: Option<&PointSet<D>>,
        method: EstimationMethod,
    ) -> Result<Self, CoreError> {
        let opts = FitOptions::default();
        let law = match method {
            EstimationMethod::ExactPcPlot(cfg) => pc_plot(a, b, &cfg)?.fit(&opts)?,
            EstimationMethod::Bops(cfg) => crate::bops::plot(a, b, &cfg)?.fit(&opts)?,
            EstimationMethod::SampledPcPlot { rate, seed, cfg } => {
                check_rate(rate)?;
                let sa = sampled(a, rate, seed);
                let sb = b.map(|b| sampled(b, rate, seed ^ 0xffff));
                let sample_law = pc_plot(&sa, sb.as_ref(), &cfg)?.fit(&opts)?;
                let factor = match b.zip(sb.as_ref()) {
                    // Observation 3: PC_sample(r) ≈ p_a·p_b · PC(r); undo
                    // the shift.
                    Some((b, sb)) => {
                        let pa = sa.len() as f64 / a.len() as f64;
                        let pb = sb.len() as f64 / b.len() as f64;
                        1.0 / (pa * pb)
                    }
                    // Unordered pairs scale by C(pn,2)/C(n,2) ≈ p² for
                    // large n; use the exact pair-count ratio so tiny sets
                    // stay right.
                    None => {
                        let full_pairs = a.len() as f64 * (a.len() as f64 - 1.0) / 2.0;
                        let samp_pairs = sa.len() as f64 * (sa.len() as f64 - 1.0) / 2.0;
                        full_pairs / samp_pairs.max(1.0)
                    }
                };
                // Restore the full cardinalities.
                rescale_law(
                    sample_law,
                    factor,
                    a.len(),
                    b.map_or(a.len(), PointSet::len),
                )
            }
        };
        Ok(SelectivityEstimator {
            law,
            method_label: method.label(),
        })
    }

    /// Wraps a previously fitted law (e.g. statistics stored by a query
    /// optimizer catalog — the paper's "previously kept statistics" path).
    pub fn from_law(law: PairCountLaw) -> Self {
        SelectivityEstimator {
            law,
            method_label: "stored-law",
        }
    }

    /// The fitted law (exponent α, constant K, fit diagnostics).
    pub fn law(&self) -> &PairCountLaw {
        &self.law
    }

    /// Short stable label of the construction method (`pc`, `bops`,
    /// `sampled-pc`, or `stored-law`), used to tag telemetry.
    pub fn method_label(&self) -> &'static str {
        self.method_label
    }

    /// O(1) estimate of the number of qualifying pairs at radius `r`.
    pub fn estimate_pair_count(&self, r: f64) -> f64 {
        self.law.pair_count(r)
    }

    /// [`Self::estimate_pair_count`] that also emits one accuracy telemetry
    /// record (dataset label, method, join kind, radius, the estimate, and
    /// the true pair count when the caller knows it — e.g. from an exact
    /// join it ran for validation). Free when the recorder is disabled.
    pub fn estimate_pair_count_observed(&self, dataset: &str, r: f64, true_pc: Option<f64>) -> f64 {
        let est = self.law.pair_count(r);
        if sjpl_obs::enabled() {
            sjpl_obs::accuracy(sjpl_obs::Accuracy {
                dataset: dataset.to_owned(),
                method: self.method_label.to_owned(),
                join_kind: match self.law.kind {
                    crate::JoinKind::Cross => "cross".to_owned(),
                    crate::JoinKind::SelfJoin => "self".to_owned(),
                },
                radius: r,
                estimated_pc: est,
                true_pc,
            });
        }
        est
    }

    /// O(1) estimate of the join selectivity at radius `r`.
    pub fn estimate_selectivity(&self, r: f64) -> f64 {
        self.law.selectivity(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjpl_datagen::uniform;
    use sjpl_geom::Metric;
    use sjpl_index::PreparedSet;

    #[test]
    fn both_methods_estimate_uniform_cross_join_well() {
        let a = uniform::unit_cube::<2>(3_000, 1);
        let b = uniform::unit_cube::<2>(3_000, 2);
        let (pa, pb) = (PreparedSet::new(a.points()), PreparedSet::new(b.points()));
        for method in [
            EstimationMethod::ExactPcPlot(PcPlotConfig::default()),
            EstimationMethod::Bops(BopsConfig::default()),
        ] {
            let est = SelectivityEstimator::from_cross(&a, &b, method).unwrap();
            // Mid-range radius: compare against exact count.
            let r = 0.05;
            let exact = pa.cross_count(&pb, r, Metric::Linf, 0) as f64;
            let got = est.estimate_pair_count(r);
            let rel = (got - exact).abs() / exact;
            assert!(
                rel < 0.5,
                "method {method:?}: estimate {got} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn estimates_scale_as_power_law() {
        let a = uniform::unit_cube::<2>(2_000, 3);
        let est =
            SelectivityEstimator::from_self(&a, EstimationMethod::Bops(BopsConfig::default()))
                .unwrap();
        let alpha = est.law().exponent;
        let ratio = est.estimate_pair_count(0.02) / est.estimate_pair_count(0.01);
        assert!((ratio - 2f64.powf(alpha)).abs() < 1e-6);
    }

    #[test]
    fn from_law_roundtrip() {
        let a = uniform::unit_cube::<2>(1_000, 4);
        let est =
            SelectivityEstimator::from_self(&a, EstimationMethod::Bops(BopsConfig::default()))
                .unwrap();
        let rebuilt = SelectivityEstimator::from_law(*est.law());
        assert_eq!(
            est.estimate_selectivity(0.03),
            rebuilt.estimate_selectivity(0.03)
        );
    }

    #[test]
    fn sampled_method_recovers_full_data_counts() {
        let a = uniform::unit_cube::<2>(6_000, 11);
        let b = uniform::unit_cube::<2>(6_000, 12);
        let full = SelectivityEstimator::from_cross(
            &a,
            &b,
            EstimationMethod::ExactPcPlot(PcPlotConfig::default()),
        )
        .unwrap();
        let sampled = SelectivityEstimator::from_cross(
            &a,
            &b,
            EstimationMethod::SampledPcPlot {
                rate: 0.2,
                seed: 7,
                cfg: PcPlotConfig::default(),
            },
        )
        .unwrap();
        // The rescaled sampled law answers in FULL-data units.
        let r = 0.05;
        let ratio = sampled.estimate_pair_count(r) / full.estimate_pair_count(r);
        assert!(
            (0.5..2.0).contains(&ratio),
            "sampled/full count ratio {ratio}"
        );
        // And its selectivity denominator uses the full cardinalities.
        assert_eq!(sampled.law().n, 6_000);
        assert_eq!(sampled.law().m, 6_000);
    }

    #[test]
    fn sampled_self_join_rescales_correctly() {
        let a = uniform::unit_cube::<2>(6_000, 13);
        let full =
            SelectivityEstimator::from_self(&a, EstimationMethod::Bops(BopsConfig::default()))
                .unwrap();
        let sampled = SelectivityEstimator::from_self(
            &a,
            EstimationMethod::SampledPcPlot {
                rate: 0.25,
                seed: 9,
                cfg: PcPlotConfig::default(),
            },
        )
        .unwrap();
        let r = 0.05;
        let ratio = sampled.estimate_pair_count(r) / full.estimate_pair_count(r);
        assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sampled_method_rejects_bad_rates() {
        let a = uniform::unit_cube::<2>(100, 14);
        for rate in [0.0, -0.5, 1.5, f64::NAN] {
            let m = EstimationMethod::SampledPcPlot {
                rate,
                seed: 1,
                cfg: PcPlotConfig::default(),
            };
            assert!(
                SelectivityEstimator::from_self(&a, m).is_err(),
                "rate {rate} accepted"
            );
        }
    }

    #[test]
    fn rate_one_sampling_is_exact_pc_plot() {
        let a = uniform::unit_cube::<2>(800, 15);
        let exact = SelectivityEstimator::from_self(
            &a,
            EstimationMethod::ExactPcPlot(PcPlotConfig::default()),
        )
        .unwrap();
        let one = SelectivityEstimator::from_self(
            &a,
            EstimationMethod::SampledPcPlot {
                rate: 1.0,
                seed: 1,
                cfg: PcPlotConfig::default(),
            },
        )
        .unwrap();
        assert_eq!(exact.law().exponent, one.law().exponent);
        assert!((exact.law().k - one.law().k).abs() / exact.law().k < 1e-12);
    }

    #[test]
    fn observed_estimates_emit_accuracy_records() {
        let _obs = crate::obs_lock();
        let a = uniform::unit_cube::<2>(1_500, 21);
        let est =
            SelectivityEstimator::from_self(&a, EstimationMethod::Bops(BopsConfig::default()))
                .unwrap();
        let (got, snap) = sjpl_obs::capture(|| {
            est.estimate_pair_count_observed("uniform-1500", 0.05, Some(1000.0))
        });
        assert_eq!(got, est.estimate_pair_count(0.05));
        let rec = snap
            .accuracy
            .iter()
            .find(|r| r.dataset == "uniform-1500")
            .expect("accuracy record emitted");
        assert_eq!(rec.method, "bops");
        assert_eq!(rec.join_kind, "self");
        assert_eq!(rec.radius, 0.05);
        assert_eq!(rec.estimated_pc, got);
        assert_eq!(rec.true_pc, Some(1000.0));
        assert!(rec.rel_error().is_some());
        // Stored laws are labeled as such.
        assert_eq!(
            SelectivityEstimator::from_law(*est.law()).method_label(),
            "stored-law"
        );
    }

    #[test]
    fn selectivity_is_in_unit_interval() {
        let a = uniform::unit_cube::<2>(800, 5);
        let b = uniform::unit_cube::<2>(900, 6);
        let est =
            SelectivityEstimator::from_cross(&a, &b, EstimationMethod::Bops(BopsConfig::default()))
                .unwrap();
        for r in [1e-6, 1e-3, 0.1, 1.0, 100.0] {
            let s = est.estimate_selectivity(r);
            assert!((0.0..=1.0).contains(&s), "selectivity {s} at r {r}");
        }
    }
}
