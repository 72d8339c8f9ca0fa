//! Lemma 1 accuracy: `BOPS(s) ≈ PC(s/2)`, and the BOPS exponent matches the
//! PC exponent within the paper's reported error (≤ 9%, Section 5.2).

use sjpl_core::{
    bops_plot_cross, bops_plot_self, pc_plot_self, BopsConfig, FitOptions, PcPlotConfig,
};
use sjpl_datagen::{boundary, galaxy, roads, uniform, water};
use sjpl_geom::Metric;
use sjpl_index::PreparedSet;

#[test]
fn bops_exponent_matches_pc_exponent_within_paper_error() {
    // A battery of (self-join) datasets: exponent disagreement must stay
    // below the paper's 9% bound.
    //
    // BOPS cannot reach radii where cells hold single points (the
    // product-sum is zero there), so its plot covers a narrower scale range
    // than the exact PC plot. Real data is only approximately self-similar —
    // the local slope drifts with scale — so an apples-to-apples comparison
    // fits the PC plot over the radius window the BOPS plot actually covers,
    // which is also how the paper's figures overlay the two plots (Fig. 10).
    let opts = FitOptions::default();
    let sets = [
        roads::street_network(4_000, 1),
        water::drainage(4_000, 2),
        boundary::nested_boundaries(4_000, 3),
        uniform::unit_cube::<2>(4_000, 4),
    ];
    for set in &sets {
        let bops_law = bops_plot_self(set, &BopsConfig::default())
            .unwrap()
            .fit(&opts)
            .unwrap();
        let pc_cfg = PcPlotConfig {
            radius_range: Some((bops_law.fit.x_lo, bops_law.fit.x_hi)),
            ..Default::default()
        };
        let pc = pc_plot_self(set, &pc_cfg)
            .unwrap()
            .fit(&opts)
            .unwrap()
            .exponent;
        let bops = bops_law.exponent;
        let rel = (pc - bops).abs() / pc;
        assert!(
            rel < 0.09,
            "{}: PC α {pc} vs BOPS α {bops} (rel {rel})",
            set.name()
        );
    }
}

#[test]
fn bops_value_approximates_pc_at_half_side_mid_range() {
    // Lemma 1 pointwise: in the middle of the scale range (away from the
    // single-cell and single-point extremes) BOPS(s) should approximate
    // PC(s/2) within a small multiplicative factor.
    let (dev, exp) = galaxy::correlated_pair(4_000, 3_000, 5);
    let plot = bops_plot_cross(&dev, &exp, &BopsConfig::dyadic(10)).unwrap();
    let radii = plot.radii();
    let values = plot.values();
    let (pd, pe) = (
        PreparedSet::new(dev.points()),
        PreparedSet::new(exp.points()),
    );
    let mut checked = 0;
    for i in 0..radii.len() {
        let r = radii[i];
        let exact = pd.cross_count(&pe, r, Metric::Linf, 0) as f64;
        if exact < 500.0 || values[i] < 500.0 {
            continue; // too sparse for the smooth-density assumption
        }
        let ratio = values[i] / exact;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "level {i} (r={r}): BOPS {} vs PC {exact} (ratio {ratio})",
            values[i]
        );
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} levels were dense enough");
}

#[test]
fn bops_k_constant_is_usable_for_estimation() {
    // Beyond the exponent, the fitted constant K from BOPS must yield
    // count estimates of the right magnitude (the paper's Table 4 shows
    // ~14–35% selectivity error; we allow 2× on synthetic data).
    let streets = roads::street_network(4_000, 7);
    let wat = water::drainage(4_000, 8);
    let law = bops_plot_cross(&streets, &wat, &BopsConfig::default())
        .unwrap()
        .fit(&FitOptions::default())
        .unwrap();
    let (ps, pw) = (
        PreparedSet::new(streets.points()),
        PreparedSet::new(wat.points()),
    );
    let mut checked = 0;
    for r in [0.003, 0.01, 0.03] {
        if !law.in_fitted_range(r) {
            continue;
        }
        let exact = ps.cross_count(&pw, r, Metric::Linf, 0) as f64;
        if exact < 100.0 {
            continue;
        }
        let est = law.pair_count(r);
        let rel = (est - exact).abs() / exact;
        assert!(rel < 2.0, "r={r}: BOPS estimate {est} vs exact {exact}");
        checked += 1;
    }
    assert!(checked >= 2);
}

#[test]
fn finer_levels_extend_the_usable_range_downward() {
    let s = roads::street_network(5_000, 9);
    let coarse = bops_plot_self(&s, &BopsConfig::dyadic(5)).unwrap();
    let fine = bops_plot_self(&s, &BopsConfig::dyadic(12)).unwrap();
    assert!(fine.radii()[0] < coarse.radii()[0]);
    // Shared levels must agree exactly (same grid, same counts).
    let off = fine.radii().len() - coarse.radii().len();
    for i in 0..coarse.radii().len() {
        assert!((fine.radii()[off + i] - coarse.radii()[i]).abs() < 1e-12);
        assert_eq!(fine.values()[off + i], coarse.values()[i]);
    }
}
