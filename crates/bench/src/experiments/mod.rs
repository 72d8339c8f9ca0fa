//! One module per reproduced table/figure, plus shared helpers.

pub mod ablation;
pub mod extrapolate;
pub mod fig1;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig8;
pub mod fig9;
pub mod scaling;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sjpl_core::{
    bops_plot_cross, bops_plot_self, BopsConfig, EstimationMethod, FitOptions, PairCountLaw,
    PcPlotConfig, SelectivityEstimator,
};
use sjpl_geom::PointSet;
use sjpl_stats::sampling::sample_rate;

/// Deterministic fixed-rate sample of a point-set.
pub fn sampled<const D: usize>(set: &PointSet<D>, rate: f64, seed: u64) -> PointSet<D> {
    if rate >= 1.0 {
        return set.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    PointSet::new(
        format!("{}@{:.0}%", set.name(), rate * 100.0),
        sample_rate(set.points(), rate, &mut rng).expect("valid rate"),
    )
}

/// Fits the cross-join law via the exact PC plot (paper's slow method).
pub fn pc_cross_law<const D: usize>(a: &PointSet<D>, b: &PointSet<D>) -> PairCountLaw {
    let method = EstimationMethod::ExactPcPlot(PcPlotConfig::default());
    *SelectivityEstimator::from_cross(a, b, method)
        .expect("pc law")
        .law()
}

/// Fits the self-join law via the exact PC plot.
pub fn pc_self_law<const D: usize>(a: &PointSet<D>) -> PairCountLaw {
    let method = EstimationMethod::ExactPcPlot(PcPlotConfig::default());
    *SelectivityEstimator::from_self(a, method)
        .expect("pc law")
        .law()
}

/// Fits a BOPS plot, relaxing the minimum-window requirement when the plot
/// has few non-degenerate points (small high-dimensional sets leave only a
/// handful of levels with any within-cell collisions).
fn bops_fit(plot: &sjpl_core::BopsPlot) -> PairCountLaw {
    plot.fit(&FitOptions::default())
        .or_else(|_| {
            plot.fit(&FitOptions {
                min_points: 3,
                ..Default::default()
            })
        })
        .or_else(|_| plot.fit_full_range())
        .expect("bops fit")
}

/// Fits the cross-join law via BOPS (paper's fast method).
pub fn bops_cross_law<const D: usize>(a: &PointSet<D>, b: &PointSet<D>) -> PairCountLaw {
    bops_fit(&bops_plot_cross(a, b, &BopsConfig::for_dim(D)).expect("bops plot"))
}

/// Fits the self-join law via BOPS.
pub fn bops_self_law<const D: usize>(a: &PointSet<D>) -> PairCountLaw {
    bops_fit(&bops_plot_self(a, &BopsConfig::for_dim(D)).expect("bops plot"))
}

/// `"1.234"` formatting for exponents.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}
