//! Table 4: geometric average of the relative error of selectivity
//! estimation, for the PC-plot method vs the BOPS method, over six joins.

use sjpl_core::{
    bops_plot_cross, bops_plot_self, pc_plot_cross, pc_plot_self, BopsConfig, FitOptions,
    PairCountLaw, PcPlotConfig,
};
use sjpl_geom::{Metric, PointSet};
use sjpl_index::{pair_count, self_pair_count, JoinAlgorithm};
use sjpl_stats::error::geometric_avg_relative_error;

use crate::data::Workbench;
use crate::report::Report;

/// Geometric-average relative error of a law against exact counts, sampled
/// at 8 radii across the law's fitted range (radii with < 50 true pairs are
/// skipped — below that the smooth-density assumption has nothing to hold
/// on to, and the paper likewise evaluates within the usable range).
fn law_error(law: &PairCountLaw, exact: impl Fn(f64) -> u64) -> f64 {
    let (lo, hi) = (law.fit.x_lo, law.fit.x_hi);
    let mut pairs = Vec::new();
    for i in 0..8 {
        let r = lo * (hi / lo).powf(i as f64 / 7.0);
        let truth = exact(r);
        if truth >= 50 {
            pairs.push((law.pair_count(r), truth as f64));
        }
    }
    geometric_avg_relative_error(pairs).unwrap_or(f64::NAN)
}

fn cross_errors(a: &PointSet<2>, b: &PointSet<2>) -> (f64, f64) {
    let opts = FitOptions::default();
    let pc = pc_plot_cross(a, b, &PcPlotConfig::default())
        .expect("pc")
        .fit(&opts)
        .expect("fit");
    let bops = bops_plot_cross(a, b, &BopsConfig::default())
        .expect("bops")
        .fit(&opts)
        .expect("fit");
    let exact = |r: f64| {
        pair_count(
            JoinAlgorithm::KdTree,
            a.points(),
            b.points(),
            r,
            Metric::Linf,
        )
    };
    (law_error(&pc, exact), law_error(&bops, exact))
}

fn self_errors(a: &PointSet<2>) -> (f64, f64) {
    let opts = FitOptions::default();
    let pc = pc_plot_self(a, &PcPlotConfig::default())
        .expect("pc")
        .fit(&opts)
        .expect("fit");
    let bops = bops_plot_self(a, &BopsConfig::default())
        .expect("bops")
        .fit(&opts)
        .expect("fit");
    let exact = |r: f64| self_pair_count(JoinAlgorithm::ParSweep, a.points(), r, Metric::Linf);
    (law_error(&pc, exact), law_error(&bops, exact))
}

pub fn run(w: &Workbench, r: &mut Report) {
    r.section(
        "Table 4",
        "Geometric-average relative selectivity error: PC vs BOPS",
        "paper: PC-plot estimation errs 1.6–6.7%; BOPS estimation errs \
         14–35%. The slow method is consistently more accurate; both are \
         usable (paper's abstract: ~10% and ~30%).",
    );
    let g = &w.geo;
    let joins: Vec<(&str, (f64, f64))> = vec![
        ("dev x exp", cross_errors(&g.galaxy_dev, &g.galaxy_exp)),
        ("dev x dev", self_errors(&g.galaxy_dev)),
        ("exp x exp", self_errors(&g.galaxy_exp)),
        ("pol x wat", cross_errors(&g.political, &g.water)),
        ("pol x pol", self_errors(&g.political)),
        ("wat x wat", self_errors(&g.water)),
    ];
    let rows: Vec<Vec<String>> = joins
        .iter()
        .map(|(name, (pc, bops))| vec![(*name).into(), format!("{pc:.3}"), format!("{bops:.3}")])
        .collect();
    r.table(&["join", "PC-plot est. error", "BOPS est. error"], &rows);
    let pc_avg: f64 = joins.iter().map(|(_, (p, _))| p).sum::<f64>() / joins.len() as f64;
    let bops_avg: f64 = joins.iter().map(|(_, (_, b))| b).sum::<f64>() / joins.len() as f64;
    let wins = joins.iter().filter(|(_, (p, b))| p <= b).count();
    r.finding(&format!(
        "PC-plot estimation averages {:.1}% error, BOPS {:.1}%; PC is at \
         least as accurate on {wins}/6 joins — the paper's ordering \
         (PC ~ a few %, BOPS ~ tens of %).",
        pc_avg * 100.0,
        bops_avg * 100.0
    ));
}
