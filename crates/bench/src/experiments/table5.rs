//! Table 5: wall-clock time to obtain the pair-count exponent by PC-plot
//! (quadratic) vs BOPS (linear) — the headline speedup.

use std::time::Instant;

use sjpl_core::{bops_plot_cross, pc_plot_cross, BopsConfig, FitOptions, PcPlotConfig};
use sjpl_geom::PointSet;

use crate::data::Workbench;
use crate::experiments::sampled;
use crate::report::Report;

/// Times one (a × b) pair: seconds for the PC plot and for the BOPS plot.
/// Both run single-threaded, as the paper's C++ implementation did.
fn time_pair<const D: usize>(a: &PointSet<D>, b: &PointSet<D>) -> (f64, f64) {
    let pc_cfg = PcPlotConfig {
        threads: 1,
        ..Default::default()
    };
    let opts = FitOptions::default();
    let t0 = Instant::now();
    let plot = pc_plot_cross(a, b, &pc_cfg).expect("pc");
    let _ = plot.fit(&opts);
    let pc_time = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let plot = bops_plot_cross(a, b, &BopsConfig::default()).expect("bops");
    let _ = plot.fit(&opts);
    let bops_time = t0.elapsed().as_secs_f64();
    (pc_time, bops_time)
}

/// Times the default BOPS config at `threads` workers on a cross pair,
/// seconds (best of 3 — these runs are short enough that a stray scheduler
/// hiccup dominates a single measurement).
fn time_threads<const D: usize>(a: &PointSet<D>, b: &PointSet<D>, threads: usize) -> f64 {
    let cfg = BopsConfig::default().with_threads(threads);
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            bops_plot_cross(a, b, &cfg).expect("bops");
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn run(w: &Workbench, r: &mut Report) {
    r.section(
        "Table 5",
        "Wall-clock: PC-plot vs BOPS",
        "paper (Pentium II 450 MHz): pol x wat 7752s vs 3.4s; BOPS is up to \
         four orders of magnitude faster, and BOPS on the FULL data still \
         beats PC-plots on 10% samples by up to 20x.",
    );
    let g = &w.geo;
    struct Row {
        name: &'static str,
        pc: f64,
        bops: f64,
    }
    let mut rows_raw = Vec::new();
    let pairs: Vec<(&'static str, &PointSet<2>, &PointSet<2>)> = vec![
        ("pol x wat (100%)", &g.political, &g.water),
        ("str x rai (100%)", &g.streets, &g.rails),
        ("pol x str (100%)", &g.political, &g.streets),
        ("dev x exp (100%)", &g.galaxy_dev, &g.galaxy_exp),
    ];
    for (name, a, b) in &pairs {
        let (pc, bops) = time_pair(*a, *b);
        rows_raw.push(Row { name, pc, bops });
    }
    // 10% samples of the first geographic pair + the galaxy pair, matching
    // the paper's sampled rows (sampling cost included in the PC figure, as
    // the paper notes the whole dataset must be scanned to sample it).
    let mut sampled_rows = Vec::new();
    for (name, a, b) in [
        ("pol x wat (10%)", &g.political, &g.water),
        ("dev x exp (10%)", &g.galaxy_dev, &g.galaxy_exp),
    ] {
        let t0 = Instant::now();
        let sa = sampled(a, 0.1, 10_000);
        let sb = sampled(b, 0.1, 10_001);
        let sample_cost = t0.elapsed().as_secs_f64();
        let (pc, bops) = time_pair(&sa, &sb);
        sampled_rows.push(Row {
            name,
            pc: pc + sample_cost,
            bops: bops + sample_cost,
        });
    }
    // Iris rows (tiny sets — the paper's fastest rows).
    let (pc, bops) = time_pair(&w.iris[0], &w.iris[2]);
    let iris1 = Row {
        name: "setosa x virginica",
        pc,
        bops,
    };
    let (pc, bops) = time_pair(&w.iris[2], &w.iris[1]);
    let iris2 = Row {
        name: "virginica x versicolor",
        pc,
        bops,
    };

    let all: Vec<&Row> = rows_raw
        .iter()
        .chain(sampled_rows.iter())
        .chain([&iris1, &iris2])
        .collect();
    let rows: Vec<Vec<String>> = all
        .iter()
        .map(|row| {
            vec![
                row.name.into(),
                format!("{:.4}", row.pc),
                format!("{:.4}", row.bops),
                format!("{:.0}x", row.pc / row.bops.max(1e-9)),
            ]
        })
        .collect();
    r.table(&["datasets", "PC-plot (s)", "BOPS (s)", "speedup"], &rows);

    // Engine shoot-out on the same pairs: the sorted Morton keys of the
    // default config, single-threaded and with 4 workers. Both produce
    // bit-identical plots; only the clock differs.
    let engine_rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|(name, a, b)| {
            vec![
                (*name).into(),
                format!("{:.4}", time_threads(a, b, 1)),
                format!("{:.4}", time_threads(a, b, 4)),
            ]
        })
        .collect();
    r.table(
        &["datasets", "sorted x1 (s)", "sorted x4 (s)"],
        &engine_rows,
    );

    let full_speedups: Vec<f64> = rows_raw.iter().map(|r| r.pc / r.bops.max(1e-9)).collect();
    let best = full_speedups.iter().cloned().fold(0.0f64, f64::max);
    // The paper's second observation: BOPS on full data vs PC on 10% samples.
    let bops_full_polwat = rows_raw[0].bops;
    let pc_sampled_polwat = sampled_rows[0].pc;
    r.finding(&format!(
        "BOPS beats the quadratic PC-plot by up to {best:.0}x at this scale \
         (the gap widens quadratically with dataset size — the paper saw 4 \
         orders of magnitude at 70k points); BOPS on the FULL pol x wat \
         ({:.4}s) is still {:.1}x faster than a PC-plot on its 10% sample \
         ({:.4}s), the paper's conclusion 2.",
        bops_full_polwat,
        pc_sampled_polwat / bops_full_polwat.max(1e-9),
        pc_sampled_polwat
    ));
}
