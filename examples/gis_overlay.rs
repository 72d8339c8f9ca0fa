//! GIS overlay scenario — the paper's motivating query family:
//! "find all houses within 2 miles of a river".
//!
//! ```text
//! cargo run --release --example gis_overlay
//! ```
//!
//! We generate a street network (proxy for addresses) and a drainage
//! network (rivers), fit the cross-join pair-count law both the slow way
//! (exact PC plot) and the fast way (BOPS), compare their answers against
//! the exact join count at a query radius, and show the self-join /
//! fractal-dimension analysis of each layer.

use sjpl_core::{
    bops_plot_cross, correlation_dimension_bops, pc_plot_cross, BopsConfig, FitOptions,
    PcPlotConfig,
};
use sjpl_datagen::{roads, water};
use sjpl_geom::Metric;
use sjpl_index::PreparedSet;

fn main() {
    let streets = roads::street_network(15_000, 7);
    let rivers = water::drainage(12_000, 8);
    println!(
        "layers: {} ({}), {} ({})",
        streets.name(),
        streets.len(),
        rivers.name(),
        rivers.len()
    );

    // Per-layer intrinsic dimensionality (Observation 1: the self-join
    // exponent is the correlation fractal dimension).
    for layer in [&streets, &rivers] {
        let d2 = correlation_dimension_bops(layer, 11).unwrap();
        println!("  D2({}) ≈ {:.3}", layer.name(), d2);
    }

    let opts = FitOptions::default();

    // Slow, accurate: exact quadratic PC plot.
    let t0 = std::time::Instant::now();
    let pc_law = pc_plot_cross(&streets, &rivers, &PcPlotConfig::default())
        .unwrap()
        .fit(&opts)
        .unwrap();
    let pc_time = t0.elapsed();

    // Fast: linear BOPS plot.
    let t0 = std::time::Instant::now();
    let bops_law = bops_plot_cross(&streets, &rivers, &BopsConfig::default())
        .unwrap()
        .fit(&opts)
        .unwrap();
    let bops_time = t0.elapsed();

    println!(
        "\nPC-plot law:  alpha = {:.3}, K = {:.3e}   ({:.2?})",
        pc_law.exponent, pc_law.k, pc_time
    );
    println!(
        "BOPS law:     alpha = {:.3}, K = {:.3e}   ({:.2?}, {:.0}x faster)",
        bops_law.exponent,
        bops_law.k,
        bops_time,
        pc_time.as_secs_f64() / bops_time.as_secs_f64().max(1e-9)
    );

    // "How many street points lie within r of a river?" — compare the O(1)
    // estimates with the exact join at a few radii.
    println!(
        "\n{:>9} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "radius", "exact", "PC est", "BOPS est", "PC err", "BOPS err"
    );
    let (ps, pr) = (
        PreparedSet::new(streets.points()),
        PreparedSet::new(rivers.points()),
    );
    for r in [0.002, 0.005, 0.01, 0.02] {
        let exact = ps.cross_count(&pr, r, Metric::Linf, 0) as f64;
        let pe = pc_law.pair_count(r);
        let be = bops_law.pair_count(r);
        println!(
            "{:>9.4} {:>14.0} {:>14.0} {:>14.0} {:>8.1}% {:>8.1}%",
            r,
            exact,
            pe,
            be,
            100.0 * (pe - exact).abs() / exact,
            100.0 * (be - exact).abs() / exact
        );
    }
}
