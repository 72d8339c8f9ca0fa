//! Cross-crate agreement: the PC-plot's cumulative counts must equal the
//! exact distance-join counts from every index algorithm, on realistic
//! (clustered, fractal) data — not just uniform noise.

use sjpl_core::{pc_plot_cross, pc_plot_self, PcPlotConfig};
use sjpl_datagen::{galaxy, roads, sierpinski};
use sjpl_geom::Metric;
use sjpl_index::{
    pair_count, par_sweep_join_count, par_sweep_self_join_count, self_pair_count, JoinAlgorithm,
};

/// Tolerance for bin-edge float fuzz: a pair whose distance is within one
/// ULP of a bin edge may be counted one bin later by the histogram.
fn close_enough(plot_count: u64, exact: u64) -> bool {
    let diff = plot_count.abs_diff(exact);
    diff <= 1 + exact / 1000
}

#[test]
fn pc_plot_matches_every_join_algorithm_on_clustered_cross_join() {
    let (dev, exp) = galaxy::correlated_pair(1_200, 900, 1);
    let cfg = PcPlotConfig {
        bins: 14,
        ..Default::default()
    };
    let plot = pc_plot_cross(&dev, &exp, &cfg).unwrap();
    // Check a spread of radii against all five algorithms.
    for idx in [2, 5, 8, 11, 13] {
        let r = plot.radii()[idx];
        let plot_count = plot.counts()[idx];
        for algo in JoinAlgorithm::ALL {
            let exact = pair_count(algo, dev.points(), exp.points(), r, Metric::Linf);
            assert!(
                close_enough(plot_count, exact),
                "{} at r={r}: plot {plot_count} vs exact {exact}",
                algo.name()
            );
        }
    }
}

#[test]
fn pc_plot_matches_every_join_algorithm_on_fractal_self_join() {
    let s = sierpinski::triangle(1_500, 2);
    let cfg = PcPlotConfig {
        bins: 12,
        ..Default::default()
    };
    let plot = pc_plot_self(&s, &cfg).unwrap();
    for idx in [3, 6, 9, 11] {
        let r = plot.radii()[idx];
        let plot_count = plot.counts()[idx];
        for algo in JoinAlgorithm::ALL {
            let exact = self_pair_count(algo, s.points(), r, Metric::Linf);
            assert!(
                close_enough(plot_count, exact),
                "{} at r={r}: plot {plot_count} vs exact {exact}",
                algo.name()
            );
        }
    }
}

#[test]
fn join_algorithms_agree_under_all_metrics_on_street_data() {
    let streets = roads::street_network(800, 3);
    let rails = roads::rail_network(600, 4);
    for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)] {
        for r in [0.005, 0.05, 0.3] {
            let reference = pair_count(
                JoinAlgorithm::NestedLoop,
                streets.points(),
                rails.points(),
                r,
                metric,
            );
            for algo in JoinAlgorithm::ALL {
                assert_eq!(
                    pair_count(algo, streets.points(), rails.points(), r, metric),
                    reference,
                    "{} under {metric:?} at r={r}",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn self_join_never_counts_self_pairs() {
    // At radius 0 on a duplicate-free set, the self-join count is the
    // number of coincident pairs: zero.
    let s = sierpinski::triangle(2_000, 5);
    for algo in JoinAlgorithm::ALL {
        // chaos-game points are almost surely distinct
        assert_eq!(self_pair_count(algo, s.points(), 0.0, Metric::Linf), 0);
    }
}

#[test]
fn par_sweep_at_explicit_thread_counts_matches_the_nested_loop() {
    // `JoinAlgorithm::ParSweep` above runs at auto threads; pin the one-slab
    // inline path and the multi-slab worker path too. 9 000 points clear
    // the sweep's 4 096-point slab floor, so four threads cut three slabs.
    let (dev, exp) = galaxy::correlated_pair(9_000, 3_000, 6);
    let s = sierpinski::triangle(9_000, 7);
    for r in [0.001, 0.01] {
        let cross = pair_count(
            JoinAlgorithm::NestedLoop,
            dev.points(),
            exp.points(),
            r,
            Metric::Linf,
        );
        let selfj = self_pair_count(JoinAlgorithm::NestedLoop, s.points(), r, Metric::Linf);
        for threads in [1, 4] {
            assert_eq!(
                par_sweep_join_count(dev.points(), exp.points(), r, Metric::Linf, threads),
                cross,
                "cross r={r} threads={threads}"
            );
            assert_eq!(
                par_sweep_self_join_count(s.points(), r, Metric::Linf, threads),
                selfj,
                "self r={r} threads={threads}"
            );
        }
    }
}
