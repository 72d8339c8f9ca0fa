//! Criterion head-to-head of the distance-join algorithms at a selective
//! radius — documents why the sweeps and the kd-tree serve as fast ground
//! truth for the accuracy experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sjpl_datagen::{roads, water};
use sjpl_geom::{Metric, Point};
use sjpl_index::{pair_count, JoinAlgorithm, KdTree};

fn join_algorithms(c: &mut Criterion) {
    let mut g = c.benchmark_group("joins/algorithms");
    let a = roads::street_network(8_000, 1);
    let b = water::drainage(8_000, 2);
    for radius in [0.002f64, 0.02] {
        for algo in JoinAlgorithm::ALL {
            // Skip the quadratic baseline at the less selective radius to
            // keep the suite fast; its cost is radius-independent anyway.
            if algo == JoinAlgorithm::NestedLoop && radius > 0.01 {
                continue;
            }
            g.bench_with_input(
                BenchmarkId::new(algo.name(), radius),
                &radius,
                |bench, &r| {
                    bench.iter(|| pair_count(algo, a.points(), b.points(), r, Metric::Linf));
                },
            );
        }
    }
    g.finish();
}

fn join_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("joins/metric_cost");
    let a = roads::street_network(8_000, 3);
    let b = water::drainage(8_000, 4);
    for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(metric.name()),
            &metric,
            |bench, &m| {
                bench.iter(|| pair_count(JoinAlgorithm::KdTree, a.points(), b.points(), 0.01, m));
            },
        );
    }
    g.finish();
}

fn range_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("joins/range_query");
    let data = roads::street_network(20_000, 7);
    let queries: Vec<Point<2>> = water::drainage(200, 8).points().to_vec();
    let r = 0.01;

    let kd = KdTree::build(data.points());
    g.bench_function("kd-tree", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| kd.range_count(q, r, Metric::Linf))
                .sum::<u64>()
        })
    });
    g.finish();
}

fn index_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("joins/index_build");
    let data = roads::street_network(20_000, 9);
    g.bench_function("kd-tree", |b| b.iter(|| KdTree::build(data.points())));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = join_algorithms, join_metrics, range_query, index_build
}
criterion_main!(benches);
