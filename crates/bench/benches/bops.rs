//! Criterion micro-benchmarks for the BOPS estimator: throughput vs dataset
//! size, vs dimensionality, vs number of grid levels — the cost model
//! behind the Table 5 headline (O((N+M)·levels·D)) — plus the engine
//! matrix comparing the two key schedules (Morton keys sorted once for the
//! dyadic grid, per-level keys for the gentle one) across thread counts,
//! level counts, and input sizes.
//!
//! A custom `main` drains the harness registry after all groups run and
//! writes `BENCH_bops.json` at the repository root, so engine speedups are
//! machine-checkable across commits. Since schema 2 the file is an object:
//! run metadata (`meta`), the per-benchmark `results` (each carrying the
//! previous run's mean as `prev_mean_ns` for before/after diffing), a
//! per-stage span breakdown of one observed BOPS run (`stages`, from the
//! `sjpl-obs` recorder), and a disabled-vs-enabled recorder cost
//! measurement (`obs_overhead`). Schema 3 adds the two sections `sjpl
//! regress` consumes: a `summary` (schema-versioned `{name, mean_ns,
//! min_ns, prev_mean_ns}` series, gated on `min_ns`; the external
//! bench-trajectory harness reads the same shape) and an `accuracy` array
//! of estimator-vs-exact-join records on fixed datasets and radii. Passing `-- --profile` additionally runs
//! the span-stack sampling profiler over the observed workload and embeds
//! a `profile` section: sampling rate, sample accounting, and the top
//! spans by self time (the flamegraph's widest leaves, machine-readable).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use sjpl_core::streaming::Side;
use sjpl_core::{bops_plot_cross, bops_plot_self, BopsConfig, FitOptions, StreamingBops};
use sjpl_datagen::{galaxy, manifold, sierpinski, uniform};
use sjpl_geom::{Aabb, Point};

fn bops_vs_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("bops/size");
    for n in [1_000usize, 4_000, 16_000, 64_000] {
        let (a, b) = galaxy::correlated_pair(n, n, 7);
        g.throughput(Throughput::Elements(2 * n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| bops_plot_cross(&a, &b, &BopsConfig::default()).unwrap());
        });
    }
    g.finish();
}

fn bops_vs_dimension(c: &mut Criterion) {
    let mut g = c.benchmark_group("bops/dimension");
    let n = 8_000;
    let d2 = uniform::unit_cube::<2>(n, 1);
    let d4 = uniform::unit_cube::<4>(n, 1);
    let d8 = uniform::unit_cube::<8>(n, 1);
    let d16 = manifold::eigenfaces_like(n, 1);
    g.bench_function("2d", |b| {
        b.iter(|| bops_plot_self(&d2, &BopsConfig::default()).unwrap())
    });
    g.bench_function("4d", |b| {
        b.iter(|| bops_plot_self(&d4, &BopsConfig::default()).unwrap())
    });
    g.bench_function("8d", |b| {
        b.iter(|| bops_plot_self(&d8, &BopsConfig::default()).unwrap())
    });
    g.bench_function("16d", |b| {
        b.iter(|| bops_plot_self(&d16, &BopsConfig::high_dimensional()).unwrap())
    });
    g.finish();
}

fn bops_vs_levels(c: &mut Criterion) {
    let mut g = c.benchmark_group("bops/levels");
    let (a, b) = galaxy::correlated_pair(16_000, 16_000, 3);
    for levels in [4u32, 8, 12, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(levels), &levels, |bench, &l| {
            bench.iter(|| bops_plot_cross(&a, &b, &BopsConfig::dyadic(l)).unwrap());
        });
    }
    g.finish();
}

/// The engine matrix: `{dyadic, gentle} schedule x {1, 4} threads x {8, 12}
/// levels` over cross joins of N = 10⁴ … 10⁶ points per side (2-d). The
/// dyadic schedule (`ratio = 0.5`) runs on Morton keys sorted once, the
/// gentle one (`ratio = 0.8`) on per-level keys. Benchmark ids are
/// `bops/engines/<schedule>/t<threads>/L<levels>/<n>` so the JSON snapshot
/// can be diffed field by field.
fn bops_engine_matrix(c: &mut Criterion) {
    let mut g = c.benchmark_group("bops/engines");
    g.sample_size(10);
    for n in [10_000usize, 100_000, 1_000_000] {
        let (a, b) = galaxy::correlated_pair(n, n, 11);
        for (ratio, schedule) in [(0.5, "dyadic"), (0.8, "gentle")] {
            for threads in [1usize, 4] {
                for levels in [8u32, 12] {
                    let cfg = BopsConfig {
                        levels,
                        ratio,
                        threads,
                    };
                    g.throughput(Throughput::Elements(2 * n as u64));
                    g.bench_function(
                        BenchmarkId::new(format!("{schedule}/t{threads}/L{levels}"), n),
                        |bench| {
                            bench.iter(|| bops_plot_cross(&a, &b, &cfg).unwrap());
                        },
                    );
                }
            }
        }
    }
    g.finish();
}

fn streaming_updates(c: &mut Criterion) {
    let mut g = c.benchmark_group("bops/streaming");
    let bounds = Aabb {
        lo: Point([0.0, 0.0]),
        hi: Point([1.0, 1.0]),
    };
    let (a, b) = galaxy::correlated_pair(20_000, 20_000, 5);
    // Insert throughput: one full load per iteration.
    g.throughput(Throughput::Elements(40_000));
    g.bench_function("insert_40k", |bench| {
        bench.iter(|| {
            let mut s = StreamingBops::new(bounds, 10).unwrap();
            s.load(&a, &b).unwrap();
            s
        })
    });
    // Refit cost after the sketch is warm (O(levels²), size-independent).
    let mut warm = StreamingBops::new(bounds, 10).unwrap();
    warm.load(&a, &b).unwrap();
    g.throughput(Throughput::Elements(1));
    g.bench_function("refit_law", |bench| {
        bench.iter(|| warm.law(&FitOptions::default()).unwrap())
    });
    // Single-point update against the warm sketch.
    g.bench_function("single_insert_remove", |bench| {
        let p = Point([0.37, 0.61]);
        bench.iter(|| {
            warm.insert(Side::A, &p).unwrap();
            warm.remove(Side::A, &p).unwrap();
        })
    });
    g.finish();
}

/// The exact-join kernel series `join/<algo>/<n>`: nested-loop vs the
/// serial plane sweep vs the partitioned parallel sweep (auto threads, so
/// CI machines show the multicore speedup — the regress target is ≥4× over
/// `join/plane-sweep/1000000` at 8 threads). L2 self-join at a radius small
/// enough that the sweeps are window-bound, the regime the accuracy
/// pipeline runs them in. Nested-loop is *capped at 10⁵ points* — the cap
/// is visible here and in `meta.join_workload`, not silent — because the
/// quadratic kernel needs hours for 10⁶.
fn join_kernels(c: &mut Criterion) {
    use sjpl_geom::Metric;
    use sjpl_index::{self_pair_count, JoinAlgorithm};

    let mut g = c.benchmark_group("join");
    g.sample_size(2); // the kernels are seconds-per-iter at 10⁶ points
    const R: f64 = 0.0005;
    for n in [100_000usize, 1_000_000] {
        let set = uniform::unit_cube::<2>(n, 41);
        g.throughput(Throughput::Elements(n as u64));
        if n <= 100_000 {
            g.bench_function(BenchmarkId::new("nested-loop", n), |bench| {
                bench.iter(|| {
                    self_pair_count(JoinAlgorithm::NestedLoop, set.points(), R, Metric::L2)
                });
            });
        }
        g.bench_function(BenchmarkId::new("plane-sweep", n), |bench| {
            bench.iter(|| self_pair_count(JoinAlgorithm::PlaneSweep, set.points(), R, Metric::L2));
        });
        g.bench_function(BenchmarkId::new("par-sweep", n), |bench| {
            bench.iter(|| self_pair_count(JoinAlgorithm::ParSweep, set.points(), R, Metric::L2));
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bops_vs_size, bops_vs_dimension, bops_vs_levels, bops_engine_matrix,
              streaming_updates, join_kernels
}

/// The fixed workload used for the stage breakdown and the recorder-cost
/// measurement: a 10⁵-per-side cross join on Morton keys.
fn observed_workload() -> (sjpl_geom::PointSet<2>, sjpl_geom::PointSet<2>, BopsConfig) {
    let (a, b) = galaxy::correlated_pair(100_000, 100_000, 11);
    let cfg = BopsConfig::dyadic(12).with_threads(4);
    (a, b, cfg)
}

/// Times `iters` runs of the observed workload and returns the mean in ns.
fn mean_run_ns(a: &sjpl_geom::PointSet<2>, b: &sjpl_geom::PointSet<2>, cfg: &BopsConfig) -> f64 {
    const ITERS: u32 = 8;
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(bops_plot_cross(a, b, cfg).unwrap());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// Parses `"name": "..."` / `"mean_ns": ...` pairs from the previous
/// BENCH_bops.json. Both the schema-1 flat array and the schema-2 object
/// keep one result per line, so a line scan reads either. (`mean_ns` is
/// matched with its leading quote, which skips `prev_mean_ns`.)
fn previous_means(path: &str) -> std::collections::HashMap<String, f64> {
    let mut map = std::collections::HashMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return map;
    };
    for line in text.lines() {
        let Some(name) = line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|s| s.split('"').next())
        else {
            continue;
        };
        let Some(mean) = line
            .split("\"mean_ns\": ")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse::<f64>().ok())
        else {
            continue;
        };
        map.insert(name.to_owned(), mean);
    }
    map
}

/// Estimator accuracy on fixed datasets and radii: BOPS-backed estimates
/// against exact join counts (each dataset prepared once via
/// `PreparedSet`, reused across all radii), recorded through the
/// estimator's own telemetry path so `BENCH_bops.json` and the snapshot
/// schema agree.
fn accuracy_records() -> Vec<sjpl_obs::Accuracy> {
    use sjpl_core::{EstimationMethod, SelectivityEstimator};
    use sjpl_geom::Metric;
    use sjpl_index::PreparedSet;

    const RADII: [f64; 3] = [0.02, 0.05, 0.1];
    sjpl_obs::reset();
    sjpl_obs::set_enabled(true);

    let uni = uniform::unit_cube::<2>(20_000, 31);
    let sier = sierpinski::triangle(20_000, 32);
    for (name, set) in [("uniform-20k", &uni), ("sierpinski-20k", &sier)] {
        let est =
            SelectivityEstimator::from_self(set, EstimationMethod::Bops(BopsConfig::default()))
                .expect("fit self-join law");
        let prepared = PreparedSet::new(set.points());
        for r in RADII {
            let truth = prepared.self_count(r, Metric::Linf, 0) as f64;
            est.estimate_pair_count_observed(name, r, Some(truth));
        }
    }
    let (ga, gb) = galaxy::correlated_pair(20_000, 20_000, 33);
    let est =
        SelectivityEstimator::from_cross(&ga, &gb, EstimationMethod::Bops(BopsConfig::default()))
            .expect("fit cross-join law");
    let (pa, pb) = (PreparedSet::new(ga.points()), PreparedSet::new(gb.points()));
    for r in RADII {
        let truth = pa.cross_count(&pb, r, Metric::Linf, 0) as f64;
        est.estimate_pair_count_observed("galaxy-20k", r, Some(truth));
    }

    let snap = sjpl_obs::snapshot();
    sjpl_obs::set_enabled(false);
    sjpl_obs::reset();
    snap.accuracy
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_owned(),
    }
}

fn main() {
    benches();
    let results = criterion::take_results();
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bops.json");
    let prev = previous_means(out);

    // Stage breakdown: one observed run with the recorder on.
    let (a, b, cfg) = observed_workload();
    let (_, stage_snap) = sjpl_obs::capture(|| bops_plot_cross(&a, &b, &cfg).unwrap());

    // Recorder cost on the same workload: disabled vs enabled means.
    sjpl_obs::set_enabled(false);
    let _ = mean_run_ns(&a, &b, &cfg); // warm-up
    let disabled_ns = mean_run_ns(&a, &b, &cfg);
    sjpl_obs::reset();
    sjpl_obs::set_enabled(true);
    let enabled_ns = mean_run_ns(&a, &b, &cfg);
    sjpl_obs::set_enabled(false);
    sjpl_obs::reset();

    // `cargo bench --bench bops -- --profile`: sample the span-stack
    // profiler while the observed workload runs, so the report carries a
    // flamegraph summary of where the estimator's time actually goes.
    // Opt-in — sampling is cheap but not free, and the default report
    // must stay comparable across commits.
    let profile = if std::env::args().any(|a| a == "--profile") {
        sjpl_obs::reset();
        sjpl_obs::set_enabled(true);
        assert!(
            sjpl_obs::prof::start(997.0),
            "span-stack profiler already running"
        );
        let _ = mean_run_ns(&a, &b, &cfg);
        let prof = sjpl_obs::prof::stop().expect("profiler was started above");
        sjpl_obs::set_enabled(false);
        sjpl_obs::reset();
        Some(prof)
    } else {
        None
    };

    let accuracy = accuracy_records();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"schema\": 3,\n");
    json.push_str(&format!(
        "  \"meta\": {{\"host_cores\": {cores}, \"engines\": [\"dyadic\", \"gentle\"], \
         \"threads_matrix\": [1, 4], \"levels_matrix\": [8, 12], \
         \"observed_workload\": \"cross 100k x 100k, 2-d, dyadic (sorted-morton-64), t4, L12\", \
         \"join_workload\": \"L2 self-join, uniform 2-d, r=0.0005; par-sweep at auto \
         threads; nested-loop capped at 1e5 points (quadratic)\"}},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let elements = match r.throughput {
            Some(criterion::Throughput::Elements(n)) => n as i64,
            _ => -1,
        };
        let prev_field = match prev.get(&r.name) {
            Some(m) => format!(", \"prev_mean_ns\": {m:.1}"),
            None => String::new(),
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"iters\": {}, \"elements\": {}{}}}{}\n",
            r.name,
            r.mean_ns,
            r.min_ns,
            r.iters,
            elements,
            prev_field,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // The machine-parseable summary: the exact shape `sjpl regress` (and
    // the external bench-trajectory harness) consumes.
    json.push_str("  \"summary\": {\"schema\": 1, \"series\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"prev_mean_ns\": {}}}{}\n",
            r.name,
            r.mean_ns,
            r.min_ns,
            json_opt(prev.get(&r.name).copied()),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str("  \"accuracy\": [\n");
    for (i, a) in accuracy.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"method\": \"{}\", \"join_kind\": \"{}\", \
             \"radius\": {}, \"estimated_pc\": {:.1}, \"true_pc\": {}, \
             \"rel_error\": {}}}{}\n",
            a.dataset,
            a.method,
            a.join_kind,
            a.radius,
            a.estimated_pc,
            json_opt(a.true_pc),
            json_opt(a.rel_error()),
            if i + 1 < accuracy.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"stages\": ");
    json.push_str(&stage_snap.to_json().trim_end().replace('\n', "\n  "));
    json.push_str(",\n");
    json.push_str(&format!(
        "  \"obs_overhead\": {{\"disabled_mean_ns\": {disabled_ns:.1}, \
         \"enabled_mean_ns\": {enabled_ns:.1}, \"overhead_pct\": {:.2}}}",
        100.0 * (enabled_ns - disabled_ns) / disabled_ns
    ));
    if let Some(p) = &profile {
        let mut spans = p.spans();
        spans.sort_by(|x, y| {
            y.self_samples
                .cmp(&x.self_samples)
                .then_with(|| x.name.cmp(&y.name))
        });
        spans.truncate(10);
        json.push_str(&format!(
            ",\n  \"profile\": {{\"hz\": {}, \"duration_ns\": {}, \"samples\": {}, \
             \"dropped\": {}, \"overhead_ns\": {}, \"top_self\": [\n",
            p.hz, p.duration_ns, p.samples, p.dropped, p.overhead_ns
        ));
        for (i, s) in spans.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"span\": \"{}\", \"self_samples\": {}, \"total_samples\": {}}}{}\n",
                s.name,
                s.self_samples,
                s.total_samples,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]}");
    }
    json.push_str("\n}\n");
    std::fs::write(out, json).expect("write BENCH_bops.json");
    println!("wrote {out}");
    println!(
        "recorder cost on observed workload: disabled {:.2} ms, enabled {:.2} ms ({:+.2}%)",
        disabled_ns / 1e6,
        enabled_ns / 1e6,
        100.0 * (enabled_ns - disabled_ns) / disabled_ns
    );
    if let Some(p) = &profile {
        println!(
            "profile: {} samples at {} Hz over {:.2} ms ({} dropped), top spans embedded",
            p.samples,
            p.hz,
            p.duration_ns as f64 / 1e6,
            p.dropped
        );
    }
}
