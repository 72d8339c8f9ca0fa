//! Metric-name stability gate.
//!
//! Prometheus scrapes, dashboards and the `sjpl regress` gate key on
//! metric names, so the set a release emits is a public contract:
//! `sjpl_obs::names` enumerates it (mirrored in DESIGN.md §"Metric
//! names"). This test drives a representative workload through the
//! recorder and fails if any emitted name is missing from the registry —
//! i.e. someone added or renamed a metric without registering it — and if
//! any of the pinned names stops being emitted.

use std::sync::Mutex;

use sjpl_core::streaming::Side;
use sjpl_core::{
    bops_plot_self, pc_plot_self, BopsConfig, BopsEngine, FitOptions, PcPlotConfig, StreamingBops,
};
use sjpl_geom::Metric;
use sjpl_index::{self_pair_count, JoinAlgorithm};
use sjpl_obs::names;

/// `capture` resets the process-global recorder, so the two capturing
/// tests must not overlap.
static RECORDER: Mutex<()> = Mutex::new(());

#[test]
fn every_emitted_metric_name_is_registered() {
    let _guard = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
    let pts = sjpl_datagen::uniform::unit_cube::<2>(2_000, 42);
    let fit = FitOptions::default();

    let ((), snap) = sjpl_obs::capture(|| {
        // Datagen counters.
        let _ = sjpl_datagen::sierpinski::triangle(500, 7);

        // Both BOPS engines, plot spans, engine event, fit gauges.
        for engine in [BopsEngine::SortedMorton, BopsEngine::HashMap] {
            let cfg = BopsConfig {
                levels: 8,
                engine,
                ..BopsConfig::default()
            };
            let plot = bops_plot_self(&pts, &cfg).unwrap();
            let _ = plot.fit(&fit).unwrap();
        }

        // The exact estimator's fit path.
        let plot = pc_plot_self(
            &pts,
            &PcPlotConfig {
                bins: 12,
                threads: 1,
                ..PcPlotConfig::default()
            },
        )
        .unwrap();
        let _ = plot.fit(&fit).unwrap();

        // Index-side counters (kd-tree visits/prunes).
        let _ = self_pair_count(JoinAlgorithm::KdTree, pts.points(), 0.05, Metric::Linf);

        // The partitioned parallel sweep: enough points for two slabs at
        // two explicit threads, so the cross-thread worker spans and the
        // per-slab counters are all emitted.
        let big = sjpl_datagen::uniform::unit_cube::<2>(10_000, 43);
        let _ = sjpl_index::par_sweep_self_join_count(big.points(), 0.01, Metric::L2, 2);

        // Streaming counters (updates + a rejected point).
        let mut sb = StreamingBops::<2>::new(pts.bbox(), 8).unwrap();
        for p in pts.points().iter().take(200) {
            sb.insert(Side::A, p).unwrap();
            sb.insert(Side::B, p).unwrap();
        }
        let _ = sb.insert(Side::A, &sjpl_geom::Point::new([5.0, 5.0]));
    });

    let mut emitted: Vec<(&str, String)> = Vec::new();
    for s in &snap.spans {
        emitted.push(("span", s.name.clone()));
    }
    for (n, _) in &snap.counters {
        emitted.push(("counter", n.clone()));
    }
    for (n, _) in &snap.gauges {
        emitted.push(("gauge", n.clone()));
    }
    for e in &snap.events {
        emitted.push(("event", e.name.clone()));
    }
    for e in &snap.timeline.events {
        emitted.push(("timeline span", e.name.to_owned()));
    }
    assert!(!emitted.is_empty(), "the workload recorded nothing");

    let rogue: Vec<String> = emitted
        .iter()
        .filter(|(_, n)| !names::is_stable(n))
        .map(|(kind, n)| format!("{kind} {n:?}"))
        .collect();
    assert!(
        rogue.is_empty(),
        "unregistered metric names emitted (add them to sjpl_obs::names \
         and DESIGN.md §\"Metric names\"): {rogue:?}"
    );
}

#[test]
fn pinned_names_are_still_emitted() {
    let _guard = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
    let pts = sjpl_datagen::uniform::unit_cube::<2>(1_500, 9);
    let ((), snap) = sjpl_obs::capture(|| {
        let cfg = BopsConfig {
            levels: 8,
            ..BopsConfig::default()
        };
        let plot = bops_plot_self(&pts, &cfg).unwrap();
        let _ = plot.fit(&FitOptions::default()).unwrap();
        let _ = self_pair_count(JoinAlgorithm::KdTree, pts.points(), 0.05, Metric::Linf);
        let _ = self_pair_count(JoinAlgorithm::ParSweep, pts.points(), 0.05, Metric::Linf);
    });

    // The contract half the gate: names a consumer is documented to rely
    // on must keep appearing for this canonical workload.
    for span in [
        "bops.plot",
        "bops.quantize",
        "bops.sort",
        "bops.scan",
        "join.partition",
        "join.sweep",
        "join.merge",
    ] {
        assert!(
            snap.spans.iter().any(|s| s.name == span),
            "span {span:?} vanished from the BOPS workload"
        );
    }
    for counter in [
        "bops.plots",
        "bops.points",
        "fit.count",
        "index.node_visits",
        "join.par_sweep.slabs",
    ] {
        assert!(
            snap.counters.iter().any(|(n, _)| n == counter),
            "counter {counter:?} vanished"
        );
    }
    for gauge in ["bops.levels", "fit.exponent", "fit.r_squared"] {
        assert!(
            snap.gauges.iter().any(|(n, _)| n == gauge),
            "gauge {gauge:?} vanished"
        );
    }
}

#[test]
fn registry_covers_the_serve_names_too() {
    // The serve crate sits above core in the dependency graph, so its
    // emissions can't be exercised here; pin its registry entries instead
    // (the serve integration tests assert the emission side).
    for name in [
        "serve.request",
        "serve.read",
        "serve.write",
        "serve.estimate",
        "serve.metrics",
        "serve.slow_request",
        "serve.requests",
        "serve.errors",
        "serve.responses.2xx",
        "serve.responses.3xx",
        "serve.responses.4xx",
        "serve.responses.5xx",
        "serve.slo.breaches",
        "serve.slow_requests",
        "serve.inflight",
        "serve.connections",
        "serve.drift.checks",
        "serve.drift.breaches",
        "serve.drift.breach",
        "serve.scrape",
        "serve.scrape.total",
        "serve.profile",
        "serve.exemplars",
        "prof.samples",
        "prof.dropped_samples",
        "prof.overhead_ns",
        "prof.live.samples",
        "prof.live.dropped_samples",
        "prof.live.overhead_ns",
        // Overload-protection and fault-injection names.
        "serve.panics",
        "serve.shed.total",
        "serve.deadline.exceeded",
        "serve.faults.injected",
        "serve.queue.depth",
        "serve.fault",
        "serve.panic",
    ] {
        assert!(names::is_stable(name), "{name:?} missing from the registry");
    }
    assert!(names::is_stable("serve.drift.rel_error.any_law"));
    assert!(names::is_stable("serve.drift.breached.any_law"));

    // Request-lifecycle dynamic families: per-endpoint × status-class
    // histograms and per-endpoint SLO series. The endpoint suffix always
    // comes from the server's fixed route table, never raw client paths.
    for endpoint in [
        "estimate",
        "metrics",
        "snapshot",
        "timeline",
        "healthz",
        "readyz",
        "other",
        "profile",
        "exemplars",
    ] {
        for class in ["2xx", "3xx", "4xx", "5xx"] {
            assert!(names::is_stable(&format!(
                "serve.endpoint.{endpoint}.{class}"
            )));
        }
        assert!(names::is_stable(&format!(
            "serve.slo.compliance.{endpoint}"
        )));
        assert!(names::is_stable(&format!("serve.slo.burn_rate.{endpoint}")));
        assert!(names::is_stable(&format!("serve.slo.breached.{endpoint}")));
        assert!(names::is_stable(&format!("serve.slo.breaches.{endpoint}")));
        // Shed/deadline counters are per-endpoint families too.
        assert!(names::is_stable(&format!("serve.shed.{endpoint}")));
        assert!(names::is_stable(&format!("serve.deadline.{endpoint}")));
    }
    // Per-rule fault counters: `serve.faults.<scope>.<kind>` where the
    // scope is a lifecycle stage or endpoint label and the kind comes from
    // the fault-plan grammar.
    for scope in ["accept", "read", "handle", "write", "estimate", "healthz"] {
        for kind in ["latency", "reset", "torn", "panic"] {
            assert!(names::is_stable(&format!("serve.faults.{scope}.{kind}")));
        }
    }
    // Telemetry-pipeline names: the TSDB self-scraper's own accounting,
    // the uptime gauge on /metrics, the alert engine's counters/gauges and
    // the /alerts + /query request spans.
    for name in [
        "serve.uptime_seconds",
        "tsdb.series",
        "tsdb.samples",
        "tsdb.evicted",
        "tsdb.scrapes",
        "alert.evaluations",
        "alert.transitions",
        "alert.firing",
        "alert.pending",
        "serve.alerts",
        "serve.query",
    ] {
        assert!(names::is_stable(name), "{name:?} missing from the registry");
    }
    // Per-rule alert families take the rule name as a suffix.
    assert!(names::is_stable("alert.state.slo-burn-estimate"));
    assert!(names::is_stable("alert.transitions.drift-uniform"));
    assert!(!names::is_stable("alert.state"));
    assert!(!names::is_stable("tsdb.capacity"));

    // Typos stay un-stable.
    assert!(!names::is_stable("serve.endpoints.estimate.2xx"));
    assert!(!names::is_stable("serve.slo"));
    assert!(!names::is_stable("serve.responses.7xx"));
    assert!(!names::is_stable("serve.shed"));
    assert!(!names::is_stable("serve.deadline"));
    assert!(!names::is_stable("serve.faults"));
    assert!(!names::is_stable("serve.panic.count"));
}
