//! The stable metric-name registry.
//!
//! Every span, counter, gauge and event name the workspace emits is
//! enumerated here (and documented in DESIGN.md §"Metric names"). Prometheus
//! scrapes, dashboards and the `sjpl regress` gate key on these strings, so
//! renaming one is a breaking change: it must be made here *and* in
//! DESIGN.md, and the pinned-name tests (`tests/metric_names.rs`, the serve
//! integration tests) will fail until both sides agree.
//!
//! Names built at runtime (one series per catalog law) are covered by
//! [`DYNAMIC_PREFIXES`] instead: the prefix is stable, the suffix is the
//! law name.

/// Every stable span / timing-series name, sorted.
pub const SPANS: &[&str] = &[
    "bops.normalize",
    "bops.plot",
    "bops.quantize",
    "bops.scan",
    "bops.scan.worker",
    "bops.sort",
    "join.merge",
    "join.partition",
    "join.sweep",
    "join.sweep.worker",
    "serve.alerts",
    "serve.estimate",
    "serve.exemplars",
    "serve.healthz",
    "serve.metrics",
    "serve.profile",
    "serve.query",
    "serve.read",
    "serve.readyz",
    "serve.request",
    "serve.scrape",
    "serve.slow_request",
    "serve.snapshot",
    "serve.timeline",
    "serve.write",
];

/// Every stable counter name, sorted.
pub const COUNTERS: &[&str] = &[
    "alert.evaluations",
    "alert.transitions",
    "bops.fallbacks",
    "bops.plots",
    "bops.points",
    "datagen.points",
    "datagen.sets",
    "fit.count",
    "index.candidate_pairs",
    "index.contained_pairs",
    "index.node_visits",
    "index.pruned_pairs",
    "join.par_sweep.band_points",
    "join.par_sweep.candidates",
    "join.par_sweep.slabs",
    "prof.dropped_samples",
    "prof.overhead_ns",
    "prof.samples",
    "serve.deadline.exceeded",
    "serve.drift.breaches",
    "serve.drift.checks",
    "serve.errors",
    "serve.faults.injected",
    "serve.panics",
    "serve.requests",
    "serve.responses.2xx",
    "serve.responses.3xx",
    "serve.responses.4xx",
    "serve.responses.5xx",
    "serve.scrape.total",
    "serve.shed.total",
    "serve.slo.breaches",
    "serve.slow_requests",
    "streaming.rejected_points",
    "streaming.updates",
    "tsdb.evicted",
    "tsdb.samples",
    "tsdb.scrapes",
];

/// Every stable gauge name, sorted.
pub const GAUGES: &[&str] = &[
    "alert.firing",
    "alert.pending",
    "bops.levels",
    "fit.exponent",
    "fit.points_used",
    "fit.r_squared",
    "fit.rmse_log10",
    "prof.live.dropped_samples",
    "prof.live.overhead_ns",
    "prof.live.samples",
    "serve.connections",
    "serve.inflight",
    "serve.queue.depth",
    "serve.uptime_seconds",
    "tsdb.series",
];

/// Every stable event name, sorted.
pub const EVENTS: &[&str] = &[
    "bops.engine",
    "datagen.generated",
    "serve.drift.breach",
    "serve.fault",
    "serve.panic",
];

/// Stable prefixes of runtime-built names: the full name is the prefix
/// followed by a catalog law name (e.g. `serve.drift.rel_error.uniform`),
/// an endpoint label plus status class (`serve.endpoint.estimate.2xx`), an
/// SLO endpoint label (`serve.slo.compliance.estimate`), a shed/deadline
/// endpoint label (`serve.shed.snapshot`, `serve.deadline.estimate`), a
/// fault-rule scope and kind (`serve.faults.accept.reset`), or an alert
/// rule name (`alert.state.slo-burn-estimate`,
/// `alert.transitions.slo-burn-estimate`). Endpoint labels come from
/// sjpl-serve's fixed route table (`estimate`, `healthz`, `readyz`,
/// `metrics`, `snapshot`, `timeline`, `alerts`, `query`, `profile`,
/// `exemplars`, plus `other`) — never from raw client paths, which would
/// be a cardinality/injection hazard; fault scopes/kinds come from the
/// fault plan grammar's fixed vocabulary.
pub const DYNAMIC_PREFIXES: &[&str] = &[
    "alert.state.",
    "alert.transitions.",
    "serve.deadline.",
    "serve.drift.breached.",
    "serve.drift.rel_error.",
    "serve.endpoint.",
    "serve.faults.",
    "serve.shed.",
    "serve.slo.breached.",
    "serve.slo.breaches.",
    "serve.slo.burn_rate.",
    "serve.slo.compliance.",
];

/// Is `name` a stable name (or an instance of a stable dynamic family)?
pub fn is_stable(name: &str) -> bool {
    SPANS.binary_search(&name).is_ok()
        || COUNTERS.binary_search(&name).is_ok()
        || GAUGES.binary_search(&name).is_ok()
        || EVENTS.binary_search(&name).is_ok()
        || DYNAMIC_PREFIXES.iter().any(|p| name.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_unique(list: &[&str]) {
        for w in list.windows(2) {
            assert!(w[0] < w[1], "{:?} must come before {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn lists_are_sorted_and_duplicate_free() {
        // `is_stable` binary-searches, so order is load-bearing.
        assert_sorted_unique(SPANS);
        assert_sorted_unique(COUNTERS);
        assert_sorted_unique(GAUGES);
        assert_sorted_unique(EVENTS);
        assert_sorted_unique(DYNAMIC_PREFIXES);
    }

    #[test]
    fn stable_and_unstable_names_are_told_apart() {
        assert!(is_stable("bops.sort"));
        assert!(is_stable("serve.requests"));
        assert!(is_stable("fit.r_squared"));
        assert!(is_stable("bops.engine"));
        assert!(is_stable("serve.drift.rel_error.my_law"));
        assert!(is_stable("serve.endpoint.estimate.2xx"));
        assert!(is_stable("serve.slo.compliance.estimate"));
        assert!(is_stable("serve.slo.burn_rate.estimate"));
        assert!(is_stable("serve.responses.4xx"));
        assert!(is_stable("serve.connections"));
        assert!(is_stable("serve.scrape"));
        assert!(is_stable("serve.scrape.total"));
        assert!(is_stable("prof.samples"));
        assert!(is_stable("prof.overhead_ns"));
        assert!(is_stable("prof.live.samples"));
        assert!(is_stable("serve.panics"));
        assert!(is_stable("serve.shed.total"));
        assert!(is_stable("serve.shed.snapshot"));
        assert!(is_stable("serve.deadline.exceeded"));
        assert!(is_stable("serve.deadline.estimate"));
        assert!(is_stable("serve.faults.injected"));
        assert!(is_stable("serve.faults.accept.reset"));
        assert!(is_stable("serve.queue.depth"));
        assert!(is_stable("serve.fault"));
        assert!(is_stable("serve.panic"));
        assert!(is_stable("serve.uptime_seconds"));
        assert!(is_stable("tsdb.scrapes"));
        assert!(is_stable("tsdb.series"));
        assert!(is_stable("alert.evaluations"));
        assert!(is_stable("alert.firing"));
        assert!(is_stable("alert.state.slo-estimate"));
        assert!(is_stable("alert.transitions"));
        assert!(is_stable("alert.transitions.slo-estimate"));
        assert!(!is_stable("bops.sort2"));
        assert!(!is_stable("serve.drift.rel_error"));
        assert!(!is_stable("serve.endpoint"));
        assert!(!is_stable("serve.shed"));
        assert!(!is_stable("serve.faults"));
        assert!(!is_stable("alert.state"));
        assert!(!is_stable("totally.made.up"));
    }
}
