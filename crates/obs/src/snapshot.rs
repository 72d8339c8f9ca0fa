//! Point-in-time snapshots of the recorder, renderable as structured JSON
//! (machine consumption: `--obs-out`, bench reports, CI schema checks) or a
//! compact human-readable table (`--trace=pretty`).
//!
//! The JSON is hand-rolled — the schema is small, fixed, and flat, so a
//! serialization dependency would cost more than the ~60 lines it saves.

use crate::hist::LogLinearHistogram;
use crate::json::{escape, number};
use crate::timeline::TimelineSnapshot;
use crate::Accuracy;

/// Aggregated statistics of one named span (or standalone timing series).
#[derive(Clone, Debug)]
pub struct TimingSnapshot {
    /// Span name (dotted path, e.g. `bops.sort`).
    pub name: String,
    /// Number of recorded intervals.
    pub count: u64,
    /// Sum of all interval durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest interval, nanoseconds.
    pub min_ns: u64,
    /// Longest interval, nanoseconds.
    pub max_ns: u64,
    /// Log-linear-bucketed distribution of the interval durations.
    pub hist: LogLinearHistogram,
}

impl TimingSnapshot {
    /// Mean interval duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One recorded event (a discrete, noteworthy occurrence — e.g. an engine
/// fallback decision).
#[derive(Clone, Debug)]
pub struct EventSnapshot {
    /// Monotonic sequence number (order of occurrence).
    pub seq: u64,
    /// Event name.
    pub name: String,
    /// Free-form detail string.
    pub detail: String,
}

/// One alert's externally visible state, as captured by the daemon's alert
/// engine at snapshot time (schema 5 `alerts` section).
#[derive(Clone, Debug, Default)]
pub struct AlertSnapshot {
    /// Rule name (`alertname` on the Prometheus export).
    pub name: String,
    /// `inactive`, `pending`, `firing`, or `resolved`.
    pub state: String,
    /// The rule expression, in the grammar it was declared with.
    pub expr: String,
    /// The expression's value at the last evaluation.
    pub value: f64,
    /// The threshold the value is compared against.
    pub threshold: f64,
    /// Milliseconds (wall clock) the alert entered its current state.
    pub since_ms: u64,
    /// Hold duration: how long the condition must persist before firing.
    pub for_ms: u64,
    /// State transitions since the daemon started.
    pub transitions: u64,
}

/// A point-in-time copy of every metric the recorder holds.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Span/timing statistics, sorted by name.
    pub spans: Vec<TimingSnapshot>,
    /// Counters `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges `(name, value)`, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Events in occurrence order (bounded; see `events_dropped`).
    pub events: Vec<EventSnapshot>,
    /// Events discarded because the ring buffer was full.
    pub events_dropped: u64,
    /// Estimator accuracy observations (bounded; see `accuracy_dropped`).
    pub accuracy: Vec<Accuracy>,
    /// Accuracy records discarded because the retention cap was reached.
    pub accuracy_dropped: u64,
    /// The flight-recorder timeline: every closed span with its id, parent
    /// id and thread id (bounded ring; see its `dropped_events`). A plain
    /// [`snapshot`](crate::snapshot) carries only the exact
    /// `dropped_events`; [`Snapshot::with_timeline`] copies the events.
    pub timeline: TimelineSnapshot,
    /// The sampling profiler's folded profile: the running sampler's live
    /// accumulation, or the last completed window (`None` if the profiler
    /// has never run, and always `None` before [`Snapshot::with_timeline`]).
    pub profile: Option<crate::prof::Profile>,
    /// The in-process time-series store's accounting (`None` outside the
    /// daemon — batch commands run no scraper).
    pub tsdb: Option<crate::tsdb::TsdbSnapshot>,
    /// Alert states at snapshot time (empty outside the daemon).
    pub alerts: Vec<AlertSnapshot>,
}

impl Default for TimingSnapshot {
    fn default() -> Self {
        TimingSnapshot {
            name: String::new(),
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            hist: LogLinearHistogram::new(),
        }
    }
}

impl Snapshot {
    /// Attaches the recorder's timeline ring (retained events, oldest
    /// first, with their exact `dropped_events`) and the current profile.
    /// This is the expensive part of a full snapshot — a 65 536-event ring
    /// copy — so only the outputs that print them call it: `/snapshot`,
    /// `/timeline`, the CLI trace emit and [`capture`](crate::capture).
    pub fn with_timeline(mut self) -> Snapshot {
        self.timeline = crate::timeline::snapshot();
        self.profile = crate::prof::current_profile();
        self
    }

    /// Looks up a span snapshot by name.
    pub fn span(&self, name: &str) -> Option<&TimingSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders the snapshot as structured JSON.
    ///
    /// Schema (stable; validated by CI). Schema 2 extended schema 1 with the
    /// `accuracy` and `timeline` sections; schema 3 switched span histograms
    /// from log2 buckets (key `log2_hist`) to log-linear buckets (key
    /// `hist`, same `[[upper_bound_ns, count], ...]` shape, ~16× finer);
    /// schema 4 added `p999_ns` to the span quantiles and the `profile`
    /// section (the sampling profiler's folded profile, `null` when the
    /// profiler has never run); schema 5 added the `tsdb` section (the
    /// daemon's time-series store accounting, `null` when no scraper runs)
    /// and the `alerts` section (alert-engine states, empty outside the
    /// daemon):
    /// ```json
    /// {
    ///   "schema": 5,
    ///   "spans":    [{"name", "count", "total_ns", "mean_ns", "min_ns",
    ///                 "max_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns",
    ///                 "hist": [[upper_bound_ns, count], ...]}],
    ///   "counters": [{"name", "value"}],
    ///   "gauges":   [{"name", "value"}],
    ///   "events":   [{"seq", "name", "detail"}],
    ///   "events_dropped": 0,
    ///   "accuracy": [{"dataset", "method", "join_kind", "radius",
    ///                 "estimated_pc", "true_pc", "rel_error"}],
    ///   "accuracy_dropped": 0,
    ///   "timeline": {
    ///     "events": [{"id", "parent", "tid", "name", "start_ns", "dur_ns",
    ///                 "args"?}],
    ///     "dropped_events": 0
    ///   },
    ///   "profile": {
    ///     "hz", "duration_ns", "ticks", "missed_ticks", "attempts",
    ///     "samples", "idle", "dropped", "overhead_ns",
    ///     "folded": [{"stack": "a;b;c", "count"}],
    ///     "spans":  [{"name", "self", "total"}]
    ///   },
    ///   "tsdb": {"capacity", "series", "samples", "evicted", "scrapes",
    ///            "interval_ms"},
    ///   "alerts": [{"name", "state", "expr", "value", "threshold",
    ///               "since_ms", "for_ms", "transitions"}]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 5,\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let hist: Vec<String> = s
                .hist
                .nonzero_buckets()
                .iter()
                .map(|&(ub, c)| format!("[{ub}, {c}]"))
                .collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \
                 \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
                 \"p999_ns\": {}, \"hist\": [{}]}}{}\n",
                escape(&s.name),
                s.count,
                s.total_ns,
                number(s.mean_ns()),
                if s.count == 0 { 0 } else { s.min_ns },
                s.max_ns,
                s.hist.quantile(0.5),
                s.hist.quantile(0.95),
                s.hist.quantile(0.99),
                s.hist.quantile(0.999),
                hist.join(", "),
                comma(i, self.spans.len()),
            ));
        }
        out.push_str("  ],\n  \"counters\": [\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {}}}{}\n",
                escape(name),
                value,
                comma(i, self.counters.len()),
            ));
        }
        out.push_str("  ],\n  \"gauges\": [\n");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {}}}{}\n",
                escape(name),
                number(*value),
                comma(i, self.gauges.len()),
            ));
        }
        out.push_str("  ],\n  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seq\": {}, \"name\": \"{}\", \"detail\": \"{}\"}}{}\n",
                e.seq,
                escape(&e.name),
                escape(&e.detail),
                comma(i, self.events.len()),
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"events_dropped\": {},\n  \"accuracy\": [\n",
            self.events_dropped
        ));
        for (i, a) in self.accuracy.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"method\": \"{}\", \
                 \"join_kind\": \"{}\", \"radius\": {}, \
                 \"estimated_pc\": {}, \"true_pc\": {}, \"rel_error\": {}}}{}\n",
                escape(&a.dataset),
                escape(&a.method),
                escape(&a.join_kind),
                number(a.radius),
                number(a.estimated_pc),
                a.true_pc.map_or("null".to_owned(), number),
                a.rel_error().map_or("null".to_owned(), number),
                comma(i, self.accuracy.len()),
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"accuracy_dropped\": {},\n  \"timeline\": {{\n    \"events\": [\n",
            self.accuracy_dropped
        ));
        for (i, e) in self.timeline.events.iter().enumerate() {
            let args = match &e.args {
                Some(a) => format!(", \"args\": \"{}\"", escape(a)),
                None => String::new(),
            };
            out.push_str(&format!(
                "      {{\"id\": {}, \"parent\": {}, \"tid\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}{}}}{}\n",
                e.id,
                e.parent,
                e.tid,
                escape(e.name),
                e.start_ns,
                e.dur_ns,
                args,
                comma(i, self.timeline.events.len()),
            ));
        }
        out.push_str(&format!(
            "    ],\n    \"dropped_events\": {}\n  }},\n  \"profile\": {},\n",
            self.timeline.dropped_events,
            match &self.profile {
                Some(p) => p.to_json(),
                None => "null".to_owned(),
            }
        ));
        match &self.tsdb {
            Some(t) => out.push_str(&format!(
                "  \"tsdb\": {{\"capacity\": {}, \"series\": {}, \"samples\": {}, \
                 \"evicted\": {}, \"scrapes\": {}, \"interval_ms\": {}}},\n",
                t.capacity, t.series, t.samples, t.evicted, t.scrapes, t.interval_ms
            )),
            None => out.push_str("  \"tsdb\": null,\n"),
        }
        out.push_str("  \"alerts\": [\n");
        for (i, a) in self.alerts.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"state\": \"{}\", \"expr\": \"{}\", \
                 \"value\": {}, \"threshold\": {}, \"since_ms\": {}, \
                 \"for_ms\": {}, \"transitions\": {}}}{}\n",
                escape(&a.name),
                escape(&a.state),
                escape(&a.expr),
                number(a.value),
                number(a.threshold),
                a.since_ms,
                a.for_ms,
                a.transitions,
                comma(i, self.alerts.len()),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the snapshot as an aligned human-readable table.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            let w = self.spans.iter().map(|s| s.name.len()).max().unwrap_or(0);
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<w$}  count {:>8}  total {:>12}  mean {:>12}  \
                     p50 {:>10}  p95 {:>10}  p99 {:>10}  p999 {:>10}\n",
                    s.name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns() as u64),
                    fmt_ns(s.hist.quantile(0.5)),
                    fmt_ns(s.hist.quantile(0.95)),
                    fmt_ns(s.hist.quantile(0.99)),
                    fmt_ns(s.hist.quantile(0.999)),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let w = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<w$}  {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let w = self.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<w$}  {value:.6}\n"));
            }
        }
        if !self.events.is_empty() {
            out.push_str("events:\n");
            for e in &self.events {
                out.push_str(&format!("  [{}] {}: {}\n", e.seq, e.name, e.detail));
            }
            if self.events_dropped > 0 {
                out.push_str(&format!("  ({} events dropped)\n", self.events_dropped));
            }
        }
        if !self.accuracy.is_empty() {
            out.push_str("accuracy:\n");
            for a in &self.accuracy {
                let err = match a.rel_error() {
                    Some(e) => format!("{e:.4}"),
                    None => "-".to_owned(),
                };
                out.push_str(&format!(
                    "  {}/{}/{} r={:<8} est {:>14.1}  rel_err {}\n",
                    a.dataset, a.method, a.join_kind, a.radius, a.estimated_pc, err
                ));
            }
            if self.accuracy_dropped > 0 {
                out.push_str(&format!(
                    "  ({} accuracy records dropped)\n",
                    self.accuracy_dropped
                ));
            }
        }
        if !self.timeline.events.is_empty() {
            out.push_str(&format!(
                "timeline: {} events across {} thread(s)",
                self.timeline.events.len(),
                self.timeline.thread_count(),
            ));
            if self.timeline.dropped_events > 0 {
                out.push_str(&format!(" ({} dropped)", self.timeline.dropped_events));
            }
            out.push('\n');
        }
        if let Some(p) = &self.profile {
            out.push_str(&format!(
                "profile: {} samples at {:.0} Hz over {} \
                 ({} idle, {} dropped, overhead {})\n",
                p.samples,
                p.hz,
                fmt_ns(p.duration_ns),
                p.idle,
                p.dropped + p.missed_ticks,
                fmt_ns(p.overhead_ns),
            ));
            for s in p.spans().iter().take(5) {
                out.push_str(&format!(
                    "  {:<24} self {:>8}  total {:>8}\n",
                    s.name, s.self_samples, s.total_samples
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Human-scale duration formatting: ns → µs → ms → s.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn nonfinite_gauges_render_as_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let s = Snapshot::default();
        let j = s.to_json();
        assert!(j.contains("\"spans\": ["));
        assert!(j.contains("\"events_dropped\": 0"));
        assert!(j.contains("\"timeline\": {"));
        assert!(s.to_pretty().contains("no metrics"));
        // Even the empty document must parse.
        crate::json::Json::parse(&j).unwrap();
    }

    fn sample_snapshot() -> Snapshot {
        let mut hist = LogLinearHistogram::new();
        hist.record(1_000);
        hist.record(2_000);
        Snapshot {
            spans: vec![TimingSnapshot {
                name: "bops.scan \"weird\"".into(),
                count: 2,
                total_ns: 3_000,
                min_ns: 1_000,
                max_ns: 2_000,
                hist,
            }],
            counters: vec![("bops.points".into(), 200_000)],
            gauges: vec![("fit.r2".into(), 0.9993), ("bad".into(), f64::NAN)],
            events: vec![EventSnapshot {
                seq: 1,
                name: "engine.fallback".into(),
                detail: "line1\nline2".into(),
            }],
            events_dropped: 3,
            accuracy: vec![Accuracy {
                dataset: "uniform".into(),
                method: "bops".into(),
                join_kind: "self".into(),
                radius: 0.05,
                estimated_pc: 110.0,
                true_pc: Some(100.0),
            }],
            accuracy_dropped: 1,
            timeline: TimelineSnapshot {
                events: vec![crate::TimelineEvent {
                    id: 7,
                    parent: 0,
                    tid: 2,
                    name: "bops.plot",
                    start_ns: 123,
                    dur_ns: 456,
                    args: Some("levels=12".into()),
                }],
                dropped_events: 9,
            },
            profile: Some(crate::prof::Profile {
                hz: 99.0,
                duration_ns: 1_000_000,
                ticks: 10,
                missed_ticks: 1,
                attempts: 12,
                samples: 8,
                idle: 3,
                dropped: 1,
                overhead_ns: 2_500,
                folded: vec![("bops.plot;bops.scan".into(), 6), ("bops.plot".into(), 2)],
            }),
            tsdb: Some(crate::tsdb::TsdbSnapshot {
                capacity: 512,
                series: 3,
                samples: 40,
                evicted: 7,
                scrapes: 15,
                interval_ms: 5_000,
            }),
            alerts: vec![AlertSnapshot {
                name: "slo-estimate".into(),
                state: "firing".into(),
                expr: "burn_rate(estimate)".into(),
                value: 3.5,
                threshold: 1.0,
                since_ms: 1_234,
                for_ms: 10_000,
                transitions: 2,
            }],
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        use crate::json::Json;
        let snap = sample_snapshot();
        let doc = Json::parse(&snap.to_json()).unwrap();

        assert_eq!(doc.get("schema").unwrap().as_f64(), Some(5.0));
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.get("name").unwrap().as_str(), Some("bops.scan \"weird\""));
        assert_eq!(s.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(s.get("total_ns").unwrap().as_f64(), Some(3000.0));
        assert_eq!(s.get("mean_ns").unwrap().as_f64(), Some(1500.0));
        // Quantile fields report the log-linear bucket upper bound.
        for q in ["p50_ns", "p95_ns", "p99_ns", "p999_ns"] {
            assert!(s.get(q).unwrap().as_f64().is_some(), "missing {q}");
        }
        let hist = s.get("hist").unwrap().as_array().unwrap();
        let total: f64 = hist
            .iter()
            .map(|b| b.as_array().unwrap()[1].as_f64().unwrap())
            .sum();
        assert_eq!(total, 2.0);

        let counters = doc.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters[0].get("value").unwrap().as_f64(), Some(200000.0));
        let gauges = doc.get("gauges").unwrap().as_array().unwrap();
        assert_eq!(gauges[0].get("value").unwrap().as_f64(), Some(0.9993));
        assert!(gauges[1].get("value").unwrap().is_null()); // NaN → null

        let events = doc.get("events").unwrap().as_array().unwrap();
        assert_eq!(
            events[0].get("detail").unwrap().as_str(),
            Some("line1\nline2")
        );
        assert_eq!(doc.get("events_dropped").unwrap().as_f64(), Some(3.0));

        let acc = doc.get("accuracy").unwrap().as_array().unwrap();
        assert_eq!(acc[0].get("true_pc").unwrap().as_f64(), Some(100.0));
        let rel = acc[0].get("rel_error").unwrap().as_f64().unwrap();
        assert!((rel - 0.1).abs() < 1e-12);
        assert_eq!(doc.get("accuracy_dropped").unwrap().as_f64(), Some(1.0));

        let tl = doc.get("timeline").unwrap();
        assert_eq!(tl.get("dropped_events").unwrap().as_f64(), Some(9.0));
        let tev = &tl.get("events").unwrap().as_array().unwrap()[0];
        assert_eq!(tev.get("id").unwrap().as_f64(), Some(7.0));
        assert_eq!(tev.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(tev.get("tid").unwrap().as_f64(), Some(2.0));
        assert_eq!(tev.get("args").unwrap().as_str(), Some("levels=12"));

        let prof = doc.get("profile").unwrap();
        assert_eq!(prof.get("hz").unwrap().as_f64(), Some(99.0));
        assert_eq!(prof.get("samples").unwrap().as_f64(), Some(8.0));
        assert_eq!(prof.get("overhead_ns").unwrap().as_f64(), Some(2500.0));
        let folded = prof.get("folded").unwrap().as_array().unwrap();
        assert_eq!(
            folded[0].get("stack").unwrap().as_str(),
            Some("bops.plot;bops.scan")
        );
        let pspans = prof.get("spans").unwrap().as_array().unwrap();
        assert!(pspans
            .iter()
            .any(|s| s.get("name").unwrap().as_str() == Some("bops.plot")
                && s.get("total").unwrap().as_f64() == Some(8.0)
                && s.get("self").unwrap().as_f64() == Some(2.0)));

        let tsdb = doc.get("tsdb").unwrap();
        assert_eq!(tsdb.get("capacity").unwrap().as_f64(), Some(512.0));
        assert_eq!(tsdb.get("evicted").unwrap().as_f64(), Some(7.0));
        assert_eq!(tsdb.get("interval_ms").unwrap().as_f64(), Some(5000.0));
        let alerts = doc.get("alerts").unwrap().as_array().unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].get("name").unwrap().as_str(),
            Some("slo-estimate")
        );
        assert_eq!(alerts[0].get("state").unwrap().as_str(), Some("firing"));
        assert_eq!(alerts[0].get("value").unwrap().as_f64(), Some(3.5));
        assert_eq!(alerts[0].get("transitions").unwrap().as_f64(), Some(2.0));

        // A profiler-less snapshot renders `"profile": null` and an empty
        // daemon-less snapshot renders `"tsdb": null` with no alerts.
        let none = Snapshot::default().to_json();
        assert!(none.contains("\"profile\": null"), "{none}");
        assert!(none.contains("\"tsdb\": null"), "{none}");
        assert!(none.contains("\"alerts\": [\n  ]"), "{none}");
    }
}
