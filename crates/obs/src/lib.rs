//! # sjpl-obs — zero-cost observability for the SJPL workspace
//!
//! A dependency-free observability layer: RAII [`Span`]s timed on the
//! monotonic clock, named [counters](counter_add) and [gauges](gauge_set),
//! [log-linear latency histograms](hist::LogLinearHistogram), discrete
//! [events](event), estimator [accuracy telemetry](accuracy), and a
//! [flight-recorder timeline](timeline) of every closed span (id, parent
//! id, thread id, duration), and a [sampling profiler](prof) over the live
//! span stacks — all feeding one global recorder that can
//! [snapshot](snapshot) to structured JSON (schema 5) or export the
//! timeline in [Chrome Trace Event Format](chrome) for Perfetto.
//!
//! # Reads
//!
//! There is one read, [`snapshot`], and it copies aggregates only: spans
//! with their histograms, counters, gauges, events, accuracy records and
//! the timeline's exact `dropped_events`. The flight-recorder ring (up to
//! 65 536 events) and the profiler's folded stacks are copied only by
//! [`Snapshot::with_timeline`], which the outputs that print them call:
//! the daemon's `/snapshot` and `/timeline`, the CLI's `--trace` /
//! `--obs-out` / `--trace-out` and [`capture`]. Prometheus scrapes, TSDB
//! ingest and SLO evaluation read no events. On a 2-vCPU host, copying a
//! full default ring under the lock that every span close takes cost
//! 1.2–1.5 ms a read, against 20 µs for the aggregate read alone and
//! 80–140 µs for the Prometheus render; a `/metrics` scrape of the
//! estimate daemon under load took 5 ms at the median with the copy and
//! 0.6 ms without it.
//!
//! Design constraints (and how they are met):
//!
//! * **Near-zero cost when disabled.** Every recording entry point starts
//!   with one `Relaxed` atomic load of the global enable flag and returns
//!   immediately when it is off — no clock read, no lock, no allocation.
//!   A disabled [`span`] is a `None`-carrying struct whose `Drop` does
//!   nothing, and lazy span arguments ([`span_with`]) are never even
//!   formatted. Measured on the instrumented BOPS hot path, the disabled
//!   overhead is within run-to-run noise (< 2%; see `BENCH_bops.json`'s
//!   `obs_overhead` entry).
//! * **No dependencies.** The build environment has no crates.io access, so
//!   `tracing`/`metrics` are off the table; the std library's `Mutex`,
//!   atomics and `Instant` cover everything this workspace needs.
//! * **Callable from any thread.** Recording takes one short-lived global
//!   mutex (aggregates) plus one for the timeline ring; instrumentation is
//!   stage-grained (one span per pipeline stage, counters added in bulk per
//!   chunk), so neither lock is hot. Fine per-item recording from tight
//!   parallel loops should accumulate locally and publish once — exactly
//!   what the instrumented crates do. Span parentage is tracked with a
//!   thread-local stack; hand a [`SpanContext`] to spawned workers and open
//!   their spans with [`span_under`] to keep the tree connected across
//!   threads.
//!
//! # Usage
//!
//! ```
//! sjpl_obs::set_enabled(true);
//! {
//!     let stage = sjpl_obs::span("demo.stage");
//!     let ctx = stage.context();
//!     {
//!         let _child = sjpl_obs::span_under("demo.child", ctx);
//!         sjpl_obs::counter_add("demo.items", 128);
//!     }
//!     sjpl_obs::gauge_set("demo.ratio", 0.75);
//! } // spans record (aggregate + timeline) as they drop
//! let snap = sjpl_obs::snapshot(); // aggregates only: no timeline events
//! assert_eq!(snap.counter("demo.items"), Some(128));
//! assert_eq!(snap.span("demo.stage").unwrap().count, 1);
//! assert!(snap.timeline.events.is_empty());
//! let snap = snap.with_timeline(); // copies the ring and the profile
//! let child = &snap.timeline.by_name("demo.child")[0];
//! let stage = &snap.timeline.by_name("demo.stage")[0];
//! assert_eq!(child.parent, stage.id);
//! let json = snap.to_json(); // schema 5, embeds the timeline
//! assert!(json.contains("\"demo.stage\""));
//! let trace = snap.to_chrome_trace(); // open in Perfetto
//! assert!(trace.contains("\"traceEvents\""));
//! sjpl_obs::set_enabled(false);
//! sjpl_obs::reset();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod names;
pub mod prof;
pub mod prometheus;
pub mod snapshot;
pub mod timeline;
pub mod tsdb;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard};
use std::time::Instant;

pub use hist::LogLinearHistogram;
pub use prof::{Profile, SpanProfile};
pub use snapshot::{AlertSnapshot, EventSnapshot, Snapshot, TimingSnapshot};
pub use timeline::{set_timeline_capacity, TimelineEvent, TimelineSnapshot};

/// Maximum events retained per snapshot window; later events are counted in
/// `events_dropped` instead of growing without bound.
const MAX_EVENTS: usize = 256;

/// Maximum accuracy records retained per snapshot window (overflow is
/// counted in `accuracy_dropped`).
const MAX_ACCURACY: usize = 1024;

/// The global enable flag. `Relaxed` is sufficient: the flag only gates
/// *whether* to record, and snapshots go through the registry mutex, which
/// provides the ordering that matters.
static ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Default)]
struct TimingStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    hist: LogLinearHistogram,
}

#[derive(Default)]
struct Registry {
    timings: HashMap<String, TimingStat>,
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
    events: Vec<(u64, String, String)>,
    event_seq: u64,
    events_dropped: u64,
    accuracy: Vec<Accuracy>,
    accuracy_dropped: u64,
}

static REGISTRY: LazyLock<Mutex<Registry>> = LazyLock::new(|| Mutex::new(Registry::default()));

fn registry() -> MutexGuard<'static, Registry> {
    // A poisoned registry only means a panic happened mid-record; the data
    // is still structurally sound (plain counters), so keep serving it.
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Is the recorder currently enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on or off. Off (the default) makes every recording
/// call a single atomic load + branch. Turning it on also anchors the
/// timeline epoch, so `start_ns` timestamps count from (roughly) the first
/// enable rather than an arbitrary later instant.
pub fn set_enabled(on: bool) {
    if on {
        timeline::anchor_epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears all recorded metrics, the timeline ring and the last completed
/// profile (the enable flag, the configured timeline capacity and a
/// *running* profiler sampler are left unchanged).
pub fn reset() {
    let mut r = registry();
    *r = Registry::default();
    drop(r);
    timeline::reset();
    prof::clear_last();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A lightweight handle to a live span, used to parent spans opened on
/// *other* threads (thread-local nesting cannot see across a `spawn`):
/// capture `span.context()` before spawning and open worker spans with
/// [`span_under`]. A context from a disabled (inert) span parents children
/// at the root, which degrades gracefully.
#[derive(Clone, Copy, Debug)]
pub struct SpanContext {
    id: u64,
}

impl SpanContext {
    /// A context that parents spans at the root of the tree.
    pub fn root() -> Self {
        SpanContext { id: 0 }
    }

    /// The timeline id of the span this context points at (0 for the root /
    /// an inert span). Stable across the whole run, so external systems —
    /// e.g. OpenMetrics exemplars — can reference the span in the
    /// flight-recorder timeline by id.
    pub fn span_id(&self) -> u64 {
        self.id
    }
}

/// An RAII timing span: created by [`span`], records its wall-clock
/// duration into the aggregate recorder *and* the timeline ring when
/// dropped. When the recorder is disabled at creation, the span is inert
/// (no clock read, no id allocation, no recording on drop).
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    start_ns: u64,
    id: u64,
    parent: u64,
    tid: u64,
    args: Option<Box<str>>,
}

fn inert_span(name: &'static str) -> Span {
    Span {
        name,
        start: None,
        start_ns: 0,
        id: 0,
        parent: 0,
        tid: 0,
        args: None,
    }
}

fn open_span(name: &'static str, parent: Option<u64>, args: Option<String>) -> Span {
    if !enabled() {
        return inert_span(name);
    }
    let id = timeline::next_span_id();
    let parent = parent.unwrap_or_else(timeline::current_parent);
    timeline::push_open(id, name);
    Span {
        name,
        start: Some(Instant::now()),
        start_ns: timeline::epoch_ns(),
        id,
        parent,
        tid: timeline::current_tid(),
        args: args.map(String::into_boxed_str),
    }
}

/// Opens a timing span. Usage: `let _span = sjpl_obs::span("bops.sort");`.
/// Its parent is the innermost span currently open on this thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    open_span(name, None, None)
}

/// Opens a timing span with lazily formatted arguments (shown in the
/// timeline and the Chrome trace detail pane). The closure only runs when
/// the recorder is enabled, so argument formatting costs nothing when off.
///
/// `let _s = sjpl_obs::span_with("bops.scan", || format!("levels={n}"));`
#[inline]
pub fn span_with(name: &'static str, args: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return inert_span(name);
    }
    open_span(name, None, Some(args()))
}

/// Opens a timing span explicitly parented under `parent` — the
/// cross-thread variant of [`span`]: capture [`Span::context`] on the
/// spawning thread, move it into the worker, and the worker's spans stay
/// attached to the tree while still carrying the worker's own thread id.
#[inline]
pub fn span_under(name: &'static str, parent: SpanContext) -> Span {
    open_span(name, Some(parent.id), None)
}

impl Span {
    /// Ends the span now (sugar for an explicit early drop).
    pub fn close(self) {}

    /// A copyable handle for parenting spans on other threads.
    pub fn context(&self) -> SpanContext {
        SpanContext { id: self.id }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(t0) = self.start.take() else {
            return;
        };
        let dur_ns = t0.elapsed().as_nanos() as u64;
        timeline::pop_open(self.id);
        if !enabled() {
            // Recorder switched off while the span was live: keep the
            // stack balanced (above) but record nothing.
            return;
        }
        record_ns(self.name, dur_ns);
        timeline::record(TimelineEvent {
            id: self.id,
            parent: self.parent,
            tid: self.tid,
            name: self.name,
            start_ns: self.start_ns,
            dur_ns,
            args: self.args.take(),
        });
    }
}

/// Records one duration sample (nanoseconds) under `name` — the same
/// aggregate sink spans write to, for callers that measure intervals
/// themselves. (Aggregate only: no timeline event, since there is no
/// span identity to attach.)
pub fn record_ns(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    record_ns_key(name.to_owned(), ns);
}

/// [`record_ns`] for names built at runtime (e.g. the per-endpoint ×
/// status-class serve series). The name should extend one of the stable
/// dynamic prefixes in [`names::DYNAMIC_PREFIXES`] so scrapes stay
/// predictable.
pub fn record_ns_named(name: impl Into<String>, ns: u64) {
    if !enabled() {
        return;
    }
    record_ns_key(name.into(), ns);
}

fn record_ns_key(name: String, ns: u64) {
    let mut r = registry();
    let stat = r.timings.entry(name).or_insert(TimingStat {
        min_ns: u64::MAX,
        ..TimingStat::default()
    });
    stat.count += 1;
    stat.total_ns += ns;
    stat.min_ns = stat.min_ns.min(ns);
    stat.max_ns = stat.max_ns.max(ns);
    stat.hist.record(ns);
}

/// Copies an already-measured interval into the flight-recorder timeline
/// (and only there — callers pair it with [`record_ns`]/[`record_ns_named`]
/// when they also want aggregates). Used to pin noteworthy intervals — e.g.
/// slow HTTP requests — into the ring so they survive in `/timeline` and
/// Chrome-trace exports even though the interval was timed by hand rather
/// than by a [`Span`].
pub fn timeline_capture(name: &'static str, dur_ns: u64, args: Option<String>) {
    if !enabled() {
        return;
    }
    let now = timeline::epoch_ns();
    timeline::record(TimelineEvent {
        id: timeline::next_span_id(),
        parent: 0,
        tid: timeline::current_tid(),
        name,
        start_ns: now.saturating_sub(dur_ns),
        dur_ns,
        args: args.map(String::into_boxed_str),
    });
}

// ---------------------------------------------------------------------------
// Counters, gauges, events
// ---------------------------------------------------------------------------

/// Adds `n` to the named counter (creating it at zero first).
pub fn counter_add(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    *registry().counters.entry(name.to_owned()).or_insert(0) += n;
}

/// [`counter_add`] for names built at runtime (e.g. a per-law drift
/// series). The name should extend one of the stable dynamic prefixes in
/// [`names::DYNAMIC_PREFIXES`] so scrapes stay predictable.
pub fn counter_add_named(name: impl Into<String>, n: u64) {
    if !enabled() {
        return;
    }
    *registry().counters.entry(name.into()).or_insert(0) += n;
}

/// Sets the named gauge to `v` (last write wins).
pub fn gauge_set(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    registry().gauges.insert(name.to_owned(), v);
}

/// [`gauge_set`] for names built at runtime (e.g. a per-law drift series).
/// The name should extend one of the stable dynamic prefixes in
/// [`names::DYNAMIC_PREFIXES`] so scrapes stay predictable.
pub fn gauge_set_named(name: impl Into<String>, v: f64) {
    if !enabled() {
        return;
    }
    registry().gauges.insert(name.into(), v);
}

/// Records a discrete event with a free-form detail string. Events beyond
/// the retention cap are counted, not stored.
pub fn event(name: &'static str, detail: impl Into<String>) {
    if !enabled() {
        return;
    }
    let mut r = registry();
    r.event_seq += 1;
    if r.events.len() >= MAX_EVENTS {
        r.events_dropped += 1;
        return;
    }
    let seq = r.event_seq;
    r.events.push((seq, name.to_owned(), detail.into()));
}

// ---------------------------------------------------------------------------
// Accuracy telemetry
// ---------------------------------------------------------------------------

/// One estimator accuracy observation: what was estimated, for which
/// dataset/method/join, and (when the caller knows it) the ground truth.
/// This is the record `sjpl regress` diffs across commits to catch
/// estimator-quality regressions, not just performance ones.
#[derive(Clone, Debug)]
pub struct Accuracy {
    /// Dataset label (file stem, generator name, …).
    pub dataset: String,
    /// Estimation method (`bops`, `pc`, `sampled-pc`, `stored-law`, …).
    pub method: String,
    /// `cross` or `self`.
    pub join_kind: String,
    /// Query radius the estimate was made at.
    pub radius: f64,
    /// The estimated pair count `PC(r)`.
    pub estimated_pc: f64,
    /// The true pair count, when the caller has computed one.
    pub true_pc: Option<f64>,
}

impl Accuracy {
    /// Relative error `|est − true| / true`, when the truth is known and
    /// nonzero.
    pub fn rel_error(&self) -> Option<f64> {
        match self.true_pc {
            Some(t) if t != 0.0 => Some((self.estimated_pc - t).abs() / t),
            _ => None,
        }
    }

    /// Stable identity for cross-file comparison:
    /// `dataset/method/join_kind@radius`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}@{}",
            self.dataset, self.method, self.join_kind, self.radius
        )
    }
}

/// Records one accuracy observation (bounded; overflow is counted in the
/// snapshot's `accuracy_dropped`).
pub fn accuracy(rec: Accuracy) {
    if !enabled() {
        return;
    }
    let mut r = registry();
    if r.accuracy.len() >= MAX_ACCURACY {
        r.accuracy_dropped += 1;
        return;
    }
    r.accuracy.push(rec);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Takes a point-in-time snapshot of the aggregates recorded so far:
/// spans and their histograms, counters, gauges, events, accuracy records
/// and the timeline's exact `dropped_events`. It copies no timeline events
/// and no profile — that is what makes it cheap enough for every scrape
/// and TSDB tick. Call [`Snapshot::with_timeline`] on the result where the
/// ring and the profile are printed. Works whether or not the recorder is
/// currently enabled (so a caller can disable first and then snapshot a
/// quiesced registry).
pub fn snapshot() -> Snapshot {
    let r = registry();
    let mut spans: Vec<TimingSnapshot> = r
        .timings
        .iter()
        .map(|(name, s)| TimingSnapshot {
            name: name.clone(),
            count: s.count,
            total_ns: s.total_ns,
            min_ns: s.min_ns,
            max_ns: s.max_ns,
            hist: s.hist.clone(),
        })
        .collect();
    spans.sort_by(|a, b| a.name.cmp(&b.name));
    let mut counters: Vec<(String, u64)> =
        r.counters.iter().map(|(n, &v)| (n.clone(), v)).collect();
    counters.sort();
    let mut gauges: Vec<(String, f64)> = r.gauges.iter().map(|(n, &v)| (n.clone(), v)).collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let events = r
        .events
        .iter()
        .map(|(seq, name, detail)| EventSnapshot {
            seq: *seq,
            name: name.clone(),
            detail: detail.clone(),
        })
        .collect();
    let accuracy = r.accuracy.clone();
    let accuracy_dropped = r.accuracy_dropped;
    let events_dropped = r.events_dropped;
    drop(r);
    Snapshot {
        spans,
        counters,
        gauges,
        events,
        events_dropped,
        accuracy,
        accuracy_dropped,
        timeline: TimelineSnapshot {
            events: Vec::new(),
            dropped_events: timeline::dropped(),
        },
        profile: None,
        tsdb: None,
        alerts: Vec::new(),
    }
}

/// Runs `f` with the recorder enabled and a fresh registry, returning `f`'s
/// result alongside the snapshot of everything it recorded, timeline and
/// profile included; the previous enabled state is restored afterwards.
/// Intended for tests and for harness code (benches, CLI) that wants an
/// isolated capture window.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let was = enabled();
    reset();
    set_enabled(true);
    let out = f();
    set_enabled(was);
    let snap = snapshot().with_timeline();
    if !was {
        reset();
    }
    (out, snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is global; serialize the tests that mutate it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = locked();
        reset();
        set_enabled(false);
        {
            let _s = span("t.noop");
        }
        counter_add("t.noop", 5);
        gauge_set("t.noop", 1.0);
        event("t.noop", "x");
        record_ns("t.noop", 42);
        accuracy(Accuracy {
            dataset: "t".into(),
            method: "bops".into(),
            join_kind: "self".into(),
            radius: 0.1,
            estimated_pc: 1.0,
            true_pc: None,
        });
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.events.is_empty());
        assert!(snap.accuracy.is_empty());
        assert!(snap.timeline.events.is_empty());
    }

    #[test]
    fn spans_counters_gauges_events_roundtrip() {
        let _g = locked();
        let ((), snap) = capture(|| {
            {
                let _s = span("t.stage");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _s = span("t.stage");
            }
            counter_add("t.items", 3);
            counter_add("t.items", 4);
            gauge_set("t.r2", 0.5);
            gauge_set("t.r2", 0.9993);
            event("t.fallback", "because reasons");
        });
        let s = snap.span("t.stage").unwrap();
        assert_eq!(s.count, 2);
        assert!(s.total_ns >= 1_000_000, "slept 1ms, got {}", s.total_ns);
        assert!(s.min_ns <= s.max_ns);
        assert_eq!(s.hist.count(), 2);
        assert_eq!(snap.counter("t.items"), Some(7));
        assert_eq!(snap.gauge("t.r2"), Some(0.9993));
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, "t.fallback");
        // The timeline saw both spans too.
        assert_eq!(snap.timeline.by_name("t.stage").len(), 2);
    }

    #[test]
    fn json_snapshot_has_the_documented_shape() {
        let _g = locked();
        let ((), snap) = capture(|| {
            let _s = span("t.json");
            counter_add("t.count", 1);
            gauge_set("t.gauge", 2.5);
            accuracy(Accuracy {
                dataset: "uniform".into(),
                method: "bops".into(),
                join_kind: "self".into(),
                radius: 0.05,
                estimated_pc: 123.0,
                true_pc: Some(120.0),
            });
        });
        let j = snap.to_json();
        for needle in [
            "\"schema\": 5",
            "\"profile\": ",
            "\"spans\": [",
            "\"name\": \"t.json\"",
            "\"hist\": [[",
            "\"counters\": [",
            "\"gauges\": [",
            "\"events\": [",
            "\"events_dropped\": 0",
            "\"accuracy\": [",
            "\"dataset\": \"uniform\"",
            "\"rel_error\": 0.025",
            "\"timeline\": {",
            "\"dropped_events\": 0",
        ] {
            assert!(j.contains(needle), "missing {needle:?} in:\n{j}");
        }
        assert!(!snap.to_pretty().is_empty());
    }

    #[test]
    fn event_cap_counts_drops() {
        let _g = locked();
        let ((), snap) = capture(|| {
            for _ in 0..(MAX_EVENTS + 10) {
                event("t.flood", "x");
            }
        });
        assert_eq!(snap.events.len(), MAX_EVENTS);
        assert_eq!(snap.events_dropped, 10);
        // Sequence numbers keep counting through the drops.
        assert_eq!(snap.events.last().unwrap().seq, MAX_EVENTS as u64);
    }

    #[test]
    fn accuracy_cap_counts_drops() {
        let _g = locked();
        let ((), snap) = capture(|| {
            for i in 0..(MAX_ACCURACY + 5) {
                accuracy(Accuracy {
                    dataset: "t".into(),
                    method: "bops".into(),
                    join_kind: "self".into(),
                    radius: i as f64,
                    estimated_pc: 1.0,
                    true_pc: None,
                });
            }
        });
        assert_eq!(snap.accuracy.len(), MAX_ACCURACY);
        assert_eq!(snap.accuracy_dropped, 5);
    }

    #[test]
    fn recording_from_many_threads_is_safe() {
        let _g = locked();
        let ((), snap) = capture(|| {
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..100 {
                            counter_add("t.mt", 1);
                            record_ns("t.mt.ns", 10);
                        }
                    });
                }
            });
        });
        assert_eq!(snap.counter("t.mt"), Some(800));
        assert_eq!(snap.span("t.mt.ns").unwrap().count, 800);
    }

    #[test]
    fn named_timings_and_timeline_captures_record() {
        let _g = locked();
        let ((), snap) = capture(|| {
            record_ns_named(format!("t.dyn.{}", "endpoint"), 500);
            record_ns_named("t.dyn.endpoint".to_owned(), 700);
            timeline_capture("t.slow", 1234, Some("status=200".into()));
        });
        let s = snap.span("t.dyn.endpoint").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 1200);
        let ev = &snap.timeline.by_name("t.slow")[0];
        assert_eq!(ev.dur_ns, 1234);
        assert_eq!(ev.args.as_deref(), Some("status=200"));
        // Aggregates were untouched by the capture.
        assert!(snap.span("t.slow").is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let _g = locked();
        set_enabled(true);
        counter_add("t.reset", 1);
        {
            let _s = span("t.reset.span");
        }
        reset();
        let snap = snapshot().with_timeline();
        set_enabled(false);
        assert_eq!(snap.counter("t.reset"), None);
        assert!(snap.timeline.events.is_empty());
    }

    #[test]
    fn aggregate_read_counts_the_ring_without_copying_it() {
        let _g = locked();
        set_timeline_capacity(4);
        reset();
        set_enabled(true);
        let ids: Vec<u64> = (0..10)
            .map(|_| span("t.split").context().span_id())
            .collect();
        set_enabled(false);
        let agg = snapshot();
        let full = snapshot().with_timeline();
        set_timeline_capacity(timeline::DEFAULT_TIMELINE_CAPACITY);
        reset();

        assert!(agg.timeline.events.is_empty());
        assert_eq!(agg.timeline.dropped_events, 6);
        assert!(agg.profile.is_none());
        assert_eq!(agg.span("t.split").unwrap().count, 10);
        // The explicit read keeps the newest four, oldest first.
        assert_eq!(full.timeline.dropped_events, 6);
        let kept: Vec<u64> = full.timeline.events.iter().map(|e| e.id).collect();
        assert_eq!(kept, ids[6..]);
        // Same aggregates either way, so both render the same exposition.
        assert_eq!(agg.to_prometheus(), full.to_prometheus());
    }

    #[test]
    fn nested_spans_carry_parent_ids() {
        let _g = locked();
        let ((), snap) = capture(|| {
            let outer = span("t.outer");
            {
                let _inner = span("t.inner");
            }
            outer.close();
        });
        let outer = &snap.timeline.by_name("t.outer")[0];
        let inner = &snap.timeline.by_name("t.inner")[0];
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.tid, outer.tid);
        // Inner closes first, so it is recorded first.
        assert!(snap.timeline.events[0].id == inner.id);
    }

    #[test]
    fn span_args_land_in_the_timeline() {
        let _g = locked();
        let ((), snap) = capture(|| {
            let _s = span_with("t.args", || format!("points={}", 42));
        });
        let ev = &snap.timeline.by_name("t.args")[0];
        assert_eq!(ev.args.as_deref(), Some("points=42"));
        // Disabled: the args closure must not run.
        set_enabled(false);
        let _s = span_with("t.args.off", || unreachable!("formatted while disabled"));
    }
}
