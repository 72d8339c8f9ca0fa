//! The accept loop, keep-alive connection handling, routing, and endpoint
//! handlers — instrumented across the whole request lifecycle.
//!
//! Every request is timed from first byte to last write and recorded three
//! ways: lifecycle spans (`serve.read` / `serve.request` / `serve.write`),
//! a per-endpoint × status-class histogram family
//! (`serve.endpoint.<endpoint>.<class>`), and global counters
//! (`serve.requests`, `serve.errors`, `serve.responses.<class>`). Requests
//! slower than [`ServeConfig::slow_ns`] are additionally pinned into the
//! flight-recorder timeline (`serve.slow_request`) and counted, and every
//! request can be appended to a JSONL access log
//! ([`ServeConfig::access_log`]). Per-endpoint SLOs
//! ([`ServeConfig::slos`]) are evaluated over windows of those histograms'
//! counts by their burn-rate alert rules on each scraper tick.
//!
//! The tail of every per-endpoint histogram also remembers *which* request
//! landed there: the highest-latency occupied buckets each keep the most
//! recent `(request_id, timeline span id)` that hit them, surfaced as
//! OpenMetrics exemplar suffixes on the `/metrics` bucket lines and as a
//! JSON view at `/debug/exemplars` — so a p99 breach links straight to the
//! offending request's access-log line and flight-recorder span tree. With
//! [`ServeConfig::profile_hz`] set the daemon also runs the continuous
//! [sampling profiler](sjpl_obs::prof); `GET /debug/profile?seconds=N`
//! returns a collapsed-stack (flamegraph-ready) window either way.
//!
//! # Overload behavior
//!
//! Every parsed request passes **admission control** before its handler
//! runs: at most [`ServeConfig::max_inflight`] requests hold a slot at
//! once, a short bounded queue ([`ServeConfig::queue_depth`] deep,
//! [`ServeConfig::queue_wait`] long) absorbs bursts, and everything past
//! that is shed with `429 + Retry-After` (`serve.shed.*` counters).
//! Shedding is tiered: debug/observability endpoints (`/snapshot`,
//! `/timeline`, `/debug/*`, unknown paths) shed first — they never queue
//! and yield to any waiting work — `/estimate` and `/metrics` queue before
//! shedding, and health probes (`/healthz`, `/readyz`) are always
//! admitted. Requests may carry a **deadline budget** (`X-Deadline-Ms`
//! header, default [`ServeConfig::deadline_ms`]), enforced at dispatch,
//! while queued, and before expensive work (`503 + Retry-After`,
//! `serve.deadline.*` counters). A panicking handler is contained with
//! `catch_unwind`: the client gets a `500`, `serve.panics` increments, and
//! the worker keeps serving. [`Server::begin_drain`] flips `/readyz` to
//! `503 + Retry-After` so load balancers stop routing before the listener
//! closes. A seeded [fault plan](crate::fault) can deterministically
//! inject latency, connection resets, torn writes, and handler panics at
//! every lifecycle stage.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use sjpl_core::LawCatalog;
use sjpl_obs::json::{escape, number, Json};
use sjpl_obs::tsdb::{QueryExpr, SeriesKind, Tsdb, TsdbStats};
use sjpl_obs::Snapshot;

use crate::alerts::{AlertEngine, AlertRule, SLO_GOOD_PREFIX, SLO_TOTAL_PREFIX};
use crate::drift::{DriftConfig, DriftProbe};
use crate::fault::{FaultKind, FaultPlan, Stage as FaultStage};
use crate::http::{read_request, Request, Response};
use crate::slo::SloSpec;

/// Default socket timeout while actually parsing/writing a request
/// ([`ServeConfig::io_timeout`]): a stalled peer must not pin a worker.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The `Retry-After` hint (seconds) on every shed/deadline/drain response.
const RETRY_AFTER_SECS: u64 = 1;

/// Poll granularity while a keep-alive connection is idle — short, so a
/// worker parked on a quiet connection notices the stop flag quickly.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How long a keep-alive connection may sit idle before the server closes
/// it and frees the worker.
const KEEPALIVE_IDLE: Duration = Duration::from_secs(10);

/// Server configuration.
pub struct ServeConfig {
    /// Bind address (port 0 picks a free port — the tests rely on this).
    pub addr: SocketAddr,
    /// Number of accept/worker threads. Keep-alive connections occupy a
    /// worker for their lifetime, so this also caps concurrent connections.
    pub threads: usize,
    /// Drift-monitor probes (empty disables the monitor thread).
    pub probes: Vec<DriftProbe>,
    /// Drift-monitor tuning: the probe interval, and the error budget the
    /// built-in `drift-<law>` rules evaluate.
    pub drift: DriftConfig,
    /// Per-endpoint SLOs. Each gets a built-in burn-rate alert rule, which
    /// publishes the windowed `serve.slo.*` gauges once per
    /// [`ServeConfig::metrics_interval`].
    pub slos: Vec<SloSpec>,
    /// JSONL access log path (appended; one object per request).
    pub access_log: Option<PathBuf>,
    /// Requests at least this slow are counted (`serve.slow_requests`) and
    /// pinned into the flight-recorder timeline.
    pub slow_ns: u64,
    /// Run the continuous sampling profiler at this rate (Hz) for the
    /// server's lifetime; `None` leaves the profiler off (a
    /// `/debug/profile` request can still take an on-demand window).
    pub profile_hz: Option<f64>,
    /// Admission-control capacity: how many requests may be past admission
    /// at once. `0` (the default) means "same as `threads`", which never
    /// sheds organically — an arriving request's own worker is free, so at
    /// most `threads - 1` others can be active. Set it below `threads` to
    /// shed under load.
    pub max_inflight: usize,
    /// Bounded wait-queue depth for normal-tier requests at capacity.
    pub queue_depth: usize,
    /// Longest a normal-tier request waits for a slot before being shed.
    pub queue_wait: Duration,
    /// Default per-request deadline budget in milliseconds, overridable
    /// per request via the `X-Deadline-Ms` header; `None` means requests
    /// without the header have no deadline.
    pub deadline_ms: Option<u64>,
    /// Deterministic fault-injection plan ([`crate::fault::FaultPlan`]);
    /// `None` injects nothing.
    pub faults: Option<FaultPlan>,
    /// Socket/parse timeout for one request: total header+body parse time
    /// and each response write are bounded by this, so a slow-loris peer
    /// cannot pin a worker past it.
    pub io_timeout: Duration,
    /// How long [`Server::shutdown`] keeps serving after flipping
    /// `/readyz` to 503, giving load balancers time to drain. Zero (the
    /// default) stops as soon as the flag flips.
    pub drain_grace: Duration,
    /// How often the telemetry scraper thread snapshots the recorder into
    /// the time-series store and runs the alert engine.
    pub metrics_interval: Duration,
    /// Samples retained per time series (memory bound: `tsdb_capacity ×
    /// series × 16` bytes).
    pub tsdb_capacity: usize,
    /// Declarative alert rules (`--alert`), evaluated alongside the
    /// built-in SLO burn-rate and drift rules.
    pub alerts: Vec<AlertRule>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            threads: 4,
            probes: Vec::new(),
            drift: DriftConfig::default(),
            slos: Vec::new(),
            access_log: None,
            slow_ns: 100_000_000, // 100 ms
            profile_hz: None,
            max_inflight: 0,
            queue_depth: 4,
            queue_wait: Duration::from_millis(100),
            deadline_ms: None,
            faults: None,
            io_timeout: IO_TIMEOUT,
            drain_grace: Duration::ZERO,
            metrics_interval: Duration::from_secs(5),
            tsdb_capacity: 512,
            alerts: Vec::new(),
        }
    }
}

/// The daemon's one stop mechanism, a condvar-backed flag: workers poll
/// [`StopFlag::is_raised`] (one atomic load), while [`Server::wait`] and
/// the periodic threads' [`StopFlag::wait_timeout`] block on the condvar
/// and wake the instant [`StopFlag::raise`] runs — no sleep-poll
/// quantization on shutdown latency.
struct StopFlag {
    raised: AtomicBool,
    state: Mutex<bool>,
    cv: Condvar,
}

impl StopFlag {
    fn new() -> Self {
        StopFlag {
            raised: AtomicBool::new(false),
            state: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn raise(&self) {
        self.raised.store(true, Ordering::SeqCst);
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.cv.notify_all();
    }

    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    fn wait(&self) {
        let mut raised = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while !*raised {
            raised = self.cv.wait(raised).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Waits until the flag is raised or `timeout` passes; returns whether
    /// it is raised.
    fn wait_timeout(&self, timeout: Duration) -> bool {
        let raised = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let (raised, _) = self
            .cv
            .wait_timeout_while(raised, timeout, |raised| !*raised)
            .unwrap_or_else(|p| p.into_inner());
        *raised
    }
}

/// Spawns a background thread that runs `tick` now and then once per
/// `interval` until `stop` is raised. A panicking tick costs that tick,
/// not the thread (uncontained, the gauges it feeds would silently
/// freeze), and the wait is condvar-backed, so shutdown never waits out
/// the interval.
fn spawn_periodic(
    name: &str,
    interval: Duration,
    stop: Arc<StopFlag>,
    mut tick: impl FnMut() + Send + 'static,
) -> JoinHandle<()> {
    let interval = interval.max(Duration::from_millis(1));
    let name = name.to_owned();
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || loop {
            if catch_unwind(AssertUnwindSafe(&mut tick)).is_err() {
                sjpl_obs::counter_add("serve.panics", 1);
                sjpl_obs::event("serve.panic", format!("{name} tick panicked"));
            }
            if stop.wait_timeout(interval) {
                return;
            }
        })
        .expect("spawn periodic thread")
}

/// A gauge whose published value always reflects the *current* count:
/// delta and publish happen under one lock, so two workers can never
/// interleave their update with a stale publish (the race the old
/// `fetch_add`-then-`gauge_set` pair had).
struct LiveGauge {
    name: &'static str,
    value: Mutex<i64>,
}

impl LiveGauge {
    fn new(name: &'static str) -> Self {
        LiveGauge {
            name,
            value: Mutex::new(0),
        }
    }

    fn add(&self, delta: i64) {
        let mut v = self.value.lock().unwrap_or_else(|p| p.into_inner());
        *v += delta;
        sjpl_obs::gauge_set(self.name, *v as f64);
    }

    /// Increments now, decrements when the guard drops.
    fn enter(&self) -> LiveGaugeGuard<'_> {
        self.add(1);
        LiveGaugeGuard(self)
    }

    fn get(&self) -> i64 {
        *self.value.lock().unwrap_or_else(|p| p.into_inner())
    }
}

struct LiveGaugeGuard<'a>(&'a LiveGauge);

impl Drop for LiveGaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// Shed-priority tier of an endpoint. Debug endpoints shed first (they
/// never queue and yield to any queued work), normal endpoints queue
/// briefly before shedding, critical probes are always admitted — so
/// under overload the paying traffic (`/estimate`) and the load
/// balancer's health view degrade last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// `/healthz`, `/readyz` — always admitted (tiny, and the thing a
    /// load balancer needs most under stress).
    Critical,
    /// `/estimate`, `/metrics` — the service itself; queues then sheds.
    Normal,
    /// `/snapshot`, `/timeline`, `/debug/*`, unknown paths — sheds first.
    Debug,
}

fn tier_of(endpoint: &str) -> Tier {
    match endpoint {
        "healthz" | "readyz" => Tier::Critical,
        "estimate" | "metrics" => Tier::Normal,
        _ => Tier::Debug,
    }
}

/// Bounded in-flight admission: `active` counts requests past admission,
/// `queued` counts normal-tier requests parked on the condvar waiting for
/// a slot. Publishes `serve.queue.depth` whenever the queue changes.
struct Admission {
    max_inflight: usize,
    queue_depth: usize,
    queue_wait: Duration,
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

#[derive(Default)]
struct AdmissionState {
    active: usize,
    queued: usize,
}

/// What admission decided for one request.
enum Admit<'a> {
    /// A slot was granted; holding the guard holds the slot.
    Granted(AdmissionGuard<'a>),
    /// Past capacity — respond `429 + Retry-After`.
    Shed,
    /// The request's deadline expired while it was queued — respond
    /// `503 + Retry-After`.
    DeadlineExceeded,
}

impl Admission {
    fn new(max_inflight: usize, queue_depth: usize, queue_wait: Duration) -> Admission {
        Admission {
            max_inflight: max_inflight.max(1),
            queue_depth,
            queue_wait,
            state: Mutex::new(AdmissionState::default()),
            cv: Condvar::new(),
        }
    }

    fn admit(&self, tier: Tier, deadline: Option<Instant>) -> Admit<'_> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match tier {
            Tier::Critical => {
                st.active += 1;
                Admit::Granted(AdmissionGuard(self))
            }
            Tier::Debug => {
                if st.active < self.max_inflight && st.queued == 0 {
                    st.active += 1;
                    Admit::Granted(AdmissionGuard(self))
                } else {
                    Admit::Shed
                }
            }
            Tier::Normal => {
                if st.active < self.max_inflight && st.queued == 0 {
                    st.active += 1;
                    return Admit::Granted(AdmissionGuard(self));
                }
                if st.queued >= self.queue_depth {
                    return Admit::Shed;
                }
                st.queued += 1;
                sjpl_obs::gauge_set("serve.queue.depth", st.queued as f64);
                let wait_until = {
                    let q = Instant::now() + self.queue_wait;
                    deadline.map_or(q, |d| q.min(d))
                };
                loop {
                    if st.active < self.max_inflight {
                        st.queued -= 1;
                        sjpl_obs::gauge_set("serve.queue.depth", st.queued as f64);
                        st.active += 1;
                        return Admit::Granted(AdmissionGuard(self));
                    }
                    let now = Instant::now();
                    if now >= wait_until {
                        st.queued -= 1;
                        sjpl_obs::gauge_set("serve.queue.depth", st.queued as f64);
                        return if deadline.is_some_and(|d| now >= d) {
                            Admit::DeadlineExceeded
                        } else {
                            Admit::Shed
                        };
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(st, wait_until - now)
                        .unwrap_or_else(|p| p.into_inner());
                    st = guard;
                }
            }
        }
    }
}

/// Releases the admission slot and wakes a queued waiter.
struct AdmissionGuard<'a>(&'a Admission);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(|p| p.into_inner());
        st.active = st.active.saturating_sub(1);
        self.0.cv.notify_all();
    }
}

/// A readable view of the connection whose reads honor a *total* parse
/// deadline. The per-read socket timeout alone doesn't bound a request: a
/// slow-loris peer dripping one byte per `io_timeout - ε` resets the
/// timer on every byte, pinning the worker indefinitely. Arming this
/// wrapper clamps every subsequent read's socket timeout to the time
/// remaining, so the whole header+body parse completes (or fails with
/// `TimedOut`) within one `io_timeout` of the first byte.
struct DeadlineStream {
    stream: TcpStream,
    io_timeout: Duration,
    deadline: Option<Instant>,
}

impl DeadlineStream {
    fn new(stream: TcpStream, io_timeout: Duration) -> DeadlineStream {
        DeadlineStream {
            stream,
            io_timeout,
            deadline: None,
        }
    }

    /// Starts the parse clock: all reads must complete within
    /// `io_timeout` from now.
    fn arm(&mut self) {
        self.deadline = Some(Instant::now() + self.io_timeout);
    }

    /// Back to plain socket-timeout reads (idle keep-alive polling).
    fn disarm(&mut self) {
        self.deadline = None;
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "request parse exceeded the io timeout",
                ));
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        self.stream.read(buf)
    }
}

/// A running server: N worker threads sharing one listener, a telemetry
/// scraper thread, plus an optional drift-monitor thread, all stopped by
/// one [`StopFlag`]. Stop it with [`Server::shutdown`]; dropping the
/// handle raises the flag without joining.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<StopFlag>,
    workers: Vec<JoinHandle<()>>,
    /// The scraper and the drift monitor ([`spawn_periodic`] threads).
    periodic: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    /// Whether `start` launched the continuous profiler (and `shutdown`
    /// should therefore stop it).
    profiler_started: bool,
    drain_grace: Duration,
}

/// One tail-latency exemplar: the most recent request that landed in a
/// given histogram bucket of a per-endpoint timing series.
#[derive(Clone, Debug)]
struct Exemplar {
    request_id: u64,
    /// Timeline id of the request's `serve.request` span (0 when the
    /// recorder allocated none, e.g. a parse failure).
    span_id: u64,
    dur_ns: u64,
    ts_ms: u64,
}

/// Tail buckets remembered per series: the highest-`le` occupied buckets
/// keep their most recent exemplar, faster buckets age out as slower ones
/// appear. Bounded, so exemplar memory is O(series × 8).
const MAX_EXEMPLAR_BUCKETS: usize = 8;

/// State shared by every worker (the stop flag is also held by the
/// `Server` handle).
struct Shared {
    catalog: Arc<Mutex<LawCatalog>>,
    stop: Arc<StopFlag>,
    request_seq: AtomicU64,
    inflight: LiveGauge,
    connections: LiveGauge,
    slos: Vec<SloSpec>,
    access_log: Option<Mutex<File>>,
    slow_ns: u64,
    /// series name → inclusive `le` bucket bound → most recent exemplar.
    exemplars: Mutex<HashMap<String, BTreeMap<u64, Exemplar>>>,
    admission: Admission,
    deadline_ms: Option<u64>,
    faults: Option<FaultPlan>,
    /// Raised by [`Server::begin_drain`]; `/readyz` answers 503 while set.
    draining: AtomicBool,
    io_timeout: Duration,
    /// The in-process time-series store the scraper thread feeds.
    tsdb: Arc<Tsdb>,
    /// The alert engine (evaluated by the scraper, read by handlers).
    alerts: Arc<AlertEngine>,
    /// Configured scrape cadence (reported in the snapshot tsdb section).
    metrics_interval: Duration,
    /// Daemon start time, for `serve.uptime_seconds`.
    started: Instant,
}

impl Shared {
    fn fire_fault(&self, stage: FaultStage, endpoint: Option<&str>) -> Option<FaultKind> {
        self.faults.as_ref().and_then(|p| p.fire(stage, endpoint))
    }
}

impl Server {
    /// Binds, enables the observability recorder (the daemon *is* the
    /// live metrics source), opens the access log, and spawns the worker
    /// threads.
    pub fn start(catalog: Arc<Mutex<LawCatalog>>, cfg: ServeConfig) -> std::io::Result<Server> {
        sjpl_obs::set_enabled(true);
        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        let access_log = match &cfg.access_log {
            Some(path) => Some(Mutex::new(
                File::options().create(true).append(true).open(path)?,
            )),
            None => None,
        };
        let stop = Arc::new(StopFlag::new());
        let max_inflight = if cfg.max_inflight == 0 {
            cfg.threads.max(1)
        } else {
            cfg.max_inflight
        };
        // The full rule set: user rules, then one burn-rate rule per SLO
        // (windowed off the scrape cadence) and one drift rule per probed
        // law.
        let interval_ms = (cfg.metrics_interval.as_millis() as u64).max(1);
        let mut rules = cfg.alerts;
        for spec in &cfg.slos {
            rules.push(AlertRule::burn_rate(spec, interval_ms));
        }
        for probe in &cfg.probes {
            rules.push(AlertRule::drift(&probe.law_name, cfg.drift.error_budget));
        }
        let shared = Arc::new(Shared {
            catalog: Arc::clone(&catalog),
            stop: Arc::clone(&stop),
            request_seq: AtomicU64::new(0),
            inflight: LiveGauge::new("serve.inflight"),
            connections: LiveGauge::new("serve.connections"),
            slos: cfg.slos,
            access_log,
            slow_ns: cfg.slow_ns,
            exemplars: Mutex::new(HashMap::new()),
            admission: Admission::new(max_inflight, cfg.queue_depth, cfg.queue_wait),
            deadline_ms: cfg.deadline_ms,
            faults: cfg.faults,
            draining: AtomicBool::new(false),
            io_timeout: cfg.io_timeout,
            tsdb: Arc::new(Tsdb::new(cfg.tsdb_capacity)),
            alerts: Arc::new(AlertEngine::new(rules)),
            metrics_interval: cfg.metrics_interval,
            started: Instant::now(),
        });
        let profiler_started = match cfg.profile_hz {
            Some(hz) => sjpl_obs::prof::start(hz),
            None => false,
        };

        let mut workers = Vec::with_capacity(cfg.threads.max(1));
        for i in 0..cfg.threads.max(1) {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sjpl-serve-{i}"))
                    .spawn(move || worker_loop(listener, shared))
                    .expect("spawn worker"),
            );
        }

        let mut prev = TsdbStats::default();
        let scraper = Arc::clone(&shared);
        let mut periodic = vec![spawn_periodic(
            "sjpl-scrape",
            cfg.metrics_interval,
            Arc::clone(&stop),
            move || scrape_tick(&scraper, &mut prev),
        )];
        if !cfg.probes.is_empty() {
            periodic.push(spawn_periodic(
                "sjpl-drift",
                cfg.drift.interval,
                Arc::clone(&stop),
                crate::drift::monitor(catalog, cfg.probes),
            ));
        }

        Ok(Server {
            addr,
            stop,
            workers,
            periodic,
            shared,
            profiler_started,
            drain_grace: cfg.drain_grace,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain without stopping anything: `/readyz`
    /// immediately answers `503 + Retry-After` so load balancers route
    /// new traffic elsewhere, while every other endpoint keeps serving.
    /// [`Server::shutdown`] calls this first; call it earlier to drain
    /// ahead of the actual stop.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: flips `/readyz` to 503 (waiting up to
    /// [`ServeConfig::drain_grace`] for in-flight work to finish), raises
    /// the stop flag, wakes every worker blocked in `accept`, and joins
    /// them. Workers finish their in-flight request before exiting, so
    /// joining *is* the connection drain.
    pub fn shutdown(mut self) {
        self.begin_drain();
        if self.drain_grace > Duration::ZERO {
            let t0 = Instant::now();
            while t0.elapsed() < self.drain_grace && self.shared.inflight.get() > 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.stop.raise();
        for w in self.workers.drain(..) {
            // `accept` has no timeout; poke the listener until the worker
            // notices the flag. A wake consumed by another worker is
            // harmless (it re-checks the flag and exits too). Workers
            // parked on idle keep-alive connections notice via IDLE_POLL.
            while !w.is_finished() {
                let _ = TcpStream::connect(self.addr);
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = w.join();
        }
        for t in self.periodic.drain(..) {
            let _ = t.join();
        }
        if self.profiler_started {
            // Folds the run's samples into the `prof.*` counters and keeps
            // the finished profile retrievable via `current_profile`.
            let _ = sjpl_obs::prof::stop();
        }
        // Workers are joined, so no request can still be writing: flush the
        // access log to disk before the handle drops. `write_all` already
        // pushed every line to the OS; `sync_all` makes them durable.
        if let Some(log) = &self.shared.access_log {
            let f = log.lock().unwrap_or_else(|p| p.into_inner());
            let _ = f.sync_all();
        }
    }

    /// Blocks until the server is shut down from another thread (used by
    /// the CLI, which parks the main thread after printing the address).
    /// Condvar-backed: returns as soon as [`Server::shutdown`] raises the
    /// stop flag, with no polling interval in between.
    pub fn wait(&self) {
        self.stop.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best effort when `shutdown` was never called: every thread exits
        // at its next wait or accept, but the dropping thread never blocks
        // on a join.
        self.stop.raise();
    }
}

/// One scrape: one recorder read (uptime gauge set first) → TSDB,
/// synthetic SLO series, alert evaluation (which publishes the windowed
/// `serve.slo.*` values), and `tsdb.*` accounting (counters are published
/// as deltas against `prev` so they stay monotonic).
fn scrape_tick(shared: &Shared, prev: &mut TsdbStats) {
    let now = now_ms();
    let snap = scrape_snapshot(shared);
    shared.tsdb.ingest(&snap, now);
    for spec in &shared.slos {
        let (good, total) = spec.good_total(&snap);
        shared.tsdb.push(
            &format!("{SLO_GOOD_PREFIX}{}", spec.endpoint),
            SeriesKind::Counter,
            now,
            good as f64,
        );
        shared.tsdb.push(
            &format!("{SLO_TOTAL_PREFIX}{}", spec.endpoint),
            SeriesKind::Counter,
            now,
            total as f64,
        );
    }
    shared.alerts.evaluate(&shared.tsdb, now);
    let stats = shared.tsdb.stats();
    sjpl_obs::counter_add("tsdb.scrapes", stats.scrapes.saturating_sub(prev.scrapes));
    // "samples" counts everything ever pushed (retained + evicted), so the
    // counter stays monotonic as rings wrap.
    let pushed = stats.samples + stats.evicted;
    sjpl_obs::counter_add(
        "tsdb.samples",
        pushed.saturating_sub(prev.samples + prev.evicted),
    );
    sjpl_obs::counter_add("tsdb.evicted", stats.evicted.saturating_sub(prev.evicted));
    sjpl_obs::gauge_set("tsdb.series", stats.series as f64);
    *prev = stats;
}

fn worker_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.is_raised() {
                    return;
                }
                continue;
            }
        };
        if shared.stop.is_raised() {
            return; // the accepted connection was the shutdown wake-up
        }
        match shared.fire_fault(FaultStage::Accept, None) {
            Some(FaultKind::Latency(d)) => std::thread::sleep(d),
            Some(FaultKind::Reset) => continue, // drop the fresh connection
            _ => {}
        }
        let _conn = shared.connections.enter();
        handle_connection(stream, &shared);
    }
}

/// What a blocked keep-alive wait resolved to.
enum ConnEvent {
    /// Request bytes are buffered and ready to parse.
    Ready,
    /// Peer closed, the idle window expired, the socket errored, or the
    /// server is stopping — close the connection either way.
    Done,
}

/// Parks on the connection until the next request arrives, with a short
/// read timeout so the stop flag and the idle limit are honored promptly.
/// On `Ready` the parse deadline has been armed: the whole request must
/// parse within [`ServeConfig::io_timeout`] of its first byte.
fn wait_for_request(reader: &mut BufReader<DeadlineStream>, shared: &Shared) -> ConnEvent {
    reader.get_mut().disarm();
    let _ = reader.get_ref().stream.set_read_timeout(Some(IDLE_POLL));
    let idle_since = Instant::now();
    loop {
        if shared.stop.is_raised() {
            return ConnEvent::Done;
        }
        match reader.fill_buf() {
            Ok([]) => return ConnEvent::Done, // EOF
            Ok(_) => {
                reader.get_mut().arm();
                return ConnEvent::Ready;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if idle_since.elapsed() >= KEEPALIVE_IDLE {
                    return ConnEvent::Done;
                }
            }
            Err(_) => return ConnEvent::Done,
        }
    }
}

/// Serves requests off one connection until the peer closes, an error
/// forces a close, the idle window expires, or the server stops.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let peer = stream.peer_addr().ok();
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    // Keep-alive turns Nagle + delayed ACK into a ~40ms stall per
    // response; estimation answers are a few hundred bytes, so just send.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => DeadlineStream::new(s, shared.io_timeout),
        Err(_) => return,
    });
    let mut writer = stream;

    loop {
        if matches!(wait_for_request(&mut reader, shared), ConnEvent::Done) {
            return;
        }
        match shared.fire_fault(FaultStage::Read, None) {
            Some(FaultKind::Latency(d)) => std::thread::sleep(d),
            Some(FaultKind::Reset) => return,
            _ => {}
        }
        let _inflight = shared.inflight.enter();
        let t0 = Instant::now();
        let request_id = shared.request_seq.fetch_add(1, Ordering::SeqCst) + 1;

        let parsed = {
            let _s = sjpl_obs::span("serve.read");
            read_request(&mut reader)
        };
        let (routed, keep_alive, method, path, span_id) = match parsed {
            Ok(req) => {
                let span = sjpl_obs::span_with("serve.request", || {
                    format!("{} {} #{request_id}", req.method, req.path)
                });
                // Remembered by the exemplar store so a tail bucket can
                // point back into the flight-recorder timeline.
                let span_id = span.context().span_id();
                let dispatched = dispatch(&req, shared, request_id, t0);
                drop(span);
                match dispatched {
                    Dispatched::Reply(routed, force_close) => (
                        routed,
                        req.keep_alive && !force_close,
                        req.method,
                        req.path,
                        span_id,
                    ),
                    // An injected handler reset: drop the connection with
                    // no response (the fault counters already recorded it).
                    Dispatched::Hangup => return,
                }
            }
            // Parse failures have no usable framing; always close.
            Err(e) => (
                Routed::plain(Response::from(e)),
                false,
                String::new(),
                String::new(),
                0,
            ),
        };

        let endpoint = endpoint_label(&path);
        let response = routed
            .response
            .keep_alive(keep_alive)
            .with_header("x-request-id", request_id);
        let status = response.status;
        sjpl_obs::counter_add("serve.requests", 1);
        sjpl_obs::counter_add(class_counter(status), 1);
        if status >= 400 {
            sjpl_obs::counter_add("serve.errors", 1);
        }
        let write_ok = {
            let _s = sjpl_obs::span("serve.write");
            match shared.fire_fault(FaultStage::Write, Some(endpoint)) {
                Some(FaultKind::Latency(d)) => {
                    std::thread::sleep(d);
                    response.write_to(&mut writer).is_ok()
                }
                Some(FaultKind::Reset) => false,
                Some(FaultKind::Torn) => {
                    // Serialize fully, send roughly half, drop the rest:
                    // the client sees a framed-but-short response.
                    let mut buf = Vec::new();
                    let _ = response.write_to(&mut buf);
                    let _ = writer
                        .write_all(&buf[..buf.len() / 2])
                        .and_then(|()| writer.flush());
                    false
                }
                _ => response.write_to(&mut writer).is_ok(),
            }
        };

        let dur_ns = t0.elapsed().as_nanos() as u64;
        let series = format!("serve.endpoint.{endpoint}.{}", status_class(status));
        sjpl_obs::record_ns_named(series.clone(), dur_ns);
        record_exemplar(shared, series, request_id, span_id, dur_ns);
        let slow = dur_ns >= shared.slow_ns;
        if slow {
            sjpl_obs::counter_add("serve.slow_requests", 1);
            sjpl_obs::timeline_capture(
                "serve.slow_request",
                dur_ns,
                Some(format!("{method} {path} status={status} #{request_id}")),
            );
        }
        access_log(
            shared,
            peer,
            request_id,
            &method,
            &path,
            endpoint,
            status,
            dur_ns,
            routed.law.as_deref(),
            slow,
        );

        if !keep_alive || !write_ok {
            return;
        }
    }
}

/// Appends one JSONL record to the access log, if one is configured.
#[allow(clippy::too_many_arguments)]
fn access_log(
    shared: &Shared,
    peer: Option<SocketAddr>,
    request_id: u64,
    method: &str,
    path: &str,
    endpoint: &str,
    status: u16,
    dur_ns: u64,
    law: Option<&str>,
    slow: bool,
) {
    let Some(log) = &shared.access_log else {
        return;
    };
    let ts_ms = now_ms();
    let line = format!(
        "{{\"ts_ms\":{ts_ms},\"request_id\":{request_id},\"remote\":{remote},\
         \"method\":\"{method}\",\"path\":\"{path}\",\"endpoint\":\"{endpoint}\",\
         \"status\":{status},\"duration_ns\":{dur_ns},\"law\":{law},\"slow\":{slow}}}\n",
        remote = match peer {
            Some(p) => format!("\"{p}\""),
            None => "null".to_owned(),
        },
        method = escape(method),
        path = escape(path),
        law = match law {
            Some(l) => format!("\"{}\"", escape(l)),
            None => "null".to_owned(),
        },
    );
    let mut f = log.lock().unwrap_or_else(|p| p.into_inner());
    let _ = f.write_all(line.as_bytes());
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Remembers this request as the exemplar of the histogram bucket its
/// duration landed in — keyed by the same inclusive `le` bound the
/// Prometheus exposition prints, so the `/metrics` decorator can match
/// bucket lines exactly. Only the [`MAX_EXEMPLAR_BUCKETS`] highest buckets
/// survive per series: fast requests age out, tail requests stick.
fn record_exemplar(shared: &Shared, series: String, request_id: u64, span_id: u64, dur_ns: u64) {
    let ub = sjpl_obs::hist::bucket_upper_bound(sjpl_obs::hist::bucket_of(dur_ns));
    let le = if ub == u64::MAX { ub } else { ub - 1 };
    let exemplar = Exemplar {
        request_id,
        span_id,
        dur_ns,
        ts_ms: now_ms(),
    };
    let mut store = shared.exemplars.lock().unwrap_or_else(|p| p.into_inner());
    let buckets = store.entry(series).or_default();
    buckets.insert(le, exemplar);
    while buckets.len() > MAX_EXEMPLAR_BUCKETS {
        buckets.pop_first();
    }
}

/// Appends OpenMetrics exemplar suffixes (` # {labels} value`) to the
/// `_bucket` lines of series that have remembered exemplars. The `+Inf`
/// bucket carries the slowest remembered exemplar; finite buckets carry
/// their own. Lines without a matching exemplar pass through untouched.
fn decorate_with_exemplars(text: &str, store: &HashMap<String, BTreeMap<u64, Exemplar>>) -> String {
    if store.is_empty() {
        return text.to_owned();
    }
    let by_prefix: Vec<(String, &BTreeMap<u64, Exemplar>)> = store
        .iter()
        .map(|(series, buckets)| {
            let p = format!(
                "sjpl_{}_ns_bucket{{le=\"",
                sjpl_obs::prometheus::sanitize(series)
            );
            (p, buckets)
        })
        .collect();
    let mut out = String::with_capacity(text.len() + 64 * store.len());
    for line in text.lines() {
        out.push_str(line);
        for (prefix, buckets) in &by_prefix {
            let Some(rest) = line.strip_prefix(prefix.as_str()) else {
                continue;
            };
            let le_str = rest.split('"').next().unwrap_or("");
            let exemplar = if le_str == "+Inf" {
                buckets.last_key_value().map(|(_, e)| e)
            } else {
                le_str.parse::<u64>().ok().and_then(|le| buckets.get(&le))
            };
            if let Some(e) = exemplar {
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!(
                        " # {{request_id=\"{}\",span_id=\"{}\"}} {}",
                        e.request_id, e.span_id, e.dur_ns
                    ),
                );
            }
            break;
        }
        out.push('\n');
    }
    out
}

/// The `/debug/exemplars` JSON view: every remembered tail bucket, sorted
/// by series name then `le`.
fn exemplars_json(shared: &Shared) -> String {
    let store = shared.exemplars.lock().unwrap_or_else(|p| p.into_inner());
    let mut series: Vec<(&String, &BTreeMap<u64, Exemplar>)> = store.iter().collect();
    series.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::from("{\n  \"schema\": 1,\n  \"exemplars\": [\n");
    let mut first = true;
    for (name, buckets) in series {
        for (le, e) in buckets {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "    {{\"series\": \"{}\", \"le\": {le}, \"request_id\": {}, \
                     \"span_id\": {}, \"duration_ns\": {}, \"ts_ms\": {}}}",
                    escape(name),
                    e.request_id,
                    e.span_id,
                    e.dur_ns,
                    e.ts_ms
                ),
            );
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Publishes the live profiler accounting (`prof.live.*` gauges) so every
/// scrape carries the sampler's current sample/drop/overhead totals — for
/// the continuous sampler while it runs, or the last finished window.
fn publish_profiler_gauges() {
    if let Some(t) = sjpl_obs::prof::current_totals() {
        sjpl_obs::gauge_set("prof.live.samples", t.samples as f64);
        sjpl_obs::gauge_set("prof.live.dropped_samples", t.dropped as f64);
        sjpl_obs::gauge_set("prof.live.overhead_ns", t.overhead_ns as f64);
    }
}

/// Minimal percent-decoding for query values (`%5B` → `[`, `+` → space):
/// enough for clients that URL-encode `/query?expr=` expressions. Bad
/// escapes pass through literally — the expression parser rejects them
/// with a better message than a decoder could.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// First value of `key` in a raw `a=1&b=2` query string.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// The route table: every served path and the fixed endpoint label its
/// metrics, SLOs and fault scopes use. Every other path is labelled
/// `other`. Labels, never raw client paths, name metrics: a client path
/// would be unbounded-cardinality (and an injection vector into metric
/// names).
const ROUTES: &[(&str, &str)] = &[
    ("/estimate", "estimate"),
    ("/healthz", "healthz"),
    ("/readyz", "readyz"),
    ("/metrics", "metrics"),
    ("/snapshot", "snapshot"),
    ("/timeline", "timeline"),
    ("/alerts", "alerts"),
    ("/query", "query"),
    ("/debug/profile", "profile"),
    ("/debug/exemplars", "exemplars"),
];

/// Every endpoint label: the route table's, in table order, then `other`.
pub fn endpoint_labels() -> impl Iterator<Item = &'static str> {
    ROUTES.iter().map(|&(_, label)| label).chain(["other"])
}

/// The endpoint label a path is bucketed under.
fn endpoint_label(path: &str) -> &'static str {
    ROUTES
        .iter()
        .find(|&&(p, _)| p == path)
        .map_or("other", |&(_, label)| label)
}

/// The status class label (1xx is folded into 2xx; the server never emits
/// informational responses).
fn status_class(status: u16) -> &'static str {
    match status {
        0..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    }
}

/// The per-class response counter name for a status.
fn class_counter(status: u16) -> &'static str {
    match status {
        0..=299 => "serve.responses.2xx",
        300..=399 => "serve.responses.3xx",
        400..=499 => "serve.responses.4xx",
        _ => "serve.responses.5xx",
    }
}

/// A routed response plus request metadata the access log wants (the law
/// name an `/estimate` request asked for).
struct Routed {
    response: Response,
    law: Option<String>,
}

impl Routed {
    fn plain(response: Response) -> Routed {
        Routed {
            response,
            law: None,
        }
    }
}

/// The outcome of dispatching one parsed request.
enum Dispatched {
    /// A response to send; `true` forces the connection closed afterwards.
    Reply(Routed, bool),
    /// An injected reset: drop the connection without a response.
    Hangup,
}

/// The request's deadline budget: the `X-Deadline-Ms` header when present
/// and parseable (must be a positive integer), else the server default.
/// Measured from the request's first byte.
fn request_deadline(req: &Request, shared: &Shared, t0: Instant) -> Option<Instant> {
    req.header("x-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .or(shared.deadline_ms)
        .map(|ms| t0 + Duration::from_millis(ms))
}

fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// `429 + Retry-After`: past capacity, counted under `serve.shed.*`.
fn shed_response(endpoint: &str) -> Response {
    sjpl_obs::counter_add("serve.shed.total", 1);
    sjpl_obs::counter_add_named(format!("serve.shed.{endpoint}"), 1);
    Response::text(429, "server overloaded; retry later")
        .with_header("Retry-After", RETRY_AFTER_SECS)
}

/// `503 + Retry-After`: the request's deadline budget ran out before the
/// work could finish, counted under `serve.deadline.*`.
fn deadline_response(endpoint: &str) -> Response {
    sjpl_obs::counter_add("serve.deadline.exceeded", 1);
    sjpl_obs::counter_add_named(format!("serve.deadline.{endpoint}"), 1);
    Response::text(503, "deadline exceeded").with_header("Retry-After", RETRY_AFTER_SECS)
}

/// Admission control, deadline enforcement, handle-stage fault injection,
/// and panic containment around [`route`]. The admission slot is held for
/// the handler's duration (not the response write, which is bounded by
/// the write timeout instead).
fn dispatch(req: &Request, shared: &Shared, request_id: u64, t0: Instant) -> Dispatched {
    let endpoint = endpoint_label(&req.path);
    let deadline = request_deadline(req, shared, t0);
    // Enforced at dispatch: a budget the read already consumed (slow peer,
    // injected read latency) fails before any work happens.
    if deadline_expired(deadline) {
        return Dispatched::Reply(Routed::plain(deadline_response(endpoint)), false);
    }
    let _slot = match shared.admission.admit(tier_of(endpoint), deadline) {
        Admit::Granted(guard) => guard,
        Admit::Shed => {
            return Dispatched::Reply(Routed::plain(shed_response(endpoint)), false);
        }
        Admit::DeadlineExceeded => {
            return Dispatched::Reply(Routed::plain(deadline_response(endpoint)), false);
        }
    };
    let fault = shared.fire_fault(FaultStage::Handle, Some(endpoint));
    if let Some(FaultKind::Latency(d)) = fault {
        std::thread::sleep(d);
    }
    if matches!(fault, Some(FaultKind::Reset)) {
        return Dispatched::Hangup;
    }
    // Re-checked past the queue wait and any injected stall: both consume
    // the budget.
    if deadline_expired(deadline) {
        return Dispatched::Reply(Routed::plain(deadline_response(endpoint)), false);
    }
    let inject_panic = matches!(fault, Some(FaultKind::Panic));
    // One panicking handler must cost one response, not a worker thread:
    // without this the fixed accept pool shrinks permanently.
    match catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected panic fault");
        }
        route(req, shared, request_id, deadline)
    })) {
        Ok(routed) => Dispatched::Reply(routed, false),
        Err(_) => {
            sjpl_obs::counter_add("serve.panics", 1);
            sjpl_obs::event(
                "serve.panic",
                format!("handler for {endpoint} panicked (#{request_id})"),
            );
            // The handler died at an unknown point; close the connection
            // rather than trust its keep-alive state.
            Dispatched::Reply(
                Routed::plain(Response::text(500, "internal error: handler panicked")),
                true,
            )
        }
    }
}

fn route(req: &Request, shared: &Shared, request_id: u64, deadline: Option<Instant>) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/estimate") => {
            let _s = sjpl_obs::span("serve.estimate");
            // Checked before the catalog lock + law math, the "expensive
            // work" of this endpoint.
            if deadline_expired(deadline) {
                return Routed::plain(deadline_response("estimate"));
            }
            estimate(req, shared, request_id)
        }
        ("GET", "/metrics") => {
            let _s = sjpl_obs::span("serve.metrics");
            // The scrape path instruments itself: its own span/counter land
            // in the *next* scrape (this one's snapshot is already taken by
            // the time the span closes).
            let _scrape = sjpl_obs::span("serve.scrape");
            sjpl_obs::counter_add("serve.scrape.total", 1);
            publish_profiler_gauges();
            let text = scrape_snapshot(shared).to_prometheus();
            let mut decorated = {
                let store = shared.exemplars.lock().unwrap_or_else(|p| p.into_inner());
                decorate_with_exemplars(&text, &store)
            };
            decorated.push_str(&format!(
                "# HELP sjpl_build_info Build metadata (constant 1).\n\
                 # TYPE sjpl_build_info gauge\n\
                 sjpl_build_info{{version=\"{}\"}} 1\n",
                env!("CARGO_PKG_VERSION"),
            ));
            decorated.push_str(&shared.alerts.prometheus_lines());
            Routed::plain(Response::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                decorated,
            ))
        }
        ("GET", "/snapshot") => {
            let _s = sjpl_obs::span("serve.snapshot");
            let mut snap = sjpl_obs::snapshot().with_timeline();
            snap.tsdb = Some(
                shared
                    .tsdb
                    .snapshot_section(shared.metrics_interval.as_millis() as u64),
            );
            snap.alerts = shared.alerts.snapshots();
            Routed::plain(Response::json(snap.to_json()))
        }
        ("GET", "/alerts") => {
            let _s = sjpl_obs::span("serve.alerts");
            Routed::plain(Response::json(shared.alerts.to_json()))
        }
        ("GET", "/query") => {
            let _s = sjpl_obs::span("serve.query");
            let Some(raw) = query_param(req.query.as_deref(), "expr") else {
                return Routed::plain(Response::text(400, "missing query parameter \"expr\""));
            };
            let expr = match QueryExpr::parse(&percent_decode(raw)) {
                Ok(e) => e,
                Err(e) => return Routed::plain(Response::text(400, format!("bad expr: {e}"))),
            };
            match shared.tsdb.query(&expr, now_ms()) {
                Some(r) => {
                    let samples: Vec<String> = r
                        .samples
                        .iter()
                        .map(|&(ts, v)| format!("[{}, {}]", ts, number(v)))
                        .collect();
                    Routed::plain(Response::json(format!(
                        "{{\"expr\": \"{}\", \"series\": \"{}\", \"value\": {}, \
                         \"samples\": [{}]}}\n",
                        escape(&percent_decode(raw)),
                        escape(expr.name()),
                        number(r.value),
                        samples.join(", "),
                    )))
                }
                None => Routed::plain(Response::text(
                    404,
                    format!("no such series {:?}", expr.name()),
                )),
            }
        }
        ("GET", "/timeline") => {
            let _s = sjpl_obs::span("serve.timeline");
            Routed::plain(Response::json(
                sjpl_obs::snapshot().with_timeline().to_chrome_trace(),
            ))
        }
        ("GET", "/healthz") => {
            let _s = sjpl_obs::span("serve.healthz");
            Routed::plain(Response::text(200, "ok"))
        }
        ("GET", "/debug/profile") => {
            let _s = sjpl_obs::span("serve.profile");
            let q = req.query.as_deref();
            let seconds = match query_param(q, "seconds").map(str::parse::<f64>) {
                None => 1.0,
                Some(Ok(s)) if s.is_finite() && s > 0.0 && s <= 30.0 => s,
                Some(_) => {
                    return Routed::plain(Response::text(
                        400,
                        "seconds must be a number in (0, 30]",
                    ))
                }
            };
            let hz = match query_param(q, "hz").map(str::parse::<f64>) {
                None => 99.0,
                Some(Ok(h)) if h.is_finite() && h > 0.0 => h,
                Some(_) => {
                    return Routed::plain(Response::text(400, "hz must be a positive number"))
                }
            };
            // A capture window that cannot finish inside the deadline
            // budget is refused up front rather than blocking the worker
            // past it.
            if let Some(d) = deadline {
                let left = d.saturating_duration_since(Instant::now());
                if left < Duration::from_secs_f64(seconds) {
                    return Routed::plain(deadline_response("profile"));
                }
            }
            // Blocks this worker for the window; bounded by the 30s cap.
            // When the continuous sampler is running, the window is a diff
            // of its live profile and `hz` is ignored.
            let profile = sjpl_obs::prof::window(hz, Duration::from_secs_f64(seconds));
            Routed::plain(match query_param(q, "format") {
                Some("json") => Response::json(profile.to_json()),
                _ => Response::ok("text/plain; charset=utf-8", profile.to_collapsed()),
            })
        }
        ("GET", "/debug/exemplars") => {
            let _s = sjpl_obs::span("serve.exemplars");
            Routed::plain(Response::json(exemplars_json(shared)))
        }
        ("GET", "/readyz") => {
            let _s = sjpl_obs::span("serve.readyz");
            // Draining wins over everything: load balancers must stop
            // routing here before the listener actually closes.
            if shared.draining.load(Ordering::SeqCst) {
                return Routed::plain(
                    Response::text(503, "draining").with_header("Retry-After", RETRY_AFTER_SECS),
                );
            }
            let n = shared
                .catalog
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len();
            Routed::plain(if n > 0 {
                Response::text(200, format!("ready ({n} laws)"))
            } else {
                Response::text(503, "no laws loaded").with_header("Retry-After", RETRY_AFTER_SECS)
            })
        }
        // Known path, wrong method: 405 with the allowed method advertised.
        (_, "/estimate") => Routed::plain(
            Response::text(405, format!("method {} not allowed", req.method))
                .with_header("Allow", "POST"),
        ),
        (_, path) if endpoint_label(path) != "other" => Routed::plain(
            Response::text(405, format!("method {} not allowed", req.method))
                .with_header("Allow", "GET"),
        ),
        _ => Routed::plain(Response::text(
            404,
            format!("no such endpoint {}", req.path),
        )),
    }
}

/// The one recorder read behind a `/metrics` scrape and a TSDB tick: sets
/// the uptime gauge and takes an aggregate [`sjpl_obs::snapshot`] (no
/// timeline events).
fn scrape_snapshot(shared: &Shared) -> Snapshot {
    sjpl_obs::gauge_set(
        "serve.uptime_seconds",
        shared.started.elapsed().as_secs_f64(),
    );
    sjpl_obs::snapshot()
}

/// `POST /estimate` — body `{"law": "<catalog name>", "radius": <r>}`;
/// answers with the O(1) estimate plus the law's full provenance so the
/// client can audit what produced the number.
fn estimate(req: &Request, shared: &Shared, request_id: u64) -> Routed {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Routed::plain(Response::text(400, "body is not UTF-8")),
    };
    let doc = match Json::parse(body) {
        Ok(d) => d,
        Err(e) => return Routed::plain(Response::text(400, format!("bad JSON body: {e}"))),
    };
    let Some(law_name) = doc.get("law").and_then(Json::as_str) else {
        return Routed::plain(Response::text(400, "missing string field \"law\""));
    };
    let Some(radius) = doc.get("radius").and_then(Json::as_f64) else {
        return Routed {
            response: Response::text(400, "missing numeric field \"radius\""),
            law: Some(law_name.to_owned()),
        };
    };
    let routed = |response| Routed {
        response,
        law: Some(law_name.to_owned()),
    };
    if let Err(msg) = sjpl_core::check_radius(radius) {
        return routed(Response::text(400, msg));
    }
    let law = {
        let cat = shared.catalog.lock().unwrap_or_else(|p| p.into_inner());
        cat.get(law_name).copied()
    };
    let Some(law) = law else {
        return routed(Response::text(
            404,
            format!("no law named {law_name:?} in the catalog"),
        ));
    };

    let p = law.provenance();
    let body = format!(
        concat!(
            "{{\n",
            "  \"request_id\": {rid},\n",
            "  \"law\": \"{law}\",\n",
            "  \"radius\": {radius},\n",
            "  \"pair_count\": {pc},\n",
            "  \"selectivity\": {sel},\n",
            "  \"in_fitted_range\": {in_range},\n",
            "  \"provenance\": {{\n",
            "    \"k\": {k},\n",
            "    \"alpha\": {alpha},\n",
            "    \"r_squared\": {r2},\n",
            "    \"rmse_log10\": {rmse},\n",
            "    \"points_used\": {pts},\n",
            "    \"fit_window\": [{xlo}, {xhi}],\n",
            "    \"join_kind\": \"{kind}\",\n",
            "    \"n\": {n},\n",
            "    \"m\": {m}\n",
            "  }}\n",
            "}}\n",
        ),
        rid = request_id,
        law = escape(law_name),
        radius = number(radius),
        pc = number(law.pair_count(radius)),
        sel = number(law.selectivity(radius)),
        in_range = law.in_fitted_range(radius),
        k = number(p.k),
        alpha = number(p.alpha),
        r2 = number(p.r_squared),
        rmse = number(p.rmse_log10),
        pts = p.points_used,
        xlo = number(p.x_lo),
        xhi = number(p.x_hi),
        kind = p.kind_label(),
        n = p.n,
        m = p.m,
    );
    routed(Response::json(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared() -> Shared {
        Shared {
            catalog: Arc::new(Mutex::new(sjpl_core::LawCatalog::default())),
            stop: Arc::new(StopFlag::new()),
            request_seq: AtomicU64::new(0),
            inflight: LiveGauge::new("serve.inflight"),
            connections: LiveGauge::new("serve.connections"),
            slos: Vec::new(),
            access_log: None,
            slow_ns: u64::MAX,
            exemplars: Mutex::new(HashMap::new()),
            admission: Admission::new(4, 4, Duration::from_millis(100)),
            deadline_ms: None,
            faults: None,
            draining: AtomicBool::new(false),
            io_timeout: IO_TIMEOUT,
            tsdb: Arc::new(Tsdb::new(64)),
            alerts: Arc::new(AlertEngine::new(Vec::new())),
            metrics_interval: Duration::from_secs(5),
            started: Instant::now(),
        }
    }

    /// A tick's burn-rate rule evaluates the SLO over windows of the
    /// scraped counts and leaves the windowed values in the recorder.
    #[test]
    fn scrape_tick_stores_its_own_slo_evaluation() {
        sjpl_obs::set_enabled(true);
        // No other test here records readyz requests.
        let spec = SloSpec::parse("/readyz=1ms@p50").unwrap();
        let shared = Shared {
            alerts: Arc::new(AlertEngine::new(vec![AlertRule::burn_rate(&spec, 1_000)])),
            slos: vec![spec],
            ..test_shared()
        };
        let gauge = |name: &str| sjpl_obs::snapshot().gauge(name);
        let mut prev = TsdbStats::default();
        scrape_tick(&shared, &mut prev);
        assert_eq!(gauge("serve.slo.compliance.readyz"), Some(1.0));
        assert_eq!(gauge("serve.slo.burn_rate.readyz"), Some(0.0));
        assert_eq!(gauge("serve.slo.breached.readyz"), Some(0.0));
        assert_eq!(
            sjpl_obs::snapshot().counter("serve.slo.breaches.readyz"),
            None
        );

        // One request in four meets 1 ms: over both windows compliance is
        // 0.25 and the burn 0.75 / 0.5, so the rule enters pending.
        for ns in [1_000, 5_000_000, 6_000_000, 7_000_000] {
            sjpl_obs::record_ns_named("serve.endpoint.readyz.2xx", ns);
        }
        std::thread::sleep(Duration::from_millis(2));
        scrape_tick(&shared, &mut prev);
        assert_eq!(gauge("serve.slo.compliance.readyz"), Some(0.25));
        assert_eq!(gauge("serve.slo.burn_rate.readyz"), Some(1.5));
        assert_eq!(gauge("serve.slo.breached.readyz"), Some(1.0));
        assert_eq!(shared.alerts.snapshots()[0].state, "pending");
        assert_eq!(
            sjpl_obs::snapshot().counter("serve.slo.breaches.readyz"),
            Some(1)
        );
        let latest = |name: &str| {
            shared
                .tsdb
                .query_str(name, now_ms())
                .unwrap()
                .map(|r| r.value)
        };
        assert_eq!(latest(&format!("{SLO_TOTAL_PREFIX}readyz")), Some(4.0));
        assert_eq!(latest(&format!("{SLO_GOOD_PREFIX}readyz")), Some(1.0));
    }

    #[test]
    fn tiers_shed_debug_first_and_protect_probes() {
        assert_eq!(tier_of("healthz"), Tier::Critical);
        assert_eq!(tier_of("readyz"), Tier::Critical);
        assert_eq!(tier_of("estimate"), Tier::Normal);
        assert_eq!(tier_of("metrics"), Tier::Normal);
        for debug in ["snapshot", "timeline", "profile", "exemplars", "other"] {
            assert_eq!(tier_of(debug), Tier::Debug, "{debug}");
        }
    }

    #[test]
    fn admission_sheds_debug_immediately_and_queues_normal() {
        let adm = Admission::new(1, 1, Duration::from_millis(40));
        let slot = match adm.admit(Tier::Normal, None) {
            Admit::Granted(g) => g,
            _ => panic!("first normal request must be admitted"),
        };
        // Debug never queues: at capacity it sheds on the spot.
        assert!(matches!(adm.admit(Tier::Debug, None), Admit::Shed));
        // Critical is admitted past capacity (the guard drops right away).
        assert!(matches!(adm.admit(Tier::Critical, None), Admit::Granted(_)));
        // Normal queues for queue_wait, then sheds when nothing frees up.
        let t0 = Instant::now();
        assert!(matches!(adm.admit(Tier::Normal, None), Admit::Shed));
        assert!(
            t0.elapsed() >= Duration::from_millis(35),
            "normal tier must wait out the queue before shedding"
        );
        drop(slot);
        assert!(matches!(adm.admit(Tier::Normal, None), Admit::Granted(_)));
    }

    #[test]
    fn queued_request_takes_a_freed_slot() {
        let adm = Arc::new(Admission::new(1, 2, Duration::from_millis(500)));
        let slot = match adm.admit(Tier::Normal, None) {
            Admit::Granted(g) => g,
            _ => panic!("admitted"),
        };
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let ok = matches!(adm.admit(Tier::Normal, None), Admit::Granted(_));
                (ok, t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(slot);
        let (granted, waited) = waiter.join().unwrap();
        assert!(granted, "the queued request must get the freed slot");
        assert!(
            waited < Duration::from_millis(400),
            "handoff should beat the queue timeout, waited {waited:?}"
        );
    }

    #[test]
    fn queue_overflow_sheds_without_waiting() {
        let adm = Arc::new(Admission::new(1, 0, Duration::from_millis(500)));
        let _slot = match adm.admit(Tier::Normal, None) {
            Admit::Granted(g) => g,
            _ => panic!("admitted"),
        };
        // queue_depth 0: the next normal request sheds instantly.
        let t0 = Instant::now();
        assert!(matches!(adm.admit(Tier::Normal, None), Admit::Shed));
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn queued_deadline_expiry_is_reported_as_such() {
        let adm = Admission::new(1, 2, Duration::from_millis(500));
        let _slot = match adm.admit(Tier::Normal, None) {
            Admit::Granted(g) => g,
            _ => panic!("admitted"),
        };
        let deadline = Some(Instant::now() + Duration::from_millis(30));
        let t0 = Instant::now();
        assert!(matches!(
            adm.admit(Tier::Normal, deadline),
            Admit::DeadlineExceeded
        ));
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(25) && waited < Duration::from_millis(400),
            "the deadline, not the queue timeout, must bound the wait ({waited:?})"
        );
    }

    #[test]
    fn request_deadline_prefers_the_header_over_the_default() {
        let mut shared = test_shared();
        shared.deadline_ms = Some(5_000);
        let mut req = Request {
            method: "GET".to_owned(),
            path: "/healthz".to_owned(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        };
        let t0 = Instant::now();
        // Default applies without the header.
        let d = request_deadline(&req, &shared, t0).unwrap();
        assert_eq!(d, t0 + Duration::from_millis(5_000));
        // The header overrides it.
        req.headers
            .push(("x-deadline-ms".to_owned(), "250".to_owned()));
        let d = request_deadline(&req, &shared, t0).unwrap();
        assert_eq!(d, t0 + Duration::from_millis(250));
        // Garbage and zero fall back to the default rather than erroring.
        req.headers[0].1 = "soon".to_owned();
        assert_eq!(
            request_deadline(&req, &shared, t0),
            Some(t0 + Duration::from_millis(5_000))
        );
        req.headers[0].1 = "0".to_owned();
        assert_eq!(
            request_deadline(&req, &shared, t0),
            Some(t0 + Duration::from_millis(5_000))
        );
        // No header, no default: no deadline.
        shared.deadline_ms = None;
        req.headers.clear();
        assert_eq!(request_deadline(&req, &shared, t0), None);
        assert!(!deadline_expired(None));
        assert!(deadline_expired(Some(t0)));
    }

    #[test]
    fn stop_flag_wait_wakes_immediately_on_raise() {
        let flag = Arc::new(StopFlag::new());
        let waiter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                flag.wait();
                t0.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!flag.is_raised());
        let raised_at = Instant::now();
        flag.raise();
        let waited = waiter.join().unwrap();
        assert!(flag.is_raised());
        // The waiter must wake via the condvar, not a 200ms poll tick.
        assert!(
            raised_at.elapsed() < Duration::from_millis(100),
            "wait() took {waited:?} after raise"
        );
        // And a wait() after the raise returns immediately.
        let t0 = Instant::now();
        flag.wait();
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn shutdown_does_not_wait_out_the_periodic_intervals() {
        let server = Server::start(
            Arc::new(Mutex::new(sjpl_core::LawCatalog::new())),
            ServeConfig {
                threads: 1,
                probes: vec![DriftProbe {
                    law_name: "absent".into(),
                    radii: vec![0.1],
                    truth: Arc::new(|_| 1.0),
                }],
                drift: DriftConfig {
                    interval: Duration::from_secs(30),
                    ..DriftConfig::default()
                },
                metrics_interval: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(server.periodic.len(), 2, "scraper and drift threads");
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn live_gauge_guard_restores_on_drop() {
        let g = LiveGauge::new("serve.inflight");
        {
            let _a = g.enter();
            let _b = g.enter();
            assert_eq!(*g.value.lock().unwrap(), 2);
        }
        assert_eq!(*g.value.lock().unwrap(), 0);
    }

    #[test]
    fn live_gauge_publishes_the_true_count_under_contention() {
        // Hammer one gauge from many threads; after everything unwinds the
        // count must be exactly zero (the old fetch_add/gauge_set pair
        // could leave a stale published value, but the count itself also
        // had to balance — this pins the invariant the lock protects).
        let g = Arc::new(LiveGauge::new("serve.inflight"));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for _ in 0..200 {
                        let _guard = g.enter();
                    }
                });
            }
        });
        assert_eq!(*g.value.lock().unwrap(), 0);
    }

    #[test]
    fn endpoint_labels_and_status_classes_are_fixed() {
        assert_eq!(endpoint_label("/estimate"), "estimate");
        assert_eq!(endpoint_label("/healthz"), "healthz");
        assert_eq!(endpoint_label("/debug/profile"), "profile");
        assert_eq!(endpoint_label("/debug/exemplars"), "exemplars");
        assert_eq!(endpoint_label("/../etc/passwd"), "other");
        assert_eq!(endpoint_label("/metrics{evil=\"1\"}"), "other");
        assert_eq!(status_class(200), "2xx");
        assert_eq!(status_class(301), "3xx");
        assert_eq!(status_class(404), "4xx");
        assert_eq!(status_class(500), "5xx");
        assert_eq!(class_counter(503), "serve.responses.5xx");
    }

    #[test]
    fn query_params_parse_first_match_and_tolerate_junk() {
        assert_eq!(query_param(Some("seconds=2&hz=50"), "seconds"), Some("2"));
        assert_eq!(query_param(Some("seconds=2&hz=50"), "hz"), Some("50"));
        assert_eq!(query_param(Some("a=1&a=2"), "a"), Some("1"));
        assert_eq!(query_param(Some("novalue&x=1"), "x"), Some("1"));
        assert_eq!(query_param(Some("seconds=2"), "hz"), None);
        assert_eq!(query_param(None, "seconds"), None);
    }

    fn exemplar_store(
        entries: &[(&str, u64, u64, u64, u64)],
    ) -> HashMap<String, BTreeMap<u64, Exemplar>> {
        let mut store: HashMap<String, BTreeMap<u64, Exemplar>> = HashMap::new();
        for &(series, le, request_id, span_id, dur_ns) in entries {
            store.entry(series.to_owned()).or_default().insert(
                le,
                Exemplar {
                    request_id,
                    span_id,
                    dur_ns,
                    ts_ms: 0,
                },
            );
        }
        store
    }

    #[test]
    fn exemplar_decoration_hits_matching_buckets_only() {
        // `le` bounds must match what the exposition prints for these
        // durations: bucket_upper_bound(bucket_of(v)) − 1.
        let text = "\
# TYPE sjpl_serve_endpoint_estimate_2xx_ns histogram
sjpl_serve_endpoint_estimate_2xx_ns_bucket{le=\"927\"} 4
sjpl_serve_endpoint_estimate_2xx_ns_bucket{le=\"1023\"} 5
sjpl_serve_endpoint_estimate_2xx_ns_bucket{le=\"+Inf\"} 6
sjpl_serve_endpoint_estimate_2xx_ns_sum 4321
sjpl_serve_endpoint_estimate_2xx_ns_count 6
sjpl_other_metric 1
";
        let store = exemplar_store(&[
            ("serve.endpoint.estimate.2xx", 927, 41, 7, 900),
            ("serve.endpoint.estimate.2xx", 4095, 42, 8, 4000),
        ]);
        let out = decorate_with_exemplars(text, &store);
        // The 927 bucket carries its exemplar; 1023 has none and passes
        // through; +Inf carries the slowest remembered one.
        assert!(out.contains(
            "sjpl_serve_endpoint_estimate_2xx_ns_bucket{le=\"927\"} 4 \
             # {request_id=\"41\",span_id=\"7\"} 900"
        ));
        assert!(out.contains("{le=\"1023\"} 5\n"));
        assert!(out.contains(
            "sjpl_serve_endpoint_estimate_2xx_ns_bucket{le=\"+Inf\"} 6 \
             # {request_id=\"42\",span_id=\"8\"} 4000"
        ));
        // Non-bucket lines and other metrics are untouched.
        assert!(out.contains("sjpl_serve_endpoint_estimate_2xx_ns_sum 4321\n"));
        assert!(out.contains("sjpl_other_metric 1\n"));
        // An empty store is the identity.
        assert_eq!(decorate_with_exemplars(text, &HashMap::new()), text);
    }

    #[test]
    fn exemplar_buckets_keep_the_tail_and_stay_bounded() {
        let shared = test_shared();
        // Durations spread across > MAX_EXEMPLAR_BUCKETS distinct buckets:
        // powers of two land in distinct log-linear buckets.
        for i in 0..12u32 {
            record_exemplar(
                &shared,
                "serve.endpoint.estimate.2xx".to_owned(),
                u64::from(i) + 1,
                100 + u64::from(i),
                1u64 << (i + 4),
            );
        }
        let store = shared.exemplars.lock().unwrap();
        let buckets = &store["serve.endpoint.estimate.2xx"];
        assert_eq!(buckets.len(), MAX_EXEMPLAR_BUCKETS);
        // The slowest request survives as the top bucket's exemplar...
        let (_, top) = buckets.last_key_value().unwrap();
        assert_eq!(top.request_id, 12);
        assert_eq!(top.dur_ns, 1 << 15);
        // ...and the fastest ones aged out.
        let (_, bottom) = buckets.first_key_value().unwrap();
        assert!(bottom.dur_ns > 1 << 6);
        // A faster repeat into a surviving bucket overwrites in place.
        drop(store);
        record_exemplar(
            &shared,
            "serve.endpoint.estimate.2xx".to_owned(),
            99,
            999,
            1 << 15,
        );
        let store = shared.exemplars.lock().unwrap();
        let (_, top) = store["serve.endpoint.estimate.2xx"]
            .last_key_value()
            .unwrap();
        assert_eq!((top.request_id, top.span_id), (99, 999));
    }
}
