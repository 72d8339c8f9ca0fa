//! `serve_estimate` and `serve_scraped`: the estimation daemon, started in
//! process with `Server::start` (which turns the global recorder on, so
//! these workloads never share a process with the batch jobs) and driven
//! over real HTTP on keep-alive connections by closed-loop clients, since a
//! query optimizer waits for its estimates before it plans.
//!
//! * `serve_estimate`: two closed-loop `/estimate` connections, each
//!   pipelining batches of [`BATCH`] requests.
//! * `serve_scraped`: one such `/estimate` connection plus a paced
//!   scraper on its own connection (`/metrics` every tick, `/query` and
//!   `/alerts` now and then) against a short telemetry interval and one
//!   SLO, so TSDB ingest, SLO publishing and alert evaluation all run.

use std::collections::HashMap;
use std::error::Error;
use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use sjpl_core::{
    bops_plot_cross, bops_plot_self, BopsConfig, FitOptions, LawCatalog, PairCountLaw,
};
use sjpl_obs::hist::{bucket_of, bucket_upper_bound};
use sjpl_obs::json::Json;
use sjpl_obs::tsdb::{QueryExpr, Tsdb};
use sjpl_serve::http::{read_request, Response};
use sjpl_serve::{ServeConfig, Server, SloSpec};

use crate::client::{json_number, Conn};
use crate::data::{sub_seed, ServeSets};
use crate::util::{
    allowed_cpus, interquartile_mean, median, ns_per_call, own_cpu_s, pin_thread, quantile,
    same_law, tail_quantile, thread_cpu_s, thread_switches, timed, Ledger, Rng,
};
use crate::SETUP_REPS;

type Res<T> = Result<T, Box<dyn Error>>;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Estimate,
    Scraped,
}

/// Server worker threads, and connections the clients keep open (each
/// keep-alive connection pins one worker).
const WORKERS: usize = 2;
/// `/estimate` requests a client pipelines per round trip: an optimizer
/// asks for the selectivity of each candidate join of a query at once and
/// plans when all have come back. Batches also keep the kernel's loopback
/// path, whose speed on a shared virtual machine swings by up to 1.7× over
/// seconds, from being nearly all of a request's cost.
const BATCH: usize = 8;
/// Requests per connection at set-up, before the first measurement.
const WARMUP_REQUESTS: usize = 500;
/// Untimed traffic with the measured mix before each timed phase.
const WARMUP: Duration = Duration::from_secs(2);
/// Throughput and median latency are taken per window of this length,
/// then the interquartile mean over windows is reported: the host's speed
/// drifts over seconds, and a median would jump between its levels.
const WINDOW_S: f64 = 0.5;
/// The scraper's cadence: one `/metrics` per tick.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// The daemon's telemetry interval in the scraped mix.
const SCRAPED_METRICS_INTERVAL: Duration = Duration::from_millis(250);
const SCRAPED_SLO: &str = "/estimate=50ms@p99,err<1%";
const QUERY_PATH: &str = "/query?expr=rate%28serve.requests%5B10s%5D%29";

struct Setup {
    server: Server,
    /// The catalog as the daemon loaded it, for local expected answers.
    laws: Vec<(String, PairCountLaw)>,
    catalog: LawCatalog,
    conns: Vec<Conn>,
    /// One real `/estimate` response body, for the HTTP write probe.
    sample_body: Vec<u8>,
    /// The CPU each connection's client thread runs on, once
    /// [`pin_pairs`] has put it beside the worker serving it.
    cpus: Vec<Option<usize>>,
}

/// Fits the catalog's eight laws (four self joins, three cross joins, one
/// 16-d self join) and round-trips it through the catalog text format.
fn build_catalog(sets: &ServeSets, ledger: &mut Ledger) -> Res<LawCatalog> {
    let cfg = BopsConfig::default();
    let opts = FitOptions::default();
    let mut catalog = LawCatalog::new();
    let selfs = [
        ("galaxy_dev", &sets.galaxy_dev),
        ("galaxy_exp", &sets.galaxy_exp),
        ("sierpinski", &sets.sierpinski),
        ("streets", &sets.streets),
    ];
    for (name, set) in selfs {
        catalog.insert(
            format!("{name}_self"),
            bops_plot_self(set, &cfg)?.fit(&opts)?,
        );
    }
    let crosses = [
        (
            "galaxy_dev_x_galaxy_exp",
            &sets.galaxy_dev,
            &sets.galaxy_exp,
        ),
        (
            "sierpinski_x_galaxy_dev",
            &sets.sierpinski,
            &sets.galaxy_dev,
        ),
        ("streets_x_galaxy_dev", &sets.streets, &sets.galaxy_dev),
    ];
    for (name, a, b) in crosses {
        catalog.insert(name, bops_plot_cross(a, b, &cfg)?.fit(&opts)?);
    }
    catalog.insert(
        "eigenfaces_self",
        bops_plot_self(&sets.eigenfaces, &BopsConfig::high_dimensional())?.fit(&opts)?,
    );
    let mut bytes = Vec::new();
    catalog.save_writer(&mut bytes)?;
    let loaded = LawCatalog::load_reader(bytes.as_slice())?;
    for (name, law) in catalog.iter() {
        let same = loaded.get(name).is_some_and(|l| same_law(l, law));
        ledger.check(same, || format!("catalog round trip changed law {name}"));
    }
    Ok(loaded)
}

fn server_config(mix: Mix) -> ServeConfig {
    let mut cfg = ServeConfig {
        threads: WORKERS,
        ..ServeConfig::default()
    };
    if mix == Mix::Scraped {
        cfg.metrics_interval = SCRAPED_METRICS_INTERVAL;
        cfg.slos = vec![SloSpec::parse(SCRAPED_SLO).expect("valid SLO literal")];
    }
    cfg
}

fn setup(seed: u64, mix: Mix, ledger: &mut Ledger) -> Res<Setup> {
    let sets = ServeSets::generate(seed);
    let catalog = build_catalog(&sets, ledger)?;
    let laws: Vec<(String, PairCountLaw)> =
        catalog.iter().map(|(n, l)| (n.to_owned(), *l)).collect();
    let served = catalog_copy(&catalog)?;
    let server = Server::start(Arc::new(Mutex::new(served)), server_config(mix))?;
    let mut conns = (0..WORKERS)
        .map(|_| Conn::open(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut sample_body = Vec::new();
    let mut rng = Rng::new(sub_seed(seed, 40));
    for conn in &mut conns {
        for _ in 0..WARMUP_REQUESTS {
            let (status, body) =
                conn.send("POST", "/estimate", &estimate_body(&laws, &mut rng).0)?;
            ledger.op(status == 200, || format!("set-up /estimate -> {status}"));
            sample_body = body;
        }
    }
    Ok(Setup {
        server,
        laws,
        catalog,
        conns,
        sample_body,
        cpus: vec![None; WORKERS],
    })
}

/// Requests per connection that tell which worker serves it.
const PIN_PROBE_REQUESTS: usize = 200;

/// Puts each connection's client thread and the worker serving it on one
/// CPU, connection `i` on the `i`-th allowed CPU. A closed loop hands every
/// batch from one thread to the other: on one CPU that is a context switch,
/// across CPUs a wake-up of the other virtual CPU, whose cost follows the
/// host rather than the program (pinned pairs ran faster and steadier than
/// free ones in paired runs). The worker is the `sjpl-serve-*` thread that
/// switched most while its connection alone carried traffic.
fn pin_pairs(s: &mut Setup, seed: u64, ledger: &mut Ledger) -> Res<()> {
    let cpus = allowed_cpus();
    let mut rng = Rng::new(sub_seed(seed, 41));
    let mut taken = Vec::new();
    for i in 0..s.conns.len() {
        let before = thread_switches("sjpl-serve-");
        for _ in 0..PIN_PROBE_REQUESTS {
            let (status, _) =
                s.conns[i].send("POST", "/estimate", &estimate_body(&s.laws, &mut rng).0)?;
            ledger.op(status == 200, || format!("pinning /estimate -> {status}"));
        }
        let worker = thread_switches("sjpl-serve-")
            .into_iter()
            .filter(|(tid, _)| !taken.contains(tid))
            .map(|(tid, n)| {
                let n0 = before.iter().find(|b| b.0 == tid).map_or(0, |b| b.1);
                (n - n0, tid)
            })
            .max()
            .ok_or("no sjpl-serve worker thread found")?;
        let cpu = cpus[i % cpus.len()];
        if pin_thread(worker.1, cpu) {
            taken.push(worker.1);
            s.cpus[i] = Some(cpu);
            ledger.note(format!(
                "  conn {i}: client and worker thread {} pinned to CPU {cpu}",
                worker.1
            ));
        } else {
            ledger.note(format!("  conn {i}: pinning refused; threads left free"));
        }
    }
    Ok(())
}

/// Waits until the telemetry thread has ingested the series the scraper
/// queries, so no measured `/query` can 404. Untimed: how long it waits
/// depends on the ingest tick's phase, not on the program's work.
fn wait_for_first_ingest(s: &mut Setup) -> Res<()> {
    let t0 = Instant::now();
    loop {
        s.conns[1].get("/metrics")?;
        if s.conns[1].get(QUERY_PATH)?.0 == 200 || t0.elapsed() > Duration::from_secs(5) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn catalog_copy(c: &LawCatalog) -> Res<LawCatalog> {
    let mut bytes = Vec::new();
    c.save_writer(&mut bytes)?;
    Ok(LawCatalog::load_reader(bytes.as_slice())?)
}

fn shutdown(s: Setup) {
    // Closing the connections first frees the workers they pin.
    drop(s.conns);
    s.server.shutdown();
}

/// A seeded `/estimate` body: a random law, and a log-uniform radius over
/// four times the fitted window on each side, so about a quarter of the
/// radii are extrapolations. Returns the body and the expected answer.
fn estimate_body(laws: &[(String, PairCountLaw)], rng: &mut Rng) -> (String, f64) {
    let (name, law) = &laws[rng.below(laws.len())];
    let (lo, hi) = ((law.fit.x_lo / 4.0).ln(), (law.fit.x_hi * 4.0).ln());
    let radius = (lo + rng.unit() * (hi - lo)).exp();
    (
        format!("{{\"law\": \"{name}\", \"radius\": {radius}}}"),
        law.pair_count(radius),
    )
}

/// Requests of one connection: counts plus `(completion offset s,
/// latency)` samples.
#[derive(Default)]
struct ConnStats {
    sent: u64,
    ok: u64,
    /// 200 responses whose answer failed the output check.
    wrong: u64,
    failures: Vec<String>,
    /// Complete responses received, whatever their status.
    received: u64,
    samples: Vec<(f64, f64)>,
    /// CPU seconds the client thread spent.
    cpu_s: f64,
}

impl ConnStats {
    fn fail(&mut self, msg: String) {
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    fn failed(&self) -> u64 {
        self.sent - self.ok
    }
}

/// Closed loop of `/estimate` batches until `end`: [`BATCH`] requests
/// pipelined in one write, then every response read before the next batch.
/// Each answer is checked against the local law; each latency runs from the
/// batch's write to that response's arrival.
fn estimate_loop(
    conn: &mut Conn,
    laws: &[(String, PairCountLaw)],
    mut rng: Rng,
    start: Instant,
    end: Instant,
) -> ConnStats {
    // Room for the samples up front: a growing buffer would make the peak
    // resident set follow the request rate in power-of-two steps.
    let mut st = ConnStats {
        samples: Vec::with_capacity(end.duration_since(start).as_secs() as usize * 100_000),
        ..ConnStats::default()
    };
    let cpu0 = own_cpu_s();
    let mut bodies = Vec::with_capacity(BATCH);
    let mut expected = Vec::with_capacity(BATCH);
    'batches: while Instant::now() < end {
        bodies.clear();
        expected.clear();
        for _ in 0..BATCH {
            let (body, expect) = estimate_body(laws, &mut rng);
            bodies.push(body);
            expected.push(expect);
        }
        let t0 = Instant::now();
        st.sent += BATCH as u64;
        let mut sent = conn.post_pipelined("/estimate", &bodies);
        for (body, expect) in bodies.iter().zip(&expected) {
            match sent.and_then(|()| conn.read_response()) {
                Ok((status, resp)) => {
                    let done = Instant::now();
                    st.received += 1;
                    let got = json_number(&resp, "pair_count");
                    if status != 200 {
                        st.fail(format!("{body} -> status {status}"));
                    } else if got.map(f64::to_bits) != Some(expect.to_bits()) {
                        st.wrong += 1;
                        st.fail(format!("{body} -> pair_count {got:?}, expected {expect}"));
                    } else {
                        st.ok += 1;
                        st.samples.push((
                            done.duration_since(start).as_secs_f64(),
                            done.duration_since(t0).as_secs_f64() * 1e6,
                        ));
                    }
                    sent = Ok(());
                }
                Err(e) => {
                    // The rest of the batch is lost with the connection.
                    st.fail(format!("{body} -> transport error {e}"));
                    if let Err(e) = conn.reopen() {
                        st.fail(format!("reconnect failed: {e}"));
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    continue 'batches;
                }
            }
        }
    }
    st.cpu_s = own_cpu_s() - cpu0;
    st
}

/// The paced scraper's requests and schedule lateness.
#[derive(Default)]
struct ScrapeStats {
    conn: ConnStats,
    scrape_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    bytes: Vec<f64>,
}

/// One `/metrics` per tick on a fixed schedule, with a `/query` and an
/// `/alerts` call every tenth tick. Lateness is measured against the
/// schedule, so a stalled scraper shows as lag rather than as speed.
fn scrape_loop(conn: &mut Conn, start: Instant, end: Instant) -> ScrapeStats {
    let mut st = ScrapeStats::default();
    for tick in 0u32.. {
        let due = start + SCRAPE_EVERY * tick;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        st.lag_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let mut paths = vec!["/metrics"];
        match tick % 10 {
            3 => paths.push(QUERY_PATH),
            8 => paths.push("/alerts"),
            _ => {}
        }
        for path in paths {
            let t0 = Instant::now();
            st.conn.sent += 1;
            match conn.get(path) {
                Ok((status, body)) => {
                    st.conn.received += 1;
                    if status == 200 {
                        st.conn.ok += 1;
                        if path == "/metrics" {
                            st.scrape_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            st.bytes.push(body.len() as f64);
                        }
                    } else {
                        st.conn.fail(format!("GET {path} -> status {status}"));
                    }
                }
                Err(e) => {
                    st.conn.fail(format!("GET {path} -> transport error {e}"));
                    let _ = conn.reopen();
                }
            }
        }
    }
    st
}

/// The daemon's `serve.requests` counter as `/metrics` exposes it.
fn requests_counter(conn: &mut Conn) -> Res<u64> {
    let (status, body) = conn.get("/metrics")?;
    let text = String::from_utf8(body)?;
    let value = text
        .lines()
        .find_map(|l| l.strip_prefix("sjpl_serve_requests "))
        .and_then(|v| v.trim().parse().ok());
    // A counter nothing has incremented yet (right after a registry
    // reset) is absent from the exposition.
    match status {
        200 => Ok(value.unwrap_or(0)),
        _ => Err(format!("GET /metrics -> {status}").into()),
    }
}

/// Figures of one measurement phase.
struct Phase {
    estimates: Vec<ConnStats>,
    scraper: Option<ScrapeStats>,
    secs: f64,
}

impl Phase {
    fn samples(&self) -> Vec<(f64, f64)> {
        self.estimates
            .iter()
            .flat_map(|c| c.samples.iter().copied())
            .collect()
    }

    /// Samples split into windows of [`WINDOW_S`] by completion time.
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut per = vec![Vec::new(); ((self.secs / WINDOW_S) as usize).max(1)];
        for (t, lat) in self.samples() {
            if let Some(w) = per.get_mut((t / WINDOW_S) as usize) {
                w.push(lat);
            }
        }
        per
    }

    /// Completed `/estimate` requests per second: the interquartile mean
    /// over windows.
    fn rps(&self) -> f64 {
        let counts: Vec<f64> = self.windows().iter().map(|w| w.len() as f64).collect();
        interquartile_mean(&counts) / WINDOW_S
    }

    /// Client-side `/estimate` median latency: the interquartile mean over
    /// windows of each window's median.
    fn p50_us(&self) -> f64 {
        let p50s: Vec<f64> = self
            .windows()
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(w))
            .collect();
        interquartile_mean(&p50s)
    }

    fn completed(&self) -> u64 {
        self.estimates.iter().map(|c| c.ok).sum()
    }
}

fn pin_self(cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        pin_thread(0, cpu);
    }
}

/// Runs the mix's clients for `d` and checks the daemon's request counter
/// against the responses the clients received.
fn measure(
    s: &mut Setup,
    mix: Mix,
    phase: &str,
    d: Duration,
    seed: u64,
    ledger: &mut Ledger,
) -> Res<Phase> {
    let before = requests_counter(&mut s.conns[0])?;
    let start = Instant::now();
    let end = start + d;
    let laws = &s.laws;
    let cpus = &s.cpus;
    let (est_conns, scrape_conn) = match mix {
        Mix::Estimate => (&mut s.conns[..], None),
        Mix::Scraped => {
            let (a, b) = s.conns.split_at_mut(1);
            (a, Some(&mut b[0]))
        }
    };
    let (estimates, scraper) = std::thread::scope(|scope| {
        let handles: Vec<_> = est_conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let rng = Rng::new(sub_seed(seed, 50 + i as u64));
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn_scoped(scope, move || {
                        pin_self(cpus[i]);
                        estimate_loop(conn, laws, rng, start, end)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        let scraper = scrape_conn.map(|conn| {
            std::thread::Builder::new()
                .name("bench-scraper".to_owned())
                .spawn_scoped(scope, move || {
                    pin_self(cpus[1]);
                    scrape_loop(conn, start, end)
                })
                .expect("spawn scraper thread")
        });
        let estimates: Vec<ConnStats> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (
            estimates,
            scraper.map(|h| h.join().expect("scraper thread panicked")),
        )
    });
    let secs = start.elapsed().as_secs_f64().min(d.as_secs_f64());
    let after = requests_counter(&mut s.conns[0])?;
    let received: u64 = estimates.iter().map(|c| c.received).sum::<u64>()
        + scraper.as_ref().map_or(0, |sc| sc.conn.received);
    let counted = after.saturating_sub(before);
    ledger.check(counted > received, || {
        format!("/metrics counted {counted} requests, clients received {received} responses")
    });
    for (i, c) in estimates.iter().enumerate() {
        ledger.absorb(c.sent, c.failed(), c.wrong, c.failures.clone());
        ledger.note(format!(
            "  {phase} conn {i} /estimate: sent {} succeeded {} failed {} (wrong answers {})",
            c.sent,
            c.ok,
            c.failed(),
            c.wrong
        ));
    }
    if let Some(sc) = &scraper {
        ledger.absorb(sc.conn.sent, sc.conn.failed(), 0, sc.conn.failures.clone());
        ledger.note(format!(
            "  {phase} scraper conn: sent {} succeeded {} failed {}; scraper.lag_ms median {:.3} max {:.3}",
            sc.conn.sent,
            sc.conn.ok,
            sc.conn.failed(),
            median(&sc.lag_ms),
            sc.lag_ms.iter().copied().fold(0.0, f64::max)
        ));
    }
    Ok(Phase {
        estimates,
        scraper,
        secs,
    })
}

fn report(phase: &Phase, mix: Mix, label: &str, ledger: &mut Ledger) {
    let lat: Vec<f64> = phase.samples().iter().map(|s| s.1).collect();
    let (tail, tail_label) = tail_quantile(&lat);
    let mut line = format!(
        "{label}: estimate_rps = {:.1} req/s, estimate_p50_us = {:.2} us, estimate_{tail_label}_us = {tail:.2} us over {} requests",
        phase.rps(),
        phase.p50_us(),
        lat.len()
    );
    if let Some(sc) = &phase.scraper {
        line += &format!(
            ", scrape_p50_ms = {:.4} ms over {} scrapes",
            median(&sc.scrape_ms),
            sc.scrape_ms.len()
        );
    }
    if mix == Mix::Estimate {
        line += " (no scraper)";
    }
    ledger.note(line);
}

pub fn run(seed: u64, seconds: u64, trace: bool, mix: Mix) -> Res<Ledger> {
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::new();
    let s = timed_setups(seed, mix, &mut setup_s, &mut ledger)?;
    measure_and_report(s, seed, seconds, trace, mix, &mut ledger)?;
    // Set-ups timed at both ends of the run: the host's speed drifts over
    // seconds, and one burst of set-ups samples only one state of it.
    shutdown(timed_setups(seed, mix, &mut setup_s, &mut ledger)?);
    ledger.metric("setup_s", median(&setup_s), "s");
    ledger.finish_common();
    Ok(ledger)
}

/// [`SETUP_REPS`] timed set-ups, each server shut down before the next
/// starts; returns the last.
fn timed_setups(seed: u64, mix: Mix, setup_s: &mut Vec<f64>, ledger: &mut Ledger) -> Res<Setup> {
    let mut s = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = s.take() {
            shutdown(prev);
        }
        let (built, secs) = timed(|| setup(seed, mix, ledger));
        s = Some(built?);
        setup_s.push(secs);
    }
    Ok(s.expect("SETUP_REPS > 0"))
}

/// Warms the server up, measures it (untraced, or half untraced and half
/// traced) and shuts it down.
fn measure_and_report(
    mut s: Setup,
    seed: u64,
    seconds: u64,
    trace: bool,
    mix: Mix,
    ledger: &mut Ledger,
) -> Res<()> {
    pin_pairs(&mut s, seed, ledger)?;
    if mix == Mix::Scraped {
        wait_for_first_ingest(&mut s)?;
    }
    let name = match mix {
        Mix::Estimate => "serve_estimate",
        Mix::Scraped => "serve_scraped",
    };

    // Untimed warm-up with the measured mix: the flight-recorder ring and
    // the exposition's histogram buckets fill before timing starts.
    measure(&mut s, mix, "warm-up", WARMUP, sub_seed(seed, 60), ledger)?;
    let total = Duration::from_secs(seconds);
    let plain = measure(
        &mut s,
        mix,
        "measure",
        if trace { total / 2 } else { total },
        seed,
        ledger,
    )?;
    report(&plain, mix, name, ledger);
    if !trace {
        ledger.metric("throughput", plain.rps(), "1/s");
        let median_ms = match &plain.scraper {
            Some(sc) => median(&sc.scrape_ms),
            None => plain.p50_us() / 1e3,
        };
        ledger.metric("median_ms", median_ms, "ms");
        shutdown(s);
        return Ok(());
    }

    // Traced half: a fresh registry, so the daemon's spans cover only the
    // traced warm-up and phase, plus per-thread CPU around the phase.
    sjpl_obs::reset();
    measure(
        &mut s,
        mix,
        "traced warm-up",
        WARMUP,
        sub_seed(seed, 61),
        ledger,
    )?;
    let cpu0 = server_cpu();
    let traced = measure(&mut s, mix, "traced", total / 2, sub_seed(seed, 62), ledger)?;
    let cpu1 = server_cpu();
    // Per-thread CPU over the traced phase (each keep-alive connection
    // pins one worker).
    let delta = |name: &str| {
        cpu1.get(name).copied().unwrap_or(0.0) - cpu0.get(name).copied().unwrap_or(0.0)
    };
    let workers: Vec<f64> = (0..WORKERS)
        .map(|i| delta(&format!("sjpl-serve-{i}")))
        .collect();
    report(&traced, mix, &format!("{name} (traced)"), ledger);
    let (status, snap) = s.conns[0].get("/snapshot")?;
    ledger.op(status == 200, || format!("GET /snapshot -> {status}"));
    let snap = snapshot_spans(std::str::from_utf8(&snap)?)?;
    let rps = traced.rps();
    let p50_us = traced.p50_us();
    let overhead = (plain.rps() - rps) / plain.rps() * 100.0;
    let secs = traced.secs;
    match mix {
        Mix::Estimate => {
            let spans: Vec<f64> = ["serve.read", "serve.request", "serve.write"]
                .iter()
                .map(|n| span_p50_us(&snap, n))
                .collect();
            ledger.metric("serve.read_us", spans[0], "us");
            ledger.metric("serve.request_us", spans[1], "us");
            ledger.metric("serve.write_us", spans[2], "us");
            ledger.metric(
                "serve.unattributed_us",
                p50_us - spans.iter().sum::<f64>(),
                "us",
            );
            let reqs = traced.completed() as f64;
            let clients: f64 = traced.estimates.iter().map(|c| c.cpu_s).sum();
            ledger.metric(
                "serve.worker_cpu_us_per_req",
                workers.iter().sum::<f64>() * 1e6 / reqs,
                "us",
            );
            ledger.metric("client.cpu_us_per_req", clients * 1e6 / reqs, "us");
            let lat: Vec<f64> = traced.samples().iter().map(|s| s.1).collect();
            ledger.metric("e2e.serve_estimate.estimate_rps", rps, "req/s");
            ledger.metric("e2e.serve_estimate.estimate_p50_us", p50_us, "us");
            ledger.metric(
                "e2e.serve_estimate.estimate_p99_us",
                quantile(&lat, 0.99),
                "us",
            );
            ledger.metric("trace.overhead_pct.serve_estimate", overhead, "%");
            request_path_probes(&s, ledger)?;
            shutdown(s);
            recorder_probes(ledger);
        }
        Mix::Scraped => {
            let sc = traced.scraper.as_ref().expect("scraped mix runs a scraper");
            // The worker that served the scraper connection is the one
            // that burned less CPU; the estimate loop keeps the other busy.
            let scrape_worker = workers.iter().copied().fold(f64::INFINITY, f64::min);
            ledger.metric(
                "serve.scraper_cpu_ms_per_s",
                (delta("sjpl-scrape") + scrape_worker) * 1e3 / secs,
                "ms/s",
            );
            ledger.metric("serve.scrape_bytes", median(&sc.bytes), "bytes");
            ledger.metric("serve.scraper.lag_p50_ms", median(&sc.lag_ms), "ms");
            ledger.metric(
                "serve.scraper.lag_max_ms",
                sc.lag_ms.iter().copied().fold(0.0, f64::max),
                "ms",
            );
            ledger.metric("e2e.serve_scraped.estimate_rps", rps, "req/s");
            ledger.metric("e2e.serve_scraped.estimate_p50_us", p50_us, "us");
            ledger.metric(
                "e2e.serve_scraped.scrape_p50_ms",
                median(&sc.scrape_ms),
                "ms",
            );
            ledger.metric("trace.overhead_pct.serve_scraped", overhead, "%");
            read_side_probes(ledger);
            shutdown(s);
        }
    }
    Ok(())
}

/// CPU seconds of the daemon's threads, by thread name.
fn server_cpu() -> HashMap<String, f64> {
    thread_cpu_s()
        .into_iter()
        .filter(|(name, _)| name.starts_with("sjpl-"))
        .collect()
}

/// The `spans` section of a `/snapshot` document, parsed on its own: the
/// whole document carries the flight-recorder timeline, which is large.
fn snapshot_spans(doc: &str) -> Res<Json> {
    let start = doc
        .find("\"spans\": [")
        .ok_or("/snapshot has no spans section")?;
    let end = doc[start..]
        .find("\"counters\": [")
        .ok_or("/snapshot has no counters section")?;
    let section = doc[start..start + end].trim_end().trim_end_matches(',');
    Ok(Json::parse(&format!("{{{section}}}"))?)
}

/// A span's median in microseconds from a `/snapshot` document,
/// interpolated inside its histogram bucket: the document's own `p50_ns` is
/// a bucket bound, which moves in steps of up to 1/16.
fn span_p50_us(snap: &Json, name: &str) -> f64 {
    let buckets: Vec<(u64, f64)> = snap
        .get("spans")
        .and_then(Json::as_array)
        .and_then(|spans| {
            spans
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|s| s.get("hist"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| {
            let pair = b.as_array()?;
            Some((pair.first()?.as_f64()? as u64, pair.get(1)?.as_f64()?))
        })
        .collect();
    let half = buckets.iter().map(|b| b.1).sum::<f64>() / 2.0;
    let mut seen = 0.0;
    for (ub, count) in buckets {
        if seen + count >= half {
            let lo = match bucket_of(ub - 1) {
                0 => 0,
                i => bucket_upper_bound(i - 1),
            };
            return (lo as f64 + (ub - lo) as f64 * (half - seen) / count) / 1e3;
        }
        seen += count;
    }
    0.0
}

/// The request path's layers, timed one call at a time: the law itself,
/// HTTP parse and write, and the catalog format used at set-up.
fn request_path_probes(s: &Setup, ledger: &mut Ledger) -> Res<()> {
    let mut rng = Rng::new(7);
    let queries: Vec<(PairCountLaw, f64)> = (0..1024)
        .map(|_| {
            let (_, law) = &s.laws[rng.below(s.laws.len())];
            (*law, law.fit.x_lo * (1.0 + rng.unit() * 100.0))
        })
        .collect();
    let pc = ns_per_call(9, 100_000, |i| {
        let (law, r) = &queries[i % queries.len()];
        black_box(black_box(law).pair_count(black_box(*r)));
    });
    ledger.metric("core.law.pair_count_ns", pc, "ns");

    let body = estimate_body(&s.laws, &mut rng).0;
    let canned = format!(
        "POST /estimate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let parse = ns_per_call(9, 20_000, |_| {
        let mut r = canned.as_bytes();
        black_box(read_request(&mut r).is_ok());
    });
    ledger.metric("serve.http.parse_ns", parse, "ns");
    let resp = Response::json(s.sample_body.clone())
        .keep_alive(true)
        .with_header("x-request-id", 1);
    let mut out = Vec::with_capacity(1024);
    let write = ns_per_call(9, 20_000, |_| {
        out.clear();
        black_box(resp.write_to(&mut out).is_ok());
    });
    ledger.metric("serve.http.write_ns", write, "ns");

    let mut bytes = Vec::new();
    let save = ns_per_call(9, 50, |_| {
        bytes.clear();
        black_box(s.catalog.save_writer(&mut bytes).is_ok());
    });
    let load = ns_per_call(9, 50, |_| {
        black_box(
            LawCatalog::load_reader(bytes.as_slice())
                .map(|c| c.len())
                .ok(),
        );
    });
    ledger.metric("core.catalog.save_us", save / 1e3, "us");
    ledger.metric("core.catalog.load_us", load / 1e3, "us");
    Ok(())
}

/// Nanoseconds per call of `f` while `threads` threads call it at once:
/// the median over repetitions of the slowest thread's mean.
fn contended(threads: usize, f: impl Fn(usize) + Sync) -> f64 {
    const BATCH: usize = 20_000;
    let barrier = Barrier::new(threads);
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            std::thread::scope(|scope| {
                let hs: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let t0 = Instant::now();
                            for i in 0..BATCH {
                                f(i);
                            }
                            t0.elapsed().as_nanos() as f64 / BATCH as f64
                        })
                    })
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("probe thread"))
                    .fold(0.0, f64::max)
            })
        })
        .collect();
    median(&samples)
}

/// The recorder's write side with the recorder on, as the daemon leaves
/// it, at one and two contending threads.
fn recorder_probes(ledger: &mut Ledger) {
    sjpl_obs::set_enabled(true);
    let series = "bench.probe.named".to_owned();
    for threads in [1, 2] {
        let counter = contended(threads, |_| sjpl_obs::counter_add("bench.probe.counter", 1));
        let named = contended(threads, |i| {
            sjpl_obs::record_ns_named(series.clone(), i as u64)
        });
        let span = contended(threads, |_| {
            drop(black_box(sjpl_obs::span("bench.probe.span")))
        });
        ledger.metric(format!("obs.counter_add_ns.{threads}t"), counter, "ns");
        ledger.metric(format!("obs.record_ns_named_ns.{threads}t"), named, "ns");
        ledger.metric(format!("obs.span_ns.{threads}t"), span, "ns");
    }
}

/// The recorder's read side on the live registry: snapshot, Prometheus
/// render, TSDB ingest and query.
fn read_side_probes(ledger: &mut Ledger) {
    let snapshot = ns_per_call(9, 5, |_| drop(black_box(sjpl_obs::snapshot())));
    let snap = sjpl_obs::snapshot();
    let render = ns_per_call(9, 5, |_| drop(black_box(snap.to_prometheus())));
    let tsdb = Tsdb::new(512);
    let ingest = ns_per_call(9, 5, |i| tsdb.ingest(&snap, 1_000 + 250 * i as u64));
    let q = QueryExpr::parse("rate(serve.requests[10s])").expect("valid query literal");
    let query = ns_per_call(9, 50, |_| drop(black_box(tsdb.query(&q, 1_000 + 250 * 45))));
    ledger.metric("obs.snapshot_us", snapshot / 1e3, "us");
    ledger.metric("obs.prometheus_us", render / 1e3, "us");
    ledger.metric("obs.tsdb_ingest_us", ingest / 1e3, "us");
    ledger.metric("obs.tsdb_query_us", query / 1e3, "us");
}
