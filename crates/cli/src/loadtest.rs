//! `sjpl loadtest` — a deterministic HTTP load harness for the serve
//! daemon, feeding the `sjpl regress` gate.
//!
//! Two driving modes over keep-alive connections:
//!
//! * **closed-loop** (default): `--connections` workers each issue the
//!   next request as soon as the previous response lands — measures the
//!   server's saturated throughput and in-service latency;
//! * **open-loop** (`--rate R`): requests fire on a fixed global schedule
//!   of `R` per second shared by the workers, and latency is measured
//!   from the request's *scheduled* send time, so queueing delay shows up
//!   in the tail instead of being silently absorbed (the coordinated-
//!   omission trap).
//!
//! The endpoint mix (`--mix estimate=8,healthz=1,metrics=1`) is sampled
//! by a seeded RNG (`--seed`), so two runs against the same binary issue
//! the same workload — that is what makes the output comparable across
//! commits. Results go to `BENCH_serve.json`: per-endpoint request
//! counts, error rates, exact p50/p95/p99/p999 latencies (under
//! `summary.series`, where the regress gate reads them as perf series),
//! per-endpoint throughput (under `throughput`, where the gate fails
//! on *decreases*), and client-visible failure rates (under
//! `error_rates`, gated on absolute growth).
//!
//! ## Retries and chaos
//!
//! With `--retries N`, each logical request is retried up to `N` times on
//! transport failure, `429` or `503` — capped exponential backoff with
//! deterministic jitter, honoring the server's `Retry-After` hint. A
//! request counts as a *client-visible failure* only when its final
//! outcome (after retries) is a transport error or a status ≥ 400; the
//! report's `resilience` section and `error_rates` array track exactly
//! those, so the regress gate catches a server whose shedding became
//! un-retryable. `--chaos` additionally interleaves hostile-client acts
//! on throwaway connections — slow-loris header drip, truncated bodies,
//! mid-response aborts, garbage pipelining — which a robust server must
//! absorb without the well-behaved traffic noticing.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};

/// Parsed loadtest parameters.
pub struct LoadtestConfig {
    /// Target server.
    pub addr: SocketAddr,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Worker/connection count (closed-loop concurrency; open-loop senders).
    pub connections: usize,
    /// Open-loop target request rate (requests/second); `None` = closed loop.
    pub rate: Option<f64>,
    /// RNG seed for the workload mix.
    pub seed: u64,
    /// Weighted endpoint mix.
    pub mix: Vec<(Endpoint, u32)>,
    /// Law name `/estimate` requests ask for.
    pub law: String,
    /// Output report path.
    pub out: String,
    /// When set, fetch `/debug/profile` from the target *during* the run
    /// and write the collapsed stacks here — a flamegraph of the server
    /// under exactly this workload.
    pub profile_out: Option<String>,
    /// Retry budget per logical request (0 = no retries). Retries fire on
    /// transport failure, `429` and `503`.
    pub retries: u32,
    /// Interleave hostile-client acts on throwaway connections.
    pub chaos: bool,
    /// When set, write the `/alerts` JSON fetched at the end of the run to
    /// this path (the report's `alerts_fired` rollup is filled either way).
    pub alerts_out: Option<String>,
}

/// The endpoints the harness knows how to exercise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Endpoint {
    /// `POST /estimate`
    Estimate,
    /// `GET /healthz`
    Healthz,
    /// `GET /readyz`
    Readyz,
    /// `GET /metrics`
    Metrics,
    /// `GET /snapshot`
    Snapshot,
    /// `GET /timeline`
    Timeline,
}

impl Endpoint {
    fn label(self) -> &'static str {
        match self {
            Endpoint::Estimate => "estimate",
            Endpoint::Healthz => "healthz",
            Endpoint::Readyz => "readyz",
            Endpoint::Metrics => "metrics",
            Endpoint::Snapshot => "snapshot",
            Endpoint::Timeline => "timeline",
        }
    }

    const ALL: &'static [Endpoint] = &[
        Endpoint::Estimate,
        Endpoint::Healthz,
        Endpoint::Readyz,
        Endpoint::Metrics,
        Endpoint::Snapshot,
        Endpoint::Timeline,
    ];
}

/// Parses `--mix estimate=8,healthz=1`: comma-separated `endpoint=weight`.
pub fn parse_mix(s: &str) -> Result<Vec<(Endpoint, u32)>, String> {
    let mut mix = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, weight) = part
            .split_once('=')
            .ok_or_else(|| format!("bad mix entry {part:?} (use endpoint=weight)"))?;
        let ep = Endpoint::ALL
            .iter()
            .copied()
            .find(|e| e.label() == name.trim())
            .ok_or_else(|| {
                format!(
                    "unknown endpoint {name:?} in --mix (use {})",
                    Endpoint::ALL
                        .iter()
                        .map(|e| e.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
        let w: u32 = weight
            .trim()
            .parse()
            .map_err(|_| format!("bad weight {weight:?} in --mix"))?;
        if w > 0 {
            mix.push((ep, w));
        }
    }
    if mix.is_empty() {
        return Err(format!("mix {s:?} selects no endpoints"));
    }
    Ok(mix)
}

/// The default workload: estimate-heavy with scrape background noise,
/// mirroring what a live deployment sees.
pub fn default_mix() -> Vec<(Endpoint, u32)> {
    vec![
        (Endpoint::Estimate, 8),
        (Endpoint::Healthz, 1),
        (Endpoint::Metrics, 1),
    ]
}

/// One worker's tally for one endpoint.
#[derive(Default, Clone)]
struct EndpointTally {
    /// Latencies of requests whose *final* attempt got an HTTP response, ns.
    latencies_ns: Vec<u64>,
    /// Final responses with status >= 400 (after retries).
    errors: u64,
    /// Logical requests that died below HTTP even after retries.
    transport_failed: u64,
}

/// Retry/shed/chaos bookkeeping, summed across workers.
#[derive(Default, Clone, Copy)]
struct Resilience {
    /// Retry attempts performed.
    retries: u64,
    /// `429 Too Many Requests` responses seen (any attempt).
    shed_responses: u64,
    /// Shed responses missing the `Retry-After` header — must stay 0.
    shed_missing_retry_after: u64,
    /// Hostile-client acts performed (`--chaos`).
    chaos_acts: u64,
}

/// One worker's full result set.
#[derive(Default)]
struct WorkerTally {
    per_endpoint: Vec<(&'static str, EndpointTally)>,
    /// Attempts that died below HTTP (connect/read/write failure, timeout).
    transport_errors: u64,
    resilience: Resilience,
}

impl WorkerTally {
    fn endpoint(&mut self, label: &'static str) -> &mut EndpointTally {
        if let Some(i) = self.per_endpoint.iter().position(|(l, _)| *l == label) {
            return &mut self.per_endpoint[i].1;
        }
        self.per_endpoint.push((label, EndpointTally::default()));
        &mut self.per_endpoint.last_mut().unwrap().1
    }
}

/// A keep-alive client connection that frames responses by Content-Length.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends raw request bytes and reads one framed response; returns the
    /// status code and the `Retry-After` header value (seconds), if any.
    fn roundtrip(&mut self, raw: &[u8]) -> std::io::Result<(u16, Option<u64>)> {
        self.writer.write_all(raw)?;
        let mut status = 0u16;
        let mut content_length: Option<usize> = None;
        let mut retry_after: Option<u64> = None;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            let t = line.trim_end();
            if status == 0 {
                status = t
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or(ErrorKind::InvalidData)?;
                continue;
            }
            if t.is_empty() {
                break;
            }
            let lower = t.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v.trim().parse().ok();
            } else if let Some(v) = lower.strip_prefix("retry-after:") {
                retry_after = v.trim().parse().ok();
            }
        }
        let len = content_length.ok_or(ErrorKind::InvalidData)?;
        // Drain the body without allocating for it.
        std::io::copy(
            &mut (&mut self.reader).take(len as u64),
            &mut std::io::sink(),
        )?;
        Ok((status, retry_after))
    }
}

/// Delay before retry number `attempt` (0-based): honor the server's
/// `Retry-After` hint when present (capped so short runs stay short),
/// otherwise capped exponential backoff with deterministic half-jitter —
/// same seed, same retry schedule.
fn backoff_delay(
    attempt: u32,
    retry_after_s: Option<u64>,
    rng: &mut rand::rngs::StdRng,
) -> Duration {
    const CAP_MS: u64 = 160;
    if let Some(secs) = retry_after_s {
        return Duration::from_millis(secs.saturating_mul(1000).min(250));
    }
    let exp = 5u64.saturating_mul(1u64 << attempt.min(5)); // 5, 10, 20, 40, 80, 160
    let cap = exp.min(CAP_MS);
    let jitter = rng.gen_range(0..=cap / 2);
    Duration::from_millis(cap - cap / 2 + jitter)
}

/// One hostile-client act on a throwaway connection. The server must shrug
/// these off fast (bounded by its IO timeout) without poisoning the worker
/// slot serving them; any outcome — error response, close, timeout — is
/// acceptable to this client, so nothing here is an assertion.
fn chaos_act(addr: SocketAddr, rng: &mut rand::rngs::StdRng) {
    let kind = rng.gen_range(0..4u32);
    let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
        return;
    };
    let _ = s.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
    match kind {
        // Slow-loris: drip half a request line byte by byte, then vanish.
        0 => {
            for b in b"GET /met" {
                if s.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Truncated body: promise 100 bytes, deliver 9, hang up.
        1 => {
            let _ = s.write_all(
                b"POST /estimate HTTP/1.1\r\nHost: l\r\nContent-Length: 100\r\n\r\n{\"law\": \"",
            );
        }
        // Mid-response abort: ask, read a few bytes, slam the door.
        2 => {
            if s.write_all(b"GET /metrics HTTP/1.1\r\nHost: l\r\n\r\n")
                .is_ok()
            {
                let mut buf = [0u8; 16];
                let _ = s.read(&mut buf);
            }
        }
        // Garbage pipelining: bytes that never were HTTP.
        _ => {
            let _ = s.write_all(b"\x16\x03\x01\x02\x00garbage\r\n\r\n\r\njunk");
        }
    }
    drop(s);
}

/// One-shot GET that returns the response body — used for the mid-run
/// `/debug/profile` fetch (which, unlike the workload requests, needs the
/// body, and whose response is delayed by the profiling window itself),
/// the end-of-run `/alerts` fetch, and the `sjpl dash` frame loop.
pub(crate) fn fetch_body(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> std::io::Result<String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(format!("GET {target} HTTP/1.1\r\nHost: l\r\n\r\n").as_bytes())?;
    let mut status = 0u16;
    let mut content_length: Option<usize> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        let t = line.trim_end();
        if status == 0 {
            status = t
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or(ErrorKind::InvalidData)?;
            continue;
        }
        if t.is_empty() {
            break;
        }
        if let Some(v) = t
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .map(str::to_owned)
        {
            content_length = v.parse().ok();
        }
    }
    if status != 200 {
        return Err(std::io::Error::other(format!("{target} returned {status}")));
    }
    let len = content_length.ok_or(ErrorKind::InvalidData)?;
    let mut body = String::with_capacity(len);
    (&mut reader).take(len as u64).read_to_string(&mut body)?;
    Ok(body)
}

/// Builds the raw request bytes for one sampled endpoint.
fn build_request(ep: Endpoint, law: &str, rng: &mut rand::rngs::StdRng) -> Vec<u8> {
    match ep {
        Endpoint::Estimate => {
            let radius = rng.gen_range(0.01..0.2f64);
            let body = format!("{{\"law\": \"{law}\", \"radius\": {radius}}}");
            format!(
                "POST /estimate HTTP/1.1\r\nHost: l\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        }
        _ => format!("GET /{} HTTP/1.1\r\nHost: l\r\n\r\n", ep.label()).into_bytes(),
    }
}

/// Picks one endpoint from the weighted mix.
fn pick(mix: &[(Endpoint, u32)], rng: &mut rand::rngs::StdRng) -> Endpoint {
    let total: u32 = mix.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for &(ep, w) in mix {
        if roll < w {
            return ep;
        }
        roll -= w;
    }
    mix[0].0
}

/// Runs the load and writes the report. Returns a one-line human summary.
pub fn run(cfg: &LoadtestConfig) -> Result<String, String> {
    // Probe once up front so a dead target is a clean error, not a report
    // full of transport errors.
    Conn::open(cfg.addr).map_err(|e| format!("cannot connect to {}: {e}", cfg.addr))?;

    let start = Instant::now();
    let deadline = start + cfg.duration;
    // Open-loop: workers pull send slots off one shared schedule.
    let schedule = AtomicU64::new(0);

    let (tallies, profile_fetched) = std::thread::scope(|s| {
        // The profile fetch runs concurrently with the workload so the
        // collapsed stacks show the server *under this load*, not idle.
        let profiler = cfg.profile_out.as_ref().map(|out| {
            let secs = (cfg.duration.as_secs_f64() * 0.8).clamp(0.1, 3.0);
            let target = format!("/debug/profile?seconds={secs:.3}");
            let timeout = Duration::from_secs_f64(secs + 10.0);
            let addr = cfg.addr;
            s.spawn(move || -> Result<(String, String), String> {
                let body = fetch_body(addr, &target, timeout)
                    .map_err(|e| format!("profile fetch failed: {e}"))?;
                Ok((out.clone(), body))
            })
        });
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|worker| {
                let schedule = &schedule;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(
                        cfg.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut tally = WorkerTally::default();
                    let mut conn: Option<Conn> = None;
                    loop {
                        // When did this request become due?
                        let due = match cfg.rate {
                            None => Instant::now(),
                            Some(rate) => {
                                let k = schedule.fetch_add(1, Ordering::Relaxed);
                                let due = start + Duration::from_secs_f64(k as f64 / rate);
                                if due >= deadline {
                                    break;
                                }
                                if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(sleep);
                                }
                                due
                            }
                        };
                        if Instant::now() >= deadline {
                            break;
                        }
                        // A chaos act is *extra* misbehavior on a throwaway
                        // connection; the logical request still follows.
                        if cfg.chaos && rng.gen_range(0..8u32) == 0 {
                            tally.resilience.chaos_acts += 1;
                            chaos_act(cfg.addr, &mut rng);
                        }
                        let ep = pick(&cfg.mix, &mut rng);
                        let raw = build_request(ep, &cfg.law, &mut rng);
                        // One logical request = up to 1 + retries attempts.
                        let mut attempt: u32 = 0;
                        loop {
                            // Would-retry outcomes land here; `true` means a
                            // retry slot was available and the backoff slept.
                            let mut retry = |tally: &mut WorkerTally,
                                             rng: &mut rand::rngs::StdRng,
                                             hint: Option<u64>|
                             -> bool {
                                if attempt >= cfg.retries {
                                    return false;
                                }
                                let delay = backoff_delay(attempt, hint, rng);
                                attempt += 1;
                                tally.resilience.retries += 1;
                                if Instant::now() + delay >= deadline {
                                    return false;
                                }
                                std::thread::sleep(delay);
                                true
                            };
                            let c = match conn {
                                Some(ref mut c) => c,
                                None => match Conn::open(cfg.addr) {
                                    Ok(c) => conn.insert(c),
                                    Err(_) => {
                                        tally.transport_errors += 1;
                                        if retry(&mut tally, &mut rng, None) {
                                            continue;
                                        }
                                        tally.endpoint(ep.label()).transport_failed += 1;
                                        break;
                                    }
                                },
                            };
                            match c.roundtrip(&raw) {
                                Ok((status, retry_after)) => {
                                    if status == 429 {
                                        tally.resilience.shed_responses += 1;
                                        if retry_after.is_none() {
                                            tally.resilience.shed_missing_retry_after += 1;
                                        }
                                    }
                                    if (status == 429 || status == 503)
                                        && retry(&mut tally, &mut rng, retry_after)
                                    {
                                        continue;
                                    }
                                    // Open loop: latency from the scheduled
                                    // send, so server-side queueing (and any
                                    // retries) is charged to the request that
                                    // suffered it.
                                    let lat = due.elapsed().as_nanos() as u64;
                                    let t = tally.endpoint(ep.label());
                                    t.latencies_ns.push(lat);
                                    if status >= 400 {
                                        t.errors += 1;
                                    }
                                    break;
                                }
                                Err(_) => {
                                    tally.transport_errors += 1;
                                    conn = None; // reconnect before any retry
                                    if retry(&mut tally, &mut rng, None) {
                                        continue;
                                    }
                                    tally.endpoint(ep.label()).transport_failed += 1;
                                    break;
                                }
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        let tallies: Vec<WorkerTally> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (tallies, profiler.map(|h| h.join().unwrap()))
    });
    let wall = start.elapsed();

    // A failed profile fetch degrades the report, not the run: warn and
    // keep going (the target may be an older daemon without /debug/profile).
    let mut profile_note = String::new();
    if let Some(fetched) = profile_fetched {
        match fetched {
            Ok((path, body)) => {
                std::fs::write(&path, body.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
                profile_note = format!(", profile -> {path}");
            }
            Err(e) => eprintln!("note: {e} (is the target serving /debug/profile?)"),
        }
    }

    // Merge workers.
    let mut merged: Vec<(&'static str, EndpointTally)> = Vec::new();
    let mut transport_errors = 0u64;
    let mut resilience = Resilience::default();
    for w in tallies {
        transport_errors += w.transport_errors;
        resilience.retries += w.resilience.retries;
        resilience.shed_responses += w.resilience.shed_responses;
        resilience.shed_missing_retry_after += w.resilience.shed_missing_retry_after;
        resilience.chaos_acts += w.resilience.chaos_acts;
        for (label, t) in w.per_endpoint {
            match merged.iter_mut().find(|(l, _)| *l == label) {
                Some((_, m)) => {
                    m.latencies_ns.extend_from_slice(&t.latencies_ns);
                    m.errors += t.errors;
                    m.transport_failed += t.transport_failed;
                }
                None => merged.push((label, t)),
            }
        }
    }
    merged.sort_by_key(|(l, _)| *l);
    let total_requests: u64 = merged
        .iter()
        .map(|(_, t)| t.latencies_ns.len() as u64)
        .sum();
    if total_requests == 0 {
        return Err("loadtest issued no successful requests (all transport errors?)".to_owned());
    }

    // End-of-run alert rollup: which of the daemon's alert rules fired
    // while (or before) the workload ran. An older daemon without /alerts
    // degrades to an empty rollup rather than a failed run — unless the
    // caller explicitly asked for the file with --alerts-out.
    let mut alerts_fired: Vec<(String, String)> = Vec::new();
    let mut alerts_note = String::new();
    match fetch_body(cfg.addr, "/alerts", Duration::from_secs(5)) {
        Ok(body) => {
            if let Some(path) = &cfg.alerts_out {
                std::fs::write(path, body.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
                alerts_note = format!(", alerts -> {path}");
            }
            alerts_fired = parse_alerts_fired(&body);
        }
        Err(e) if cfg.alerts_out.is_some() => {
            return Err(format!("alerts fetch failed: {e}"));
        }
        Err(e) => eprintln!("note: alerts fetch failed: {e} (is the target serving /alerts?)"),
    }

    let report = render_report(
        cfg,
        wall,
        &mut merged,
        transport_errors,
        total_requests,
        &resilience,
        &alerts_fired,
    );
    std::fs::write(&cfg.out, report.as_bytes()).map_err(|e| format!("{}: {e}", cfg.out))?;

    let total_errors: u64 = merged.iter().map(|(_, t)| t.errors).sum();
    let total_failed: u64 = merged
        .iter()
        .map(|(_, t)| t.errors + t.transport_failed)
        .sum();
    Ok(format!(
        "loadtest: {total_requests} requests in {wall:.2?} \
         ({:.0} req/s, {total_errors} HTTP errors, {transport_errors} transport errors, \
         {} retries, {total_failed} client-visible failures, {} alert(s) fired) \
         -> {}{profile_note}{alerts_note}",
        total_requests as f64 / wall.as_secs_f64(),
        resilience.retries,
        alerts_fired.len(),
        cfg.out
    ))
}

/// Extracts `(name, state)` of every rule that has fired — currently
/// firing or already resolved — from an `/alerts` response body. Pending
/// and inactive rules are not "fired".
fn parse_alerts_fired(body: &str) -> Vec<(String, String)> {
    let Ok(doc) = sjpl_obs::json::Json::parse(body) else {
        return Vec::new();
    };
    let Some(items) = doc.get("alerts").and_then(sjpl_obs::json::Json::as_array) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|a| {
            let name = a.get("name")?.as_str()?.to_owned();
            let state = a.get("state")?.as_str()?.to_owned();
            (state == "firing" || state == "resolved").then_some((name, state))
        })
        .collect()
}

/// Exact quantile of a sorted latency array (nearest-rank).
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn render_report(
    cfg: &LoadtestConfig,
    wall: Duration,
    merged: &mut [(&'static str, EndpointTally)],
    transport_errors: u64,
    total_requests: u64,
    resilience: &Resilience,
    alerts_fired: &[(String, String)],
) -> String {
    use std::fmt::Write as _;
    let secs = wall.as_secs_f64();
    let mut series = String::new();
    let mut throughput = String::new();
    let mut endpoints = String::new();
    let mut error_rates = String::new();
    for (i, (label, t)) in merged.iter_mut().enumerate() {
        t.latencies_ns.sort_unstable();
        let n = t.latencies_ns.len() as u64;
        let rps = n as f64 / secs;
        let mean = t.latencies_ns.iter().sum::<u64>() as f64 / n.max(1) as f64;
        let (p50, p95, p99, p999) = (
            quantile_ns(&t.latencies_ns, 0.50),
            quantile_ns(&t.latencies_ns, 0.95),
            quantile_ns(&t.latencies_ns, 0.99),
            quantile_ns(&t.latencies_ns, 0.999),
        );
        // Quantiles as perf series: `mean_ns` is the key the regress gate
        // compares, so tail growth beyond the threshold fails CI.
        for (qname, v) in [("p50", p50), ("p95", p95), ("p99", p99), ("p999", p999)] {
            let _ = write!(
                series,
                "{}      {{\"name\": \"serve/{label}/{qname}\", \"mean_ns\": {v}}}",
                if series.is_empty() { "" } else { ",\n" }
            );
        }
        let _ = write!(
            throughput,
            "{}    {{\"name\": \"serve/{label}\", \"rps\": {rps:.2}}}",
            if i == 0 { "" } else { ",\n" }
        );
        let _ = write!(
            endpoints,
            "{}    {{\"endpoint\": \"{label}\", \"requests\": {n}, \"errors\": {}, \
             \"error_rate\": {:.6}, \"rps\": {rps:.2}, \"mean_ns\": {mean:.0}, \
             \"p50_ns\": {p50}, \"p95_ns\": {p95}, \"p99_ns\": {p99}, \"p999_ns\": {p999}}}",
            if i == 0 { "" } else { ",\n" },
            t.errors,
            t.errors as f64 / n.max(1) as f64,
        );
        // Client-visible failure rate: a request only counts against this
        // after its retries are spent, and transport deaths count too.
        let logical = n + t.transport_failed;
        let _ = write!(
            error_rates,
            "{}    {{\"name\": \"serve/{label}\", \"error_rate\": {:.6}}}",
            if i == 0 { "" } else { ",\n" },
            (t.errors + t.transport_failed) as f64 / logical.max(1) as f64,
        );
    }
    let total_rps = total_requests as f64 / secs;
    let _ = write!(
        throughput,
        ",\n    {{\"name\": \"serve/total\", \"rps\": {total_rps:.2}}}"
    );
    let failed_requests: u64 = merged
        .iter()
        .map(|(_, t)| t.errors + t.transport_failed)
        .sum();
    let total_logical: u64 =
        total_requests + merged.iter().map(|(_, t)| t.transport_failed).sum::<u64>();
    let failure_rate = failed_requests as f64 / total_logical.max(1) as f64;
    let _ = write!(
        error_rates,
        ",\n    {{\"name\": \"serve/total\", \"error_rate\": {failure_rate:.6}}}"
    );
    let mix: Vec<String> = cfg
        .mix
        .iter()
        .map(|(e, w)| format!("{}={w}", e.label()))
        .collect();
    let alerts: String = alerts_fired
        .iter()
        .enumerate()
        .map(|(i, (name, state))| {
            let name = name.replace('\\', "\\\\").replace('"', "\\\"");
            format!(
                "{}    {{\"name\": \"{name}\", \"state\": \"{state}\"}}",
                if i == 0 { "" } else { ",\n" }
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": 1,\n  \"kind\": \"serve-loadtest\",\n  \"meta\": {{\n    \
         \"addr\": \"{addr}\",\n    \"duration_s\": {dur:.3},\n    \
         \"connections\": {conns},\n    \"rate\": {rate},\n    \"seed\": {seed},\n    \
         \"mix\": \"{mix}\",\n    \"law\": \"{law}\",\n    \
         \"retries\": {retries},\n    \"chaos\": {chaos}\n  }},\n  \
         \"summary\": {{\"schema\": 1, \"series\": [\n{series}\n  ]}},\n  \
         \"throughput\": [\n{throughput}\n  ],\n  \
         \"error_rates\": [\n{error_rates}\n  ],\n  \
         \"endpoints\": [\n{endpoints}\n  ],\n  \
         \"alerts_fired\": [\n{alerts}\n  ],\n  \
         \"resilience\": {{\"retries\": {rretries}, \"shed_responses\": {shed}, \
         \"shed_missing_retry_after\": {shed_bare}, \"chaos_acts\": {chaos_acts}, \
         \"failed_requests\": {failed_requests}, \"failure_rate\": {failure_rate:.6}}},\n  \
         \"transport_errors\": {transport_errors}\n}}\n",
        addr = cfg.addr,
        dur = wall.as_secs_f64(),
        conns = cfg.connections,
        rate = match cfg.rate {
            Some(r) => format!("{r}"),
            None => "null".to_owned(),
        },
        seed = cfg.seed,
        mix = mix.join(","),
        law = cfg.law,
        retries = cfg.retries,
        chaos = cfg.chaos,
        rretries = resilience.retries,
        shed = resilience.shed_responses,
        shed_bare = resilience.shed_missing_retry_after,
        chaos_acts = resilience.chaos_acts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parsing_accepts_weights_and_rejects_junk() {
        let mix = parse_mix("estimate=8,healthz=1,metrics=1").unwrap();
        assert_eq!(mix.len(), 3);
        assert_eq!(mix[0], (Endpoint::Estimate, 8));
        assert_eq!(
            parse_mix("healthz=1").unwrap(),
            vec![(Endpoint::Healthz, 1)]
        );
        // Zero weights drop out.
        assert_eq!(
            parse_mix("estimate=0,healthz=2").unwrap(),
            vec![(Endpoint::Healthz, 2)]
        );
        assert!(parse_mix("").is_err());
        assert!(parse_mix("estimate=0").is_err());
        assert!(parse_mix("bogus=1").is_err());
        assert!(parse_mix("estimate").is_err());
        assert!(parse_mix("estimate=x").is_err());
    }

    #[test]
    fn weighted_pick_is_deterministic_and_covers_the_mix() {
        let mix = parse_mix("estimate=8,healthz=1,metrics=1").unwrap();
        let draw = |seed: u64| -> Vec<&'static str> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..200).map(|_| pick(&mix, &mut rng).label()).collect()
        };
        // Same seed, same workload — the property that makes runs comparable.
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let picks = draw(7);
        let count = |l: &str| picks.iter().filter(|p| **p == l).count();
        assert!(count("estimate") > count("healthz"));
        assert!(count("healthz") > 0 && count("metrics") > 0);
    }

    #[test]
    fn requests_are_well_formed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let post = String::from_utf8(build_request(Endpoint::Estimate, "mylaw", &mut rng)).unwrap();
        assert!(post.starts_with("POST /estimate HTTP/1.1\r\n"), "{post}");
        let body = post.split("\r\n\r\n").nth(1).unwrap();
        let len: usize = post
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        assert!(body.contains("\"law\": \"mylaw\""));
        let get = String::from_utf8(build_request(Endpoint::Metrics, "x", &mut rng)).unwrap();
        assert!(get.starts_with("GET /metrics HTTP/1.1\r\n"), "{get}");
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_ns(&v, 0.50), 50);
        assert_eq!(quantile_ns(&v, 0.95), 95);
        assert_eq!(quantile_ns(&v, 0.99), 99);
        assert_eq!(quantile_ns(&v, 0.999), 100);
        assert_eq!(quantile_ns(&[7], 0.5), 7);
        assert_eq!(quantile_ns(&[], 0.5), 0);
    }

    #[test]
    fn report_is_valid_json_with_all_sections() {
        let cfg = LoadtestConfig {
            addr: "127.0.0.1:1".parse().unwrap(),
            duration: Duration::from_secs(1),
            connections: 2,
            rate: Some(100.0),
            seed: 9,
            mix: default_mix(),
            law: "uniform".to_owned(),
            out: "unused".to_owned(),
            profile_out: None,
            retries: 3,
            chaos: true,
            alerts_out: None,
        };
        let mut merged = vec![
            (
                "estimate",
                EndpointTally {
                    latencies_ns: vec![300, 100, 200, 5000],
                    errors: 1,
                    transport_failed: 1,
                },
            ),
            (
                "healthz",
                EndpointTally {
                    latencies_ns: vec![50],
                    errors: 0,
                    transport_failed: 0,
                },
            ),
        ];
        let res = Resilience {
            retries: 7,
            shed_responses: 2,
            shed_missing_retry_after: 0,
            chaos_acts: 4,
        };
        let fired = vec![
            ("slo-burn-estimate".to_owned(), "firing".to_owned()),
            ("drift-uniform".to_owned(), "resolved".to_owned()),
        ];
        let text = render_report(
            &cfg,
            Duration::from_secs(2),
            &mut merged,
            3,
            5,
            &res,
            &fired,
        );
        let doc = sjpl_obs::json::Json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("serve-loadtest"));
        let series = doc
            .get("summary")
            .unwrap()
            .get("series")
            .unwrap()
            .as_array()
            .unwrap();
        // 2 endpoints × 4 quantiles.
        assert_eq!(series.len(), 8);
        assert!(series.iter().any(|s| {
            s.get("name").unwrap().as_str() == Some("serve/estimate/p50")
                && s.get("mean_ns").unwrap().as_f64() == Some(200.0)
        }));
        let thr = doc.get("throughput").unwrap().as_array().unwrap();
        assert_eq!(thr.len(), 3); // estimate, healthz, total
        let total = thr
            .iter()
            .find(|t| t.get("name").unwrap().as_str() == Some("serve/total"))
            .unwrap();
        assert_eq!(total.get("rps").unwrap().as_f64(), Some(2.5));
        let eps = doc.get("endpoints").unwrap().as_array().unwrap();
        assert_eq!(eps.len(), 2);
        let est = &eps[0];
        assert_eq!(est.get("requests").unwrap().as_f64(), Some(4.0));
        assert_eq!(est.get("error_rate").unwrap().as_f64(), Some(0.25));
        assert_eq!(est.get("p999_ns").unwrap().as_f64(), Some(5000.0));
        assert_eq!(doc.get("transport_errors").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            doc.get("meta").unwrap().get("mix").unwrap().as_str(),
            Some("estimate=8,healthz=1,metrics=1")
        );
        // The resilience section the chaos CI job asserts on.
        let res = doc.get("resilience").unwrap();
        assert_eq!(res.get("retries").unwrap().as_f64(), Some(7.0));
        assert_eq!(res.get("shed_responses").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            res.get("shed_missing_retry_after").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(res.get("chaos_acts").unwrap().as_f64(), Some(4.0));
        // 1 HTTP error + 1 transport-final death out of 6 logical requests.
        assert_eq!(res.get("failed_requests").unwrap().as_f64(), Some(2.0));
        let rate = res.get("failure_rate").unwrap().as_f64().unwrap();
        assert!((rate - 2.0 / 6.0).abs() < 1e-6, "{rate}");
        // The error_rates array the regress gate reads.
        let ers = doc.get("error_rates").unwrap().as_array().unwrap();
        assert_eq!(ers.len(), 3); // estimate, healthz, total
        let by_name = |n: &str| {
            ers.iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(n))
                .unwrap()
                .get("error_rate")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!((by_name("serve/estimate") - 2.0 / 5.0).abs() < 1e-6);
        assert_eq!(by_name("serve/healthz"), 0.0);
        assert!((by_name("serve/total") - rate).abs() < 1e-9);
        assert_eq!(
            doc.get("meta").unwrap().get("retries").unwrap().as_f64(),
            Some(3.0)
        );
        // The alerts_fired rollup the regress gate surfaces as notes.
        let fired = doc.get("alerts_fired").unwrap().as_array().unwrap();
        assert_eq!(fired.len(), 2);
        assert_eq!(
            fired[0].get("name").unwrap().as_str(),
            Some("slo-burn-estimate")
        );
        assert_eq!(fired[0].get("state").unwrap().as_str(), Some("firing"));
        assert_eq!(fired[1].get("state").unwrap().as_str(), Some("resolved"));
    }

    #[test]
    fn alerts_rollup_keeps_fired_rules_only() {
        let body = r#"{
          "schema": 1,
          "alerts": [
            {"name": "a", "state": "inactive", "expr": "x > 1"},
            {"name": "b", "state": "pending", "expr": "x > 1"},
            {"name": "c", "state": "firing", "expr": "x > 1"},
            {"name": "d", "state": "resolved", "expr": "x > 1"}
          ]
        }"#;
        assert_eq!(
            parse_alerts_fired(body),
            vec![
                ("c".to_owned(), "firing".to_owned()),
                ("d".to_owned(), "resolved".to_owned())
            ]
        );
        assert!(parse_alerts_fired("not json").is_empty());
        assert!(parse_alerts_fired("{}").is_empty());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_retry_after_aware() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..8).map(|a| backoff_delay(a, None, &mut rng)).collect()
        };
        // Same seed, same schedule — chaos runs are reproducible.
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
        // Every delay is bounded and non-zero past the first attempt.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for attempt in 0..32 {
            let d = backoff_delay(attempt, None, &mut rng);
            assert!(d <= Duration::from_millis(240), "attempt {attempt}: {d:?}");
            assert!(d >= Duration::from_millis(2), "attempt {attempt}: {d:?}");
        }
        // A Retry-After hint wins outright, capped for short runs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(
            backoff_delay(0, Some(1), &mut rng),
            Duration::from_millis(250)
        );
        assert_eq!(
            backoff_delay(5, Some(0), &mut rng),
            Duration::from_millis(0)
        );
    }

    #[test]
    fn chaos_acts_against_a_dead_address_are_harmless() {
        // Nothing listening: every act must degrade to a no-op rather than
        // panic or hang — the harness's own resilience.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..8 {
            chaos_act("127.0.0.1:1".parse().unwrap(), &mut rng);
        }
    }
}
