//! End-to-end tests of the serve daemon over real TCP: endpoint contract,
//! provenance under concurrency, Prometheus exposition validity, drift
//! detection when the served law is perturbed, and graceful shutdown.
//!
//! All tests share one process (and therefore one global `sjpl-obs`
//! recorder), so each uses its own law names and asserts only on
//! monotone / per-law signals, never on global totals.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sjpl_core::{EstimationMethod, LawCatalog, PairCountLaw, SelectivityEstimator};
use sjpl_datagen::uniform;
use sjpl_geom::Metric;
use sjpl_index::{self_pair_count, JoinAlgorithm};
use sjpl_obs::json::Json;
use sjpl_serve::{DriftConfig, DriftProbe, ServeConfig, Server};

/// Sends one raw HTTP request (the caller includes `Connection: close` —
/// the server is keep-alive by default) and returns
/// `(status, headers, body)`.
fn http(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"));
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {response:?}"));
    (status, head.to_owned(), body.to_owned())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post_estimate(addr: SocketAddr, body: &str) -> (u16, String, String) {
    http(
        addr,
        &format!(
            "POST /estimate HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Reads one `Content-Length`-framed response off a kept-alive stream.
fn read_framed(stream: &mut TcpStream) -> (u16, String, String) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("read header byte");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf).unwrap();
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.to_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(str::to_owned)
        })
        .and_then(|v| v.parse().ok())
        .expect("content-length header");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8(body).unwrap())
}

/// Fits a BOPS law on uniform 2-d data.
fn fitted_law(n: usize, seed: u64) -> PairCountLaw {
    let pts = uniform::unit_cube::<2>(n, seed);
    *SelectivityEstimator::from_self(&pts, EstimationMethod::Bops(Default::default()))
        .expect("fit law")
        .law()
}

fn catalog_with(name: &str, law: PairCountLaw) -> Arc<Mutex<LawCatalog>> {
    let mut c = LawCatalog::new();
    c.insert(name, law);
    Arc::new(Mutex::new(c))
}

/// The structural Prometheus checks from the acceptance criteria: every
/// histogram's buckets are monotone non-decreasing and end in a `+Inf`
/// bucket equal to `_count`.
fn assert_valid_exposition(text: &str) {
    use std::collections::HashMap;
    let mut last: HashMap<String, u64> = HashMap::new();
    let mut inf: HashMap<String, u64> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut hist_bases: std::collections::HashSet<String> = Default::default();
    let mut help = 0;
    let mut typ = 0;
    for line in text.lines() {
        if line.starts_with("# HELP ") {
            help += 1;
            continue;
        }
        if line.starts_with("# TYPE ") {
            typ += 1;
            continue;
        }
        assert!(!line.starts_with('#'), "stray comment: {line:?}");
        // Tail buckets may carry an OpenMetrics exemplar suffix
        // (` # {labels} value`); strip it before parsing the sample.
        let line = match line.split_once(" # ") {
            Some((sample, exemplar)) => {
                assert!(
                    exemplar.starts_with('{') && exemplar.contains("} "),
                    "malformed exemplar: {line:?}"
                );
                sample
            }
            None => line,
        };
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let name = series.split('{').next().unwrap().to_owned();
        if let Some(base) = name.strip_suffix("_bucket") {
            hist_bases.insert(base.to_owned());
            let v: u64 = value.parse().unwrap();
            if series.contains("le=\"+Inf\"") {
                inf.insert(base.to_owned(), v);
                last.remove(base);
            } else {
                if let Some(prev) = last.get(base) {
                    assert!(v >= *prev, "non-monotone bucket: {line}");
                }
                last.insert(base.to_owned(), v);
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            counts.insert(base.to_owned(), value.parse().unwrap());
        }
    }
    assert!(help > 0 && typ > 0, "no HELP/TYPE lines");
    assert!(!hist_bases.is_empty(), "no histograms in exposition");
    for base in hist_bases {
        // A plain counter can also end in `_count` (e.g. `sjpl_fit_count`);
        // only series that emitted buckets are histograms.
        assert_eq!(
            inf.get(&base),
            counts.get(&base),
            "{base}: +Inf bucket != _count"
        );
        assert!(inf.contains_key(&base), "{base}: missing +Inf bucket");
    }
}

#[test]
fn endpoint_contract_and_concurrent_estimates() {
    let law = fitted_law(3_000, 1);
    let catalog = catalog_with("contract", law);
    let server = Server::start(
        catalog,
        ServeConfig {
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Liveness and readiness.
    let (status, head, body) = get(addr, "/healthz");
    assert_eq!((status, body.trim()), (200, "ok"));
    assert!(head.to_lowercase().contains("x-request-id:"), "{head}");
    assert_eq!(get(addr, "/readyz").0, 200);

    // One estimate, audited end to end.
    let (status, _, body) = post_estimate(addr, r#"{"law": "contract", "radius": 0.05}"#);
    assert_eq!(status, 200, "body: {body}");
    let doc = Json::parse(&body).unwrap();
    let pc = doc.get("pair_count").unwrap().as_f64().unwrap();
    assert!(
        (pc - law.pair_count(0.05)).abs() < 1e-6,
        "served {pc} vs local {}",
        law.pair_count(0.05)
    );
    let prov = doc.get("provenance").unwrap();
    assert_eq!(prov.get("alpha").unwrap().as_f64(), Some(law.exponent));
    assert_eq!(prov.get("k").unwrap().as_f64(), Some(law.k));
    assert_eq!(
        prov.get("r_squared").unwrap().as_f64(),
        Some(law.fit.line.r_squared)
    );
    assert_eq!(prov.get("join_kind").unwrap().as_str(), Some("self"));
    let window = prov.get("fit_window").unwrap().as_array().unwrap();
    assert_eq!(window.len(), 2);
    assert!(window[0].as_f64().unwrap() < window[1].as_f64().unwrap());

    // Concurrent clients: every answer correct, every request id distinct.
    let ids: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    let mut ids = Vec::new();
                    for _ in 0..10 {
                        let (status, _, body) =
                            post_estimate(addr, r#"{"law": "contract", "radius": 0.05}"#);
                        assert_eq!(status, 200, "body: {body}");
                        let doc = Json::parse(&body).unwrap();
                        assert_eq!(
                            doc.get("pair_count").unwrap().as_f64(),
                            Some(law.pair_count(0.05))
                        );
                        ids.push(doc.get("request_id").unwrap().as_f64().unwrap() as u64);
                    }
                    ids
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), 80, "request ids must be distinct: {ids:?}");

    // Error paths.
    assert_eq!(post_estimate(addr, "not json").0, 400);
    assert_eq!(post_estimate(addr, r#"{"law": "contract"}"#).0, 400);
    assert_eq!(
        post_estimate(addr, r#"{"law": "ghost", "radius": 0.1}"#).0,
        404
    );
    assert_eq!(
        post_estimate(addr, r#"{"law": "contract", "radius": -2}"#).0,
        400
    );
    assert_eq!(get(addr, "/no-such-endpoint").0, 404);
    let (status, head, _) = get(addr, "/estimate");
    assert_eq!(status, 405);
    assert!(
        head.to_lowercase().contains("allow: post"),
        "405 must advertise Allow: {head}"
    );
    let (status, head, _) = http(
        addr,
        "DELETE /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert!(
        head.to_lowercase().contains("allow: get"),
        "405 must advertise Allow: {head}"
    );
    assert_eq!(
        http(addr, "POST /estimate HTTP/1.1\r\nHost: t\r\n\r\n").0,
        411
    );

    // Scrape endpoints.
    let (status, head, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert_valid_exposition(&text);
    for needle in [
        "# TYPE sjpl_serve_requests counter",
        "# TYPE sjpl_serve_estimate_ns histogram",
        "sjpl_serve_estimate_ns_bucket{le=\"+Inf\"}",
        "sjpl_span_quantile_ns{span=\"serve.estimate\",quantile=\"0.99\"}",
        "# TYPE sjpl_serve_errors counter",
        "# TYPE sjpl_serve_inflight gauge",
        "# TYPE sjpl_serve_connections gauge",
        // Lifecycle spans and per-endpoint × status-class histograms.
        "# TYPE sjpl_serve_read_ns histogram",
        "# TYPE sjpl_serve_write_ns histogram",
        "# TYPE sjpl_serve_endpoint_estimate_2xx_ns histogram",
        "# TYPE sjpl_serve_endpoint_estimate_4xx_ns histogram",
        "# TYPE sjpl_serve_endpoint_other_4xx_ns histogram",
        // Response-class counters.
        "# TYPE sjpl_serve_responses_2xx counter",
        "# TYPE sjpl_serve_responses_4xx counter",
        // The scrape path instruments itself; the counter is bumped before
        // the snapshot is taken, so even the first scrape carries it.
        "# TYPE sjpl_serve_scrape_total counter",
    ] {
        assert!(text.contains(needle), "missing {needle:?}");
    }

    let (status, _, snap) = get(addr, "/snapshot");
    assert_eq!(status, 200);
    let doc = Json::parse(&snap).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_f64(), Some(5.0));
    // The daemon's snapshot carries the schema-5 telemetry sections.
    assert!(doc.get("tsdb").unwrap().get("capacity").is_some());
    assert!(doc.get("alerts").unwrap().as_array().is_some());
    let spans = doc.get("spans").unwrap().as_array().unwrap();
    assert!(spans
        .iter()
        .any(|s| s.get("name").unwrap().as_str() == Some("serve.estimate")));
    assert!(spans
        .iter()
        .all(|s| s.get("p95_ns").unwrap().as_f64().is_some()));
    assert!(spans
        .iter()
        .all(|s| s.get("p999_ns").unwrap().as_f64().is_some()));

    let (status, _, trace) = get(addr, "/timeline");
    assert_eq!(status, 200);
    let doc = Json::parse(&trace).unwrap();
    assert!(!doc
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    server.shutdown();
}

#[test]
fn readyz_reports_unready_on_an_empty_catalog() {
    let server = Server::start(
        Arc::new(Mutex::new(LawCatalog::new())),
        ServeConfig::default(),
    )
    .unwrap();
    assert_eq!(get(server.addr(), "/readyz").0, 503);
    assert_eq!(get(server.addr(), "/healthz").0, 200);
    server.shutdown();
}

/// The acceptance test for the drift monitor: with the served law matching
/// ground truth the rel-error gauge sits near zero; perturbing the law in
/// the live catalog must move the gauge past the budget and fire the
/// breach counter + event.
#[test]
fn drift_monitor_flags_a_perturbed_law() {
    let n = 3_000;
    let pts = uniform::unit_cube::<2>(n, 7);
    let law = fitted_law(n, 7);

    // Ground truth via the paper's §4.3 sampling trick: an exact self-join
    // over a fixed 1-in-5 sample, scaled back up by the pair-count ratio.
    let sample: Vec<_> = pts.points().iter().copied().step_by(5).collect();
    let s = sample.len();
    let scale = (n * (n - 1)) as f64 / (s * (s - 1)) as f64;
    let truth = Arc::new(move |r: f64| {
        self_pair_count(JoinAlgorithm::ParSweep, &sample, r, Metric::Linf) as f64 * scale
    });

    // Probe radii inside the fitted window.
    let (lo, hi) = (law.fit.x_lo, law.fit.x_hi);
    let radii: Vec<f64> = [0.25, 0.5, 0.75]
        .iter()
        .map(|t| lo * (hi / lo).powf(*t))
        .collect();

    let catalog = catalog_with("driftlaw", law);
    let server = Server::start(
        Arc::clone(&catalog),
        ServeConfig {
            probes: vec![DriftProbe {
                law_name: "driftlaw".into(),
                radii,
                truth,
            }],
            drift: DriftConfig {
                interval: Duration::from_millis(25),
                error_budget: 1.0,
            },
            // The drift rule writes breached/breaches on scraper ticks.
            metrics_interval: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let gauge = |text: &str, name: &str| -> Option<f64> {
        text.lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
    };

    // Phase 1: the healthy law converges under the budget.
    let deadline = Instant::now() + Duration::from_secs(10);
    let healthy = loop {
        let (_, _, text) = get(addr, "/metrics");
        if let Some(v) = gauge(&text, "sjpl_serve_drift_rel_error_driftlaw") {
            break v;
        }
        assert!(Instant::now() < deadline, "drift gauge never appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        healthy < 1.0,
        "healthy law should sit under the budget, got {healthy}"
    );

    // Phase 2: perturb the served law (K × 50 ⇒ rel error ≈ 49).
    let mut bad = law;
    bad.k *= 50.0;
    bad.fit.k *= 50.0;
    catalog.lock().unwrap().insert("driftlaw", bad);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, text) = get(addr, "/metrics");
        let err = gauge(&text, "sjpl_serve_drift_rel_error_driftlaw").unwrap_or(0.0);
        let breached = gauge(&text, "sjpl_serve_drift_breached_driftlaw").unwrap_or(0.0);
        let breaches = gauge(&text, "sjpl_serve_drift_breaches").unwrap_or(0.0);
        if err > 1.0 && breached == 1.0 && breaches >= 1.0 {
            assert_valid_exposition(&text);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drift never flagged: err={err} breached={breached} breaches={breaches}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The breach event is on the snapshot too.
    let (_, _, snap) = get(addr, "/snapshot");
    let doc = Json::parse(&snap).unwrap();
    assert!(doc
        .get("events")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .any(|e| e.get("name").unwrap().as_str() == Some("serve.drift.breach")));

    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let server = Server::start(
        catalog_with("ka", fitted_law(1_000, 11)),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Three requests down one connection: HTTP/1.1 defaults to keep-alive.
    let mut ids = Vec::new();
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, head, body) = read_framed(&mut stream);
        assert_eq!((status, body.trim()), (200, "ok"));
        let lowered = head.to_lowercase();
        assert!(
            lowered.contains("connection: keep-alive"),
            "keep-alive response must say so: {head}"
        );
        ids.push(
            lowered
                .lines()
                .find_map(|l| {
                    l.strip_prefix("x-request-id:")
                        .map(str::trim)
                        .map(str::to_owned)
                })
                .expect("x-request-id"),
        );
    }
    let unique: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), 3, "each request gets its own id: {ids:?}");

    // A POST /estimate works on the same kept-alive connection too.
    let body = r#"{"law": "ka", "radius": 0.1}"#;
    stream
        .write_all(
            format!(
                "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, _, body) = read_framed(&mut stream);
    assert_eq!(status, 200, "body: {body}");

    // `Connection: close` ends the session: response says close, then EOF.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_framed(&mut stream);
    assert_eq!(status, 200);
    assert!(head.to_lowercase().contains("connection: close"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");

    server.shutdown();
}

#[test]
fn slo_gauges_and_breach_counters_appear_on_metrics() {
    let server = Server::start(
        catalog_with("slolaw", fitted_law(1_000, 13)),
        ServeConfig {
            slos: vec![
                // 1 ns @ p50: impossible, so healthz traffic must breach.
                sjpl_serve::SloSpec::parse("/healthz=1ns@p50").unwrap(),
                // 10 s @ p99 with a generous error budget: never breaches.
                sjpl_serve::SloSpec::parse("/readyz=10s@p99,err<50%").unwrap(),
            ],
            // Burn windows of 200 ms / 800 ms.
            metrics_interval: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let gauge = |text: &str, name: &str| -> Option<f64> {
        text.lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
    };

    // The burn-rate rules publish the gauges on each scraper tick, over
    // windows of the scraped counts: keep traffic flowing until the
    // healthz window shows the breach.
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        assert_eq!(get(addr, "/healthz").0, 200);
        assert_eq!(get(addr, "/readyz").0, 200);
        let (status, _, text) = get(addr, "/metrics");
        assert_eq!(status, 200);
        if gauge(&text, "sjpl_serve_slo_breached_healthz") == Some(1.0) {
            break text;
        }
        assert!(Instant::now() < deadline, "healthz SLO never breached");
        std::thread::sleep(Duration::from_millis(20));
    };
    // No healthz request meets 1 ns: compliance 0, and the burn is the
    // whole violation over the 50% allowance in both windows.
    assert_eq!(gauge(&text, "sjpl_serve_slo_compliance_healthz"), Some(0.0));
    assert_eq!(gauge(&text, "sjpl_serve_slo_burn_rate_healthz"), Some(2.0));
    assert!(gauge(&text, "sjpl_serve_slo_breaches").unwrap() >= 1.0);
    assert!(gauge(&text, "sjpl_serve_slo_breaches_healthz").unwrap() >= 1.0);

    // The generous SLO stays green.
    assert_eq!(
        gauge(&text, "sjpl_serve_slo_breached_readyz"),
        Some(0.0),
        "10s@p99 must not breach"
    );
    assert_eq!(gauge(&text, "sjpl_serve_slo_compliance_readyz"), Some(1.0));
    assert_valid_exposition(&text);

    server.shutdown();
}

#[test]
fn access_log_records_every_request_and_slow_capture_fires() {
    let log_path =
        std::env::temp_dir().join(format!("sjpl-access-log-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let server = Server::start(
        catalog_with("loglaw", fitted_law(1_000, 17)),
        ServeConfig {
            access_log: Some(log_path.clone()),
            slow_ns: 0, // every request counts as slow: capture must fire
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(
        post_estimate(addr, r#"{"law": "loglaw", "radius": 0.1}"#).0,
        200
    );
    assert_eq!(
        post_estimate(addr, r#"{"law": "ghost", "radius": 0.1}"#).0,
        404
    );

    // The slow-request capture is on the timeline before shutdown.
    let (_, _, trace) = get(addr, "/timeline");
    assert!(
        trace.contains("serve.slow_request"),
        "slow capture missing from timeline"
    );

    server.shutdown();

    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<&str> = log.lines().collect();
    assert!(lines.len() >= 4, "expected >= 4 access-log lines:\n{log}");
    for line in &lines {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL {line:?}: {e}"));
        for field in [
            "ts_ms",
            "request_id",
            "method",
            "path",
            "endpoint",
            "status",
            "duration_ns",
            "slow",
        ] {
            assert!(doc.get(field).is_some(), "missing {field} in {line}");
        }
        assert_eq!(doc.get("slow").unwrap().as_bool(), Some(true));
    }
    // The estimate rows carry the law name; the 404 row carries the law it
    // asked for, so misses are attributable too.
    assert!(
        lines.iter().any(|l| l.contains("\"law\":\"loglaw\"")),
        "{log}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"law\":\"ghost\"")),
        "{log}"
    );
    assert!(log.contains("\"endpoint\":\"healthz\""), "{log}");
    assert!(log.contains("\"endpoint\":\"estimate\""), "{log}");
    // Shutdown flushed the log: the *last* request before shutdown (the
    // /timeline probe) is on disk, with the run's highest request id.
    assert!(log.contains("\"endpoint\":\"timeline\""), "{log}");
    let max_id = lines
        .iter()
        .map(|l| {
            Json::parse(l)
                .unwrap()
                .get("request_id")
                .unwrap()
                .as_f64()
                .unwrap() as u64
        })
        .max()
        .unwrap();
    let last = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(
        last.get("request_id").unwrap().as_f64().map(|v| v as u64),
        Some(max_id),
        "last line must be the last request"
    );
    assert_eq!(last.get("endpoint").unwrap().as_str(), Some("timeline"));
    let _ = std::fs::remove_file(&log_path);
}

/// The tentpole's linking contract, end to end: a request lands in a tail
/// bucket → `/debug/exemplars` remembers its id → the `/metrics` bucket
/// line carries it as an OpenMetrics exemplar → the id resolves to the
/// same request in both the flight-recorder timeline (span tree) and the
/// access log. All three views must agree.
#[test]
fn exemplars_link_scrape_to_access_log_and_timeline() {
    let log_path =
        std::env::temp_dir().join(format!("sjpl-exemplar-log-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let server = Server::start(
        catalog_with("exlaw", fitted_law(1_000, 23)),
        ServeConfig {
            access_log: Some(log_path.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    for _ in 0..3 {
        assert_eq!(
            post_estimate(addr, r#"{"law": "exlaw", "radius": 0.1}"#).0,
            200
        );
    }

    // The exemplar store remembers a recent estimate request.
    let (status, _, body) = get(addr, "/debug/exemplars");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_f64(), Some(1.0));
    let exemplars = doc.get("exemplars").unwrap().as_array().unwrap();
    let ex = exemplars
        .iter()
        .rfind(|e| e.get("series").unwrap().as_str() == Some("serve.endpoint.estimate.2xx"))
        .expect("an exemplar for the estimate endpoint");
    let request_id = ex.get("request_id").unwrap().as_f64().unwrap() as u64;
    let span_id = ex.get("span_id").unwrap().as_f64().unwrap() as u64;
    let dur_ns = ex.get("duration_ns").unwrap().as_f64().unwrap() as u64;
    assert!(request_id > 0 && span_id > 0, "{body}");

    // The /metrics exposition carries it as an exemplar suffix on an
    // estimate bucket line.
    let (_, _, text) = get(addr, "/metrics");
    assert_valid_exposition(&text);
    let suffix = format!(" # {{request_id=\"{request_id}\",span_id=\"{span_id}\"}} {dur_ns}");
    let line = text
        .lines()
        .find(|l| l.ends_with(&suffix))
        .unwrap_or_else(|| panic!("no bucket line ends with {suffix:?} in:\n{text}"));
    assert!(
        line.starts_with("sjpl_serve_endpoint_estimate_2xx_ns_bucket{le=\""),
        "exemplar on the wrong series: {line}"
    );

    // The span id resolves in the flight-recorder timeline to the same
    // request's `serve.request` span.
    let (_, _, snap) = get(addr, "/snapshot");
    let doc = Json::parse(&snap).unwrap();
    let events = doc
        .get("timeline")
        .unwrap()
        .get("events")
        .unwrap()
        .as_array()
        .unwrap();
    let span = events
        .iter()
        .find(|e| e.get("id").unwrap().as_f64() == Some(span_id as f64))
        .expect("exemplar span id must resolve in the timeline");
    assert_eq!(span.get("name").unwrap().as_str(), Some("serve.request"));
    let args = span.get("args").unwrap().as_str().unwrap();
    assert!(
        args.contains(&format!("#{request_id}")) && args.contains("POST /estimate"),
        "timeline span {span_id} disagrees with exemplar: {args:?}"
    );
    // And the routed handler is a child of that request span.
    assert!(
        events.iter().any(|e| {
            e.get("name").unwrap().as_str() == Some("serve.estimate")
                && e.get("parent").unwrap().as_f64() == Some(span_id as f64)
        }),
        "no serve.estimate child under span {span_id}"
    );

    server.shutdown();

    // The request id resolves in the access log to the same request.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let row = log
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .find(|d| d.get("request_id").unwrap().as_f64() == Some(request_id as f64))
        .expect("exemplar request id must resolve in the access log");
    assert_eq!(row.get("endpoint").unwrap().as_str(), Some("estimate"));
    assert_eq!(row.get("status").unwrap().as_f64(), Some(200.0));
    assert_eq!(row.get("law").unwrap().as_str(), Some("exlaw"));
    let _ = std::fs::remove_file(&log_path);
}

/// `/debug/profile` returns a collapsed-stack window. The worker serving
/// the request holds `serve.request` → `serve.profile` open for the whole
/// window, so the profile always contains at least that path.
#[test]
fn debug_profile_returns_collapsed_stacks_and_json() {
    let server = Server::start(
        catalog_with("proflaw", fitted_law(1_000, 29)),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    let (status, head, body) = get(addr, "/debug/profile?seconds=0.4&hz=250");
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("text/plain"), "{head}");
    for line in body.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("collapsed line must be `path;to;span N`: {line:?}"));
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("collapsed count must be an integer: {line:?}"));
        assert!(
            !stack.is_empty() && stack.split(';').all(|f| !f.is_empty()),
            "empty frame in {line:?}"
        );
    }
    assert!(
        body.lines().any(|l| l.contains("serve.profile")),
        "the profiling request itself must be sampled:\n{body}"
    );

    // JSON format: the accounting invariant holds over the window.
    let (status, _, body) = get(addr, "/debug/profile?seconds=0.2&hz=100&format=json");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    let field = |k: &str| doc.get(k).unwrap().as_f64().unwrap() as u64;
    assert_eq!(
        field("attempts"),
        field("samples") + field("idle") + field("dropped"),
        "{body}"
    );
    assert!(field("ticks") >= 1, "{body}");

    // Bad parameters are rejected, wrong methods advertised.
    assert_eq!(get(addr, "/debug/profile?seconds=99").0, 400);
    assert_eq!(get(addr, "/debug/profile?seconds=nope").0, 400);
    assert_eq!(get(addr, "/debug/profile?hz=-5").0, 400);
    let (status, head, _) = http(
        addr,
        "POST /debug/profile HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert!(head.to_lowercase().contains("allow: get"), "{head}");

    server.shutdown();
}

/// With `profile_hz` set the daemon runs the continuous sampler: scrapes
/// publish the live accounting gauges and `/debug/profile` windows are
/// diffs of the running profile.
#[test]
fn continuous_profiler_publishes_live_gauges() {
    let server = Server::start(
        catalog_with("contlaw", fitted_law(1_000, 31)),
        ServeConfig {
            profile_hz: Some(199.0),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Give the sampler a few ticks, then scrape.
    std::thread::sleep(Duration::from_millis(120));
    let (status, _, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_valid_exposition(&text);
    for needle in [
        "# TYPE sjpl_prof_live_samples gauge",
        "# TYPE sjpl_prof_live_dropped_samples gauge",
        "# TYPE sjpl_prof_live_overhead_ns gauge",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // A window against the running sampler still works (snapshot diff).
    let (status, _, body) = get(addr, "/debug/profile?seconds=0.3");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.lines().any(|l| l.contains("serve.profile")),
        "window over the continuous sampler must see the live request:\n{body}"
    );

    server.shutdown();
}

/// Sends raw bytes and returns whatever comes back until EOF — possibly
/// nothing, for requests whose connection the server drops.
fn http_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(raw).unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// Value of a plain counter/gauge sample line in a Prometheus exposition.
fn counter(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(&format!("{name} ")))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The overload contract: with the only admission slot held, debug
/// endpoints shed immediately, normal-tier requests queue briefly then
/// shed, health probes always pass — and every shed carries Retry-After.
#[test]
fn overload_sheds_debug_first_and_every_shed_carries_retry_after() {
    let server = Server::start(
        catalog_with("shedlaw", fitted_law(1_000, 37)),
        ServeConfig {
            threads: 4,
            max_inflight: 1,
            queue_depth: 1,
            queue_wait: Duration::from_millis(100),
            faults: Some(sjpl_serve::FaultPlan::parse("estimate:latency=700ms@1.0", 1).unwrap()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Occupy the only slot with a fault-delayed estimate.
    let holder =
        std::thread::spawn(move || post_estimate(addr, r#"{"law": "shedlaw", "radius": 0.1}"#));
    std::thread::sleep(Duration::from_millis(150));

    // Debug tier sheds without waiting.
    for path in ["/snapshot", "/timeline"] {
        let t0 = Instant::now();
        let (status, head, _) = get(addr, path);
        assert_eq!(status, 429, "{path} must shed at capacity");
        assert!(
            head.to_lowercase().contains("retry-after:"),
            "{path}: shed without Retry-After: {head}"
        );
        assert!(
            t0.elapsed() < Duration::from_millis(80),
            "debug shed must not queue"
        );
    }
    // Normal tier waits its bounded turn, then sheds.
    let t0 = Instant::now();
    let (status, head, _) = post_estimate(addr, r#"{"law": "shedlaw", "radius": 0.1}"#);
    assert_eq!(status, 429);
    assert!(head.to_lowercase().contains("retry-after:"), "{head}");
    assert!(
        t0.elapsed() >= Duration::from_millis(80),
        "normal tier should have queued before shedding"
    );
    // Health probes are never shed.
    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(get(addr, "/readyz").0, 200);

    // The admitted request still completed normally.
    let (status, _, body) = holder.join().unwrap();
    assert_eq!(status, 200, "{body}");

    // Shed and fault accounting is on /metrics (slot now free again).
    let (_, _, text) = get(addr, "/metrics");
    assert!(
        counter(&text, "sjpl_serve_shed_total").unwrap_or(0.0) >= 3.0,
        "{text}"
    );
    assert!(
        counter(&text, "sjpl_serve_shed_snapshot").unwrap_or(0.0) >= 1.0,
        "{text}"
    );
    assert!(
        counter(&text, "sjpl_serve_shed_estimate").unwrap_or(0.0) >= 1.0,
        "{text}"
    );
    assert!(
        counter(&text, "sjpl_serve_faults_estimate_latency").unwrap_or(0.0) >= 1.0,
        "{text}"
    );
    server.shutdown();
}

/// Deadline budgets: the config default rejects a slow (fault-delayed)
/// request with `503 + Retry-After`; a per-request `X-Deadline-Ms` header
/// overrides the default in both directions.
#[test]
fn deadline_budgets_reject_slow_work_and_the_header_wins() {
    let server = Server::start(
        catalog_with("dlinelaw", fitted_law(1_000, 39)),
        ServeConfig {
            deadline_ms: Some(50),
            faults: Some(sjpl_serve::FaultPlan::parse("exemplars:latency=300ms@1.0", 2).unwrap()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Fast endpoints fit inside the 50 ms default budget.
    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(
        post_estimate(addr, r#"{"law": "dlinelaw", "radius": 0.1}"#).0,
        200
    );

    // The fault-injected 300 ms exemplars handler blows the default.
    let (status, head, body) = get(addr, "/debug/exemplars");
    assert_eq!(status, 503, "{body}");
    assert!(head.to_lowercase().contains("retry-after:"), "{head}");
    assert!(body.contains("deadline"), "{body}");

    // A generous per-request header overrides the default...
    let (status, _, body) = http(
        addr,
        "GET /debug/exemplars HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 5000\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");
    // ...and a stingy one fails even a fast endpoint's admission-time check
    // once the budget is already spent mid-flight (here: it's simply
    // tighter than the injected latency).
    let (status, _, _) = http(
        addr,
        "GET /debug/exemplars HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 20\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 503);

    let (_, _, text) = get(addr, "/metrics");
    assert!(
        counter(&text, "sjpl_serve_deadline_exceeded").unwrap_or(0.0) >= 2.0,
        "{text}"
    );
    assert!(
        counter(&text, "sjpl_serve_deadline_exemplars").unwrap_or(0.0) >= 2.0,
        "{text}"
    );
    server.shutdown();
}

/// The fault plan's determinism contract: rules at probability 1 fire on
/// every matching request and nowhere else, so the per-rule counters match
/// the request counts exactly; a probability-0 rule never counts.
#[test]
fn injected_fault_counters_match_the_seeded_plan_exactly() {
    let server = Server::start(
        catalog_with("faultlaw", fitted_law(1_000, 43)),
        ServeConfig {
            faults: Some(
                sjpl_serve::FaultPlan::parse(
                    "readyz:latency=1ms@1.0,timeline:reset@1.0,healthz:latency=5ms@0.0",
                    3,
                )
                .unwrap(),
            ),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // 5 readyz requests, each taking the injected 1 ms latency (and still
    // answering 200).
    for _ in 0..5 {
        assert_eq!(get(addr, "/readyz").0, 200);
    }
    // 3 timeline requests, each reset mid-handle: the connection just dies.
    for _ in 0..3 {
        let resp = http_raw(
            addr,
            b"GET /timeline HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(
            resp.is_empty(),
            "reset fault must drop the connection: {resp:?}"
        );
    }
    // 4 healthz requests; the probability-0 rule must never fire.
    for _ in 0..4 {
        assert_eq!(get(addr, "/healthz").0, 200);
    }

    let (_, _, text) = get(addr, "/metrics");
    assert_eq!(
        counter(&text, "sjpl_serve_faults_readyz_latency"),
        Some(5.0),
        "{text}"
    );
    assert_eq!(
        counter(&text, "sjpl_serve_faults_timeline_reset"),
        Some(3.0),
        "{text}"
    );
    assert_eq!(
        counter(&text, "sjpl_serve_faults_healthz_latency"),
        None,
        "a probability-0 rule must never count: {text}"
    );

    // Every injection is also an observable event.
    let (_, _, snap) = get(addr, "/snapshot");
    let doc = Json::parse(&snap).unwrap();
    assert!(doc
        .get("events")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .any(|e| e.get("name").unwrap().as_str() == Some("serve.fault")));
    server.shutdown();
}

/// Panic containment: a handler panic costs one 500 and a counter, never a
/// worker. After six forced panics the pool still serves four concurrent
/// fault-delayed estimates in a single round.
#[test]
fn panic_containment_keeps_the_worker_pool_at_full_capacity() {
    let server = Server::start(
        catalog_with("panlaw", fitted_law(1_000, 41)),
        ServeConfig {
            threads: 4,
            faults: Some(
                sjpl_serve::FaultPlan::parse("snapshot:panic@1.0,estimate:latency=400ms@1.0", 5)
                    .unwrap(),
            ),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    for _ in 0..6 {
        let (status, _, body) = get(addr, "/snapshot");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("panicked"), "{body}");
    }

    // Four concurrent estimates, each carrying 400 ms of injected latency:
    // with all four workers alive they finish in about one round; a lost
    // worker would force a second round (>= 800 ms).
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(move || post_estimate(addr, r#"{"law": "panlaw", "radius": 0.1}"#)))
            .collect();
        for h in handles {
            let (status, _, body) = h.join().unwrap();
            assert_eq!(status, 200, "{body}");
        }
    });
    let wall = t0.elapsed();
    assert!(
        wall < Duration::from_millis(750),
        "pool degraded after panics: 4 estimates took {wall:?}"
    );

    let (_, _, text) = get(addr, "/metrics");
    assert!(
        counter(&text, "sjpl_serve_panics").unwrap_or(0.0) >= 6.0,
        "{text}"
    );
    assert_eq!(
        counter(&text, "sjpl_serve_faults_snapshot_panic"),
        Some(6.0),
        "{text}"
    );
    server.shutdown();
}

/// Graceful drain: `begin_drain` flips `/readyz` to `503 + Retry-After`
/// so load balancers stop routing, while live traffic keeps being served.
#[test]
fn readyz_flips_to_503_with_retry_after_during_drain() {
    let server = Server::start(
        catalog_with("drainlaw", fitted_law(1_000, 45)),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = server.addr();
    assert_eq!(get(addr, "/readyz").0, 200);

    server.begin_drain();
    let (status, head, body) = get(addr, "/readyz");
    assert_eq!(status, 503);
    assert!(head.to_lowercase().contains("retry-after:"), "{head}");
    assert!(body.contains("draining"), "{body}");
    // Draining refuses new placement, not existing traffic.
    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(
        post_estimate(addr, r#"{"law": "drainlaw", "radius": 0.1}"#).0,
        200
    );
    server.shutdown();
}

/// Hostile peers must be bounded by the configured IO timeout — a
/// byte-dripping or half-finished request costs one worker at most that
/// long, and the slot serves well-behaved traffic right afterwards.
#[test]
fn hostile_peers_fail_fast_without_poisoning_the_slot() {
    let server = Server::start(
        catalog_with("hostlaw", fitted_law(1_000, 47)),
        ServeConfig {
            threads: 2,
            io_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let assert_healthy = || {
        let t0 = Instant::now();
        assert_eq!(get(addr, "/healthz").0, 200);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "healthz slow after hostile peer"
        );
    };

    // Slow-loris: drip header bytes forever. The *total* parse budget cuts
    // it off, even though every per-byte gap is short.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let t0 = Instant::now();
        for b in b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Drip: "
            .iter()
            .cycle()
        {
            if s.write_all(&[*b]).is_err() {
                break; // server gave up on us — exactly the point
            }
            std::thread::sleep(Duration::from_millis(20));
            if t0.elapsed() > Duration::from_secs(3) {
                break;
            }
        }
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "slow-loris pinned the worker: {:?}",
            t0.elapsed()
        );
        assert!(
            resp.is_empty() || resp.contains("400"),
            "unexpected slow-loris response: {resp:?}"
        );
    }
    assert_healthy();

    // Content-Length promises more than the peer ever sends.
    {
        let t0 = Instant::now();
        let resp = http_raw(
            addr,
            b"POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\nshort",
        );
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "starved body read must time out at io_timeout"
        );
        assert!(resp.contains("400"), "{resp:?}");
    }
    assert_healthy();

    // Oversized header line: rejected as 413, not buffered forever.
    {
        let raw = format!(
            "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Big: {}\r\nConnection: close\r\n\r\n",
            "x".repeat(9_000)
        );
        let (status, _, _) = http(addr, &raw);
        assert_eq!(status, 413);
    }
    assert_healthy();

    // Abrupt mid-body disconnect: EOF inside the body fails immediately.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\npartial")
            .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let t0 = Instant::now();
        let mut resp = String::new();
        let _ = s.read_to_string(&mut resp);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "EOF body must fail fast"
        );
        assert!(resp.contains("400"), "{resp:?}");
    }
    // Both workers still alive: two concurrent probes succeed promptly.
    std::thread::scope(|s| {
        let a = s.spawn(assert_healthy);
        let b = s.spawn(assert_healthy);
        a.join().unwrap();
        b.join().unwrap();
    });
    server.shutdown();
}

#[test]
fn shutdown_is_prompt_and_final() {
    let server = Server::start(
        catalog_with("bye", fitted_law(1_000, 3)),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = server.addr();
    assert_eq!(get(addr, "/healthz").0, 200);
    let t0 = Instant::now();
    server.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(5), "shutdown hung");
    // The listener is gone: new connections must not be served.
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut out = String::new();
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = s.read_to_string(&mut out);
            assert!(out.is_empty(), "served after shutdown: {out:?}");
        }
    }
}

/// Reads the state of one named alert from `GET /alerts`, if the rule
/// exists.
fn alert_state(addr: SocketAddr, name: &str) -> Option<String> {
    let (code, _, body) = get(addr, "/alerts");
    assert_eq!(code, 200, "GET /alerts: {body}");
    let doc = Json::parse(&body).unwrap();
    doc.get("alerts")?
        .as_array()?
        .iter()
        .find(|a| a.get("name").and_then(|n| n.as_str()) == Some(name))
        .and_then(|a| a.get("state"))
        .and_then(|s| s.as_str())
        .map(str::to_string)
}

/// End-to-end telemetry pipeline: planted latency faults on `/estimate`
/// blow its latency SLO, the multi-window burn-rate alert goes firing
/// (visible on `/alerts` and as `ALERTS{...}` on `/metrics`), and once
/// the faulted traffic stops the alert resolves. The faulted scope is
/// `estimate` (not `readyz`/`timeline`/`healthz`): the recorder's fault
/// counters are process-global, and the determinism test pins those three
/// scopes to exact counts.
#[test]
fn burn_rate_alert_fires_under_planted_latency_and_resolves() {
    let server = Server::start(
        catalog_with("alerting", fitted_law(1_000, 11)),
        ServeConfig {
            metrics_interval: Duration::from_millis(25),
            slos: vec![sjpl_serve::SloSpec::parse("/estimate=1ms@p50").unwrap()],
            faults: Some(sjpl_serve::FaultPlan::parse("estimate:latency=15ms@1.0", 9).unwrap()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Phase 1: drive faulted traffic until the burn-rate alert fires.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut fired = false;
    while Instant::now() < deadline {
        for _ in 0..4 {
            let (status, _, body) = post_estimate(addr, r#"{"law": "alerting", "radius": 0.05}"#);
            assert_eq!(status, 200, "{body}");
        }
        if alert_state(addr, "slo-burn-estimate").as_deref() == Some("firing") {
            fired = true;
            break;
        }
    }
    assert!(fired, "burn-rate alert never fired under planted latency");

    // While firing: ALERTS is on /metrics, the exposition (build info and
    // uptime included) still parses.
    let (code, _, metrics) = get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_valid_exposition(&metrics);
    assert!(
        metrics.contains("ALERTS{alertname=\"slo-burn-estimate\",state=\"firing\"} 1"),
        "no firing ALERTS sample:\n{metrics}"
    );
    assert!(
        metrics.contains("sjpl_build_info{version=\""),
        "missing build info"
    );
    assert!(
        metrics.contains("sjpl_serve_uptime_seconds"),
        "missing uptime gauge"
    );

    // Phase 2: the faulted traffic stops, the windows drain, the alert
    // resolves, and the ALERTS family disappears (pending/firing only).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut resolved = false;
    while Instant::now() < deadline {
        if alert_state(addr, "slo-burn-estimate").as_deref() == Some("resolved") {
            resolved = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        resolved,
        "alert did not resolve after faulted traffic stopped"
    );
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        !metrics.contains("ALERTS{"),
        "resolved alert still exported:\n{metrics}"
    );
    server.shutdown();
}

/// `/query` contract: bad expressions are 400, unknown series 404, and a
/// well-formed `rate()` over a scraped counter returns in-window samples
/// (the `[` / `]` arrive percent-encoded, exercising the decoder).
#[test]
fn query_endpoint_serves_rate_over_scraped_counters() {
    let server = Server::start(
        catalog_with("query", fitted_law(1_000, 12)),
        ServeConfig {
            metrics_interval: Duration::from_millis(25),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    assert_eq!(get(addr, "/query").0, 400);
    assert_eq!(get(addr, "/query?expr=rate(").0, 400);
    assert_eq!(get(addr, "/query?expr=no.such.series").0, 404);

    // Drive traffic until the scraper has ingested enough samples for
    // rate() to difference over a live window.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert_eq!(get(addr, "/healthz").0, 200);
        let (code, _, body) = get(addr, "/query?expr=rate(serve.requests%5B10s%5D)");
        if code == 200 {
            let doc = Json::parse(&body).unwrap();
            assert_eq!(doc.get("series").unwrap().as_str(), Some("serve.requests"));
            let samples = doc.get("samples").unwrap().as_array().unwrap();
            let value = doc.get("value").unwrap().as_f64().unwrap();
            if samples.len() >= 2 && value > 0.0 {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "rate(serve.requests) never went positive: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
