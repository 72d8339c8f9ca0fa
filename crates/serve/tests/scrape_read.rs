//! The `/metrics` read path on a quiet daemon: a scrape reads the recorder
//! once, without the flight-recorder timeline, and writes its SLO
//! evaluation into that read.
//!
//! This file holds a single test, so the process-global recorder sees the
//! traffic of this one daemon only.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sjpl_core::{EstimationMethod, LawCatalog, SelectivityEstimator};
use sjpl_serve::{ServeConfig, Server, SloSpec};

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.split(' ').nth(1).unwrap().parse().unwrap();
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    (status, body.to_owned())
}

/// Sample lines of an exposition keyed by series (name plus labels), with
/// any OpenMetrics exemplar suffix dropped.
fn series(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_once(" # ").map_or(l, |(sample, _)| sample))
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

#[test]
fn one_metrics_response_carries_its_own_slo_evaluation() {
    let pts = sjpl_datagen::uniform::unit_cube::<2>(1_000, 7);
    let law = *SelectivityEstimator::from_self(&pts, EstimationMethod::Bops(Default::default()))
        .expect("fit law")
        .law();
    let mut catalog = LawCatalog::new();
    catalog.insert("quiet", law);
    let server = Server::start(
        Arc::new(Mutex::new(catalog)),
        ServeConfig {
            // One worker: a request's bookkeeping is done before the next
            // connection is accepted.
            threads: 1,
            // 1 ns @ p50 cannot be met, so any healthz traffic breaches.
            slos: vec![SloSpec::parse("/healthz=1ns@p50").unwrap()],
            // Only the scraper's start-up tick runs during the test.
            metrics_interval: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // The start-up tick evaluated the SLO on a quiet daemon and left
    // "not breached" in the recorder.
    let deadline = Instant::now() + Duration::from_secs(10);
    while get(addr, "/query?expr=serve.slo.breached.healthz").0 != 200 {
        assert!(Instant::now() < deadline, "the start-up tick never ran");
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_eq!(get(addr, "/healthz").0, 200);
    // The first scrape after the breach must show it: its gauges and
    // counters come from its own evaluation, not from the recorder state
    // the tick left behind.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let first = series(&text);
    assert_eq!(first["sjpl_serve_slo_breached_healthz"], "1");
    assert_eq!(first["sjpl_serve_slo_compliance_healthz"], "0");
    assert_eq!(first["sjpl_serve_slo_breaches_healthz"], "1");
    assert_eq!(first["sjpl_serve_slo_breaches"], "1");
    assert!(
        first["sjpl_serve_slo_burn_rate_healthz"]
            .parse::<f64>()
            .unwrap()
            > 1.0
    );

    // A second scrape on the now-quiet daemon has the same series set as
    // rendering a full snapshot (timeline and profile attached) of the
    // same recorder; the SLO values it evaluated are in the recorder too.
    let (_, text) = get(addr, "/metrics");
    let scraped = series(&text);
    let full = series(&sjpl_obs::snapshot().with_timeline().to_prometheus());
    // Bucket bounds come and go as the scrape's own requests land, so a
    // histogram counts as one series.
    let keys = |s: &BTreeMap<String, String>| -> BTreeSet<String> {
        s.keys()
            .filter(|k| !k.starts_with("sjpl_build_info") && !k.starts_with("ALERTS"))
            .map(|k| {
                k.split_once("_bucket{le=")
                    .map_or(k.as_str(), |(base, _)| base)
            })
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(keys(&scraped), keys(&full));
    for (k, v) in scraped.iter().filter(|(k, _)| k.contains("_slo_")) {
        assert_eq!(&full[k], v, "{k}");
    }
    server.shutdown();
}
