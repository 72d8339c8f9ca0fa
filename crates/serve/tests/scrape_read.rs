//! The `/metrics` read path on a quiet daemon: a scrape reads the recorder
//! once, without the flight-recorder timeline, and still renders every
//! series a full snapshot holds.
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
fn metrics_exposition_has_the_full_snapshot_series_set() {
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
            // The SLO's gauges are part of the compared series set.
            slos: vec![SloSpec::parse("/healthz=1ns@p50").unwrap()],
            // Only the scraper's start-up tick runs during the test.
            metrics_interval: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Wait out the start-up tick: the `tsdb.series` gauge is its last
    // write, after the SLO gauges.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !get(addr, "/metrics").1.contains("\nsjpl_tsdb_series ") {
        assert!(Instant::now() < deadline, "the start-up tick never ran");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(get(addr, "/healthz").0, 200);
    assert_eq!(get(addr, "/metrics").0, 200);

    // A scrape on the now-quiet daemon has the same series set as
    // rendering a full snapshot (timeline and profile attached) of the
    // same recorder.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let scraped = series(&text);
    assert!(scraped.contains_key("sjpl_serve_slo_breached_healthz"));
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
    server.shutdown();
}
