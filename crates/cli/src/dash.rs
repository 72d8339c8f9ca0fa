//! `sjpl dash` — a polling ANSI terminal dashboard over a running serve
//! daemon's telemetry pipeline.
//!
//! Every frame is assembled purely from the daemon's own HTTP surface —
//! `GET /query` for per-endpoint rate/latency series (the in-process TSDB
//! answers these) and `GET /alerts` for the alert engine's rule states —
//! so the dashboard sees exactly what any external observer would see;
//! there is no side channel. Per-endpoint rows show requests/second with
//! a sparkline of the recent per-scrape rates, p50/p99 latency, and the
//! error rate; below them come inflight/queue-depth gauges, drift-probe
//! status, and every alert rule with its state and value.
//!
//! `--frames N` renders N frames then exits (CI smoke tests use
//! `--frames 1`); without it the dashboard polls until interrupted.

use std::net::SocketAddr;
use std::time::Duration;

use sjpl_obs::json::Json;
use sjpl_serve::slo::STATUS_CLASSES;

use crate::loadtest::fetch_body;

/// Parsed `sjpl dash` parameters.
pub struct DashConfig {
    /// Target serve daemon.
    pub addr: SocketAddr,
    /// Delay between frames.
    pub refresh: Duration,
    /// Frames to render before exiting; `None` = until interrupted.
    pub frames: Option<u64>,
}

/// The window the per-endpoint rate/error queries aggregate over.
const WINDOW: &str = "60s";

/// One fetched per-endpoint row.
struct EndpointRow {
    label: &'static str,
    /// Requests/second over [`WINDOW`] (2xx..5xx summed).
    rps: f64,
    /// Per-scrape request rates, oldest first — the sparkline feed.
    spark: Vec<f64>,
    /// Latest p50/p99 of the endpoint's 2xx latency histogram, ns.
    p50_ns: Option<f64>,
    p99_ns: Option<f64>,
    /// 4xx+5xx fraction of all requests over the window.
    error_rate: f64,
}

/// One `/alerts` rule row.
struct AlertRow {
    name: String,
    state: String,
    value: f64,
    threshold: f64,
    expr: String,
}

/// Everything one frame renders, fetched over HTTP.
struct Frame {
    endpoints: Vec<EndpointRow>,
    alerts: Vec<AlertRow>,
    inflight: Option<f64>,
    queue_depth: Option<f64>,
    uptime_s: Option<f64>,
}

/// Issues one `/query` and returns the result, or `None` when the series
/// doesn't exist (yet) or the expression errors — a dashboard must render
/// through partial data, not die on it.
fn query(addr: SocketAddr, expr: &str) -> Option<(f64, Vec<(u64, f64)>)> {
    let encoded: String = expr
        .chars()
        .flat_map(|c| match c {
            '[' => "%5B".chars().collect::<Vec<_>>(),
            ']' => "%5D".chars().collect(),
            ' ' => "%20".chars().collect(),
            c => vec![c],
        })
        .collect();
    let body = fetch_body(
        addr,
        &format!("/query?expr={encoded}"),
        Duration::from_secs(5),
    )
    .ok()?;
    let doc = Json::parse(&body).ok()?;
    let value = doc.get("value")?.as_f64()?;
    let samples = doc
        .get("samples")?
        .as_array()?
        .iter()
        .filter_map(|s| {
            let pair = s.as_array()?;
            Some((pair.first()?.as_f64()? as u64, pair.get(1)?.as_f64()?))
        })
        .collect();
    Some((value, samples))
}

/// Fetches one frame's worth of state from the daemon.
fn fetch_frame(addr: SocketAddr) -> Result<Frame, String> {
    let mut endpoints = Vec::new();
    for label in sjpl_serve::endpoint_labels() {
        // Sum the status classes: one counter series per endpoint × class.
        let mut rps = 0.0;
        let mut err_rps = 0.0;
        let mut counts: Option<Vec<(u64, f64)>> = None;
        let mut seen = false;
        for &class in STATUS_CLASSES {
            let expr = format!("rate(serve.endpoint.{label}.{class}.count[{WINDOW}])");
            let Some((v, samples)) = query(addr, &expr) else {
                continue;
            };
            seen = true;
            rps += v;
            if class == "4xx" || class == "5xx" {
                err_rps += v;
            }
            // Sparkline from the dominant class's raw counter samples.
            if counts.as_ref().is_none_or(|c| c.len() < samples.len()) {
                counts = Some(samples);
            }
        }
        if !seen {
            continue; // endpoint has taken no traffic: no row
        }
        let spark = counts.map(|c| deltas_per_second(&c)).unwrap_or_default();
        let p50_ns = query(addr, &format!("serve.endpoint.{label}.2xx.p50_ns")).map(|(v, _)| v);
        let p99_ns = query(addr, &format!("serve.endpoint.{label}.2xx.p99_ns")).map(|(v, _)| v);
        endpoints.push(EndpointRow {
            label,
            rps,
            spark,
            p50_ns,
            p99_ns,
            error_rate: if rps > 0.0 { err_rps / rps } else { 0.0 },
        });
    }

    let body = fetch_body(addr, "/alerts", Duration::from_secs(5))
        .map_err(|e| format!("GET /alerts: {e}"))?;
    let doc = Json::parse(&body).map_err(|e| format!("/alerts: {e}"))?;
    let alerts = doc
        .get("alerts")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|a| {
                    Some(AlertRow {
                        name: a.get("name")?.as_str()?.to_owned(),
                        state: a.get("state")?.as_str()?.to_owned(),
                        value: a.get("value")?.as_f64().unwrap_or(f64::NAN),
                        threshold: a.get("threshold")?.as_f64().unwrap_or(f64::NAN),
                        expr: a.get("expr")?.as_str()?.to_owned(),
                    })
                })
                .collect()
        })
        .unwrap_or_default();

    Ok(Frame {
        endpoints,
        alerts,
        inflight: query(addr, "serve.inflight").map(|(v, _)| v),
        queue_depth: query(addr, "serve.queue.depth").map(|(v, _)| v),
        uptime_s: query(addr, "serve.uptime_seconds").map(|(v, _)| v),
    })
}

/// Per-second rates between consecutive counter samples — the sparkline's
/// bars. Counter resets clamp to zero rather than going negative.
fn deltas_per_second(samples: &[(u64, f64)]) -> Vec<f64> {
    samples
        .windows(2)
        .filter_map(|w| {
            let dt_ms = w[1].0.saturating_sub(w[0].0);
            if dt_ms == 0 {
                return None;
            }
            Some(((w[1].1 - w[0].1).max(0.0) * 1000.0) / dt_ms as f64)
        })
        .collect()
}

/// Renders values as a Unicode sparkline, scaled to the series' own max.
fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &values[values.len().saturating_sub(width)..];
    let max = tail.iter().copied().fold(0.0f64, f64::max);
    tail.iter()
        .map(|v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[((v / max * 8.0).round() as usize).min(8)]
            }
        })
        .collect()
}

fn fmt_ms(ns: Option<f64>) -> String {
    match ns {
        Some(v) => format!("{:>8.2}ms", v / 1e6),
        None => format!("{:>10}", "-"),
    }
}

/// Renders one frame as plain text (no cursor control — the caller owns
/// the screen). Pure so the smoke test can assert on the layout.
fn render(addr: SocketAddr, frame: &Frame) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let uptime = frame
        .uptime_s
        .map_or_else(|| "-".to_owned(), |s| format!("{s:.0}s"));
    let _ = writeln!(out, "sjpl dash — {addr} — up {uptime}");
    let _ = writeln!(
        out,
        "inflight {}   queue {}",
        frame
            .inflight
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.0}")),
        frame
            .queue_depth
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.0}")),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<10} {:>9}  {:<16} {:>10} {:>10} {:>7}",
        "endpoint", "req/s", "trend", "p50", "p99", "err%"
    );
    if frame.endpoints.is_empty() {
        let _ = writeln!(out, "  (no traffic scraped yet)");
    }
    for ep in &frame.endpoints {
        let _ = writeln!(
            out,
            "{:<10} {:>9.1}  {:<16} {} {} {:>6.2}%",
            ep.label,
            ep.rps,
            sparkline(&ep.spark, 16),
            fmt_ms(ep.p50_ns),
            fmt_ms(ep.p99_ns),
            ep.error_rate * 100.0,
        );
    }
    let _ = writeln!(out);
    let drift: Vec<&AlertRow> = frame
        .alerts
        .iter()
        .filter(|a| a.name.starts_with("drift-"))
        .collect();
    if !drift.is_empty() {
        let status: Vec<String> = drift
            .iter()
            .map(|a| {
                format!(
                    "{} {}",
                    &a.name["drift-".len()..],
                    if a.state == "firing" {
                        "BREACHED"
                    } else {
                        "ok"
                    }
                )
            })
            .collect();
        let _ = writeln!(out, "drift: {}", status.join(", "));
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "alerts ({}):", frame.alerts.len());
    if frame.alerts.is_empty() {
        let _ = writeln!(out, "  (no rules)");
    }
    for a in &frame.alerts {
        // Firing rules get ANSI red so they jump out of the frame.
        let state = match a.state.as_str() {
            "firing" => "\x1b[31;1mFIRING  \x1b[0m".to_owned(),
            s => format!("{s:<8}"),
        };
        let _ = writeln!(
            out,
            "  {state} {:<24} {:>10.3} vs {:<8} {}",
            a.name, a.value, a.threshold, a.expr
        );
    }
    out
}

/// Runs the dashboard loop: fetch, clear screen, draw, sleep, repeat.
pub fn run(cfg: &DashConfig) -> Result<(), String> {
    let mut remaining = cfg.frames;
    loop {
        let frame = fetch_frame(cfg.addr)
            .map_err(|e| format!("cannot read {}: {e} (is `sjpl serve` running?)", cfg.addr))?;
        // Clear + home, then the frame in one write to avoid flicker.
        print!("\x1b[2J\x1b[H{}", render(cfg.addr, &frame));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if let Some(n) = remaining.as_mut() {
            *n -= 1;
            if *n == 0 {
                return Ok(());
            }
        }
        std::thread::sleep(cfg.refresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    #[test]
    fn sparkline_scales_to_the_window_max() {
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[0.0, 0.0], 8), "  ");
        let s = sparkline(&[1.0, 4.0, 8.0], 8);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().last(), Some('█'));
        // Only the last `width` values render.
        assert_eq!(sparkline(&[9.0, 1.0, 1.0], 2).chars().count(), 2);
    }

    #[test]
    fn deltas_ride_through_resets_and_zero_dt() {
        let d = deltas_per_second(&[(0, 0.0), (1000, 10.0), (1000, 10.0), (2000, 5.0)]);
        assert_eq!(d, vec![10.0, 0.0]);
    }

    /// The acceptance smoke test: boot a real daemon, let the scraper take
    /// a few ticks of traffic, and render one frame end to end (both via
    /// the module API and via the `sjpl dash --frames 1` command path).
    #[test]
    fn one_frame_renders_against_a_live_daemon() {
        let _obs = crate::obs_lock();
        let pts = sjpl_datagen::uniform::unit_cube::<2>(1_000, 7);
        let law = *sjpl_core::SelectivityEstimator::from_self(
            &pts,
            sjpl_core::EstimationMethod::Bops(Default::default()),
        )
        .unwrap()
        .law();
        let mut catalog = sjpl_core::LawCatalog::new();
        catalog.insert("uniform", law);
        let server = sjpl_serve::Server::start(
            Arc::new(Mutex::new(catalog)),
            sjpl_serve::ServeConfig {
                metrics_interval: Duration::from_millis(25),
                ..sjpl_serve::ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();

        // Generate traffic until a scrape has ingested it.
        let deadline = Instant::now() + Duration::from_secs(20);
        let frame = loop {
            let _ = fetch_body(addr, "/healthz", Duration::from_secs(5)).unwrap();
            let frame = fetch_frame(addr).unwrap();
            if frame.endpoints.iter().any(|e| e.label == "healthz") {
                break frame;
            }
            assert!(Instant::now() < deadline, "scraper never ingested traffic");
            std::thread::sleep(Duration::from_millis(10));
        };
        let text = render(addr, &frame);
        assert!(text.contains("sjpl dash"), "{text}");
        assert!(text.contains("healthz"), "{text}");
        assert!(text.contains("req/s"), "{text}");
        assert!(text.contains("alerts (0)"), "{text}");

        // The command path: one frame against the live daemon exits 0.
        let argv: Vec<String> = ["dash", &addr.to_string(), "--frames", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        crate::commands::run(&argv).unwrap();
        server.shutdown();
    }
}
