//! A fixed-capacity in-process time-series store over the recorder.
//!
//! The daemon's observability surface is point-in-time: `/metrics` and
//! `/snapshot` answer "what is true now", but an SLO burn or a drift breach
//! is only visible if something retains history. [`Tsdb`] is that memory —
//! a ring buffer per named series, fed by a background scraper that calls
//! [`Tsdb::ingest`] on each recorder snapshot:
//!
//! - every counter becomes a monotonic sample series (value as-of scrape),
//! - every gauge becomes a point series,
//! - every span histogram becomes a cumulative `.count` series plus
//!   per-window `.p50_ns` / `.p99_ns` quantile points computed by diffing
//!   the cumulative histogram against the previous scrape.
//!
//! Memory is bounded by construction: at most `capacity` samples per
//! series (16 bytes each), so the store costs `capacity × series × 16` bytes
//! plus one retained histogram per span series for window diffing. When a
//! ring is full the oldest sample is evicted and counted, per series and
//! globally.
//!
//! The query layer ([`QueryExpr`]) is deliberately tiny: `rate()` and
//! `increase()` over counters (reset-aware — a decrease is treated as a
//! restart, the post-reset value counts in full), windowed `avg` / `max` /
//! `quantile` over points, and bare-name latest-value lookup. It is the
//! backend for `GET /query`, the alert engine, and `sjpl dash`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Mutex;

use crate::hist::LogLinearHistogram;
use crate::snapshot::Snapshot;

/// One observation: a timestamp (milliseconds, caller-supplied clock) and a
/// value. 16 bytes — the unit of the documented memory bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Milliseconds on the caller's clock (the daemon uses wall-clock ms).
    pub ts_ms: u64,
    /// The observed value.
    pub value: f64,
}

/// How a series' samples are interpreted by the query layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic cumulative samples; `rate()`/`increase()` apply and a
    /// decrease between adjacent samples is read as a process restart.
    Counter,
    /// Independent point-in-time measurements; `avg`/`max`/`quantile` apply.
    Gauge,
}

#[derive(Debug)]
struct Series {
    kind: SeriesKind,
    samples: VecDeque<Sample>,
    evicted: u64,
}

struct Inner {
    capacity: usize,
    series: BTreeMap<String, Series>,
    /// Previous scrape's cumulative span histograms, for window quantiles.
    prev_hists: HashMap<String, LogLinearHistogram>,
    /// Timestamp of the previous [`Tsdb::ingest`].
    prev_ingest_ms: Option<u64>,
    scrapes: u64,
    evicted: u64,
}

/// The ring-buffer time-series store. All methods take `&self`; the store
/// is internally locked and safe to share across the scraper thread and
/// request workers.
pub struct Tsdb {
    inner: Mutex<Inner>,
}

/// Aggregate store accounting, for `tsdb.*` gauges/counters and the
/// snapshot `tsdb` section.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TsdbStats {
    /// Ring capacity (max samples retained per series).
    pub capacity: usize,
    /// Number of distinct series currently held.
    pub series: u64,
    /// Samples currently retained across all series.
    pub samples: u64,
    /// Oldest-sample evictions since start, across all series.
    pub evicted: u64,
    /// Completed [`Tsdb::ingest`] calls.
    pub scrapes: u64,
}

/// The snapshot `tsdb` section (schema 5): store accounting plus the
/// scrape interval the daemon configured.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TsdbSnapshot {
    /// Ring capacity per series.
    pub capacity: usize,
    /// Distinct series held.
    pub series: u64,
    /// Samples retained.
    pub samples: u64,
    /// Total evictions.
    pub evicted: u64,
    /// Completed scrapes.
    pub scrapes: u64,
    /// Configured scrape interval, milliseconds.
    pub interval_ms: u64,
}

/// A parsed `/query` expression.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryExpr {
    /// Bare series name: the most recent sample's value.
    Latest(String),
    /// `rate(name[window])`: per-second increase over the window.
    Rate(String, u64),
    /// `increase(name[window])`: reset-aware total increase over the window.
    Increase(String, u64),
    /// `avg(name[window])`: mean of in-window samples.
    Avg(String, u64),
    /// `max(name[window])`: maximum in-window sample.
    Max(String, u64),
    /// `quantile(name[window], q)`: the `q`-quantile of in-window samples.
    Quantile(String, u64, f64),
}

/// A query answer: the scalar plus the in-window samples that produced it
/// (the dashboard's sparkline feed).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// The aggregate value of the expression.
    pub value: f64,
    /// The samples the aggregate was computed over, `(ts_ms, value)`,
    /// oldest first. For `Latest` this is the single newest sample.
    pub samples: Vec<(u64, f64)>,
}

impl QueryExpr {
    /// Parses the `/query` grammar:
    /// `name` | `rate(name[10s])` | `increase(name[10s])` |
    /// `avg(name[10s])` | `max(name[10s])` | `quantile(name[10s], 0.99)`.
    /// Windows take `ms`, `s`, or `m` suffixes.
    pub fn parse(expr: &str) -> Result<QueryExpr, String> {
        let expr = expr.trim();
        if expr.is_empty() {
            return Err("empty query expression".to_owned());
        }
        let Some(open) = expr.find('(') else {
            if expr.contains([')', '[', ']', ',']) {
                return Err(format!("malformed query expression '{expr}'"));
            }
            return Ok(QueryExpr::Latest(expr.to_owned()));
        };
        let func = expr[..open].trim();
        let Some(body) = expr[open + 1..].strip_suffix(')') else {
            return Err(format!("'{expr}': missing closing ')'"));
        };
        let (selector, rest) = match body.find(',') {
            Some(i) => (body[..i].trim(), Some(body[i + 1..].trim())),
            None => (body.trim(), None),
        };
        let (name, window_ms) = parse_selector(selector)?;
        match (func, rest) {
            ("rate", None) => Ok(QueryExpr::Rate(name, window_ms)),
            ("increase", None) => Ok(QueryExpr::Increase(name, window_ms)),
            ("avg", None) => Ok(QueryExpr::Avg(name, window_ms)),
            ("max", None) => Ok(QueryExpr::Max(name, window_ms)),
            ("quantile", Some(q)) => {
                let q: f64 = q
                    .parse()
                    .map_err(|_| format!("'{expr}': quantile '{q}' is not a number"))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(format!("'{expr}': quantile must be in [0, 1]"));
                }
                Ok(QueryExpr::Quantile(name, window_ms, q))
            }
            ("quantile", None) => Err(format!("'{expr}': quantile needs a second argument")),
            (f, _) => Err(format!(
                "unknown function '{f}' (expected rate, increase, avg, max, or quantile)"
            )),
        }
    }

    /// The series name the expression selects.
    pub fn name(&self) -> &str {
        match self {
            QueryExpr::Latest(n)
            | QueryExpr::Rate(n, _)
            | QueryExpr::Increase(n, _)
            | QueryExpr::Avg(n, _)
            | QueryExpr::Max(n, _)
            | QueryExpr::Quantile(n, _, _) => n,
        }
    }
}

/// Parses `name[window]` into `(name, window_ms)`.
fn parse_selector(sel: &str) -> Result<(String, u64), String> {
    let Some(open) = sel.find('[') else {
        return Err(format!("'{sel}': expected 'name[window]'"));
    };
    let Some(win) = sel[open + 1..].strip_suffix(']') else {
        return Err(format!("'{sel}': missing closing ']'"));
    };
    let name = sel[..open].trim();
    if name.is_empty() {
        return Err(format!("'{sel}': empty series name"));
    }
    Ok((name.to_owned(), parse_window_ms(win.trim())?))
}

/// Parses a window duration: `250ms`, `10s`, or `5m`.
fn parse_window_ms(s: &str) -> Result<u64, String> {
    let (digits, scale) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60_000)
    } else {
        return Err(format!("window '{s}' needs an ms, s, or m suffix"));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("window '{s}' is not a whole number of ms/s/m"))?;
    if n == 0 {
        return Err(format!("window '{s}' must be positive"));
    }
    Ok(n * scale)
}

impl Tsdb {
    /// A store retaining at most `capacity` samples per series (min 2 —
    /// `rate()` needs two points).
    pub fn new(capacity: usize) -> Self {
        Tsdb {
            inner: Mutex::new(Inner {
                capacity: capacity.max(2),
                series: BTreeMap::new(),
                prev_hists: HashMap::new(),
                prev_ingest_ms: None,
                scrapes: 0,
                evicted: 0,
            }),
        }
    }

    /// Appends one sample to `name`, creating the series on first use and
    /// evicting the oldest sample when the ring is full.
    pub fn push(&self, name: &str, kind: SeriesKind, ts_ms: u64, value: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.push(name, kind, ts_ms, value, None);
    }

    /// Scrapes one recorder snapshot into the store at time `ts_ms`:
    /// counters as monotonic samples, gauges as points, span histograms as
    /// a `.count` series plus per-window `.p50_ns`/`.p99_ns` quantile
    /// points (skipped for scrapes where the span saw no new samples).
    /// The recorder creates a counter on its first increment, so a counter
    /// series that is new after an earlier scrape starts with a 0 sample
    /// at that scrape: window increases then count its first value.
    pub fn ingest(&self, snap: &Snapshot, ts_ms: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let seed = inner.prev_ingest_ms.replace(ts_ms);
        for (name, value) in &snap.counters {
            inner.push(name, SeriesKind::Counter, ts_ms, *value as f64, seed);
        }
        for (name, value) in &snap.gauges {
            inner.push(name, SeriesKind::Gauge, ts_ms, *value, None);
        }
        for span in &snap.spans {
            let count_name = format!("{}.count", span.name);
            let count = span.count as f64;
            inner.push(&count_name, SeriesKind::Counter, ts_ms, count, seed);
            let window = match inner.prev_hists.get(&span.name) {
                Some(prev) => span.hist.diff(prev),
                None => span.hist.clone(),
            };
            if window.count() > 0 {
                let p50 = window.quantile(0.5) as f64;
                let p99 = window.quantile(0.99) as f64;
                inner.push(
                    &format!("{}.p50_ns", span.name),
                    SeriesKind::Gauge,
                    ts_ms,
                    p50,
                    None,
                );
                inner.push(
                    &format!("{}.p99_ns", span.name),
                    SeriesKind::Gauge,
                    ts_ms,
                    p99,
                    None,
                );
            }
            inner
                .prev_hists
                .insert(span.name.clone(), span.hist.clone());
        }
        inner.scrapes += 1;
    }

    /// Evaluates a parsed expression as-of `now_ms`. `None` when the series
    /// does not exist (or holds no samples at all); an existing series with
    /// an empty window yields `Some` with value 0 and no samples.
    pub fn query(&self, expr: &QueryExpr, now_ms: u64) -> Option<QueryResult> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let series = inner.series.get(expr.name())?;
        if series.samples.is_empty() {
            return None;
        }
        match expr {
            QueryExpr::Latest(_) => {
                let last = series.samples.back().copied()?;
                Some(QueryResult {
                    value: last.value,
                    samples: vec![(last.ts_ms, last.value)],
                })
            }
            QueryExpr::Rate(_, w) => {
                let win = in_window(series, now_ms, *w);
                let value = match (win.first(), win.last()) {
                    (Some(&(t0, _)), Some(&(t1, _))) if t1 > t0 => {
                        increase_of(&win) / ((t1 - t0) as f64 / 1_000.0)
                    }
                    _ => 0.0,
                };
                Some(QueryResult {
                    value,
                    samples: win,
                })
            }
            QueryExpr::Increase(_, w) => {
                let win = in_window(series, now_ms, *w);
                Some(QueryResult {
                    value: increase_of(&win),
                    samples: win,
                })
            }
            QueryExpr::Avg(_, w) => {
                let win = in_window(series, now_ms, *w);
                let value = if win.is_empty() {
                    0.0
                } else {
                    win.iter().map(|&(_, v)| v).sum::<f64>() / win.len() as f64
                };
                Some(QueryResult {
                    value,
                    samples: win,
                })
            }
            QueryExpr::Max(_, w) => {
                let win = in_window(series, now_ms, *w);
                let value = win.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
                Some(QueryResult {
                    value,
                    samples: win,
                })
            }
            QueryExpr::Quantile(_, w, q) => {
                let win = in_window(series, now_ms, *w);
                let mut vals: Vec<f64> = win.iter().map(|&(_, v)| v).collect();
                let value = if vals.is_empty() {
                    0.0
                } else {
                    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                    let rank = ((q * vals.len() as f64).ceil() as usize).max(1) - 1;
                    vals[rank.min(vals.len() - 1)]
                };
                Some(QueryResult {
                    value,
                    samples: win,
                })
            }
        }
    }

    /// Parses and evaluates `expr` in one step.
    pub fn query_str(&self, expr: &str, now_ms: u64) -> Result<Option<QueryResult>, String> {
        Ok(self.query(&QueryExpr::parse(expr)?, now_ms))
    }

    /// Names of every series currently held, sorted.
    pub fn series_names(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.series.keys().cloned().collect()
    }

    /// Per-series eviction count (`None` for an unknown series).
    pub fn evicted_of(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.series.get(name).map(|s| s.evicted)
    }

    /// Aggregate store accounting.
    pub fn stats(&self) -> TsdbStats {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        TsdbStats {
            capacity: inner.capacity,
            series: inner.series.len() as u64,
            samples: inner.series.values().map(|s| s.samples.len() as u64).sum(),
            evicted: inner.evicted,
            scrapes: inner.scrapes,
        }
    }

    /// The snapshot `tsdb` section with the configured scrape interval.
    pub fn snapshot_section(&self, interval_ms: u64) -> TsdbSnapshot {
        let s = self.stats();
        TsdbSnapshot {
            capacity: s.capacity,
            series: s.series,
            samples: s.samples,
            evicted: s.evicted,
            scrapes: s.scrapes,
            interval_ms,
        }
    }
}

impl Inner {
    /// Appends one sample; a series this creates first gets a 0 sample at
    /// `seed_ms`, when given.
    fn push(&mut self, name: &str, kind: SeriesKind, ts_ms: u64, value: f64, seed_ms: Option<u64>) {
        let capacity = self.capacity;
        let series = match self.series.get_mut(name) {
            Some(s) => s,
            None => {
                let mut samples = VecDeque::with_capacity(capacity.min(64));
                if let Some(t) = seed_ms {
                    samples.push_back(Sample {
                        ts_ms: t,
                        value: 0.0,
                    });
                }
                self.series.insert(
                    name.to_owned(),
                    Series {
                        kind,
                        samples,
                        evicted: 0,
                    },
                );
                self.series.get_mut(name).expect("just inserted")
            }
        };
        if series.samples.len() == capacity {
            series.samples.pop_front();
            series.evicted += 1;
            self.evicted += 1;
        }
        series.samples.push_back(Sample { ts_ms, value });
        let _ = series.kind;
    }
}

/// The samples of `series` with `ts_ms >= now_ms - window_ms`, oldest first.
fn in_window(series: &Series, now_ms: u64, window_ms: u64) -> Vec<(u64, f64)> {
    let cutoff = now_ms.saturating_sub(window_ms);
    series
        .samples
        .iter()
        .filter(|s| s.ts_ms >= cutoff && s.ts_ms <= now_ms)
        .map(|s| (s.ts_ms, s.value))
        .collect()
}

/// Reset-aware counter increase over an ordered sample window: adjacent
/// deltas are summed, and a negative delta (the process restarted and the
/// counter began again from zero) contributes the full post-reset value.
fn increase_of(win: &[(u64, f64)]) -> f64 {
    let mut total = 0.0;
    for pair in win.windows(2) {
        let delta = pair[1].1 - pair[0].1;
        total += if delta >= 0.0 { delta } else { pair[1].1 };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge_series(tsdb: &Tsdb, name: &str, samples: &[(u64, f64)]) {
        for &(ts, v) in samples {
            tsdb.push(name, SeriesKind::Gauge, ts, v);
        }
    }

    #[test]
    fn ring_wraparound_evicts_oldest_and_counts_exactly() {
        let tsdb = Tsdb::new(8);
        for i in 0..20u64 {
            tsdb.push("c", SeriesKind::Counter, i * 100, i as f64);
        }
        let stats = tsdb.stats();
        assert_eq!(stats.samples, 8);
        assert_eq!(stats.evicted, 12);
        assert_eq!(tsdb.evicted_of("c"), Some(12));
        // The survivors are exactly the 8 newest samples.
        let r = tsdb
            .query(&QueryExpr::Increase("c".into(), 10_000), 1_900)
            .unwrap();
        assert_eq!(r.samples.first(), Some(&(1_200, 12.0)));
        assert_eq!(r.samples.last(), Some(&(1_900, 19.0)));
        assert_eq!(r.value, 7.0);
    }

    #[test]
    fn churn_stays_within_the_documented_memory_bound() {
        // 10k samples over 4 series against a 64-sample ring: retained
        // samples never exceed capacity × series, and eviction accounting
        // balances pushes exactly.
        let tsdb = Tsdb::new(64);
        let names = ["a", "b", "c", "d"];
        for i in 0..10_000u64 {
            let name = names[(i % 4) as usize];
            tsdb.push(name, SeriesKind::Gauge, i, i as f64);
        }
        let stats = tsdb.stats();
        assert_eq!(stats.series, 4);
        assert_eq!(stats.samples, 64 * 4);
        assert_eq!(stats.evicted, 10_000 - 64 * 4);
        for name in names {
            assert_eq!(tsdb.evicted_of(name), Some(2_500 - 64));
        }
    }

    #[test]
    fn rate_rides_through_a_counter_reset() {
        let tsdb = Tsdb::new(16);
        // Counter climbs to 20, resets (restart), climbs again: the window
        // increase is 10 + 10 + 5 + 10 = 35, never negative.
        for (ts, v) in [
            (0u64, 0.0),
            (1_000, 10.0),
            (2_000, 20.0),
            (3_000, 5.0),
            (4_000, 15.0),
        ] {
            tsdb.push("req", SeriesKind::Counter, ts, v);
        }
        let inc = tsdb
            .query(&QueryExpr::parse("increase(req[10s])").unwrap(), 4_000)
            .unwrap();
        assert_eq!(inc.value, 35.0);
        let rate = tsdb
            .query(&QueryExpr::parse("rate(req[10s])").unwrap(), 4_000)
            .unwrap();
        assert!(
            (rate.value - 35.0 / 4.0).abs() < 1e-9,
            "rate={}",
            rate.value
        );
        assert_eq!(rate.samples.len(), 5);
    }

    #[test]
    fn windowed_aggregates_select_only_in_window_samples() {
        let tsdb = Tsdb::new(16);
        gauge_series(
            &tsdb,
            "g",
            &[(0, 100.0), (5_000, 1.0), (6_000, 3.0), (7_000, 2.0)],
        );
        let now = 7_000;
        let avg = tsdb
            .query(&QueryExpr::parse("avg(g[3s])").unwrap(), now)
            .unwrap();
        assert_eq!(avg.value, 2.0);
        assert_eq!(avg.samples.len(), 3);
        let max = tsdb
            .query(&QueryExpr::parse("max(g[3s])").unwrap(), now)
            .unwrap();
        assert_eq!(max.value, 3.0);
        let q = tsdb
            .query(&QueryExpr::parse("quantile(g[3s], 0.5)").unwrap(), now)
            .unwrap();
        assert_eq!(q.value, 2.0);
        // The stale sample at t=0 never leaks in.
        assert!(avg.samples.iter().all(|&(ts, _)| ts >= 4_000));
        // An in-range window with no samples is Some(0), not None: the
        // series exists, traffic stopped.
        let idle = tsdb
            .query(&QueryExpr::parse("avg(g[3s])").unwrap(), 60_000)
            .unwrap();
        assert_eq!(idle.value, 0.0);
        assert!(idle.samples.is_empty());
        // A series that never existed is None.
        assert!(tsdb
            .query(&QueryExpr::parse("ghost").unwrap(), now)
            .is_none());
    }

    #[test]
    fn latest_returns_the_newest_point() {
        let tsdb = Tsdb::new(4);
        gauge_series(&tsdb, "inflight", &[(1, 3.0), (2, 7.0)]);
        let r = tsdb
            .query(&QueryExpr::parse("inflight").unwrap(), 99)
            .unwrap();
        assert_eq!(r.value, 7.0);
        assert_eq!(r.samples, vec![(2, 7.0)]);
    }

    #[test]
    fn ingest_covers_counters_gauges_and_span_quantiles() {
        use crate::snapshot::TimingSnapshot;
        let mut hist = LogLinearHistogram::new();
        hist.record(1_000);
        hist.record(2_000);
        let snap = Snapshot {
            spans: vec![TimingSnapshot {
                name: "serve.request".into(),
                count: 2,
                total_ns: 3_000,
                min_ns: 1_000,
                max_ns: 2_000,
                hist: hist.clone(),
            }],
            counters: vec![("serve.requests".into(), 2)],
            gauges: vec![("serve.inflight".into(), 1.0)],
            ..Snapshot::default()
        };
        let tsdb = Tsdb::new(16);
        tsdb.ingest(&snap, 1_000);
        let names = tsdb.series_names();
        for expect in [
            "serve.inflight",
            "serve.request.count",
            "serve.request.p50_ns",
            "serve.request.p99_ns",
            "serve.requests",
        ] {
            assert!(names.contains(&expect.to_owned()), "missing {expect}");
        }
        // Second scrape with one new slow sample: the window quantile
        // reflects only the new sample, not the cumulative distribution.
        let mut hist2 = hist.clone();
        hist2.record(1_000_000);
        let snap2 = Snapshot {
            spans: vec![TimingSnapshot {
                name: "serve.request".into(),
                count: 3,
                total_ns: 1_003_000,
                min_ns: 1_000,
                max_ns: 1_000_000,
                hist: hist2,
            }],
            ..Snapshot::default()
        };
        tsdb.ingest(&snap2, 2_000);
        let p50 = tsdb
            .query(&QueryExpr::parse("serve.request.p50_ns").unwrap(), 2_000)
            .unwrap();
        assert!(p50.value >= 1_000_000.0, "window p50={}", p50.value);
        assert_eq!(tsdb.stats().scrapes, 2);
    }

    #[test]
    fn a_counter_new_after_the_first_scrape_counts_its_first_value() {
        let snap = |errors: u64| Snapshot {
            counters: vec![("serve.errors".into(), errors)],
            ..Snapshot::default()
        };
        let tsdb = Tsdb::new(16);
        tsdb.ingest(&Snapshot::default(), 1_000);
        // Twenty errors land between the first and second scrape.
        tsdb.ingest(&snap(20), 2_000);
        tsdb.ingest(&snap(20), 3_000);
        let inc = tsdb
            .query(&QueryExpr::Increase("serve.errors".into(), 60_000), 3_000)
            .unwrap();
        assert_eq!(inc.value, 20.0);
        assert_eq!(inc.samples[0], (1_000, 0.0));
        // A counter already there at the first scrape is its own baseline.
        let tsdb = Tsdb::new(16);
        tsdb.ingest(&snap(5), 1_000);
        tsdb.ingest(&snap(7), 2_000);
        let inc = tsdb
            .query(&QueryExpr::Increase("serve.errors".into(), 60_000), 2_000)
            .unwrap();
        assert_eq!(inc.value, 2.0);
    }

    #[test]
    fn ingest_skips_quantiles_for_idle_scrapes() {
        let mut hist = LogLinearHistogram::new();
        hist.record(500);
        let snap = Snapshot {
            spans: vec![crate::snapshot::TimingSnapshot {
                name: "serve.request".into(),
                count: 1,
                total_ns: 500,
                min_ns: 500,
                max_ns: 500,
                hist,
            }],
            ..Snapshot::default()
        };
        let tsdb = Tsdb::new(16);
        tsdb.ingest(&snap, 1_000);
        tsdb.ingest(&snap, 2_000); // identical: no new samples
        let p50 = tsdb
            .query(&QueryExpr::Latest("serve.request.p50_ns".into()), 2_000)
            .unwrap();
        // Only the first scrape produced a quantile point.
        assert_eq!(p50.samples, vec![(1_000, p50.value)]);
    }

    #[test]
    fn query_grammar_parses_and_rejects() {
        assert_eq!(
            QueryExpr::parse("rate(serve.requests[10s])").unwrap(),
            QueryExpr::Rate("serve.requests".into(), 10_000)
        );
        assert_eq!(
            QueryExpr::parse("quantile(serve.request.p99_ns[250ms], 0.9)").unwrap(),
            QueryExpr::Quantile("serve.request.p99_ns".into(), 250, 0.9)
        );
        assert_eq!(
            QueryExpr::parse("max(drift[2m])").unwrap(),
            QueryExpr::Max("drift".into(), 120_000)
        );
        assert_eq!(
            QueryExpr::parse(" serve.inflight ").unwrap(),
            QueryExpr::Latest("serve.inflight".into())
        );
        for bad in [
            "",
            "rate(x)",
            "rate(x[10s]",
            "rate(x[10])",
            "rate(x[0s])",
            "frob(x[10s])",
            "quantile(x[10s])",
            "quantile(x[10s], nope)",
            "quantile(x[10s], 1.5)",
            "name[10s]",
        ] {
            assert!(QueryExpr::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }
}
