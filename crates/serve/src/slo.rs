//! Declarative per-endpoint SLOs, parsed from `--slo` flags, and the one
//! definition of how fast an SLO burns its error budget.
//!
//! Spec syntax (one flag per endpoint, clauses comma-separated):
//!
//! ```text
//! --slo /estimate=2ms@p99,err<0.1%
//!        └──┬───┘ └──┬──┘ └───┬──┘
//!        endpoint  latency   error-rate budget
//!                  target    (5xx fraction)
//! ```
//!
//! * The latency clause `<duration>@<quantile>` means "at least `quantile`
//!   of requests complete within `duration`" — durations take `ns`, `us`,
//!   `ms` or `s` suffixes; quantiles are `p50`…`p999` style.
//! * The error clause `err<X%` (or `err<0.001` as a bare fraction) bounds
//!   the 5xx fraction of responses.
//!
//! Each spec is evaluated in one place: its built-in burn-rate alert rule
//! (`slo-burn-<endpoint>`, see [`crate::alerts`]) applies [`SloSpec::burn`]
//! to a fast and a slow window (4× and 16× `--metrics-interval`) of the
//! scraped counters. Once per scraper tick the rule publishes, per
//! endpoint, windowed values:
//!
//! * `serve.slo.compliance.<endpoint>` — good / total requests over the
//!   slow window (see [`SloSpec::good_total`]); 1 when it saw no traffic,
//! * `serve.slo.burn_rate.<endpoint>` — the smaller of the fast and slow
//!   burns, the value that gates the rule; 1.0 = burning exactly the
//!   budget, > 1 in both windows = breach,
//! * `serve.slo.breached.<endpoint>` — 1 exactly while the rule is pending
//!   or firing, else 0,
//! * `serve.slo.breaches` (+ a per-endpoint counter) incremented each time
//!   the rule enters pending.

use sjpl_obs::Snapshot;

use crate::server::endpoint_labels;

/// The response status classes tracked per endpoint.
pub const STATUS_CLASSES: &[&str] = &["2xx", "3xx", "4xx", "5xx"];

/// One parsed `--slo` spec.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Endpoint label (one of [`crate::endpoint_labels`]).
    pub endpoint: String,
    /// Latency target in nanoseconds, when a `<duration>@<quantile>` clause
    /// was given.
    pub latency_ns: Option<u64>,
    /// The quantile the latency target applies at (e.g. `0.99`).
    pub quantile: f64,
    /// Maximum allowed 5xx fraction, when an `err<` clause was given.
    pub max_error_rate: Option<f64>,
}

impl SloSpec {
    /// Parses `/<endpoint>=<clause>[,<clause>...]`. The endpoint must be a
    /// route-table label: a typo'd endpoint would otherwise silently report
    /// an always-compliant SLO over zero requests.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let (lhs, rhs) = s
            .split_once('=')
            .ok_or_else(|| format!("SLO {s:?}: expected <endpoint>=<clauses>"))?;
        let endpoint = lhs.trim().trim_start_matches('/').to_owned();
        if !endpoint_labels().any(|l| l == endpoint) {
            return Err(format!(
                "SLO endpoint {endpoint:?} is not one of {:?}",
                endpoint_labels().collect::<Vec<_>>()
            ));
        }
        let mut spec = SloSpec {
            endpoint,
            latency_ns: None,
            quantile: 0.99,
            max_error_rate: None,
        };
        for clause in rhs.split(',') {
            let clause = clause.trim();
            if let Some(rate) = clause.strip_prefix("err<") {
                spec.max_error_rate = Some(parse_rate(rate)?);
            } else {
                let (dur, q) = clause.split_once('@').ok_or_else(|| {
                    format!("SLO clause {clause:?}: expected <duration>@<quantile> or err<rate>")
                })?;
                spec.latency_ns = Some(parse_duration_ns(dur)?);
                spec.quantile = parse_quantile(q)?;
            }
        }
        Ok(spec)
    }

    /// The cumulative `(good, total)` request counts of this spec's
    /// endpoint in `snap`, summed over every status class. `good` counts
    /// requests within the latency target, or non-5xx responses when the
    /// spec has no latency clause. Both only grow, so the scraper pushes
    /// them as counter series for the burn-rate rule to window.
    pub fn good_total(&self, snap: &Snapshot) -> (u64, u64) {
        let (mut good, mut total) = (0, 0);
        for class in STATUS_CLASSES {
            let name = format!("serve.endpoint.{}.{class}", self.endpoint);
            let Some(series) = snap.span(&name) else {
                continue;
            };
            total += series.count;
            good += match self.latency_ns {
                Some(target) => series.hist.count_le(target).min(series.count),
                None if *class == "5xx" => 0,
                None => series.count,
            };
        }
        (good, total)
    }

    /// How many times faster than allowed a window of `total` requests —
    /// `good` of them within the latency target, `errors` of them 5xx —
    /// spends the error budget:
    /// `max(latency_violation / (1 − quantile), error_rate / err_budget)`.
    /// A clause the spec lacks contributes 0, and an empty window burns 0
    /// (nothing has violated anything yet).
    pub fn burn(&self, good: f64, errors: f64, total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        let latency = match self.latency_ns {
            Some(_) => (1.0 - (good / total).clamp(0.0, 1.0)) / (1.0 - self.quantile).max(1e-9),
            None => 0.0,
        };
        let error = match self.max_error_rate {
            Some(budget) => errors / total / budget.max(1e-9),
            None => 0.0,
        };
        latency.max(error)
    }
}

/// `2ms` / `150us` / `3s` / `1500000ns` → nanoseconds. Shared with the
/// alert-rule grammar (`for 30s` clauses).
pub(crate) fn parse_duration_ns(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        return Err(format!("duration {s:?}: need a ns/us/ms/s suffix"));
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("duration {s:?}: bad number {num:?}"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("duration {s:?} must be positive"));
    }
    Ok((v * mult) as u64)
}

/// `p50` / `p99` / `p999` → 0.5 / 0.99 / 0.999.
fn parse_quantile(s: &str) -> Result<f64, String> {
    let digits = s
        .trim()
        .strip_prefix('p')
        .ok_or_else(|| format!("quantile {s:?}: expected pNN (p50, p99, p999, ...)"))?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "quantile {s:?}: expected pNN (p50, p99, p999, ...)"
        ));
    }
    let q = digits.parse::<f64>().unwrap() / 10f64.powi(digits.len() as i32);
    if q <= 0.0 || q >= 1.0 {
        return Err(format!("quantile {s:?} must be inside (0, 1)"));
    }
    Ok(q)
}

/// `0.1%` → 0.001; a bare number is taken as a fraction.
fn parse_rate(s: &str) -> Result<f64, String> {
    let s = s.trim();
    let (num, div) = match s.strip_suffix('%') {
        Some(n) => (n, 100.0),
        None => (s, 1.0),
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("error rate {s:?}: bad number"))?;
    let rate = v / div;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(format!("error rate {s:?} must be within [0, 100%]"));
    }
    Ok(rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjpl_obs::snapshot::TimingSnapshot;
    use sjpl_obs::LogLinearHistogram;

    #[test]
    fn parses_the_documented_example() {
        let spec = SloSpec::parse("/estimate=2ms@p99,err<0.1%").unwrap();
        assert_eq!(spec.endpoint, "estimate");
        assert_eq!(spec.latency_ns, Some(2_000_000));
        assert_eq!(spec.quantile, 0.99);
        assert_eq!(spec.max_error_rate, Some(0.001));
    }

    #[test]
    fn parses_partial_specs_and_unit_variety() {
        let lat_only = SloSpec::parse("metrics=150us@p95").unwrap();
        assert_eq!(lat_only.latency_ns, Some(150_000));
        assert_eq!(lat_only.quantile, 0.95);
        assert_eq!(lat_only.max_error_rate, None);

        let err_only = SloSpec::parse("/healthz=err<1%").unwrap();
        assert_eq!(err_only.latency_ns, None);
        assert_eq!(err_only.max_error_rate, Some(0.01));

        assert_eq!(SloSpec::parse("/estimate=1s@p999").unwrap().quantile, 0.999);
        assert_eq!(
            SloSpec::parse("/estimate=err<0.05").unwrap().max_error_rate,
            Some(0.05)
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "no-equals",
            "/bogus=1ms@p99",     // unknown endpoint
            "/estimate=2ms",      // missing quantile
            "/estimate=2@p99",    // missing unit
            "/estimate=2ms@99",   // missing p
            "/estimate=2ms@p0",   // q = 0
            "/estimate=err<x",    // bad number
            "/estimate=err<150%", // > 100%
        ] {
            assert!(SloSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    fn series(name: &str, samples: &[u64]) -> TimingSnapshot {
        let mut hist = LogLinearHistogram::new();
        for &s in samples {
            hist.record(s);
        }
        TimingSnapshot {
            name: name.into(),
            count: samples.len() as u64,
            total_ns: samples.iter().sum(),
            min_ns: samples.iter().copied().min().unwrap_or(u64::MAX),
            max_ns: samples.iter().copied().max().unwrap_or(0),
            hist,
        }
    }

    /// `burn` over a snapshot's cumulative counts: the whole history as
    /// one window.
    fn burn_of(spec: &str, snap: &Snapshot) -> f64 {
        let spec = SloSpec::parse(spec).unwrap();
        let (good, total) = spec.good_total(snap);
        let errors = snap
            .span("serve.endpoint.estimate.5xx")
            .map_or(0, |s| s.count);
        spec.burn(good as f64, errors as f64, total as f64)
    }

    #[test]
    fn evaluation_tracks_latency_and_error_budgets() {
        // 9 fast 2xx requests + 1 slow 5xx request.
        let snap = Snapshot {
            spans: vec![
                series("serve.endpoint.estimate.2xx", &[1_000; 9]),
                series("serve.endpoint.estimate.5xx", &[50_000_000]),
            ],
            ..Snapshot::default()
        };

        // p50 @ 1ms: 90% within, allowed violation 50% → burn 0.2.
        let spec = SloSpec::parse("/estimate=1ms@p50").unwrap();
        assert_eq!(spec.good_total(&snap), (9, 10));
        assert!((burn_of("/estimate=1ms@p50", &snap) - 0.2).abs() < 1e-9);

        // p99 @ 1ms: 10% violating vs 1% allowed → burn 10.
        assert!((burn_of("/estimate=1ms@p99", &snap) - 10.0).abs() < 1e-9);

        // err < 5%: observed 10% → burn 2 even though no latency clause
        // was given; good counts the non-5xx responses.
        let spec = SloSpec::parse("/estimate=err<5%").unwrap();
        assert_eq!(spec.good_total(&snap), (9, 10));
        assert!((burn_of("/estimate=err<5%", &snap) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fast_errors_burn_only_the_error_budget() {
        // Every request is fast, so the latency clause is met; only the
        // 5xx fraction burns, against its own 10% budget.
        let spec = SloSpec::parse("/estimate=1s@p99,err<10%").unwrap();
        assert!((spec.burn(100.0, 5.0, 100.0) - 0.5).abs() < 1e-9);
        assert!((spec.burn(100.0, 20.0, 100.0) - 2.0).abs() < 1e-9);
        // 2% slow requests against the 1% latency allowance win the max.
        assert!((spec.burn(98.0, 5.0, 100.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_is_compliant() {
        let spec = SloSpec::parse("/estimate=2ms@p99,err<0.1%").unwrap();
        assert_eq!(spec.good_total(&Snapshot::default()), (0, 0));
        assert_eq!(spec.burn(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn every_route_label_is_an_slo_and_fault_scope() {
        for label in endpoint_labels() {
            assert_eq!(
                SloSpec::parse(&format!("/{label}=5ms@p99"))
                    .unwrap()
                    .endpoint,
                label
            );
            let plan = crate::FaultPlan::parse(&format!("{label}:latency=5ms@0.5"), 1);
            assert!(plan.is_ok(), "{label}: {plan:?}");
        }
    }
}
