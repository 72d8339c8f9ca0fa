//! Rule-driven alerting over the in-process time-series store.
//!
//! Each [`AlertRule`] is a small state machine evaluated once per scrape
//! tick against the [`Tsdb`]:
//!
//! ```text
//! inactive ──cond──▶ pending ──held ≥ for──▶ firing ──cond clears──▶ resolved
//!    ▲                  │                                               │
//!    └──── cond clears ─┘                    resolved ──cond──▶ pending ┘
//! ```
//!
//! `resolved` is sticky on purpose: an alert that fired and cleared stays
//! visible on `/alerts` instead of vanishing, so a post-incident scrape
//! still shows what happened. Every arrow above bumps `alert.transitions`
//! (and `alert.transitions.<name>`); the engine also publishes
//! `alert.evaluations`, `alert.firing` / `alert.pending` gauges, and a
//! per-rule `alert.state.<name>` gauge (0 = inactive … 3 = resolved).
//!
//! Three rule sources:
//! * **Declarative** (`--alert 'name: expr op threshold for 30s'`): any
//!   [`QueryExpr`] compared against a constant, with an optional hold.
//! * **SLO burn rate** (built-in, one per `--slo`): the multi-window rule,
//!   and the only SLO evaluation. The scraper maintains two synthetic
//!   cumulative series per SLO endpoint — `serve.slo.good.<ep>` and
//!   `serve.slo.total.<ep>` ([`SloSpec::good_total`]) — and the TSDB
//!   already ingests the endpoint's `serve.endpoint.<ep>.5xx.count`. The
//!   rule applies [`SloSpec::burn`] to their increase over a fast and a
//!   slow window (4× / 16× the scrape interval — the 5m/1h pair scaled to
//!   test time) and fires only when the budget burns faster than 1× in
//!   *both*. The short window makes firing prompt; the long window keeps
//!   one spike from paging; requiring both makes resolution automatic once
//!   traffic is healthy again. Each tick it also publishes the windowed
//!   `serve.slo.*` gauges and breach counters (see [`crate::slo`]).
//! * **Drift** (built-in, one per drift-probed law), and the only drift
//!   decision: `serve.drift.rel_error.<law> > budget` on the latest
//!   sample, with no hold. The drift thread only measures that rolling
//!   mean error (see [`crate::drift`]); the rule writes
//!   `serve.drift.breached.<law>` (1 exactly while pending or firing), and
//!   bumps `serve.drift.breaches` and records a `serve.drift.breach` event
//!   on each entry into pending.

use std::sync::Mutex;

use sjpl_obs::json::{escape, number};
use sjpl_obs::tsdb::{QueryExpr, Tsdb};
use sjpl_obs::AlertSnapshot;

use crate::slo::{parse_duration_ns, SloSpec};

/// Prefix of the synthetic "requests that met the SLO target" cumulative
/// series the scraper pushes (suffix: endpoint label).
pub const SLO_GOOD_PREFIX: &str = "serve.slo.good.";
/// Prefix of the synthetic "all requests" cumulative series (suffix:
/// endpoint label).
pub const SLO_TOTAL_PREFIX: &str = "serve.slo.total.";

/// Prefix of the drift thread's rolling mean relative error gauge (suffix:
/// law name), the series the `drift-<law>` rules read.
const DRIFT_ERROR_PREFIX: &str = "serve.drift.rel_error.";

/// Comparison operator of a declarative rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl CmpOp {
    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            CmpOp::Gt => value > threshold,
            CmpOp::Lt => value < threshold,
            CmpOp::Ge => value >= threshold,
            CmpOp::Le => value <= threshold,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
        }
    }
}

/// What a rule tests each tick.
#[derive(Clone, Debug)]
pub enum AlertCondition {
    /// A query expression compared against a constant threshold. A missing
    /// series (no data yet) evaluates to false, not to an error.
    Threshold {
        /// The expression to evaluate.
        expr: QueryExpr,
        /// The comparison operator.
        op: CmpOp,
        /// The constant to compare against.
        threshold: f64,
    },
    /// The built-in multi-window SLO burn-rate condition: true when the
    /// budget burn exceeds 1× in both the fast and the slow window.
    BurnRate {
        /// The SLO whose budget burns.
        spec: SloSpec,
        /// Fast window, milliseconds.
        fast_ms: u64,
        /// Slow window, milliseconds.
        slow_ms: u64,
    },
    /// The built-in drift condition: the law's rolling mean relative error
    /// (latest sample) exceeds the error budget.
    Drift {
        /// Catalog key of the probed law.
        law: String,
        /// Mean relative error above which the law counts as drifted.
        budget: f64,
    },
}

/// The observable lifecycle of one alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// Condition has never held (or cleared before firing).
    Inactive,
    /// Condition holds but has not yet been held for `for_ms`.
    Pending,
    /// Condition held long enough; the alert is active.
    Firing,
    /// The alert fired and the condition cleared (sticky).
    Resolved,
}

impl AlertState {
    /// Lowercase wire name (`/alerts` JSON, `ALERTS{state=...}`).
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    fn as_gauge(self) -> f64 {
        match self {
            AlertState::Inactive => 0.0,
            AlertState::Pending => 1.0,
            AlertState::Firing => 2.0,
            AlertState::Resolved => 3.0,
        }
    }
}

/// One alert rule: a name, a condition, and a hold duration.
#[derive(Clone, Debug)]
pub struct AlertRule {
    /// Rule name (the `alertname` label; also keys the per-rule metrics).
    pub name: String,
    /// The condition, rendered back in rule grammar for display.
    pub expr_text: String,
    /// What the rule tests.
    pub condition: AlertCondition,
    /// How long the condition must hold before pending becomes firing.
    pub for_ms: u64,
    /// Display threshold (the rule's constant; 1.0 for burn-rate rules).
    pub threshold: f64,
}

impl AlertRule {
    /// Parses the declarative rule grammar:
    /// `name: expr op threshold [for <duration>]`, e.g.
    /// `hot: rate(serve.requests[10s]) > 100 for 30s`. Operators are
    /// `>`, `<`, `>=`, `<=`; the expression is the `/query` grammar;
    /// durations take `ns`/`us`/`ms`/`s` suffixes.
    pub fn parse(spec: &str) -> Result<AlertRule, String> {
        let (name, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("alert rule {spec:?}: expected 'name: expr op threshold'"))?;
        let name = name.trim();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "alert rule {spec:?}: name must be non-empty [a-zA-Z0-9_-]"
            ));
        }
        let rest = rest.trim();
        // Longest operators first so ">=" is not read as ">" then "=".
        let (op_at, op) = [
            (">=", CmpOp::Ge),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            ("<", CmpOp::Lt),
        ]
        .iter()
        .find_map(|&(tok, op)| rest.find(tok).map(|i| ((i, tok.len()), op)))
        .ok_or_else(|| format!("alert rule {spec:?}: no comparison operator (>, <, >=, <=)"))?;
        let expr_text = rest[..op_at.0].trim();
        let expr = QueryExpr::parse(expr_text).map_err(|e| format!("alert rule {spec:?}: {e}"))?;
        let tail = rest[op_at.0 + op_at.1..].trim();
        let (threshold_text, for_ms) = match tail.split_once(" for ") {
            Some((t, dur)) => (
                t.trim(),
                parse_duration_ns(dur.trim()).map_err(|e| format!("alert rule {spec:?}: {e}"))?
                    / 1_000_000,
            ),
            None => (tail, 0),
        };
        let threshold: f64 = threshold_text.parse().map_err(|_| {
            format!("alert rule {spec:?}: threshold {threshold_text:?} is not a number")
        })?;
        if !threshold.is_finite() {
            return Err(format!("alert rule {spec:?}: threshold must be finite"));
        }
        Ok(AlertRule {
            name: name.to_owned(),
            expr_text: format!("{} {} {}", expr_text, op.as_str(), threshold),
            condition: AlertCondition::Threshold {
                expr,
                op,
                threshold,
            },
            for_ms,
            threshold,
        })
    }

    /// The built-in multi-window burn-rate rule for one SLO, with windows
    /// scaled from the scrape interval (fast = 4×, slow = 16×, hold = 2×).
    pub fn burn_rate(spec: &SloSpec, interval_ms: u64) -> AlertRule {
        let interval_ms = interval_ms.max(1);
        let fast_ms = interval_ms * 4;
        let slow_ms = interval_ms * 16;
        AlertRule {
            name: format!("slo-burn-{}", spec.endpoint),
            expr_text: format!(
                "burn_rate({}; windows {}ms/{}ms) > 1",
                spec.endpoint, fast_ms, slow_ms
            ),
            condition: AlertCondition::BurnRate {
                spec: spec.clone(),
                fast_ms,
                slow_ms,
            },
            for_ms: interval_ms * 2,
            threshold: 1.0,
        }
    }

    /// The built-in drift rule for one probed law: holds while the drift
    /// thread's latest rolling mean error exceeds `error_budget`.
    pub fn drift(law: &str, error_budget: f64) -> AlertRule {
        AlertRule {
            name: format!("drift-{law}"),
            expr_text: format!("{DRIFT_ERROR_PREFIX}{law} > {error_budget}"),
            condition: AlertCondition::Drift {
                law: law.to_owned(),
                budget: error_budget,
            },
            for_ms: 0,
            threshold: error_budget,
        }
    }

    /// Evaluates the condition: `(current value, does it hold?, slow-window
    /// SLO compliance)`; the compliance is `Some` for burn-rate rules only.
    fn probe(&self, tsdb: &Tsdb, now_ms: u64) -> (f64, bool, Option<f64>) {
        match &self.condition {
            AlertCondition::Threshold {
                expr,
                op,
                threshold,
            } => {
                let value = tsdb.query(expr, now_ms).map_or(0.0, |r| r.value);
                (value, op.holds(value, *threshold), None)
            }
            AlertCondition::BurnRate {
                spec,
                fast_ms,
                slow_ms,
            } => {
                let ep = &spec.endpoint;
                let increase = |series: String, window_ms: u64| {
                    tsdb.query(&QueryExpr::Increase(series, window_ms), now_ms)
                        .map_or(0.0, |r| r.value)
                };
                // (burn, good, total) over one window.
                let window = |window_ms: u64| {
                    let good = increase(format!("{SLO_GOOD_PREFIX}{ep}"), window_ms);
                    let total = increase(format!("{SLO_TOTAL_PREFIX}{ep}"), window_ms);
                    let errors = increase(format!("serve.endpoint.{ep}.5xx.count"), window_ms);
                    (spec.burn(good, errors, total), good, total)
                };
                let (fast, ..) = window(*fast_ms);
                let (slow, good, total) = window(*slow_ms);
                let compliance = if total > 0.0 { good / total } else { 1.0 };
                // Both windows must burn: report the gating (smaller) one.
                (fast.min(slow), fast > 1.0 && slow > 1.0, Some(compliance))
            }
            AlertCondition::Drift { law, budget } => {
                let series = QueryExpr::Latest(format!("{DRIFT_ERROR_PREFIX}{law}"));
                let value = tsdb.query(&series, now_ms).map_or(0.0, |r| r.value);
                (value, value > *budget, None)
            }
        }
    }
}

struct ActiveAlert {
    rule: AlertRule,
    state: AlertState,
    since_ms: u64,
    pending_since_ms: u64,
    value: f64,
    transitions: u64,
}

impl ActiveAlert {
    fn transition(&mut self, to: AlertState, now_ms: u64) {
        self.state = to;
        self.since_ms = now_ms;
        self.transitions += 1;
        sjpl_obs::counter_add("alert.transitions", 1);
        sjpl_obs::counter_add_named(format!("alert.transitions.{}", self.rule.name), 1);
    }
}

/// The alert engine: owns every rule's state, evaluated by the scraper
/// thread and read by `/alerts`, `/metrics`, and `/snapshot` workers.
pub struct AlertEngine {
    alerts: Mutex<Vec<ActiveAlert>>,
}

impl AlertEngine {
    /// An engine over a fixed rule set (rules are fixed at daemon start).
    pub fn new(rules: Vec<AlertRule>) -> Self {
        AlertEngine {
            alerts: Mutex::new(
                rules
                    .into_iter()
                    .map(|rule| ActiveAlert {
                        rule,
                        state: AlertState::Inactive,
                        since_ms: 0,
                        pending_since_ms: 0,
                        value: 0.0,
                        transitions: 0,
                    })
                    .collect(),
            ),
        }
    }

    /// Number of configured rules.
    pub fn rule_count(&self) -> usize {
        self.alerts.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Runs one evaluation pass over every rule and publishes the
    /// `alert.*` counters and gauges.
    pub fn evaluate(&self, tsdb: &Tsdb, now_ms: u64) {
        let mut alerts = self.alerts.lock().unwrap_or_else(|p| p.into_inner());
        let (mut firing, mut pending) = (0u64, 0u64);
        for a in alerts.iter_mut() {
            sjpl_obs::counter_add("alert.evaluations", 1);
            let (value, holds, compliance) = a.rule.probe(tsdb, now_ms);
            a.value = value;
            let mut entered_pending = false;
            if holds {
                match a.state {
                    AlertState::Inactive | AlertState::Resolved => {
                        a.pending_since_ms = now_ms;
                        a.transition(AlertState::Pending, now_ms);
                        entered_pending = true;
                    }
                    AlertState::Pending | AlertState::Firing => {}
                }
                if a.state == AlertState::Pending
                    && now_ms.saturating_sub(a.pending_since_ms) >= a.rule.for_ms
                {
                    a.transition(AlertState::Firing, now_ms);
                }
            } else {
                match a.state {
                    // A pending alert that clears never fired: back to
                    // inactive, not to resolved.
                    AlertState::Pending => a.transition(AlertState::Inactive, now_ms),
                    AlertState::Firing => a.transition(AlertState::Resolved, now_ms),
                    AlertState::Inactive | AlertState::Resolved => {}
                }
            }
            let active = matches!(a.state, AlertState::Pending | AlertState::Firing);
            match a.state {
                AlertState::Firing => firing += 1,
                AlertState::Pending => pending += 1,
                _ => {}
            }
            sjpl_obs::gauge_set_named(format!("alert.state.{}", a.rule.name), a.state.as_gauge());
            let breached = if active { 1.0 } else { 0.0 };
            match (&a.rule.condition, compliance) {
                (AlertCondition::BurnRate { spec, .. }, Some(compliance)) => {
                    let ep = &spec.endpoint;
                    sjpl_obs::gauge_set_named(format!("serve.slo.compliance.{ep}"), compliance);
                    sjpl_obs::gauge_set_named(format!("serve.slo.burn_rate.{ep}"), value);
                    sjpl_obs::gauge_set_named(format!("serve.slo.breached.{ep}"), breached);
                    if entered_pending {
                        sjpl_obs::counter_add("serve.slo.breaches", 1);
                        sjpl_obs::counter_add_named(format!("serve.slo.breaches.{ep}"), 1);
                    }
                }
                (AlertCondition::Drift { law, budget }, _) => {
                    sjpl_obs::gauge_set_named(format!("serve.drift.breached.{law}"), breached);
                    if entered_pending {
                        sjpl_obs::counter_add("serve.drift.breaches", 1);
                        sjpl_obs::event(
                            "serve.drift.breach",
                            format!(
                                "law {law}: rolling mean rel error {value:.4} \
                                 exceeds budget {budget:.4}"
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
        sjpl_obs::gauge_set("alert.firing", firing as f64);
        sjpl_obs::gauge_set("alert.pending", pending as f64);
    }

    /// Every alert's externally visible state.
    pub fn snapshots(&self) -> Vec<AlertSnapshot> {
        let alerts = self.alerts.lock().unwrap_or_else(|p| p.into_inner());
        alerts
            .iter()
            .map(|a| AlertSnapshot {
                name: a.rule.name.clone(),
                state: a.state.as_str().to_owned(),
                expr: a.rule.expr_text.clone(),
                value: a.value,
                threshold: a.rule.threshold,
                since_ms: a.since_ms,
                for_ms: a.rule.for_ms,
                transitions: a.transitions,
            })
            .collect()
    }

    /// The `GET /alerts` body (schema 1).
    pub fn to_json(&self) -> String {
        let snaps = self.snapshots();
        let mut out = String::from("{\n  \"schema\": 1,\n  \"alerts\": [\n");
        for (i, a) in snaps.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"state\": \"{}\", \"expr\": \"{}\", \
                 \"value\": {}, \"threshold\": {}, \"since_ms\": {}, \
                 \"for_ms\": {}, \"transitions\": {}}}{}\n",
                escape(&a.name),
                a.state,
                escape(&a.expr),
                number(a.value),
                number(a.threshold),
                a.since_ms,
                a.for_ms,
                a.transitions,
                if i + 1 < snaps.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// `ALERTS{alertname,state}` exposition lines for `/metrics` (pending
    /// and firing rules only, Prometheus-style). Empty when nothing is
    /// active.
    pub fn prometheus_lines(&self) -> String {
        let active: Vec<AlertSnapshot> = self
            .snapshots()
            .into_iter()
            .filter(|a| a.state == "pending" || a.state == "firing")
            .collect();
        if active.is_empty() {
            return String::new();
        }
        let mut out = String::from(
            "# HELP ALERTS Alert-engine rules currently pending or firing.\n\
             # TYPE ALERTS gauge\n",
        );
        for a in &active {
            out.push_str(&format!(
                "ALERTS{{alertname=\"{}\",state=\"{}\"}} 1\n",
                sjpl_obs::prometheus::label_escape(&a.name),
                a.state,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjpl_obs::tsdb::SeriesKind;

    #[test]
    fn rule_grammar_parses_operators_holds_and_rejects() {
        let r = AlertRule::parse("hot: rate(serve.requests[10s]) > 100 for 30s").unwrap();
        assert_eq!(r.name, "hot");
        assert_eq!(r.for_ms, 30_000);
        assert_eq!(r.threshold, 100.0);
        match &r.condition {
            AlertCondition::Threshold { expr, op, .. } => {
                assert_eq!(*expr, QueryExpr::Rate("serve.requests".into(), 10_000));
                assert_eq!(*op, CmpOp::Gt);
            }
            other => panic!("unexpected condition {other:?}"),
        }

        let r = AlertRule::parse("low_inflight: serve.inflight <= 0.5").unwrap();
        assert_eq!(r.for_ms, 0);
        match &r.condition {
            AlertCondition::Threshold { op, .. } => assert_eq!(*op, CmpOp::Le),
            other => panic!("unexpected condition {other:?}"),
        }

        for bad in [
            "no-colon rate(x[1s]) > 1",
            ": rate(x[1s]) > 1",
            "bad name!: rate(x[1s]) > 1",
            "x: rate(x[1s]) 1",
            "x: rate(x[1s]) > nope",
            "x: rate(x[1s]) > 1 for soon",
            "x: frob(x[1s]) > 1",
        ] {
            assert!(AlertRule::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn planted_breach_walks_pending_firing_resolved_with_exact_transitions() {
        let tsdb = Tsdb::new(64);
        // Threshold rule with a 2s hold over a gauge we control directly.
        let rule = AlertRule::parse("breach: max(probe[10s]) >= 5 for 2s").unwrap();
        let engine = AlertEngine::new(vec![rule]);

        // Healthy: stays inactive, zero transitions.
        tsdb.push("probe", SeriesKind::Gauge, 1_000, 1.0);
        engine.evaluate(&tsdb, 1_000);
        let s = &engine.snapshots()[0];
        assert_eq!((s.state.as_str(), s.transitions), ("inactive", 0));

        // Breach: pending immediately, not yet firing (hold not met).
        tsdb.push("probe", SeriesKind::Gauge, 2_000, 9.0);
        engine.evaluate(&tsdb, 2_000);
        let s = &engine.snapshots()[0];
        assert_eq!((s.state.as_str(), s.transitions), ("pending", 1));
        assert_eq!(s.value, 9.0);

        // Still breached past the hold: firing.
        tsdb.push("probe", SeriesKind::Gauge, 4_500, 9.0);
        engine.evaluate(&tsdb, 4_500);
        let s = &engine.snapshots()[0];
        assert_eq!((s.state.as_str(), s.transitions), ("firing", 2));

        // Breach clears (stale samples age out of the window): resolved,
        // exactly three transitions end to end.
        engine.evaluate(&tsdb, 60_000);
        let s = &engine.snapshots()[0];
        assert_eq!((s.state.as_str(), s.transitions), ("resolved", 3));

        // A fresh breach re-enters through pending, not firing.
        tsdb.push("probe", SeriesKind::Gauge, 70_000, 9.0);
        engine.evaluate(&tsdb, 70_000);
        assert_eq!(engine.snapshots()[0].state, "pending");
    }

    #[test]
    fn pending_that_clears_returns_to_inactive() {
        let tsdb = Tsdb::new(64);
        let rule = AlertRule::parse("blip: max(probe[5s]) >= 5 for 60s").unwrap();
        let engine = AlertEngine::new(vec![rule]);
        tsdb.push("probe", SeriesKind::Gauge, 1_000, 9.0);
        engine.evaluate(&tsdb, 1_000);
        assert_eq!(engine.snapshots()[0].state, "pending");
        engine.evaluate(&tsdb, 30_000); // sample aged out, hold unmet
        let s = &engine.snapshots()[0];
        assert_eq!((s.state.as_str(), s.transitions), ("inactive", 2));
    }

    #[test]
    fn burn_rate_needs_both_windows_and_resolves_when_traffic_heals() {
        let spec = SloSpec::parse("/estimate=2ms@p99").unwrap();
        let rule = AlertRule::burn_rate(&spec, 1_000);
        assert_eq!(rule.name, "slo-burn-estimate");
        assert_eq!(rule.for_ms, 2_000);
        let engine = AlertEngine::new(vec![rule]);
        let tsdb = Tsdb::new(64);

        // 100% good traffic: burn 0 in both windows.
        let mut good = 0.0;
        let mut total = 0.0;
        for t in 0..8u64 {
            good += 10.0;
            total += 10.0;
            tsdb.push(
                "serve.slo.good.estimate",
                SeriesKind::Counter,
                t * 1_000,
                good,
            );
            tsdb.push(
                "serve.slo.total.estimate",
                SeriesKind::Counter,
                t * 1_000,
                total,
            );
            engine.evaluate(&tsdb, t * 1_000);
        }
        assert_eq!(engine.snapshots()[0].state, "inactive");

        // Every request now violates the target: both windows burn at
        // 1/budget = 100×; pending, then firing after the 2s hold.
        for t in 8..14u64 {
            total += 10.0;
            tsdb.push(
                "serve.slo.good.estimate",
                SeriesKind::Counter,
                t * 1_000,
                good,
            );
            tsdb.push(
                "serve.slo.total.estimate",
                SeriesKind::Counter,
                t * 1_000,
                total,
            );
            engine.evaluate(&tsdb, t * 1_000);
        }
        let s = &engine.snapshots()[0];
        assert_eq!(s.state, "firing");
        assert!(s.value > 1.0, "burn {}", s.value);

        // Traffic stops entirely: empty windows burn 0 → resolved.
        engine.evaluate(&tsdb, 60_000);
        assert_eq!(engine.snapshots()[0].state, "resolved");
    }

    /// Pushes one scrape's cumulative SLO counters for `ep` at `t_ms`.
    fn push_slo(tsdb: &Tsdb, ep: &str, t_ms: u64, good: f64, errors: f64, total: f64) {
        tsdb.push(
            &format!("{SLO_GOOD_PREFIX}{ep}"),
            SeriesKind::Counter,
            t_ms,
            good,
        );
        tsdb.push(
            &format!("{SLO_TOTAL_PREFIX}{ep}"),
            SeriesKind::Counter,
            t_ms,
            total,
        );
        let errors_series = format!("serve.endpoint.{ep}.5xx.count");
        tsdb.push(&errors_series, SeriesKind::Counter, t_ms, errors);
    }

    #[test]
    fn fast_errors_burn_the_error_budget_not_the_latency_budget() {
        sjpl_obs::set_enabled(true);
        // No other test here uses the query endpoint.
        let spec = SloSpec::parse("/query=1s@p99,err<10%").unwrap();
        for (errors_per_tick, burn, state, breached) in
            [(5.0, 0.5, "inactive", 0.0), (20.0, 2.0, "firing", 1.0)]
        {
            let engine = AlertEngine::new(vec![AlertRule::burn_rate(&spec, 1_000)]);
            let tsdb = Tsdb::new(64);
            // 100 fast requests per tick, `errors_per_tick` of them 5xx.
            for t in 0..20u64 {
                let n = (t + 1) as f64;
                push_slo(
                    &tsdb,
                    "query",
                    t * 1_000,
                    100.0 * n,
                    errors_per_tick * n,
                    100.0 * n,
                );
                engine.evaluate(&tsdb, t * 1_000);
            }
            let s = &engine.snapshots()[0];
            assert_eq!(s.state, state);
            assert!((s.value - burn).abs() < 1e-9, "burn {}", s.value);
            let snap = sjpl_obs::snapshot();
            assert_eq!(snap.gauge("serve.slo.breached.query"), Some(breached));
            assert_eq!(snap.gauge("serve.slo.burn_rate.query"), Some(s.value));
            assert_eq!(snap.gauge("serve.slo.compliance.query"), Some(1.0));
        }
    }

    #[test]
    fn breached_gauge_returns_to_zero_after_recovery() {
        sjpl_obs::set_enabled(true);
        // No other test here uses the exemplars endpoint.
        let spec = SloSpec::parse("/exemplars=10ms@p99").unwrap();
        let engine = AlertEngine::new(vec![AlertRule::burn_rate(&spec, 1_000)]);
        let tsdb = Tsdb::new(64);
        let breached = || sjpl_obs::snapshot().gauge("serve.slo.breached.exemplars");
        let (mut good, mut total) = (0.0, 0.0);
        // Healthy, then a planted breach: every request misses the target.
        for t in 0..14u64 {
            total += 10.0;
            if t < 8 {
                good += 10.0;
            }
            push_slo(&tsdb, "exemplars", t * 1_000, good, 0.0, total);
            engine.evaluate(&tsdb, t * 1_000);
        }
        assert_eq!(engine.snapshots()[0].state, "firing");
        assert_eq!(breached(), Some(1.0));

        // Healthy traffic again: the gauge clears within the slow window.
        let mut cleared_at = None;
        for t in 14..14 + 16u64 {
            good += 10.0;
            total += 10.0;
            push_slo(&tsdb, "exemplars", t * 1_000, good, 0.0, total);
            engine.evaluate(&tsdb, t * 1_000);
            if breached() == Some(0.0) {
                cleared_at = Some(t);
                break;
            }
        }
        assert!(cleared_at.is_some(), "breached never returned to 0");
        assert_eq!(engine.snapshots()[0].state, "resolved");
        let snap = sjpl_obs::snapshot();
        assert!(snap.gauge("serve.slo.compliance.exemplars").unwrap() < 1.0);
        // One episode, one entry into pending.
        assert_eq!(snap.counter("serve.slo.breaches.exemplars"), Some(1));
    }

    /// Serializes the tests that move the process-wide
    /// `serve.drift.breaches` counter, so each can count its own breaches.
    static DRIFT_BREACHES: Mutex<()> = Mutex::new(());

    /// Pushes one scrape of `law`'s rolling mean error and evaluates.
    fn drift_tick(engine: &AlertEngine, tsdb: &Tsdb, law: &str, t_ms: u64, rel_error: f64) {
        let series = format!("serve.drift.rel_error.{law}");
        tsdb.push(&series, SeriesKind::Gauge, t_ms, rel_error);
        engine.evaluate(tsdb, t_ms);
    }

    #[test]
    fn drift_rule_fires_on_the_breached_gauge() {
        let _serial = DRIFT_BREACHES.lock().unwrap_or_else(|p| p.into_inner());
        sjpl_obs::set_enabled(true);
        let rule = AlertRule::drift("uniform", 0.5);
        assert_eq!(rule.name, "drift-uniform");
        assert_eq!(rule.expr_text, "serve.drift.rel_error.uniform > 0.5");
        assert_eq!((rule.for_ms, rule.threshold), (0, 0.5));
        let engine = AlertEngine::new(vec![rule]);
        let tsdb = Tsdb::new(16);
        // No error measured yet: nothing to decide, the gauge reads 0.
        engine.evaluate(&tsdb, 500);
        assert_eq!(engine.snapshots()[0].state, "inactive");
        let breached = || sjpl_obs::snapshot().gauge("serve.drift.breached.uniform");
        assert_eq!(breached(), Some(0.0));
        // for_ms = 0: straight through pending to firing in one pass.
        drift_tick(&engine, &tsdb, "uniform", 1_000, 0.75);
        let s = &engine.snapshots()[0];
        assert_eq!((s.state.as_str(), s.value), ("firing", 0.75));
        assert_eq!(breached(), Some(1.0));
        // Exactly at the budget is not over it.
        drift_tick(&engine, &tsdb, "uniform", 2_000, 0.5);
        assert_eq!(engine.snapshots()[0].state, "resolved");
        assert_eq!(breached(), Some(0.0));
    }

    #[test]
    fn drift_rule_and_breached_gauge_clear_together() {
        let _serial = DRIFT_BREACHES.lock().unwrap_or_else(|p| p.into_inner());
        sjpl_obs::set_enabled(true);
        // No other test probes this law.
        let law = "clears";
        let engine = AlertEngine::new(vec![AlertRule::drift(law, 0.25)]);
        let tsdb = Tsdb::new(16);
        let read = || {
            let snap = sjpl_obs::snapshot();
            let events = snap
                .events
                .iter()
                .filter(|e| {
                    e.name == "serve.drift.breach" && e.detail.starts_with(&format!("law {law}:"))
                })
                .count();
            (
                snap.gauge(&format!("serve.drift.breached.{law}")),
                snap.counter("serve.drift.breaches").unwrap_or(0),
                events,
            )
        };
        drift_tick(&engine, &tsdb, law, 1_000, 0.1);
        assert_eq!(engine.snapshots()[0].state, "inactive");
        let (breached, breaches0, events0) = read();
        assert_eq!(breached, Some(0.0));

        // The error rises above the budget: one decision, three outputs.
        drift_tick(&engine, &tsdb, law, 2_000, 0.9);
        assert_eq!(engine.snapshots()[0].state, "firing");
        let (breached, breaches, events) = read();
        assert_eq!(breached, Some(1.0));
        assert_eq!((breaches - breaches0, events - events0), (1, 1));

        // Still over: no second breach for the same episode.
        drift_tick(&engine, &tsdb, law, 3_000, 0.8);
        let (breached, breaches, events) = read();
        assert_eq!(breached, Some(1.0));
        assert_eq!((breaches - breaches0, events - events0), (1, 1));

        // Back under the budget: the rule resolves and the gauge clears on
        // the same tick.
        drift_tick(&engine, &tsdb, law, 4_000, 0.1);
        assert_eq!(engine.snapshots()[0].state, "resolved");
        let (breached, breaches, _) = read();
        assert_eq!(breached, Some(0.0));
        assert_eq!(breaches - breaches0, 1);
    }

    #[test]
    fn json_and_exposition_render_active_alerts() {
        let tsdb = Tsdb::new(16);
        let engine = AlertEngine::new(vec![
            AlertRule::parse("loud: max(g[10s]) >= 1").unwrap(),
            AlertRule::parse("quiet: max(g[10s]) >= 100").unwrap(),
        ]);
        tsdb.push("g", SeriesKind::Gauge, 500, 2.0);
        engine.evaluate(&tsdb, 500);

        let json = engine.to_json();
        let doc = sjpl_obs::json::Json::parse(&json).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_f64(), Some(1.0));
        let alerts = doc.get("alerts").unwrap().as_array().unwrap();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].get("name").unwrap().as_str(), Some("loud"));
        assert_eq!(alerts[0].get("state").unwrap().as_str(), Some("firing"));
        assert_eq!(alerts[1].get("state").unwrap().as_str(), Some("inactive"));

        let prom = engine.prometheus_lines();
        assert!(prom.contains("# TYPE ALERTS gauge"), "{prom}");
        assert!(
            prom.contains("ALERTS{alertname=\"loud\",state=\"firing\"} 1"),
            "{prom}"
        );
        assert!(
            !prom.contains("quiet"),
            "inactive rules must not render: {prom}"
        );

        // Nothing active → no ALERTS block at all (comment-only blocks are
        // not valid exposition for our scraper checks).
        let idle = AlertEngine::new(vec![AlertRule::parse("x: max(g[1s]) > 9").unwrap()]);
        assert_eq!(idle.prometheus_lines(), "");
    }
}
