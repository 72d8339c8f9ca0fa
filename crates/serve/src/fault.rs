//! Deterministic fault injection for the serve tier.
//!
//! A [`FaultPlan`] is parsed from a compact spec such as
//! `estimate:latency=50ms@0.1,accept:reset@0.02,write:torn@0.01` and
//! threaded through the request lifecycle: the server asks the plan at
//! each stage ([`Stage::Accept`] / [`Stage::Read`] / [`Stage::Handle`] /
//! [`Stage::Write`]) whether a fault fires for this pass. Draws come from
//! a per-rule seeded PRNG, so the k-th draw against a rule yields the same
//! verdict no matter which worker thread takes it — run the same request
//! sequence twice and the injected-fault counters match exactly, which is
//! what lets tests assert precise counts instead of "roughly 10%".
//!
//! Every fired fault is recorded three ways before the damage is done:
//! the `serve.faults.injected` total, a per-rule
//! `serve.faults.<scope>.<kind>` counter, and a `serve.fault` event naming
//! the rule — so a chaos run can be reconciled against its plan from the
//! `/metrics` exposition alone.

use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

use crate::server::endpoint_labels;

/// Where in the request lifecycle a fault rule applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Right after `accept()` returns, before the connection is served.
    Accept,
    /// After request bytes arrive, before the request is parsed.
    Read,
    /// After parsing, before (or instead of) the endpoint handler.
    Handle,
    /// Before the response bytes are written back.
    Write,
}

impl Stage {
    fn label(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Read => "read",
            Stage::Handle => "handle",
            Stage::Write => "write",
        }
    }
}

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Sleep this long before continuing normally.
    Latency(Duration),
    /// Drop the connection without a (full) response.
    Reset,
    /// Write roughly half the response bytes, then drop the connection
    /// (write stage only).
    Torn,
    /// Panic inside the handler (handle stage only) — exercises the
    /// `catch_unwind` containment path.
    Panic,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Latency(_) => "latency",
            FaultKind::Reset => "reset",
            FaultKind::Torn => "torn",
            FaultKind::Panic => "panic",
        }
    }
}

/// SplitMix64 — a tiny, high-quality, dependency-free PRNG. The serve
/// crate has no runtime `rand` dependency and a Bernoulli draw needs no
/// more than this.
#[derive(Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` (53 mantissa bits).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One parsed rule: stage (plus optional endpoint scope), kind,
/// probability, and its own seeded draw stream.
#[derive(Debug)]
pub struct FaultRule {
    /// The lifecycle stage this rule is consulted at.
    pub stage: Stage,
    /// For handle-stage rules written as `<endpoint>:<kind>@<p>`, the
    /// endpoint label the rule is scoped to; `None` matches every pass of
    /// the stage.
    pub endpoint: Option<String>,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// Per-draw fire probability in `[0, 1]`.
    pub probability: f64,
    /// `serve.faults.<scope>.<kind>` — the per-rule counter name.
    counter: String,
    rng: Mutex<SplitMix64>,
}

impl FaultRule {
    /// The scope token as written in the plan (`accept`, `write`, an
    /// endpoint label, ...).
    fn scope(&self) -> &str {
        self.endpoint
            .as_deref()
            .unwrap_or_else(|| self.stage.label())
    }

    /// Draws once against this rule's stream. The stream advances on every
    /// draw whether or not the rule fires, so fire counts over N matching
    /// passes are a pure function of (seed, N).
    fn draw(&self) -> bool {
        let mut rng = self.rng.lock().unwrap_or_else(|p| p.into_inner());
        rng.next_f64() < self.probability
    }
}

/// A seeded set of fault rules, consulted by the server at each lifecycle
/// stage.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses a comma-separated plan. Each rule is
    /// `<scope>:<kind>[=<value>]@<probability>` where `<scope>` is a
    /// lifecycle stage (`accept`, `read`, `handle`, `write`) or an
    /// endpoint label ([`crate::endpoint_labels`]) meaning "handle stage,
    /// that endpoint only". Kinds: `latency=<dur>` (`us`,
    /// `ms` or `s` suffix; any stage), `reset` (any stage), `torn` (write
    /// stage only), `panic` (handle stage only). Each rule draws from its
    /// own PRNG seeded from `seed` and the rule's index, so reordering
    /// rules changes the streams but thread interleaving never does.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for (i, raw) in spec.split(',').enumerate() {
            let raw = raw.trim();
            if raw.is_empty() {
                return Err(format!("fault rule {} is empty", i + 1));
            }
            let (scope, rest) = raw
                .split_once(':')
                .ok_or_else(|| format!("fault rule {raw:?}: expected <scope>:<kind>@<prob>"))?;
            let (kind_str, prob_str) = rest
                .rsplit_once('@')
                .ok_or_else(|| format!("fault rule {raw:?}: missing @<probability>"))?;
            let probability: f64 = prob_str
                .parse()
                .map_err(|_| format!("fault rule {raw:?}: bad probability {prob_str:?}"))?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!(
                    "fault rule {raw:?}: probability {probability} not in [0, 1]"
                ));
            }
            let kind = match kind_str.split_once('=') {
                Some(("latency", dur)) => FaultKind::Latency(
                    parse_duration(dur).map_err(|e| format!("fault rule {raw:?}: {e}"))?,
                ),
                None => match kind_str {
                    "reset" => FaultKind::Reset,
                    "torn" => FaultKind::Torn,
                    "panic" => FaultKind::Panic,
                    "latency" => {
                        return Err(format!(
                            "fault rule {raw:?}: latency needs a duration (latency=50ms)"
                        ))
                    }
                    other => return Err(format!("fault rule {raw:?}: unknown kind {other:?}")),
                },
                Some((other, _)) => {
                    return Err(format!(
                        "fault rule {raw:?}: kind {other:?} takes no =value"
                    ))
                }
            };
            let (stage, endpoint) = match scope {
                "accept" => (Stage::Accept, None),
                "read" => (Stage::Read, None),
                "handle" => (Stage::Handle, None),
                "write" => (Stage::Write, None),
                ep if endpoint_labels().any(|l| l == ep) => (Stage::Handle, Some(ep.to_owned())),
                other => {
                    return Err(format!(
                        "fault rule {raw:?}: unknown scope {other:?} (stage or endpoint label)"
                    ))
                }
            };
            match (kind, stage) {
                (FaultKind::Torn, s) if s != Stage::Write => {
                    return Err(format!("fault rule {raw:?}: torn only applies to write"));
                }
                (FaultKind::Panic, s) if s != Stage::Handle => {
                    return Err(format!(
                        "fault rule {raw:?}: panic only applies to handlers \
                         (handle or an endpoint label)"
                    ));
                }
                _ => {}
            }
            let counter = format!(
                "serve.faults.{}.{}",
                endpoint.as_deref().unwrap_or(stage.label()),
                kind.label()
            );
            rules.push(FaultRule {
                stage,
                endpoint,
                kind,
                probability,
                counter,
                // Mix the index with an odd constant so rule streams stay
                // decorrelated even under the trivial seeds tests use.
                rng: Mutex::new(SplitMix64(
                    seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
                )),
            });
        }
        Ok(FaultPlan { rules })
    }

    /// The parsed rules (read-only; used by the CLI banner).
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Draws every rule matching this stage pass and returns the first
    /// fault that fires, after recording it (counters + event). Rules that
    /// don't fire still consume a draw, keeping their streams aligned with
    /// the pass count.
    pub fn fire(&self, stage: Stage, endpoint: Option<&str>) -> Option<FaultKind> {
        let mut fired = None;
        for rule in &self.rules {
            if rule.stage != stage {
                continue;
            }
            if let Some(scope) = rule.endpoint.as_deref() {
                if endpoint != Some(scope) {
                    continue;
                }
            }
            if rule.draw() && fired.is_none() {
                sjpl_obs::counter_add("serve.faults.injected", 1);
                sjpl_obs::counter_add_named(rule.counter.clone(), 1);
                sjpl_obs::event(
                    "serve.fault",
                    format!(
                        "{}:{}@{}",
                        rule.scope(),
                        rule.kind.label(),
                        rule.probability
                    ),
                );
                fired = Some(rule.kind);
            }
        }
        fired
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match r.kind {
                FaultKind::Latency(d) => write!(
                    f,
                    "{}:latency={}ms@{}",
                    r.scope(),
                    d.as_millis(),
                    r.probability
                )?,
                k => write!(f, "{}:{}@{}", r.scope(), k.label(), r.probability)?,
            }
        }
        Ok(())
    }
}

/// Parses `50ms`, `2s`, `250us` (integer or decimal magnitude).
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (mag, unit) = s
        .find(|c: char| c.is_ascii_alphabetic())
        .map(|i| s.split_at(i))
        .ok_or_else(|| format!("duration {s:?} needs a unit (us/ms/s)"))?;
    let mag: f64 = mag
        .parse()
        .map_err(|_| format!("bad duration magnitude {mag:?}"))?;
    if !mag.is_finite() || mag < 0.0 {
        return Err(format!("duration {s:?} must be finite and >= 0"));
    }
    let secs = match unit {
        "us" => mag / 1e6,
        "ms" => mag / 1e3,
        "s" => mag,
        other => return Err(format!("unknown duration unit {other:?} (us/ms/s)")),
    };
    Ok(Duration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_the_issue_example() {
        let plan = FaultPlan::parse(
            "estimate:latency=50ms@0.1,accept:reset@0.02,write:torn@0.01",
            7,
        )
        .unwrap();
        assert_eq!(plan.rules().len(), 3);
        let r = &plan.rules()[0];
        assert_eq!(r.stage, Stage::Handle);
        assert_eq!(r.endpoint.as_deref(), Some("estimate"));
        assert_eq!(r.kind, FaultKind::Latency(Duration::from_millis(50)));
        assert_eq!(r.probability, 0.1);
        assert_eq!(r.counter, "serve.faults.estimate.latency");
        assert_eq!(plan.rules()[1].stage, Stage::Accept);
        assert_eq!(plan.rules()[1].kind, FaultKind::Reset);
        assert_eq!(plan.rules()[2].stage, Stage::Write);
        assert_eq!(plan.rules()[2].kind, FaultKind::Torn);
        assert_eq!(
            plan.to_string(),
            "estimate:latency=50ms@0.1,accept:reset@0.02,write:torn@0.01"
        );
    }

    #[test]
    fn grammar_rejects_malformed_rules() {
        for bad in [
            "",
            "estimate",
            "estimate:latency=50ms",     // no probability
            "estimate:latency@0.1",      // latency without a duration
            "estimate:latency=50@0.1",   // duration without a unit
            "estimate:latency=-5ms@0.1", // negative duration
            "estimate:warp@0.1",         // unknown kind
            "teleport:reset@0.1",        // unknown scope
            "accept:torn@0.1",           // torn off the write stage
            "write:panic@0.1",           // panic off the handle stage
            "accept:panic@0.1",          // ditto
            "estimate:reset@1.5",        // probability out of range
            "estimate:reset@nope",       // unparseable probability
            "estimate:reset=now@0.5",    // reset takes no value
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "accepted {bad:?}");
        }
        // panic *is* allowed endpoint-scoped and on the bare handle stage.
        assert!(FaultPlan::parse("healthz:panic@1", 0).is_ok());
        assert!(FaultPlan::parse("handle:panic@0.5", 0).is_ok());
    }

    /// Draws a rule's verdict sequence without the obs side effects.
    fn verdicts(plan: &FaultPlan, rule: usize, n: usize) -> Vec<bool> {
        (0..n).map(|_| plan.rules()[rule].draw()).collect()
    }

    #[test]
    fn same_seed_same_draw_sequence() {
        let a = FaultPlan::parse("estimate:reset@0.3,read:reset@0.3", 42).unwrap();
        let b = FaultPlan::parse("estimate:reset@0.3,read:reset@0.3", 42).unwrap();
        assert_eq!(verdicts(&a, 0, 200), verdicts(&b, 0, 200));
        assert_eq!(verdicts(&a, 1, 200), verdicts(&b, 1, 200));
        // Different rules of one plan draw decorrelated streams.
        let a2 = FaultPlan::parse("estimate:reset@0.3,read:reset@0.3", 42).unwrap();
        assert_ne!(verdicts(&a2, 0, 200), verdicts(&a2, 1, 200));
        // A different seed moves the sequence.
        let c = FaultPlan::parse("estimate:reset@0.3,read:reset@0.3", 43).unwrap();
        assert_ne!(verdicts(&a, 0, 200), verdicts(&c, 0, 200));
    }

    #[test]
    fn probability_extremes_always_and_never_fire() {
        let plan = FaultPlan::parse("read:reset@1.0,write:reset@0.0", 5).unwrap();
        assert!(verdicts(&plan, 0, 100).iter().all(|&v| v));
        assert!(verdicts(&plan, 1, 100).iter().all(|&v| !v));
    }

    #[test]
    fn fire_rate_tracks_the_probability() {
        let plan = FaultPlan::parse("read:reset@0.1", 11).unwrap();
        let fired = verdicts(&plan, 0, 10_000).iter().filter(|&&v| v).count();
        // 10% ± generous slack; this is a sanity check, not a stats test.
        assert!((700..=1300).contains(&fired), "fired {fired}/10000");
    }

    #[test]
    fn fire_matches_stage_and_endpoint_scope() {
        let plan = FaultPlan::parse("estimate:reset@1.0,write:reset@1.0", 1).unwrap();
        // Handle-stage rule only fires for its endpoint.
        assert_eq!(
            plan.fire(Stage::Handle, Some("estimate")),
            Some(FaultKind::Reset)
        );
        assert_eq!(plan.fire(Stage::Handle, Some("healthz")), None);
        assert_eq!(plan.fire(Stage::Accept, None), None);
        // Stage-scoped rules ignore the endpoint.
        assert_eq!(
            plan.fire(Stage::Write, Some("healthz")),
            Some(FaultKind::Reset)
        );
        assert_eq!(plan.fire(Stage::Write, None), Some(FaultKind::Reset));
    }

    #[test]
    fn durations_parse_with_all_units() {
        assert_eq!(parse_duration("50ms").unwrap(), Duration::from_millis(50));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("250us").unwrap(), Duration::from_micros(250));
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert!(parse_duration("50").is_err());
        assert!(parse_duration("ms").is_err());
        assert!(parse_duration("50min").is_err());
    }
}
