//! The online accuracy/drift monitor.
//!
//! A stored pair-count law is a snapshot of the data distribution at fit
//! time; the paper's O(1) "kept statistics" (§4.3) stay trustworthy only
//! while that distribution holds. This module re-checks each served law
//! against a ground-truth oracle on a timer — in production the oracle is
//! the paper's own sampling trick (an exact join over a small sample,
//! scaled by the inverse sampling rate; Observation 3 says the slope
//! survives sampling). The drift thread only *measures*; each tick it
//! publishes
//!
//! * `serve.drift.rel_error.<law>` — mean relative error over the last
//!   8 ticks
//! * `serve.drift.checks` — one per tick of a law still in the catalog
//!
//! The decision is the built-in `drift-<law>` alert rule's
//! ([`AlertRule::drift`](crate::AlertRule::drift)): it compares that mean
//! against [`DriftConfig::error_budget`] on every scraper tick and writes
//! `serve.drift.breached.<law>`, the `serve.drift.breaches` counter and
//! the `serve.drift.breach` event, so a Prometheus scrape of `/metrics`
//! surfaces estimator *staleness*, not just throughput.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sjpl_core::LawCatalog;
use sjpl_geom::{Metric, Point};
use sjpl_index::PreparedSet;

/// Ground truth for one catalog law: a set of probe radii and an oracle
/// returning the true pair count at each. The oracle is typically a
/// closure over a fixed sample of the dataset — build it with
/// [`DriftProbe::exact_sample`], which prepares the sample once and answers
/// every tick's radii with an exact count.
pub struct DriftProbe {
    /// Catalog key of the law under watch.
    pub law_name: String,
    /// Radii to probe each tick (inside the law's fitted window).
    pub radii: Vec<f64>,
    /// `truth(r)` = true pair count at radius `r`.
    pub truth: Arc<dyn Fn(f64) -> f64 + Send + Sync>,
}

impl DriftProbe {
    /// The canonical sampling oracle (the paper's Observation 3: the
    /// power-law slope survives sampling). Takes an exact self-join over
    /// `sample` as truth, scaled by `scale` — for a sample of `s` points
    /// drawn from `n`, pass `(n·(n−1)) / (s·(s−1))` to recover full-set
    /// pair counts. The sample is prepared **once** here (a sort or a
    /// kd-tree build, as [`PreparedSet`] picks from `D`), so a probe tick
    /// costs counts, not preparation.
    pub fn exact_sample<const D: usize>(
        law_name: impl Into<String>,
        radii: Vec<f64>,
        sample: &[Point<D>],
        metric: Metric,
        scale: f64,
    ) -> DriftProbe {
        let prepared = PreparedSet::new(sample);
        DriftProbe {
            law_name: law_name.into(),
            radii,
            truth: Arc::new(move |r| prepared.self_count(r, metric, 0) as f64 * scale),
        }
    }
}

/// Number of most-recent ticks the published mean error is taken over.
const WINDOW: usize = 8;

/// Drift-monitor tuning.
#[derive(Clone)]
pub struct DriftConfig {
    /// Time between checks.
    pub interval: Duration,
    /// Mean relative error above which a law counts as drifted, evaluated
    /// by the `drift-<law>` alert rules.
    pub error_budget: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            interval: Duration::from_secs(30),
            error_budget: 0.5,
        }
    }
}

struct ProbeState {
    probe: DriftProbe,
    /// Rolling window of per-tick mean relative errors.
    recent: VecDeque<f64>,
}

/// The drift thread's tick: checks every probe against the *live* catalog,
/// so a law replaced at runtime is picked up on the next check.
pub(crate) fn monitor(
    catalog: Arc<Mutex<LawCatalog>>,
    probes: Vec<DriftProbe>,
) -> impl FnMut() + Send + 'static {
    let mut states: Vec<ProbeState> = probes
        .into_iter()
        .map(|probe| ProbeState {
            probe,
            recent: VecDeque::new(),
        })
        .collect();
    move || check_all(&catalog, &mut states)
}

fn check_all(catalog: &Mutex<LawCatalog>, states: &mut [ProbeState]) {
    for st in states {
        // A panicking truth oracle must cost one probe's tick, not the
        // others': each check is contained on its own.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(catalog, st)));
        if result.is_err() {
            sjpl_obs::counter_add("serve.panics", 1);
            sjpl_obs::event(
                "serve.panic",
                format!("drift tick for law {:?} panicked", st.probe.law_name),
            );
        }
    }
}

/// One drift check of one law: measures and publishes the window mean.
fn check(catalog: &Mutex<LawCatalog>, st: &mut ProbeState) {
    let law = {
        let cat = catalog.lock().unwrap_or_else(|p| p.into_inner());
        cat.get(&st.probe.law_name).copied()
    };
    let Some(law) = law else {
        return; // law removed from the catalog: stop publishing, keep state
    };

    let mut errs = Vec::with_capacity(st.probe.radii.len());
    for &r in &st.probe.radii {
        let truth = (st.probe.truth)(r);
        if truth <= 0.0 || !truth.is_finite() {
            continue; // no pairs at this radius: relative error undefined
        }
        errs.push((law.pair_count(r) - truth).abs() / truth);
    }
    sjpl_obs::counter_add("serve.drift.checks", 1);
    if errs.is_empty() {
        return;
    }
    st.recent
        .push_back(errs.iter().sum::<f64>() / errs.len() as f64);
    if st.recent.len() > WINDOW {
        st.recent.pop_front();
    }
    let window_mean = st.recent.iter().sum::<f64>() / st.recent.len() as f64;
    sjpl_obs::gauge_set_named(
        format!("serve.drift.rel_error.{}", st.probe.law_name),
        window_mean,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjpl_core::{JoinKind, PairCountLaw};
    use sjpl_stats::fit_loglog_full_range;

    fn toy_law(k: f64, alpha: f64) -> PairCountLaw {
        let xs: Vec<f64> = (1..=16).map(|i| i as f64 / 16.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| k * x.powf(alpha)).collect();
        PairCountLaw {
            exponent: alpha,
            k,
            fit: fit_loglog_full_range(&xs, &ys).unwrap(),
            kind: JoinKind::SelfJoin,
            n: 10_000,
            m: 10_000,
        }
    }

    #[test]
    fn tick_measures_the_rolling_mean_error() {
        sjpl_obs::set_enabled(true);
        // No other test publishes this law's gauges.
        let name = "tick-law";
        let catalog = Mutex::new({
            let mut c = LawCatalog::new();
            c.insert(name, toy_law(1000.0, 1.5));
            c
        });
        let truth_law = toy_law(1000.0, 1.5);
        let mut st = ProbeState {
            probe: DriftProbe {
                law_name: name.into(),
                radii: vec![0.1, 0.3, 0.6],
                truth: Arc::new(move |r| truth_law.pair_count(r)),
            },
            recent: VecDeque::new(),
        };
        let rel_error = || {
            sjpl_obs::snapshot()
                .gauge(&format!("serve.drift.rel_error.{name}"))
                .unwrap()
        };

        check(&catalog, &mut st);
        assert_eq!(st.recent.len(), 1);
        assert!(rel_error() < 1e-9, "law == truth should have ~0 error");

        // Perturb the served law: K × 10 → rel error 9 per tick, averaged
        // with the good tick: (0 + 9)/2 = 4.5.
        catalog.lock().unwrap().insert(name, toy_law(10_000.0, 1.5));
        check(&catalog, &mut st);
        assert_eq!(st.recent.len(), 2);
        assert!((rel_error() - 4.5).abs() < 1e-9, "{}", rel_error());

        // The window stays bounded and forgets the good tick.
        for _ in 0..10 {
            check(&catalog, &mut st);
        }
        assert_eq!(st.recent.len(), WINDOW);
        assert!((rel_error() - 9.0).abs() < 1e-9, "{}", rel_error());
        // Measuring only: the breach decision is the drift rule's.
        let snap = sjpl_obs::snapshot();
        assert_eq!(snap.gauge(&format!("serve.drift.breached.{name}")), None);
    }

    #[test]
    fn exact_sample_probe_counts_and_scales() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD21F7);
        let pts: Vec<Point<2>> = (0..400).map(|_| Point([rng.gen(), rng.gen()])).collect();
        let probe = DriftProbe::exact_sample("law", vec![0.05, 0.2], &pts, Metric::L2, 3.5);
        assert_eq!(probe.law_name, "law");
        for r in [0.05, 0.2] {
            let mut brute = 0u64;
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    let d2: f64 = (0..2).map(|k| (pts[i][k] - pts[j][k]).powi(2)).sum();
                    if d2.sqrt() <= r {
                        brute += 1;
                    }
                }
            }
            assert_eq!((probe.truth)(r), brute as f64 * 3.5, "r={r}");
        }
    }

    #[test]
    fn missing_law_is_skipped() {
        let catalog = Mutex::new(LawCatalog::new());
        let mut st = ProbeState {
            probe: DriftProbe {
                law_name: "ghost".into(),
                radii: vec![0.1],
                truth: Arc::new(|_| 1.0),
            },
            recent: VecDeque::new(),
        };
        check(&catalog, &mut st);
        assert!(st.recent.is_empty());
    }

    #[test]
    fn panicking_probe_is_contained_and_others_keep_ticking() {
        sjpl_obs::set_enabled(true);
        let catalog = Arc::new(Mutex::new({
            let mut c = LawCatalog::new();
            c.insert("good", toy_law(1000.0, 1.5));
            c.insert("bad", toy_law(1000.0, 1.5));
            c
        }));
        let truth_law = toy_law(1000.0, 1.5);
        // The panicking probe runs *first* every tick; if its panic escaped
        // the tick, the good probe would never publish.
        let probes = vec![
            DriftProbe {
                law_name: "bad".into(),
                radii: vec![0.1],
                truth: Arc::new(|_| panic!("oracle exploded")),
            },
            DriftProbe {
                law_name: "good".into(),
                radii: vec![0.1, 0.3],
                truth: Arc::new(move |r| truth_law.pair_count(r)),
            },
        ];
        monitor(catalog, probes)();
        let snap = sjpl_obs::snapshot();
        assert!(
            snap.gauge("serve.drift.rel_error.good").is_some(),
            "the good probe never ticked after the bad one panicked"
        );
        assert!(
            snap.counters
                .iter()
                .any(|(n, v)| n == "serve.panics" && *v > 0),
            "contained panics must be counted"
        );
        assert!(snap.events.iter().any(|e| e.name == "serve.panic"));
    }
}
