//! `sjpl regress` — diff two observability/bench JSON reports against
//! thresholds and fail on regression.
//!
//! Both inputs may be any of the workspace's machine-readable reports:
//!
//! * a `BENCH_bops.json` (schema ≥ 3): perf series from `summary.series`
//!   (falling back to `results`), accuracy from the top-level `accuracy`
//!   array;
//! * an `sjpl-obs` snapshot (schema ≥ 1, as written by `--obs-out`): perf
//!   series from `spans` (`mean_ns` per span name), accuracy from the
//!   schema-2 `accuracy` array;
//! * a `BENCH_serve.json` (written by `sjpl loadtest`): perf series
//!   (latency quantiles) from `summary.series`, throughput from the
//!   top-level `throughput` array (`rps` per series name) — throughput is
//!   gated in the *opposite* direction: a **decrease** beyond the perf
//!   threshold fails — and client-visible error rates from the top-level
//!   `error_rates` array (`error_rate` per series name), gated like
//!   accuracy: absolute growth beyond `--max-error-regress` fails.
//!
//! Comparison is by name: series present in only one file are reported but
//! never fail the gate (benches come and go); a name present in both fails
//! when the new time exceeds the old by more than `--max-perf-regress`
//! (percent), or when a matching accuracy record's relative error grows by
//! more than `--max-error-regress` (absolute). The time compared is the
//! series' `min_ns` when both files carry it, else its `mean_ns`: a mean
//! swings with every stall of a shared host, the fastest iteration much
//! less. Identical inputs therefore always pass — that is the CI
//! self-check.
//!
//! A file that parses but carries *none* of those sections cannot be
//! gated at all; that case exits with the distinct code
//! [`CliError::BAD_REPORT`] (2) and a one-line diagnostic naming the
//! offending file, so CI can tell broken input from a real regression.

use crate::error::CliError;
use sjpl_obs::json::Json;

/// Gate thresholds (defaults match the documented CI gate).
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Allowed mean-time growth as a fraction (0.10 = +10%).
    pub max_perf: f64,
    /// Allowed absolute growth of a record's relative error.
    pub max_error: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            max_perf: 0.10,
            max_error: 0.05,
        }
    }
}

/// Parses a `--max-perf-regress` value: `10%` or `10` both mean +10%.
pub fn parse_percent(s: &str) -> Result<f64, String> {
    let t = s.strip_suffix('%').unwrap_or(s);
    let v: f64 = t
        .parse()
        .map_err(|_| format!("bad percentage {s:?} (use e.g. 10%)"))?;
    if !(v >= 0.0 && v.is_finite()) {
        return Err(format!("percentage {s:?} must be finite and >= 0"));
    }
    Ok(v / 100.0)
}

/// The outcome of one comparison.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable regression lines (empty = gate passes).
    pub regressions: Vec<String>,
    /// Per-series notes (improvements, new/vanished series).
    pub notes: Vec<String>,
    /// Number of perf series compared in both files.
    pub perf_compared: usize,
    /// Number of accuracy records compared in both files.
    pub accuracy_compared: usize,
    /// Number of throughput series compared in both files.
    pub throughput_compared: usize,
    /// Number of error-rate series compared in both files.
    pub error_rate_compared: usize,
}

impl Report {
    /// Did the gate pass?
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// One perf series: its mean time and, where the report has it, its
/// fastest.
struct Perf {
    name: String,
    mean_ns: f64,
    min_ns: Option<f64>,
}

/// Extracts the perf series from a report document, in order of
/// preference: `summary.series`, `results`, `spans`.
fn perf_series(doc: &Json) -> Vec<Perf> {
    let from = |items: &[Json]| -> Vec<Perf> {
        items
            .iter()
            .filter_map(|it| {
                Some(Perf {
                    name: it.get("name")?.as_str()?.to_owned(),
                    mean_ns: it.get("mean_ns")?.as_f64()?,
                    min_ns: it.get("min_ns").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    if let Some(series) = doc
        .get("summary")
        .and_then(|s| s.get("series"))
        .and_then(Json::as_array)
    {
        return from(series);
    }
    if let Some(results) = doc.get("results").and_then(Json::as_array) {
        return from(results);
    }
    if let Some(spans) = doc.get("spans").and_then(Json::as_array) {
        return from(spans);
    }
    Vec::new()
}

/// Extracts accuracy records `(key, rel_error)` from a report document.
/// Records without a computable relative error are skipped.
fn accuracy_series(doc: &Json) -> Vec<(String, f64)> {
    let Some(items) = doc.get("accuracy").and_then(Json::as_array) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|it| {
            let key = format!(
                "{}/{}/{}@{}",
                it.get("dataset")?.as_str()?,
                it.get("method")?.as_str()?,
                it.get("join_kind")?.as_str()?,
                it.get("radius")?.as_f64()?,
            );
            let rel = it.get("rel_error")?.as_f64()?;
            Some((key, rel))
        })
        .collect()
}

fn lookup(series: &[(String, f64)], name: &str) -> Option<f64> {
    series.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Extracts throughput series `(name, rps)` from a loadtest report.
fn throughput_series(doc: &Json) -> Vec<(String, f64)> {
    let Some(items) = doc.get("throughput").and_then(Json::as_array) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|it| {
            let name = it.get("name")?.as_str()?.to_owned();
            let rps = it.get("rps")?.as_f64()?;
            Some((name, rps))
        })
        .collect()
}

/// Extracts error-rate series `(name, error_rate)` from a loadtest report.
fn error_rate_series(doc: &Json) -> Vec<(String, f64)> {
    let Some(items) = doc.get("error_rates").and_then(Json::as_array) else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|it| {
            let name = it.get("name")?.as_str()?.to_owned();
            let rate = it.get("error_rate")?.as_f64()?;
            Some((name, rate))
        })
        .collect()
}

/// Compares two parsed report documents under the given thresholds.
pub fn compare(old: &Json, new: &Json, t: &Thresholds) -> Report {
    let mut rep = Report::default();

    let old_perf = perf_series(old);
    let new_perf = perf_series(new);
    for o in &old_perf {
        let name = &o.name;
        let Some(n) = new_perf.iter().find(|n| n.name == *name) else {
            rep.notes.push(format!("perf {name}: gone from new report"));
            continue;
        };
        rep.perf_compared += 1;
        let (stat, old_ns, new_ns) = match (o.min_ns, n.min_ns) {
            (Some(old_min), Some(new_min)) => ("min", old_min, new_min),
            _ => ("mean", o.mean_ns, n.mean_ns),
        };
        if old_ns > 0.0 {
            let growth = new_ns / old_ns - 1.0;
            if growth > t.max_perf {
                rep.regressions.push(format!(
                    "perf {name}: {stat} {old_ns:.0}ns -> {new_ns:.0}ns \
                     (+{:.1}% > allowed +{:.1}%)",
                    growth * 100.0,
                    t.max_perf * 100.0
                ));
            } else if growth < -t.max_perf {
                rep.notes.push(format!(
                    "perf {name}: {stat} improved {:.1}%",
                    -growth * 100.0
                ));
            }
        }
    }
    for n in &new_perf {
        if !old_perf.iter().any(|o| o.name == n.name) {
            rep.notes.push(format!("perf {}: new series", n.name));
        }
    }

    // Throughput regresses *downward*: fewer requests per second is worse.
    let old_thr = throughput_series(old);
    let new_thr = throughput_series(new);
    for (name, old_rps) in &old_thr {
        let Some(new_rps) = lookup(&new_thr, name) else {
            rep.notes
                .push(format!("throughput {name}: gone from new report"));
            continue;
        };
        rep.throughput_compared += 1;
        if *old_rps > 0.0 {
            let drop = 1.0 - new_rps / old_rps;
            if drop > t.max_perf {
                rep.regressions.push(format!(
                    "throughput {name}: {old_rps:.1} req/s -> {new_rps:.1} req/s \
                     (-{:.1}% > allowed -{:.1}%)",
                    drop * 100.0,
                    t.max_perf * 100.0
                ));
            } else if drop < -t.max_perf {
                rep.notes
                    .push(format!("throughput {name}: improved {:.1}%", -drop * 100.0));
            }
        }
    }
    for (name, _) in &new_thr {
        if lookup(&old_thr, name).is_none() {
            rep.notes.push(format!("throughput {name}: new series"));
        }
    }

    // Error rates gate like accuracy: absolute growth beyond the error
    // threshold fails. A loadtest run that stops retrying (or a server
    // that starts failing) shows up here even when latency looks fine.
    let old_err = error_rate_series(old);
    let new_err = error_rate_series(new);
    for (name, old_rate) in &old_err {
        let Some(new_rate) = lookup(&new_err, name) else {
            rep.notes
                .push(format!("error-rate {name}: gone from new report"));
            continue;
        };
        rep.error_rate_compared += 1;
        let growth = new_rate - old_rate;
        if growth > t.max_error {
            rep.regressions.push(format!(
                "error-rate {name}: {old_rate:.4} -> {new_rate:.4} \
                 (+{growth:.4} > allowed +{:.4})",
                t.max_error
            ));
        } else if growth < -t.max_error {
            rep.notes
                .push(format!("error-rate {name}: improved by {:.4}", -growth));
        }
    }
    for (name, _) in &new_err {
        if lookup(&old_err, name).is_none() {
            rep.notes.push(format!("error-rate {name}: new series"));
        }
    }

    // Alerts that fired during the *new* measured run are surfaced as
    // notes: context for why a latency or error-rate series moved, never
    // a gate failure of their own (the alert engine already judged them).
    if let Some(items) = new.get("alerts_fired").and_then(Json::as_array) {
        for a in items {
            if let (Some(name), Some(state)) = (
                a.get("name").and_then(Json::as_str),
                a.get("state").and_then(Json::as_str),
            ) {
                rep.notes.push(format!(
                    "alert {name} fired during the measured run (now {state})"
                ));
            }
        }
    }

    let old_acc = accuracy_series(old);
    let new_acc = accuracy_series(new);
    for (key, old_err) in &old_acc {
        let Some(new_err) = lookup(&new_acc, key) else {
            rep.notes
                .push(format!("accuracy {key}: gone from new report"));
            continue;
        };
        rep.accuracy_compared += 1;
        let growth = new_err - old_err;
        if growth > t.max_error {
            rep.regressions.push(format!(
                "accuracy {key}: rel_error {old_err:.4} -> {new_err:.4} \
                 (+{growth:.4} > allowed +{:.4})",
                t.max_error
            ));
        } else if growth < -t.max_error {
            rep.notes
                .push(format!("accuracy {key}: improved by {:.4}", -growth));
        }
    }

    rep
}

/// A file the gate can do nothing with — valid JSON, but carrying none of
/// the sections `compare` reads. Flagged *before* comparison: silently
/// comparing two empty section sets would report "0 regressions" and pass
/// CI on garbage input.
fn check_usable(path: &str, doc: &Json) -> Result<(), CliError> {
    let has_perf = doc
        .get("summary")
        .and_then(|s| s.get("series"))
        .and_then(Json::as_array)
        .is_some()
        || doc.get("results").and_then(Json::as_array).is_some()
        || doc.get("spans").and_then(Json::as_array).is_some();
    let has_accuracy = doc.get("accuracy").and_then(Json::as_array).is_some();
    let has_throughput = doc.get("throughput").and_then(Json::as_array).is_some();
    let has_error_rates = doc.get("error_rates").and_then(Json::as_array).is_some();
    if has_perf || has_accuracy || has_throughput || has_error_rates {
        Ok(())
    } else {
        Err(CliError::bad_report(format!(
            "{path}: unusable report: no perf section (`summary.series`, `results`, or \
             `spans`), no `throughput` section, no `error_rates` section, and no \
             `accuracy` section"
        )))
    }
}

/// Loads, parses and compares two report files. Unreadable files are
/// generic failures (exit 1); files that parse but aren't reports —
/// malformed JSON or no comparable section — exit with
/// [`CliError::BAD_REPORT`] so CI can tell "broken input" from "real
/// regression".
pub fn compare_files(old_path: &str, new_path: &str, t: &Thresholds) -> Result<Report, CliError> {
    let read = |p: &str| -> Result<Json, CliError> {
        let text = std::fs::read_to_string(p).map_err(|e| CliError::from(format!("{p}: {e}")))?;
        let doc = Json::parse(&text)
            .map_err(|e| CliError::bad_report(format!("{p}: unusable report: {e}")))?;
        check_usable(p, &doc)?;
        Ok(doc)
    };
    let old = read(old_path)?;
    let new = read(new_path)?;
    Ok(compare(&old, &new, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
      "summary": {"schema": 1, "series": [
        {"name": "bops/sorted/100k", "mean_ns": 1000000, "prev_mean_ns": null},
        {"name": "bops/hash/100k", "mean_ns": 2000000, "prev_mean_ns": null},
        {"name": "vanishing", "mean_ns": 5}
      ]},
      "accuracy": [
        {"dataset": "uniform", "method": "bops", "join_kind": "self",
         "radius": 0.05, "estimated_pc": 110.0, "true_pc": 100.0,
         "rel_error": 0.10},
        {"dataset": "galaxy", "method": "bops", "join_kind": "cross",
         "radius": 0.1, "estimated_pc": 50.0, "true_pc": null,
         "rel_error": null}
      ]
    }"#;

    fn doc(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn identical_inputs_pass() {
        let rep = compare(&doc(OLD), &doc(OLD), &Thresholds::default());
        assert!(rep.passed(), "regressions: {:?}", rep.regressions);
        assert_eq!(rep.perf_compared, 3);
        // The null-rel_error record is skipped, not compared.
        assert_eq!(rep.accuracy_compared, 1);
    }

    #[test]
    fn perf_growth_beyond_threshold_fails() {
        let new = OLD.replace("\"mean_ns\": 1000000", "\"mean_ns\": 1200000");
        let rep = compare(&doc(OLD), &doc(&new), &Thresholds::default());
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].contains("bops/sorted/100k"));
        // A looser gate lets the same diff through.
        let loose = Thresholds {
            max_perf: 0.25,
            max_error: 0.05,
        };
        assert!(compare(&doc(OLD), &doc(&new), &loose).passed());
    }

    /// With `min_ns` in both reports the gate reads it, not the mean: a
    /// noisy mean alone passes, a slower fastest run fails.
    #[test]
    fn perf_gates_on_min_ns_where_both_reports_have_it() {
        let old = r#"{"summary": {"series": [
            {"name": "bops/streaming/insert_40k", "mean_ns": 1000000, "min_ns": 800000}
        ]}}"#;
        let t = Thresholds::default();
        // +87% mean while the minimum falls: passes, as an improvement.
        let noisy = old
            .replace("\"mean_ns\": 1000000", "\"mean_ns\": 1870000")
            .replace("\"min_ns\": 800000", "\"min_ns\": 700000");
        let rep = compare(&doc(old), &doc(&noisy), &t);
        assert!(rep.passed(), "{:?}", rep.regressions);
        assert!(
            rep.notes.iter().any(|n| n.contains("min improved")),
            "{:?}",
            rep.notes
        );
        // +50% minimum with the mean unchanged: fails, naming the statistic.
        let slower = old.replace("\"min_ns\": 800000", "\"min_ns\": 1200000");
        let rep = compare(&doc(old), &doc(&slower), &t);
        assert_eq!(rep.regressions.len(), 1, "{:?}", rep.regressions);
        assert!(rep.regressions[0].contains("min 800000ns -> 1200000ns"));
        // A report without `min_ns` on either side falls back to the mean.
        let no_min = noisy.replace(", \"min_ns\": 700000", "");
        let rep = compare(&doc(old), &doc(&no_min), &t);
        assert_eq!(rep.regressions.len(), 1, "{:?}", rep.regressions);
        assert!(rep.regressions[0].contains("mean 1000000ns -> 1870000ns"));
    }

    #[test]
    fn error_growth_beyond_threshold_fails() {
        let new = OLD.replace("\"rel_error\": 0.10", "\"rel_error\": 0.30");
        let rep = compare(&doc(OLD), &doc(&new), &Thresholds::default());
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].contains("uniform/bops/self@0.05"));
    }

    #[test]
    fn vanished_and_new_series_are_notes_not_failures() {
        let new = OLD.replace("vanishing", "appearing");
        let rep = compare(&doc(OLD), &doc(&new), &Thresholds::default());
        assert!(rep.passed());
        assert!(rep.notes.iter().any(|n| n.contains("vanishing")));
        assert!(rep.notes.iter().any(|n| n.contains("appearing")));
    }

    #[test]
    fn snapshot_spans_work_as_a_perf_source() {
        let snap = r#"{"schema": 2, "spans": [
            {"name": "bops.sort", "count": 4, "mean_ns": 500000.0}
        ]}"#;
        let slower = snap.replace("500000.0", "900000.0");
        let rep = compare(&doc(snap), &doc(&slower), &Thresholds::default());
        assert_eq!(rep.perf_compared, 1);
        assert!(!rep.passed());
    }

    #[test]
    fn unusable_reports_get_the_distinct_exit_code() {
        let dir = std::env::temp_dir().join(format!("sjpl_regress_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, OLD).unwrap();
        let good = good.to_str().unwrap();
        let t = Thresholds::default();

        // Valid JSON with no comparable section: exit code 2, one line,
        // naming the file.
        let empty = dir.join("empty.json");
        std::fs::write(&empty, "{\"schema\": 99}").unwrap();
        let e = compare_files(empty.to_str().unwrap(), good, &t).unwrap_err();
        assert_eq!(e.code, CliError::BAD_REPORT);
        assert!(
            !e.message.contains('\n'),
            "diagnostic must be one line: {e}"
        );
        assert!(e.message.contains("empty.json"), "names the file: {e}");
        assert!(e.message.contains("unusable report"), "says why: {e}");
        // ... in either argument position.
        let e = compare_files(good, empty.to_str().unwrap(), &t).unwrap_err();
        assert_eq!(e.code, CliError::BAD_REPORT);

        // Malformed JSON is equally un-gateable: also code 2.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        let e = compare_files(good, bad.to_str().unwrap(), &t).unwrap_err();
        assert_eq!(e.code, CliError::BAD_REPORT);

        // A missing file is an ordinary failure: code 1.
        let e = compare_files(good, dir.join("nope.json").to_str().unwrap(), &t).unwrap_err();
        assert_eq!(e.code, 1);

        // Any single recognized section suffices.
        let acc_only = dir.join("acc.json");
        std::fs::write(&acc_only, "{\"accuracy\": []}").unwrap();
        compare_files(good, acc_only.to_str().unwrap(), &t).unwrap();
        let spans_only = dir.join("spans.json");
        std::fs::write(&spans_only, "{\"schema\": 2, \"spans\": []}").unwrap();
        compare_files(good, spans_only.to_str().unwrap(), &t).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    const LOADTEST: &str = r#"{
      "schema": 1,
      "kind": "serve-loadtest",
      "summary": {"schema": 1, "series": [
        {"name": "serve/estimate/p99", "mean_ns": 500000}
      ]},
      "throughput": [
        {"name": "serve/estimate", "rps": 2000.0},
        {"name": "serve/total", "rps": 2500.0}
      ],
      "error_rates": [
        {"name": "serve/estimate", "error_rate": 0.001},
        {"name": "serve/total", "error_rate": 0.002}
      ]
    }"#;

    #[test]
    fn throughput_decrease_fails_and_increase_is_a_note() {
        let t = Thresholds::default();
        // Identical: passes, and both throughput series are compared.
        let rep = compare(&doc(LOADTEST), &doc(LOADTEST), &t);
        assert!(rep.passed(), "{:?}", rep.regressions);
        assert_eq!(rep.throughput_compared, 2);
        assert_eq!(rep.perf_compared, 1);

        // -20% total throughput fails the 10% gate.
        let slower = LOADTEST.replace("\"rps\": 2500.0", "\"rps\": 2000.0");
        let rep = compare(&doc(LOADTEST), &doc(&slower), &t);
        assert_eq!(rep.regressions.len(), 1, "{:?}", rep.regressions);
        assert!(rep.regressions[0].contains("serve/total"));
        assert!(rep.regressions[0].contains("req/s"));

        // +50% throughput is an improvement note, never a failure.
        let faster = LOADTEST.replace("\"rps\": 2500.0", "\"rps\": 3750.0");
        let rep = compare(&doc(LOADTEST), &doc(&faster), &t);
        assert!(rep.passed());
        assert!(rep
            .notes
            .iter()
            .any(|n| n.contains("serve/total") && n.contains("improved")));

        // Tail-latency growth in the same report still fails via the perf
        // series path (mean_ns key).
        let tail = LOADTEST.replace("\"mean_ns\": 500000", "\"mean_ns\": 900000");
        let rep = compare(&doc(LOADTEST), &doc(&tail), &t);
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].contains("serve/estimate/p99"));
    }

    #[test]
    fn error_rate_growth_beyond_threshold_fails() {
        let t = Thresholds::default();
        // Identical inputs compare both error-rate series and pass.
        let rep = compare(&doc(LOADTEST), &doc(LOADTEST), &t);
        assert!(rep.passed(), "{:?}", rep.regressions);
        assert_eq!(rep.error_rate_compared, 2);

        // Total error rate jumping 0.002 -> 0.20 blows the 0.05 absolute
        // budget — the signature of a loadtest run with retries disabled.
        let worse = LOADTEST.replace("\"error_rate\": 0.002", "\"error_rate\": 0.20");
        let rep = compare(&doc(LOADTEST), &doc(&worse), &t);
        assert_eq!(rep.regressions.len(), 1, "{:?}", rep.regressions);
        assert!(rep.regressions[0].contains("error-rate serve/total"));

        // Growth inside the budget passes; a big improvement is a note.
        let slight = LOADTEST.replace("\"error_rate\": 0.002", "\"error_rate\": 0.01");
        assert!(compare(&doc(LOADTEST), &doc(&slight), &t).passed());
        let tight = Thresholds {
            max_perf: 0.10,
            max_error: 0.005,
        };
        assert!(!compare(&doc(LOADTEST), &doc(&slight), &tight).passed());
        let better = LOADTEST.replace("\"error_rate\": 0.002", "\"error_rate\": 0.0");
        let old_high = LOADTEST.replace("\"error_rate\": 0.002", "\"error_rate\": 0.9");
        let rep = compare(&doc(&old_high), &doc(&better), &t);
        assert!(rep.passed());
        assert!(rep
            .notes
            .iter()
            .any(|n| n.contains("error-rate serve/total") && n.contains("improved")));
    }

    #[test]
    fn fired_alerts_in_the_new_report_are_notes_not_failures() {
        let t = Thresholds::default();
        let with_alerts = LOADTEST.replacen(
            "\"throughput\": [",
            "\"alerts_fired\": [\n        {\"name\": \"slo-burn-estimate\", \
             \"state\": \"resolved\"}\n      ],\n      \"throughput\": [",
            1,
        );
        // Alerts in the *new* report annotate the comparison...
        let rep = compare(&doc(LOADTEST), &doc(&with_alerts), &t);
        assert!(rep.passed(), "{:?}", rep.regressions);
        assert!(
            rep.notes
                .iter()
                .any(|n| n.contains("alert slo-burn-estimate fired") && n.contains("resolved")),
            "{:?}",
            rep.notes
        );
        // ...while alerts only in the *old* report say nothing about it.
        let rep = compare(&doc(&with_alerts), &doc(LOADTEST), &t);
        assert!(rep.notes.iter().all(|n| !n.contains("alert ")));
    }

    #[test]
    fn error_rate_only_reports_are_usable() {
        let dir =
            std::env::temp_dir().join(format!("sjpl_regress_err_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("err.json");
        std::fs::write(
            &p,
            "{\"error_rates\": [{\"name\": \"serve/total\", \"error_rate\": 0.0}]}",
        )
        .unwrap();
        let rep = compare_files(
            p.to_str().unwrap(),
            p.to_str().unwrap(),
            &Thresholds::default(),
        )
        .unwrap();
        assert!(rep.passed());
        assert_eq!(rep.error_rate_compared, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn throughput_only_reports_are_usable() {
        let dir =
            std::env::temp_dir().join(format!("sjpl_regress_thr_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("thr.json");
        std::fs::write(
            &p,
            "{\"throughput\": [{\"name\": \"serve/total\", \"rps\": 10.0}]}",
        )
        .unwrap();
        let rep = compare_files(
            p.to_str().unwrap(),
            p.to_str().unwrap(),
            &Thresholds::default(),
        )
        .unwrap();
        assert!(rep.passed());
        assert_eq!(rep.throughput_compared, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn percent_parsing() {
        assert_eq!(parse_percent("10%").unwrap(), 0.10);
        assert_eq!(parse_percent("2.5").unwrap(), 0.025);
        assert!(parse_percent("abc").is_err());
        assert!(parse_percent("-5%").is_err());
    }
}
