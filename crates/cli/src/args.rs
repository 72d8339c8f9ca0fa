//! Tiny hand-rolled argument parser — two positional CSV paths plus a
//! handful of `--flag value` options. Small enough that a dependency would
//! cost more than it saves.

use sjpl_geom::Metric;

/// Output format for the `--trace` observability snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Structured JSON (machine-readable; the `sjpl-obs` snapshot schema).
    Json,
    /// Aligned human-readable table.
    Pretty,
}

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Positional arguments (dataset paths, counts, seeds…).
    pub positional: Vec<String>,
    /// `--radius` / `-r`.
    pub radius: Option<f64>,
    /// `--bins`.
    pub bins: Option<usize>,
    /// `--levels`.
    pub levels: Option<u32>,
    /// `--ratio` (BOPS grid-side shrink factor).
    pub ratio: Option<f64>,
    /// `--metric` (`l1`, `l2`, `linf`, or a number for Lp).
    pub metric: Option<Metric>,
    /// `--threads`.
    pub threads: Option<usize>,
    /// `--method` (`pc` or `bops`).
    pub method: Option<String>,
    /// `--algo` (join algorithm name).
    pub algo: Option<String>,
    /// `-k` (neighbor count).
    pub k: Option<usize>,
    /// `--trace[=json|pretty]` (enable the observability recorder).
    pub trace: Option<TraceFormat>,
    /// `--obs-out <file>` (write the snapshot to a file; implies `--trace`).
    pub obs_out: Option<String>,
    /// `--trace-out <file>` (write the timeline as a Chrome trace; implies
    /// `--trace`).
    pub trace_out: Option<String>,
    /// `--true-pc <count>` (known ground-truth pair count for accuracy
    /// telemetry on `estimate` / `catalog-estimate`).
    pub true_pc: Option<f64>,
    /// `--max-perf-regress <pct>` (regress gate; `10%` or `10` = +10%,
    /// stored as a fraction).
    pub max_perf_regress: Option<f64>,
    /// `--max-error-regress <x>` (regress gate; absolute rel-error growth).
    pub max_error_regress: Option<f64>,
    /// `--port` (serve: bind port).
    pub port: Option<u16>,
    /// `--catalog <cat.tsv>` (serve: law catalog to load).
    pub catalog: Option<String>,
    /// `--drift-interval <secs>` (serve: time between drift checks).
    pub drift_interval: Option<f64>,
    /// `--error-budget <x>` (serve: mean rel error that counts as drifted).
    pub error_budget: Option<f64>,
    /// `--drift-sample <rate>` (serve: sampling rate of the ground-truth
    /// oracle; the paper's §4.3 trick).
    pub drift_sample: Option<f64>,
    /// `--slo <spec>` (serve: per-endpoint SLO, repeatable; e.g.
    /// `/estimate=2ms@p99,err<0.1%`).
    pub slos: Vec<String>,
    /// `--access-log <file>` (serve: JSONL access log path).
    pub access_log: Option<String>,
    /// `--slow-ms <ms>` (serve: slow-request capture threshold).
    pub slow_ms: Option<f64>,
    /// `--connections <n>` (loadtest: worker connections).
    pub connections: Option<usize>,
    /// `--rate <r>` (loadtest: open-loop target requests/second).
    pub rate: Option<f64>,
    /// `--duration <s>` (loadtest: run length in seconds).
    pub duration: Option<f64>,
    /// `--seed <n>` (loadtest: workload RNG seed).
    pub seed: Option<u64>,
    /// `--mix <spec>` (loadtest: weighted endpoint mix).
    pub mix: Option<String>,
    /// `--law <name>` (loadtest: law name for `/estimate` traffic).
    pub law: Option<String>,
    /// `--out <file>` (loadtest: report path).
    pub out: Option<String>,
    /// `--profile-hz <hz>` (serve: run the continuous sampling profiler).
    pub profile_hz: Option<f64>,
    /// `--profile-out <file>` (loadtest: fetch a collapsed-stack profile
    /// window from the daemon during the run and write it here).
    pub profile_out: Option<String>,
    /// `--max-inflight <n>` (serve: admission-control capacity; 0 = same
    /// as `--threads`).
    pub max_inflight: Option<usize>,
    /// `--deadline-ms <ms>` (serve: default per-request deadline budget).
    pub deadline_ms: Option<u64>,
    /// `--fault <plan>` (serve: seeded fault-injection plan, e.g.
    /// `estimate:latency=50ms@0.1,accept:reset@0.02`).
    pub fault: Option<String>,
    /// `--fault-seed <n>` (serve: fault-plan RNG seed).
    pub fault_seed: Option<u64>,
    /// `--chaos` (loadtest: interleave hostile-client behavior).
    pub chaos: bool,
    /// `--retries <n>` (loadtest: retry budget per logical request).
    pub retries: Option<u32>,
    /// `--metrics-interval <secs>` (serve: time between telemetry
    /// self-scrapes into the in-process TSDB).
    pub metrics_interval: Option<f64>,
    /// `--alert <rule>` (serve: declarative alert rule, repeatable; e.g.
    /// `hot: rate(serve.requests[30s]) > 100 for 30s`).
    pub alerts: Vec<String>,
    /// `--alerts-out <file>` (loadtest: fetch `/alerts` when the run ends
    /// and write the JSON here).
    pub alerts_out: Option<String>,
    /// `--refresh <secs>` (dash: seconds between frames).
    pub refresh: Option<f64>,
    /// `--frames <n>` (dash: render this many frames then exit; omit to
    /// run until interrupted).
    pub frames: Option<u64>,
}

/// Parses `argv` into [`Options`].
pub fn parse(argv: &[String]) -> Result<Options, String> {
    let mut o = Options {
        positional: Vec::new(),
        radius: None,
        bins: None,
        levels: None,
        ratio: None,
        metric: None,
        threads: None,
        method: None,
        algo: None,
        k: None,
        trace: None,
        obs_out: None,
        trace_out: None,
        true_pc: None,
        max_perf_regress: None,
        max_error_regress: None,
        port: None,
        catalog: None,
        drift_interval: None,
        error_budget: None,
        drift_sample: None,
        slos: Vec::new(),
        access_log: None,
        slow_ms: None,
        connections: None,
        rate: None,
        duration: None,
        seed: None,
        mix: None,
        law: None,
        out: None,
        profile_hz: None,
        profile_out: None,
        max_inflight: None,
        deadline_ms: None,
        fault: None,
        fault_seed: None,
        chaos: false,
        retries: None,
        metrics_interval: None,
        alerts: Vec::new(),
        alerts_out: None,
        refresh: None,
        frames: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let arg = &argv[i];
        let mut take_value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--radius" | "-r" => {
                let v = take_value("--radius")?;
                o.radius = Some(v.parse().map_err(|_| format!("bad radius {v:?}"))?);
            }
            "--bins" => {
                let v = take_value("--bins")?;
                o.bins = Some(v.parse().map_err(|_| format!("bad bins {v:?}"))?);
            }
            "--levels" => {
                let v = take_value("--levels")?;
                o.levels = Some(v.parse().map_err(|_| format!("bad levels {v:?}"))?);
            }
            "--ratio" => {
                let v = take_value("--ratio")?;
                o.ratio = Some(v.parse().map_err(|_| format!("bad ratio {v:?}"))?);
            }
            "--threads" => {
                let v = take_value("--threads")?;
                o.threads = Some(v.parse().map_err(|_| format!("bad threads {v:?}"))?);
            }
            "--metric" => {
                let v = take_value("--metric")?;
                o.metric = Some(parse_metric(&v)?);
            }
            "--method" => {
                o.method = Some(take_value("--method")?);
            }
            "--algo" => {
                o.algo = Some(take_value("--algo")?);
            }
            "-k" => {
                let v = take_value("-k")?;
                o.k = Some(v.parse().map_err(|_| format!("bad k {v:?}"))?);
            }
            "--trace" | "--trace=pretty" => {
                o.trace = Some(TraceFormat::Pretty);
            }
            "--trace=json" => {
                o.trace = Some(TraceFormat::Json);
            }
            flag if flag.starts_with("--trace=") => {
                return Err(format!(
                    "unknown trace format {:?} (use json or pretty)",
                    &flag["--trace=".len()..]
                ));
            }
            "--obs-out" => {
                o.obs_out = Some(take_value("--obs-out")?);
            }
            "--trace-out" => {
                o.trace_out = Some(take_value("--trace-out")?);
            }
            "--true-pc" => {
                let v = take_value("--true-pc")?;
                o.true_pc = Some(v.parse().map_err(|_| format!("bad true-pc {v:?}"))?);
            }
            "--max-perf-regress" => {
                let v = take_value("--max-perf-regress")?;
                o.max_perf_regress = Some(crate::regress::parse_percent(&v)?);
            }
            "--max-error-regress" => {
                let v = take_value("--max-error-regress")?;
                o.max_error_regress = Some(
                    v.parse()
                        .map_err(|_| format!("bad error threshold {v:?}"))?,
                );
            }
            "--port" => {
                let v = take_value("--port")?;
                o.port = Some(v.parse().map_err(|_| format!("bad port {v:?}"))?);
            }
            "--catalog" => {
                o.catalog = Some(take_value("--catalog")?);
            }
            "--drift-interval" => {
                let v = take_value("--drift-interval")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad drift interval {v:?}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("drift interval {v:?} must be finite and > 0"));
                }
                o.drift_interval = Some(secs);
            }
            "--error-budget" => {
                let v = take_value("--error-budget")?;
                let budget: f64 = v.parse().map_err(|_| format!("bad error budget {v:?}"))?;
                if !(budget >= 0.0 && budget.is_finite()) {
                    return Err(format!("error budget {v:?} must be finite and >= 0"));
                }
                o.error_budget = Some(budget);
            }
            "--drift-sample" => {
                let v = take_value("--drift-sample")?;
                let rate: f64 = v
                    .parse()
                    .map_err(|_| format!("bad drift sample rate {v:?}"))?;
                if !(rate > 0.0 && rate <= 1.0) {
                    return Err(format!("drift sample rate {v:?} must be in (0, 1]"));
                }
                o.drift_sample = Some(rate);
            }
            "--slo" => {
                o.slos.push(take_value("--slo")?);
            }
            "--access-log" => {
                o.access_log = Some(take_value("--access-log")?);
            }
            "--slow-ms" => {
                let v = take_value("--slow-ms")?;
                let ms: f64 = v.parse().map_err(|_| format!("bad slow-ms {v:?}"))?;
                if !(ms >= 0.0 && ms.is_finite()) {
                    return Err(format!("slow-ms {v:?} must be finite and >= 0"));
                }
                o.slow_ms = Some(ms);
            }
            "--connections" => {
                let v = take_value("--connections")?;
                let n: usize = v.parse().map_err(|_| format!("bad connections {v:?}"))?;
                if n == 0 {
                    return Err("connections must be >= 1".to_owned());
                }
                o.connections = Some(n);
            }
            "--rate" => {
                let v = take_value("--rate")?;
                let r: f64 = v.parse().map_err(|_| format!("bad rate {v:?}"))?;
                if !(r > 0.0 && r.is_finite()) {
                    return Err(format!("rate {v:?} must be finite and > 0"));
                }
                o.rate = Some(r);
            }
            "--duration" => {
                let v = take_value("--duration")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad duration {v:?}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("duration {v:?} must be finite and > 0"));
                }
                o.duration = Some(secs);
            }
            "--seed" => {
                let v = take_value("--seed")?;
                o.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--mix" => {
                o.mix = Some(take_value("--mix")?);
            }
            "--law" => {
                o.law = Some(take_value("--law")?);
            }
            "--out" => {
                o.out = Some(take_value("--out")?);
            }
            "--profile-hz" => {
                let v = take_value("--profile-hz")?;
                let hz: f64 = v.parse().map_err(|_| format!("bad profile-hz {v:?}"))?;
                if !(hz > 0.0 && hz.is_finite()) {
                    return Err(format!("profile-hz {v:?} must be finite and > 0"));
                }
                o.profile_hz = Some(hz);
            }
            "--profile-out" => {
                o.profile_out = Some(take_value("--profile-out")?);
            }
            "--max-inflight" => {
                let v = take_value("--max-inflight")?;
                o.max_inflight = Some(v.parse().map_err(|_| format!("bad max-inflight {v:?}"))?);
            }
            "--deadline-ms" => {
                let v = take_value("--deadline-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad deadline-ms {v:?}"))?;
                if ms == 0 {
                    return Err("deadline-ms must be >= 1".to_owned());
                }
                o.deadline_ms = Some(ms);
            }
            "--fault" => {
                o.fault = Some(take_value("--fault")?);
            }
            "--fault-seed" => {
                let v = take_value("--fault-seed")?;
                o.fault_seed = Some(v.parse().map_err(|_| format!("bad fault-seed {v:?}"))?);
            }
            "--chaos" => {
                o.chaos = true;
            }
            "--retries" => {
                let v = take_value("--retries")?;
                o.retries = Some(v.parse().map_err(|_| format!("bad retries {v:?}"))?);
            }
            "--metrics-interval" => {
                let v = take_value("--metrics-interval")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("bad metrics interval {v:?}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("metrics interval {v:?} must be finite and > 0"));
                }
                o.metrics_interval = Some(secs);
            }
            "--alert" => {
                o.alerts.push(take_value("--alert")?);
            }
            "--alerts-out" => {
                o.alerts_out = Some(take_value("--alerts-out")?);
            }
            "--refresh" => {
                let v = take_value("--refresh")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad refresh {v:?}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("refresh {v:?} must be finite and > 0"));
                }
                o.refresh = Some(secs);
            }
            "--frames" => {
                let v = take_value("--frames")?;
                let n: u64 = v.parse().map_err(|_| format!("bad frames {v:?}"))?;
                if n == 0 {
                    return Err("frames must be >= 1".to_owned());
                }
                o.frames = Some(n);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            _ => o.positional.push(arg.clone()),
        }
        i += 1;
    }
    Ok(o)
}

/// Parses a metric name: `l1`, `l2`, `linf`, or a positive number `p`.
pub fn parse_metric(s: &str) -> Result<Metric, String> {
    match s.to_ascii_lowercase().as_str() {
        "l1" => Ok(Metric::L1),
        "l2" => Ok(Metric::L2),
        "linf" | "loo" | "chebyshev" => Ok(Metric::Linf),
        other => {
            let p: f64 = other
                .trim_start_matches('l')
                .parse()
                .map_err(|_| format!("unknown metric {s:?} (use l1, l2, linf, or a number)"))?;
            if p < 1.0 {
                return Err(format!("Lp metric needs p >= 1, got {p}"));
            }
            Ok(Metric::Lp(p))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_flags_mix() {
        let o = parse(&sv(&["a.csv", "-r", "0.5", "b.csv", "--bins", "20"])).unwrap();
        assert_eq!(o.positional, vec!["a.csv", "b.csv"]);
        assert_eq!(o.radius, Some(0.5));
        assert_eq!(o.bins, Some(20));
    }

    #[test]
    fn metric_names_parse() {
        assert_eq!(parse_metric("l1").unwrap(), Metric::L1);
        assert_eq!(parse_metric("L2").unwrap(), Metric::L2);
        assert_eq!(parse_metric("linf").unwrap(), Metric::Linf);
        assert_eq!(parse_metric("3").unwrap(), Metric::Lp(3.0));
        assert_eq!(parse_metric("l2.5").unwrap(), Metric::Lp(2.5));
        assert!(parse_metric("0.5").is_err());
        assert!(parse_metric("euclid").is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&sv(&["a.csv", "--radius"])).is_err());
        assert!(parse(&sv(&["a.csv", "--obs-out"])).is_err());
    }

    #[test]
    fn trace_flags_parse() {
        assert_eq!(parse(&sv(&["a.csv"])).unwrap().trace, None);
        assert_eq!(
            parse(&sv(&["a.csv", "--trace"])).unwrap().trace,
            Some(TraceFormat::Pretty)
        );
        assert_eq!(
            parse(&sv(&["a.csv", "--trace=pretty"])).unwrap().trace,
            Some(TraceFormat::Pretty)
        );
        assert_eq!(
            parse(&sv(&["a.csv", "--trace=json"])).unwrap().trace,
            Some(TraceFormat::Json)
        );
        assert!(parse(&sv(&["a.csv", "--trace=xml"])).is_err());
        let o = parse(&sv(&["a.csv", "--trace=json", "--obs-out", "obs.json"])).unwrap();
        assert_eq!(o.obs_out.as_deref(), Some("obs.json"));
    }

    #[test]
    fn regress_and_trace_out_flags_parse() {
        let o = parse(&sv(&[
            "old.json",
            "new.json",
            "--max-perf-regress",
            "15%",
            "--max-error-regress",
            "0.02",
        ]))
        .unwrap();
        assert_eq!(o.max_perf_regress, Some(0.15));
        assert_eq!(o.max_error_regress, Some(0.02));
        let o = parse(&sv(&["a.csv", "--trace-out", "t.json", "--true-pc", "123"])).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.true_pc, Some(123.0));
        assert!(parse(&sv(&["a.csv", "--max-perf-regress", "x"])).is_err());
        assert!(parse(&sv(&["a.csv", "--trace-out"])).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let o = parse(&sv(&[
            "--port",
            "9099",
            "--catalog",
            "laws.tsv",
            "data.csv",
            "--drift-interval",
            "2.5",
            "--error-budget",
            "0.4",
            "--drift-sample",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(o.port, Some(9099));
        assert_eq!(o.catalog.as_deref(), Some("laws.tsv"));
        assert_eq!(o.positional, vec!["data.csv"]);
        assert_eq!(o.drift_interval, Some(2.5));
        assert_eq!(o.error_budget, Some(0.4));
        assert_eq!(o.drift_sample, Some(0.1));
        assert!(parse(&sv(&["--port", "99999"])).is_err());
        assert!(parse(&sv(&["--drift-interval", "0"])).is_err());
        assert!(parse(&sv(&["--drift-interval", "inf"])).is_err());
        assert!(parse(&sv(&["--error-budget", "-1"])).is_err());
        assert!(parse(&sv(&["--drift-sample", "1.5"])).is_err());
        assert!(parse(&sv(&["--catalog"])).is_err());
    }

    #[test]
    fn slo_and_access_log_flags_parse() {
        let o = parse(&sv(&[
            "--slo",
            "/estimate=2ms@p99,err<0.1%",
            "--slo",
            "/healthz=1ms@p50",
            "--access-log",
            "access.jsonl",
            "--slow-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(
            o.slos,
            vec!["/estimate=2ms@p99,err<0.1%", "/healthz=1ms@p50"]
        );
        assert_eq!(o.access_log.as_deref(), Some("access.jsonl"));
        assert_eq!(o.slow_ms, Some(250.0));
        assert!(parse(&sv(&["--slow-ms", "-1"])).is_err());
        assert!(parse(&sv(&["--slo"])).is_err());
    }

    #[test]
    fn loadtest_flags_parse() {
        let o = parse(&sv(&[
            "--connections",
            "4",
            "--duration",
            "2.5",
            "--seed",
            "99",
            "--mix",
            "estimate=4,healthz=1",
            "--law",
            "uniform",
            "--out",
            "BENCH_serve.json",
        ]))
        .unwrap();
        assert_eq!(o.connections, Some(4));
        assert_eq!(o.duration, Some(2.5));
        assert_eq!(o.seed, Some(99));
        assert_eq!(o.mix.as_deref(), Some("estimate=4,healthz=1"));
        assert_eq!(o.law.as_deref(), Some("uniform"));
        assert_eq!(o.out.as_deref(), Some("BENCH_serve.json"));
        assert_eq!(parse(&sv(&["--rate", "500"])).unwrap().rate, Some(500.0));
        assert!(parse(&sv(&["--connections", "0"])).is_err());
        assert!(parse(&sv(&["--rate", "0"])).is_err());
        assert!(parse(&sv(&["--rate", "inf"])).is_err());
        assert!(parse(&sv(&["--duration", "0"])).is_err());
        assert!(parse(&sv(&["--seed", "x"])).is_err());
    }

    #[test]
    fn profiler_flags_parse() {
        let o = parse(&sv(&[
            "--profile-hz",
            "99",
            "--profile-out",
            "profile.folded",
        ]))
        .unwrap();
        assert_eq!(o.profile_hz, Some(99.0));
        assert_eq!(o.profile_out.as_deref(), Some("profile.folded"));
        assert!(parse(&sv(&["--profile-hz", "0"])).is_err());
        assert!(parse(&sv(&["--profile-hz", "-5"])).is_err());
        assert!(parse(&sv(&["--profile-hz", "inf"])).is_err());
        assert!(parse(&sv(&["--profile-hz", "x"])).is_err());
        assert!(parse(&sv(&["--profile-out"])).is_err());
    }

    #[test]
    fn chaos_and_overload_flags_parse() {
        let o = parse(&sv(&[
            "--max-inflight",
            "8",
            "--deadline-ms",
            "250",
            "--fault",
            "estimate:latency=50ms@0.1,accept:reset@0.02",
            "--fault-seed",
            "7",
            "--chaos",
            "--retries",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.max_inflight, Some(8));
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(
            o.fault.as_deref(),
            Some("estimate:latency=50ms@0.1,accept:reset@0.02")
        );
        assert_eq!(o.fault_seed, Some(7));
        assert!(o.chaos);
        assert_eq!(o.retries, Some(3));
        let o = parse(&sv(&["--max-inflight", "0"])).unwrap();
        assert_eq!(o.max_inflight, Some(0));
        assert!(!parse(&sv(&["--retries", "0"])).unwrap().chaos);
        assert!(parse(&sv(&["--deadline-ms", "0"])).is_err());
        assert!(parse(&sv(&["--deadline-ms", "x"])).is_err());
        assert!(parse(&sv(&["--max-inflight", "-1"])).is_err());
        assert!(parse(&sv(&["--fault"])).is_err());
        assert!(parse(&sv(&["--retries", "-2"])).is_err());
    }

    #[test]
    fn telemetry_and_dash_flags_parse() {
        let o = parse(&sv(&[
            "--metrics-interval",
            "0.25",
            "--alert",
            "hot: rate(serve.requests[30s]) > 100 for 30s",
            "--alert",
            "queue: serve.queue.depth >= 4",
            "--alerts-out",
            "alerts.json",
            "--refresh",
            "0.5",
            "--frames",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.metrics_interval, Some(0.25));
        assert_eq!(o.alerts.len(), 2);
        assert!(o.alerts[0].starts_with("hot:"));
        assert_eq!(o.alerts_out.as_deref(), Some("alerts.json"));
        assert_eq!(o.refresh, Some(0.5));
        assert_eq!(o.frames, Some(3));
        assert!(parse(&sv(&["--metrics-interval", "0"])).is_err());
        assert!(parse(&sv(&["--metrics-interval", "inf"])).is_err());
        assert!(parse(&sv(&["--refresh", "-1"])).is_err());
        assert!(parse(&sv(&["--frames", "0"])).is_err());
        assert!(parse(&sv(&["--alert"])).is_err());
        assert!(parse(&sv(&["--alerts-out"])).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse(&sv(&["--frobnicate", "1"])).is_err());
    }

    #[test]
    fn bad_numbers_are_errors() {
        assert!(parse(&sv(&["-r", "abc"])).is_err());
        assert!(parse(&sv(&["--bins", "-3"])).is_err());
    }
}
