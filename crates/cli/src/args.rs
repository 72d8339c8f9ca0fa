//! Tiny hand-rolled argument parser. Every flag is declared once, in
//! [`FLAGS`]: its syntax, its help and default text, and the setter that
//! validates its value into [`Options`]. Small enough that a dependency
//! would cost more than it saves.

use std::str::FromStr;

use sjpl_core::check_radius;
use sjpl_geom::Metric;
use sjpl_index::JoinAlgorithm;

/// Output format for the `--trace` observability snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Structured JSON (machine-readable; the `sjpl-obs` snapshot schema).
    Json,
    /// Aligned human-readable table.
    Pretty,
}

/// A parsed command line: the positional arguments, the flags given, and
/// one typed field per [`FLAGS`] entry, named after the flag (`None` or
/// empty when the flag was not given; its help says what that means).
#[derive(Default)]
pub struct Options {
    /// Positional arguments (dataset paths, counts, seeds…).
    pub positional: Vec<String>,
    /// The long name of every flag given, in order.
    pub given: Vec<&'static str>,
    pub radius: Option<f64>,
    pub bins: Option<usize>,
    pub levels: Option<u32>,
    pub ratio: Option<f64>,
    pub metric: Option<Metric>,
    pub threads: Option<usize>,
    pub method: Option<&'static str>,
    pub algo: Option<JoinAlgorithm>,
    pub trace: Option<TraceFormat>,
    pub obs_out: Option<String>,
    pub trace_out: Option<String>,
    pub true_pc: Option<f64>,
    pub max_perf_regress: Option<f64>,
    pub max_error_regress: Option<f64>,
    pub port: Option<u16>,
    pub catalog: Option<String>,
    pub drift_interval: Option<f64>,
    pub error_budget: Option<f64>,
    pub drift_sample: Option<f64>,
    pub slos: Vec<String>,
    pub access_log: Option<String>,
    pub slow_ms: Option<f64>,
    pub profile_hz: Option<f64>,
    pub max_inflight: Option<usize>,
    pub deadline_ms: Option<u64>,
    pub fault: Option<String>,
    pub fault_seed: Option<u64>,
    pub metrics_interval: Option<f64>,
    pub alerts: Vec<String>,
    pub connections: Option<usize>,
    pub rate: Option<f64>,
    pub duration: Option<f64>,
    pub seed: Option<u64>,
    pub mix: Option<String>,
    pub law: Option<String>,
    pub out: Option<String>,
    pub profile_out: Option<String>,
    pub retries: Option<u32>,
    pub chaos: bool,
    pub alerts_out: Option<String>,
    pub refresh: Option<f64>,
    pub frames: Option<u64>,
}

/// One flag: the single declaration of its syntax, help, default and
/// validation. The parser reads the flag's names and arity from the same
/// `syntax` string `sjpl help` prints, so the two cannot disagree.
pub struct Flag {
    /// Names, then the value: `-r, --radius <r>` takes the next argument,
    /// `--chaos` none, `--trace[=json|pretty]` an optional inline one.
    pub syntax: &'static str,
    /// What the flag does, ending in its `[default …]` when it has one.
    pub help: &'static str,
    /// Parses and validates the value (empty for a switch) into its field.
    set: fn(&mut Options, &str) -> Result<(), String>,
}

impl Flag {
    /// Every name the flag answers to (`-r` and `--radius`).
    fn names(&self) -> impl Iterator<Item = &'static str> {
        self.syntax
            .split(' ')
            .take_while(|t| t.starts_with('-'))
            .map(|t| t.trim_end_matches(',').split('[').next().unwrap_or(t))
    }

    /// The long name: what commands list and errors report.
    pub fn name(&self) -> &'static str {
        self.names().last().unwrap_or(self.syntax)
    }

    /// Whether the flag's value is the next argument.
    pub fn takes_value(&self) -> bool {
        self.syntax.contains(" <")
    }
}

/// Every flag `sjpl` knows, in `sjpl help` order.
pub const FLAGS: &[Flag] = &[
    Flag {
        syntax: "-r, --radius <r>",
        help: "query radius, finite and >= 0",
        set: |o, v| put(&mut o.radius, num(v, "radius").and_then(check_radius)),
    },
    Flag {
        syntax: "--bins <n>",
        help: "PC-plot radii count [default 40]",
        set: |o, v| put(&mut o.bins, num(v, "bins")),
    },
    Flag {
        syntax: "--levels <n>",
        help: "BOPS grid levels [default 12; 16 if dim > 6]",
        set: |o, v| put(&mut o.levels, num(v, "levels")),
    },
    Flag {
        syntax: "--ratio <x>",
        help: "BOPS grid-side shrink factor, in (0, 1) [default 0.5; 0.8 if dim > 6]",
        set: |o, v| put(&mut o.ratio, num(v, "ratio")),
    },
    Flag {
        syntax: "--metric <m>",
        help: "distance metric: l1 | l2 | linf | <p> for Lp [default linf]",
        set: |o, v| put(&mut o.metric, parse_metric(v)),
    },
    Flag {
        syntax: "--threads <n>",
        help: "worker threads, 0 = one per CPU [default 0]; serve needs >= 1 [default 4]",
        set: |o, v| put(&mut o.threads, num(v, "threads")),
    },
    Flag {
        syntax: "--method <m>",
        help: "law method: pc (exact PC plot) | bops [default bops]",
        set: |o, v| put(&mut o.method, method(v)),
    },
    Flag {
        syntax: "--algo <a>",
        help: "force a join engine: nested-loop | kd-tree | plane-sweep | par-sweep [default: \
               chosen by dimension, par-sweep up to 2-d and kd-tree above]",
        set: |o, v| put(&mut o.algo, join_algorithm(v)),
    },
    Flag {
        syntax: "--trace[=json|pretty]",
        help: "record spans, counters and gauges; print the snapshot to stderr, not stdout",
        set: |o, v| put(&mut o.trace, trace_format(v)),
    },
    Flag {
        syntax: "--obs-out <file>",
        help: "write the snapshot to <file> (implies --trace; json unless --trace=pretty)",
        set: |o, v| put(&mut o.obs_out, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--trace-out <file>",
        help: "write the span timeline to <file> as a Chrome trace (implies --trace)",
        set: |o, v| put(&mut o.trace_out, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--true-pc <count>",
        help: "known ground-truth pair count, finite and >= 0, for accuracy telemetry",
        set: |o, v| put(&mut o.true_pc, non_negative(v, "true-pc")),
    },
    Flag {
        syntax: "--max-perf-regress <pct>",
        help: "allowed mean-time growth and throughput drop [default 10%]",
        set: |o, v| put(&mut o.max_perf_regress, crate::regress::parse_percent(v)),
    },
    Flag {
        syntax: "--max-error-regress <x>",
        help: "allowed absolute growth of error rates and rel errors [default 0.05]",
        set: |o, v| put(&mut o.max_error_regress, num(v, "error threshold")),
    },
    Flag {
        syntax: "--port <p>",
        help: "127.0.0.1 port to bind, or to target without a host:port [default 9090]",
        set: |o, v| put(&mut o.port, num(v, "port")),
    },
    Flag {
        syntax: "--catalog <file>",
        help: "law catalog to serve (build one with catalog-add)",
        set: |o, v| put(&mut o.catalog, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--drift-interval <s>",
        help: "seconds between drift checks [default 30]",
        set: |o, v| put(&mut o.drift_interval, positive(v, "drift interval")),
    },
    Flag {
        syntax: "--error-budget <x>",
        help: "mean rel error at which the drift-<law> rule calls a law drifted [default 0.5]",
        set: |o, v| put(&mut o.error_budget, non_negative(v, "error budget")),
    },
    Flag {
        syntax: "--drift-sample <r>",
        help: "sampling rate of the drift ground-truth oracle, in (0, 1] [default 0.2]",
        set: |o, v| {
            put(
                &mut o.drift_sample,
                checked(v, "drift sample rate", "in (0, 1]", |x| x > 0.0 && x <= 1.0),
            )
        },
    },
    Flag {
        syntax: "--slo <spec>",
        help: "per-endpoint SLO, repeatable, e.g. /estimate=2ms@p99,err<0.1%",
        set: |o, v| push(&mut o.slos, v),
    },
    Flag {
        syntax: "--access-log <file>",
        help: "append one JSON line per request (id, endpoint, status, duration, law)",
        set: |o, v| put(&mut o.access_log, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--slow-ms <ms>",
        help: "count requests this slow and pin them into the /timeline ring [default 100]",
        set: |o, v| put(&mut o.slow_ms, non_negative(v, "slow-ms")),
    },
    Flag {
        syntax: "--profile-hz <hz>",
        help: "run the span-stack profiler at this rate (GET /debug/profile) [default off]",
        set: |o, v| put(&mut o.profile_hz, positive(v, "profile-hz")),
    },
    Flag {
        syntax: "--max-inflight <n>",
        help: "admission capacity; excess requests are shed with 429 [default 0 = --threads]",
        set: |o, v| put(&mut o.max_inflight, num(v, "max-inflight")),
    },
    Flag {
        syntax: "--deadline-ms <ms>",
        help: "per-request deadline (503 past it; X-Deadline-Ms overrides) [default off]",
        set: |o, v| put(&mut o.deadline_ms, at_least_one(v, "deadline-ms")),
    },
    Flag {
        syntax: "--fault <plan>",
        help: "fault plan of <where>:<kind>[=v]@<p> rules, kind latency=<dur> | reset | torn | \
               panic, e.g. estimate:latency=50ms@0.1,accept:reset@0.02",
        set: |o, v| put(&mut o.fault, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--fault-seed <n>",
        help: "RNG seed for the fault plan [default 42]",
        set: |o, v| put(&mut o.fault_seed, num(v, "fault-seed")),
    },
    Flag {
        syntax: "--metrics-interval <s>",
        help: "seconds between self-scrapes into the TSDB behind /query and alerts [default 5]",
        set: |o, v| put(&mut o.metrics_interval, positive(v, "metrics interval")),
    },
    Flag {
        syntax: "--alert <rule>",
        help: "alert rule, repeatable, e.g. 'hot: rate(serve.requests[30s]) > 100 for 30s'",
        set: |o, v| push(&mut o.alerts, v),
    },
    Flag {
        syntax: "--connections <n>",
        help: "concurrent keep-alive connections, at most the server's --threads [default 2]",
        set: |o, v| put(&mut o.connections, at_least_one(v, "connections")),
    },
    Flag {
        syntax: "--rate <r>",
        help: "open-loop target req/s [default: closed loop]",
        set: |o, v| put(&mut o.rate, positive(v, "rate")),
    },
    Flag {
        syntax: "--duration <s>",
        help: "run length in seconds [default 10]",
        set: |o, v| put(&mut o.duration, positive(v, "duration")),
    },
    Flag {
        syntax: "--seed <n>",
        help: "workload RNG seed [default 42]",
        set: |o, v| put(&mut o.seed, num(v, "seed")),
    },
    Flag {
        syntax: "--mix <spec>",
        help: "weighted endpoint mix [default estimate=8,healthz=1,metrics=1]",
        set: |o, v| put(&mut o.mix, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--law <name>",
        help: "law name for /estimate traffic [default uniform]",
        set: |o, v| put(&mut o.law, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--out <file>",
        help: "report path [default BENCH_serve.json]",
        set: |o, v| put(&mut o.out, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--profile-out <file>",
        help: "write the target's /debug/profile collapsed stacks from mid-run to <file>",
        set: |o, v| put(&mut o.profile_out, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--retries <n>",
        help: "retries per request on transport errors, 429 and 503 [default 0]",
        set: |o, v| put(&mut o.retries, num(v, "retries")),
    },
    Flag {
        syntax: "--chaos",
        help: "add hostile clients: slow-loris headers, truncated bodies, aborts, garbage",
        set: |o, _| {
            o.chaos = true;
            Ok(())
        },
    },
    Flag {
        syntax: "--alerts-out <file>",
        help: "write GET /alerts to <file> when the run ends",
        set: |o, v| put(&mut o.alerts_out, Ok(v.to_owned())),
    },
    Flag {
        syntax: "--refresh <s>",
        help: "seconds between frames [default 1]",
        set: |o, v| put(&mut o.refresh, positive(v, "refresh")),
    },
    Flag {
        syntax: "--frames <n>",
        help: "render n frames then exit [default: until ^C]",
        set: |o, v| put(&mut o.frames, at_least_one(v, "frames")),
    },
];

/// Parses `argv` into [`Options`] through the [`FLAGS`] setters. An
/// argument that starts with `-` and names no flag is an error.
pub fn parse(argv: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let (name, inline) = arg
            .split_once('=')
            .map_or((arg.as_str(), None), |(n, v)| (n, Some(v)));
        let Some(flag) = FLAGS.iter().find(|f| {
            f.names().any(|n| n == name) && (inline.is_none() || f.syntax.contains("[="))
        }) else {
            if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}"));
            }
            o.positional.push(arg.clone());
            continue;
        };
        let value = match inline {
            Some(v) => v,
            None if flag.takes_value() => args
                .next()
                .ok_or_else(|| format!("missing value for {}", flag.name()))?,
            None => "",
        };
        (flag.set)(&mut o, value)?;
        o.given.push(flag.name());
    }
    Ok(o)
}

fn put<T>(field: &mut Option<T>, value: Result<T, String>) -> Result<(), String> {
    *field = Some(value?);
    Ok(())
}

fn push(field: &mut Vec<String>, v: &str) -> Result<(), String> {
    field.push(v.to_owned());
    Ok(())
}

fn num<T: FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} {v:?}"))
}

/// A number `> 0`, finite.
fn positive(v: &str, what: &str) -> Result<f64, String> {
    checked(v, what, "> 0", |x| x > 0.0)
}

/// A number `>= 0`, finite.
fn non_negative(v: &str, what: &str) -> Result<f64, String> {
    checked(v, what, ">= 0", |x| x >= 0.0)
}

/// A finite number that passes `ok`; `rule` says what `ok` checks.
fn checked(v: &str, what: &str, rule: &str, ok: fn(f64) -> bool) -> Result<f64, String> {
    let x: f64 = num(v, what)?;
    if x.is_finite() && ok(x) {
        Ok(x)
    } else {
        Err(format!("{what} {v:?} must be finite and {rule}"))
    }
}

/// A count `>= 1`.
fn at_least_one<T: FromStr + PartialOrd + From<u8>>(v: &str, what: &str) -> Result<T, String> {
    let n: T = num(v, what)?;
    if n >= T::from(1) {
        Ok(n)
    } else {
        Err(format!("{what} must be >= 1"))
    }
}

fn method(v: &str) -> Result<&'static str, String> {
    ["pc", "bops"]
        .into_iter()
        .find(|m| *m == v)
        .ok_or_else(|| format!("unknown method {v:?} (pc or bops)"))
}

fn join_algorithm(v: &str) -> Result<JoinAlgorithm, String> {
    JoinAlgorithm::ALL
        .into_iter()
        .find(|a| a.name() == v)
        .ok_or_else(|| {
            let names: Vec<&str> = JoinAlgorithm::ALL.iter().map(|a| a.name()).collect();
            format!("unknown algorithm {v:?} (one of {})", names.join(", "))
        })
}

fn trace_format(v: &str) -> Result<TraceFormat, String> {
    match v {
        "" | "pretty" => Ok(TraceFormat::Pretty),
        "json" => Ok(TraceFormat::Json),
        _ => Err(format!("unknown trace format {v:?} (use json or pretty)")),
    }
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
        for bad in [
            &["-r", "nan"][..],
            &["-r", "-1"],
            &["--radius", "inf"],
            &["--true-pc", "-1"],
            &["--true-pc", "nan"],
        ] {
            assert!(parse(&sv(bad)).is_err(), "{bad:?}");
        }
    }
}
