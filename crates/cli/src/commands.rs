//! Subcommand implementations.

use std::fs::File;
use std::io::{BufRead, BufReader};

use sjpl_core::{
    bops_plot_cross, bops_plot_self, pc_plot_cross, pc_plot_self, BopsConfig, FitOptions,
    PairCountLaw, PcPlotConfig,
};
use sjpl_geom::{read_csv, write_csv, Metric, PointSet};
use sjpl_index::{
    pair_count, par_sweep_join_count, par_sweep_self_join_count, self_pair_count, JoinAlgorithm,
};

use crate::args::{parse, Options, TraceFormat};
use crate::error::CliError;

const USAGE: &str = "\
usage: sjpl <command> [args]

commands:
  generate <kind> <n> <seed> <out.csv>   synthesize a dataset
      kinds: uniform | sierpinski | cantor | streets | rails | water |
             political | galaxy-dev | galaxy-exp | eigenfaces
  pc-plot  <a.csv> [b.csv]               exact (quadratic) PC plot + fitted law
  bops     <a.csv> [b.csv]               linear-time BOPS plot + fitted law
  estimate <a.csv> [b.csv] -r <radius>   O(1) selectivity estimate
  join     <a.csv> [b.csv] -r <radius>   exact distance-join count
  dim      <a.csv>                       correlation fractal dimension
  info     <a.csv>                       dataset summary + quick law fit
  sample   <in.csv> <rate> <seed> <out.csv>   fixed-rate sample of a dataset
  knn      <a.csv> <x,y,...> -k <k>      k nearest neighbors of a query point
  catalog-add <cat.tsv> <name> <a.csv> [b.csv]   fit a law, store it
  catalog-estimate <cat.tsv> <name> -r <radius>  O(1) estimate from stored law
  trace-export <snapshot.json> <trace.json>      convert a saved snapshot's
                                                 timeline to Chrome Trace Format
                                                 (open at https://ui.perfetto.dev)
  regress <old.json> <new.json>                  diff two snapshot/bench reports;
                                                 exit nonzero on perf, throughput,
                                                 error-rate or accuracy regression
                                                 beyond the thresholds
  loadtest [host:port]                           drive a running serve daemon
                                                 with a seeded keep-alive
                                                 workload and write
                                                 BENCH_serve.json (req/s,
                                                 p50/p95/p99/p999 per endpoint,
                                                 client-visible error rates)
                                                 for the regress gate; --chaos
                                                 adds hostile clients, --retries
                                                 a Retry-After-aware retry policy
  serve --catalog <cat.tsv> [data.csv…]          live estimation daemon: POST
                                                 /estimate answers O(1) from the
                                                 stored laws; GET /metrics
                                                 (Prometheus), /snapshot,
                                                 /timeline, /healthz, /readyz,
                                                 /alerts, /query. Each data.csv
                                                 whose file stem names a catalog
                                                 law gets an online drift probe
                                                 (sampled ground truth vs. the
                                                 law). A telemetry thread
                                                 self-scrapes the recorder into
                                                 an in-process TSDB and
                                                 evaluates alert rules on it
  dash [host:port]                               live ANSI dashboard over a
                                                 running serve daemon: per-
                                                 endpoint req/s sparklines,
                                                 p50/p99, error rates, drift
                                                 status and alert states,
                                                 polled from /query + /alerts

options:
  -r, --radius <r>     query radius (estimate, join)
  --bins <n>           PC-plot radii count            [default 40]
  --levels <n>         BOPS grid levels               [default 12]
  --ratio <x>          BOPS grid-side shrink factor   [default 0.5; 0.8 if dim > 6]
  --metric <m>         l1 | l2 | linf | <p>           [default linf]
  --threads <n>        worker threads for PC plots, BOPS and the par-sweep
                       join (SJPL_JOIN_THREADS also honored) [default: all CPUs]
  --method <m>         pc | bops (estimate, catalog-add)  [default bops]
  --algo <a>           nested-loop | kd-tree | plane-sweep | par-sweep
                                                    [default par-sweep]
  -k <n>               neighbor count for knn         [default 1]
  --trace[=json|pretty]  record spans/counters/gauges while the command runs
                       and print the snapshot to stderr (stdout stays clean
                       for the command's own output)
  --obs-out <file>     write the snapshot to <file> instead (implies --trace;
                       json unless --trace=pretty)
  --trace-out <file>   write the run's span timeline to <file> in Chrome
                       Trace Format (implies --trace; open in Perfetto)
  --true-pc <count>    known ground-truth pair count, recorded in accuracy
                       telemetry (estimate, catalog-estimate)
  --max-perf-regress <pct>  regress: allowed mean-time growth [default 10%]
  --max-error-regress <x>   regress: allowed absolute rel-error growth
                            [default 0.05]
  --port <p>           serve: bind port on 127.0.0.1 [default 9090]
  --catalog <file>     serve: law catalog to serve (see catalog-add)
  --drift-interval <s> serve: seconds between drift checks [default 30]
  --error-budget <x>   serve: mean rel error that counts a law as drifted,
                       evaluated by the drift-<law> rules [default 0.5]
  --drift-sample <r>   serve: sampling rate of the drift ground-truth oracle
                       [default 0.2]
  --slo <spec>         serve: per-endpoint SLO, repeatable; latency clause
                       <dur>@<pNN> and/or error clause err<rate>, e.g.
                       /estimate=2ms@p99,err<0.1%  — windowed compliance,
                       burn rate and breach counters appear on /metrics,
                       refreshed every --metrics-interval
  --access-log <file>  serve: append one JSON line per request (request id,
                       endpoint, status, duration, law)
  --slow-ms <ms>       serve: requests at least this slow are counted and
                       pinned into the /timeline ring [default 100]
  --profile-hz <hz>    serve: run the continuous span-stack profiler at this
                       sampling rate; collapsed stacks via GET /debug/profile,
                       flamegraph section in /snapshot [off by default]
  --max-inflight <n>   serve: admission-control capacity; requests beyond it
                       (plus a short queue) are shed with 429 + Retry-After.
                       Debug endpoints shed first, health probes never
                       [default 0 = same as --threads]
  --deadline-ms <ms>   serve: default per-request deadline budget; requests
                       exceeding it get 503 + Retry-After. Clients override
                       per request with an X-Deadline-Ms header [off by default]
  --fault <plan>       serve: deterministic fault injection, comma-separated
                       <stage|endpoint>:<kind>[=value]@<probability> rules,
                       e.g. estimate:latency=50ms@0.1,accept:reset@0.02
                       (kinds: latency=<dur>, reset, torn, panic); every
                       injection is counted on /metrics
  --fault-seed <n>     serve: RNG seed for the fault plan [default 42]
  --metrics-interval <s>  serve: seconds between telemetry self-scrapes into
                       the in-process ring-buffer TSDB that answers GET
                       /query and feeds the alert engine [default 5]
  --alert <rule>       serve: declarative alert rule, repeatable;
                       'name: expr op threshold [for <dur>]' where expr is
                       the /query grammar, e.g.
                       'hot: rate(serve.requests[30s]) > 100 for 30s'.
                       Multi-window SLO burn-rate and drift rules are
                       built in for every --slo and drift probe; states show
                       on GET /alerts and as ALERTS{...} on /metrics
  --connections <n>    loadtest: concurrent keep-alive connections; keep at
                       or below the server's --threads [default 2]
  --rate <r>           loadtest: open-loop target req/s (latency measured
                       from the scheduled send time); omit for closed loop
  --duration <s>       loadtest: run length in seconds [default 10]
  --seed <n>           loadtest: workload RNG seed [default 42]
  --mix <spec>         loadtest: weighted endpoint mix
                       [default estimate=8,healthz=1,metrics=1]
  --law <name>         loadtest: law name for /estimate traffic
                       [default uniform]
  --out <file>         loadtest: report path [default BENCH_serve.json]
  --profile-out <file> loadtest: fetch /debug/profile from the target during
                       the run and write the collapsed stacks here (feed to
                       a flamegraph renderer)
  --retries <n>        loadtest: retry budget per logical request — retries on
                       transport failure, 429 and 503 with capped exponential
                       backoff, deterministic jitter and Retry-After awareness
                       [default 0]
  --chaos              loadtest: interleave hostile-client acts on throwaway
                       connections (slow-loris header drip, truncated bodies,
                       mid-response aborts, garbage pipelining)
  --alerts-out <file>  loadtest: fetch GET /alerts when the run ends and
                       write the JSON here; the report's alerts_fired rollup
                       is filled either way and `sjpl regress` prints fired
                       alerts as notes
  --refresh <s>        dash: seconds between frames [default 1]
  --frames <n>         dash: render n frames then exit [default: until ^C]

exit codes:
  0  success
  1  failure (bad usage, I/O error, or a regress gate that found regressions)
  2  regress: a report file is unusable (malformed JSON, or no
     summary.series/results/spans perf section and no accuracy section)";

/// Entry point used by `main` (and by the tests). Most failures exit 1;
/// commands that need a distinguishable failure (see `CliError`'s
/// constants) return their own code.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::from(format!("no command given\n{USAGE}")));
    };
    let opts = parse(rest)?;
    let tracing = opts.trace.is_some() || opts.obs_out.is_some() || opts.trace_out.is_some();
    if tracing {
        sjpl_obs::reset();
        sjpl_obs::set_enabled(true);
    }
    let result: Result<(), CliError> = match cmd.as_str() {
        "generate" => cmd_generate(&opts).map_err(CliError::from),
        "pc-plot" => dispatch_dim(&opts, CmdKind::PcPlot).map_err(CliError::from),
        "bops" => dispatch_dim(&opts, CmdKind::Bops).map_err(CliError::from),
        "estimate" => dispatch_dim(&opts, CmdKind::Estimate).map_err(CliError::from),
        "join" => dispatch_dim(&opts, CmdKind::Join).map_err(CliError::from),
        "dim" => dispatch_dim(&opts, CmdKind::Dim).map_err(CliError::from),
        "info" => dispatch_dim(&opts, CmdKind::Info).map_err(CliError::from),
        "sample" => dispatch_dim(&opts, CmdKind::Sample).map_err(CliError::from),
        "knn" => dispatch_dim(&opts, CmdKind::Knn).map_err(CliError::from),
        "catalog-add" => cmd_catalog_add(&opts).map_err(CliError::from),
        "catalog-estimate" => cmd_catalog_estimate(&opts).map_err(CliError::from),
        "trace-export" => cmd_trace_export(&opts).map_err(CliError::from),
        "regress" => cmd_regress(&opts),
        "loadtest" => cmd_loadtest(&opts).map_err(CliError::from),
        "serve" => cmd_serve(&opts).map_err(CliError::from),
        "dash" => cmd_dash(&opts).map_err(CliError::from),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::from(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    };
    if tracing {
        sjpl_obs::set_enabled(false);
        let snap = sjpl_obs::snapshot().with_timeline();
        sjpl_obs::reset();
        // Emit the snapshot even when the command failed: a trace of the
        // work done up to the error is exactly what debugging wants.
        emit_trace(&opts, &snap)?;
    }
    result
}

/// Renders the snapshot per `--trace` / `--obs-out` / `--trace-out`: JSON
/// unless pretty was requested; to the output file when given, else to
/// **stderr** — never stdout, which belongs to the command's own output
/// (the snapshot used to interleave with result `println!`s and corrupt
/// piped JSON). `--trace-out` additionally writes the run's timeline as a
/// Chrome Trace Format file.
fn emit_trace(o: &Options, snap: &sjpl_obs::Snapshot) -> Result<(), String> {
    if o.trace.is_some() || o.obs_out.is_some() {
        let format = o.trace.unwrap_or(TraceFormat::Json);
        let body = match format {
            TraceFormat::Json => snap.to_json(),
            TraceFormat::Pretty => snap.to_pretty(),
        };
        match &o.obs_out {
            Some(path) => {
                std::fs::write(path, body.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote observability snapshot to {path}");
            }
            None => eprintln!("{body}"),
        }
    }
    if let Some(path) = &o.trace_out {
        std::fs::write(path, snap.to_chrome_trace().as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (open at https://ui.perfetto.dev)");
    }
    Ok(())
}

/// `trace-export <snapshot.json> <trace.json>` — converts a saved schema-2
/// snapshot into a Chrome Trace Format file.
fn cmd_trace_export(o: &Options) -> Result<(), String> {
    let [input, output] = o.positional.as_slice() else {
        return Err("trace-export needs: <snapshot.json> <trace.json>".to_owned());
    };
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let trace = sjpl_obs::chrome::snapshot_json_to_chrome(&text)?;
    std::fs::write(output, trace.as_bytes()).map_err(|e| format!("{output}: {e}"))?;
    println!("wrote Chrome trace to {output} (open at https://ui.perfetto.dev)");
    Ok(())
}

/// `regress <old.json> <new.json>` — the perf + accuracy gate. Exits
/// nonzero (via `Err`) when any compared series regresses beyond the
/// thresholds; identical inputs always pass. An input file the gate can't
/// read as a report at all exits with the distinct code
/// [`CliError::BAD_REPORT`].
fn cmd_regress(o: &Options) -> Result<(), CliError> {
    let [old_path, new_path] = o.positional.as_slice() else {
        return Err(CliError::from("regress needs: <old.json> <new.json>"));
    };
    let defaults = crate::regress::Thresholds::default();
    let thresholds = crate::regress::Thresholds {
        max_perf: o.max_perf_regress.unwrap_or(defaults.max_perf),
        max_error: o.max_error_regress.unwrap_or(defaults.max_error),
    };
    let rep = crate::regress::compare_files(old_path, new_path, &thresholds)?;
    for note in &rep.notes {
        eprintln!("note: {note}");
    }
    println!(
        "compared {} perf series, {} throughput series, {} error-rate series and \
         {} accuracy records (thresholds: perf +{:.1}%, throughput -{:.1}%, \
         error rate/rel_error +{:.3})",
        rep.perf_compared,
        rep.throughput_compared,
        rep.error_rate_compared,
        rep.accuracy_compared,
        thresholds.max_perf * 100.0,
        thresholds.max_perf * 100.0,
        thresholds.max_error
    );
    if rep.passed() {
        println!("regress: OK");
        Ok(())
    } else {
        Err(CliError::from(format!(
            "{} regression(s):\n  {}",
            rep.regressions.len(),
            rep.regressions.join("\n  ")
        )))
    }
}

/// `loadtest [host:port]` — drive a running daemon with a deterministic
/// mixed workload and write the `BENCH_serve.json` report the regress
/// gate consumes.
fn cmd_loadtest(o: &Options) -> Result<(), String> {
    use crate::loadtest::{default_mix, parse_mix, LoadtestConfig};
    let addr = parse_target(o, "loadtest")?;
    let cfg = LoadtestConfig {
        addr,
        duration: std::time::Duration::from_secs_f64(o.duration.unwrap_or(10.0)),
        connections: o.connections.unwrap_or(2),
        rate: o.rate,
        seed: o.seed.unwrap_or(42),
        mix: match &o.mix {
            Some(s) => parse_mix(s)?,
            None => default_mix(),
        },
        law: o.law.clone().unwrap_or_else(|| "uniform".to_owned()),
        out: o
            .out
            .clone()
            .unwrap_or_else(|| "BENCH_serve.json".to_owned()),
        profile_out: o.profile_out.clone(),
        retries: o.retries.unwrap_or(0),
        chaos: o.chaos,
        alerts_out: o.alerts_out.clone(),
    };
    let summary = crate::loadtest::run(&cfg)?;
    println!("{summary}");
    Ok(())
}

/// Resolves the `[host:port]` positional shared by `loadtest` and `dash`:
/// a full address, a bare port, or nothing (`--port`, default 9090).
fn parse_target(o: &Options, what: &str) -> Result<std::net::SocketAddr, String> {
    let addr = match o.positional.as_slice() {
        [] => format!("127.0.0.1:{}", o.port.unwrap_or(9090)),
        [a] => {
            if a.contains(':') {
                a.clone()
            } else {
                format!("127.0.0.1:{a}")
            }
        }
        more => return Err(format!("{what} takes one target, got {more:?}")),
    };
    addr.parse()
        .map_err(|_| format!("bad target address {addr:?} (use host:port)"))
}

/// `dash [host:port]` — the live terminal dashboard over a running serve
/// daemon's `/query` + `/alerts` surface.
fn cmd_dash(o: &Options) -> Result<(), String> {
    let cfg = crate::dash::DashConfig {
        addr: parse_target(o, "dash")?,
        refresh: std::time::Duration::from_secs_f64(o.refresh.unwrap_or(1.0)),
        frames: o.frames,
    };
    crate::dash::run(&cfg)
}

/// `serve --catalog <cat.tsv> [data.csv…]` — the live estimation daemon.
/// Loads the catalog, builds a drift probe for every positional CSV whose
/// file stem names a catalog law, and blocks serving HTTP until killed.
fn cmd_serve(o: &Options) -> Result<(), String> {
    use sjpl_serve::{DriftConfig, ServeConfig, Server};
    use std::net::SocketAddr;
    use std::sync::{Arc, Mutex};

    let cat_path = o
        .catalog
        .as_deref()
        .ok_or("serve needs --catalog <laws.tsv> (build one with catalog-add)")?;
    let catalog = sjpl_core::LawCatalog::load(cat_path).map_err(|e| e.to_string())?;

    let mut probes = Vec::with_capacity(o.positional.len());
    for path in &o.positional {
        probes.push(build_probe(path, &catalog, o)?);
    }

    let defaults = DriftConfig::default();
    let drift = DriftConfig {
        interval: o
            .drift_interval
            .map_or(defaults.interval, std::time::Duration::from_secs_f64),
        error_budget: o.error_budget.unwrap_or(defaults.error_budget),
    };
    let mut slos = Vec::with_capacity(o.slos.len());
    for spec in &o.slos {
        slos.push(sjpl_serve::SloSpec::parse(spec)?);
    }
    let fault_seed = o.fault_seed.unwrap_or(42);
    let faults = match &o.fault {
        Some(spec) => Some(sjpl_serve::FaultPlan::parse(spec, fault_seed)?),
        None => None,
    };
    let mut alerts = Vec::with_capacity(o.alerts.len());
    for rule in &o.alerts {
        alerts.push(sjpl_serve::AlertRule::parse(rule)?);
    }
    let defaults_cfg = ServeConfig::default();
    let cfg = ServeConfig {
        addr: SocketAddr::from(([127, 0, 0, 1], o.port.unwrap_or(9090))),
        threads: o.threads.unwrap_or(4),
        probes,
        drift,
        slos,
        access_log: o.access_log.as_ref().map(std::path::PathBuf::from),
        slow_ns: o
            .slow_ms
            .map_or(defaults_cfg.slow_ns, |ms| (ms * 1e6) as u64),
        profile_hz: o.profile_hz,
        max_inflight: o.max_inflight.unwrap_or(0),
        deadline_ms: o.deadline_ms,
        faults,
        metrics_interval: o.metrics_interval.map_or(defaults_cfg.metrics_interval, {
            std::time::Duration::from_secs_f64
        }),
        alerts,
        ..defaults_cfg
    };
    let n_laws = catalog.len();
    let n_probes = cfg.probes.len();
    let n_slos = cfg.slos.len();
    let n_alerts = cfg.alerts.len();
    let metrics_interval = cfg.metrics_interval;
    let tsdb_capacity = cfg.tsdb_capacity;
    let access_log = cfg.access_log.clone();
    let profile_hz = cfg.profile_hz;
    let interval = cfg.drift.interval;
    let budget = cfg.drift.error_budget;
    let admission_banner = format!(
        "admission: max {} in flight (queue depth {}), shed with 429 + Retry-After",
        if cfg.max_inflight == 0 {
            cfg.threads.max(1)
        } else {
            cfg.max_inflight
        },
        cfg.queue_depth
    );
    let deadline_banner = cfg
        .deadline_ms
        .map(|ms| format!("deadline: {ms} ms per request (override with X-Deadline-Ms)"));
    let fault_banner = cfg
        .faults
        .as_ref()
        .map(|p| format!("fault injection: {p} (seed {fault_seed})"));
    let server = Server::start(Arc::new(Mutex::new(catalog)), cfg).map_err(|e| e.to_string())?;
    println!(
        "sjpl serve: listening on http://{} ({n_laws} law(s) loaded)",
        server.addr()
    );
    println!(
        "endpoints: POST /estimate | GET /metrics /snapshot /timeline /healthz /readyz \
         /alerts /query /debug/profile /debug/exemplars"
    );
    println!(
        "telemetry: self-scrape every {metrics_interval:?} into a {tsdb_capacity}-sample \
         ring per series; {n_alerts} user alert rule(s) plus built-in SLO burn-rate and \
         drift rules (watch with `sjpl dash`)"
    );
    if n_probes > 0 {
        println!(
            "drift monitor: {n_probes} probe(s), every {interval:?}; error budget {budget}, \
             evaluated by the drift-<law> rules"
        );
    }
    if n_slos > 0 {
        println!("slo: {n_slos} objective(s), evaluated by their burn-rate rules");
    }
    if let Some(path) = access_log {
        println!("access log: appending JSONL to {}", path.display());
    }
    if let Some(hz) = profile_hz {
        println!("profiler: sampling span stacks at {hz} Hz (GET /debug/profile)");
    }
    println!("{admission_banner}");
    if let Some(line) = deadline_banner {
        println!("{line}");
    }
    if let Some(line) = fault_banner {
        println!("{line}");
    }
    server.wait();
    Ok(())
}

/// Builds the drift probe for one dataset: the probed law is the catalog
/// entry named like the file stem, and ground truth is the paper's §4.3
/// sampling trick — an exact self join over a fixed sample, scaled back by
/// the pair-count ratio (Observation 3: sampling preserves the slope).
fn build_probe(
    path: &str,
    cat: &sjpl_core::LawCatalog,
    o: &Options,
) -> Result<sjpl_serve::DriftProbe, String> {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("{path}: cannot derive a law name from the file name"))?
        .to_owned();
    let Some(law) = cat.get(&stem).copied() else {
        return Err(format!(
            "{path}: no law named {stem:?} in the catalog (drift probes are matched by \
             file stem; add one with catalog-add)"
        ));
    };
    let dim = detect_dim(path)?;
    macro_rules! go {
        ($($d:literal),*) => {
            match dim {
                $($d => probe_typed::<$d>(path, stem, &law, o),)*
                other => Err(format!("unsupported dimensionality {other} (1–16 supported)")),
            }
        };
    }
    go!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

fn probe_typed<const D: usize>(
    path: &str,
    law_name: String,
    law: &PairCountLaw,
    o: &Options,
) -> Result<sjpl_serve::DriftProbe, String> {
    use rand::SeedableRng;
    let set: PointSet<D> = read_csv(path).map_err(|e| format!("{path}: {e}"))?;
    let rate = o.drift_sample.unwrap_or(0.2);
    // Fixed seed: the probe must measure data drift, not sampling noise.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E1F);
    let sample = sjpl_stats::sampling::sample_rate(set.points(), rate, &mut rng)
        .map_err(|e| e.to_string())?;
    let s = sample.len() as f64;
    if s < 2.0 {
        return Err(format!(
            "{path}: drift sample of {} point(s) is too small (raise --drift-sample)",
            sample.len()
        ));
    }
    let n = set.len() as f64;
    let scale = (n * (n - 1.0)) / (s * (s - 1.0));
    let metric = o.metric.unwrap_or(Metric::Linf);
    // Probe strictly inside the fitted window — outside it the law is an
    // extrapolation and "drift" would be meaningless.
    let (lo, hi) = (law.fit.x_lo.max(f64::MIN_POSITIVE), law.fit.x_hi);
    let radii = [0.25, 0.5, 0.75]
        .iter()
        .map(|t| lo * (hi / lo).powf(*t))
        .collect();
    // exact_sample sorts the sample once; each tick's three radii then run
    // the partitioned parallel plane sweep over the shared sorted array.
    Ok(sjpl_serve::DriftProbe::exact_sample(
        law_name, radii, &sample, metric, scale,
    ))
}

/// One-line stderr note when BOPS could not use the single-sort Morton
/// keys — the slower path must be visible, not just recorded.
fn warn_fallback(plot: &sjpl_core::BopsPlot) {
    if let Some(reason) = plot.fallback() {
        eprintln!("note: BOPS took the per-level sorted path: {reason}");
    }
}

fn cmd_catalog_add(o: &Options) -> Result<(), String> {
    // Positional: <cat.tsv> <name> <a.csv> [b.csv] — the dim dispatch keys
    // off the *third* positional, so handle the reshuffle here and delegate.
    if o.positional.len() < 3 {
        return Err("catalog-add needs: <cat.tsv> <name> <a.csv> [b.csv]".to_owned());
    }
    let mut rearranged = o.clone();
    rearranged.positional = o.positional[2..].to_vec();
    let dim = detect_dim(&rearranged.positional[0])?;
    macro_rules! go {
        ($($d:literal),*) => {
            match dim {
                $($d => catalog_add_typed::<$d>(o, &rearranged),)*
                other => Err(format!("unsupported dimensionality {other} (1–16 supported)")),
            }
        };
    }
    go!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

fn catalog_add_typed<const D: usize>(orig: &Options, data_opts: &Options) -> Result<(), String> {
    use sjpl_core::LawCatalog;
    let cat_path = &orig.positional[0];
    let name = &orig.positional[1];
    let (a, b) = load_sets::<D>(data_opts)?;
    let bops_cfg = BopsConfig {
        levels: orig.levels.unwrap_or(12),
        ratio: orig.ratio.unwrap_or(if D > 6 { 0.8 } else { 0.5 }),
        threads: orig.threads.unwrap_or(0),
    };
    let pc_cfg = PcPlotConfig::default();
    let fit_opts = FitOptions::default();
    let law = match (orig.method.as_deref().unwrap_or("bops"), &b) {
        ("bops", Some(b)) => bops_plot_cross(&a, b, &bops_cfg).and_then(|p| {
            warn_fallback(&p);
            p.fit(&fit_opts)
        }),
        ("bops", None) => bops_plot_self(&a, &bops_cfg).and_then(|p| {
            warn_fallback(&p);
            p.fit(&fit_opts)
        }),
        ("pc", Some(b)) => pc_plot_cross(&a, b, &pc_cfg).and_then(|p| p.fit(&fit_opts)),
        ("pc", None) => pc_plot_self(&a, &pc_cfg).and_then(|p| p.fit(&fit_opts)),
        (m, _) => return Err(format!("unknown method {m:?}")),
    }
    .map_err(|e| e.to_string())?;
    let mut cat = if std::path::Path::new(cat_path).exists() {
        LawCatalog::load(cat_path).map_err(|e| e.to_string())?
    } else {
        LawCatalog::new()
    };
    cat.insert(name.clone(), law);
    cat.save(cat_path).map_err(|e| e.to_string())?;
    println!(
        "stored law {name:?} (alpha {:.4}, K {:.4e}) in {cat_path} ({} laws total)",
        law.exponent,
        law.k,
        cat.len()
    );
    Ok(())
}

fn cmd_catalog_estimate(o: &Options) -> Result<(), String> {
    use sjpl_core::{LawCatalog, SelectivityEstimator};
    let [cat_path, name] = o.positional.as_slice() else {
        return Err("catalog-estimate needs: <cat.tsv> <name> -r <radius>".to_owned());
    };
    let r = o.radius.ok_or("catalog-estimate needs --radius")?;
    let cat = LawCatalog::load(cat_path).map_err(|e| e.to_string())?;
    let law = cat
        .get(name)
        .ok_or_else(|| format!("no law named {name:?} in {cat_path}"))?;
    let est = SelectivityEstimator::from_law(*law);
    println!(
        "law {name:?}: PC(r) = {:.4e} * r^{:.4}",
        law.k, law.exponent
    );
    println!(
        "estimate at r = {r}: pairs ≈ {:.1}, selectivity ≈ {:.4e}{}",
        est.estimate_pair_count_observed(name, r, o.true_pc),
        est.estimate_selectivity(r),
        if law.in_fitted_range(r) {
            ""
        } else {
            "   (extrapolated outside fitted range)"
        }
    );
    Ok(())
}

fn cmd_generate(o: &Options) -> Result<(), String> {
    let [kind, n, seed, out] = o.positional.as_slice() else {
        return Err("generate needs: <kind> <n> <seed> <out.csv>".to_owned());
    };
    let n: usize = n.parse().map_err(|_| format!("bad count {n:?}"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    use sjpl_datagen as dg;
    match kind.as_str() {
        "uniform" => write_out(out, &dg::uniform::unit_cube::<2>(n, seed)),
        "sierpinski" => write_out(out, &dg::sierpinski::triangle(n, seed)),
        "cantor" => write_out(out, &dg::cantor::dust::<2>(n, seed)),
        "streets" => write_out(out, &dg::roads::street_network(n, seed)),
        "rails" => write_out(out, &dg::roads::rail_network(n, seed)),
        "water" => write_out(out, &dg::water::drainage(n, seed)),
        "political" => write_out(out, &dg::boundary::nested_boundaries(n, seed)),
        "galaxy-dev" => write_out(out, &dg::galaxy::correlated_pair(n, 16, seed).0),
        "galaxy-exp" => write_out(out, &dg::galaxy::correlated_pair(16, n, seed).1),
        "eigenfaces" => write_out(out, &dg::manifold::eigenfaces_like(n, seed)),
        other => Err(format!("unknown dataset kind {other:?}")),
    }
}

fn write_out<const D: usize>(path: &str, set: &PointSet<D>) -> Result<(), String> {
    write_csv(path, set).map_err(|e| e.to_string())?;
    println!("wrote {} points ({}-d) to {path}", set.len(), D);
    Ok(())
}

enum CmdKind {
    PcPlot,
    Bops,
    Estimate,
    Join,
    Dim,
    Info,
    Sample,
    Knn,
}

/// Detects the dimensionality of the first CSV and dispatches to the
/// const-generic implementation.
fn dispatch_dim(o: &Options, kind: CmdKind) -> Result<(), String> {
    let first = o
        .positional
        .first()
        .ok_or_else(|| "need at least one dataset path".to_owned())?;
    let dim = detect_dim(first)?;
    macro_rules! go {
        ($($d:literal),*) => {
            match dim {
                $($d => run_typed::<$d>(o, kind),)*
                other => Err(format!("unsupported dimensionality {other} (1–16 supported)")),
            }
        };
    }
    go!(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
}

/// Reads the first data row of a CSV and counts its fields.
fn detect_dim(path: &str) -> Result<usize, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = t.split(',').collect();
        if fields.iter().all(|f| f.trim().parse::<f64>().is_ok()) {
            return Ok(fields.len());
        }
        // Header line: keep scanning.
    }
    Err(format!("{path}: no data rows found"))
}

fn load_sets<const D: usize>(o: &Options) -> Result<(PointSet<D>, Option<PointSet<D>>), String> {
    let a: PointSet<D> =
        read_csv(&o.positional[0]).map_err(|e| format!("{}: {e}", o.positional[0]))?;
    let b = match o.positional.get(1) {
        Some(p) => Some(read_csv::<D>(p).map_err(|e| format!("{p}: {e}"))?),
        None => None,
    };
    Ok((a, b))
}

/// Telemetry dataset label: the input set name(s), `a` or `a x b`.
fn dataset_label<const D: usize>(a: &PointSet<D>, b: Option<&PointSet<D>>) -> String {
    match b {
        Some(b) => format!("{} x {}", a.name(), b.name()),
        None => a.name().to_owned(),
    }
}

fn print_law(law: &PairCountLaw) {
    println!(
        "law: PC(r) = {:.6e} * r^{:.4}   (fit r^2 = {:.4}, usable range [{:.3e}, {:.3e}])",
        law.k, law.exponent, law.fit.line.r_squared, law.fit.x_lo, law.fit.x_hi
    );
    println!("exponent alpha = {:.4}", law.exponent);
    println!("extrapolated r_min ≈ {:.4e}", law.r_min());
}

fn run_typed<const D: usize>(o: &Options, kind: CmdKind) -> Result<(), String> {
    // Commands whose extra positionals are not dataset paths.
    match kind {
        CmdKind::Sample => return run_sample::<D>(o),
        CmdKind::Knn => return run_knn::<D>(o),
        _ => {}
    }
    let (a, b) = load_sets::<D>(o)?;
    let metric = o.metric.unwrap_or(Metric::Linf);
    let fit_opts = FitOptions::default();
    let pc_cfg = PcPlotConfig {
        metric,
        bins: o.bins.unwrap_or(40),
        radius_range: None,
        threads: o
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
    };
    // High embedding dimensions need the gentler grid-side schedule or the
    // dyadic levels jump straight from "one occupied cell" to "all
    // singletons".
    let bops_default = if D > 6 {
        BopsConfig::high_dimensional()
    } else {
        BopsConfig::default()
    };
    let bops_cfg = BopsConfig {
        levels: o.levels.unwrap_or(bops_default.levels),
        ratio: o.ratio.unwrap_or(bops_default.ratio),
        // `--threads` governs BOPS too; unset means one thread per CPU.
        threads: o.threads.unwrap_or(0),
    };
    match kind {
        CmdKind::PcPlot => {
            let plot = match &b {
                Some(b) => pc_plot_cross(&a, b, &pc_cfg),
                None => pc_plot_self(&a, &pc_cfg),
            }
            .map_err(|e| e.to_string())?;
            println!("# radius, pair_count");
            for (&r, &c) in plot.radii().iter().zip(plot.counts().iter()) {
                println!("{r:.6e}, {c}");
            }
            print_law(&plot.fit(&fit_opts).map_err(|e| e.to_string())?);
            Ok(())
        }
        CmdKind::Bops => {
            let plot = match &b {
                Some(b) => bops_plot_cross(&a, b, &bops_cfg),
                None => bops_plot_self(&a, &bops_cfg),
            }
            .map_err(|e| e.to_string())?;
            warn_fallback(&plot);
            println!("# radius (s/2), bops");
            for (&r, &v) in plot.radii().iter().zip(plot.values().iter()) {
                println!("{r:.6e}, {v}");
            }
            print_law(&plot.fit(&fit_opts).map_err(|e| e.to_string())?);
            Ok(())
        }
        CmdKind::Estimate => {
            let r = o.radius.ok_or("estimate needs --radius")?;
            let method = o.method.as_deref().unwrap_or("bops");
            let (law, label) = match (method, &b) {
                ("bops", Some(b)) => (
                    bops_plot_cross(&a, b, &bops_cfg).and_then(|p| {
                        warn_fallback(&p);
                        p.fit(&fit_opts)
                    }),
                    "bops",
                ),
                ("bops", None) => (
                    bops_plot_self(&a, &bops_cfg).and_then(|p| {
                        warn_fallback(&p);
                        p.fit(&fit_opts)
                    }),
                    "bops",
                ),
                ("pc", Some(b)) => (
                    pc_plot_cross(&a, b, &pc_cfg).and_then(|p| p.fit(&fit_opts)),
                    "pc",
                ),
                ("pc", None) => (
                    pc_plot_self(&a, &pc_cfg).and_then(|p| p.fit(&fit_opts)),
                    "pc",
                ),
                (m, _) => return Err(format!("unknown method {m:?} (pc or bops)")),
            };
            let law = law.map_err(|e| e.to_string())?;
            let est = sjpl_core::SelectivityEstimator::from_law_labeled(law, label);
            let dataset = dataset_label(&a, b.as_ref());
            let pairs = est.estimate_pair_count_observed(&dataset, r, o.true_pc);
            print_law(&law);
            println!(
                "estimate at r = {r}: pairs ≈ {pairs:.1}, selectivity ≈ {:.4e}{}",
                law.selectivity(r),
                if law.in_fitted_range(r) {
                    ""
                } else {
                    "   (extrapolated outside fitted range)"
                }
            );
            Ok(())
        }
        CmdKind::Join => {
            let r = o.radius.ok_or("join needs --radius")?;
            let name = o.algo.as_deref().unwrap_or("par-sweep");
            let algo = JoinAlgorithm::ALL
                .into_iter()
                .find(|a| a.name() == name)
                .ok_or_else(|| {
                    let names: Vec<&str> = JoinAlgorithm::ALL.iter().map(|a| a.name()).collect();
                    format!("unknown algorithm {name:?} (one of {})", names.join(", "))
                })?;
            let t0 = std::time::Instant::now();
            // Par-sweep is the one algorithm with a thread knob: route
            // `--threads` to it directly so the dispatch enum (which uses
            // auto threads) doesn't swallow the flag.
            let threads = o.threads.unwrap_or(0);
            let (count, denom) = match &b {
                Some(b) => (
                    if algo == JoinAlgorithm::ParSweep {
                        par_sweep_join_count(a.points(), b.points(), r, metric, threads)
                    } else {
                        pair_count(algo, a.points(), b.points(), r, metric)
                    },
                    a.len() as f64 * b.len() as f64,
                ),
                None => (
                    if algo == JoinAlgorithm::ParSweep {
                        par_sweep_self_join_count(a.points(), r, metric, threads)
                    } else {
                        self_pair_count(algo, a.points(), r, metric)
                    },
                    a.len() as f64 * (a.len() as f64 - 1.0) / 2.0,
                ),
            };
            println!(
                "exact count = {count} (selectivity {:.4e}) via {} in {:.2?}",
                count as f64 / denom.max(1.0),
                algo.name(),
                t0.elapsed()
            );
            Ok(())
        }
        CmdKind::Dim => {
            let plot = bops_plot_self(&a, &bops_cfg).map_err(|e| e.to_string())?;
            warn_fallback(&plot);
            let law = plot.fit(&fit_opts).map_err(|e| e.to_string())?;
            println!(
                "correlation fractal dimension D2 ≈ {:.4} (fit r^2 = {:.4}; embedding E = {D})",
                law.exponent, law.fit.line.r_squared
            );
            Ok(())
        }
        CmdKind::Info => {
            println!("dataset: {} ({} points, {}-d)", a.name(), a.len(), D);
            let bb = a.bbox();
            let fmt_pt = |p: &sjpl_geom::Point<D>| {
                let cs: Vec<String> = (0..D).map(|i| format!("{:.4}", p[i])).collect();
                format!("({})", cs.join(", "))
            };
            println!("bbox: {} .. {}", fmt_pt(&bb.lo), fmt_pt(&bb.hi));
            if let Ok(c) = a.centroid() {
                println!("centroid: {}", fmt_pt(&c));
            }
            match bops_plot_self(&a, &bops_cfg).and_then(|p| p.fit(&fit_opts)) {
                Ok(law) => {
                    println!(
                        "quick self-join law (BOPS): alpha = {:.3}, K = {:.3e}, r^2 = {:.4}",
                        law.exponent, law.k, law.fit.line.r_squared
                    );
                    println!(
                        "intrinsic dimension ≈ {:.2} of embedding {D}; extrapolated \
                         closest-pair distance ≈ {:.3e}",
                        law.exponent,
                        law.r_min()
                    );
                }
                Err(e) => println!("quick law fit unavailable: {e}"),
            }
            Ok(())
        }
        CmdKind::Sample | CmdKind::Knn => unreachable!("handled before dataset loading"),
    }
}

fn run_sample<const D: usize>(o: &Options) -> Result<(), String> {
    use rand::SeedableRng;
    let [input, rate, seed, output] = o.positional.as_slice() else {
        return Err("sample needs: <in.csv> <rate> <seed> <out.csv>".to_owned());
    };
    let rate: f64 = rate.parse().map_err(|_| format!("bad rate {rate:?}"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let set: PointSet<D> = read_csv(input).map_err(|e| format!("{input}: {e}"))?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sample = sjpl_stats::sampling::sample_rate(set.points(), rate, &mut rng)
        .map_err(|e| e.to_string())?;
    let out = PointSet::<D>::new(set.name(), sample);
    write_csv(output, &out).map_err(|e| e.to_string())?;
    println!(
        "sampled {} of {} points ({:.1}%) into {output}",
        out.len(),
        set.len(),
        100.0 * out.len() as f64 / set.len().max(1) as f64
    );
    Ok(())
}

fn run_knn<const D: usize>(o: &Options) -> Result<(), String> {
    use sjpl_index::KdTree;
    let [input, query] = o.positional.as_slice() else {
        return Err("knn needs: <a.csv> <x,y,...> [-k n]".to_owned());
    };
    let set: PointSet<D> = read_csv(input).map_err(|e| format!("{input}: {e}"))?;
    let fields: Vec<&str> = query.split(',').collect();
    if fields.len() != D {
        return Err(format!(
            "query point has {} coordinates; dataset is {D}-dimensional",
            fields.len()
        ));
    }
    let mut coords = [0.0f64; D];
    for (c, f) in coords.iter_mut().zip(fields.iter()) {
        *c = f
            .trim()
            .parse()
            .map_err(|_| format!("bad coordinate {f:?}"))?;
    }
    let q = sjpl_geom::Point::new(coords);
    let metric = o.metric.unwrap_or(Metric::Linf);
    let k = o.k.unwrap_or(1);
    let tree = KdTree::build(set.points());
    let hits = tree.nearest_k(&q, k, metric);
    println!("# rank, distance, point");
    for (rank, (d, p)) in hits.iter().enumerate() {
        let coords: Vec<String> = (0..D).map(|i| format!("{}", p[i])).collect();
        println!("{}, {d:.6e}, ({})", rank + 1, coords.join(", "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A scratch directory owned by one test and removed when dropped
    /// (also on panic), so tests running in parallel never share or
    /// delete each other's files.
    struct TempDir(std::path::PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = std::path::Path;
        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    /// A fresh directory named from the test, the process and a counter.
    fn tmpdir(test: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("sjpl_cli_{test}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        TempDir(d)
    }

    #[test]
    fn generate_then_analyze_roundtrip() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("generate_then_analyze_roundtrip");
        let path = dir.join("sier.csv");
        let p = path.to_str().unwrap();
        run(&sv(&["generate", "sierpinski", "3000", "7", p])).unwrap();
        run(&sv(&["dim", p])).unwrap();
        run(&sv(&["info", p])).unwrap();
        run(&sv(&["bops", p, "--levels", "8"])).unwrap();
        run(&sv(&["pc-plot", p, "--bins", "16"])).unwrap();
        run(&sv(&["estimate", p, "-r", "0.05"])).unwrap();
        run(&sv(&["estimate", p, "-r", "0.05", "--method", "pc"])).unwrap();
        run(&sv(&["join", p, "-r", "0.05", "--algo", "kd-tree"])).unwrap();
    }

    #[test]
    fn join_rejects_unknown_algorithms_and_lists_the_names() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("join_rejects_unknown_algorithms_and_lists_the_names");
        let path = dir.join("u.csv");
        let p = path.to_str().unwrap();
        run(&sv(&["generate", "uniform", "300", "1", p])).unwrap();
        for name in ["nested-loop", "kd-tree", "plane-sweep", "par-sweep"] {
            run(&sv(&["join", p, "-r", "0.05", "--algo", name])).unwrap();
        }
        for name in ["grid", "r-tree", "z-order", ""] {
            let e = run(&sv(&["join", p, "-r", "0.05", "--algo", name])).unwrap_err();
            assert_eq!(e.code, 1, "{e}");
            assert!(
                e.message
                    .contains("nested-loop, kd-tree, plane-sweep, par-sweep"),
                "{e}"
            );
        }
    }

    #[test]
    fn engine_flag_is_rejected_as_unknown() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("engine_flag_is_rejected_as_unknown");
        let path = dir.join("x.csv");
        let p = path.to_str().unwrap();
        run(&sv(&["generate", "uniform", "300", "1", p])).unwrap();
        let e = run(&sv(&["bops", p, "--engine", "sorted"])).unwrap_err();
        assert_ne!(e.code, 0, "{e}");
        assert!(e.message.contains("unknown flag \"--engine\""), "{e}");
    }

    #[test]
    fn cross_join_via_two_files() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("cross_join_via_two_files");
        let pa = dir.join("a.csv");
        let pb = dir.join("b.csv");
        run(&sv(&[
            "generate",
            "streets",
            "800",
            "1",
            pa.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "generate",
            "water",
            "800",
            "2",
            pb.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "bops",
            pa.to_str().unwrap(),
            pb.to_str().unwrap(),
            "--levels",
            "8",
        ]))
        .unwrap();
        run(&sv(&[
            "join",
            pa.to_str().unwrap(),
            pb.to_str().unwrap(),
            "-r",
            "0.02",
        ]))
        .unwrap();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let _obs = crate::obs_lock();
        assert!(run(&sv(&[])).is_err());
        assert!(run(&sv(&["frobnicate"])).is_err());
        assert!(run(&sv(&["generate", "nope", "10", "1", "/tmp/x.csv"])).is_err());
        assert!(run(&sv(&["pc-plot"])).is_err());
        assert!(run(&sv(&["pc-plot", "/nonexistent/file.csv"])).is_err());
        assert!(run(&sv(&["estimate", "/nonexistent/file.csv"])).is_err());
    }

    #[test]
    fn detect_dim_reads_first_data_row() {
        let dir = tmpdir("detect_dim_reads_first_data_row");
        let p = dir.join("d4.csv");
        std::fs::write(&p, "# comment\nx,y,z,w\n1,2,3,4\n").unwrap();
        assert_eq!(detect_dim(p.to_str().unwrap()).unwrap(), 4);
        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "# only comments\n").unwrap();
        assert!(detect_dim(empty.to_str().unwrap()).is_err());
    }

    #[test]
    fn eigenfaces_generate_is_16d() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("eigenfaces_generate_is_16d");
        let p = dir.join("faces.csv");
        run(&sv(&[
            "generate",
            "eigenfaces",
            "3000",
            "3",
            p.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(detect_dim(p.to_str().unwrap()).unwrap(), 16);
        // 16-d: the high-dimensional BOPS schedule kicks in by default.
        run(&sv(&["dim", p.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn help_succeeds() {
        let _obs = crate::obs_lock();
        run(&sv(&["help"])).unwrap();
    }

    #[test]
    fn trace_writes_a_json_snapshot() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("trace_writes_a_json_snapshot");
        let data = dir.join("trace_in.csv");
        let obs = dir.join("obs.json");
        run(&sv(&[
            "generate",
            "uniform",
            "4000",
            "11",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "bops",
            data.to_str().unwrap(),
            "--levels",
            "8",
            "--trace=json",
            "--obs-out",
            obs.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&obs).unwrap();
        // The recorder is process-global and other tests run concurrently,
        // so assert presence of this run's keys, not exact values.
        for needle in [
            "\"schema\": 5",
            "bops.quantize",
            "bops.sort",
            "bops.scan",
            "bops.points",
            "fit.r_squared",
            "\"timeline\": {",
            "\"dropped_events\":",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
    }

    #[test]
    fn trace_out_and_trace_export_produce_chrome_traces() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("trace_out_and_trace_export_produce_chrome_traces");
        let data = dir.join("chrome_in.csv");
        let obs = dir.join("chrome_obs.json");
        let direct = dir.join("direct_trace.json");
        let exported = dir.join("exported_trace.json");
        run(&sv(&[
            "generate",
            "uniform",
            "3000",
            "17",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "bops",
            data.to_str().unwrap(),
            "--levels",
            "8",
            "--obs-out",
            obs.to_str().unwrap(),
            "--trace-out",
            direct.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "trace-export",
            obs.to_str().unwrap(),
            exported.to_str().unwrap(),
        ]))
        .unwrap();
        for path in [&direct, &exported] {
            let text = std::fs::read_to_string(path).unwrap();
            let doc = sjpl_obs::json::Json::parse(&text).unwrap();
            let events = doc.get("traceEvents").unwrap().as_array().unwrap();
            assert!(!events.is_empty(), "{path:?} has no trace events");
            assert!(events
                .iter()
                .any(|e| e.get("name").unwrap().as_str() == Some("bops.plot")));
            // The per-thread scan workers parent under the scan span.
            let scan_id = events
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some("bops.scan"))
                .map(|e| e.get("args").unwrap().get("id").unwrap().as_f64().unwrap());
            if let Some(scan_id) = scan_id {
                let worker_parents: Vec<f64> = events
                    .iter()
                    .filter(|e| e.get("name").unwrap().as_str() == Some("bops.scan.worker"))
                    .map(|e| {
                        e.get("args")
                            .unwrap()
                            .get("parent")
                            .unwrap()
                            .as_f64()
                            .unwrap()
                    })
                    .collect();
                for p in worker_parents {
                    assert_eq!(p, scan_id);
                }
            }
        }
        // Refusing a schema-1 (timeline-less) snapshot is an error, not a panic.
        let legacy = dir.join("legacy.json");
        std::fs::write(&legacy, "{\"schema\": 1, \"spans\": []}\n").unwrap();
        assert!(run(&sv(&[
            "trace-export",
            legacy.to_str().unwrap(),
            exported.to_str().unwrap(),
        ]))
        .is_err());
    }

    #[test]
    fn estimate_records_accuracy_in_the_snapshot() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("estimate_records_accuracy_in_the_snapshot");
        let data = dir.join("acc.csv");
        let obs = dir.join("acc_obs.json");
        run(&sv(&[
            "generate",
            "uniform",
            "3000",
            "19",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "estimate",
            data.to_str().unwrap(),
            "-r",
            "0.05",
            "--levels",
            "8",
            "--true-pc",
            "10000",
            "--obs-out",
            obs.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&obs).unwrap();
        let doc = sjpl_obs::json::Json::parse(&json).unwrap();
        let acc = doc.get("accuracy").unwrap().as_array().unwrap();
        let rec = acc
            .iter()
            .find(|a| a.get("method").unwrap().as_str() == Some("bops"))
            .expect("estimate emitted a bops accuracy record");
        assert_eq!(rec.get("join_kind").unwrap().as_str(), Some("self"));
        assert_eq!(rec.get("radius").unwrap().as_f64(), Some(0.05));
        assert_eq!(rec.get("true_pc").unwrap().as_f64(), Some(10000.0));
        assert!(rec.get("rel_error").unwrap().as_f64().is_some());
    }

    #[test]
    fn regress_gate_passes_identical_and_fails_perturbed() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("regress_gate_passes_identical_and_fails_perturbed");
        let old = dir.join("old.json");
        let new = dir.join("new.json");
        let base = r#"{
          "summary": {"schema": 1, "series": [
            {"name": "bops/sorted/100k", "mean_ns": 1000000, "prev_mean_ns": null}
          ]},
          "accuracy": [
            {"dataset": "uniform", "method": "bops", "join_kind": "self",
             "radius": 0.05, "estimated_pc": 110.0, "true_pc": 100.0,
             "rel_error": 0.10}
          ]
        }"#;
        std::fs::write(&old, base).unwrap();
        std::fs::write(&new, base).unwrap();
        // Identical inputs: exit 0.
        run(&sv(&[
            "regress",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
        ]))
        .unwrap();
        // +50% mean: fails at the default 10% gate, passes at 60%.
        let slower = base.replace("\"mean_ns\": 1000000", "\"mean_ns\": 1500000");
        std::fs::write(&new, &slower).unwrap();
        assert!(run(&sv(&[
            "regress",
            old.to_str().unwrap(),
            new.to_str().unwrap()
        ]))
        .is_err());
        run(&sv(&[
            "regress",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--max-perf-regress",
            "60%",
        ]))
        .unwrap();
        // Accuracy degradation beyond the absolute threshold fails too.
        let worse = base.replace("\"rel_error\": 0.10", "\"rel_error\": 0.30");
        std::fs::write(&new, &worse).unwrap();
        assert!(run(&sv(&[
            "regress",
            old.to_str().unwrap(),
            new.to_str().unwrap()
        ]))
        .is_err());
        run(&sv(&[
            "regress",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--max-error-regress",
            "0.5",
        ]))
        .unwrap();
        // Unparseable input is an error — and a *distinguishable* one:
        // exit code 2 (unusable report), not 1 (regression found).
        std::fs::write(&new, "not json").unwrap();
        let e = run(&sv(&[
            "regress",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(e.code, CliError::BAD_REPORT);
        // Same for valid JSON with nothing the gate can compare.
        std::fs::write(&new, "{\"unrelated\": true}").unwrap();
        let e = run(&sv(&[
            "regress",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(e.code, CliError::BAD_REPORT);
        assert!(!e.message.contains('\n'), "one-line diagnostic: {e}");
        // A genuine regression stays exit code 1.
        let slower = base.replace("\"mean_ns\": 1000000", "\"mean_ns\": 1500000");
        std::fs::write(&new, &slower).unwrap();
        let e = run(&sv(&[
            "regress",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(e.code, 1);
    }

    #[test]
    fn serve_validates_its_inputs_before_binding() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("serve_validates_its_inputs_before_binding");
        // No catalog flag at all.
        let e = run(&sv(&["serve"])).unwrap_err();
        assert!(e.message.contains("--catalog"), "{e}");
        // Catalog file missing.
        assert!(run(&sv(&[
            "serve",
            "--catalog",
            dir.join("nope.tsv").to_str().unwrap(),
        ]))
        .is_err());
        // A drift dataset whose stem names no law is rejected up front.
        let data = dir.join("ser_pts.csv");
        let cat = dir.join("ser_laws.tsv");
        run(&sv(&[
            "generate",
            "uniform",
            "1500",
            "5",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "catalog-add",
            cat.to_str().unwrap(),
            "some_other_name",
            data.to_str().unwrap(),
            "--levels",
            "8",
        ]))
        .unwrap();
        let e = run(&sv(&[
            "serve",
            "--catalog",
            cat.to_str().unwrap(),
            data.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(e.message.contains("ser_pts"), "{e}");
        assert!(e.message.contains("file stem"), "{e}");
    }

    #[test]
    fn drift_probe_builds_from_a_catalog_law() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("drift_probe_builds_from_a_catalog_law");
        let data = dir.join("probe_law.csv");
        let cat = dir.join("probe_laws.tsv");
        run(&sv(&[
            "generate",
            "uniform",
            "2000",
            "9",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "catalog-add",
            cat.to_str().unwrap(),
            "probe_law",
            data.to_str().unwrap(),
            "--levels",
            "8",
        ]))
        .unwrap();
        let catalog = sjpl_core::LawCatalog::load(&cat).unwrap();
        let law = *catalog.get("probe_law").unwrap();
        let o = parse(&sv(&[data.to_str().unwrap()])).unwrap();
        let probe = build_probe(data.to_str().unwrap(), &catalog, &o).unwrap();
        assert_eq!(probe.law_name, "probe_law");
        assert_eq!(probe.radii.len(), 3);
        for &r in &probe.radii {
            assert!(
                law.in_fitted_range(r),
                "probe radius {r} outside fit window"
            );
        }
        // The sampled oracle should land within a factor of a few of the
        // law on data it was fitted on (the budget default is 0.5).
        let mid = probe.radii[1];
        let truth = (probe.truth)(mid);
        assert!(truth > 0.0);
        let rel = (law.pair_count(mid) - truth).abs() / truth;
        assert!(rel < 1.0, "rel error {rel} vs sampled truth at r={mid}");
    }

    /// The full acceptance loop: boot the daemon in-process, drive it with
    /// `sjpl loadtest`, validate the report, then feed it to the regress
    /// gate (identity passes; a perturbed throughput fails).
    #[test]
    fn loadtest_report_feeds_the_regress_gate() {
        let _obs = crate::obs_lock();
        use std::sync::{Arc, Mutex};
        let dir = tmpdir("loadtest_report_feeds_the_regress_gate");
        let data = dir.join("lt_uniform.csv");
        let cat = dir.join("lt_laws.tsv");
        run(&sv(&[
            "generate",
            "uniform",
            "1500",
            "21",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "catalog-add",
            cat.to_str().unwrap(),
            "uniform",
            data.to_str().unwrap(),
            "--levels",
            "8",
        ]))
        .unwrap();
        let catalog = sjpl_core::LawCatalog::load(&cat).unwrap();
        let server = sjpl_serve::Server::start(
            Arc::new(Mutex::new(catalog)),
            sjpl_serve::ServeConfig {
                slos: vec![sjpl_serve::SloSpec::parse("/estimate=10s@p99").unwrap()],
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();

        let out = dir.join("BENCH_serve.json");
        let prof = dir.join("loadtest_profile.txt");
        run(&sv(&[
            "loadtest",
            &addr,
            "--duration",
            "0.4",
            "--connections",
            "2",
            "--seed",
            "7",
            "--law",
            "uniform",
            "--out",
            out.to_str().unwrap(),
            "--profile-out",
            prof.to_str().unwrap(),
        ]))
        .unwrap();
        server.shutdown();

        // The mid-run profile fetch wrote collapsed stacks (`path N` lines);
        // the worker serving the fetch itself is always sampled.
        let collapsed = std::fs::read_to_string(&prof).unwrap();
        assert!(collapsed.contains("serve.profile"), "{collapsed}");
        for line in collapsed.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
            assert!(!stack.is_empty(), "{line}");
            assert!(count.parse::<u64>().is_ok(), "{line}");
        }

        let text = std::fs::read_to_string(&out).unwrap();
        let doc = sjpl_obs::json::Json::parse(&text).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("serve-loadtest"));
        let series = doc
            .get("summary")
            .unwrap()
            .get("series")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(
            series
                .iter()
                .any(|s| s.get("name").unwrap().as_str() == Some("serve/estimate/p99")),
            "{text}"
        );
        let thr = doc.get("throughput").unwrap().as_array().unwrap();
        let total_rps = thr
            .iter()
            .find(|t| t.get("name").unwrap().as_str() == Some("serve/total"))
            .and_then(|t| t.get("rps").unwrap().as_f64())
            .unwrap();
        assert!(total_rps > 0.0);
        // The default mix exercised all three endpoints with no HTTP errors.
        let eps = doc.get("endpoints").unwrap().as_array().unwrap();
        for want in ["estimate", "healthz", "metrics"] {
            let ep = eps
                .iter()
                .find(|e| e.get("endpoint").unwrap().as_str() == Some(want))
                .unwrap_or_else(|| panic!("no {want} tally in {text}"));
            assert_eq!(ep.get("errors").unwrap().as_f64(), Some(0.0), "{text}");
            assert!(ep.get("p50_ns").unwrap().as_f64().unwrap() > 0.0);
        }

        // Identity comparison passes the gate.
        run(&sv(&[
            "regress",
            out.to_str().unwrap(),
            out.to_str().unwrap(),
        ]))
        .unwrap();
        // Halving every throughput number must fail it.
        let perturbed = dir.join("BENCH_serve_slow.json");
        let halved = text
            .lines()
            .map(|l| match l.split_once("\"rps\": ") {
                Some((pre, v)) => {
                    let digits: String = v
                        .chars()
                        .take_while(|c| c.is_ascii_digit() || *c == '.')
                        .collect();
                    let rps: f64 = digits.parse().unwrap();
                    format!("{pre}\"rps\": {:.2}{}", rps / 2.0, &v[digits.len()..])
                }
                None => l.to_owned(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&perturbed, halved).unwrap();
        let e = run(&sv(&[
            "regress",
            out.to_str().unwrap(),
            perturbed.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("throughput"), "{e}");
    }

    /// The chaos acceptance loop: a daemon with the issue's seeded fault
    /// plan (10% estimate latency, 2% connection resets), driven by a
    /// chaos loadtest with a retry policy. The retries must absorb the
    /// faults (< 0.5% client-visible failures, every shed carrying
    /// Retry-After), and a planted no-retry run against a harsher plan
    /// must fail the regress error-rate gate.
    #[test]
    fn chaos_loadtest_recovers_and_feeds_the_error_rate_gate() {
        let _obs = crate::obs_lock();
        use std::sync::{Arc, Mutex};
        let dir = tmpdir("chaos_loadtest_recovers_and_feeds_the_error_rate_gate");
        let data = dir.join("chaos_uniform.csv");
        let cat = dir.join("chaos_laws.tsv");
        run(&sv(&[
            "generate",
            "uniform",
            "1500",
            "23",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "catalog-add",
            cat.to_str().unwrap(),
            "uniform",
            data.to_str().unwrap(),
            "--levels",
            "8",
        ]))
        .unwrap();
        let boot = |fault: &str, seed: u64| {
            let catalog = sjpl_core::LawCatalog::load(&cat).unwrap();
            sjpl_serve::Server::start(
                Arc::new(Mutex::new(catalog)),
                sjpl_serve::ServeConfig {
                    faults: Some(sjpl_serve::FaultPlan::parse(fault, seed).unwrap()),
                    ..Default::default()
                },
            )
            .unwrap()
        };

        // Run 1: the issue's fault plan + chaos + retries. Retries recover
        // everything the faults break.
        let server = boot("estimate:latency=5ms@0.1,accept:reset@0.02", 7);
        let addr = server.addr().to_string();
        let out = dir.join("BENCH_chaos.json");
        run(&sv(&[
            "loadtest",
            &addr,
            "--duration",
            "0.6",
            "--connections",
            "2",
            "--seed",
            "11",
            "--law",
            "uniform",
            "--chaos",
            "--retries",
            "3",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        server.shutdown();
        let text = std::fs::read_to_string(&out).unwrap();
        let doc = sjpl_obs::json::Json::parse(&text).unwrap();
        let res = doc.get("resilience").unwrap();
        let rate = res.get("failure_rate").unwrap().as_f64().unwrap();
        assert!(rate < 0.005, "client-visible failure rate {rate}:\n{text}");
        assert_eq!(
            res.get("shed_missing_retry_after").unwrap().as_f64(),
            Some(0.0),
            "{text}"
        );
        assert!(
            res.get("chaos_acts").unwrap().as_f64().unwrap() >= 1.0,
            "{text}"
        );
        // Identity comparison passes the gate (and compares error rates).
        run(&sv(&[
            "regress",
            out.to_str().unwrap(),
            out.to_str().unwrap(),
        ]))
        .unwrap();

        // Run 2 (planted failure): half the estimates die mid-handle and
        // the client never retries, so the failures stay client-visible
        // and the error-rate gate must catch the report.
        let server = boot("estimate:reset@0.5", 9);
        let addr = server.addr().to_string();
        let bad = dir.join("BENCH_noretry.json");
        run(&sv(&[
            "loadtest",
            &addr,
            "--duration",
            "0.5",
            "--connections",
            "2",
            "--seed",
            "11",
            "--law",
            "uniform",
            "--out",
            bad.to_str().unwrap(),
        ]))
        .unwrap();
        server.shutdown();
        let e = run(&sv(&[
            "regress",
            out.to_str().unwrap(),
            bad.to_str().unwrap(),
            "--max-error-regress",
            "0.005",
        ]))
        .unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("error-rate"), "{e}");
    }

    #[test]
    fn loadtest_rejects_a_dead_target_and_bad_args() {
        let _obs = crate::obs_lock();
        // Nothing listens on this port (reserved, never assigned).
        assert!(run(&sv(&["loadtest", "127.0.0.1:9", "--duration", "0.1",])).is_err());
        assert!(run(&sv(&["loadtest", "a", "b"])).is_err());
        assert!(run(&sv(&["loadtest", "not-an-addr:xyz"])).is_err());
        assert!(run(&sv(&["loadtest", "127.0.0.1:1", "--mix", "bogus=1"])).is_err());
    }

    #[test]
    fn sample_command_writes_a_subset() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("sample_command_writes_a_subset");
        let full = dir.join("full.csv");
        let sub = dir.join("sub.csv");
        run(&sv(&[
            "generate",
            "uniform",
            "1000",
            "1",
            full.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "sample",
            full.to_str().unwrap(),
            "0.1",
            "7",
            sub.to_str().unwrap(),
        ]))
        .unwrap();
        let s: sjpl_geom::PointSet<2> = read_csv(&sub).unwrap();
        assert_eq!(s.len(), 100);
        assert!(run(&sv(&[
            "sample",
            full.to_str().unwrap(),
            "2.0",
            "7",
            sub.to_str().unwrap()
        ]))
        .is_err());
    }

    #[test]
    fn knn_command_works() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("knn_command_works");
        let p = dir.join("pts.csv");
        std::fs::write(&p, "0,0\n1,0\n0,1\n5,5\n").unwrap();
        run(&sv(&["knn", p.to_str().unwrap(), "0.1,0.1", "-k", "2"])).unwrap();
        // Wrong arity in the query point.
        assert!(run(&sv(&["knn", p.to_str().unwrap(), "0.1", "-k", "2"])).is_err());
        assert!(run(&sv(&["knn", p.to_str().unwrap(), "a,b"])).is_err());
    }

    #[test]
    fn catalog_roundtrip_via_cli() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("catalog_roundtrip_via_cli");
        let data = dir.join("g.csv");
        let cat = dir.join("laws.tsv");
        run(&sv(&[
            "generate",
            "galaxy-dev",
            "2000",
            "3",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "catalog-add",
            cat.to_str().unwrap(),
            "galaxy_self",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "catalog-estimate",
            cat.to_str().unwrap(),
            "galaxy_self",
            "-r",
            "0.05",
        ]))
        .unwrap();
        // Unknown name errors cleanly.
        assert!(run(&sv(&[
            "catalog-estimate",
            cat.to_str().unwrap(),
            "nope",
            "-r",
            "0.05",
        ]))
        .is_err());
        // A second law lands in the same file.
        run(&sv(&[
            "catalog-add",
            cat.to_str().unwrap(),
            "galaxy_self_pc",
            data.to_str().unwrap(),
            "--method",
            "pc",
        ]))
        .unwrap();
        let loaded = sjpl_core::LawCatalog::load(&cat).unwrap();
        assert_eq!(loaded.len(), 2);
    }
}
