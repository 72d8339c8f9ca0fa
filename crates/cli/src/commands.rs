//! The [`COMMANDS`] table and the subcommand implementations it names.

use std::fs::File;
use std::io::{BufRead, BufReader};

use sjpl_core::{
    bops_plot_cross, bops_plot_self, pc_plot_cross, pc_plot_self, BopsConfig, EstimationMethod,
    FitOptions, PairCountLaw, PcPlotConfig, SelectivityEstimator,
};
use sjpl_geom::{read_csv, write_csv, Metric, PointSet};
use sjpl_index::{JoinAlgorithm, PreparedSet};

use crate::args::{parse, Options, TraceFormat, FLAGS};
use crate::error::CliError;

/// One command: the single declaration of its usage, help, flags and
/// handler. Parsing, dispatch and `sjpl help` all read it.
struct Command {
    /// The name, then its arguments.
    usage: &'static str,
    /// One line for `sjpl help`.
    help: &'static str,
    /// The long names of the flags the command reads, space-separated; it
    /// accepts [`TRACE_FLAGS`] too, and rejects every other flag.
    flags: &'static str,
    run: fn(&Options) -> Result<(), CliError>,
}

impl Command {
    fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or(self.usage)
    }

    fn accepts(&self, flag: &str) -> bool {
        let flags = format!("{TRACE_FLAGS} {}", self.flags);
        flags.split(' ').any(|f| f == flag)
    }

    /// The most positional arguments the usage names, or `None` when its
    /// last one repeats (`[data.csv…]`). A flag in the usage and the value
    /// after it are not positional.
    fn max_args(&self) -> Option<usize> {
        let mut words = self.usage.split(' ').skip(1);
        let mut n = 0;
        while let Some(w) = words.next() {
            if w.starts_with('-') {
                words.next();
            } else if w.contains('…') {
                return None;
            } else {
                n += 1;
            }
        }
        Some(n)
    }
}

/// The observability flags, which every command accepts.
const TRACE_FLAGS: &str = "--trace --obs-out --trace-out";

/// Calls `$f::<D>$args` with `D` the dimensionality `$dim` (1–16): the
/// one place a runtime dimensionality picks a const-generic function.
macro_rules! by_dim {
    (@ $dim:expr, $f:ident $args:tt, $($d:literal)*) => {
        match $dim {
            $($d => $f::<$d> $args,)*
            other => Err(format!("unsupported dimensionality {other} (1–16 supported)")),
        }
    };
    ($dim:expr, $f:ident $args:tt) => {
        by_dim!(@ $dim, $f $args, 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
}

/// Every command, in `sjpl help` order.
const COMMANDS: &[Command] = &[
    Command {
        usage: "generate <kind> <n> <seed> <out.csv>",
        help: "synthesize a dataset of kind uniform | sierpinski | cantor | streets | \
               rails | water | political | galaxy-dev | galaxy-exp | eigenfaces (16-d)",
        flags: "",
        run: |o| Ok(cmd_generate(o)?),
    },
    Command {
        usage: "pc-plot <a.csv> [b.csv]",
        help: "exact (quadratic) PC plot + fitted law",
        flags: "--metric --bins --threads",
        run: |o| Ok(by_dim!(dataset_dim(&o.positional)?, cmd_pc_plot(o))?),
    },
    Command {
        usage: "bops <a.csv> [b.csv]",
        help: "linear-time BOPS plot + fitted law",
        flags: "--levels --ratio --threads",
        run: |o| Ok(by_dim!(dataset_dim(&o.positional)?, cmd_bops(o))?),
    },
    Command {
        usage: "estimate <a.csv> [b.csv] -r <radius>",
        help: "O(1) selectivity estimate",
        flags: "--method --bins --metric --levels --ratio --threads --radius --true-pc",
        run: |o| Ok(by_dim!(dataset_dim(&o.positional)?, cmd_estimate(o))?),
    },
    Command {
        usage: "join <a.csv> [b.csv] -r <radius>",
        help: "exact distance-join count",
        flags: "--radius --algo --metric --threads",
        run: |o| Ok(by_dim!(dataset_dim(&o.positional)?, cmd_join(o))?),
    },
    Command {
        usage: "dim <a.csv>",
        help: "correlation fractal dimension",
        flags: "--method --bins --metric --levels --ratio --threads",
        run: |o| Ok(by_dim!(dataset_dim(&o.positional)?, cmd_dim(o))?),
    },
    Command {
        usage: "info <a.csv>",
        help: "dataset summary + quick law fit",
        flags: "--method --bins --metric --levels --ratio --threads",
        run: |o| Ok(by_dim!(dataset_dim(&o.positional)?, cmd_info(o))?),
    },
    Command {
        usage: "sample <in.csv> <rate> <seed> <out.csv>",
        help: "fixed-rate sample of a dataset",
        flags: "",
        run: |o| Ok(by_dim!(dataset_dim(&o.positional)?, cmd_sample(o))?),
    },
    Command {
        usage: "catalog-add <cat.tsv> <name> <a.csv> [b.csv]",
        help: "fit a law, store it",
        flags: "--method --bins --metric --levels --ratio --threads",
        run: |o| Ok(cmd_catalog_add(o)?),
    },
    Command {
        usage: "catalog-estimate <cat.tsv> <name> -r <radius>",
        help: "O(1) estimate from a stored law",
        flags: "--radius --true-pc",
        run: |o| Ok(cmd_catalog_estimate(o)?),
    },
    Command {
        usage: "trace-export <snapshot.json> <trace.json>",
        help: "convert a saved snapshot's timeline to a Chrome trace (open in Perfetto)",
        flags: "",
        run: |o| Ok(cmd_trace_export(o)?),
    },
    Command {
        usage: "regress <old.json> <new.json>",
        help: "diff two snapshot/bench reports; exit 1 on a regression beyond the thresholds",
        flags: "--max-perf-regress --max-error-regress",
        run: cmd_regress,
    },
    Command {
        usage: "loadtest [host:port]",
        help: "drive a serve daemon with a seeded workload; write a report for regress",
        flags: "--port --duration --connections --rate --seed --mix --law --out \
                --profile-out --retries --chaos --alerts-out",
        run: |o| Ok(cmd_loadtest(o)?),
    },
    Command {
        usage: "serve --catalog <cat.tsv> [data.csv…]",
        help: "HTTP estimation daemon; each data.csv named like a law gets a drift probe",
        flags: "--catalog --port --threads --metric --drift-interval --error-budget \
                --drift-sample --slo --access-log --slow-ms --profile-hz --max-inflight \
                --deadline-ms --fault --fault-seed --metrics-interval --alert",
        run: |o| Ok(cmd_serve(o)?),
    },
    Command {
        usage: "dash [host:port]",
        help: "live terminal dashboard over a running serve daemon",
        flags: "--port --refresh --frames",
        run: |o| Ok(cmd_dash(o)?),
    },
];

const EXIT_CODES: &str = "
exit codes:
  0  success
  1  failure (bad usage, I/O error, or a regress gate that found regressions)
  2  regress: a report file is unusable (malformed JSON, or no
     summary.series/results/spans perf section and no accuracy section)";

/// The `sjpl help` text, generated from [`COMMANDS`] and [`FLAGS`].
fn usage() -> String {
    let mut s = String::from("usage: sjpl <command> [args] [flags]\n\ncommands:\n");
    for c in COMMANDS {
        s += &format!("  {}\n", c.usage);
        wrap(&mut s, c.help);
        if !c.flags.is_empty() {
            wrap(&mut s, &format!("flags: {}", c.flags));
        }
    }
    s += &format!("\nflags ({TRACE_FLAGS} work with every command):\n");
    for f in FLAGS {
        s += &format!("  {}\n", f.syntax);
        wrap(&mut s, f.help);
    }
    s + EXIT_CODES
}

/// Appends `text` to `out`, indented by 6 and word-wrapped at 80 columns.
fn wrap(out: &mut String, text: &str) {
    let mut col = 0;
    for word in text.split_whitespace() {
        if col > 0 && col + 1 + word.len() > 80 {
            out.push('\n');
            col = 0;
        }
        let sep = if col == 0 { "      " } else { " " };
        out.push_str(sep);
        out.push_str(word);
        col += sep.len() + word.len();
    }
    out.push('\n');
}

/// Entry point used by `main` (and by the tests). Most failures exit 1;
/// commands that need a distinguishable failure (see `CliError`'s
/// constants) return their own code.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(format!("no command given\n{}", usage()).into());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name() == name) else {
        return Err(format!("unknown command {name:?}\n{}", usage()).into());
    };
    let opts = parse_for(cmd, rest)?;
    let tracing = opts.trace.is_some() || opts.obs_out.is_some() || opts.trace_out.is_some();
    if tracing {
        sjpl_obs::reset();
        sjpl_obs::set_enabled(true);
    }
    let result = (cmd.run)(&opts);
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

/// Parses `argv` for `cmd`: a flag the command does not read is an error,
/// and so is a positional argument beyond those its usage names.
fn parse_for(cmd: &Command, argv: &[String]) -> Result<Options, String> {
    let opts = parse(argv)?;
    if let Some(flag) = opts.given.iter().find(|f| !cmd.accepts(f)) {
        return Err(format!("{} takes no {flag}", cmd.name()));
    }
    match cmd.max_args().and_then(|n| opts.positional.get(n)) {
        Some(extra) => Err(format!(
            "{}: unexpected argument {extra:?} (usage: {})",
            cmd.name(),
            cmd.usage
        )),
        None => Ok(opts),
    }
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

    // Keep-alive connections pin a worker each, so serve has no "one per
    // CPU" meaning for 0.
    let threads = o.threads.unwrap_or(4);
    if threads == 0 {
        return Err("serve --threads must be >= 1 (one worker per connection)".to_owned());
    }
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
        threads,
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
            cfg.threads
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
    by_dim!(detect_dim(path)?, probe_typed(path, stem, &law, o))
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

/// The PC-plot config from `--metric`, `--bins` and `--threads`.
fn pc_config(o: &Options) -> PcPlotConfig {
    PcPlotConfig {
        metric: o.metric.unwrap_or(Metric::Linf),
        bins: o.bins.unwrap_or(40),
        radius_range: None,
        threads: o.threads.unwrap_or(0),
    }
}

/// The BOPS config for `D`-dimensional data from `--levels`, `--ratio` and
/// `--threads` over [`BopsConfig::for_dim`]. Rejects a config the plot
/// would reject, and prints a one-line stderr note when it rules out the
/// single-sort Morton keys: the slower path must be visible, not just
/// recorded.
fn bops_config<const D: usize>(o: &Options) -> Result<BopsConfig, String> {
    let dim = BopsConfig::for_dim(D);
    let cfg = BopsConfig {
        levels: o.levels.unwrap_or(dim.levels),
        ratio: o.ratio.unwrap_or(dim.ratio),
        threads: o.threads.unwrap_or(0),
    };
    if let Some(reason) = cfg.fallback::<D>().map_err(|e| e.to_string())? {
        eprintln!("note: BOPS took the per-level sorted path: {reason}");
    }
    Ok(cfg)
}

/// The law flags as the one [`EstimationMethod`] every law-fitting command
/// uses; `--method` is `pc` or `bops` (the default).
fn law_method<const D: usize>(o: &Options) -> Result<EstimationMethod, String> {
    match o.method {
        Some("pc") => Ok(EstimationMethod::ExactPcPlot(pc_config(o))),
        _ => bops_config::<D>(o).map(EstimationMethod::Bops),
    }
}

/// Fits the law of the cross join `a × b` when `b` is given, else of the
/// self join of `a`.
fn fit_law<const D: usize>(
    a: &PointSet<D>,
    b: Option<&PointSet<D>>,
    method: EstimationMethod,
) -> Result<SelectivityEstimator, String> {
    match b {
        Some(b) => SelectivityEstimator::from_cross(a, b, method),
        None => SelectivityEstimator::from_self(a, method),
    }
    .map_err(|e| e.to_string())
}

/// `catalog-add <cat.tsv> <name> <a.csv> [b.csv]` — fits the law of the
/// dataset(s) and stores it in the catalog under `name`.
fn cmd_catalog_add(o: &Options) -> Result<(), String> {
    match o.positional.as_slice() {
        [_, _, data, ..] => by_dim!(detect_dim(data)?, catalog_add(o)),
        _ => Err("catalog-add needs: <cat.tsv> <name> <a.csv> [b.csv]".to_owned()),
    }
}

/// The typed half of `catalog-add`, called once its arguments are checked.
fn catalog_add<const D: usize>(o: &Options) -> Result<(), String> {
    use sjpl_core::LawCatalog;
    let (cat_path, name) = (&o.positional[0], &o.positional[1]);
    let (a, b) = load_sets::<D>(&o.positional[2..])?;
    let law = *fit_law(&a, b.as_ref(), law_method::<D>(o)?)?.law();
    let mut cat = if std::path::Path::new(cat_path).exists() {
        LawCatalog::load(cat_path).map_err(|e| e.to_string())?
    } else {
        LawCatalog::new()
    };
    cat.insert(name.to_owned(), law);
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
    use sjpl_core::LawCatalog;
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

/// The dimensionality of a command's first dataset.
fn dataset_dim(positional: &[String]) -> Result<usize, String> {
    detect_dim(positional.first().ok_or("need at least one dataset path")?)
}

/// Reads `a.csv` and, for a cross join, `b.csv`.
fn load_sets<const D: usize>(
    paths: &[String],
) -> Result<(PointSet<D>, Option<PointSet<D>>), String> {
    let a: PointSet<D> = read_csv(&paths[0]).map_err(|e| format!("{}: {e}", paths[0]))?;
    let b = match paths.get(1) {
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

fn cmd_pc_plot<const D: usize>(o: &Options) -> Result<(), String> {
    let (a, b) = load_sets::<D>(&o.positional)?;
    let pc_cfg = pc_config(o);
    let plot = match &b {
        Some(b) => pc_plot_cross(&a, b, &pc_cfg),
        None => pc_plot_self(&a, &pc_cfg),
    }
    .map_err(|e| e.to_string())?;
    println!("# radius, pair_count");
    for (&r, &c) in plot.radii().iter().zip(plot.counts().iter()) {
        println!("{r:.6e}, {c}");
    }
    print_law(
        &plot
            .fit(&FitOptions::default())
            .map_err(|e| e.to_string())?,
    );
    Ok(())
}

fn cmd_bops<const D: usize>(o: &Options) -> Result<(), String> {
    let (a, b) = load_sets::<D>(&o.positional)?;
    let bops_cfg = bops_config::<D>(o)?;
    let plot = match &b {
        Some(b) => bops_plot_cross(&a, b, &bops_cfg),
        None => bops_plot_self(&a, &bops_cfg),
    }
    .map_err(|e| e.to_string())?;
    println!("# radius (s/2), bops");
    for (&r, &v) in plot.radii().iter().zip(plot.values().iter()) {
        println!("{r:.6e}, {v}");
    }
    print_law(
        &plot
            .fit(&FitOptions::default())
            .map_err(|e| e.to_string())?,
    );
    Ok(())
}

fn cmd_estimate<const D: usize>(o: &Options) -> Result<(), String> {
    let (a, b) = load_sets::<D>(&o.positional)?;
    let r = o.radius.ok_or("estimate needs --radius")?;
    let est = fit_law(&a, b.as_ref(), law_method::<D>(o)?)?;
    let law = est.law();
    let dataset = dataset_label(&a, b.as_ref());
    let pairs = est.estimate_pair_count_observed(&dataset, r, o.true_pc);
    print_law(law);
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

fn cmd_join<const D: usize>(o: &Options) -> Result<(), String> {
    let algo = o.algo.unwrap_or(JoinAlgorithm::planned(D));
    if o.threads.is_some() && !algo.threaded() {
        let why = match o.algo {
            Some(_) => "forced by --algo".to_owned(),
            None => format!("the planner's engine for {D}-d data"),
        };
        return Err(format!(
            "join takes no --threads with {} ({why}): only par-sweep runs on threads",
            algo.name()
        ));
    }
    let (a, b) = load_sets::<D>(&o.positional)?;
    let r = o.radius.ok_or("join needs --radius")?;
    let threads = o.threads.unwrap_or(0);
    let metric = o.metric.unwrap_or(Metric::Linf);
    let t0 = std::time::Instant::now();
    let pa = PreparedSet::with(algo, a.points());
    let (count, denom) = match &b {
        Some(b) => (
            pa.cross_count(&PreparedSet::with(algo, b.points()), r, metric, threads),
            a.len() as f64 * b.len() as f64,
        ),
        None => (
            pa.self_count(r, metric, threads),
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

fn cmd_dim<const D: usize>(o: &Options) -> Result<(), String> {
    let (a, _) = load_sets::<D>(&o.positional)?;
    let est = fit_law(&a, None, law_method::<D>(o)?)?;
    let law = est.law();
    println!(
        "correlation fractal dimension D2 ≈ {:.4} (fit r^2 = {:.4}; embedding E = {D})",
        law.exponent, law.fit.line.r_squared
    );
    Ok(())
}

fn cmd_info<const D: usize>(o: &Options) -> Result<(), String> {
    let (a, _) = load_sets::<D>(&o.positional)?;
    // A bad flag is a usage error; only a failed fit is reported.
    let method = law_method::<D>(o)?;
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
    match fit_law(&a, None, method) {
        Ok(est) => {
            let law = est.law();
            println!(
                "quick self-join law ({}): alpha = {:.3}, K = {:.3e}, r^2 = {:.4}",
                o.method.unwrap_or("bops").to_uppercase(),
                law.exponent,
                law.k,
                law.fit.line.r_squared
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

fn cmd_sample<const D: usize>(o: &Options) -> Result<(), String> {
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
    fn join_rejects_threads_for_an_engine_that_runs_on_one() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("join_rejects_threads_for_an_engine_that_runs_on_one");
        let (flat, faces) = (dir.join("u.csv"), dir.join("ef.csv"));
        let (flat, faces) = (flat.to_str().unwrap(), faces.to_str().unwrap());
        run(&sv(&["generate", "uniform", "300", "1", flat])).unwrap();
        run(&sv(&["generate", "eigenfaces", "300", "1", faces])).unwrap();
        for name in ["nested-loop", "kd-tree", "plane-sweep"] {
            let e = run(&sv(&[
                "join",
                flat,
                "-r",
                "0.05",
                "--algo",
                name,
                "--threads",
                "1",
            ]))
            .unwrap_err();
            assert_eq!(e.code, 1, "{e}");
            assert!(
                e.message.contains(&format!("{name} (forced by --algo)")),
                "{e}"
            );
        }
        let e = run(&sv(&["join", faces, "-r", "0.5", "--threads", "2"])).unwrap_err();
        assert!(
            e.message
                .contains("kd-tree (the planner's engine for 16-d data)"),
            "{e}"
        );
        run(&sv(&["join", flat, "-r", "0.05", "--threads", "2"])).unwrap();
        run(&sv(&[
            "join",
            flat,
            "-r",
            "0.05",
            "--algo",
            "par-sweep",
            "--threads",
            "1",
        ]))
        .unwrap();
        run(&sv(&["join", faces, "-r", "0.5"])).unwrap();
    }

    #[test]
    fn non_finite_coordinates_fail_every_command_with_the_row() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("non_finite_coordinates_fail_every_command_with_the_row");
        for (field, row) in [("inf", 3), ("nan", 2)] {
            let p = dir.join(format!("{field}.csv"));
            let text = if row == 3 {
                format!("0.1,0.5\n0.2,0.5\n{field},0.5\n{field},0.5\n")
            } else {
                format!("0.1,0.5\n{field},0.5\n0.2,0.5\n{field},0.5\n")
            };
            std::fs::write(&p, text).unwrap();
            let p = p.to_str().unwrap();
            for argv in [
                &["join", p, "-r", "0.5"][..],
                &["join", p, "-r", "0.5", "--algo", "nested-loop"],
                &["estimate", p, "-r", "0.5"],
            ] {
                let e = run(&sv(argv)).unwrap_err();
                assert_eq!(e.code, 1, "{argv:?}: {e}");
                let want = format!("line {row}: coordinate \"{field}\" is not finite");
                assert!(e.message.contains(&want), "{argv:?}: {e}");
            }
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
        // Degenerate radii fail before any file is read.
        for (cmd, r) in [("estimate", "nan"), ("estimate", "-1"), ("join", "nan")] {
            let e = run(&sv(&[cmd, "/nonexistent/file.csv", "-r", r])).unwrap_err();
            assert!(
                e.message.contains("must be finite and >= 0"),
                "{cmd} -r {r}: {e}"
            );
        }
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

    /// Each command parses every flag in its set and rejects every other
    /// one with `<cmd> takes no <flag>`; every flag is read by some
    /// command; and `sjpl help` has one entry per command and per flag.
    #[test]
    fn commands_accept_exactly_their_flags() {
        // The first of these sample values each setter accepts.
        let argv = |f: &crate::args::Flag| {
            if !f.takes_value() {
                return sv(&[f.name()]);
            }
            ["1", "0.5", "pc", "kd-tree"]
                .iter()
                .map(|v| sv(&[f.name(), v]))
                .find(|a| parse(a).is_ok())
                .unwrap_or_else(|| panic!("no sample value parses for {}", f.name()))
        };
        for c in COMMANDS {
            for f in FLAGS {
                match parse_for(c, &argv(f)) {
                    Ok(_) => assert!(c.accepts(f.name()), "{} parsed {}", c.name(), f.name()),
                    Err(e) => assert_eq!(e, format!("{} takes no {}", c.name(), f.name())),
                }
            }
            for name in c.flags.split_whitespace() {
                assert!(
                    FLAGS.iter().any(|f| f.name() == name),
                    "{}: {name}",
                    c.name()
                );
            }
        }
        for f in FLAGS {
            assert!(
                COMMANDS
                    .iter()
                    .any(|c| c.flags.split(' ').any(|n| n == f.name()))
                    || TRACE_FLAGS.split(' ').any(|n| n == f.name()),
                "no command reads {}",
                f.name()
            );
        }
        let help = usage();
        let (commands, rest) = help.split_once("\nflags").unwrap();
        let (flags, _) = rest.split_once("\nexit codes").unwrap();
        let heads = |part: &str| -> Vec<String> {
            part.lines()
                .filter_map(|l| l.strip_prefix("  "))
                .filter(|l| !l.starts_with(' '))
                .map(str::to_owned)
                .collect()
        };
        let (commands, flags) = (heads(commands), heads(flags));
        assert_eq!(commands.len(), COMMANDS.len(), "{help}");
        assert_eq!(flags.len(), FLAGS.len(), "{help}");
        for c in COMMANDS {
            let n = commands
                .iter()
                .filter(|h| h.split(' ').next() == Some(c.name()));
            assert_eq!(n.count(), 1, "{}", c.name());
        }
        for f in FLAGS {
            let names = |h: &&String| h.split([' ', ',', '[']).any(|t| t == f.name());
            assert_eq!(flags.iter().filter(names).count(), 1, "{}", f.name());
        }
    }

    /// Each command takes the positional arguments its usage names and no
    /// more: one past them is a usage error, raised before any file is
    /// read, as an unused flag is.
    #[test]
    fn commands_reject_extra_arguments() {
        let cmd = |name: &str| COMMANDS.iter().find(|c| c.name() == name).unwrap();
        assert_eq!(cmd("dim").max_args(), Some(1));
        assert_eq!(cmd("bops").max_args(), Some(2));
        assert_eq!(cmd("estimate").max_args(), Some(2));
        assert_eq!(cmd("catalog-add").max_args(), Some(4));
        assert_eq!(cmd("serve").max_args(), None);
        for c in COMMANDS {
            let Some(n) = c.max_args() else { continue };
            let argv: Vec<String> = (0..=n).map(|i| format!("/nonexistent/{i}.csv")).collect();
            assert!(parse_for(c, &argv[..n]).is_ok(), "{}", c.name());
            let Err(e) = parse_for(c, &argv) else {
                panic!("{} took {} arguments", c.name(), n + 1)
            };
            let want = format!("{}: unexpected argument \"/nonexistent/{n}.csv\"", c.name());
            assert!(e.starts_with(&want), "{e}");
        }
        let _obs = crate::obs_lock();
        for argv in [
            &[
                "bops",
                "/nonexistent/a.csv",
                "/nonexistent/b.csv",
                "/nonexistent/c.csv",
            ][..],
            &["dim", "/nonexistent/a.csv", "/nonexistent/b.csv"],
            &["info", "/nonexistent/a.csv", "/nonexistent/b.csv"],
        ] {
            let e = run(&sv(argv)).unwrap_err();
            assert_eq!(e.code, 1);
            assert!(e.message.contains("unexpected argument"), "{e}");
        }
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
        // Enough points that `--threads 2` splits the scan in two.
        run(&sv(&[
            "generate",
            "uniform",
            "10000",
            "17",
            data.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sv(&[
            "bops",
            data.to_str().unwrap(),
            "--levels",
            "8",
            "--threads",
            "2",
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
                .map(|e| e.get("args").unwrap().get("id").unwrap().as_f64().unwrap())
                .expect("a bops.scan span");
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
            assert_eq!(
                worker_parents.len(),
                2,
                "{path:?}: one span per scan worker"
            );
            for p in worker_parents {
                assert_eq!(p, scan_id);
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

    /// `catalog-add` stores exactly the law `estimate` fits for the same
    /// flags: 2-d and 16-d data, both methods, default and non-default law
    /// flags. `estimate`'s law is read from its snapshot: α from the
    /// `fit.exponent` gauge, K through the accuracy record's `K·r^α`.
    #[test]
    fn catalog_add_stores_the_law_estimate_fits() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("catalog_add_stores_the_law_estimate_fits");
        let cat = dir.join("laws.tsv");
        let obs = dir.join("obs.json");
        let (cat, obs) = (cat.to_str().unwrap(), obs.to_str().unwrap());
        let custom = [
            "--bins", "20", "--metric", "l2", "--levels", "10", "--ratio", "0.7",
        ];
        for (kind, r) in [("sierpinski", 0.01), ("eigenfaces", 0.1)] {
            let data = dir.join(format!("{kind}.csv"));
            let data = data.to_str().unwrap();
            run(&sv(&["generate", kind, "1500", "1", data])).unwrap();
            for method in ["bops", "pc"] {
                for flags in [&[][..], &custom[..]] {
                    let name = format!("{kind}-{method}-{}", flags.len());
                    let r_arg = r.to_string();
                    let mut estimate = sv(&["estimate", data, "-r", &r_arg, "--method", method]);
                    estimate.extend(sv(&["--obs-out", obs]).into_iter().chain(sv(flags)));
                    run(&estimate).unwrap();
                    let doc = sjpl_obs::json::Json::parse(&std::fs::read_to_string(obs).unwrap())
                        .unwrap();
                    let alpha = fit_exponent(obs);
                    let pairs = doc.get("accuracy").unwrap().as_array().unwrap()[0]
                        .get("estimated_pc")
                        .unwrap()
                        .as_f64()
                        .unwrap();

                    let mut add = sv(&["catalog-add", cat, &name, data, "--method", method]);
                    add.extend(sv(flags));
                    run(&add).unwrap();
                    let law = *sjpl_core::LawCatalog::load(cat)
                        .unwrap()
                        .get(&name)
                        .unwrap();
                    assert!(pairs < law.max_pairs(), "{name}: r = {r} saturates the law");
                    assert_eq!(law.exponent, alpha, "{name}: alpha");
                    assert_eq!(law.pair_count(r), pairs, "{name}: K");
                }
            }
        }
    }

    /// The `fit.exponent` gauge of the snapshot a command wrote to `obs`.
    fn fit_exponent(obs: &str) -> f64 {
        let doc = sjpl_obs::json::Json::parse(&std::fs::read_to_string(obs).unwrap()).unwrap();
        doc.get("gauges")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|g| g.get("name").unwrap().as_str() == Some("fit.exponent"))
            .and_then(|g| g.get("value").unwrap().as_f64())
            .unwrap()
    }

    /// `dim` and `info` fit the law `--method` names, like `estimate`;
    /// an unknown method fails, and the plot commands, which have no law
    /// method to pick, reject the flag instead of ignoring it.
    #[test]
    fn dim_honours_method_and_plot_commands_reject_it() {
        let _obs = crate::obs_lock();
        let dir = tmpdir("dim_honours_method_and_plot_commands_reject_it");
        let (data, obs) = (dir.join("s.csv"), dir.join("obs.json"));
        let (data, obs) = (data.to_str().unwrap(), obs.to_str().unwrap());
        run(&sv(&["generate", "sierpinski", "1500", "1", data])).unwrap();
        let mut alphas = Vec::new();
        for method in ["bops", "pc"] {
            run(&sv(&["dim", data, "--method", method, "--obs-out", obs])).unwrap();
            let dim = fit_exponent(obs);
            run(&sv(&["info", data, "--method", method, "--obs-out", obs])).unwrap();
            assert_eq!(fit_exponent(obs), dim, "info --method {method}");
            let estimate = ["estimate", data, "-r", "0.01", "--method", method];
            run(&sv(&estimate)
                .into_iter()
                .chain(sv(&["--obs-out", obs]))
                .collect::<Vec<_>>())
            .unwrap();
            assert_eq!(fit_exponent(obs), dim, "dim --method {method}");
            alphas.push(dim);
        }
        assert_ne!(alphas[0], alphas[1], "dim --method pc fitted the BOPS law");
        for cmd in ["dim", "info"] {
            let err = run(&sv(&[cmd, data, "--method", "nonsense"])).unwrap_err();
            assert!(
                err.message.contains("unknown method"),
                "{cmd}: {}",
                err.message
            );
        }
        for cmd in [
            &["bops", data][..],
            &["pc-plot", data],
            &["join", data, "-r", "0.01"],
        ] {
            let mut argv = sv(cmd);
            argv.extend(sv(&["--method", "pc"]));
            let err = run(&argv).unwrap_err();
            assert!(
                err.message.contains("takes no --method"),
                "{cmd:?}: {}",
                err.message
            );
        }
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
        // Keep-alive connections pin a worker each: 0 workers is a usage
        // error, not "one per CPU".
        let e = run(&sv(&[
            "serve",
            "--catalog",
            cat.to_str().unwrap(),
            "--threads",
            "0",
        ]))
        .unwrap_err();
        assert!(e.message.contains("--threads must be >= 1"), "{e}");
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
