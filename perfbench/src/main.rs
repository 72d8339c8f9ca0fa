//! The sjpl benchmark runner. One process runs one workload:
//!
//! ```text
//! sjpl-perfbench --workload <law_build|exact_truth|serve_estimate|serve_scraped>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints accounting lines, then one JSON result line with `correct`,
//! `attempted`, `failed` and `metrics`, and exits non-zero when an output
//! check failed. `perfbench/run.py` builds it and wraps it; see
//! `perfbench/README.md`.

mod client;
mod data;
mod exact_truth;
mod law_build;
mod serve;
mod util;

use std::error::Error;
use std::process::ExitCode;

use util::Ledger;

/// Set-ups timed at each end of a run; `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run(a: &Args) -> Result<Ledger, Box<dyn Error>> {
    Ok(match a.workload.as_str() {
        "law_build" => law_build::run(a.seed, a.seconds, a.trace)?,
        "exact_truth" => exact_truth::run(a.seed, a.seconds, a.trace)?,
        "serve_estimate" => serve::run(a.seed, a.seconds, a.trace, serve::Mix::Estimate)?,
        "serve_scraped" => serve::run(a.seed, a.seconds, a.trace, serve::Mix::Scraped)?,
        other => return Err(format!("unknown workload {other:?}").into()),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sjpl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ledger = match run(&args) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sjpl-perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &ledger.notes {
        println!("# {line}");
    }
    for m in &ledger.metrics {
        println!("# metric {} = {} {}", m.name, m.value, m.unit);
    }
    for f in &ledger.failures {
        println!("# FAILED: {f}");
    }
    let correct = ledger.correct();
    let metrics: Vec<String> = ledger
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// written as `null` so the wrapper rejects the run.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
