//! `sjpl` — pair-count-law spatial-join selectivity estimation over CSV
//! point files.
//!
//! ```text
//! sjpl generate <kind> <n> <seed> <out.csv>     synthesize a dataset
//! sjpl pc-plot <a.csv> [b.csv] [opts]           exact (quadratic) PC plot + law
//! sjpl bops <a.csv> [b.csv] [opts]              linear BOPS plot + law
//! sjpl estimate <a.csv> [b.csv] -r <radius>     O(1) selectivity estimate
//! sjpl join <a.csv> [b.csv] -r <radius>         exact distance-join count
//! sjpl dim <a.csv>                              correlation fractal dimension
//! sjpl serve --catalog <cat.tsv> [data.csv…]    live estimation daemon (HTTP)
//! ```
//!
//! One CSV file ⇒ self join; two ⇒ cross join. The point dimensionality is
//! detected from the file (1–16 supported).

mod args;
mod commands;
mod dash;
mod error;
mod loadtest;
mod regress;

use std::process::ExitCode;

/// Serializes the tests that run commands or in-process daemons. They
/// share the process-wide obs recorder: in parallel, one test's reset or
/// disable wipes the telemetry another asserts on, and an untraced command
/// records its spans into another test's trace. Every such test holds it.
#[cfg(test)]
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.code)
        }
    }
}
