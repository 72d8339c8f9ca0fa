//! Small shared pieces: the result ledger, order statistics, a seeded RNG,
//! and the `/proc` readers behind the memory and CPU figures.

use std::time::{Duration, Instant};

use sjpl_core::PairCountLaw;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run reports: operations attempted and failed,
/// output checks that failed, the metrics, and free-form accounting lines
/// printed ahead of the result.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks: any one makes the run incorrect.
    pub wrong: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Ledger {
    /// Counts one operation that can fail without a wrong answer (a
    /// refused, 4xx/5xx or transport-failed request).
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.absorb(
            1,
            u64::from(!ok),
            0,
            if ok { Vec::new() } else { vec![what()] },
        );
    }

    /// Counts one output check; a failed check is a failed operation and
    /// makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        let bad = u64::from(!ok);
        self.absorb(1, bad, bad, if ok { Vec::new() } else { vec![what()] });
    }

    /// Adds the tallies of a connection or phase; the first failure
    /// messages are kept for the report.
    pub fn absorb(&mut self, attempted: u64, failed: u64, wrong: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.wrong += wrong;
        for f in failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The end-to-end metrics every workload reports besides its own job
    /// figures: the share of operations that succeeded and the peak RSS.
    pub fn finish_common(&mut self) {
        let ok = if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        };
        self.metric("ok_ratio", ok, "ratio");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
}

/// Mean of the middle half of a sample (its values between the first and
/// third quartile): unlike the median it moves smoothly when the sample
/// mixes two levels, and unlike the mean it ignores stalls. NaN if empty.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = &v[v.len() / 4..v.len() - v.len() / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Median of a sample (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample; NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile (of 50, 90, 99, 99.9, 99.99) that still has at
/// least ten samples beyond it, with its label.
pub fn tail_quantile(xs: &[f64]) -> (f64, &'static str) {
    let n = xs.len() as f64;
    let mut best = (quantile(xs, 0.5), "p50");
    for (q, label) in [
        (0.9, "p90"),
        (0.99, "p99"),
        (0.999, "p999"),
        (0.9999, "p9999"),
    ] {
        if n * (1.0 - q) >= 10.0 {
            best = (quantile(xs, q), label);
        }
    }
    best
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median wall time in nanoseconds of one call of `f`, over `reps` timed
/// batches of `batch` calls each.
pub fn ns_per_call(reps: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|r| {
            let t0 = Instant::now();
            for i in 0..batch {
                f(r * batch + i);
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// A measurement deadline.
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(d: Duration) -> Deadline {
        Deadline(Instant::now() + d)
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// SplitMix64: a tiny seeded generator for request streams and radii, so
/// the benchmark's own randomness needs no external crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linux reports per-thread CPU time in clock ticks; 100 Hz is the value
/// on every mainstream Linux build (`getconf CLK_TCK`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) of one thread from its `stat` file.
fn stat_cpu_s(stat: &str) -> Option<(String, f64)> {
    // Format: `tid (comm) state ppid ...`; comm may hold spaces, so split
    // at the last ')'. utime and stime are fields 14 and 15.
    let (open, close) = (stat.find('(')?, stat.rfind(')')?);
    let rest: Vec<&str> = stat.get(close + 2..)?.split(' ').collect();
    let ticks = |i: usize| {
        rest.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Some((
        stat[open + 1..close].to_owned(),
        (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S,
    ))
}

/// CPU seconds of every thread of this process, by thread name.
pub fn thread_cpu_s() -> Vec<(String, f64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter_map(|s| stat_cpu_s(&s))
        .collect()
}

/// CPU seconds of the calling thread.
pub fn own_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .map_or(0.0, |(_, secs)| secs)
}

/// Equality of everything the catalog stores.
pub fn same_law(a: &PairCountLaw, b: &PairCountLaw) -> bool {
    a.exponent.to_bits() == b.exponent.to_bits()
        && a.k.to_bits() == b.k.to_bits()
        && a.fit.x_lo.to_bits() == b.fit.x_lo.to_bits()
        && a.fit.x_hi.to_bits() == b.fit.x_hi.to_bits()
        && a.fit.line.r_squared.to_bits() == b.fit.line.r_squared.to_bits()
        && a.kind == b.kind
        && a.n == b.n
        && a.m == b.m
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// The CPUs this process may run on, in order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return vec![0];
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts thread `tid` (0: the calling thread) to one CPU; false if the
/// kernel refused.
pub fn pin_thread(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `(tid, voluntary context switches)` of this process's threads whose
/// name starts with `prefix`.
pub fn thread_switches(prefix: &str) -> Vec<(i32, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let tid = e.file_name().to_str()?.parse::<i32>().ok()?;
            let status = std::fs::read_to_string(e.path().join("status")).ok()?;
            let field = |key: &str| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix(key))
                    .map(str::trim)
            };
            if !field("Name:")?.starts_with(prefix) {
                return None;
            }
            Some((tid, field("voluntary_ctxt_switches:")?.parse().ok()?))
        })
        .collect()
}
