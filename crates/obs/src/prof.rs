//! Continuous span-stack profiler: a sampling profiler over the recorder's
//! own RAII spans, with no dependencies and no unsafe code.
//!
//! Every thread that opens a [`Span`](crate::Span) owns a *live stack* — the
//! ordered list of its currently-open spans, the same structure the timeline
//! uses for parenting — shared behind an `Arc<Mutex<..>>` and registered in a
//! process-global registry on first use (deregistered automatically when the
//! thread exits). A background sampler thread started with [`start`] wakes at
//! the configured frequency and, on each tick, walks the registry and records
//! each thread's current span path (`"a;b;c"`, outermost first), folding
//! identical paths into a `(path → count)` profile.
//!
//! Accounting is explicit, so a profile is auditable:
//!
//! * `samples` — stack observations folded into the profile; always equals
//!   the sum of the folded counts.
//! * `idle` — observations of threads with no open span (registered but not
//!   inside instrumented code); counted, not folded.
//! * `dropped` — observations lost because the sampler could not acquire a
//!   stack's lock without blocking (`try_lock` keeps the sampler from ever
//!   stalling application threads behind it).
//! * `missed_ticks` — scheduled wakeups the sampler overslept (overload);
//!   each missed tick forfeits one whole sweep of the registry.
//! * `overhead_ns` — wall-clock time the sampler itself spent sweeping, the
//!   profiler's self-cost.
//!
//! The invariant `attempts == samples + idle + dropped` (where `attempts` is
//! the number of tick × registered-thread observation opportunities actually
//! swept) is checked by the property tests in `tests/prof_sampler.rs`.
//!
//! Exports: [`Profile::to_collapsed`] (inferno/speedscope-compatible
//! collapsed-stack text), [`Profile::to_json`] (the `profile` section of the
//! schema-4 snapshot), and [`Profile::spans`] (per-span self/total
//! attribution, used for the top-N table in `BENCH_bops.json`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling frequencies are clamped to this range: below 1 Hz a window
/// observes nothing, above 10 kHz the sampler would contend with the
/// threads it is watching.
pub const MIN_HZ: f64 = 1.0;
/// Upper clamp for sampling frequency (see [`MIN_HZ`]).
pub const MAX_HZ: f64 = 10_000.0;

/// One open-span frame on a thread's live stack: `(span id, span name)`.
pub(crate) type Frame = (u64, &'static str);

/// One thread's live span stack, shared between the owning thread (which
/// pushes and pops frames as spans open and close) and the sampler (which
/// `try_lock`s it to read the current path).
pub(crate) struct LiveStack {
    /// The owning thread's small sequential id (same ids as the timeline).
    pub(crate) tid: u64,
    /// Open spans, outermost first.
    pub(crate) frames: Mutex<Vec<Frame>>,
}

/// Registry of live stacks, one per thread that has opened a span and not
/// yet exited. Registration happens in `timeline::push_open`,
/// deregistration in the thread-local destructor over there.
static STACKS: Mutex<Vec<Arc<LiveStack>>> = Mutex::new(Vec::new());

fn stacks() -> MutexGuard<'static, Vec<Arc<LiveStack>>> {
    STACKS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Creates and registers a live stack for a new thread.
pub(crate) fn register(tid: u64) -> Arc<LiveStack> {
    let stack = Arc::new(LiveStack {
        tid,
        frames: Mutex::new(Vec::new()),
    });
    stacks().push(Arc::clone(&stack));
    stack
}

/// Removes an exiting thread's stack from the registry.
pub(crate) fn deregister(tid: u64) {
    stacks().retain(|s| s.tid != tid);
}

/// Number of threads currently registered (visible for tests).
pub fn registered_threads() -> usize {
    stacks().len()
}

// ---------------------------------------------------------------------------
// The folded profile
// ---------------------------------------------------------------------------

/// A folded sampling profile: what fraction of observed time each span path
/// was live. Produced by [`stop`], [`window`], or [`current_profile`].
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Configured sampling frequency, Hz.
    pub hz: f64,
    /// Wall-clock length of the sampled window, ns.
    pub duration_ns: u64,
    /// Sampler wakeups that swept the registry.
    pub ticks: u64,
    /// Scheduled wakeups the sampler overslept (whole sweeps forfeited).
    pub missed_ticks: u64,
    /// Tick × thread observation opportunities actually swept.
    pub attempts: u64,
    /// Stack observations folded into the profile (= sum of folded counts).
    pub samples: u64,
    /// Observations of registered threads with no open span.
    pub idle: u64,
    /// Observations lost to stack-lock contention (`try_lock` miss).
    pub dropped: u64,
    /// Wall-clock time the sampler spent sweeping, ns (self-overhead).
    pub overhead_ns: u64,
    /// `(span path, count)` — path is `"a;b;c"` outermost-first — sorted by
    /// descending count, ties by path.
    pub folded: Vec<(String, u64)>,
}

/// Per-span attribution derived from a [`Profile`]: `self_samples` counts
/// samples where the span was the innermost frame, `total_samples` counts
/// samples where it appeared anywhere on the stack (once per sample, so
/// recursion does not double-count).
#[derive(Clone, Debug)]
pub struct SpanProfile {
    /// Span name.
    pub name: String,
    /// Samples with this span innermost (leaf).
    pub self_samples: u64,
    /// Samples with this span anywhere on the stack.
    pub total_samples: u64,
}

impl Profile {
    /// Collapsed-stack text, one `path count` line per folded path — the
    /// format `inferno`, speedscope and `flamegraph.pl` consume directly.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, count) in &self.folded {
            out.push_str(path);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Per-span self/total attribution, sorted by descending self samples
    /// (ties by name).
    pub fn spans(&self) -> Vec<SpanProfile> {
        let mut self_c: HashMap<&str, u64> = HashMap::new();
        let mut total_c: HashMap<&str, u64> = HashMap::new();
        for (path, count) in &self.folded {
            let mut seen: Vec<&str> = Vec::new();
            for name in path.split(';') {
                if !seen.contains(&name) {
                    seen.push(name);
                    *total_c.entry(name).or_insert(0) += count;
                }
            }
            if let Some(leaf) = path.rsplit(';').next() {
                *self_c.entry(leaf).or_insert(0) += count;
            }
        }
        let mut spans: Vec<SpanProfile> = total_c
            .into_iter()
            .map(|(name, total)| SpanProfile {
                name: name.to_owned(),
                self_samples: self_c.get(name).copied().unwrap_or(0),
                total_samples: total,
            })
            .collect();
        spans.sort_by(|a, b| {
            b.self_samples
                .cmp(&a.self_samples)
                .then_with(|| a.name.cmp(&b.name))
        });
        spans
    }

    /// The `profile` object of the schema-4 snapshot JSON (no surrounding
    /// key). Folded paths are sorted by descending count, spans by
    /// descending self time, so `jq '.profile.spans[0]'` is the hottest.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut j = String::from("{\n");
        let _ = writeln!(
            j,
            "      \"hz\": {}, \"duration_ns\": {}, \"ticks\": {}, \
             \"missed_ticks\": {}, \"attempts\": {}, \"samples\": {}, \
             \"idle\": {}, \"dropped\": {}, \"overhead_ns\": {},",
            crate::snapshot::json_f64(self.hz),
            self.duration_ns,
            self.ticks,
            self.missed_ticks,
            self.attempts,
            self.samples,
            self.idle,
            self.dropped,
            self.overhead_ns
        );
        j.push_str("      \"folded\": [");
        for (i, (path, count)) in self.folded.iter().enumerate() {
            let _ = write!(
                j,
                "{}\n        {{\"stack\": \"{}\", \"count\": {count}}}",
                if i == 0 { "" } else { "," },
                crate::snapshot::json_escape(path)
            );
        }
        j.push_str(if self.folded.is_empty() {
            "],\n"
        } else {
            "\n      ],\n"
        });
        let spans = self.spans();
        j.push_str("      \"spans\": [");
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                j,
                "{}\n        {{\"name\": \"{}\", \"self\": {}, \"total\": {}}}",
                if i == 0 { "" } else { "," },
                crate::snapshot::json_escape(&s.name),
                s.self_samples,
                s.total_samples
            );
        }
        j.push_str(if spans.is_empty() {
            "]\n    }"
        } else {
            "\n      ]\n    }"
        });
        j
    }

    /// The profile accumulated since `earlier` was snapshotted — used by
    /// windowed captures against an already-running continuous sampler.
    pub(crate) fn minus(&self, earlier: &Profile) -> Profile {
        let early: HashMap<&str, u64> = earlier
            .folded
            .iter()
            .map(|(p, c)| (p.as_str(), *c))
            .collect();
        let mut folded: Vec<(String, u64)> = self
            .folded
            .iter()
            .filter_map(|(p, c)| {
                let d = c.saturating_sub(early.get(p.as_str()).copied().unwrap_or(0));
                (d > 0).then(|| (p.clone(), d))
            })
            .collect();
        sort_folded(&mut folded);
        Profile {
            hz: self.hz,
            duration_ns: self.duration_ns.saturating_sub(earlier.duration_ns),
            ticks: self.ticks.saturating_sub(earlier.ticks),
            missed_ticks: self.missed_ticks.saturating_sub(earlier.missed_ticks),
            attempts: self.attempts.saturating_sub(earlier.attempts),
            samples: self.samples.saturating_sub(earlier.samples),
            idle: self.idle.saturating_sub(earlier.idle),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            overhead_ns: self.overhead_ns.saturating_sub(earlier.overhead_ns),
            folded,
        }
    }
}

fn sort_folded(folded: &mut [(String, u64)]) {
    folded.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

/// Mutable accumulation shared between the sampler thread and readers.
#[derive(Default)]
struct Accum {
    folded: HashMap<String, u64>,
    ticks: u64,
    missed_ticks: u64,
    attempts: u64,
    samples: u64,
    idle: u64,
    dropped: u64,
    overhead_ns: u64,
}

struct Shared {
    hz: f64,
    stop: AtomicBool,
    started: Instant,
    accum: Mutex<Accum>,
}

impl Shared {
    fn profile(&self) -> Profile {
        let a = self.accum.lock().unwrap_or_else(|p| p.into_inner());
        let mut folded: Vec<(String, u64)> =
            a.folded.iter().map(|(p, c)| (p.clone(), *c)).collect();
        sort_folded(&mut folded);
        Profile {
            hz: self.hz,
            duration_ns: self.started.elapsed().as_nanos() as u64,
            ticks: a.ticks,
            missed_ticks: a.missed_ticks,
            attempts: a.attempts,
            samples: a.samples,
            idle: a.idle,
            dropped: a.dropped,
            overhead_ns: a.overhead_ns,
            folded,
        }
    }
}

struct Handle {
    shared: Arc<Shared>,
    join: JoinHandle<()>,
}

/// The running sampler (at most one per process) and the last completed
/// profile, for snapshots taken after [`stop`].
static SAMPLER: Mutex<Option<Handle>> = Mutex::new(None);
static LAST: Mutex<Option<Profile>> = Mutex::new(None);

fn sampler() -> MutexGuard<'static, Option<Handle>> {
    SAMPLER.lock().unwrap_or_else(|p| p.into_inner())
}

/// Starts the background sampler at `hz` (clamped to
/// [`MIN_HZ`]..=[`MAX_HZ`]). Returns `false` if a sampler is already
/// running (the running one is left untouched) or `hz` is not finite.
pub fn start(hz: f64) -> bool {
    if !hz.is_finite() {
        return false;
    }
    let hz = hz.clamp(MIN_HZ, MAX_HZ);
    let mut slot = sampler();
    if slot.is_some() {
        return false;
    }
    let shared = Arc::new(Shared {
        hz,
        stop: AtomicBool::new(false),
        started: Instant::now(),
        accum: Mutex::new(Accum::default()),
    });
    let worker = Arc::clone(&shared);
    let join = std::thread::Builder::new()
        .name("sjpl-prof".to_owned())
        .spawn(move || sample_loop(&worker))
        .expect("spawn profiler sampler thread");
    *slot = Some(Handle { shared, join });
    true
}

/// Is a sampler currently running?
pub fn running() -> bool {
    sampler().is_some()
}

/// Stops the running sampler and returns its final profile (also retained
/// for later [`current_profile`] calls). `None` if no sampler was running.
pub fn stop() -> Option<Profile> {
    let handle = sampler().take()?;
    handle.shared.stop.store(true, Ordering::Relaxed);
    let _ = handle.join.join();
    let profile = handle.shared.profile();
    *LAST.lock().unwrap_or_else(|p| p.into_inner()) = Some(profile.clone());
    record_profile_counters(&profile);
    Some(profile)
}

/// The profile as of now: the running sampler's live accumulation if one is
/// active, otherwise the last completed profile (if any).
pub fn current_profile() -> Option<Profile> {
    if let Some(h) = sampler().as_ref() {
        return Some(h.shared.profile());
    }
    LAST.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// The accounting totals a scrape publishes, read without copying the
/// folded stacks: see [`current_totals`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Totals {
    /// Stack observations folded into the profile.
    pub samples: u64,
    /// Observations lost: `dropped + missed_ticks`.
    pub dropped: u64,
    /// Wall-clock time the sampler spent sweeping, ns.
    pub overhead_ns: u64,
}

/// [`current_profile`]'s accounting totals, without cloning its folded
/// stacks: the running sampler's live totals if one is active, otherwise
/// the last completed profile's (if any).
pub fn current_totals() -> Option<Totals> {
    if let Some(h) = sampler().as_ref() {
        let a = h.shared.accum.lock().unwrap_or_else(|p| p.into_inner());
        return Some(Totals {
            samples: a.samples,
            dropped: a.dropped + a.missed_ticks,
            overhead_ns: a.overhead_ns,
        });
    }
    let last = LAST.lock().unwrap_or_else(|p| p.into_inner());
    last.as_ref().map(|p| Totals {
        samples: p.samples,
        dropped: p.dropped + p.missed_ticks,
        overhead_ns: p.overhead_ns,
    })
}

/// Discards the last completed profile (the running sampler, if any, is
/// unaffected). Called from [`reset`](crate::reset).
pub(crate) fn clear_last() {
    *LAST.lock().unwrap_or_else(|p| p.into_inner()) = None;
}

/// Samples for `dur` and returns the window's profile. If no sampler is
/// running, one is started at `hz` and stopped afterwards; if a continuous
/// sampler is already active it is left running and the window is the
/// difference between two live snapshots (its original frequency wins).
pub fn window(hz: f64, dur: Duration) -> Profile {
    if start(hz) {
        std::thread::sleep(dur);
        stop().unwrap_or_default()
    } else {
        let before = current_profile().unwrap_or_default();
        std::thread::sleep(dur);
        let after = current_profile().unwrap_or_default();
        after.minus(&before)
    }
}

/// Publishes a finished window's accounting as recorder counters
/// (`prof.samples`, `prof.dropped_samples`, `prof.overhead_ns`), so scrapes
/// and snapshots see cumulative profiler cost next to everything else.
/// No-ops while the recorder is disabled, like every other entry point.
fn record_profile_counters(p: &Profile) {
    crate::counter_add("prof.samples", p.samples);
    crate::counter_add("prof.dropped_samples", p.dropped + p.missed_ticks);
    crate::counter_add("prof.overhead_ns", p.overhead_ns);
}

/// One sweep of the registry. Returns `(paths, idle, dropped)`.
fn sweep(stacks_now: &[Arc<LiveStack>]) -> (Vec<String>, u64, u64) {
    let mut paths = Vec::new();
    let (mut idle, mut dropped) = (0u64, 0u64);
    for s in stacks_now {
        match s.frames.try_lock() {
            Ok(frames) => {
                if frames.is_empty() {
                    idle += 1;
                } else {
                    let mut path = String::with_capacity(frames.len() * 16);
                    for (i, (_, name)) in frames.iter().enumerate() {
                        if i > 0 {
                            path.push(';');
                        }
                        path.push_str(name);
                    }
                    paths.push(path);
                }
            }
            // A poisoned stack still holds sound frame data, but the owning
            // thread panicked mid-span; count it as contended either way.
            Err(TryLockError::WouldBlock) | Err(TryLockError::Poisoned(_)) => dropped += 1,
        }
    }
    (paths, idle, dropped)
}

fn sample_loop(shared: &Shared) {
    let interval = Duration::from_secs_f64(1.0 / shared.hz);
    // Bounded naps keep `stop` responsive even at 1 Hz.
    let max_nap = Duration::from_millis(25).min(interval);
    let mut next = Instant::now() + interval;
    while !shared.stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now < next {
            std::thread::sleep((next - now).min(max_nap));
            continue;
        }
        let t0 = Instant::now();
        // How many scheduled ticks did this wakeup cover? One is taken now;
        // the rest were overslept and are accounted as missed.
        let mut due = 0u64;
        while next <= now {
            next += interval;
            due += 1;
        }
        let stacks_now: Vec<Arc<LiveStack>> = stacks().clone();
        let (paths, idle, dropped) = sweep(&stacks_now);
        let work_ns = t0.elapsed().as_nanos() as u64;
        let mut a = shared.accum.lock().unwrap_or_else(|p| p.into_inner());
        a.ticks += 1;
        a.missed_ticks += due.saturating_sub(1);
        a.attempts += stacks_now.len() as u64;
        a.idle += idle;
        a.dropped += dropped;
        a.samples += paths.len() as u64;
        for p in paths {
            *a.folded.entry(p).or_insert(0) += 1;
        }
        a.overhead_ns += work_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_of(folded: &[(&str, u64)]) -> Profile {
        Profile {
            hz: 99.0,
            samples: folded.iter().map(|(_, c)| c).sum(),
            folded: folded.iter().map(|(p, c)| (p.to_string(), *c)).collect(),
            ..Profile::default()
        }
    }

    #[test]
    fn collapsed_text_is_one_path_count_per_line() {
        let p = profile_of(&[("a;b;c", 7), ("a;b", 3), ("a", 1)]);
        assert_eq!(p.to_collapsed(), "a;b;c 7\na;b 3\na 1\n");
        assert!(profile_of(&[]).to_collapsed().is_empty());
    }

    #[test]
    fn span_attribution_separates_self_from_total() {
        let p = profile_of(&[("a;b;c", 7), ("a;b", 3), ("a", 2)]);
        let spans = p.spans();
        let get = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(get("a").total_samples, 12);
        assert_eq!(get("a").self_samples, 2);
        assert_eq!(get("b").total_samples, 10);
        assert_eq!(get("b").self_samples, 3);
        assert_eq!(get("c").total_samples, 7);
        assert_eq!(get("c").self_samples, 7);
        // Sorted by descending self samples.
        assert_eq!(spans[0].name, "c");
    }

    #[test]
    fn recursion_counts_each_sample_once_for_total() {
        let p = profile_of(&[("a;a;a", 5)]);
        let spans = p.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].total_samples, 5);
        assert_eq!(spans[0].self_samples, 5);
    }

    #[test]
    fn profile_diff_subtracts_counts_and_drops_empty_paths() {
        let later = profile_of(&[("a;b", 10), ("a", 4), ("c", 2)]);
        let earlier = profile_of(&[("a;b", 6), ("a", 4)]);
        let d = later.minus(&earlier);
        assert_eq!(d.folded, vec![("a;b".to_string(), 4), ("c".to_string(), 2)]);
        assert_eq!(d.samples, later.samples - earlier.samples);
    }

    #[test]
    fn profile_json_is_parseable_and_carries_accounting() {
        let mut p = profile_of(&[("a;b", 2)]);
        p.ticks = 3;
        p.attempts = 4;
        p.idle = 1;
        p.dropped = 1;
        p.overhead_ns = 1234;
        let doc = crate::json::Json::parse(&p.to_json()).unwrap();
        assert_eq!(doc.get("samples").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("dropped").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("overhead_ns").unwrap().as_f64(), Some(1234.0));
        let folded = doc.get("folded").unwrap().as_array().unwrap();
        assert_eq!(folded[0].get("stack").unwrap().as_str(), Some("a;b"));
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        // Empty profile still renders valid JSON.
        let empty = Profile::default().to_json();
        assert!(crate::json::Json::parse(&empty).is_ok(), "{empty}");
    }

    #[test]
    fn start_is_exclusive_and_stop_returns_the_profile() {
        // Serialized with other sampler tests by the global SAMPLER slot
        // itself: if one is running, start() reports it.
        if !start(500.0) {
            // Another test holds the sampler; nothing to assert here.
            return;
        }
        assert!(running());
        assert!(!start(99.0), "second start must refuse");
        std::thread::sleep(Duration::from_millis(30));
        let p = stop().expect("a sampler was running");
        assert!(!running());
        assert!(p.hz == 500.0);
        assert!(p.ticks > 0, "sampler never ticked: {p:?}");
        assert_eq!(
            p.samples,
            p.folded.iter().map(|(_, c)| c).sum::<u64>(),
            "folded counts must sum to samples"
        );
        assert!(stop().is_none(), "stop is idempotent");
    }
}
