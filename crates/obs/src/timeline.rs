//! The flight-recorder timeline: every [`Span`](crate::Span) that closes
//! while the recorder is enabled also lands here as one discrete event
//! carrying its own id, its parent span's id, and the id of the thread it
//! ran on — enough to reconstruct the full span tree and a per-thread
//! timeline of one run, not just the aggregate statistics the registry
//! keeps.
//!
//! Storage is a bounded ring: a fixed-capacity buffer that overwrites the
//! *oldest* events once full, with an exact overwrite count surfaced as
//! `dropped_events`. Keeping the newest events (rather than refusing new
//! ones) means the spans that close last — the roots of the tree — always
//! survive a long run, so an overflowing trace degrades into "the tail of
//! the run, with the tree intact above it" instead of a headless forest.
//! Reading it is the expensive part: [`snapshot`](crate::snapshot) reports
//! only the drop count, and [`Snapshot::with_timeline`](crate::Snapshot::with_timeline)
//! copies the retained events out.
//!
//! Parentage is tracked with a per-thread stack of open spans: a span
//! opened on a thread becomes the child of the innermost span still open
//! *on that thread*. Spawned workers start with an empty stack; to attach
//! their spans beneath a span owned by the spawning thread, pass a
//! [`SpanContext`](crate::SpanContext) across and open the worker span with
//! [`span_under`](crate::span_under).
//!
//! The stack itself is shared: each thread's open-span list lives behind an
//! `Arc<Mutex<..>>` registered with the [profiler](crate::prof) on first
//! use and deregistered when the thread exits, so the sampling profiler can
//! observe every thread's live span path without any cooperation from the
//! instrumented code.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};
use std::time::Instant;

use crate::prof;

/// Default ring capacity (events). At ~80 bytes an event, a full default
/// ring costs ~5 MB — and only once that many spans have actually closed;
/// the buffer grows on demand up to the cap.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 65_536;

/// One closed span, as recorded in the timeline ring.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Unique span id (process-wide, monotonically assigned; never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Small sequential id of the thread the span ran on (never 0).
    pub tid: u64,
    /// Span name.
    pub name: &'static str,
    /// Start time, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Optional free-form arguments (e.g. `points=200000 levels=12`).
    pub args: Option<Box<str>>,
}

/// The timeline portion of a [`Snapshot`](crate::Snapshot).
#[derive(Clone, Debug, Default)]
pub struct TimelineSnapshot {
    /// Retained events, oldest first (by close time).
    pub events: Vec<TimelineEvent>,
    /// Events overwritten because the ring was full — exact.
    pub dropped_events: u64,
}

impl TimelineSnapshot {
    /// Events with the given name, in retained order.
    pub fn by_name(&self, name: &str) -> Vec<&TimelineEvent> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// The single event with the given span id, if retained.
    pub fn by_id(&self, id: u64) -> Option<&TimelineEvent> {
        self.events.iter().find(|e| e.id == id)
    }

    /// Number of distinct thread ids among the retained events.
    pub fn thread_count(&self) -> usize {
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids.len()
    }
}

/// The bounded ring buffer behind the timeline.
struct Ring {
    buf: Vec<TimelineEvent>,
    cap: usize,
    /// Next write position (`total % cap` once the buffer is full).
    next: usize,
    /// Total events ever offered since the last reset.
    total: u64,
}

impl Ring {
    fn with_capacity(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            cap: cap.max(1),
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, ev: TimelineEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
    }

    fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.buf.len() as u64)
    }

    /// Retained events in chronological (close-time) order.
    fn chronological(&self) -> Vec<TimelineEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let (older, newer) = (&self.buf[self.next..], &self.buf[..self.next]);
            older.iter().chain(newer).cloned().collect()
        }
    }
}

static RING: LazyLock<Mutex<Ring>> =
    LazyLock::new(|| Mutex::new(Ring::with_capacity(DEFAULT_TIMELINE_CAPACITY)));

fn ring() -> MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(|p| p.into_inner())
}

/// The recorder epoch all `start_ns` values are measured from. Anchored on
/// first use; `set_enabled(true)` forces it early so timestamps are small.
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Forces the epoch to be anchored now (idempotent).
pub(crate) fn anchor_epoch() {
    LazyLock::force(&EPOCH);
}

/// Nanoseconds elapsed since the recorder epoch.
pub(crate) fn epoch_ns() -> u64 {
    EPOCH.elapsed().as_nanos() as u64
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Owns this thread's shared live stack; the `Drop` impl deregisters it
/// from the profiler when the thread exits.
struct StackHandle {
    stack: Arc<prof::LiveStack>,
}

impl Drop for StackHandle {
    fn drop(&mut self) {
        prof::deregister(self.stack.tid);
    }
}

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: StackHandle = StackHandle {
        stack: prof::register(current_tid()),
    };
}

/// Runs `f` on this thread's shared live stack. During thread teardown the
/// thread-local may already be destroyed (spans dropping from other TLS
/// destructors); those late calls degrade to a no-op / `default`.
fn with_stack<T: Default>(f: impl FnOnce(&mut Vec<prof::Frame>) -> T) -> T {
    SPAN_STACK
        .try_with(|h| {
            let mut frames = h.stack.frames.lock().unwrap_or_else(|p| p.into_inner());
            f(&mut frames)
        })
        .unwrap_or_default()
}

/// The calling thread's small sequential id (assigned on first use).
pub(crate) fn current_tid() -> u64 {
    THREAD_ID.with(|c| {
        let mut id = c.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    })
}

/// Allocates a fresh span id (never 0).
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The innermost span currently open on this thread (0 = none).
pub(crate) fn current_parent() -> u64 {
    with_stack(|s| s.last().map(|&(id, _)| id).unwrap_or(0))
}

/// Marks `id` as the innermost open span on this thread. The name rides
/// along so the profiler's sampler can fold readable span paths.
pub(crate) fn push_open(id: u64, name: &'static str) {
    with_stack(|s| s.push((id, name)));
}

/// Removes `id` from this thread's open-span stack. Usually the top (RAII
/// nesting), but out-of-order `close()` calls are tolerated by removing the
/// last matching entry wherever it sits.
pub(crate) fn pop_open(id: u64) {
    with_stack(|s| {
        if let Some(pos) = s.iter().rposition(|&(x, _)| x == id) {
            s.remove(pos);
        }
    });
}

/// Records one closed span into the ring.
pub(crate) fn record(ev: TimelineEvent) {
    ring().push(ev);
}

/// Events overwritten since the last reset, without copying the ring.
pub(crate) fn dropped() -> u64 {
    ring().dropped()
}

/// Copies the ring out as a [`TimelineSnapshot`].
pub(crate) fn snapshot() -> TimelineSnapshot {
    let r = ring();
    TimelineSnapshot {
        events: r.chronological(),
        dropped_events: r.dropped(),
    }
}

/// Clears all retained events and the drop count (capacity is kept).
pub(crate) fn reset() {
    let mut r = ring();
    let cap = r.cap;
    *r = Ring::with_capacity(cap);
}

/// Resizes the timeline ring, clearing it. Mainly for tests (tiny rings to
/// exercise overflow) and memory-constrained embedders; capacities are
/// clamped to at least 1.
pub fn set_timeline_capacity(cap: usize) {
    *ring() = Ring::with_capacity(cap);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> TimelineEvent {
        TimelineEvent {
            id,
            parent: 0,
            tid: 1,
            name: "t",
            start_ns: id * 10,
            dur_ns: 5,
            args: None,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops_exactly() {
        let mut r = Ring::with_capacity(4);
        for i in 1..=10 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 6);
        let ids: Vec<u64> = r.chronological().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let mut r = Ring::with_capacity(8);
        for i in 1..=3 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.chronological().len(), 3);
    }

    #[test]
    fn stack_tolerates_out_of_order_removal() {
        // Run on a dedicated thread: other tests share this thread's stack.
        std::thread::spawn(|| {
            push_open(101, "t.a");
            push_open(102, "t.b");
            pop_open(101); // out of order
            assert_eq!(current_parent(), 102);
            pop_open(102);
            assert_eq!(current_parent(), 0);
        })
        .join()
        .unwrap();
    }
}
