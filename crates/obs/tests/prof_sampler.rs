//! Integration tests for the span-stack sampling profiler: registry
//! behavior under thread churn, zero-sample windows, the retained
//! last-profile lifecycle, and the accounting invariant
//! `attempts == samples + idle + dropped` under randomized load.
//!
//! The sampler and the recorder are process-global, so every test (and
//! every property-test case) serializes on one lock.

use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;
use sjpl_obs::prof;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Every profile the sampler hands out must balance its books: each swept
/// observation opportunity ended as a folded sample, an idle observation,
/// or an accounted drop — never silently vanished.
fn assert_accounted(p: &prof::Profile) {
    assert_eq!(
        p.attempts,
        p.samples + p.idle + p.dropped,
        "unaccounted observations: {p:?}"
    );
    assert_eq!(
        p.samples,
        p.folded.iter().map(|(_, c)| c).sum::<u64>(),
        "folded counts must sum to samples: {p:?}"
    );
}

#[test]
fn thread_churn_registers_and_deregisters_stacks() {
    let _g = locked();
    sjpl_obs::reset();
    sjpl_obs::set_enabled(true);
    let baseline = prof::registered_threads();

    assert!(prof::start(2000.0), "no other sampler may be running");
    // Three waves of short-lived workers: each registers a live stack on
    // its first span, holds a two-deep path through several sampler ticks,
    // then exits — which must deregister the stack.
    for _wave in 0..3 {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _outer = sjpl_obs::span("churn.outer");
                    let _inner = sjpl_obs::span("churn.inner");
                    std::thread::sleep(Duration::from_millis(15));
                });
            }
        });
    }
    let p = prof::stop().expect("sampler was running");
    sjpl_obs::set_enabled(false);
    sjpl_obs::reset();

    assert_eq!(
        prof::registered_threads(),
        baseline,
        "exited workers must leave the registry"
    );
    assert_accounted(&p);
    assert!(p.ticks > 0, "sampler never ticked: {p:?}");
    // 12 workers × 15 ms at 2 kHz: the two-deep path cannot be missed.
    assert!(
        p.folded
            .iter()
            .any(|(path, _)| path == "churn.outer;churn.inner"),
        "churned threads never sampled: {p:?}"
    );
}

#[test]
fn zero_sample_window_is_accounted_not_fabricated() {
    let _g = locked();
    sjpl_obs::reset();
    // No spans are open anywhere, so the window must observe nothing —
    // and say so, rather than inventing samples or violating accounting.
    let p = prof::window(500.0, Duration::from_millis(40));
    assert!(p.folded.is_empty(), "no spans were open: {p:?}");
    assert_eq!(p.samples, 0);
    assert!(p.ticks > 0, "the sampler must still tick: {p:?}");
    assert_accounted(&p);
    assert!(p.to_collapsed().is_empty());
    // The empty profile still renders a parseable JSON section.
    sjpl_obs::json::Json::parse(&p.to_json()).unwrap();
    sjpl_obs::reset();
}

#[test]
fn last_profile_is_retained_until_reset() {
    let _g = locked();
    sjpl_obs::reset();
    assert!(
        prof::current_profile().is_none(),
        "reset must clear the retained profile"
    );
    assert!(prof::current_totals().is_none());
    let _ = prof::window(500.0, Duration::from_millis(10));
    let p = prof::current_profile().expect("a finished window is retained for snapshots");
    // The clone-free totals read the same retained profile.
    assert_eq!(
        prof::current_totals(),
        Some(prof::Totals {
            samples: p.samples,
            dropped: p.dropped + p.missed_ticks,
            overhead_ns: p.overhead_ns,
        })
    );
    sjpl_obs::reset();
    assert!(prof::current_profile().is_none());
    assert!(prof::current_totals().is_none());
}

#[test]
fn windows_diff_cleanly_against_a_continuous_sampler() {
    let _g = locked();
    sjpl_obs::reset();
    sjpl_obs::set_enabled(true);
    assert!(prof::start(1000.0), "no other sampler may be running");
    // Phase 1 runs span A; the window over phase 2 must contain B and
    // none of A (A closed before the window opened).
    {
        let _a = sjpl_obs::span("diff.phase_a");
        std::thread::sleep(Duration::from_millis(25));
    }
    let worker = std::thread::spawn(|| {
        let _b = sjpl_obs::span("diff.phase_b");
        std::thread::sleep(Duration::from_millis(60));
    });
    std::thread::sleep(Duration::from_millis(10));
    // hz is ignored here: the running sampler's frequency wins.
    let w = prof::window(7.0, Duration::from_millis(30));
    worker.join().unwrap();
    let total = prof::stop().expect("continuous sampler was running");
    sjpl_obs::set_enabled(false);
    sjpl_obs::reset();

    assert_eq!(w.hz, 1000.0, "window inherits the running frequency");
    assert_accounted(&total);
    assert!(
        w.folded.iter().any(|(path, _)| path == "diff.phase_b"),
        "window missed the live span: {w:?}"
    );
    assert!(
        !w.folded
            .iter()
            .any(|(path, _)| path.contains("diff.phase_a")),
        "window leaked samples from before it opened: {w:?}"
    );
    assert!(
        total.folded.iter().any(|(path, _)| path == "diff.phase_a"),
        "continuous profile lost phase A: {total:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized load — worker count, span depth, and hold times vary —
    /// never breaks the accounting invariant, and every sampled path is
    /// built from our fixed frame vocabulary with strictly increasing
    /// depth (a;a:b-style paths only, no interleavings or corruption).
    #[test]
    fn accounting_survives_randomized_load(
        workers in 1usize..5,
        depth in 1usize..5,
        hold_ms in 5u64..25,
        hz in 200.0f64..3000.0,
    ) {
        // Depth-indexed names: a sampled path must be a strict prefix
        // chain p.d1;p.d2;... — anything else means the live stack was
        // observed torn.
        static NAMES: [&str; 4] = ["p.d1", "p.d2", "p.d3", "p.d4"];
        let _g = locked();
        sjpl_obs::reset();
        sjpl_obs::set_enabled(true);
        prop_assert!(prof::start(hz), "no other sampler may be running");
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || {
                    let mut spans: Vec<sjpl_obs::Span> =
                        NAMES[..depth].iter().map(|n| sjpl_obs::span(n)).collect();
                    std::thread::sleep(Duration::from_millis(hold_ms));
                    // Close innermost-first: a Vec drops front-to-back,
                    // which would tear the outer frame out from under the
                    // still-open inner ones and fabricate torn paths.
                    while let Some(s) = spans.pop() {
                        s.close();
                    }
                });
            }
        });
        let p = prof::stop().expect("sampler was running");
        sjpl_obs::set_enabled(false);
        sjpl_obs::reset();

        prop_assert_eq!(p.attempts, p.samples + p.idle + p.dropped, "{:?}", &p);
        prop_assert_eq!(
            p.samples,
            p.folded.iter().map(|(_, c)| c).sum::<u64>(),
            "{:?}",
            &p
        );
        let expected: Vec<String> = (1..=depth)
            .map(|d| NAMES[..d].join(";"))
            .collect();
        for (path, count) in &p.folded {
            prop_assert!(
                expected.iter().any(|e| e == path),
                "torn or foreign path {:?} (count {}) in {:?}",
                path,
                count,
                &p
            );
        }
    }
}
