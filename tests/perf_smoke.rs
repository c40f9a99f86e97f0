//! Release-mode performance smoke tests: the prevalidation hot path,
//! instrumentation overhead, and the scaling of document restore.
//!
//! Ignored by default (debug builds and loaded CI runners would flake);
//! CI runs it explicitly in release:
//!
//! ```sh
//! cargo test --release --test perf_smoke -- --ignored
//! ```
//!
//! Guards the ROADMAP "prevalidation performance cliff" fix: before the
//! bitset engine, `check_insertion` on this 200-word mixed-content host
//! took ~387 s in release; the budget here is 1 s — generous enough for
//! slow runners, and still ~400× under the old cost.

use cxobs::Registry;
use cxstore::{EditOp, Store};
use prevalid::{check_insertion, suggest_tags, PrevalidEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 200-word mixed-content host (399 child items) with a two-word range
/// in its middle.
fn host_200() -> (goddag::Goddag, goddag::HierarchyId, usize, usize) {
    let words = 200;
    let (g, h, ranges) = corpus::mixed_host(words);
    let (s, _) = ranges[words / 2];
    let (_, e) = ranges[words / 2 + 1];
    (g, h, s, e)
}

#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn check_insertion_200_words_stays_interactive() {
    let engine = PrevalidEngine::new(corpus::dtds::ling());
    let (g, h, s, e) = host_200();

    // Warm-up (page in code, fault in the allocator).
    assert!(check_insertion(&engine, &g, h, "phrase", s, e).ok);

    let t = Instant::now();
    let verdict = check_insertion(&engine, &g, h, "phrase", s, e);
    let elapsed = t.elapsed();
    assert!(verdict.ok, "{:?}", verdict.reason);
    assert!(
        elapsed < Duration::from_secs(1),
        "check_insertion on a 200-word host took {elapsed:?} (budget 1s)"
    );
}

/// Guards the cxobs instrumentation cost on the gated-edit path: a live
/// [`Registry`] (span timers + relaxed counter bumps) must stay within
/// 5% of a no-op [`Registry::disabled`] baseline, which skips the clock
/// reads entirely. Rounds are interleaved and each mode keeps its best
/// round, so a scheduler hiccup hits one round, not one mode.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn instrumented_gated_edits_stay_within_5_percent_of_noop_registry() {
    const EDITS: usize = 400;
    const ROUNDS: usize = 5;

    let run = |registry: Arc<Registry>| -> Duration {
        let store = Store::with_registry(registry);
        let mut ms =
            corpus::generate(&corpus::Params { words: 300, seed: 42, ..corpus::Params::default() });
        corpus::dtds::attach_standard(&mut ms.goddag);
        let id = store.insert(ms.goddag);
        let t = Instant::now();
        for k in 0..EDITS {
            store.edit(id, EditOp::InsertText { offset: 0, text: format!("x{k} ") }).unwrap();
        }
        t.elapsed()
    };

    // Warm-up (page in code, fault in the allocator).
    run(Arc::new(Registry::disabled()));

    let (mut bare, mut instrumented) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        bare = bare.min(run(Arc::new(Registry::disabled())));
        instrumented = instrumented.min(run(Arc::new(Registry::new())));
    }
    // A small absolute epsilon keeps the 5% relative bound meaningful
    // when both runs are only a few milliseconds.
    let budget = bare.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        instrumented <= budget,
        "instrumented gated edits took {instrumented:?} vs {bare:?} bare (budget {budget:?})"
    );
}

/// Guards the cxtrace instrumentation cost on the gated-edit path: with
/// tracing *enabled but idle* (the switch on, no trace active on the
/// thread — every span call is one relaxed load plus a thread-local
/// probe returning an inert guard) the path must stay within 5% of the
/// tracing-off baseline. Both runs use a disabled metrics registry so
/// the bound isolates cxtrace's tax from cxobs's. Rounds interleave and
/// each mode keeps its best, as above.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn tracing_enabled_but_idle_gated_edits_stay_within_5_percent() {
    const EDITS: usize = 400;
    const ROUNDS: usize = 5;

    let run = || -> Duration {
        let store = Store::with_registry(Arc::new(Registry::disabled()));
        let mut ms =
            corpus::generate(&corpus::Params { words: 300, seed: 42, ..corpus::Params::default() });
        corpus::dtds::attach_standard(&mut ms.goddag);
        let id = store.insert(ms.goddag);
        let t = Instant::now();
        for k in 0..EDITS {
            store.edit(id, EditOp::InsertText { offset: 0, text: format!("x{k} ") }).unwrap();
        }
        t.elapsed()
    };

    // Exclusive tracing state for the measurement; restored on drop.
    let _scenario = cxtrace::Scenario::setup();
    cxtrace::disable();
    run(); // Warm-up.

    let (mut off, mut idle) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        cxtrace::disable();
        off = off.min(run());
        cxtrace::enable();
        idle = idle.min(run());
    }
    cxtrace::disable();
    // Same absolute epsilon rationale as the cxobs guard above.
    let budget = off.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        idle <= budget,
        "tracing-idle gated edits took {idle:?} vs {off:?} with tracing off (budget {budget:?})"
    );
}

/// Guards the cxfault disarmed fast path: with no site armed anywhere in
/// the process, [`cxfault::fire`] is one relaxed atomic load — the WAL
/// append, fsync, and replication fetch paths cross it on every
/// operation, so it must stay in single-digit nanoseconds. The budget is
/// 25 ns per call, ~10× the expected cost, so only a real regression
/// (e.g. taking the registry lock while disarmed) trips it.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn disarmed_failpoints_stay_within_nanoseconds() {
    const CALLS: u32 = 2_000_000;
    const ROUNDS: usize = 5;

    // Exclusive registry use: guarantees nothing is armed and restores a
    // clean registry on drop.
    let _scenario = cxfault::Scenario::setup();

    let run = || -> Duration {
        let t = Instant::now();
        for _ in 0..CALLS {
            assert!(cxfault::fire(std::hint::black_box("wal.append")).is_none());
        }
        t.elapsed()
    };

    run(); // Warm-up.
    let mut best = Duration::MAX;
    for _ in 0..ROUNDS {
        best = best.min(run());
    }
    let budget = Duration::from_nanos(25).saturating_mul(CALLS);
    assert!(
        best <= budget,
        "{CALLS} disarmed fire() calls took {best:?} (budget {budget:?} = 25 ns/call)"
    );
}

#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn suggest_tags_200_words_stays_interactive() {
    let engine = PrevalidEngine::new(corpus::dtds::ling());
    let (g, h, s, e) = host_200();
    let t = Instant::now();
    let tags = suggest_tags(&engine, &g, h, s, e);
    let elapsed = t.elapsed();
    assert_eq!(tags, ["phrase"]);
    assert!(
        elapsed < Duration::from_secs(2),
        "suggest_tags on a 200-word host took {elapsed:?} (budget 2s)"
    );
}

/// Guards linear-time document restore. `DocBlob::restore` runs on every
/// served insert, WAL `DocInsert` replay, snapshot load and follower
/// apply, so its cost must follow the document's size, not its square.
/// The documents carry an edit history that left a leaf boundary inside
/// one word in 16, which no annotation implies. A 4× larger document may
/// take at most 8× as long (a restore that re-checks offsets against the
/// whole content pays ~16×). Each size keeps its best of 5 samples; the
/// bound is relative, so slow runners do not trip it.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn blob_restore_with_history_scales_linearly() {
    const SAMPLES: usize = 5;

    let blob = |words| {
        let ms = corpus::generate_with_history(&corpus::Params {
            words,
            seed: 42,
            ..corpus::Params::default()
        });
        cxpersist::DocBlob::capture(&ms.goddag)
    };
    let best = |blob: &cxpersist::DocBlob| -> Duration {
        (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(blob.restore().expect("a captured blob restores"));
                t.elapsed()
            })
            .min()
            .expect("at least one sample")
    };

    let (small, large) = (blob(1_000), blob(4_000));
    best(&small); // Warm-up.
    let (t1k, t4k) = (best(&small), best(&large));
    assert!(t4k <= t1k * 8, "restoring 4k words took {t4k:?} vs {t1k:?} at 1k words (budget 8×)");
}
