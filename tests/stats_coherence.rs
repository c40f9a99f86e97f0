//! Coherence of the observability counters under concurrency and
//! composition:
//!
//! * concurrent writers lose no counter bumps, and a sampler racing them
//!   only ever sees the totals move forward;
//! * [`StoreStats::absorb`] composes shard summaries the way a cluster
//!   needs: counters and totals sum, `repl_lag` takes the worst shard.

use corpus::{dtds, generate, Params};
use cxstore::{EditOp, Store, StoreStats};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn manuscript(words: usize, seed: u64) -> goddag::Goddag {
    let mut ms = generate(&Params { words, seed, ..Params::default() });
    dtds::attach_standard(&mut ms.goddag);
    ms.goddag
}

#[test]
fn concurrent_writers_lose_no_bumps_and_samplers_see_monotone_totals() {
    const WRITERS: usize = 4;
    const EDITS: usize = 200;

    let store = Arc::new(Store::new());
    let docs: Vec<_> = (0..WRITERS).map(|w| store.insert(manuscript(60, w as u64))).collect();
    let edit_hist = store.registry().histogram("cx_store_edit_ns");
    let done = Arc::new(AtomicBool::new(false));

    // The sampler races the writers, snapshotting stats and the edit
    // histogram: monotone counters may only move forward, and the
    // histogram's count/sum pair must never regress either.
    let sampler = {
        let (store, done) = (Arc::clone(&store), Arc::clone(&done));
        let edit_hist = Arc::clone(&edit_hist);
        std::thread::spawn(move || {
            let mut last_edits = 0u64;
            let mut last_epochs = 0u64;
            let (mut last_count, mut last_sum) = (0u64, 0u64);
            let mut samples = 0u64;
            while !done.load(Ordering::Acquire) {
                let s = store.stats();
                assert!(s.edits >= last_edits, "edit counter went backwards");
                assert!(s.epochs >= last_epochs, "epoch total went backwards");
                (last_edits, last_epochs) = (s.edits, s.epochs);
                let h = edit_hist.snapshot();
                assert!(h.count >= last_count, "histogram count went backwards");
                assert!(h.sum_ns >= last_sum, "histogram sum went backwards");
                (last_count, last_sum) = (h.count, h.sum_ns);
                samples += 1;
            }
            samples
        })
    };

    std::thread::scope(|scope| {
        for (w, &doc) in docs.iter().enumerate() {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for k in 0..EDITS {
                    let op = EditOp::InsertText { offset: 0, text: format!("w{w}k{k} ") };
                    store.edit(doc, op).unwrap();
                }
            });
        }
    });
    done.store(true, Ordering::Release);
    let samples = sampler.join().unwrap();
    assert!(samples > 0, "the sampler never ran");

    // No bump was lost anywhere: the counter, the histogram, and the
    // per-document epochs all agree on the exact edit total.
    let total = (WRITERS * EDITS) as u64;
    let s = store.stats();
    assert_eq!(s.edits, total);
    assert_eq!(s.edits_rejected, 0);
    assert!(s.epochs >= total, "every applied edit advanced an epoch");
    let h = edit_hist.snapshot();
    assert_eq!(h.count, total);
    assert_eq!(h.buckets.iter().sum::<u64>(), total, "every edit landed in a bucket");
}

/// An arbitrary stats summary over the fields `absorb` treats
/// differently: summed counters, summed gauges, and the max-folded lag.
fn stats_strategy() -> impl Strategy<Value = StoreStats> {
    (
        (0usize..1000, 0usize..1000, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..1_000_000, -100i64..100, -100i64..100),
    )
        .prop_map(
            |((docs, shards, edits, queries), (appends, hits, misses, moved), (lag, wif, ww))| {
                StoreStats {
                    docs,
                    cluster_shards: shards,
                    edits,
                    queries,
                    wal_appends: appends,
                    tail_cache_hits: hits,
                    tail_cache_misses: misses,
                    docs_moved: moved,
                    repl_lag: lag,
                    writes_in_flight: wif,
                    writers_waiting: ww,
                    ..StoreStats::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Absorbing N shard summaries sums every counter, total and gauge —
    /// but folds `repl_lag` with max: a cluster's lag is its worst
    /// shard's, not the sum of all followers' backlogs.
    #[test]
    fn absorb_sums_counters_and_takes_worst_lag(
        shards in proptest::collection::vec(stats_strategy(), 1..8)
    ) {
        let mut agg = StoreStats::default();
        for s in &shards {
            agg.absorb(s);
        }
        prop_assert_eq!(agg.docs, shards.iter().map(|s| s.docs).sum::<usize>());
        prop_assert_eq!(agg.cluster_shards, shards.iter().map(|s| s.cluster_shards).sum::<usize>());
        prop_assert_eq!(agg.edits, shards.iter().map(|s| s.edits).sum::<u64>());
        prop_assert_eq!(agg.queries, shards.iter().map(|s| s.queries).sum::<u64>());
        prop_assert_eq!(agg.wal_appends, shards.iter().map(|s| s.wal_appends).sum::<u64>());
        prop_assert_eq!(agg.tail_cache_hits, shards.iter().map(|s| s.tail_cache_hits).sum::<u64>());
        prop_assert_eq!(
            agg.tail_cache_misses,
            shards.iter().map(|s| s.tail_cache_misses).sum::<u64>()
        );
        prop_assert_eq!(agg.docs_moved, shards.iter().map(|s| s.docs_moved).sum::<u64>());
        prop_assert_eq!(
            agg.writes_in_flight,
            shards.iter().map(|s| s.writes_in_flight).sum::<i64>()
        );
        prop_assert_eq!(agg.writers_waiting, shards.iter().map(|s| s.writers_waiting).sum::<i64>());
        prop_assert_eq!(agg.repl_lag, shards.iter().map(|s| s.repl_lag).max().unwrap_or(0));
    }

    /// Absorb is order-insensitive on the max-folded field too: the worst
    /// lag wins no matter where in the fold it sits.
    #[test]
    fn absorb_lag_is_order_insensitive(
        shards in proptest::collection::vec(stats_strategy(), 1..8)
    ) {
        let mut fwd = StoreStats::default();
        for s in &shards {
            fwd.absorb(s);
        }
        let mut rev = StoreStats::default();
        for s in shards.iter().rev() {
            rev.absorb(s);
        }
        prop_assert_eq!(fwd, rev);
    }
}
