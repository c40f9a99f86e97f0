//! `cxpersist` benchmarks: what durability costs and what recovery takes.
//!
//! Series:
//! * `persist/append/{policy}` — one logged text edit per iteration under
//!   each fsync policy. The gap between `every_op` and `never` is the
//!   fsync cost itself; `every_8` sits between.
//! * `persist/snapshot/{docs}` — a full checkpoint (stand-off blobs +
//!   manifest + WAL rotation) of an N-document corpus.
//! * `persist/recover/{form}/{docs}` — cold `DurableStore::open` of an
//!   N-document corpus persisted either as a snapshot (blob decode +
//!   relabel) or as a WAL of `DocInsert` records (scan + replay).
//! * `persist/restore/{words}` — `DocBlob::restore` of one 1k/4k/16k-word
//!   document whose edit history left a leaf boundary inside one word in
//!   16 that no annotation implies. Linear restore grows ~4× per step.
//!
//! All stores live under unique directories in the system temp dir and are
//! removed when the bench finishes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxpersist::{DocBlob, DurableStore, FsyncPolicy, Options};
use cxstore::EditOp;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Unique scratch directory (cleaned by `Scratch::drop`).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!(
            "cxpersist-bench-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small manuscript corpus: `docs` documents of `words` words each.
fn corpus_docs(docs: usize, words: usize) -> Vec<goddag::Goddag> {
    (0..docs)
        .map(|i| {
            corpus::generate(&corpus::Params {
                words,
                seed: 1000 + i as u64,
                ..corpus::Params::default()
            })
            .goddag
        })
        .collect()
}

fn bench_persist(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    // Append throughput per fsync policy.
    for (label, policy) in [
        ("every_op", FsyncPolicy::EveryOp),
        ("every_8", FsyncPolicy::EveryN(8)),
        ("never", FsyncPolicy::Never),
    ] {
        let scratch = Scratch::new(label);
        let store = DurableStore::open_with(&scratch.0, Options { fsync: policy }).unwrap();
        let id = store.insert(corpus_docs(1, 300).pop().unwrap()).unwrap();
        group.bench_function(BenchmarkId::new("append", label), |b| {
            b.iter(|| {
                store
                    .edit(id, black_box(EditOp::InsertText { offset: 0, text: "x ".into() }))
                    .unwrap()
            });
        });
    }

    // Snapshot write: checkpoint a 50-doc corpus.
    for &docs in &[10usize, 50] {
        let scratch = Scratch::new("snap");
        let store =
            DurableStore::open_with(&scratch.0, Options { fsync: FsyncPolicy::Never }).unwrap();
        for g in corpus_docs(docs, 200) {
            store.insert(g).unwrap();
        }
        group.bench_function(BenchmarkId::new("snapshot", docs), |b| {
            b.iter(|| store.checkpoint().unwrap());
        });
    }

    // Cold recovery from a snapshot.
    for &docs in &[10usize, 50] {
        let scratch = Scratch::new("recover-snap");
        {
            let store =
                DurableStore::open_with(&scratch.0, Options { fsync: FsyncPolicy::Never }).unwrap();
            for g in corpus_docs(docs, 200) {
                store.insert(g).unwrap();
            }
            store.checkpoint().unwrap();
        }
        group.bench_function(BenchmarkId::new("recover/snapshot", docs), |b| {
            b.iter(|| {
                let s = DurableStore::open(black_box(&scratch.0)).unwrap();
                assert_eq!(s.store().len(), docs);
                s
            });
        });
    }

    // Cold recovery from a WAL of DocInsert records (no checkpoint).
    for &docs in &[10usize, 50] {
        let scratch = Scratch::new("recover-wal");
        {
            let store =
                DurableStore::open_with(&scratch.0, Options { fsync: FsyncPolicy::Never }).unwrap();
            for g in corpus_docs(docs, 200) {
                store.insert(g).unwrap();
            }
        }
        group.bench_function(BenchmarkId::new("recover/wal", docs), |b| {
            b.iter(|| {
                let s = DurableStore::open(black_box(&scratch.0)).unwrap();
                assert_eq!(s.store().len(), docs);
                s
            });
        });
    }

    // One document's restore across sizes.
    for &words in &[1_000usize, 4_000, 16_000] {
        let ms = corpus::generate_with_history(&corpus::Params {
            words,
            seed: 7,
            ..corpus::Params::default()
        });
        let blob = DocBlob::capture(&ms.goddag);
        group.bench_function(BenchmarkId::new("restore", words), |b| {
            b.iter(|| black_box(&blob).restore().unwrap());
        });
    }

    group.finish();
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
