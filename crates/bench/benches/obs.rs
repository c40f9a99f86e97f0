//! `cxobs` benchmarks: the cost of being watched.
//!
//! Series:
//! * `obs/counter/{bump|disabled}` — one relaxed `fetch_add` vs. the
//!   no-op branch of a disabled registry.
//! * `obs/histogram/record` — a raw observation (3 relaxed `fetch_add`s).
//! * `obs/layer/{untraced|disabled}` — one `cxtrace::enter` layer span
//!   with no active trace: on a live registry (2 clock reads + record)
//!   and on a disabled one (no clock reads at all).
//! * `obs/edit/{instrumented|disabled}` — the end-to-end gated-edit path
//!   on a live vs. no-op registry: the ratio the `perf_smoke` guard pins
//!   at <5%.
//! * `obs/render` — one full exposition page off a populated registry.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxml_bench::workload;
use cxobs::Registry;
use cxstore::{EditOp, Store};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    // Primitive costs: one counter bump, one histogram observation.
    let live = Registry::new();
    let dead = Registry::disabled();
    let (c_live, c_dead) = (live.counter("cx_bench_total"), dead.counter("cx_bench_total"));
    group.bench_function("counter/bump", |b| b.iter(|| c_live.add(black_box(1))));
    group.bench_function("counter/disabled", |b| b.iter(|| c_dead.add(black_box(1))));
    let h_live = live.histogram("cx_bench_ns");
    group.bench_function("histogram/record", |b| b.iter(|| h_live.record_ns(black_box(1234))));
    let (l_live, l_dead) = (live.layer("bench.layer"), dead.layer("bench.layer"));
    group.bench_function("layer/untraced", |b| {
        b.iter(|| drop(black_box(cxtrace::enter(black_box(&l_live)))))
    });
    group.bench_function("layer/disabled", |b| {
        b.iter(|| drop(black_box(cxtrace::enter(black_box(&l_dead)))))
    });

    // The gated-edit path end to end, instrumented vs. bare.
    for (label, registry) in
        [("edit/instrumented", Registry::new()), ("edit/disabled", Registry::disabled())]
    {
        let store = Store::with_registry(Arc::new(registry));
        let id = store.insert(workload(300).ms.goddag);
        let mut k = 0usize;
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                k += 1;
                store.edit(id, EditOp::InsertText { offset: 0, text: format!("x{k} ") }).unwrap()
            });
        });
    }

    // Rendering one exposition page off a populated registry.
    let store = Store::new();
    let id = store.insert(workload(300).ms.goddag);
    for k in 0..64 {
        store.edit(id, EditOp::InsertText { offset: 0, text: format!("r{k} ") }).unwrap();
        store.query(id, "//w").unwrap();
    }
    group.bench_function("render", |b| {
        b.iter(|| black_box(store.registry().render()));
    });

    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
