//! Experiment B3 + ablation A2: editing with and without prevalidation.
//!
//! Series regenerated:
//! * `edit/insert_gated/{words}` vs `edit/insert_ungated/{words}` — one
//!   markup insertion (plus undo, keeping the document fixed) with the
//!   prevalidation gate on/off: the gate's overhead must stay interactive;
//! * `edit/suggest/{words}` — xTagger's tag-suggestion list for a selection;
//! * `edit/prevalid_check/{words}` — the bare `check_insertion` call;
//! * `span_cache/read_cached/{words}` vs `span_cache/compute_walk/{words}` —
//!   A2: reading the maintained span cache vs recomputing spans by walking
//!   to the first/last leaf; plus `span_cache/renumber_on_edit/{words}`, the
//!   price the cache adds to every edit (a full renumber pass).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxml_bench::{workload, SIZES};
use goddag::{EditOp, Goddag, NodeId, Span};
use prevalid::PrevalidEngine;
use std::hint::black_box;
use std::time::Duration;
use xtagger::Session;

fn session_for(words: usize) -> (Session, goddag::HierarchyId, (usize, usize)) {
    let w = workload(words);
    let mut g = sacx::parse_distributed(&w.distributed).unwrap();
    corpus::dtds::attach_standard(&mut g);
    let ling = g.hierarchy_by_name("ling").unwrap();
    // A two-word selection inside the first sentence (a legal <phrase>).
    let (s, _) = w.ms.word_ranges[0];
    let (_, e) = w.ms.word_ranges[1];
    (Session::new(g), ling, (s, e))
}

/// A `<phrase>` over `start..end` of `ling`.
fn phrase(start: usize, end: usize) -> EditOp {
    EditOp::InsertElement {
        hierarchy: "ling".into(),
        tag: "phrase".into(),
        attrs: vec![],
        start,
        end,
    }
}

fn bench_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("edit");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    for &words in SIZES {
        let (mut session, _, (s, e)) = session_for(words);
        session.set_prevalidation(true);
        group.bench_function(BenchmarkId::new("insert_gated", words), |b| {
            b.iter(|| {
                session.apply(phrase(s, e)).unwrap();
                session.undo().unwrap();
            });
        });

        let (mut session, _, (s, e)) = session_for(words);
        session.set_prevalidation(false);
        group.bench_function(BenchmarkId::new("insert_ungated", words), |b| {
            b.iter(|| {
                session.apply(phrase(s, e)).unwrap();
                session.undo().unwrap();
            });
        });

        let (session, ling, (s, e)) = session_for(words);
        group.bench_function(BenchmarkId::new("suggest", words), |b| {
            b.iter(|| session.suggest(ling, black_box(s), black_box(e)));
        });

        let (session, ling, (s, e)) = session_for(words);
        let engine = PrevalidEngine::new(corpus::dtds::ling());
        group.bench_function(BenchmarkId::new("prevalid_check", words), |b| {
            b.iter(|| {
                prevalid::check_insertion(
                    &engine,
                    session.goddag(),
                    ling,
                    "phrase",
                    black_box(s),
                    black_box(e),
                )
            });
        });
    }
    group.finish();

    // A2: span cache ablation.
    let mut group = c.benchmark_group("span_cache");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &words in SIZES {
        let w = workload(words);
        let g = &w.ms.goddag;
        let elements: Vec<NodeId> = g.elements().collect();

        group.bench_function(BenchmarkId::new("read_cached", words), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &e in &elements {
                    let s = g.span(e);
                    acc += (s.end - s.start) as u64;
                }
                acc
            });
        });

        group.bench_function(BenchmarkId::new("compute_walk", words), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &e in &elements {
                    let s = compute_span_by_walking(g, e);
                    acc += (s.end - s.start) as u64;
                }
                acc
            });
        });

        // The cost side of the cache: one edit triggers a renumber.
        let mut editable = g.clone();
        let (s0, e0) = w.ms.word_ranges[0];
        let ling = editable.hierarchy_by_name("ling").unwrap();
        group.bench_function(BenchmarkId::new("renumber_on_edit", words), |b| {
            b.iter(|| {
                let id = editable
                    .insert_element(ling, xmlcore::QName::parse("seg").unwrap(), vec![], s0, e0)
                    .unwrap();
                editable.remove_element(id).unwrap();
            });
        });
    }
    group.finish();
}

/// What `span()` would cost without the cache: walk to the first and last
/// leaf of the element.
fn compute_span_by_walking(g: &Goddag, e: NodeId) -> Span {
    let mut first: Option<u32> = None;
    let mut last: Option<u32> = None;
    let mut stack = vec![e];
    while let Some(n) = stack.pop() {
        if g.is_leaf(n) {
            let s = g.span(n);
            first = Some(first.map_or(s.start, |f: u32| f.min(s.start)));
            last = Some(last.map_or(s.end, |l: u32| l.max(s.end)));
            continue;
        }
        if let Some(h) = g.hierarchy_of(n) {
            for &c in g.children_in(n, h) {
                stack.push(c);
            }
        }
    }
    match (first, last) {
        (Some(f), Some(l)) => Span::new(f, l),
        _ => Span::empty_at(0),
    }
}

criterion_group!(benches, bench_edit);
criterion_main!(benches);
