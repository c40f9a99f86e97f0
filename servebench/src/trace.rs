//! The traced run: per-layer metrics from the benchmark's own spans.
//!
//! Every op of the script goes through the served stack (the root span
//! `op.<verb>`) and is then replayed one rung down a ladder of replicas
//! that hold the same documents and see the same op stream, so node ids
//! and epochs line up: an in-process `Cluster`, a lone `DurableStore`, an
//! in-memory `Store`, and the kernels (prevalidation check, then the GODDAG
//! edit) on a plain copy of each document kept in step with the rest. A
//! layer's self time is its rung minus the rung below. Suites on the
//! workload's own documents (routed queries where the script has none,
//! fan-outs, kernels) and size sweeps at fixed sizes cover the rest.

use crate::inputs::{self, Edit, Inputs, Op, Rng, Step, QUERIES};
use crate::run::{self, blocks, pair_boundary, Cursor};
use crate::stack::{self, Result, Served};
use crate::stats::{loglog_slope, mean, median, ms, us, Report};
use cxml::cxcluster::Cluster;
use cxml::cxpersist::{DocBlob, DurableStore};
use cxml::cxstore::{DocId, EditOp, Store, StoreStats};
use cxml::expath::{Evaluator, OverlapIndex};
use cxml::goddag::{Goddag, GoddagError, NodeId};
use cxml::prevalid::{InsertionContext, PrevalidEngine};
use cxml::xmlcore::{Attribute, QName};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span: `op.<verb>` roots, one child per rung below.
struct SpanRec {
    trace: u64,
    parent: Option<&'static str>,
    name: &'static str,
    dur: Duration,
}

/// The rung replicas, and the per-op self times derived from them.
struct Ladder {
    cluster: Cluster,
    durable: DurableStore,
    store: Store,
    /// The kernel rung: each document as a plain `Goddag`.
    docs: Vec<Goddag>,
    /// Per rung (cluster, durable, store): id and next guard.
    ids: [Vec<DocId>; 3],
    epochs: [Vec<u64>; 3],
    /// Per rung (cluster, durable, store, kernel): the last insert.
    inserted: [Vec<Option<NodeId>>; 4],
    engines: HashMap<(usize, &'static str), PrevalidEngine>,
    /// Off during the warm-up pass: replicas apply the ops, nothing is kept.
    recording: bool,
    spans: Vec<SpanRec>,
    samples: HashMap<&'static str, Vec<f64>>,
    errors: Vec<String>,
}

impl Ladder {
    fn new(inputs: &Inputs, dir: &Path) -> Result<Ladder> {
        let cluster = Cluster::open(stack::shard_dirs(&dir.join("cluster")), stack::options())?;
        let durable = DurableStore::open_with(dir.join("durable"), stack::options())?;
        let store = Store::new();
        let mut ids: [Vec<DocId>; 3] = Default::default();
        let mut docs = Vec::new();
        for doc in &inputs.docs {
            let g = doc.parse();
            ids[0].push(cluster.insert_named(&doc.name, g.clone())?);
            ids[1].push(durable.insert_named(&doc.name, g.clone())?);
            ids[2].push(store.insert_named(&doc.name, g.clone()));
            docs.push(g);
        }
        let epochs = [0, 1, 2].map(|_| inputs.script.epochs.clone());
        let inserted = [0, 1, 2, 3].map(|_| vec![None; inputs.docs.len()]);
        Ok(Ladder {
            cluster,
            durable,
            store,
            docs,
            ids,
            epochs,
            inserted,
            engines: HashMap::new(),
            recording: true,
            spans: Vec::new(),
            samples: HashMap::new(),
            errors: Vec::new(),
        })
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        if self.recording {
            self.samples.entry(name).or_default().push(v);
        }
    }

    fn span(
        &mut self,
        trace: u64,
        parent: Option<&'static str>,
        name: &'static str,
        dur: Duration,
    ) {
        if self.recording {
            self.spans.push(SpanRec { trace, parent, name, dur });
        }
    }

    /// Record a rung's outcome for an edit: its next guard and last insert,
    /// or an error.
    fn landed(
        &mut self,
        rung: usize,
        doc: usize,
        edit: &Edit,
        out: std::result::Result<cxml::cxstore::EditOutcome, String>,
    ) {
        match out {
            Ok(o) => {
                self.epochs[rung][doc] = o.epoch;
                if matches!(edit, Edit::Insert { .. }) {
                    self.inserted[rung][doc] = o.node;
                }
            }
            Err(e) => self.errors.push(format!("ladder rung {rung}, doc {doc}: {e}")),
        }
    }

    fn replay(&mut self, trace: u64, step: &Step, router: Duration) {
        match &step.op {
            Op::Edit { doc, edit } => self.replay_edit(trace, *doc, edit, router),
            Op::Query { doc, q } => {
                let expr = QUERIES[*q].1;
                self.span(trace, None, "op.query", router);
                let t = Instant::now();
                let a = self.cluster.query(self.ids[0][*doc], expr).map_err(|e| e.to_string());
                let cl = t.elapsed();
                let t = Instant::now();
                let b = self.store.query(self.ids[2][*doc], expr).map_err(|e| e.to_string());
                let st = t.elapsed();
                if a.as_ref() != Ok(&step.expect[0]) || b.as_ref() != Ok(&step.expect[0]) {
                    self.errors.push(format!("ladder {} on doc {doc} differs", QUERIES[*q].0));
                }
                self.span(trace, Some("op.query"), "cxcluster.query", cl);
                self.span(trace, Some("cxcluster.query"), "cxstore.query", st);
                self.sample("serve_query_self", us(router) - us(cl));
            }
            Op::Fanout { q } => {
                self.span(trace, None, "op.fanout", router);
                let t = Instant::now();
                let hits = self.cluster.query_all(QUERIES[*q].1);
                let cl = t.elapsed();
                if let Err(e) = hits {
                    self.errors.push(format!("ladder fan-out: {e}"));
                }
                self.span(trace, Some("op.fanout"), "cxcluster.query_all", cl);
            }
        }
    }

    fn replay_edit(&mut self, trace: u64, doc: usize, edit: &Edit, router: Duration) {
        self.span(trace, None, "op.edit", router);
        let op = edit.to_op(self.inserted[0][doc]);
        let t = Instant::now();
        let out = self.cluster.edit_guarded(self.ids[0][doc], self.epochs[0][doc], op);
        let cl = t.elapsed();
        self.landed(0, doc, edit, out.map_err(|e| e.to_string()));

        let op = edit.to_op(self.inserted[1][doc]);
        let t = Instant::now();
        let out = self.durable.edit_guarded(self.ids[1][doc], self.epochs[1][doc], op);
        let du = t.elapsed();
        self.landed(1, doc, edit, out.map_err(|e| e.to_string()));

        let op = edit.to_op(self.inserted[3][doc]);
        let (check, kernel) = self.kernels(doc, edit, &op);

        let op = edit.to_op(self.inserted[2][doc]);
        let t = Instant::now();
        let out = self.store.edit(self.ids[2][doc], op);
        let st = t.elapsed();
        self.landed(2, doc, edit, out.map_err(|e| e.to_string()));

        self.span(trace, Some("op.edit"), "cxcluster.edit_guarded", cl);
        self.span(trace, Some("cxcluster.edit_guarded"), "cxpersist.edit_guarded", du);
        self.span(trace, Some("cxpersist.edit_guarded"), "cxstore.edit", st);
        if let Some(c) = check {
            self.span(trace, Some("cxstore.edit"), "prevalid.check", c);
        }
        self.span(trace, Some("cxstore.edit"), "goddag.edit", kernel);
        // Self times are differences of separately timed rungs, so one
        // below the clock's and the host's resolution can come out negative.
        self.sample("serve_edit_self", us(router) - us(cl));
        self.sample("cluster_edit_self", us(cl) - us(du));
        self.sample("wal_self", us(du) - us(st));
        self.sample("store_edit_self", us(st) - us(check.unwrap_or_default() + kernel));
    }

    /// Time the prevalidation check (inserts only) and the GODDAG edit on
    /// the kernel rung's copy of the document.
    fn kernels(&mut self, doc: usize, edit: &Edit, op: &EditOp) -> (Option<Duration>, Duration) {
        let g = &mut self.docs[doc];
        let mut check = None;
        if let Edit::Insert { hierarchy, tag, start, end, root } = edit {
            let h = g.hierarchy_by_name(hierarchy).expect("script hierarchy exists");
            let engine = self.engines.entry((doc, hierarchy)).or_insert_with(|| {
                let dtd = g.hierarchy(h).expect("live").dtd.clone();
                PrevalidEngine::new(dtd.expect("standard DTDs are attached"))
            });
            let (took, ok) = check_time(engine, g, h, *start, *end, tag);
            if !ok {
                self.errors.push(format!("kernel check refused a script insert on doc {doc}"));
            }
            let host = g.host_in(h, cxml::goddag::Span::new(*start as u32, *end as u32));
            let items = g.children_in(host, h).len();
            let name = if *root { "check_root" } else { "check_nested" };
            self.sample(name, us(took));
            if *root {
                self.sample("host_items_root", items as f64);
            }
            check = Some(took);
        }
        let g = &mut self.docs[doc];
        let (took, r) = time(|| apply(g, op));
        match r {
            Ok(node) => {
                if matches!(edit, Edit::Insert { .. }) {
                    self.inserted[3][doc] = node;
                }
            }
            Err(e) => self.errors.push(format!("kernel edit on doc {doc}: {e}")),
        }
        (check, took)
    }
}

/// The GODDAG half of `Store::apply`, on a plain document: the element an
/// insert created, if any.
fn apply(g: &mut Goddag, op: &EditOp) -> std::result::Result<Option<NodeId>, GoddagError> {
    match op {
        EditOp::InsertElement { hierarchy, tag, attrs, start, end } => {
            let h = g.hierarchy_by_name(hierarchy).expect("script hierarchy exists");
            let attrs = attrs.iter().map(|(n, v)| Attribute::new(n.as_str(), v.as_str())).collect();
            let name = QName::parse(tag).expect("script tags are valid names");
            g.insert_element(h, name, attrs, *start, *end).map(Some)
        }
        EditOp::RemoveElement(n) => g.remove_element(*n).map(|_| None),
        EditOp::InsertText { offset, text } => g.insert_text(*offset, text).map(|_| None),
        EditOp::DeleteText { start, end } => g.delete_text(*start, *end).map(|_| None),
        EditOp::SetAttr { node, name, value } => g.set_attr(*node, name, value).map(|_| None),
        EditOp::RemoveAttr { node, name } => g.remove_attr(*node, name).map(|_| None),
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (t.elapsed(), r)
}

/// Median of `reps` timings of `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let v: Vec<f64> = (0..reps).map(|_| f().as_secs_f64()).collect();
    Duration::from_secs_f64(median(&v))
}

/// Kernel timings on (up to four of) the workload's own documents.
#[derive(Default)]
struct Kernels {
    parse_ms: Vec<f64>,
    import_ms: Vec<f64>,
    capture_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    index_us: Vec<f64>,
    eval_us: [Vec<f64>; 8],
    nodes: Vec<f64>,
    check_nested_us: Vec<f64>,
    check_root_us: Vec<f64>,
    root_items: Vec<f64>,
    insert_element_us: Vec<f64>,
    insert_text_us: Vec<f64>,
}

/// Root-level checks above this size take seconds each (the gate is
/// superlinear in the host's children), so larger documents take them
/// from the sweep.
const ROOT_CHECK_MAX_WORDS: usize = 1_000;

fn kernels(inputs: &Inputs, seed: u64) -> Kernels {
    let mut k = Kernels::default();
    let mut rng = Rng::new(seed ^ 0x4B45_524E);
    let (_, words) = inputs.workload.corpus();
    // Restore is superlinear: two 4k-word documents cost as much as the
    // rest of the suite.
    let sample = if words > ROOT_CHECK_MAX_WORDS { 2 } else { 4 };
    for doc in inputs.docs.iter().take(sample) {
        let (took, g) = time(|| doc.parse());
        k.parse_ms.push(ms(took));
        let text = cxml::sacx::export_standoff(&g);
        k.import_ms.push(ms(time(|| cxml::sacx::import_standoff(&text)).0));
        let (took, blob) = time(|| DocBlob::capture(&g));
        k.capture_ms.push(ms(took));
        k.restore_ms.push(ms(time(|| blob.restore().expect("captured blob restores")).0));
        k.index_us.push(us(median_of(3, || time(|| OverlapIndex::build(&g)).0)));
        let ev = Evaluator::with_index(&g);
        for (q, (_, expr)) in QUERIES.iter().enumerate() {
            let n = ev.select(expr).expect("query evaluates").len();
            k.nodes.push(n as f64);
            k.eval_us[q].push(us(median_of(3, || time(|| ev.select(expr)).0)));
        }
        let ling = g.hierarchy_by_name("ling").expect("ling");
        let edit = g.hierarchy_by_name("edit").expect("edit");
        let engine =
            |h| PrevalidEngine::new(g.hierarchy(h).expect("live").dtd.clone().expect("dtd"));
        let ling_engine = engine(ling);
        for _ in 0..3 {
            let pick = rng.below(usize::MAX);
            let Some((s, e)) = inputs::two_words(&g, pick) else { continue };
            k.check_nested_us.push(us(check_time(&ling_engine, &g, ling, s, e, "phrase").0));
            let mut c = g.clone();
            let name = QName::parse("phrase").expect("valid name");
            k.insert_element_us.push(us(time(|| c.insert_element(ling, name, vec![], s, e)).0));
            let mut c = g.clone();
            k.insert_text_us.push(us(time(|| c.insert_text(s, "ond ")).0));
        }
        if words <= ROOT_CHECK_MAX_WORDS {
            if let Some((s, e)) = inputs::root_word(&g, rng.below(usize::MAX)) {
                k.check_root_us.push(us(check_time(&engine(edit), &g, edit, s, e, "add").0));
                k.root_items.push(g.children_in(g.root(), edit).len() as f64);
            }
        }
    }
    k
}

fn check_time(
    engine: &PrevalidEngine,
    g: &Goddag,
    h: cxml::goddag::HierarchyId,
    start: usize,
    end: usize,
    tag: &str,
) -> (Duration, bool) {
    time(|| match InsertionContext::new(engine, g, h, start, end) {
        Ok(ctx) => ctx.check(tag).ok,
        Err(v) => v.ok,
    })
}

/// `(words, value)` points of each size sweep.
struct Sweeps {
    check_root_us: Vec<(f64, f64)>,
    root_items_500: f64,
    restore_ms: Vec<(f64, f64)>,
    q5_us: Vec<(f64, f64)>,
    insert_text_us: Vec<(f64, f64)>,
}

/// In-process size sweeps. The 16k-word point is measured here because a
/// 16k-word document does not ingest over the wire within the server's
/// default 5 s deadline.
fn sweeps(seed: u64) -> Sweeps {
    let mut rng = Rng::new(seed ^ 0x0053_5745_4550);
    let mut s = Sweeps {
        check_root_us: Vec::new(),
        root_items_500: 0.0,
        restore_ms: Vec::new(),
        q5_us: Vec::new(),
        insert_text_us: Vec::new(),
    };
    for (words, reps) in [(250, 7), (500, 5), (1_000, 3)] {
        let g = inputs::manuscript(words, seed.wrapping_add(words as u64));
        let edit = g.hierarchy_by_name("edit").expect("edit");
        let engine =
            PrevalidEngine::new(g.hierarchy(edit).expect("live").dtd.clone().expect("dtd"));
        let took = median_of(reps, || {
            let (st, en) = inputs::root_word(&g, rng.below(usize::MAX)).expect("a free word");
            check_time(&engine, &g, edit, st, en, "add").0
        });
        s.check_root_us.push((words as f64, us(took)));
        if words == 500 {
            s.root_items_500 = g.children_in(g.root(), edit).len() as f64;
        }
    }
    for (words, reps) in [(1_000, 3), (4_000, 1), (16_000, 1)] {
        let g = inputs::manuscript(words, seed.wrapping_add(words as u64));
        let blob = DocBlob::capture(&g);
        let took = median_of(reps, || time(|| blob.restore().expect("captured blob restores")).0);
        s.restore_ms.push((words as f64, ms(took)));
        let ev = Evaluator::with_index(&g);
        let q5 = QUERIES[4].1;
        ev.select(q5).expect("Q5 evaluates");
        s.q5_us.push((words as f64, us(median_of(reps + 2, || time(|| ev.select(q5)).0))));
        let ling = g.hierarchy_by_name("ling").expect("ling");
        let w = inputs::named(&g, ling, "w");
        let took = median_of(reps + 2, || {
            let off = g.char_range(w[rng.below(w.len())]).0;
            let mut c = g.clone();
            time(|| c.insert_text(off, "ond ")).0
        });
        s.insert_text_us.push((words as f64, us(took)));
    }
    s
}

/// Add the counters that moved from `before` to `after` into `sum`.
fn accumulate(sum: &mut StoreStats, after: &StoreStats, before: &StoreStats) {
    sum.index_hits += after.index_hits - before.index_hits;
    sum.index_builds += after.index_builds - before.index_builds;
    sum.query_cache_hits += after.query_cache_hits - before.query_cache_hits;
    sum.query_cache_misses += after.query_cache_misses - before.query_cache_misses;
    sum.edits += after.edits - before.edits;
    sum.edits_rejected += after.edits_rejected - before.edits_rejected;
    sum.wal_bytes += after.wal_bytes - before.wal_bytes;
}

/// Compared blocks of the ladder pass.
const BLOCKS: usize = 5;
/// Timed repeats of each fan-out side and of each suite query.
const SUITE_REPS: usize = 9;

/// `Cluster::query_all` against the sum of each shard's
/// `Store::query_all_serial`, on the ladder's cluster. Both sides are
/// warmed by one untimed call, and the order alternates between repeats,
/// so neither side inherits the indexes the other just built. Returns the
/// parallel times and the serial ÷ parallel ratios.
fn fanout_suite(ladder: &mut Ladder) -> (Vec<f64>, Vec<f64>) {
    let expr = QUERIES[inputs::FANOUT_QUERY].1;
    let cluster = &ladder.cluster;
    let parallel = || time(|| cluster.query_all(expr).map(drop).map_err(|e| e.to_string()));
    let serial = || {
        time(|| {
            cluster.shards().iter().try_for_each(|s| {
                s.store().query_all_serial(expr).map(drop).map_err(|e| e.to_string())
            })
        })
    };
    let mut failures = Vec::new();
    let mut check = |r: std::result::Result<(), String>| {
        if let Err(e) = r {
            failures.push(format!("fan-out suite: {e}"));
        }
    };
    check(parallel().1);
    check(serial().1);
    let (mut parallel_ms, mut ratios) = (Vec::new(), Vec::new());
    for i in 0..SUITE_REPS {
        let ((p, p_ok), (s, s_ok)) = if i % 2 == 0 {
            let p = parallel();
            (p, serial())
        } else {
            let s = serial();
            (parallel(), s)
        };
        check(p_ok);
        check(s_ok);
        parallel_ms.push(ms(p));
        ratios.push(s.as_secs_f64() / p.as_secs_f64());
    }
    ladder.errors.extend(failures);
    (parallel_ms, ratios)
}

/// Routed queries (Q1–Q8 on up to four documents) against the same query
/// on the ladder's `Cluster`, for `cxserve.query_self_us` on a script that
/// asks none. Each pair is warmed once untimed and then timed in
/// alternating order; every answer must equal the ladder `Store`'s.
fn query_suite(served: &Served, ladder: &mut Ladder) {
    let docs = served.ids.len().min(4);
    for doc in 0..docs {
        for (q, (name, expr)) in QUERIES.iter().enumerate() {
            let want = ladder.store.query(ladder.ids[2][doc], expr).map_err(|e| e.to_string());
            let routed =
                || time(|| served.router.query(served.ids[doc], expr).map_err(|e| e.to_string()));
            let (cluster, id) = (&ladder.cluster, ladder.ids[0][doc]);
            let local = || time(|| cluster.query(id, expr).map_err(|e| e.to_string()));
            let mut ok = routed().1 == want && local().1 == want;
            let mut selfs = Vec::new();
            for i in 0..SUITE_REPS {
                let ((r, ra), (c, ca)) = if (i + q) % 2 == 0 {
                    let r = routed();
                    (r, local())
                } else {
                    let c = local();
                    (routed(), c)
                };
                ok &= ra == want && ca == want;
                selfs.push(us(r) - us(c));
            }
            if !ok {
                ladder.errors.push(format!("query suite {name} on doc {doc} differs"));
            }
            ladder.sample("serve_query_self", median(&selfs));
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

pub fn traced(inputs: &Inputs, dir: &Path, seed: u64) -> Result<crate::Outcome> {
    let served = Served::setup(inputs, &dir.join("served"))?;
    let mut ladder = Ladder::new(inputs, &dir.join("ladder"))?;
    let steps = &inputs.script.steps;

    // The ladder pass covers the first third of the script. The cut falls
    // between pairs, so every document is back where it started. A
    // warm-up pass over it, down the ladder and recorded nowhere, builds
    // the lazy indexes, compiled queries and gate engines of every replica
    // before any pass that is compared.
    let cut = pair_boundary(steps, steps.len() / 3);
    let mut cursor = Cursor::new(inputs);
    ladder.recording = false;
    let warm =
        run::run(&served, inputs, &mut cursor, 0..cut, |step, took| ladder.replay(0, step, took));
    ladder.recording = true;

    // Then block by block, in an order that rotates from block to block:
    // the block untraced, the block down the ladder (each router call the
    // root span, its replay the child spans), and the block with the
    // program's own tracing on. Each overhead ratio is the median of its
    // per-block ratios, so a drift of the host over the run cancels.
    let mut passes = vec![warm];
    let (mut bench_ratio, mut cxtrace_ratio) = (Vec::new(), Vec::new());
    let mut during = StoreStats::default();
    let mut trace_id = 0u64;
    for (b, range) in blocks(steps, cut, BLOCKS).into_iter().enumerate() {
        let mut timed: [Option<run::Pass>; 3] = Default::default();
        for k in 0..3 {
            let which = (b + k) % 3;
            let pass = match which {
                0 => run::run(&served, inputs, &mut cursor, range.clone(), |_, _| {}),
                1 => {
                    let before = served.cluster.stats();
                    let pass =
                        run::run(&served, inputs, &mut cursor, range.clone(), |step, took| {
                            trace_id += 1;
                            ladder.replay(trace_id, step, took);
                        });
                    accumulate(&mut during, &served.cluster.stats(), &before);
                    pass
                }
                _ => {
                    cxml::cxtrace::enable();
                    let pass = run::run(&served, inputs, &mut cursor, range.clone(), |_, _| {});
                    cxml::cxtrace::disable();
                    cxml::cxtrace::clear();
                    pass
                }
            };
            timed[which] = Some(pass);
        }
        let [off, laddered, on] = timed.map(|p| p.expect("each block runs all three passes"));
        bench_ratio.push(laddered.wall.as_secs_f64() / off.wall.as_secs_f64());
        cxtrace_ratio.push(on.in_calls.as_secs_f64() / off.in_calls.as_secs_f64());
        passes.extend([off, laddered, on]);
    }

    if !ladder.samples.contains_key("serve_query_self") {
        query_suite(&served, &mut ladder);
    }
    let (fanout_ms, fanout_ratio) = fanout_suite(&mut ladder);
    let mut bad = served.verify_exports(inputs);
    let catch_up = stack::catch_up(&served.cluster, &served.ids, inputs)?;
    bad.extend(catch_up.mismatches.iter().cloned());
    bad.extend(ladder.errors.iter().cloned());
    served.teardown();

    let k = kernels(inputs, seed);
    let sw = sweeps(seed);
    write_spans(inputs, seed, &ladder.spans);

    let s = |name: &str| ladder.samples.get(name).map_or(&[][..], Vec::as_slice);
    let mut r = Report::default();
    r.put("cxserve.edit_self_us", "us", median(s("serve_edit_self")));
    r.put("cxserve.query_self_us", "us", median(s("serve_query_self")));
    r.put("cxserve.refused", "count", passes.iter().map(|p| p.refused).sum::<u64>() as f64);
    r.put("cxcluster.edit_self_us", "us", median(s("cluster_edit_self")));
    r.put("cxcluster.fanout_ms", "ms", median(&fanout_ms));
    r.put("cxcluster.fanout_parallel_ratio", "ratio", median(&fanout_ratio));
    r.put("cxpersist.wal_self_us", "us", median(s("wal_self")));
    r.put(
        "cxpersist.wal_bytes_per_edit",
        "bytes",
        during.wal_bytes as f64 / during.edits.max(1) as f64,
    );
    r.put("cxpersist.blob_capture_ms", "ms", median(&k.capture_ms));
    r.put("cxpersist.blob_restore_ms", "ms", median(&k.restore_ms));
    r.put("cxrepl.records_per_s", "1/s", catch_up.records as f64 / catch_up.time.as_secs_f64());
    r.put("cxrepl.batches_shipped", "count", catch_up.batches as f64);
    r.put("cxrepl.snapshots_shipped", "count", catch_up.snapshots as f64);
    r.put("cxstore.edit_self_us", "us", median(s("store_edit_self")));
    r.put("cxstore.index_hit_ratio", "ratio", ratio(during.index_hits, during.index_builds));
    r.put("cxstore.index_builds", "count", during.index_builds as f64);
    r.put(
        "cxstore.compile_hit_ratio",
        "ratio",
        ratio(during.query_cache_hits, during.query_cache_misses),
    );
    r.put("cxstore.edits_rejected", "count", during.edits_rejected as f64);
    r.put("prevalid.check_nested_us", "us", median(&k.check_nested_us));
    let root_500 = sw.check_root_us.iter().find(|p| p.0 == 500.0).map_or(0.0, |p| p.1);
    let (check_root, root_items) = if k.check_root_us.is_empty() {
        (root_500, sw.root_items_500)
    } else {
        (median(&k.check_root_us), mean(&k.root_items))
    };
    r.put("prevalid.check_root_us", "us", check_root);
    r.put("prevalid.host_items", "count", root_items);
    r.put("goddag.insert_element_us", "us", median(&k.insert_element_us));
    r.put("goddag.insert_text_us", "us", median(&k.insert_text_us));
    for (q, (name, _)) in QUERIES.iter().enumerate() {
        r.put(format!("expath.eval_us.{name}"), "us", median(&k.eval_us[q]));
    }
    r.put("expath.index_build_us", "us", median(&k.index_us));
    r.put("expath.nodes_returned", "count", mean(&k.nodes));
    r.put("sacx.parse_distributed_ms", "ms", median(&k.parse_ms));
    r.put("sacx.import_standoff_ms", "ms", median(&k.import_ms));
    r.put("prevalid.check_root_exp", "exponent", loglog_slope(&sw.check_root_us));
    r.put("cxpersist.blob_restore_exp", "exponent", loglog_slope(&sw.restore_ms));
    r.put("expath.eval_exp.Q5", "exponent", loglog_slope(&sw.q5_us));
    r.put("goddag.insert_text_exp", "exponent", loglog_slope(&sw.insert_text_us));
    r.put("cxtrace.overhead_ratio", "ratio", median(&cxtrace_ratio));
    r.put("bench.trace_overhead_ratio", "ratio", median(&bench_ratio));

    println!("size sweeps (words, value):");
    println!("  prevalid root check us   {:?}", sw.check_root_us);
    println!("  DocBlob::restore ms      {:?}", sw.restore_ms);
    println!("  Q5 eval us               {:?}", sw.q5_us);
    println!("  goddag insert_text us    {:?}", sw.insert_text_us);

    let checks = 2 * inputs.docs.len() as u64;
    let attempted = checks + passes.iter().map(|p| p.attempted).sum::<u64>();
    let failed = bad.len() as u64 + passes.iter().map(|p| p.failed).sum::<u64>();
    let mut errors: Vec<String> = passes.iter().flat_map(|p| p.errors.clone()).collect();
    errors.extend(bad);
    Ok((r, attempted, failed, errors))
}

/// Spans stay in memory during the run and are written out at its end,
/// one JSON object per line, to `.bench_out/`.
fn write_spans(inputs: &Inputs, seed: u64, spans: &[SpanRec]) {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            out,
            "{{\"trace\": {}, \"name\": \"{}\", \"parent\": {parent}, \"ns\": {}}}",
            s.trace,
            s.name,
            s.dur.as_nanos()
        );
    }
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", inputs.workload.name()));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out)) {
        eprintln!("servebench: could not write {}: {e}", path.display());
    }
}
