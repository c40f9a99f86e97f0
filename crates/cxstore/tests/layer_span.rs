//! One instrumentation primitive: a traced gated edit is timed once, and
//! that one duration is both the `store.edit` trace span and the
//! `cx_store_edit_ns` observation, tagged with the trace id.

use cxstore::{EditOp, Store};

#[test]
fn one_traced_gated_edit_feeds_histogram_and_span_from_one_duration() {
    let store = Store::new();
    let mut g = corpus::figure1::goddag();
    corpus::dtds::attach_standard(&mut g);
    let id = store.insert(g);
    let edit = store.registry().histogram("cx_store_edit_ns");
    let gate = store.registry().histogram("cx_store_gate_ns");
    let (before, gates) = (edit.snapshot(), gate.count());
    let _s = cxtrace::Scenario::setup();
    let tid = {
        let _root = cxtrace::span_or_root("test.request");
        let op = EditOp::InsertElement {
            hierarchy: "dmg".into(),
            tag: "dmg".into(),
            attrs: vec![],
            start: 0,
            end: 3,
        };
        store.edit(id, op).unwrap();
        cxtrace::current_trace_id()
    };
    assert_eq!(gate.count(), gates + 1, "the edit went through the gate");
    let after = edit.snapshot();
    assert_eq!(after.count, before.count + 1, "exactly one observation");
    let t = cxtrace::find(tid).expect("trace retained");
    let span = t.spans.iter().find(|s| s.name == "store.edit").expect("store.edit span");
    assert_eq!(after.sum_ns - before.sum_ns, span.duration_ns, "one clock pair feeds both");
    let bucket = (0..cxobs::BUCKETS).find(|&b| after.buckets[b] > before.buckets[b]).unwrap();
    assert_eq!(after.exemplars[bucket], tid, "the bucket's exemplar is the trace");
}
