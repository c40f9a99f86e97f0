//! # cxtrace — end-to-end request tracing for the whole stack
//!
//! `cxobs` answers *how slow is the p99*; this crate answers *why was
//! this request slow*: one wire request yields one causal tree of
//! [`SpanRecord`]s crossing client → server handler → cluster router →
//! shard store → prevalidation gate → WAL append, with per-span
//! durations, typed attributes (`doc`, `shard`, `verb`, `lsn`, …) and
//! error annotations.
//!
//! Design, in the `cxobs`/`cxfault` tradition:
//!
//! * **Off by default, one relaxed load when off.** Tracing is a
//!   process-wide switch ([`enable`]/[`disable`]); every [`span`] call
//!   on a disabled process is a single relaxed atomic load returning an
//!   inert guard — cheap enough to leave in the hot paths of `cxstore`
//!   and `cxpersist` permanently (the `perf_smoke` guard pins it).
//! * **Contexts, not globals, cross threads and machines.** A
//!   [`TraceContext`] is three ids minted from the same seeded
//!   splitmix64 stream `cxfault` uses. Within a thread, child spans
//!   attach implicitly to the innermost active span; across threads
//!   (cluster fan-out workers) and across the wire (the `cxq1` trace
//!   token) the context travels explicitly and is re-adopted with
//!   [`start`].
//! * **Per-thread buffers, one bounded flight recorder.** Finished
//!   spans accumulate in a thread-local buffer and are flushed to the
//!   process-wide recorder once per thread-root span — one short mutex
//!   per request per thread, never per span. The recorder retains the
//!   last N completed traces *plus* every trace that ran slower than
//!   the configured threshold or ended in an error; slow/error traces
//!   live in their own ring, so normal churn can never evict them
//!   (and they never evict normal traces' ring slots either — both
//!   rings are independently bounded).
//! * **One primitive per timed layer.** [`enter`] opens one guard on a
//!   [`cxobs::Layer`] whose one clock pair feeds both the span and the
//!   layer histogram; [`span`] and friends serve spans with no histogram.
//!
//! ```
//! let obs = cxobs::Registry::new();
//! let edit = obs.layer("store.edit");
//! cxtrace::enable();
//! {
//!     let root = cxtrace::span_or_root("serve.request");
//!     root.attr("verb", "edit");
//!     {
//!         let child = cxtrace::enter(&edit);
//!         child.attr("doc", 7u64);
//!     }
//! }
//! let traces = cxtrace::recent();
//! assert_eq!(traces.len(), 1);
//! let tree = cxtrace::find(traces[0].trace_id).unwrap();
//! assert_eq!(tree.spans.len(), 2);
//! let span = tree.spans.iter().find(|s| s.name == "store.edit").unwrap();
//! assert_eq!(edit.histogram().snapshot().sum_ns, span.duration_ns);
//! cxtrace::disable();
//! ```

mod context;
mod recorder;
mod span;

pub use context::{seed, TraceContext};
pub use recorder::{
    clear, expose_into, find, recent, render_tree, slow, stats, FinishedTrace, Scenario,
    TraceConfig, TraceStats, TraceSummary,
};
pub use span::{
    adopt, current, current_trace_id, disable, enable, enable_with, enabled, enter, span,
    span_or_root, start, AttrValue, SpanGuard, SpanRecord,
};
