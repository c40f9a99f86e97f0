//! # cxobs — instrumentation for the whole stack
//!
//! A dependency-free observability substrate: every layer of the store
//! stack (in-memory store, durable store, replication, cluster) hangs its
//! signals on one [`Registry`] per store and renders them through one
//! [`Observable`] trait. Three metric kinds, all lock-free on the hot
//! path:
//!
//! * [`Counter`] — monotone event counts (relaxed `fetch_add`);
//! * [`Gauge`] — levels that go up and down (in-flight writers, queue
//!   depth), with RAII tracking ([`Gauge::track`]);
//! * [`Histogram`] — fixed log2-bucket latency distributions in
//!   nanoseconds, with exact `count`/`sum` and approximate
//!   p50/p90/p99 ([`HistogramSnapshot::quantile`]). Recording is two
//!   relaxed `fetch_add`s plus a bucket index from `leading_zeros` —
//!   cheap enough for WAL appends and gate decisions.
//!
//! Latency is captured per **layer**: [`Registry::layer`] names one
//! timed layer of the stack (`"store.edit"`) and registers its histogram
//! as [`layer_metric`] of that name (`cx_store_edit_ns`). `cxtrace::enter`
//! opens one guard per call that times the layer once and feeds both the
//! histogram and, when a trace is active, the trace span of the same name.
//! Durations measured some other way go in with [`Histogram::record`].
//!
//! Rare, high-signal moments (follower state transitions, terminal
//! errors, checkpoint generations, migrations, gate rejections) go into a
//! bounded [`EventRing`] — a structured recent-events log drainable for
//! post-mortems, oldest entries dropped (and counted) on overflow.
//!
//! Everything renders as Prometheus-style text (`name{label="v"} value`)
//! through [`Exposition`]: a label stack lets a cluster wrap each shard's
//! output in `shard="i"`, and [`Observable`] is the one-method trait every
//! store-shaped type implements to contribute its lines.
//!
//! A [`Registry::disabled`] registry turns every record into a branch
//! (an untraced layer span skips the clock reads entirely), which is
//! what the `perf_smoke` overhead guard compares against.
//!
//! ```
//! use cxobs::Registry;
//!
//! let obs = Registry::new();
//! let requests = obs.counter("cx_requests_total");
//! let latency = obs.histogram("cx_request_ns");
//! for i in 0..100 {
//!     requests.bump();
//!     latency.record_ns(1_000 + i);
//! }
//! obs.event("demo", "served 100 requests");
//! assert_eq!(requests.get(), 100);
//! assert_eq!(latency.snapshot().count, 100);
//! let text = obs.render();
//! assert!(text.contains("cx_requests_total 100"));
//! assert!(text.contains("cx_request_ns{quantile=\"0.99\"}"));
//! ```

mod events;
mod expose;
mod metrics;
mod registry;

pub use events::{Event, EventRing};
pub use expose::{Exposition, Observable};
pub use metrics::{Counter, Gauge, GaugeGuard, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{layer_metric, Layer, Registry};
