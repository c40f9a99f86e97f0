//! The metric registry: named handles, idempotent registration, render.

use crate::events::EventRing;
use crate::expose::Exposition;
use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

/// How many events the registry's ring retains by default.
const EVENT_CAP: usize = 256;

/// `(name, static labels)` — the registry key. Two registrations with
/// the same name but different labels are distinct series (the per-shard
/// gauge pattern).
type Key = (String, Vec<(String, String)>);

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The histogram a layer registers: `cx_`, the layer name with `.`
/// turned into `_`, then `_ns` (`store.edit` → `cx_store_edit_ns`). The
/// only place that knows the rule; the metric linter calls it too.
pub fn layer_metric(layer: &str) -> String {
    format!("cx_{}_ns", layer.replace('.', "_"))
}

/// One timed layer of the stack: its static name, which is also its
/// trace span name, and its latency histogram. `cxtrace::enter` opens
/// one span that feeds both.
#[derive(Debug, Clone)]
pub struct Layer {
    name: &'static str,
    hist: Arc<Histogram>,
}

impl Layer {
    /// The layer (and trace span) name, e.g. `"store.edit"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The layer's latency histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

/// A registry of named metrics plus one [`EventRing`]. One registry
/// backs one store stack: the layers (`Store`, `DurableStore`,
/// replication, cluster) register their handles here once and bump them
/// lock-free; [`Registry::expose_into`] renders everything as
/// `name{label="v"} value` lines, sorted by name for deterministic
/// output.
///
/// Registration is idempotent — asking for an existing `(name, labels)`
/// pair returns the same handle — and kind-checked: re-registering a
/// name as a different metric kind panics (it is a programming error,
/// not a runtime condition).
pub struct Registry {
    on: bool,
    metrics: RwLock<BTreeMap<Key, Metric>>,
    events: EventRing,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Registry {
        Registry { on: true, metrics: RwLock::default(), events: EventRing::new(EVENT_CAP) }
    }

    /// A no-op registry: handles exist and render (as zeroes), but
    /// recording is a branch and span timers skip the clock entirely —
    /// the baseline the instrumentation-overhead guard compares against.
    pub fn disabled() -> Registry {
        Registry { on: false, metrics: RwLock::default(), events: EventRing::new(0) }
    }

    /// The named counter (registered on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// A counter carrying static labels, e.g. `("shard", "2")`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            labels,
            || Metric::Counter(Arc::new(Counter::new(self.on))),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// The named gauge (registered on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// A gauge carrying static labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            labels,
            || Metric::Gauge(Arc::new(Gauge::new(self.on))),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// The named histogram (registered on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// A histogram carrying static labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register(
            name,
            labels,
            || Metric::Histogram(Arc::new(Histogram::new(self.on))),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// The named layer of the stack, with its latency histogram
    /// registered as [`layer_metric`]`(name)` (first use registers it).
    pub fn layer(&self, name: &'static str) -> Layer {
        Layer { name, hist: self.histogram(&layer_metric(name)) }
    }

    /// Record an event into the ring.
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) {
        self.events.record(kind, detail);
    }

    /// The recent-events ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    // Poison recovery (both `metrics` acquisitions below): the map's only
    // writer inserts one fully-constructed metric per critical section,
    // so a panicked holder leaves a smaller but valid registry.
    fn register<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        get: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let key = || {
            (
                name.to_string(),
                labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            )
        };
        let lookup = key();
        if let Some(m) = self.metrics.read().unwrap_or_else(PoisonError::into_inner).get(&lookup) {
            return get(m).unwrap_or_else(|| {
                panic!("metric {name:?} is already registered as a {}", m.kind())
            });
        }
        let mut map = self.metrics.write().unwrap_or_else(PoisonError::into_inner);
        let m = map.entry(lookup).or_insert_with(make);
        get(m).unwrap_or_else(|| panic!("metric {name:?} is already registered as a {}", m.kind()))
    }

    /// Append every registered metric as exposition lines (sorted by
    /// name, then labels): counters and gauges one line each, histograms
    /// in Prometheus-conformant order — cumulative `{name}_bucket`
    /// lines with ascending `le` upper bounds (non-empty buckets plus
    /// the mandatory `le="+Inf"` line, whose value equals the exact
    /// count), then `{name}_sum`, then `{name}_count` — followed by the
    /// legacy `quantile="0.5|0.9|0.99"` convenience series (all values
    /// in nanoseconds for `_ns`-suffixed names). Buckets holding a
    /// tagged observation carry an exemplar suffix
    /// `# {trace_id="<016x>"}`.
    pub fn expose_into(&self, out: &mut Exposition) {
        // Poison recovery: registration (the only writer) inserts whole
        // metrics, so a recovered read sees a valid registry — and hiding
        // telemetry after a panic would hide the incident being diagnosed.
        let map = self.metrics.read().unwrap_or_else(PoisonError::into_inner);
        for ((name, labels), metric) in map.iter() {
            let labels: Vec<(&str, &str)> =
                labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            match metric {
                Metric::Counter(c) => out.write_with(name, &labels, c.get()),
                Metric::Gauge(g) => out.write_with(name, &labels, g.get()),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let bucket = format!("{name}_bucket");
                    let mut cum = 0u64;
                    for (i, &n) in s.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cum += n;
                        // Bucket i holds [2^i, 2^(i+1)) ns of integer
                        // observations: the inclusive upper bound is
                        // 2^(i+1)-1.
                        let le = ((1u64 << (i + 1)) - 1).to_string();
                        let mut with_le = labels.clone();
                        with_le.push(("le", le.as_str()));
                        let ex = (s.exemplars[i] != 0).then(|| format!("{:016x}", s.exemplars[i]));
                        out.write_with_exemplar(&bucket, &with_le, cum, ex.as_deref());
                    }
                    let mut with_inf = labels.clone();
                    with_inf.push(("le", "+Inf"));
                    out.write_with(&bucket, &with_inf, s.count);
                    out.write_with(&format!("{name}_sum"), &labels, s.sum_ns);
                    out.write_with(&format!("{name}_count"), &labels, s.count);
                    for (q, v) in [("0.5", s.p50()), ("0.9", s.p90()), ("0.99", s.p99())] {
                        let mut with_q = labels.clone();
                        with_q.push(("quantile", q));
                        out.write_with(name, &with_q, v);
                    }
                }
            }
        }
    }

    /// Render this registry alone as exposition text.
    pub fn render(&self) -> String {
        let mut out = Exposition::new();
        self.expose_into(&mut out);
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("cx_things_total");
        let b = r.counter("cx_things_total");
        a.bump();
        b.bump();
        assert_eq!(a.get(), 2, "both handles name the same counter");
        // Distinct labels are distinct series.
        let s0 = r.gauge_with("cx_depth", &[("shard", "0")]);
        let s1 = r.gauge_with("cx_depth", &[("shard", "1")]);
        s0.set(4);
        assert_eq!(s1.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("cx_x");
        r.gauge("cx_x");
    }

    #[test]
    fn render_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("cx_b_total").add(2);
        r.gauge("cx_a").set(-3);
        r.histogram("cx_lat_ns").record_ns(1000);
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "cx_a -3",
                "cx_b_total 2",
                "cx_lat_ns_bucket{le=\"1023\"} 1",
                "cx_lat_ns_bucket{le=\"+Inf\"} 1",
                "cx_lat_ns_sum 1000",
                "cx_lat_ns_count 1",
                "cx_lat_ns{quantile=\"0.5\"} 1023",
                "cx_lat_ns{quantile=\"0.9\"} 1023",
                "cx_lat_ns{quantile=\"0.99\"} 1023",
            ]
        );
    }

    #[test]
    fn bucket_lines_are_cumulative_and_exemplars_render() {
        let r = Registry::new();
        let h = r.histogram("cx_lat_ns");
        h.record_ns(1); // bucket 0, le="1"
        h.record_ns_tagged(1000, 0xabcd); // bucket 9, le="1023"
        let text = r.render();
        assert!(text.contains("cx_lat_ns_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(
            text.contains("cx_lat_ns_bucket{le=\"1023\"} 2 # {trace_id=\"000000000000abcd\"}\n"),
            "{text}"
        );
        assert!(text.contains("cx_lat_ns_bucket{le=\"+Inf\"} 2\n"), "{text}");
    }

    #[test]
    fn layers_register_their_histogram_once() {
        let r = Registry::new();
        let l = r.layer("wal.append");
        assert_eq!(l.name(), "wal.append");
        assert_eq!(layer_metric("store.query_all"), "cx_store_query_all_ns");
        l.histogram().record_ns(5);
        assert_eq!(r.layer("wal.append").histogram().count(), 1, "same histogram");
        assert_eq!(r.histogram("cx_wal_append_ns").count(), 1);
        let off = Registry::disabled();
        assert!(!off.layer("wal.append").histogram().enabled());
        off.event("x", "dropped");
        assert!(off.events().is_empty());
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
    }
}
