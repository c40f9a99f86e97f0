//! The three metric kinds: counters, gauges, log2-bucket histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets. Bucket `i` holds values in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also holds 0), so the top
/// bucket starts at `2^47` ns ≈ 39 hours — far past any latency this
/// stack can produce; larger values clamp into it.
pub const BUCKETS: usize = 48;

/// A monotone event counter. `bump`/`add` are single relaxed
/// `fetch_add`s; a disabled counter (from [`crate::Registry::disabled`])
/// is a branch.
#[derive(Debug)]
pub struct Counter {
    on: bool,
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new(on: bool) -> Counter {
        Counter { on, value: AtomicU64::new(0) }
    }

    /// Count one event.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        if self.on {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A level that moves both ways — in-flight requests, queue depth,
/// threads alive. [`Gauge::track`] gives RAII in-flight accounting.
#[derive(Debug)]
pub struct Gauge {
    on: bool,
    value: AtomicI64,
}

impl Gauge {
    pub(crate) fn new(on: bool) -> Gauge {
        Gauge { on, value: AtomicI64::new(0) }
    }

    /// Add `n` (negative to subtract).
    pub fn add(&self, n: i64) {
        if self.on {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        if self.on {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Raise the gauge by one for the lifetime of the returned guard —
    /// the in-flight pattern: the level drops again on drop, early
    /// returns and unwinds included.
    pub fn track(&self) -> GaugeGuard<'_> {
        self.track_n(1)
    }

    /// [`Gauge::track`] for `n` units at once (e.g. a fan-out spawning
    /// `n` worker threads).
    pub fn track_n(&self, n: i64) -> GaugeGuard<'_> {
        self.add(n);
        GaugeGuard { gauge: self, n }
    }
}

/// RAII handle from [`Gauge::track`]: undoes its increment on drop.
#[derive(Debug)]
pub struct GaugeGuard<'a> {
    gauge: &'a Gauge,
    n: i64,
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.gauge.add(-self.n);
    }
}

/// A fixed log2-bucket latency histogram over nanoseconds: exact
/// `count` and `sum`, bucketed distribution for approximate quantiles.
/// Recording is two relaxed `fetch_add`s plus one more for the bucket;
/// no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    on: bool,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    /// Per-bucket **exemplar**: the tag (a `cxtrace` trace id; 0 =
    /// none) of the last tagged observation that landed in the bucket —
    /// what links a fat p99 bucket to one concrete retained trace.
    exemplars: [AtomicU64; BUCKETS],
}

/// The bucket a value lands in: `floor(log2(max(ns, 1)))`, clamped.
fn bucket_of(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    pub(crate) fn new(on: bool) -> Histogram {
        Histogram {
            on,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Whether this histogram records anything (false on a disabled
    /// registry — a layer span then skips the clock reads too).
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Record one observation, in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.record_ns_tagged(ns, 0);
    }

    /// Record one observation carrying an exemplar tag (a trace id;
    /// 0 = untagged). A nonzero tag overwrites the bucket's exemplar.
    pub fn record_ns_tagged(&self, ns: u64, tag: u64) {
        if !self.on {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        let b = bucket_of(ns);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        if tag != 0 {
            self.exemplars[b].store(tag, Ordering::Relaxed);
        }
    }

    /// Record one observation from a [`Duration`].
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            exemplars: std::array::from_fn(|i| self.exemplars[i].load(Ordering::Relaxed)),
        }
    }
}

/// A consistent-enough copy of a [`Histogram`] (fields are read
/// relaxed; under concurrent recording the totals may straddle an
/// in-flight observation, which quantile estimation tolerates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket observation counts (bucket `i` = `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; BUCKETS],
    /// Per-bucket exemplar tags (last tagged observation's trace id,
    /// 0 = none).
    pub exemplars: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// The approximate `q`-quantile (0 < q ≤ 1), in nanoseconds: the
    /// upper bound of the bucket holding the rank-`ceil(q·count)`
    /// observation — at most 2× the true value, and monotone in `q`.
    /// Zero when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            }
        }
        u64::MAX
    }

    /// Median latency, nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile latency, nanoseconds.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile latency, nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean latency, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of((1 << 47) - 1), 46);
        assert_eq!(bucket_of(1 << 47), 47);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1, "huge values clamp");
    }

    #[test]
    fn histogram_count_sum_and_quantiles() {
        let h = Histogram::new(true);
        // 90 fast observations (~1 µs) and 10 slow ones (~1 ms).
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum_ns, 90 * 1_000 + 10 * 1_000_000);
        assert_eq!(s.mean_ns(), s.sum_ns / 100);
        // p50 sits in the 1 µs bucket ([1024, 2048)); p99 in the 1 ms one.
        assert!(s.p50() >= 1_000 && s.p50() < 2_048, "p50 = {}", s.p50());
        assert!(s.p99() >= 1_000_000 && s.p99() < 2_097_152, "p99 = {}", s.p99());
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99(), "quantiles are monotone");
        assert!(s.quantile(1.0) >= s.p99(), "the max quantile dominates p99");
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = Histogram::new(true).snapshot();
        assert_eq!((s.count, s.sum_ns, s.p50(), s.p99(), s.mean_ns()), (0, 0, 0, 0, 0));
    }

    #[test]
    fn exemplars_remember_the_last_tagged_observation_per_bucket() {
        let h = Histogram::new(true);
        h.record_ns(1_000);
        let s = h.snapshot();
        assert_eq!(s.exemplars, [0; BUCKETS], "untagged observations leave no exemplar");
        h.record_ns_tagged(1_000, 0xabc);
        h.record_ns_tagged(1_000, 0xdef);
        h.record_ns_tagged(1_000_000, 0x123);
        h.record_ns(1_000); // tagless: must not clobber the exemplar
        let s = h.snapshot();
        assert_eq!(s.exemplars[bucket_of(1_000)], 0xdef, "last tag wins");
        assert_eq!(s.exemplars[bucket_of(1_000_000)], 0x123);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let c = Counter::new(false);
        c.bump();
        assert_eq!(c.get(), 0);
        let g = Gauge::new(false);
        g.inc();
        assert_eq!(g.get(), 0);
        let h = Histogram::new(false);
        h.record_ns(7);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn gauge_tracking_is_unwind_safe() {
        let g = Arc::new(Gauge::new(true));
        {
            let _a = g.track();
            let _b = g.track_n(3);
            assert_eq!(g.get(), 4);
        }
        assert_eq!(g.get(), 0);
        let g2 = Arc::clone(&g);
        let _ = std::thread::spawn(move || {
            let _guard = g2.track();
            panic!("unwind drops the guard");
        })
        .join();
        assert_eq!(g.get(), 0, "panicking holder released its unit");
    }

    #[test]
    fn concurrent_bumps_are_never_lost() {
        let c = Arc::new(Counter::new(true));
        let h = Arc::new(Histogram::new(true));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        c.bump();
                        h.record_ns(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 80_000, "every observation landed in a bucket");
    }
}
