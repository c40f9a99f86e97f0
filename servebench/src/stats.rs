//! Order statistics, least-squares exponents and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Consecutive blocks a run's samples are cut into for the robust
/// statistics below.
pub const BLOCKS: usize = 5;

/// `f` of each of `BLOCKS` consecutive blocks of time-ordered samples, and
/// the median of those: a slow spell of the host that covers one block
/// moves it little, where it would own the tail of the pooled samples.
pub fn block_median(samples: &[f64], f: impl Fn(&[f64]) -> f64) -> f64 {
    if samples.len() < BLOCKS {
        return f(samples);
    }
    let per = samples.len() / BLOCKS;
    let values: Vec<f64> = (0..BLOCKS)
        .map(|b| {
            let end = if b + 1 == BLOCKS { samples.len() } else { (b + 1) * per };
            f(&samples[b * per..end])
        })
        .collect();
    median(&values)
}

/// Median over blocks of each block's `p`th percentile.
pub fn block_percentile(samples: &[f64], p: f64) -> f64 {
    block_median(samples, |b| percentile(b, p))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Slope of `ln y` against `ln x`: the growth exponent of a size sweep.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Printed in the table only, not in the JSON result.
    pub informational: bool,
}

/// Metrics in the order they were reported.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value, informational: false });
    }

    /// A metric for the table only: one that not every workload has, or
    /// whose spread between runs on a shared 2-CPU host is too wide for a
    /// regression gate's bound.
    pub fn note(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value, informational: true });
    }

    /// Human-readable table (one metric per line; `*` marks metrics left
    /// out of the JSON result).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let mark = if m.informational { "*" } else { " " };
            let _ = writeln!(out, " {mark}{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The single JSON result line.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().filter(|m| !m.informational).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn one_slow_block_does_not_own_the_tail() {
        let mut v = vec![1.0; 500];
        v[..100].iter_mut().for_each(|x| *x = 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(block_percentile(&v, 99.0), 1.0);
    }

    #[test]
    fn cubic_sweep_has_exponent_three() {
        let pts: Vec<(f64, f64)> =
            [1.0, 2.0, 4.0].iter().map(|&x: &f64| (x, 5.0 * x.powi(3))).collect();
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-9);
    }
}
