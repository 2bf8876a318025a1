//! Metrics registry: named counters and log-scale histograms, with a
//! point-in-time [`Snapshot`] that renders to JSON.

use crate::lock_unpoisoned;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A log₂-bucketed histogram of `u64` samples (typically microseconds).
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)` (the last bucket absorbs everything above `2^62`).
/// Quantiles are answered with the geometric bucket midpoint, clamped to
/// the exact observed maximum — a ≤ 2× relative error by construction,
/// which is what latency percentiles need at zero coordination cost
/// (recording is three relaxed atomic ops).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(63)
}

/// Representative value reported for a bucket: its arithmetic midpoint.
fn bucket_mid(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        _ => {
            let lo = 1u64 << (i - 1);
            let hi = lo.saturating_mul(2).saturating_sub(1);
            lo + (hi - lo) / 2
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `pct`-th percentile (`pct` in `1..=100`), approximated by the
    /// bucket midpoint and clamped to the observed maximum. 0 when empty.
    pub fn percentile(&self, pct: u64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        if pct >= 100 {
            return self.max();
        }
        // ceil(n * pct / 100), clamped into [1, n]: the rank of the sample
        // that `pct` percent of samples are ≤.
        let rank = (n.saturating_mul(pct).div_ceil(100)).clamp(1, n);
        // A quantile landing in the highest occupied bucket reports the
        // exact observed maximum instead of the bucket midpoint.
        let top = self
            .buckets
            .iter()
            .rposition(|b| b.load(Ordering::Relaxed) > 0);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b.load(Ordering::Relaxed));
            if seen >= rank {
                if Some(i) == top {
                    return self.max();
                }
                return bucket_mid(i).min(self.max());
            }
        }
        self.max()
    }

    /// Summarize into a point-in-time record.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            p50: self.percentile(50),
            p95: self.percentile(95),
            p99: self.percentile(99),
            max: self.max(),
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (log-bucket approximation).
    pub p50: u64,
    /// 95th percentile (log-bucket approximation).
    pub p95: u64,
    /// 99th percentile (log-bucket approximation).
    pub p99: u64,
    /// Maximum (exact).
    pub max: u64,
}

impl HistogramSummary {
    /// The JSON object this summary renders to.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::UInt(self.count)),
            ("sum".into(), Value::UInt(self.sum)),
            ("mean".into(), Value::Float(self.mean)),
            ("p50".into(), Value::UInt(self.p50)),
            ("p95".into(), Value::UInt(self.p95)),
            ("p99".into(), Value::UInt(self.p99)),
            ("max".into(), Value::UInt(self.max)),
        ])
    }
}

/// Monotonic counter handle. Inert when obtained while recording is off.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// An inert handle.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<LogHistogram>>);

impl Histogram {
    /// An inert handle.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }
}

/// The global named-instrument registry.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
}

impl Registry {
    /// Counter handle for `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock_unpoisoned(&self.counters);
        Counter(Some(Arc::clone(map.entry(name.to_string()).or_default())))
    }

    /// Histogram handle for `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock_unpoisoned(&self.histograms);
        Histogram(Some(Arc::clone(map.entry(name.to_string()).or_default())))
    }

    /// Freeze every instrument into a sorted snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock_unpoisoned(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = lock_unpoisoned(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Point-in-time copy of the whole registry (name-sorted).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// The JSON object this snapshot renders to, `"type"` tag included.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        Value::Object(vec![
            ("type".into(), Value::Str("snapshot".into())),
            ("counters".into(), Value::Object(counters)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }

    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Summary of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_percentiles() {
        let h = LogHistogram::new();
        h.record(100);
        for pct in [1, 50, 95, 99, 100] {
            // clamped to the exact max
            assert_eq!(h.percentile(pct), 100, "pct {pct}");
        }
        assert_eq!(h.max(), 100);
        assert_eq!(h.sum(), 100);
    }

    #[test]
    fn uniform_samples_land_in_log_bounds() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // the true p50 is 500 → bucket [256, 511], midpoint ~383
        let p50 = h.percentile(50);
        assert!((256..=511).contains(&p50), "p50 = {p50}");
        // the true p95 is 950 → bucket [512, 1023]
        let p95 = h.percentile(95);
        assert!((512..=1000).contains(&p95), "p95 = {p95}");
        // max is exact, and p100 equals it
        assert_eq!(h.max(), 1000);
        assert_eq!(h.percentile(100), 1000);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone() {
        let h = LogHistogram::new();
        for v in [1u64, 5, 9, 40, 80, 200, 1_000, 50_000, 1_000_000] {
            h.record(v);
        }
        let mut last = 0;
        for pct in [1, 10, 25, 50, 75, 90, 95, 99, 100] {
            let p = h.percentile(pct);
            assert!(p >= last, "pct {pct}: {p} < {last}");
            last = p;
        }
        assert!(last <= h.max());
    }

    #[test]
    fn zeros_only_histogram() {
        let h = LogHistogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn summary_matches_accessors() {
        let h = LogHistogram::new();
        h.record(10);
        h.record(20);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 30);
        assert_eq!(s.max, 20);
        assert_eq!(s.p50, h.percentile(50));
        assert!((s.mean - 15.0).abs() < 1e-9);
    }

    #[test]
    fn registry_reuses_instruments_by_name() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), Some(5));
        assert_eq!(snap.counter("y"), None);
    }

    #[test]
    fn snapshot_renders_json() {
        let r = Registry::default();
        r.counter("c").add(7);
        r.histogram("h").record(4);
        let j = serde_json::to_string(&r.snapshot().to_value());
        assert!(j.starts_with("{\"type\":\"snapshot\""), "{j}");
        assert!(j.contains("\"c\":7"), "{j}");
        assert!(j.contains("\"count\":1"), "{j}");
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::default();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
