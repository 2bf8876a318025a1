//! The metrics table: named counters and log-scale histograms behind one
//! process-wide lock, with a point-in-time [`Snapshot`] that renders to
//! JSON.

use crate::lock_unpoisoned;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A log₂-bucketed histogram of `u64` samples (typically microseconds).
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)` (the last bucket absorbs everything above `2^62`).
/// Quantiles are answered with the bucket midpoint, clamped to the exact
/// observed maximum — a ≤ 2× relative error by construction, which is
/// what latency percentiles need.
struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

/// Bucket index for a sample.
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
    fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        let bucket = &mut self.buckets[bucket_index(v)];
        *bucket = bucket.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// The `pct`-th percentile (`pct` in `1..=100`), approximated by the
    /// bucket midpoint and clamped to the observed maximum. 0 when empty.
    fn percentile(&self, pct: u64) -> u64 {
        let n = self.count;
        if n == 0 {
            return 0;
        }
        if pct >= 100 {
            return self.max;
        }
        // ceil(n * pct / 100), clamped into [1, n]: the rank of the sample
        // that `pct` percent of samples are ≤.
        let rank = (n.saturating_mul(pct).div_ceil(100)).clamp(1, n);
        // A quantile landing in the highest occupied bucket reports the
        // exact observed maximum instead of the bucket midpoint.
        let top = self.buckets.iter().rposition(|&b| b > 0);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                if Some(i) == top {
                    return self.max;
                }
                return bucket_mid(i).min(self.max);
            }
        }
        self.max
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p50: self.percentile(50),
            p95: self.percentile(95),
            p99: self.percentile(99),
            max: self.max,
        }
    }
}

/// Everything recorded, keyed by the probes' names. Span histograms are
/// keyed by the span's own name; the snapshot renders them as
/// `span.<name>_us`, so a span probe formats no name.
struct Table {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
    spans: BTreeMap<&'static str, LogHistogram>,
}

static TABLE: Mutex<Table> = Mutex::new(Table {
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
    spans: BTreeMap::new(),
});

/// Add `n` to counter `name`.
pub fn add(name: &'static str, n: u64) {
    let mut table = lock_unpoisoned(&TABLE);
    let counter = table.counters.entry(name).or_insert(0);
    *counter = counter.saturating_add(n);
}

/// Record sample `v` into histogram `name`.
pub fn record(name: &'static str, v: u64) {
    let mut table = lock_unpoisoned(&TABLE);
    sample(&mut table.histograms, name, v);
}

/// Record `us` into the histogram of span `name`.
pub(crate) fn record_span(name: &'static str, us: u64) {
    let mut table = lock_unpoisoned(&TABLE);
    sample(&mut table.spans, name, us);
}

fn sample(map: &mut BTreeMap<&'static str, LogHistogram>, name: &'static str, v: u64) {
    map.entry(name).or_insert_with(LogHistogram::new).record(v);
}

/// Freeze the metrics table into a name-sorted snapshot (empty before
/// the first probe).
pub fn snapshot() -> Snapshot {
    let table = lock_unpoisoned(&TABLE);
    let counters = table
        .counters
        .iter()
        .map(|(k, v)| ((*k).to_string(), *v))
        .collect();
    let mut histograms: Vec<_> = table
        .histograms
        .iter()
        .map(|(k, h)| ((*k).to_string(), h.summary()))
        .chain(
            table
                .spans
                .iter()
                .map(|(k, h)| (format!("span.{k}_us"), h.summary())),
        )
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    Snapshot {
        counters,
        histograms,
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

/// Point-in-time copy of the whole table (name-sorted).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, span histograms included as `span.<name>_us`.
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

    fn histogram_of(samples: impl IntoIterator<Item = u64>) -> LogHistogram {
        let mut h = LogHistogram::new();
        for v in samples {
            h.record(v);
        }
        h
    }

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
        assert_eq!(h.percentile(50), 0);
        assert_eq!(
            h.summary(),
            HistogramSummary {
                count: 0,
                sum: 0,
                mean: 0.0,
                p50: 0,
                p95: 0,
                p99: 0,
                max: 0,
            }
        );
    }

    #[test]
    fn single_sample_percentiles() {
        let h = histogram_of([100]);
        for pct in [1, 50, 95, 99, 100] {
            // clamped to the exact max
            assert_eq!(h.percentile(pct), 100, "pct {pct}");
        }
        assert_eq!(h.max, 100);
        assert_eq!(h.sum, 100);
    }

    #[test]
    fn uniform_samples_land_in_log_bounds() {
        let h = histogram_of(1..=1000);
        // the true p50 is 500 → bucket [256, 511], midpoint ~383
        let p50 = h.percentile(50);
        assert!((256..=511).contains(&p50), "p50 = {p50}");
        // the true p95 is 950 → bucket [512, 1023]
        let p95 = h.percentile(95);
        assert!((512..=1000).contains(&p95), "p95 = {p95}");
        // max is exact, and p100 equals it
        assert_eq!(h.max, 1000);
        assert_eq!(h.percentile(100), 1000);
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone() {
        let h = histogram_of([1, 5, 9, 40, 80, 200, 1_000, 50_000, 1_000_000]);
        let mut last = 0;
        for pct in [1, 10, 25, 50, 75, 90, 95, 99, 100] {
            let p = h.percentile(pct);
            assert!(p >= last, "pct {pct}: {p} < {last}");
            last = p;
        }
        assert!(last <= h.max);
    }

    #[test]
    fn zeros_only_histogram() {
        let h = histogram_of([0; 10]);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn summary_matches_accessors() {
        let h = histogram_of([10, 20]);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 30);
        assert_eq!(s.max, 20);
        assert_eq!(s.p50, h.percentile(50));
        assert!((s.mean - 15.0).abs() < 1e-9);
    }

    // The table is process-wide and shared with the other tests in this
    // binary, so each test below uses names no other test records.

    #[test]
    fn table_keys_counters_by_name() {
        add("table.keyed", 2);
        add("table.keyed", 3);
        let snap = snapshot();
        assert_eq!(snap.counter("table.keyed"), Some(5));
        assert_eq!(snap.counter("table.never"), None);
    }

    #[test]
    fn snapshot_renders_json() {
        add("render.c", 7);
        record("render.h", 4);
        let j = serde_json::to_string(&snapshot().to_value());
        assert!(j.starts_with("{\"type\":\"snapshot\""), "{j}");
        assert!(j.contains("\"render.c\":7"), "{j}");
        assert!(j.contains("\"render.h\":{\"count\":1,\"sum\":4,"), "{j}");
    }

    #[test]
    fn snapshot_is_name_sorted() {
        add("sorted.zeta", 1);
        add("sorted.alpha", 1);
        record("span.sorted_b", 1);
        record_span("sorted_a", 1);
        record_span("sorted_c", 1);
        let snap = snapshot();
        let counters: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert!(counters.is_sorted(), "{counters:?}");
        let sorted: Vec<&str> = counters
            .into_iter()
            .filter(|k| k.starts_with("sorted."))
            .collect();
        assert_eq!(sorted, vec!["sorted.alpha", "sorted.zeta"]);
        let sorted: Vec<&str> = snap
            .histograms
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| k.starts_with("span.sorted"))
            .collect();
        // span histograms sort into the same list as plain ones
        assert_eq!(
            sorted,
            vec!["span.sorted_a_us", "span.sorted_b", "span.sorted_c_us"]
        );
        let names: Vec<&str> = snap.histograms.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.is_sorted(), "{names:?}");
    }
}
