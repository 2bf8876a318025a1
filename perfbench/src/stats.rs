//! Percentiles from raw samples.
//!
//! Every timing the benchmark reports is computed here from the raw
//! per-sample values (no histograms, no means posing as medians). A tail is
//! reported only where the data can support it: the highest percentile
//! from a fixed list that still has at least [`MIN_BEYOND`] samples above
//! it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // The small offset keeps float error (99.9% of 10 000 is
    // 9990.000000000002) from pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of already sorted samples. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The highest percentile in the fixed list with at least
/// [`MIN_BEYOND`] of `n` samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// Median and honest tail of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Which percentile [`Summary::tail`] is, if the count supports one.
    pub tail_pct: Option<f64>,
    /// Value at `tail_pct` (the median when no tail is supported).
    pub tail: f64,
}

impl Summary {
    /// Summarise raw samples (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50.0)?;
        let tail_pct = tail_percentile(sorted.len());
        let tail = tail_pct
            .and_then(|p| percentile(&sorted, p))
            .unwrap_or(p50);
        Some(Summary {
            n: sorted.len(),
            p50,
            tail_pct,
            tail,
        })
    }

    /// Human-readable name of the reported tail.
    pub fn tail_label(&self) -> String {
        match self.tail_pct {
            Some(p) => format!("p{p}"),
            None => "p50 (too few samples for a tail)".to_string(),
        }
    }
}

/// Median of raw values (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.5 only 5.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 990.0);
        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(few.tail_pct, None);
        assert_eq!(few.tail, 2.0);
        assert_eq!(median(&[]), None);
    }
}
