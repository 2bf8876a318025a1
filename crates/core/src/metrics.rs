//! Evaluation metrics: q-error (Eq. 1) and its distribution statistics,
//! plus the L1 log loss used in Fig. 10.

/// q-error (Eq. 1): `max(c/ĉ, ĉ/c)` with both counts clamped to ≥ 1.
/// A non-finite input (NaN or ±inf from a diverged model) maps to
/// `+inf` — the worst possible error — instead of silently propagating
/// NaN through downstream aggregates.
pub fn q_error(true_count: f64, est_count: f64) -> f64 {
    if !true_count.is_finite() || !est_count.is_finite() {
        return f64::INFINITY;
    }
    let c = true_count.max(1.0);
    let e = est_count.max(1.0);
    (c / e).max(e / c)
}

/// `|log10 c − log10 ĉ|`, the per-query L1 loss of Fig. 10(b).
pub fn l1_log_error(true_count: f64, est_count: f64) -> f64 {
    (true_count.max(1.0).log10() - est_count.max(1.0).log10()).abs()
}

/// Distribution summary of q-errors over a query set, matching the
/// box-plot statistics of Figs. 4/6/7/11.
#[derive(Clone, Debug)]
pub struct QErrorStats {
    /// Number of queries aggregated.
    pub count: usize,
    /// Minimum q-error.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum q-error.
    pub max: f64,
    /// Geometric mean (the quantity Eq. 3 minimizes).
    pub geo_mean: f64,
    /// Mean of `|log10 c − log10 ĉ|`.
    pub l1_log: f64,
}

impl QErrorStats {
    /// Summarize `(true, estimated)` count pairs. Returns `None` for an
    /// empty input.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Option<Self> {
        if pairs.is_empty() {
            return None;
        }
        let mut qs: Vec<f64> = pairs.iter().map(|&(c, e)| q_error(c, e)).collect();
        // total_cmp: a NaN-tolerant total order. The old
        // `partial_cmp(..).unwrap_or(Equal)` left NaNs wherever they fell,
        // quietly corrupting every quantile; q_error no longer produces
        // NaN, but the sort must not rely on that.
        qs.sort_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "p ∈ [0, 1] keeps the quantile position within 0..len"
            )]
            let idx = (p * (qs.len() - 1) as f64).round() as usize;
            qs[idx]
        };
        let geo = (qs.iter().map(|q| q.ln()).sum::<f64>() / qs.len() as f64).exp();
        let l1 = pairs.iter().map(|&(c, e)| l1_log_error(c, e)).sum::<f64>() / pairs.len() as f64;
        Some(QErrorStats {
            count: qs.len(),
            min: qs[0],
            p25: pct(0.25),
            median: pct(0.5),
            p75: pct(0.75),
            p95: pct(0.95),
            max: qs[qs.len() - 1],
            geo_mean: geo,
            l1_log: l1,
        })
    }

    /// One-line rendering used by the bench binaries.
    pub fn render(&self) -> String {
        format!(
            "n={:<4} min={:<8.2} p25={:<8.2} med={:<8.2} p75={:<8.2} p95={:<10.2} max={:<12.2} gmean={:<8.2}",
            self.count, self.min, self.p25, self.median, self.p75, self.p95, self.max, self.geo_mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_symmetry_and_floor() {
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(5.0, 5.0), 1.0);
        // clamping: estimate 0 treated as 1
        assert_eq!(q_error(50.0, 0.0), 50.0);
        assert_eq!(q_error(0.0, 0.0), 1.0);
    }

    #[test]
    fn l1_log_error_is_log_scale() {
        assert!((l1_log_error(1000.0, 10.0) - 2.0).abs() < 1e-12);
        assert_eq!(l1_log_error(7.0, 7.0), 0.0);
    }

    #[test]
    fn stats_quantiles_ordered() {
        let pairs: Vec<(f64, f64)> = (1..=100)
            .map(|i| (100.0, 100.0 * i as f64 / 10.0))
            .collect();
        let s = QErrorStats::from_pairs(&pairs).unwrap();
        assert_eq!(s.count, 100);
        assert!(s.min <= s.p25 && s.p25 <= s.median);
        assert!(s.median <= s.p75 && s.p75 <= s.p95 && s.p95 <= s.max);
        assert!(s.geo_mean >= 1.0);
    }

    #[test]
    fn empty_input_is_none() {
        assert!(QErrorStats::from_pairs(&[]).is_none());
    }

    #[test]
    fn non_finite_estimates_map_to_infinite_q_error() {
        assert_eq!(q_error(100.0, f64::NAN), f64::INFINITY);
        assert_eq!(q_error(100.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(q_error(f64::NAN, 100.0), f64::INFINITY);
        assert_eq!(q_error(f64::NEG_INFINITY, 100.0), f64::INFINITY);
    }

    #[test]
    fn stats_survive_non_finite_estimates() {
        // A diverged estimate must land at the top of the distribution,
        // not scramble the sort (the old partial_cmp fallback let a NaN
        // freeze wherever it fell).
        let pairs = vec![(10.0, 10.0), (10.0, f64::NAN), (10.0, 20.0)];
        let s = QErrorStats::from_pairs(&pairs).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, f64::INFINITY);
        assert!(s.min <= s.p25 && s.p25 <= s.median && s.median <= s.p75);
    }

    #[test]
    fn perfect_estimates_have_unit_stats() {
        let pairs = vec![(10.0, 10.0); 5];
        let s = QErrorStats::from_pairs(&pairs).unwrap();
        assert_eq!(s.median, 1.0);
        assert_eq!(s.max, 1.0);
        assert!((s.geo_mean - 1.0).abs() < 1e-12);
        assert_eq!(s.l1_log, 0.0);
    }
}
