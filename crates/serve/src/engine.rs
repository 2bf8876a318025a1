//! Checkpoint loading with bounded retry/backoff, and the shared
//! estimate-computation helpers used by the connection handlers.

use alss_core::LearnedSketch;
use alss_estimators::{CardinalityEstimator, WanderJoin};
use alss_graph::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;
use std::io::ErrorKind;
use std::path::Path;
use std::time::Duration;

/// One computed estimate, independent of how it was produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// `log10 ĉ(q)`.
    pub log10: f64,
    /// Count-magnitude class.
    pub magnitude_class: u64,
    /// `true` when produced by the fallback estimator.
    pub degraded: bool,
}

/// Load a checkpoint, retrying transient read failures with exponential
/// backoff. A parse failure (`InvalidData`) is permanent and fails
/// immediately; anything else (file mid-write, NFS hiccup, missing file
/// during deploy) is retried up to `attempts` times total, sleeping
/// `base_backoff * 2^k` between tries.
pub fn load_sketch_with_retry(
    path: &Path,
    attempts: u32,
    base_backoff: Duration,
) -> Result<LearnedSketch, String> {
    let attempts = attempts.max(1);
    let mut delay = base_backoff;
    let mut last_err = String::new();
    for attempt in 0..attempts {
        match LearnedSketch::load(path) {
            Ok(sketch) => return Ok(sketch),
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                return Err(format!("checkpoint {}: {e}", path.display()));
            }
            Err(e) => {
                last_err = e.to_string();
                alss_telemetry::add("serve.model_load_retry", 1);
                alss_telemetry::event(
                    "serve.model_load_retry",
                    &[("attempt", Value::UInt(u64::from(attempt)))],
                );
                if attempt + 1 < attempts {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
            }
        }
    }
    Err(format!(
        "checkpoint {}: {last_err} (after {attempts} attempts)",
        path.display()
    ))
}

/// Magnitude class of a `log10` estimate without a truncating float cast:
/// the largest `c ≤ 20` with `c ≤ log10`.
pub fn magnitude_class_of(log10: f64) -> u64 {
    let mut class = 0u64;
    #[expect(
        clippy::cast_precision_loss,
        reason = "class ≤ 20, exactly representable"
    )]
    while class < 20 && ((class + 1) as f64) <= log10 {
        class += 1;
    }
    class
}

/// Compute a full-quality model estimate, or `None` when the model's
/// output has no finite count ([`Prediction::count`]: finite weights can
/// still overflow, and a finite `log10` of about 308.3 or more overflows
/// the linear count) or a non-finite class probability, which is no
/// estimate to serve or cache.
///
/// [`Prediction::count`]: alss_core::Prediction::count
pub fn model_outcome(sketch: &LearnedSketch, query: &Graph) -> Option<Outcome> {
    let pred = sketch.predict(query);
    let finite = pred.count().is_some() && pred.class_probs.iter().all(|p| p.is_finite());
    finite.then(|| Outcome {
        log10: pred.log10_count,
        magnitude_class: u64::try_from(pred.top_class()).unwrap_or(u64::MAX),
        degraded: false,
    })
}

/// Deterministic fallback estimate: Wander Join seeded from the query's
/// canonical hash, so the same query always gets the same degraded answer
/// at any thread count.
pub fn fallback_outcome(wj: &WanderJoin<'_>, query: &Graph, canon_hash: u64) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(0x5EED_FA11 ^ canon_hash);
    let est = wj.estimate(query, &mut rng);
    let count = est.clamped().max(1.0);
    Outcome {
        log10: count.log10(),
        magnitude_class: magnitude_class_of(count.log10()),
        degraded: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_classes() {
        assert_eq!(magnitude_class_of(-2.0), 0);
        assert_eq!(magnitude_class_of(0.0), 0);
        assert_eq!(magnitude_class_of(0.99), 0);
        assert_eq!(magnitude_class_of(1.0), 1);
        assert_eq!(magnitude_class_of(3.7), 3);
        assert_eq!(magnitude_class_of(1e9), 20);
    }

    fn err_of(res: Result<LearnedSketch, String>) -> String {
        match res {
            Ok(_) => panic!("expected load failure"),
            Err(e) => e,
        }
    }

    #[test]
    fn missing_checkpoint_reports_after_retries() {
        let err = err_of(load_sketch_with_retry(
            Path::new("/nonexistent/alss-sketch.json"),
            2,
            Duration::from_millis(1),
        ));
        assert!(err.contains("after 2 attempts"), "{err}");
    }

    #[test]
    fn corrupt_checkpoint_fails_fast() {
        let path = std::env::temp_dir().join("alss_serve_corrupt_ckpt.json");
        std::fs::write(&path, "{ not a sketch").unwrap();
        let start = std::time::Instant::now();
        let err = err_of(load_sketch_with_retry(&path, 5, Duration::from_millis(100)));
        std::fs::remove_file(&path).ok();
        assert!(
            start.elapsed() < Duration::from_millis(90),
            "no backoff spent"
        );
        assert!(!err.is_empty());
    }
}
