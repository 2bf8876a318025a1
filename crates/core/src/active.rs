//! The active learner AL (§5): pool-based uncertainty sampling driven by
//! the auxiliary magnitude classifier, plus the passive (random) and
//! model-ensemble baselines of §6.4.

use crate::encode::EncodedQuery;
use crate::model::{LssModel, Prediction};
use crate::parallel::{par_map, Parallelism};
use crate::train::weighted_sample_without_replacement;
use rand::Rng;

/// Uncertainty / selection strategies compared in Fig. 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// RAN — uniform random selection (passive learning).
    Random,
    /// CON — classification confidence: `1 − max_i p(y_i|q)`.
    Confidence,
    /// MAR — margin between the top-two classes.
    ///
    /// The paper's text defines `φ_MAR = p(ŷ₁) − p(ŷ₂)` yet samples
    /// *proportionally to uncertainty*; we use the standard margin
    /// uncertainty `1 − (p(ŷ₁) − p(ŷ₂))` (small margin ⇒ uncertain),
    /// consistent with the paper's observation that MAR underperforms.
    Margin,
    /// ENT — entropy of the class posterior.
    Entropy,
    /// CTC — cross-task consistency: `|ŷ₁ − log10 c_Θ(q)|²`.
    CrossTask,
}

impl Strategy {
    /// Display name matching Fig. 10.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Random => "RAN",
            Strategy::Confidence => "CON",
            Strategy::Margin => "MAR",
            Strategy::Entropy => "ENT",
            Strategy::CrossTask => "CTC",
        }
    }

    /// All strategies, in the paper's presentation order.
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::Random,
            Strategy::Confidence,
            Strategy::Margin,
            Strategy::Entropy,
            Strategy::CrossTask,
        ]
    }
}

/// The uncertainty score `φ(q; Θ)` of a prediction under a strategy
/// (higher ⇒ more informative). [`Strategy::Random`] scores 1 for all.
///
/// A degenerate prediction — empty posterior, non-finite class
/// probability, or (for [`Strategy::CrossTask`]) non-finite regression
/// output — scores 0 rather than poisoning the sampling weights with
/// NaN/±inf (an empty posterior previously made Confidence fold to
/// `1 − (−inf) = +inf` and Margin panic on `top_two`).
pub fn uncertainty(strategy: Strategy, pred: &Prediction) -> f64 {
    if matches!(strategy, Strategy::Random) {
        return 1.0;
    }
    let posterior_ok =
        !pred.class_probs.is_empty() && pred.class_probs.iter().all(|p| p.is_finite());
    let degenerate = match strategy {
        Strategy::CrossTask => !posterior_ok || !pred.log10_count.is_finite(),
        _ => !posterior_ok,
    };
    if degenerate {
        alss_telemetry::add("active.degenerate_predictions", 1);
        return 0.0;
    }
    match strategy {
        Strategy::Random => 1.0,
        Strategy::Confidence => {
            let pmax = pred
                .class_probs
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            1.0 - pmax
        }
        Strategy::Margin => {
            let (y1, y2) = pred.top_two();
            1.0 - (pred.class_probs[y1] - pred.class_probs[y2])
        }
        Strategy::Entropy => -pred
            .class_probs
            .iter()
            .filter(|&&p| p > 1e-12)
            .map(|&p| p * p.ln())
            .sum::<f64>(),
        Strategy::CrossTask => {
            let y1 = pred.top_class() as f64;
            (y1 - pred.log10_count).powi(2)
        }
    }
}

/// Select a batch of `budget` pool indices by normalized-uncertainty
/// weighted sampling (§5 steps ①–②), scoring the pool on `par` threads.
/// Scoring is pure per item and weights come back in pool order, so for
/// a fixed `rng` state the selection is identical at any thread count.
pub fn select_batch<R: Rng>(
    model: &LssModel,
    pool: &[EncodedQuery],
    strategy: Strategy,
    budget: usize,
    rng: &mut R,
    par: Parallelism,
) -> Vec<usize> {
    let weights = par_map(par, pool, |_, eq| uncertainty(strategy, &model.predict(eq)));
    weighted_sample_without_replacement(&weights, budget, rng)
}

/// Model-ensemble baseline (ENS, §6.4): a committee of independently
/// initialized/trained LSS models. Prediction is the geometric mean of the
/// member counts; uncertainty is the variance of the members' log10
/// predictions.
pub struct LssEnsemble {
    /// Committee members.
    pub models: Vec<LssModel>,
}

impl LssEnsemble {
    /// Wrap trained members.
    pub fn new(models: Vec<LssModel>) -> Self {
        assert!(!models.is_empty(), "empty ensemble");
        LssEnsemble { models }
    }

    /// Geometric-mean count prediction.
    pub fn predict_count(&self, eq: &EncodedQuery) -> f64 {
        let mean_log: f64 = self
            .models
            .iter()
            .map(|m| m.predict(eq).log10_count)
            .sum::<f64>()
            / self.models.len() as f64;
        10f64.powf(mean_log).max(1.0)
    }

    /// Committee disagreement: variance of the members' log10 predictions.
    pub fn uncertainty(&self, eq: &EncodedQuery) -> f64 {
        let preds: Vec<f64> = self
            .models
            .iter()
            .map(|m| m.predict(eq).log10_count)
            .collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64
    }

    /// Select a batch by committee-variance weighted sampling, scoring
    /// the pool on `par` threads; for a fixed `rng` state the selection
    /// is identical at any thread count.
    pub fn select_batch<R: Rng>(
        &self,
        pool: &[EncodedQuery],
        budget: usize,
        rng: &mut R,
        par: Parallelism,
    ) -> Vec<usize> {
        let weights = par_map(par, pool, |_, eq| self.uncertainty(eq));
        weighted_sample_without_replacement(&weights, budget, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(probs: Vec<f64>, log10: f64) -> Prediction {
        Prediction {
            log10_count: log10,
            class_probs: probs,
        }
    }

    #[test]
    fn confidence_prefers_flat_posteriors() {
        let confident = pred(vec![0.9, 0.05, 0.05], 0.0);
        let unsure = pred(vec![0.4, 0.35, 0.25], 0.0);
        assert!(
            uncertainty(Strategy::Confidence, &unsure)
                > uncertainty(Strategy::Confidence, &confident)
        );
    }

    #[test]
    fn margin_prefers_close_top_two() {
        let clear = pred(vec![0.8, 0.1, 0.1], 0.0);
        let tight = pred(vec![0.45, 0.44, 0.11], 0.0);
        assert!(uncertainty(Strategy::Margin, &tight) > uncertainty(Strategy::Margin, &clear));
    }

    #[test]
    fn entropy_maximal_on_uniform() {
        let uniform = pred(vec![1.0 / 3.0; 3], 0.0);
        let peaked = pred(vec![0.98, 0.01, 0.01], 0.0);
        let eu = uncertainty(Strategy::Entropy, &uniform);
        assert!((eu - (3.0f64).ln()).abs() < 1e-9);
        assert!(eu > uncertainty(Strategy::Entropy, &peaked));
    }

    #[test]
    fn cross_task_measures_head_disagreement() {
        // classifier says magnitude 5, regressor says 5.0 → consistent
        let consistent = pred(vec![0., 0., 0., 0., 0., 1.0], 5.0);
        // classifier says 5, regressor says 2.0 → inconsistent
        let inconsistent = pred(vec![0., 0., 0., 0., 0., 1.0], 2.0);
        assert_eq!(uncertainty(Strategy::CrossTask, &consistent), 0.0);
        assert!((uncertainty(Strategy::CrossTask, &inconsistent) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn random_is_flat() {
        let a = pred(vec![0.9, 0.1], 0.0);
        let b = pred(vec![0.5, 0.5], 3.0);
        assert_eq!(
            uncertainty(Strategy::Random, &a),
            uncertainty(Strategy::Random, &b)
        );
    }

    #[test]
    fn ensemble_geometric_mean_and_variance() {
        use crate::encode::Encoder;
        use crate::model::{LssConfig, LssModel};
        use alss_graph::builder::graph_from_edges;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let data = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let enc = Encoder::frequency(&data, 2);
        let models: Vec<LssModel> = (0..3)
            .map(|s| {
                let mut rng = SmallRng::seed_from_u64(s);
                LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng)
            })
            .collect();
        let ens = LssEnsemble::new(models);
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        let eq = enc.encode_query(&q);
        let c = ens.predict_count(&eq);
        assert!(c.is_finite() && c >= 1.0);
        // geometric mean in log space: must lie within the member range
        let members: Vec<f64> = ens
            .models
            .iter()
            .map(|m| m.predict(&eq).log10_count)
            .collect();
        let lo = members.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = members.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean_log = c.log10();
        assert!(mean_log >= lo - 1e-9 && mean_log <= hi + 1e-9);
        // variance is non-negative and zero for a single-model committee
        assert!(ens.uncertainty(&eq) >= 0.0);
        let solo = LssEnsemble::new(vec![ens.models[0].clone()]);
        assert_eq!(solo.uncertainty(&eq), 0.0);
    }

    #[test]
    fn ensemble_selects_from_pool() {
        use crate::encode::Encoder;
        use crate::model::{LssConfig, LssModel};
        use alss_graph::builder::graph_from_edges;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let data = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let enc = Encoder::frequency(&data, 2);
        let models: Vec<LssModel> = (0..2)
            .map(|s| {
                let mut rng = SmallRng::seed_from_u64(10 + s);
                LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng)
            })
            .collect();
        let ens = LssEnsemble::new(models);
        let pool: Vec<_> = [
            graph_from_edges(&[0, 1], &[(0, 1)]),
            graph_from_edges(&[1, 0, 0], &[(0, 1), (1, 2)]),
            graph_from_edges(&[0, 0], &[(0, 1)]),
        ]
        .iter()
        .map(|g| enc.encode_query(g))
        .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let sel = ens.select_batch(&pool, 2, &mut rng, Parallelism::auto());
        assert_eq!(sel.len(), 2);
        assert_ne!(sel[0], sel[1]);
        assert!(sel.iter().all(|&i| i < 3));
    }

    #[test]
    fn strategy_names_match_paper() {
        let names: Vec<_> = Strategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["RAN", "CON", "MAR", "ENT", "CTC"]);
    }

    #[test]
    fn empty_posterior_scores_zero_not_inf() {
        // Regression: an empty posterior made Confidence fold to
        // 1 − (−inf) = +inf and Margin panic inside top_two.
        let empty = pred(vec![], 2.0);
        for s in [
            Strategy::Confidence,
            Strategy::Margin,
            Strategy::Entropy,
            Strategy::CrossTask,
        ] {
            assert_eq!(uncertainty(s, &empty), 0.0, "{}", s.name());
        }
        assert_eq!(uncertainty(Strategy::Random, &empty), 1.0);
    }

    #[test]
    fn non_finite_posterior_scores_zero() {
        let nan = pred(vec![0.5, f64::NAN, 0.5], 2.0);
        let inf = pred(vec![f64::INFINITY, 0.0], 2.0);
        for s in [
            Strategy::Confidence,
            Strategy::Margin,
            Strategy::Entropy,
            Strategy::CrossTask,
        ] {
            assert_eq!(uncertainty(s, &nan), 0.0, "{} on NaN", s.name());
            assert_eq!(uncertainty(s, &inf), 0.0, "{} on inf", s.name());
        }
    }

    #[test]
    fn cross_task_guards_non_finite_regression_output() {
        let bad_reg = pred(vec![0.2, 0.8], f64::INFINITY);
        assert_eq!(uncertainty(Strategy::CrossTask, &bad_reg), 0.0);
        // the classifier-only strategies still score a healthy posterior
        assert!(uncertainty(Strategy::Confidence, &bad_reg) > 0.0);
    }
}
