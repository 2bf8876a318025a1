//! Shared evaluation machinery for the figure binaries: run every
//! baseline and every LSS variant over a test workload, recording
//! estimates, sampling failures, and per-query latency.

use crate::scenario::{bench_model_config, bench_train_config, Scenario};
use alss_core::encode::EncodingKind;
use alss_core::train::encode_workload;
use alss_core::workload::Workload;
use alss_core::{LearnedSketch, SketchConfig, TrainReport};
use alss_estimators::{
    BoundSketch, CardinalityEstimator, CharacteristicSets, CorrelatedSampling, Impr, JSub,
    LabelIndex, SumRdf, WanderJoin,
};
use alss_matching::{Budget, Semantics};
use alss_telemetry::Stopwatch;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One method's result on one test query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Query size (nodes).
    pub size: usize,
    /// True count.
    pub truth: f64,
    /// Estimated count (0 on failure).
    pub est: f64,
    /// Sampling failure flag.
    pub failed: bool,
    /// Estimation latency in microseconds.
    pub micros: f64,
}

/// One method's results over the whole test workload.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Display name (WJ, CS, LSS-fre, GFlow, ...).
    pub method: String,
    /// Per-query outcomes.
    pub per_query: Vec<QueryResult>,
}

impl MethodResult {
    /// `(truth, est)` pairs for one query size (est clamped ≥ 1).
    pub fn pairs_of_size(&self, size: usize) -> Vec<(f64, f64)> {
        self.per_query
            .iter()
            .filter(|r| r.size == size)
            .map(|r| (r.truth, r.est.max(1.0)))
            .collect()
    }

    /// All `(truth, est)` pairs.
    pub fn pairs(&self) -> Vec<(f64, f64)> {
        self.per_query
            .iter()
            .map(|r| (r.truth, r.est.max(1.0)))
            .collect()
    }

    /// Failure fraction for one size.
    pub fn failure_rate(&self, size: usize) -> f64 {
        let of_size: Vec<_> = self.per_query.iter().filter(|r| r.size == size).collect();
        if of_size.is_empty() {
            return 0.0;
        }
        of_size.iter().filter(|r| r.failed).count() as f64 / of_size.len() as f64
    }

    /// Mean latency (ms) for one size.
    pub fn mean_ms(&self, size: usize) -> f64 {
        let of_size: Vec<_> = self.per_query.iter().filter(|r| r.size == size).collect();
        if of_size.is_empty() {
            return f64::NAN;
        }
        of_size.iter().map(|r| r.micros).sum::<f64>() / of_size.len() as f64 / 1000.0
    }
}

fn run_estimator(
    est: &dyn CardinalityEstimator,
    test: &Workload,
    size_limit: Option<(usize, usize)>,
    seed: u64,
) -> MethodResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let per_query = test
        .queries
        .iter()
        .filter(|q| size_limit.is_none_or(|(lo, hi)| (lo..=hi).contains(&q.size())))
        .map(|q| {
            let watch = Stopwatch::start();
            let e = est.estimate(&q.graph, &mut rng);
            if e.failed {
                alss_telemetry::add("estimator.failures", 1);
            }
            QueryResult {
                size: q.size(),
                truth: q.count as f64,
                est: e.count,
                failed: e.failed,
                micros: watch.record("estimator.query_us"),
            }
        })
        .collect();
    MethodResult {
        method: est.name().to_string(),
        per_query,
    }
}

/// Number of sampling walks, following G-CARE's 3% sampling ratio on
/// `|V|` (floored at 30 so tiny test graphs still draw samples).
pub fn sampling_walks(num_nodes: usize) -> usize {
    (num_nodes * 3 / 100).max(30)
}

/// Run the seven homomorphism baselines of §6.2 on the test workload.
pub fn run_homomorphism_baselines(sc: &Scenario, test: &Workload) -> Vec<MethodResult> {
    let idx = LabelIndex::new(&sc.data);
    let walks = sampling_walks(sc.data.num_nodes());
    let mut out = vec![
        run_estimator(&CharacteristicSets::new(&sc.data), test, None, 11),
        run_estimator(&SumRdf::new(&sc.data), test, None, 12),
    ];
    out.push(run_estimator(
        &Impr::new(&sc.data, walks.min(800), 16),
        test,
        Some((3, 5)),
        13,
    ));
    out.push(run_estimator(
        &CorrelatedSampling::new(&sc.data, 0.3, 17, 50_000_000),
        test,
        None,
        14,
    ));
    out.push(run_estimator(&WanderJoin::new(&idx, walks), test, None, 15));
    out.push(run_estimator(&JSub::new(&idx, walks), test, None, 16));
    out.push(run_estimator(&BoundSketch::new(&sc.data), test, None, 17));
    out
}

/// Run the isomorphism-revised baselines (§6.2: WJ and IMPR).
pub fn run_isomorphism_baselines(sc: &Scenario, test: &Workload) -> Vec<MethodResult> {
    let idx = LabelIndex::new(&sc.data);
    let walks = sampling_walks(sc.data.num_nodes());
    vec![
        run_estimator(&WanderJoin::new_isomorphism(&idx, walks), test, None, 21),
        run_estimator(
            &Impr::new_isomorphism(&sc.data, walks.min(800), 16),
            test,
            Some((3, 5)),
            22,
        ),
    ]
}

/// Time the exact engine (the `GFlow` / `GQL` series of Figs. 8–9).
pub fn run_exact(sc: &Scenario, test: &Workload, budget_per_query: u64) -> MethodResult {
    let name = match sc.semantics {
        Semantics::Homomorphism => "GFlow",
        Semantics::Isomorphism => "GQL",
    };
    let per_query = test
        .queries
        .iter()
        .map(|q| {
            let watch = Stopwatch::start();
            let b = Budget::new(budget_per_query);
            let c = sc.semantics.count(&sc.data, &q.graph, &b).unwrap_or(0);
            QueryResult {
                size: q.size(),
                truth: q.count as f64,
                est: c as f64,
                failed: false,
                micros: watch.record("exact.query_us"),
            }
        })
        .collect();
    MethodResult {
        method: name.to_string(),
        per_query,
    }
}

/// A trained LSS variant's evaluation plus its training metadata.
pub struct LssEval {
    /// Evaluation results (method name `LSS-fre` / `LSS-emb` / `LSS-con`).
    pub result: MethodResult,
    /// Training report.
    pub report: TrainReport,
    /// Encoder build time (embedding pre-training) in seconds.
    pub encoder_secs: f64,
}

/// Train one LSS variant on `train` and evaluate on `test`.
pub fn train_and_eval_lss(
    sc: &Scenario,
    train: &Workload,
    test: &Workload,
    encoding: EncodingKind,
    seed: u64,
) -> LssEval {
    let cfg = SketchConfig {
        encoding,
        hops: 3,
        model: bench_model_config(),
        train: bench_train_config(),
        prone_dim: 32,
        seed,
    };
    let watch = Stopwatch::start();
    let encoder = LearnedSketch::build_encoder(&sc.data, &cfg);
    watch.record("encoder.build_us");
    let encoder_secs = watch.elapsed().as_secs_f64();
    let (sketch, report) = LearnedSketch::train_with_encoder(encoder, train, &cfg);
    let items = encode_workload(sketch.encoder(), test);
    let per_query = test
        .queries
        .iter()
        .zip(&items)
        .map(|(q, (eq, _))| {
            let watch = Stopwatch::start();
            let est = sketch.model().predict(eq).count().unwrap_or(f64::INFINITY);
            QueryResult {
                size: q.size(),
                truth: q.count as f64,
                est,
                failed: false,
                micros: watch.record("lss.predict_us"),
            }
        })
        .collect();
    LssEval {
        result: MethodResult {
            method: encoding.to_string(),
            per_query,
        },
        report,
        encoder_secs,
    }
}

/// Train a sketch with an explicit configuration and summarize test
/// q-error (shared by the ablation binaries).
pub fn train_eval_config(
    sc: &Scenario,
    train: &Workload,
    test: &Workload,
    cfg: &alss_core::SketchConfig,
) -> (alss_core::QErrorStats, TrainReport) {
    let (sketch, report) = alss_core::LearnedSketch::train(&sc.data, train, cfg);
    let pairs: Vec<(f64, f64)> = test
        .queries
        .iter()
        .map(|q| (q.count as f64, sketch.estimate(&q.graph)))
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "bench harness entry point; an empty test workload is a caller bug"
    )]
    let stats = alss_core::QErrorStats::from_pairs(&pairs).expect("non-empty test");
    (stats, report)
}

/// Which LSS encodings apply to a dataset (yago-like: embedding only, the
/// frequency encoding being infeasible at `|Σ| ≈ 10^5`, §6.2).
pub fn encodings_for(dataset: &str) -> Vec<EncodingKind> {
    if dataset == "yago" {
        vec![EncodingKind::Embedding]
    } else {
        vec![
            EncodingKind::Frequency,
            EncodingKind::Embedding,
            EncodingKind::Concatenated,
        ]
    }
}
