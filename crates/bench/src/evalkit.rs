//! The figure binaries' shared evaluation harness. Every method's outcome
//! on a test workload is one [`MethodResult`]: per-query truth, estimate,
//! sampling failure and latency. An LSS variant is trained from a
//! [`SketchConfig`] ([`train_and_eval_lss`]) and scored by the one LSS
//! scorer, [`score_sketch`]; [`run_baselines`] runs the baselines of the
//! scenario's semantics and [`run_exact`] times the exact engine.
//! [`lss_vs_baselines`] is the comparison Figs. 4, 7, 8 and 9 make on each
//! dataset, [`qerror_table`] and [`latency_table`] are their per-size
//! tables, and [`ablation_sweep`] is the single-knob ablations' loop.

use crate::scenario::{bench_sketch_config, load_scenario, Scenario};
use crate::table::{fnum, TableWriter};
use alss_core::encode::EncodingKind;
use alss_core::train::encode_workload_with;
use alss_core::workload::Workload;
use alss_core::{LearnedSketch, Parallelism, QErrorStats, SketchConfig, TrainReport};
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
    /// The results on queries of one size.
    pub fn of_size(&self, size: usize) -> impl Iterator<Item = &QueryResult> {
        self.per_query.iter().filter(move |r| r.size == size)
    }

    /// `(truth, est)` pairs for one query size (est clamped ≥ 1).
    pub fn pairs_of_size(&self, size: usize) -> Vec<(f64, f64)> {
        self.of_size(size)
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

    /// Failure fraction for one size (0 when it has no queries).
    pub fn failure_rate(&self, size: usize) -> f64 {
        let n = self.of_size(size).count();
        if n == 0 {
            return 0.0;
        }
        self.of_size(size).filter(|r| r.failed).count() as f64 / n as f64
    }

    /// Mean latency (ms) for one size (NaN when it has no queries).
    pub fn mean_ms(&self, size: usize) -> f64 {
        let n = self.of_size(size).count();
        self.of_size(size).map(|r| r.micros).sum::<f64>() / n as f64 / 1000.0
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

/// Run the baselines of the scenario's semantics on the test workload:
/// the seven homomorphism baselines of §6.2, or its isomorphism-revised
/// WJ and IMPR.
pub fn run_baselines(sc: &Scenario, test: &Workload) -> Vec<MethodResult> {
    let idx = LabelIndex::new(&sc.data);
    let walks = sampling_walks(sc.data.num_nodes());
    match sc.semantics {
        Semantics::Homomorphism => vec![
            run_estimator(&CharacteristicSets::new(&sc.data), test, None, 11),
            run_estimator(&SumRdf::new(&sc.data), test, None, 12),
            run_estimator(
                &Impr::new(&sc.data, walks.min(800), 16),
                test,
                Some((3, 5)),
                13,
            ),
            run_estimator(
                &CorrelatedSampling::new(&sc.data, 0.3, 17, 50_000_000),
                test,
                None,
                14,
            ),
            run_estimator(&WanderJoin::new(&idx, walks), test, None, 15),
            run_estimator(&JSub::new(&idx, walks), test, None, 16),
            run_estimator(&BoundSketch::new(&sc.data), test, None, 17),
        ],
        Semantics::Isomorphism => vec![
            run_estimator(&WanderJoin::new_isomorphism(&idx, walks), test, None, 21),
            run_estimator(
                &Impr::new_isomorphism(&sc.data, walks.min(800), 16),
                test,
                Some((3, 5)),
                22,
            ),
        ],
    }
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

/// Score a trained sketch on a test workload: each query's truth, its
/// estimate from [`LssModel::predict`](alss_core::LssModel::predict) on
/// the encoded query (the bits [`LearnedSketch::estimate`] returns) and
/// that predict's latency. The method is named after the encoding.
pub fn score_sketch(sketch: &LearnedSketch, test: &Workload) -> MethodResult {
    let items = encode_workload_with(sketch.encoder(), test, Parallelism::auto());
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
    MethodResult {
        method: sketch.encoder().kind().to_string(),
        per_query,
    }
}

/// Train one LSS variant with `cfg` on `train` and score it on `test`.
pub fn train_and_eval_lss(
    sc: &Scenario,
    train: &Workload,
    test: &Workload,
    cfg: &SketchConfig,
) -> LssEval {
    let watch = Stopwatch::start();
    let encoder = LearnedSketch::build_encoder(&sc.data, cfg);
    watch.record("encoder.build_us");
    let encoder_secs = watch.elapsed().as_secs_f64();
    let (sketch, report) = LearnedSketch::train_with_encoder(encoder, train, cfg);
    LssEval {
        result: score_sketch(&sketch, test),
        report,
        encoder_secs,
    }
}

/// The comparison of Figs. 4, 7, 8 and 9 on one scenario: split it with
/// `split_seed`, train and score every LSS variant of its dataset (sketch
/// seed `lss_seed`), then run its baselines. Returns the train and test
/// parts and the methods, LSS variants first.
pub fn lss_vs_baselines(
    sc: &Scenario,
    split_seed: u64,
    lss_seed: u64,
) -> (Workload, Workload, Vec<MethodResult>) {
    let (train, test) = sc.split(split_seed);
    let mut methods: Vec<MethodResult> = encodings_for(&sc.name)
        .into_iter()
        .map(|enc| {
            alss_telemetry::progress("evalkit", &format!("{}: training {enc}", sc.name));
            let cfg = bench_sketch_config(enc, lss_seed);
            train_and_eval_lss(sc, &train, &test, &cfg).result
        })
        .collect();
    alss_telemetry::progress("evalkit", &format!("{}: running baselines", sc.name));
    methods.extend(run_baselines(sc, &test));
    (train, test, methods)
}

/// A q-error cell: the distribution of `(truth, est)` pairs, or "n/a"
/// when there are none.
pub fn qerror_cell(pairs: &[(f64, f64)]) -> String {
    QErrorStats::from_pairs(pairs).map_or_else(|| "n/a".to_string(), |s| s.render())
}

/// The per-size q-error table of Figs. 4 and 7: a row per query size and
/// method. A method that failed to sample every query of a size reads
/// "all queries failed" (the paper omits it there), one that ran none
/// reads "n/a".
pub fn qerror_table(test: &Workload, methods: &[MethodResult]) -> TableWriter {
    let mut t = TableWriter::new(&["size", "method", "q-error distribution"]);
    for size in test.sizes() {
        for m in methods {
            let pairs = m.pairs_of_size(size);
            let all_failed = m.of_size(size).all(|r| r.failed);
            let cell = if all_failed && !pairs.is_empty() {
                "all queries failed".to_string()
            } else {
                qerror_cell(&pairs)
            };
            t.row(vec![size.to_string(), m.method.clone(), cell]);
        }
    }
    t
}

/// The per-size latency table of Figs. 8 and 9: a row per method and a
/// column per query size, each cell the mean milliseconds per query ("-"
/// where the method ran none of that size).
pub fn latency_table(test: &Workload, methods: &[MethodResult]) -> TableWriter {
    let sizes = test.sizes();
    let size_labels: Vec<String> = sizes.iter().map(|s| format!("{s}-node")).collect();
    let mut header = vec!["method"];
    header.extend(size_labels.iter().map(String::as_str));
    let mut t = TableWriter::new(&header);
    for m in methods {
        let mut row = vec![m.method.clone()];
        row.extend(sizes.iter().map(|&s| {
            let ms = m.mean_ms(s);
            if ms.is_nan() {
                "-".to_string()
            } else {
                fnum(ms)
            }
        }));
        t.row(row);
    }
    t
}

/// One knob setting of a single-knob ablation, on one dataset.
pub struct AblationRow {
    /// Dataset name.
    pub dataset: String,
    /// Test queries the setting was scored on.
    pub test_len: usize,
    /// The setting's label.
    pub label: String,
    /// Its test q-error cell (see [`qerror_cell`]).
    pub qerror: String,
    /// Its training time in seconds.
    pub train_secs: f64,
}

/// The single-knob ablations' loop: on each dataset's homomorphism
/// scenario, split with `seed`, train an LSS-emb sketch (seed `seed`) per
/// `(label, knob)` setting, `set` applying the knob to the shared
/// [`bench_sketch_config`], and score it on the test part. Rows come
/// dataset by dataset, settings in order.
pub fn ablation_sweep<K: Copy>(
    datasets: &[&str],
    seed: u64,
    knobs: &[(String, K)],
    set: impl Fn(&mut SketchConfig, K),
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for &name in datasets {
        let sc = load_scenario(name, Semantics::Homomorphism);
        let (train, test) = sc.split(seed);
        for (label, knob) in knobs {
            let mut cfg = bench_sketch_config(EncodingKind::Embedding, seed);
            set(&mut cfg, *knob);
            let eval = train_and_eval_lss(&sc, &train, &test, &cfg);
            rows.push(AblationRow {
                dataset: name.to_string(),
                test_len: test.len(),
                label: label.clone(),
                qerror: qerror_cell(&eval.result.pairs()),
                train_secs: eval.report.duration.as_secs_f64(),
            });
        }
    }
    rows
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
