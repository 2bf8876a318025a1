//! The offline sketch build: label a fixed candidate set by exact
//! counting (`generate_workload`), train the `alss train` default sketch
//! for a fixed number of epochs on two threads, and score a held-out pool
//! (`encode_workload_with` + `evaluate_with`).
//!
//! The build's inputs do not depend on the run seed: the data graph, the
//! candidate set and every training seed are constants, so each run
//! repeats the same work and its timings compare across runs. The data
//! graph is the youtube analogue, a preferential-attachment graph whose
//! exact-count work per root is very uneven; that is the case a parallel
//! labeler has to handle.

use crate::trace::Tracer;
use alss_core::{
    encode_workload_with, evaluate_with, train_model, EncodingKind, LabeledQuery, LearnedSketch,
    LssModel, Parallelism, QErrorStats, SketchConfig, TrainConfig, Workload,
};
use alss_datasets::{generate_workload, WorkloadSpec};
use alss_graph::extract::{extract_query, ExtractOptions};
use alss_graph::io::to_text;
use alss_graph::Graph;
use alss_matching::{Budget, Semantics};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;

/// Data graph: the youtube analogue.
pub const DATASET: &str = "youtube";
/// Scale of the data graph (1.0 = the repository's default size).
pub const SCALE: f64 = 0.2;
/// Generator seed of the data graph.
pub const DATA_SEED: u64 = 7;
/// Labeled query sizes.
pub const SIZES: [usize; 3] = [4, 8, 16];
/// Labeled queries kept per size.
pub const PER_SIZE: usize = 40;
/// Exact-count expansion budget per candidate.
pub const BUDGET: u64 = 2_000_000;
/// Candidate extraction seed.
const WORKLOAD_SEED: u64 = 3;
/// Train/held-out split seed and training share.
const SPLIT_SEED: u64 = 11;
const TRAIN_SHARE: f64 = 0.75;
/// Training epochs.
pub const EPOCHS: usize = 12;
/// Threads for training and bulk scoring.
pub const THREADS: usize = 2;
/// Scoring passes of each repetition: their estimates are what later
/// repetitions must reproduce, and the traced run times them.
const REP_SCORE_PASSES: u64 = 5;
/// Each [`Builder::score`] call scores the held-out pool for this long.
const SCORE_SLICE_S: f64 = 0.15;

/// The data graph every run builds on and serves.
pub fn data_graph() -> Graph {
    alss_datasets::by_name(DATASET, SCALE, DATA_SEED).expect("youtube is a known dataset")
}

fn workload_spec() -> WorkloadSpec {
    WorkloadSpec {
        sizes: SIZES.to_vec(),
        per_size: PER_SIZE,
        semantics: Semantics::Homomorphism,
        budget_per_query: BUDGET,
        wildcard_prob: 0.0,
        induced: false,
        seed: WORKLOAD_SEED,
    }
}

/// The `alss train` defaults (ProNE embedding, 32 hidden units, 2 GIN
/// layers, dropout 0.1, ProNE dimension 32, seed 42) with a fixed epoch
/// count and thread count.
pub fn sketch_config() -> SketchConfig {
    let mut cfg = SketchConfig {
        encoding: EncodingKind::Embedding,
        ..SketchConfig::default()
    };
    cfg.model.hidden = 32;
    cfg.model.gnn_layers = 2;
    cfg.model.dropout = 0.1;
    cfg.train = TrainConfig {
        epochs: EPOCHS,
        parallelism: Parallelism::fixed(THREADS),
        ..TrainConfig::default()
    };
    cfg.prone_dim = 32;
    cfg.seed = 42;
    cfg
}

/// Labeling counts from a traced run.
pub struct MatchingStats {
    /// Candidates counted.
    pub candidates: usize,
    /// Candidates labeled (count ≥ 1 within budget).
    pub kept: usize,
    /// Expansions consumed across all candidates.
    pub expansions: u64,
}

/// What the build produced and how long each phase took.
pub struct Built {
    /// Labeled queries.
    pub labeled: usize,
    /// Training queries.
    pub train_queries: usize,
    /// Held-out queries.
    pub test_queries: usize,
    /// Wall time of labeling, one per repetition.
    pub label_s: Vec<f64>,
    /// Wall time of training (ProNE, encoding, epochs), one per repetition.
    pub train_s: Vec<f64>,
    /// Queries per second of each scoring pass of [`Builder::score`].
    pub score_qps: Vec<f64>,
    /// Q-error of the held-out pool.
    pub qerror: QErrorStats,
    /// Labeling counts (traced runs only).
    pub matching: Option<MatchingStats>,
    /// Repetitions, or traced copies of library code, that did not
    /// reproduce the reference build.
    pub mismatches: Vec<String>,
}

/// One repetition of the build.
struct Rep {
    all: Workload,
    test_w: Workload,
    sketch: LearnedSketch,
    label_s: f64,
    train_s: f64,
    pairs: Vec<(f64, f64)>,
    matching: Option<MatchingStats>,
}

/// Label, train and score once; with tracing on, time each layer call
/// separately.
fn rep(data: &Graph, spec: &WorkloadSpec, cfg: &SketchConfig, tr: &mut Tracer) -> Rep {
    let t = Instant::now();
    let (all, matching) = if tr.is_on() {
        let (w, m) = label_traced(data, spec, tr);
        (w, Some(m))
    } else {
        (generate_workload(data, spec), None)
    };
    let label_s = t.elapsed().as_secs_f64();

    let (train_w, test_w) =
        all.stratified_split(TRAIN_SHARE, &mut SmallRng::seed_from_u64(SPLIT_SEED));
    assert!(
        !train_w.is_empty() && !test_w.is_empty(),
        "the build workload is empty"
    );
    let t = Instant::now();
    let sketch = if tr.is_on() {
        train_traced(data, &train_w, cfg, tr)
    } else {
        LearnedSketch::train(data, &train_w, cfg).0
    };
    let train_s = t.elapsed().as_secs_f64();

    let par = Parallelism::fixed(THREADS);
    let mut pairs = Vec::new();
    for pass in 0..REP_SCORE_PASSES {
        let s = tr.open("core.encode.batch", pass, None);
        let items = encode_workload_with(sketch.encoder(), &test_w, par);
        tr.close(s);
        let s = tr.open("core.model.score", pass, None);
        pairs = evaluate_with(sketch.model(), &items, par);
        tr.close(s);
    }
    Rep {
        all,
        test_w,
        sketch,
        label_s,
        train_s,
        pairs,
        matching,
    }
}

/// Whether two score passes gave bit-identical estimates.
fn same_pairs(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a
            .iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// The build, repeated across a run so that each reported build time is a
/// median over repetitions spread in time, not over one stretch of a
/// shared machine. The first repetition's sketch is the one served; every
/// later repetition must reproduce its workload and predictions.
pub struct Builder {
    spec: WorkloadSpec,
    cfg: SketchConfig,
    first: Rep,
    label_s: Vec<f64>,
    train_s: Vec<f64>,
    score_qps: Vec<f64>,
    mismatches: Vec<String>,
}

impl Builder {
    /// Run the first repetition. With tracing on it is traced, and its
    /// copies of library code are checked against the library.
    pub fn new(data: &Graph, tr: &mut Tracer) -> Builder {
        let spec = workload_spec();
        let cfg = sketch_config();
        let first = rep(data, &spec, &cfg, tr);
        let mut mismatches = Vec::new();
        if tr.is_on() {
            if !same_workload(&first.all, &generate_workload(data, &spec)) {
                mismatches.push("traced labeling differs from generate_workload".to_string());
            }
            let (train_w, _) = first
                .all
                .stratified_split(TRAIN_SHARE, &mut SmallRng::seed_from_u64(SPLIT_SEED));
            let library = LearnedSketch::train(data, &train_w, &cfg).0;
            let par = Parallelism::fixed(THREADS);
            let items = encode_workload_with(library.encoder(), &first.test_w, par);
            if !same_pairs(&first.pairs, &evaluate_with(library.model(), &items, par)) {
                mismatches.push("traced training differs from LearnedSketch::train".to_string());
            }
        }
        Builder {
            label_s: vec![first.label_s],
            train_s: vec![first.train_s],
            score_qps: Vec::new(),
            spec,
            cfg,
            first,
            mismatches,
        }
    }

    /// The sketch the first repetition trained.
    pub fn sketch(&self) -> &LearnedSketch {
        &self.first.sketch
    }

    /// Run one more untraced repetition.
    pub fn repeat(&mut self, data: &Graph) {
        let r = rep(data, &self.spec, &self.cfg, &mut Tracer::new(false));
        if !same_workload(&self.first.all, &r.all) || !same_pairs(&self.first.pairs, &r.pairs) {
            let i = self.label_s.len();
            self.mismatches
                .push(format!("build repetition {i} differs from the first"));
        }
        self.label_s.push(r.label_s);
        self.train_s.push(r.train_s);
    }

    /// Score the held-out pool with the served sketch for about
    /// [`SCORE_SLICE_S`], one `score_qps` sample per pass. Called at many
    /// points of a run, so that the host's slow spells, which last
    /// seconds, move few samples. Every pass must reproduce the first
    /// repetition's estimates.
    pub fn score(&mut self) {
        let par = Parallelism::fixed(THREADS);
        let (sketch, test_w) = (&self.first.sketch, &self.first.test_w);
        let started = Instant::now();
        loop {
            let t = Instant::now();
            let items = encode_workload_with(sketch.encoder(), test_w, par);
            let pairs = evaluate_with(sketch.model(), &items, par);
            self.score_qps
                .push(test_w.len() as f64 / t.elapsed().as_secs_f64());
            if !same_pairs(&self.first.pairs, &pairs) {
                self.mismatches
                    .push("a scoring pass differs from the first repetition's".to_string());
            }
            if started.elapsed().as_secs_f64() >= SCORE_SLICE_S {
                break;
            }
        }
    }

    /// Every repetition's timings and the first one's accuracy.
    pub fn finish(self) -> Built {
        let first = self.first;
        let qerror =
            QErrorStats::from_pairs(&first.pairs).expect("the held-out pool is not empty");
        Built {
            labeled: first.all.len(),
            train_queries: first.all.len() - first.test_w.len(),
            test_queries: first.test_w.len(),
            label_s: self.label_s,
            train_s: self.train_s,
            score_qps: self.score_qps,
            qerror,
            matching: first.matching,
            mismatches: self.mismatches,
        }
    }
}

/// `generate_workload`'s candidate extraction and labeling, with a span
/// around each exact count.
fn label_traced(data: &Graph, spec: &WorkloadSpec, tr: &mut Tracer) -> (Workload, MatchingStats) {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let opts = ExtractOptions {
        induced: spec.induced,
        extra_edge_prob: 0.4,
        wildcard_prob: spec.wildcard_prob,
        drop_edge_labels: false,
    };
    let mut stats = MatchingStats {
        candidates: 0,
        kept: 0,
        expansions: 0,
    };
    let mut queries = Vec::new();
    for &size in &spec.sizes {
        let mut cands: Vec<Graph> = Vec::new();
        let mut seen = HashSet::new();
        for _ in 0..spec.per_size * 10 {
            if cands.len() >= spec.per_size * 3 {
                break;
            }
            if let Some(q) = extract_query(data, size, &opts, &mut rng) {
                if seen.insert(to_text(&q)) {
                    cands.push(q);
                }
            }
        }
        let mut labeled = Vec::new();
        for q in cands {
            let budget = Budget::new(spec.budget_per_query);
            let s = tr.open("matching.count", stats.candidates as u64, None);
            let counted = spec.semantics.count(data, &q, &budget);
            tr.close(s);
            stats.candidates += 1;
            stats.expansions += spec.budget_per_query - budget.remaining();
            if let Ok(c) = counted {
                if c >= 1 {
                    stats.kept += 1;
                    labeled.push(LabeledQuery::new(q, c));
                }
            }
        }
        queries.extend(labeled.into_iter().take(spec.per_size));
    }
    (Workload::from_queries(queries), stats)
}

fn same_workload(a: &Workload, b: &Workload) -> bool {
    a.len() == b.len()
        && a.queries
            .iter()
            .zip(&b.queries)
            .all(|(x, y)| x.count == y.count && to_text(&x.graph) == to_text(&y.graph))
}

/// `LearnedSketch::train`, one layer call at a time.
fn train_traced(data: &Graph, w: &Workload, cfg: &SketchConfig, tr: &mut Tracer) -> LearnedSketch {
    let s = tr.open("embedding.prone", 0, None);
    let encoder = LearnedSketch::build_encoder(data, cfg);
    tr.close(s);
    // Seeded as `LearnedSketch::train_with_encoder` seeds it.
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED);
    let mut model = LssModel::new(cfg.model, encoder.node_dim(), encoder.edge_dim(), &mut rng);
    let s = tr.open("core.train.encode", 0, None);
    let items = encode_workload_with(&encoder, w, cfg.train.parallelism);
    tr.close(s);
    let s = tr.open("core.train.epochs", 0, None);
    train_model(&mut model, &items, &cfg.train);
    tr.close(s);
    LearnedSketch::from_parts(encoder, model)
}
