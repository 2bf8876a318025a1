//! Training loop for LSS (§6.1): Adam with weight decay and per-epoch LR
//! decay, mini-batch gradient accumulation, MSE-log + cross-entropy
//! multi-task loss.
//!
//! Training is **data-parallel and deterministic**: within each
//! mini-batch the per-item forward+backward passes fan out over worker
//! threads through [`par_map`], each item filling its own zeroed
//! [`GradShard`]; the shards are merged into one zeroed accumulator shard
//! in batch-position order, and every item's training tape draws its
//! dropout masks from an RNG derived from `(seed, epoch, item)` rather
//! than a shared sequential RNG. The
//! floating-point operations — and therefore losses and final weights —
//! are bit-identical for any [`Parallelism`] thread count, including 1.
//!
//! An item's pass is [`LssModel::loss`] on a training tape: GIN runs over
//! the query's packed substructures, one aggregate and one MLP pass per
//! layer, with masks and weight gradients in substructure order (see
//! [`LssModel::forward`]). Evaluation goes through [`LssModel::predict`].

use crate::encode::{EncodedQuery, Encoder};
use crate::model::LssModel;
use crate::parallel::{par_map, Parallelism};
use crate::workload::Workload;
use alss_nn::{Adam, AdamConfig, GradShard, Tape};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::time::{Duration, Instant};

/// Training hyper-parameters (§6.1: lr ∈ [1e-4, 1e-3], 50–150 epochs,
/// batch ∈ {1,2,4,8}, L2 ∈ [1e-5, 1e-3]).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size (gradients accumulated, one Adam step per batch).
    pub batch_size: usize,
    /// Optimizer settings.
    pub adam: AdamConfig,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
    /// Worker threads for the in-batch fan-out (results are independent
    /// of this; it only affects wall-clock).
    pub parallelism: Parallelism,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 50,
            batch_size: 4,
            adam: AdamConfig::default(),
            seed: 42,
            parallelism: Parallelism::auto(),
        }
    }
}

impl TrainConfig {
    /// A quick configuration for tests.
    pub fn quick(epochs: usize) -> Self {
        TrainConfig {
            epochs,
            batch_size: 4,
            adam: AdamConfig {
                lr: 5e-3,
                weight_decay: 1e-5,
                lr_decay: 0.98,
                ..Default::default()
            },
            seed: 7,
            parallelism: Parallelism::auto(),
        }
    }
}

/// Result of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean multi-task loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock training duration.
    pub duration: Duration,
    /// Number of labeled queries trained on.
    pub num_queries: usize,
}

/// A labeled, encoded training item.
pub type EncodedItem = (EncodedQuery, u64);

/// Encode a workload once on `par` threads (the encoding is
/// deterministic, so the trainer caches it across epochs). Output is
/// position-stable and independent of `par`.
pub fn encode_workload_with(
    encoder: &Encoder,
    workload: &Workload,
    par: Parallelism,
) -> Vec<EncodedItem> {
    par_map(par, &workload.queries, |_, q| {
        (encoder.encode_query(&q.graph), q.count)
    })
}

/// SplitMix64 finalizer: decorrelates structured `(seed, epoch, item)`
/// triples into independent dropout streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The per-item training RNG. Keyed by the item's dataset index (not its
/// batch position or worker thread), so the stochastic forward pass is a
/// pure function of `(cfg.seed, epoch, item)` — the keystone of the
/// thread-count-independence guarantee.
fn item_rng(seed: u64, epoch: u64, item: u64) -> SmallRng {
    let mixed = splitmix64(splitmix64(seed ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F)) ^ item);
    SmallRng::seed_from_u64(mixed)
}

/// One batch item's forward+backward pass.
struct ItemOutcome {
    /// Unscaled multi-task loss value.
    loss: f64,
    /// Forward+backward wall time.
    micros: f64,
    /// The item's gradients, scaled by `1 / batch size`, from a zeroed
    /// shard.
    grads: GradShard,
}

/// Run one batch item on a training tape that draws its dropout masks
/// from `rng`.
fn run_item(model: &LssModel, (eq, count): &EncodedItem, scale: f32, rng: SmallRng) -> ItemOutcome {
    let watch = alss_telemetry::Stopwatch::start();
    let mut tape = Tape::train(rng);
    let l = model.loss(&mut tape, eq, *count);
    let scaled = tape.scale(l, scale);
    let loss = tape.value(l).scalar() as f64;
    let mut grads = model.store().grad_shard();
    tape.backward(scaled, &mut grads);
    ItemOutcome {
        loss,
        micros: watch.record("train.batch_item_us"),
        grads,
    }
}

/// Train `model` on pre-encoded items.
///
/// Within each mini-batch the per-item passes run data-parallel per
/// `cfg.parallelism` (see the module docs for the determinism contract).
///
/// Every epoch emits a `train.epoch` event carrying the mean multi-task
/// loss, the mean pre-step gradient norm, and the current learning rate,
/// plus a `train.parallel_speedup` event relating summed per-item time to
/// epoch wall time; both are written only when a telemetry sink is
/// installed. Per-item forward+backward durations feed the
/// `train.batch_item_us` histogram and epoch wall times `train.epoch_us`.
pub fn train_model(model: &mut LssModel, items: &[EncodedItem], cfg: &TrainConfig) -> TrainReport {
    assert!(!items.is_empty(), "empty training set");
    assert!(cfg.batch_size >= 1, "batch size must be ≥ 1");
    let _span = alss_telemetry::Span::enter("train");
    let start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut adam = Adam::new(cfg.adam, model.store());
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let workers = cfg.parallelism.effective();
    let mut grads = model.store().grad_shard();

    for epoch in 0..cfg.epochs {
        let epoch_watch = alss_telemetry::Stopwatch::start();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut item_us_sum = 0.0f64;
        let mut grad_norm_sum = 0.0f64;
        let mut num_batches = 0u64;
        for batch in order.chunks(cfg.batch_size) {
            let scale = 1.0 / batch.len() as f32;
            let outcomes = par_map(cfg.parallelism, batch, |_, &i| {
                let rng = item_rng(cfg.seed, epoch as u64, i as u64);
                run_item(model, &items[i], scale, rng)
            });
            // Reduce in batch-position order: keeps the f32 gradient and
            // f64 loss sums identical to the single-threaded pass.
            grads.zero();
            grads.merge(outcomes.iter().map(|o| &o.grads));
            for o in &outcomes {
                epoch_loss += o.loss;
                item_us_sum += o.micros;
            }
            grad_norm_sum += f64::from(grads.norm());
            num_batches += 1;
            adam.step(model.store_mut(), &grads);
        }
        let lr = adam.lr();
        adam.decay_lr();
        let mean_loss = epoch_loss / items.len() as f64;
        epoch_losses.push(mean_loss);
        let wall_us = epoch_watch.record("train.epoch_us");
        alss_telemetry::add("train.epochs", 1);
        alss_telemetry::add("train.batches", num_batches);
        alss_telemetry::event(
            "train.epoch",
            &[
                ("epoch", Value::UInt(epoch as u64)),
                ("loss", Value::Float(mean_loss)),
                (
                    "grad_norm",
                    Value::Float(grad_norm_sum / num_batches.max(1) as f64),
                ),
                ("lr", Value::Float(f64::from(lr))),
            ],
        );
        alss_telemetry::event(
            "train.parallel_speedup",
            &[
                ("epoch", Value::UInt(epoch as u64)),
                ("threads", Value::UInt(workers as u64)),
                (
                    "speedup",
                    Value::Float(if wall_us > 0.0 {
                        item_us_sum / wall_us
                    } else {
                        1.0
                    }),
                ),
                ("items_us", Value::Float(item_us_sum)),
                ("wall_us", Value::Float(wall_us)),
            ],
        );
    }
    TrainReport {
        epoch_losses,
        duration: start.elapsed(),
        num_queries: items.len(),
    }
}

/// Continue training an existing model (used by the active learner's
/// incremental updates, §5 step ④).
pub fn finetune_model(
    model: &mut LssModel,
    items: &[EncodedItem],
    cfg: &TrainConfig,
    seed_offset: u64,
) -> TrainReport {
    let _span = alss_telemetry::Span::enter("finetune");
    alss_telemetry::add("train.finetunes", 1);
    let mut cfg = *cfg;
    cfg.seed = cfg.seed.wrapping_add(seed_offset);
    train_model(model, items, &cfg)
}

/// Evaluate: `(true, estimated)` count pairs over encoded items, fanned
/// out over `par` (prediction is pure per item, so the output is
/// independent of it). An estimate with no finite count
/// ([`Prediction::count`](crate::Prediction::count) is `None`) is `+inf`,
/// which [`q_error`](crate::q_error) scores as the worst error.
pub fn evaluate_with(model: &LssModel, items: &[EncodedItem], par: Parallelism) -> Vec<(f64, f64)> {
    par_map(par, items, |_, (eq, c)| {
        (
            *c as f64,
            model.predict(eq).count().unwrap_or(f64::INFINITY),
        )
    })
}

/// Fenwick (binary-indexed) tree over per-item weights: prefix sums and
/// point updates in O(log n), so k weighted draws cost O(n + k log n)
/// instead of the O(n·k) of re-summing the pool on every draw.
struct FenwickTree {
    /// 1-based tree; `tree[i]` owns the range `(i - lowbit(i), i]`.
    tree: Vec<f64>,
}

impl FenwickTree {
    /// Build from raw weights in O(n).
    fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        let mut tree = vec![0.0f64; n + 1];
        for (i, &w) in weights.iter().enumerate() {
            let i = i + 1;
            tree[i] += w;
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                let carried = tree[i];
                tree[parent] += carried;
            }
        }
        FenwickTree { tree }
    }

    /// Add `delta` to item `i` (0-based).
    fn add(&mut self, i: usize, delta: f64) {
        let n = self.tree.len() - 1;
        let mut i = i + 1;
        while i <= n {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Weight currently stored at item `i` (0-based): prefix(i+1) − prefix(i).
    fn get(&self, i: usize) -> f64 {
        self.prefix(i + 1) - self.prefix(i)
    }

    /// Sum of the first `i` items.
    fn prefix(&self, mut i: usize) -> f64 {
        let mut s = 0.0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// First 0-based index whose inclusive prefix sum exceeds `t`
    /// (bit-descend from the highest power of two ≤ n). `None` only if
    /// float round-off pushes `t` past the total.
    fn search(&self, mut t: f64) -> Option<usize> {
        let n = self.tree.len() - 1;
        let mut pos = 0usize;
        let mut step = n.next_power_of_two();
        if step > n {
            step >>= 1;
        }
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= t {
                t -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        if pos < n {
            Some(pos)
        } else {
            None
        }
    }
}

/// Draw `k` distinct indices weighted by `weights` (weighted sampling
/// without replacement; uniform fallback when the remaining mass is ~0;
/// non-finite weights are treated as 0). Used by the active learner.
/// O(n + k log n) via a Fenwick tree and a running total.
pub fn weighted_sample_without_replacement<R: Rng>(
    weights: &[f64],
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    let n = weights.len();
    let k = k.min(n);
    let sanitized: Vec<f64> = weights
        .iter()
        .map(|&x| if x.is_finite() { x.max(0.0) } else { 0.0 })
        .collect();
    let mut fen = FenwickTree::new(&sanitized);
    let mut total: f64 = sanitized.iter().sum();
    let mut picked = vec![false; n];
    let mut out = Vec::with_capacity(k);
    // Lazily-built pool of remaining indices for the uniform fallback once
    // the weighted mass is exhausted (swap_remove keeps draws O(1)).
    let mut uniform_pool: Option<Vec<usize>> = None;
    for _ in 0..k {
        let choice = if total <= 1e-12 {
            let pool = uniform_pool
                .get_or_insert_with(|| (0..n).filter(|&i| !picked[i]).collect::<Vec<usize>>());
            if pool.is_empty() {
                // Unreachable: `k <= n` bounds the loop, so an unpicked
                // item always remains.
                debug_assert!(false, "items remain");
                break;
            }
            pool.swap_remove(rng.gen_range(0..pool.len()))
        } else {
            let t = rng.gen::<f64>() * total;
            // Float round-off can push `t` past the tree total, or leave a
            // picked slot with a ~1e-16 residue the search lands on; both
            // fall back to the highest unpicked index.
            match fen
                .search(t)
                .filter(|&i| !picked[i])
                .or_else(|| (0..n).rfind(|&i| !picked[i]))
            {
                Some(i) => i,
                None => {
                    debug_assert!(false, "items remain");
                    break;
                }
            }
        };
        picked[choice] = true;
        let w = fen.get(choice);
        fen.add(choice, -w);
        total = (total - w).max(0.0);
        out.push(choice);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LssConfig;
    use crate::workload::LabeledQuery;
    use alss_graph::builder::graph_from_edges;
    use alss_graph::Graph;

    fn data_graph() -> Graph {
        graph_from_edges(&[0, 0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    }

    fn toy_workload() -> Workload {
        // paths of different lengths with hand-assigned counts spanning
        // magnitudes so there is signal to fit
        let mut qs = Vec::new();
        for (labels, edges, count) in [
            (vec![0u32, 0], vec![(0u32, 1u32)], 10u64),
            (vec![0, 1], vec![(0, 1)], 100),
            (vec![1, 1], vec![(0, 1)], 40),
            (vec![0, 0, 1], vec![(0, 1), (1, 2)], 1_000),
            (vec![0, 1, 2], vec![(0, 1), (1, 2)], 5_000),
            (vec![1, 1, 2], vec![(0, 1), (1, 2)], 2_000),
            (vec![0, 0, 1, 2], vec![(0, 1), (1, 2), (2, 3)], 50_000),
            (vec![0, 1, 1, 2], vec![(0, 1), (1, 2), (2, 3)], 20_000),
        ] {
            qs.push(LabeledQuery::new(graph_from_edges(&labels, &edges), count));
        }
        Workload::from_queries(qs)
    }

    #[test]
    fn training_reduces_loss() {
        let enc = Encoder::frequency(&data_graph(), 3);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut model = LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng);
        let items = encode_workload_with(&enc, &toy_workload(), Parallelism::auto());
        // mean multi-task loss on eval tapes
        let eval_loss = |model: &LssModel| {
            let total: f64 = items
                .iter()
                .map(|(eq, c)| {
                    let mut tape = Tape::eval();
                    let l = model.loss(&mut tape, eq, *c);
                    f64::from(tape.value(l).scalar())
                })
                .sum();
            total / items.len() as f64
        };
        let before = eval_loss(&model);
        let report = train_model(&mut model, &items, &TrainConfig::quick(40));
        let after = eval_loss(&model);
        assert_eq!(report.epoch_losses.len(), 40);
        assert!(
            after < before * 0.5,
            "loss should at least halve: {before} -> {after}"
        );
    }

    #[test]
    fn trained_model_orders_magnitudes() {
        let enc = Encoder::frequency(&data_graph(), 3);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut model = LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng);
        let items = encode_workload_with(&enc, &toy_workload(), Parallelism::auto());
        train_model(&mut model, &items, &TrainConfig::quick(60));
        // the 2-node label (0,0) query (count 10) must predict far below the
        // 4-node (count 50k) query
        let small = model.predict(&items[0].0).count().unwrap();
        let large = model.predict(&items[6].0).count().unwrap();
        assert!(
            large > small * 10.0,
            "magnitudes should separate: {small} vs {large}"
        );
    }

    #[test]
    fn weighted_sampling_prefers_heavy_items() {
        let mut rng = SmallRng::seed_from_u64(2);
        let weights = [0.0, 0.0, 100.0, 0.1];
        let mut hits = 0;
        for _ in 0..50 {
            let picked = weighted_sample_without_replacement(&weights, 1, &mut rng);
            if picked[0] == 2 {
                hits += 1;
            }
        }
        assert!(hits > 45, "heavy item picked {hits}/50 times");
    }

    #[test]
    fn weighted_sampling_without_replacement_is_distinct() {
        let mut rng = SmallRng::seed_from_u64(3);
        let weights = [1.0, 2.0, 3.0, 4.0, 5.0];
        let picked = weighted_sample_without_replacement(&weights, 5, &mut rng);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let mut rng = SmallRng::seed_from_u64(4);
        let weights = [0.0; 4];
        let picked = weighted_sample_without_replacement(&weights, 2, &mut rng);
        assert_eq!(picked.len(), 2);
        assert_ne!(picked[0], picked[1]);
    }

    #[test]
    fn non_finite_weights_are_never_picked() {
        let mut rng = SmallRng::seed_from_u64(5);
        // NaN / ±inf weights are sanitized to 0, so with finite mass
        // present they can never be drawn.
        let weights = [f64::NAN, 1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY];
        for _ in 0..50 {
            let picked = weighted_sample_without_replacement(&weights, 2, &mut rng);
            assert_eq!(picked.len(), 2);
            assert!(
                picked.iter().all(|&i| i == 1 || i == 3),
                "picked {picked:?}"
            );
        }
        // All-non-finite degrades to the uniform fallback, still distinct.
        let bad = [f64::NAN, f64::INFINITY, f64::NAN];
        let picked = weighted_sample_without_replacement(&bad, 3, &mut rng);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn large_pool_sampling_is_fast_and_distinct() {
        // Regression for the O(n·k) re-sum: 100k-item pool, k = 1000. With
        // the Fenwick tree this is O(n + k log n) and finishes in
        // milliseconds; the old quadratic path took ~100M weight visits.
        let n = 100_000;
        let k = 1_000;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 97) as f64).collect();
        let mut rng = SmallRng::seed_from_u64(6);
        let start = std::time::Instant::now();
        let picked = weighted_sample_without_replacement(&weights, k, &mut rng);
        let elapsed = start.elapsed();
        assert_eq!(picked.len(), k);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), k, "duplicates drawn");
        assert!(
            elapsed < Duration::from_secs(5),
            "sampling took {elapsed:?}; the O(n·k) path has regressed"
        );
    }

    #[test]
    fn fenwick_prefix_sums_and_search_match_naive() {
        let weights = [0.5, 0.0, 2.0, 1.25, 0.0, 3.0, 0.25];
        let fen = FenwickTree::new(&weights);
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            assert!((fen.prefix(i) - acc).abs() < 1e-12);
            assert!((fen.get(i) - w).abs() < 1e-12);
            acc += w;
        }
        // search(t) = first index whose inclusive prefix exceeds t
        assert_eq!(fen.search(0.0), Some(0));
        assert_eq!(fen.search(0.49), Some(0));
        assert_eq!(fen.search(0.5), Some(2)); // skips the zero-weight slot
        assert_eq!(fen.search(2.49), Some(2));
        assert_eq!(fen.search(2.5), Some(3));
        assert_eq!(fen.search(6.9), Some(6));
        assert_eq!(fen.search(7.1), None); // past the total
    }
}
