//! Skip-gram with negative sampling (SGNS), hand-rolled SGD.
//!
//! Shared by DeepWalk and node2vec: the walk corpus provides
//! (center, context) pairs within a window; negatives are drawn from the
//! unigram distribution raised to the 3/4 power (word2vec's heuristic).

use crate::embedding::Embedding;
use alss_graph::NodeId;
use rand::Rng;

/// SGNS hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SkipGramConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Initial learning rate (linearly decayed to 1e-4 · lr).
    pub lr: f32,
    /// Training epochs over the corpus.
    pub epochs: usize,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        SkipGramConfig {
            dim: 64,
            window: 5,
            negatives: 5,
            lr: 0.025,
            epochs: 2,
        }
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Alias sampler over the ^0.75-smoothed unigram distribution.
struct NegativeTable {
    table: Vec<NodeId>,
}

impl NegativeTable {
    fn new(num_nodes: usize, walks: &[Vec<NodeId>]) -> Self {
        let mut freq = vec![0u64; num_nodes];
        for w in walks {
            for &v in w {
                freq[v as usize] += 1;
            }
        }
        let pow: Vec<f64> = freq.iter().map(|&f| (f as f64).powf(0.75)).collect();
        let total: f64 = pow.iter().sum();
        let size = (num_nodes * 10).clamp(1024, 10_000_000);
        let mut table = Vec::with_capacity(size);
        if total == 0.0 {
            table.push(0);
            return NegativeTable { table };
        }
        for (v, &p) in pow.iter().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "p/total ∈ [0, 1], so cnt ≤ size"
            )]
            let cnt = ((p / total) * size as f64).round() as usize;
            for _ in 0..cnt.max(if p > 0.0 { 1 } else { 0 }) {
                table.push(alss_graph::node_id(v));
            }
        }
        if table.is_empty() {
            table.push(0);
        }
        NegativeTable { table }
    }

    #[inline]
    fn sample<R: Rng>(&self, rng: &mut R) -> NodeId {
        self.table[rng.gen_range(0..self.table.len())]
    }
}

/// Train SGNS embeddings for `num_nodes` nodes from a walk corpus.
pub fn train_skipgram<R: Rng>(
    num_nodes: usize,
    walks: &[Vec<NodeId>],
    cfg: &SkipGramConfig,
    rng: &mut R,
) -> Embedding {
    assert!(num_nodes > 0, "no nodes to embed");
    let dim = cfg.dim;
    // input (center) and output (context) tables
    let scale = 0.5 / dim as f32;
    let mut win: Vec<f32> = (0..num_nodes * dim)
        .map(|_| (rng.gen::<f32>() - 0.5) * scale)
        .collect();
    let mut wout: Vec<f32> = vec![0.0; num_nodes * dim];
    let negs = NegativeTable::new(num_nodes, walks);

    let total_steps = (cfg.epochs * walks.iter().map(|w| w.len()).sum::<usize>()).max(1);
    let mut step = 0usize;
    let mut grad = vec![0.0f32; dim];

    for _ in 0..cfg.epochs {
        for walk in walks {
            for (i, &center) in walk.iter().enumerate() {
                step += 1;
                // Progress is computed in f64 so large step counts (beyond
                // f32's 24-bit mantissa) don't truncate; only the ratio in
                // [0, 1] is narrowed.
                #[expect(clippy::cast_possible_truncation, reason = "ratio ∈ [0, 1]")]
                let progress = (step as f64 / total_steps as f64) as f32;
                let lr = cfg.lr * (1.0 - progress).max(1e-4);
                let lo = i.saturating_sub(cfg.window);
                let hi = (i + cfg.window + 1).min(walk.len());
                for &context in &walk[lo..hi] {
                    if context == center {
                        continue;
                    }
                    let c = center as usize * dim;
                    grad.iter_mut().for_each(|g| *g = 0.0);
                    // positive + negatives
                    for k in 0..=cfg.negatives {
                        let (target, label) = if k == 0 {
                            (context as usize, 1.0)
                        } else {
                            (negs.sample(rng) as usize, 0.0)
                        };
                        if k > 0 && target == context as usize {
                            continue;
                        }
                        let t = target * dim;
                        let dot: f32 = win[c..c + dim]
                            .iter()
                            .zip(&wout[t..t + dim])
                            .map(|(&a, &b)| a * b)
                            .sum();
                        let g = (label - sigmoid(dot)) * lr;
                        for d in 0..dim {
                            grad[d] += g * wout[t + d];
                            wout[t + d] += g * win[c + d];
                        }
                    }
                    for d in 0..dim {
                        win[c + d] += grad[d];
                    }
                }
            }
        }
    }
    Embedding::new(dim, win)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two disjoint cliques: nodes of the same clique should embed closer
    /// than nodes across cliques.
    #[test]
    fn sgns_separates_communities() {
        // corpus: walks that stay within {0,1,2} or {3,4,5}
        let mut rng = SmallRng::seed_from_u64(0);
        let mut walks = Vec::new();
        for _ in 0..200 {
            let base = if rng.gen::<bool>() { 0u32 } else { 3 };
            let walk: Vec<NodeId> = (0..8).map(|_| base + rng.gen_range(0u32..3)).collect();
            walks.push(walk);
        }
        let cfg = SkipGramConfig {
            dim: 16,
            window: 3,
            negatives: 4,
            lr: 0.05,
            epochs: 3,
        };
        let emb = train_skipgram(6, &walks, &cfg, &mut rng);
        let within = emb.cosine(0, 1);
        let across = emb.cosine(0, 4);
        assert!(
            within > across,
            "within-community sim {within} should beat across {across}"
        );
    }

    #[test]
    fn output_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let walks = vec![vec![0, 1, 0, 1]];
        let emb = train_skipgram(2, &walks, &SkipGramConfig::default(), &mut rng);
        assert_eq!(emb.len(), 2);
        assert_eq!(emb.dim(), 64);
        assert!(emb.vector(0).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_corpus_is_harmless() {
        let mut rng = SmallRng::seed_from_u64(2);
        let emb = train_skipgram(3, &[], &SkipGramConfig::default(), &mut rng);
        assert_eq!(emb.len(), 3);
    }
}
