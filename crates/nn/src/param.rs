//! Parameter storage shared across forward passes.
//!
//! The tape ([`crate::tape::Tape`]) is rebuilt per forward pass (define-by-
//! run, like PyTorch); learnable parameters persist here. The store holds
//! weights only: `Tape::backward` accumulates gradients into a
//! [`GradShard`], which the optimizer ([`crate::adam::Adam`]) consumes.

use crate::mat::Mat;
use serde::{Deserialize, Serialize};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// A gradient accumulator shaped like a [`ParamStore`]'s parameter list.
/// Worker threads of the data-parallel trainer each own one (no locks on
/// the hot path); [`GradShard::merge`] reduces shards in slice order, so
/// the floating-point reduction tree is fixed by the caller and
/// independent of how work was scheduled onto threads.
#[derive(Clone, Debug)]
pub struct GradShard {
    grads: Vec<Mat>,
}

impl GradShard {
    /// Reset every accumulator to zero (reuse across batches without
    /// reallocating).
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Accumulated gradient for one parameter.
    pub fn grad(&self, id: ParamId) -> &Mat {
        &self.grads[id.0]
    }

    /// Add `g` into the accumulator for parameter `id`.
    pub fn accumulate(&mut self, id: ParamId, g: &Mat) {
        self.grads[id.0].add_assign(g);
    }

    /// Add `shards` into this accumulator, strictly in slice order. The
    /// fixed reduction order is what makes parallel training bit-identical
    /// across thread counts: callers hand shards over in a
    /// schedule-independent order (batch position), not in
    /// thread-completion order.
    pub fn merge(&mut self, shards: &[GradShard]) {
        for shard in shards {
            assert_eq!(
                shard.grads.len(),
                self.grads.len(),
                "shard parameter count mismatch"
            );
            for (acc, g) in self.grads.iter_mut().zip(&shard.grads) {
                acc.add_assign(g);
            }
        }
    }

    /// L2 norm over all accumulated gradients (telemetry / diagnostics).
    pub fn norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|m| m.data().iter().map(|&x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }
}

/// Owning store of all learnable parameters of a model: weights and their
/// diagnostic names, nothing training-only.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParamStore {
    values: Vec<Mat>,
    names: Vec<String>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        ParamStore {
            values: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Register a parameter with an initial value. The name is diagnostic
    /// (checkpoint inspection, tests).
    pub fn add(&mut self, name: impl Into<String>, value: Mat) -> ParamId {
        let id = ParamId(self.values.len());
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Current value of a parameter.
    #[inline]
    pub fn value(&self, id: ParamId) -> &Mat {
        &self.values[id.0]
    }

    /// Mutable value (optimizer use).
    #[inline]
    pub fn value_mut(&mut self, id: ParamId) -> &mut Mat {
        &mut self.values[id.0]
    }

    /// A zeroed [`GradShard`] shaped like this store's parameter list.
    pub fn grad_shard(&self) -> GradShard {
        GradShard {
            grads: self
                .values
                .iter()
                .map(|v| Mat::zeros(v.rows(), v.cols()))
                .collect(),
        }
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters (tensors).
    pub fn num_params(&self) -> usize {
        self.values.len()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(|m| m.len()).sum()
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store with one `1 × 2` parameter.
    fn one_param() -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let w = s.add("w", Mat::zeros(1, 2));
        (s, w)
    }

    #[test]
    fn add_and_access() {
        let mut s = ParamStore::new();
        let w = s.add("w", Mat::from_vec(2, 2, vec![1., 2., 3., 4.]));
        assert_eq!(s.value(w).get(1, 0), 3.0);
        assert_eq!(s.name(w), "w");
        assert_eq!(s.num_params(), 1);
        assert_eq!(s.num_weights(), 4);
    }

    #[test]
    fn grad_accumulation_and_reset() {
        let (s, w) = one_param();
        let mut shard = s.grad_shard();
        shard.accumulate(w, &Mat::row_vector(&[1.0, 2.0]));
        shard.accumulate(w, &Mat::row_vector(&[0.5, 0.5]));
        assert_eq!(shard.grad(w).data(), &[1.5, 2.5]);
        shard.zero();
        assert_eq!(shard.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    fn shards_merge_in_slice_order() {
        let (s, w) = one_param();
        let mut shards = vec![s.grad_shard(); 3];
        shards[0].accumulate(w, &Mat::row_vector(&[1.0, 0.0]));
        shards[1].accumulate(w, &Mat::row_vector(&[0.0, 2.0]));
        // shard 2 stays zero — merging it must be a no-op
        let mut acc = s.grad_shard();
        acc.merge(&shards);
        assert_eq!(acc.grad(w).data(), &[1.0, 2.0]);
        // zeroing a shard lets it be reused for the next batch
        shards[0].zero();
        assert_eq!(shards[0].grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    fn shard_merge_equals_direct_accumulation() {
        // Route the same gradients through (a) one shard directly and
        // (b) one shard per contribution merged in order into a zeroed
        // accumulator: results must be bitwise equal — the guarantee the
        // determinism contract rests on.
        let contributions = [[0.1f32, -0.2], [0.3, 0.7], [-0.5, 0.11]];
        let (s, w) = one_param();
        let mut direct = s.grad_shard();
        for c in &contributions {
            direct.accumulate(w, &Mat::row_vector(c));
        }
        let mut shards = vec![s.grad_shard(); contributions.len()];
        for (shard, c) in shards.iter_mut().zip(&contributions) {
            shard.accumulate(w, &Mat::row_vector(c));
        }
        let mut merged = s.grad_shard();
        merged.merge(&shards);
        let (a, b) = (direct.grad(w).data(), merged.grad(w).data());
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn grad_norm_tracks_accumulated_gradients() {
        let (s, w) = one_param();
        let mut shard = s.grad_shard();
        assert_eq!(shard.norm(), 0.0);
        shard.accumulate(w, &Mat::row_vector(&[3.0, 4.0]));
        assert!((shard.norm() - 5.0).abs() < 1e-6);
        shard.zero();
        assert_eq!(shard.norm(), 0.0);
    }
}
