//! Parameter storage shared across forward passes.
//!
//! The tape ([`crate::tape::Tape`]) is rebuilt per forward pass (define-by-
//! run, like PyTorch); learnable parameters persist here. The store holds
//! weights only: `Tape::backward` accumulates gradients into a
//! [`GradShard`], which the optimizer ([`crate::adam::Adam`]) consumes.
//!
//! Layers register their parameters in construction order, each with its
//! shape and a lazy initializer. A fresh store ([`ParamStore::new`])
//! runs the initializer; a store opened on a checkpoint's matrices
//! ([`ParamStore::stored`]) hands out the next stored matrix instead, once
//! its shape and values check out, so the same constructors that build a
//! model for training rebuild it from a checkpoint.

use crate::mat::Mat;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// A stored parameter that does not fit the layer asking for it, named by
/// its position in the stored list (`values[i]`) and, where a layer asked
/// for it, by the parameter's name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError(String);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParamError {}

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

    /// Add `shards` into this accumulator, strictly in iteration order. The
    /// fixed reduction order is what makes parallel training bit-identical
    /// across thread counts: callers hand shards over in a
    /// schedule-independent order (batch position), not in
    /// thread-completion order.
    pub fn merge<'a>(&mut self, shards: impl IntoIterator<Item = &'a GradShard>) {
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
#[derive(Clone, Debug)]
pub struct ParamStore {
    values: Vec<Mat>,
    names: Vec<String>,
    /// The matrices [`ParamStore::add`] hands out, in order, when opened
    /// on stored ones; `None` for a fresh store.
    stored: Option<std::vec::IntoIter<Mat>>,
}

impl ParamStore {
    /// Empty store whose parameters take their initializers' values.
    pub fn new() -> Self {
        ParamStore {
            values: Vec::new(),
            names: Vec::new(),
            stored: None,
        }
    }

    /// Empty store whose parameters take `values`, in order, instead of
    /// their initializers' values. Close it with [`ParamStore::finish`].
    pub fn stored(values: Vec<Mat>) -> Self {
        ParamStore {
            stored: Some(values.into_iter()),
            ..ParamStore::new()
        }
    }

    /// Register a `rows × cols` parameter. A fresh store calls `init` for
    /// its value; a stored one takes its next stored matrix instead, and
    /// fails if there is none, if its shape is not `shape`, or if a value
    /// is not finite, before anything of `shape`'s size is allocated. The
    /// name is diagnostic (errors, tests).
    pub fn add(
        &mut self,
        name: impl Into<String>,
        shape: (usize, usize),
        init: impl FnOnce() -> Mat,
    ) -> Result<ParamId, ParamError> {
        let name = name.into();
        let index = self.values.len();
        let value = match &mut self.stored {
            None => init(),
            Some(stored) => {
                let fail =
                    |problem: String| ParamError(format!("values[{index}] ({name}): {problem}"));
                let Some(value) = stored.next() else {
                    return Err(fail(format!("missing; only {index} are stored")));
                };
                if value.shape() != shape {
                    let ((r, c), (rows, cols)) = (value.shape(), shape);
                    return Err(fail(format!(
                        "a {r}×{c} matrix where the layer needs {rows}×{cols}"
                    )));
                }
                // An empty matrix's shape is not bounded by the values
                // stored, so a layer could allocate from it at will.
                if value.is_empty() {
                    return Err(fail("a matrix with no values".to_string()));
                }
                if let Some(i) = value.data().iter().position(|x| !x.is_finite()) {
                    return Err(fail(format!("value {i} is not finite")));
                }
                value
            }
        };
        debug_assert_eq!(value.shape(), shape, "{name}: initializer shape");
        self.values.push(value);
        self.names.push(name);
        Ok(ParamId(index))
    }

    /// Close a store opened with [`ParamStore::stored`]: an error if a
    /// stored matrix was never asked for.
    pub fn finish(mut self) -> Result<Self, ParamError> {
        match self.stored.take().map(|mut rest| rest.next()) {
            Some(Some(_)) => Err(ParamError(format!(
                "values[{}]: a leftover weight that no layer asks for",
                self.values.len()
            ))),
            _ => Ok(self),
        }
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

    /// Every parameter's value, in registration order (what a checkpoint
    /// stores).
    pub fn values(&self) -> &[Mat] {
        &self.values
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
        let w = s.add("w", (1, 2), || Mat::zeros(1, 2)).unwrap();
        (s, w)
    }

    #[test]
    fn add_and_access() {
        let mut s = ParamStore::new();
        let w = s
            .add("w", (2, 2), || Mat::from_vec(2, 2, vec![1., 2., 3., 4.]))
            .unwrap();
        assert_eq!(s.value(w).get(1, 0), 3.0);
        assert_eq!(s.name(w), "w");
        assert_eq!(s.num_params(), 1);
        assert_eq!(s.num_weights(), 4);
        assert_eq!(s.values(), &[Mat::from_vec(2, 2, vec![1., 2., 3., 4.])]);
    }

    #[test]
    fn a_stored_store_hands_out_its_matrices_without_initializing() {
        let stored = vec![Mat::full(1, 2, 0.5), Mat::full(2, 1, -1.0)];
        let mut s = ParamStore::stored(stored.clone());
        let never = || -> Mat { panic!("a stored store must not initialize") };
        let a = s.add("a", (1, 2), never).unwrap();
        let b = s.add("b", (2, 1), never).unwrap();
        let s = s.finish().unwrap();
        assert_eq!((s.value(a), s.value(b)), (&stored[0], &stored[1]));
        assert_eq!(s.name(b), "b");
    }

    #[test]
    fn a_stored_store_names_what_does_not_fit() {
        let never = || -> Mat { panic!("a stored store must not initialize") };
        let err = |r: Result<ParamId, ParamError>| r.unwrap_err().to_string();

        // A width far beyond the stored shape fails on the shape check,
        // before any allocation of that size.
        let mut s = ParamStore::stored(vec![Mat::zeros(1, 2)]);
        let e = err(s.add("w", (1, 1 << 40), never));
        assert_eq!(
            e,
            format!(
                "values[0] (w): a 1×2 matrix where the layer needs 1×{}",
                1u64 << 40
            )
        );

        let mut s = ParamStore::stored(vec![Mat::zeros(1 << 40, 0)]);
        let e = err(s.add("w", (1 << 40, 0), never));
        assert_eq!(e, "values[0] (w): a matrix with no values");

        let mut s = ParamStore::stored(vec![Mat::from_vec(1, 2, vec![0.0, f32::INFINITY])]);
        assert_eq!(
            err(s.add("w", (1, 2), never)),
            "values[0] (w): value 1 is not finite"
        );

        let mut s = ParamStore::stored(vec![Mat::zeros(1, 1)]);
        s.add("a", (1, 1), never).unwrap();
        assert_eq!(
            err(s.add("b", (1, 1), never)),
            "values[1] (b): missing; only 1 are stored"
        );

        let mut s = ParamStore::stored(vec![Mat::zeros(1, 1), Mat::zeros(1, 1)]);
        s.add("a", (1, 1), never).unwrap();
        let e = s.finish().unwrap_err().to_string();
        assert_eq!(e, "values[1]: a leftover weight that no layer asks for");
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
