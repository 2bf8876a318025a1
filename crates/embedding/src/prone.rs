//! ProNE-style embedding (Zhang et al., IJCAI'19): randomized tSVD
//! factorization followed by spectral propagation.
//!
//! ProNE's two stages are (1) an efficient sparse-matrix factorization
//! producing initial embeddings, and (2) *spectral propagation* — applying
//! a band-pass filter `g(L̃)` of the modulated graph Laplacian, expanded in
//! Chebyshev polynomials with Bessel-function coefficients, to incorporate
//! both local smoothing and global clustering signals.
//!
//! We reproduce both stages from scratch: stage 1 uses
//! [`crate::svd::randomized_svd`] on `Â = D^{-1/2}(A+I)D^{-1/2}` with the
//! embedding `U √Σ`; stage 2 runs the Chebyshev recursion
//! `T_{k+1}(L̃) = 2 L̃ T_k − T_{k−1}` on `L̃ = I − Â − μI` with coefficients
//! `c_k = 2(−1)^k J_k(θ)` (`J_k` = Bessel function of the first kind,
//! computed by its power series), matching ProNE's filter
//! `g(λ) = e^{-0.5[(λ-μ)^2-1]θ}` expansion.

use crate::embedding::Embedding;
use crate::sparse::SparseMatrix;
use crate::svd::randomized_svd;
use alss_graph::Graph;
use rand::Rng;

/// ProNE hyper-parameters (defaults follow the reference implementation).
#[derive(Clone, Copy, Debug)]
pub struct ProneConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Power iterations in the randomized SVD range finder.
    pub power_iters: usize,
    /// Chebyshev expansion order (the paper's implementation uses 10).
    pub order: usize,
    /// Band-pass center `μ`.
    pub mu: f32,
    /// Band-pass width `θ`.
    pub theta: f32,
}

impl Default for ProneConfig {
    fn default() -> Self {
        ProneConfig {
            dim: 64,
            power_iters: 2,
            order: 8,
            mu: 0.2,
            theta: 0.5,
        }
    }
}

/// Bessel function of the first kind `J_k(x)` by power series (adequate
/// for the small `k ≤ 16`, `|x| ≤ 2` regime of ProNE's coefficients).
pub fn bessel_j(k: usize, x: f64) -> f64 {
    let half = x / 2.0;
    let mut term = half.powi(i32::try_from(k).unwrap_or(i32::MAX));
    for m in 1..=k {
        term /= m as f64;
    }
    let mut sum = term;
    for m in 1..30 {
        term *= -(half * half) / (m as f64 * (m + k) as f64);
        sum += term;
        if term.abs() < 1e-16 {
            break;
        }
    }
    sum
}

/// Stage 2: Chebyshev spectral propagation of an embedding table.
pub fn spectral_propagate(
    g: &Graph,
    emb: &Embedding,
    order: usize,
    mu: f32,
    theta: f32,
) -> Embedding {
    let n = g.num_nodes();
    let dim = emb.dim();
    assert_eq!(emb.len(), n, "embedding/graph size mismatch");
    let a_hat = SparseMatrix::normalized_adjacency(g);
    let flat: Vec<f32> = (0..n).flat_map(|v| emb.vector(v).to_vec()).collect();

    // L̃ X = (I − Â − μI) X = (1−μ)X − ÂX
    let apply_l = |x: &[f32]| -> Vec<f32> {
        let ax = a_hat.spmm(x, dim);
        x.iter()
            .zip(&ax)
            .map(|(&xi, &axi)| (1.0 - mu) * xi - axi)
            .collect()
    };

    let mut t_prev = flat.clone(); // T_0 = X
    let mut t_cur = apply_l(&flat); // T_1 = L̃ X
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Chebyshev coefficients are O(1)"
    )]
    let c0 = bessel_j(0, theta as f64) as f32;
    let mut acc: Vec<f32> = t_prev.iter().map(|&x| c0 * x).collect();
    for k in 1..=order {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "Chebyshev coefficients are O(1)"
        )]
        let ck = (2.0 * if k % 2 == 0 { 1.0 } else { -1.0 } * bessel_j(k, theta as f64)) as f32;
        for (a, &t) in acc.iter_mut().zip(&t_cur) {
            *a += ck * t;
        }
        if k < order {
            // T_{k+1} = 2 L̃ T_k − T_{k−1}
            let lt = apply_l(&t_cur);
            let t_next: Vec<f32> = lt.iter().zip(&t_prev).map(|(&l, &p)| 2.0 * l - p).collect();
            t_prev = std::mem::replace(&mut t_cur, t_next);
        }
    }

    // Row-normalize for scale stability.
    let mut out = acc;
    for v in 0..n {
        let row = &mut out[v * dim..(v + 1) * dim];
        let norm: f32 = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
    Embedding::new(dim, out)
}

/// Full ProNE pipeline: rSVD factorization + spectral propagation.
pub fn prone<R: Rng>(g: &Graph, cfg: &ProneConfig, rng: &mut R) -> Embedding {
    let n = g.num_nodes();
    assert!(n > 0, "empty graph");
    let dim = cfg.dim.min(n);
    let a_hat = SparseMatrix::normalized_adjacency(g);
    let svd = randomized_svd(&a_hat, dim, cfg.power_iters, rng);
    // E0 = U √Σ
    let mut e0 = vec![0.0f32; n * dim];
    for r in 0..n {
        for c in 0..dim {
            e0[r * dim + c] = svd.u[r * dim + c] * svd.sigma[c].sqrt();
        }
    }
    let initial = Embedding::new(dim, e0);
    spectral_propagate(g, &initial, cfg.order, cfg.mu, cfg.theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bessel_values_match_references() {
        // J_0(0.5) ≈ 0.938470, J_1(0.5) ≈ 0.242268, J_2(1.0) ≈ 0.114903
        assert!((bessel_j(0, 0.5) - 0.938470).abs() < 1e-5);
        assert!((bessel_j(1, 0.5) - 0.242268).abs() < 1e-5);
        assert!((bessel_j(2, 1.0) - 0.114903).abs() < 1e-5);
    }

    fn two_communities() -> Graph {
        // two K4s joined by one edge
        let mut b = GraphBuilder::new(8);
        for v in 0..8 {
            b.set_label(v, 0);
        }
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(i, j);
                b.add_edge(i + 4, j + 4);
            }
        }
        b.add_edge(3, 4);
        b.build()
    }

    #[test]
    fn prone_separates_communities() {
        let g = two_communities();
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = ProneConfig {
            dim: 4,
            ..Default::default()
        };
        let emb = prone(&g, &cfg, &mut rng);
        assert_eq!(emb.len(), 8);
        let within = emb.cosine(0, 1);
        let across = emb.cosine(0, 6);
        assert!(
            within > across,
            "within {within} should exceed across {across}"
        );
    }

    #[test]
    fn propagation_preserves_shape_and_finiteness() {
        let g = two_communities();
        let initial = Embedding::new(3, (0..24).map(|i| (i as f32).sin()).collect());
        let out = spectral_propagate(&g, &initial, 8, 0.2, 0.5);
        assert_eq!(out.len(), 8);
        assert_eq!(out.dim(), 3);
        for v in 0..8 {
            assert!(out.vector(v).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn dim_clamped_to_graph_size() {
        let mut b = GraphBuilder::new(3);
        for v in 0..3 {
            b.set_label(v, 0);
        }
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let mut rng = SmallRng::seed_from_u64(2);
        let emb = prone(
            &g,
            &ProneConfig {
                dim: 16,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(emb.dim(), 3);
    }
}
