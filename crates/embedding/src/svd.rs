//! Randomized truncated SVD of a sparse symmetric operator (Halko,
//! Martinsson & Tropp), built on Gram–Schmidt QR and a Jacobi eigensolver —
//! the factorization stage of ProNE.

use crate::sparse::SparseMatrix;
use rand::Rng;

/// Orthonormalize the `k` columns of a row-major `n × k` matrix in place
/// (modified Gram–Schmidt). Returns false if a column degenerated (rank
/// deficiency), in which case it is replaced by zeros.
pub fn gram_schmidt(y: &mut [f32], n: usize, k: usize) -> bool {
    let mut full_rank = true;
    for j in 0..k {
        // subtract projections on previous columns
        for p in 0..j {
            let dot: f32 = (0..n).map(|r| y[r * k + j] * y[r * k + p]).sum();
            for r in 0..n {
                y[r * k + j] -= dot * y[r * k + p];
            }
        }
        let norm: f32 = (0..n)
            .map(|r| y[r * k + j] * y[r * k + j])
            .sum::<f32>()
            .sqrt();
        if norm < 1e-8 {
            full_rank = false;
            for r in 0..n {
                y[r * k + j] = 0.0;
            }
        } else {
            for r in 0..n {
                y[r * k + j] /= norm;
            }
        }
    }
    full_rank
}

/// Jacobi eigendecomposition of a symmetric `k × k` matrix (row-major).
/// Returns `(eigenvalues, eigenvectors)` with eigenvectors in columns,
/// sorted by descending eigenvalue.
pub fn jacobi_eigen(a: &[f32], k: usize, sweeps: usize) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(a.len(), k * k, "matrix shape");
    let mut m: Vec<f64> = a.iter().map(|&x| x as f64).collect();
    let mut v = vec![0.0f64; k * k];
    for i in 0..k {
        v[i * k + i] = 1.0;
    }
    for _ in 0..sweeps {
        let mut off = 0.0;
        for p in 0..k {
            for q in (p + 1)..k {
                off += m[p * k + q].abs();
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..k {
            for q in (p + 1)..k {
                let apq = m[p * k + q];
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = m[p * k + p];
                let aqq = m[q * k + q];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // rotate rows/cols p and q
                for i in 0..k {
                    let aip = m[i * k + p];
                    let aiq = m[i * k + q];
                    m[i * k + p] = c * aip - s * aiq;
                    m[i * k + q] = s * aip + c * aiq;
                }
                for i in 0..k {
                    let api = m[p * k + i];
                    let aqi = m[q * k + i];
                    m[p * k + i] = c * api - s * aqi;
                    m[q * k + i] = s * api + c * aqi;
                }
                for i in 0..k {
                    let vip = v[i * k + p];
                    let viq = v[i * k + q];
                    v[i * k + p] = c * vip - s * viq;
                    v[i * k + q] = s * vip + c * viq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&i, &j| {
        m[j * k + j]
            .partial_cmp(&m[i * k + i])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    #[expect(
        clippy::cast_possible_truncation,
        reason = "eigenvalues of a normalized operator are O(1)"
    )]
    let vals: Vec<f32> = order.iter().map(|&i| m[i * k + i] as f32).collect();
    let mut vecs = vec![0.0f32; k * k];
    for (newc, &oldc) in order.iter().enumerate() {
        for r in 0..k {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "eigenvectors of a normalized operator are O(1)"
            )]
            {
                vecs[r * k + newc] = v[r * k + oldc] as f32;
            }
        }
    }
    (vals, vecs)
}

/// Result of [`randomized_svd`]: `A ≈ U diag(σ) Vᵀ` (only `U` and `σ` are
/// materialized — embeddings need `U √σ`).
pub struct TruncatedSvd {
    /// Row-major `n × k` left singular vectors.
    pub u: Vec<f32>,
    /// Singular values, descending.
    pub sigma: Vec<f32>,
    /// Rank requested.
    pub k: usize,
}

/// Randomized truncated SVD of a *symmetric* sparse matrix.
pub fn randomized_svd<R: Rng>(
    a: &SparseMatrix,
    k: usize,
    power_iters: usize,
    rng: &mut R,
) -> TruncatedSvd {
    let n = a.dim();
    assert!(k >= 1 && k <= n, "rank k out of range");
    // Range finder: Y = A Ω, with optional power iterations (A is symmetric).
    let omega: Vec<f32> = (0..n * k).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    let mut y = a.spmm(&omega, k);
    for _ in 0..power_iters {
        gram_schmidt(&mut y, n, k);
        y = a.spmm(&y, k);
    }
    gram_schmidt(&mut y, n, k);
    let q = y; // n × k, orthonormal columns

    // B = Qᵀ A  (symmetric A ⇒ Bᵀ = A Q, n × k).
    let bt = a.spmm(&q, k);
    // M = B Bᵀ = BtᵀBt... careful: Bt = A Q (n × k) = Bᵀ, so
    // M = Bᵀᵀ Bᵀ? We need B Bᵀ (k × k) = (A Q)ᵀ (A Q).
    let mut m = vec![0.0f32; k * k];
    for r in 0..n {
        let row = &bt[r * k..(r + 1) * k];
        for i in 0..k {
            for j in i..k {
                m[i * k + j] += row[i] * row[j];
            }
        }
    }
    for i in 0..k {
        for j in 0..i {
            m[i * k + j] = m[j * k + i];
        }
    }
    let (vals, vecs) = jacobi_eigen(&m, k, 30);
    let sigma: Vec<f32> = vals.iter().map(|&l| l.max(0.0).sqrt()).collect();

    // U = Q · U_B where U_B columns are eigenvectors of B Bᵀ... note
    // B = U_B Σ V_Bᵀ with U_B ∈ ℝ^{k×k} the eigvecs of B Bᵀ = M.
    let mut u = vec![0.0f32; n * k];
    for r in 0..n {
        for c in 0..k {
            let mut s = 0.0;
            for t in 0..k {
                s += q[r * k + t] * vecs[t * k + c];
            }
            u[r * k + c] = s;
        }
    }
    TruncatedSvd { u, sigma, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gram_schmidt_orthonormalizes() {
        let n = 4;
        let k = 2;
        let mut y = vec![1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0];
        assert!(gram_schmidt(&mut y, n, k));
        let dot: f32 = (0..n).map(|r| y[r * k] * y[r * k + 1]).sum();
        assert!(dot.abs() < 1e-5);
        let n0: f32 = (0..n).map(|r| y[r * k] * y[r * k]).sum();
        assert!((n0 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1
        let (vals, vecs) = jacobi_eigen(&[2.0, 1.0, 1.0, 2.0], 2, 20);
        assert!((vals[0] - 3.0).abs() < 1e-4);
        assert!((vals[1] - 1.0).abs() < 1e-4);
        // eigenvector for λ=3 is (1,1)/√2 up to sign
        let v0 = (vecs[0], vecs[2]);
        assert!((v0.0.abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((v0.0 - v0.1).abs() < 1e-3 || (v0.0 + v0.1).abs() < 1e-3);
    }

    #[test]
    fn rsvd_recovers_dominant_structure() {
        // Â of two disjoint triangles: top singular vectors separate blocks
        use alss_graph::builder::graph_from_edges;
        let g = graph_from_edges(
            &[0, 0, 0, 0, 0, 0],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        );
        let a = SparseMatrix::normalized_adjacency(&g);
        let mut rng = SmallRng::seed_from_u64(0);
        let svd = randomized_svd(&a, 2, 3, &mut rng);
        // both leading singular values should be ≈ 1 (two components)
        assert!((svd.sigma[0] - 1.0).abs() < 0.05, "{:?}", svd.sigma);
        assert!((svd.sigma[1] - 1.0).abs() < 0.05, "{:?}", svd.sigma);
        // within a component, U rows coincide; across, they differ
        let row = |r: usize| (svd.u[r * 2], svd.u[r * 2 + 1]);
        let d01 = (row(0).0 - row(1).0).abs() + (row(0).1 - row(1).1).abs();
        let d03 = (row(0).0 - row(3).0).abs() + (row(0).1 - row(3).1).abs();
        assert!(d01 < 1e-3, "same-block rows should match: {d01}");
        assert!(d03 > 1e-2, "cross-block rows should differ: {d03}");
    }
}
