//! The trained embedding table.

/// A dense `n × dim` node-embedding table.
#[derive(Clone, Debug)]
pub struct Embedding {
    dim: usize,
    data: Vec<f32>,
}

impl Embedding {
    /// Build from a flat row-major table.
    pub fn new(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "embedding dim must be positive");
        assert_eq!(data.len() % dim, 0, "table length not divisible by dim");
        Embedding { dim, data }
    }

    /// All-zeros table for `n` nodes.
    pub fn zeros(n: usize, dim: usize) -> Self {
        Embedding {
            dim,
            data: vec![0.0; n * dim],
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded nodes.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vector of node `v`.
    #[inline]
    pub fn vector(&self, v: usize) -> &[f32] {
        &self.data[v * self.dim..(v + 1) * self.dim]
    }

    /// Cosine similarity between two nodes' vectors (0 when either is 0).
    pub fn cosine(&self, a: usize, b: usize) -> f32 {
        let (va, vb) = (self.vector(a), self.vector(b));
        let dot: f32 = va.iter().zip(vb).map(|(&x, &y)| x * y).sum();
        let na: f32 = va.iter().map(|&x| x * x).sum::<f32>().sqrt();
        let nb: f32 = vb.iter().map(|&x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Sum of the vectors of `nodes` (used by LSS-emb to encode a query
    /// node as the sum of its labels' embeddings).
    pub fn sum_of(&self, nodes: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        for &v in nodes {
            for (o, &x) in out.iter_mut().zip(self.vector(v)) {
                *o += x;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let e = Embedding::new(2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.vector(1), &[0.0, 1.0]);
    }

    #[test]
    fn cosine_similarity() {
        let e = Embedding::new(2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
        assert!((e.cosine(0, 2) - 1.0).abs() < 1e-6);
        assert!(e.cosine(0, 1).abs() < 1e-6);
        assert_eq!(e.cosine(0, 3), 0.0);
    }

    #[test]
    fn sum_of_vectors() {
        let e = Embedding::new(2, vec![1.0, 2.0, 10.0, 20.0]);
        assert_eq!(e.sum_of(&[0, 1]), vec![11.0, 22.0]);
        assert_eq!(e.sum_of(&[]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_table_rejected() {
        let _ = Embedding::new(2, vec![1.0, 2.0, 3.0]);
    }
}
