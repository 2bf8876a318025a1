//! # alss-embedding
//!
//! From-scratch node-embedding pre-training for the LSS embedding-based
//! feature encoding (§4.3). The paper pre-trains node embeddings on the
//! *label-augmented graph* `G_L` with a scalable, task-independent method
//! (it evaluates DeepWalk, node2vec, ProNE and NRP, choosing ProNE); LSS
//! then encodes a query node as the sum of its labels' embeddings.
//!
//! This crate implements three of those methods without external ML
//! dependencies:
//!
//! * [`deepwalk()`] — uniform random walks + skip-gram with negative
//!   sampling ([`skipgram`]);
//! * [`node2vec()`] — p/q-biased second-order walks over the same skip-gram
//!   trainer;
//! * [`prone()`] — a ProNE-style two-stage method: randomized truncated SVD
//!   of the normalized adjacency ([`svd`]) followed by Chebyshev spectral
//!   propagation ([`prone::spectral_propagate`]).
//!
//! NRP is omitted: the paper selects ProNE for LSS-emb, and the other
//! methods exist here to reproduce the "we tried 4 embeddings" comparison
//! (ablation bench `ablation_embedding`).
//!
//! ```
//! use alss_embedding::prone::{prone, ProneConfig};
//! use alss_graph::GraphBuilder;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // two triangles joined by a bridge
//! let mut b = GraphBuilder::new(6);
//! for v in 0..6 { b.set_label(v, 0); }
//! b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
//! b.add_edge(3, 4).add_edge(4, 5).add_edge(3, 5);
//! b.add_edge(2, 3);
//! let g = b.build();
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let emb = prone(&g, &ProneConfig { dim: 4, ..Default::default() }, &mut rng);
//! assert_eq!(emb.len(), 6);
//! assert_eq!(emb.dim(), 4);
//! ```

// Library code reports failures as `Result`, prints only through
// `alss_telemetry`, and waives a lint only with `#[expect(.., reason)]`.
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "a panic is a test's failure report, and fixtures are tiny"
    )
)]

pub mod deepwalk;
pub mod embedding;
pub mod node2vec;
pub mod prone;
pub mod skipgram;
pub mod sparse;
pub mod svd;
pub mod walks;

pub use deepwalk::{deepwalk, DeepWalkConfig};
pub use embedding::Embedding;
pub use node2vec::{node2vec, Node2VecConfig};
pub use prone::{prone, ProneConfig};
