//! # alss-core
//!
//! The primary contribution of *A Learned Sketch for Subgraph Counting*
//! (Zhao et al., SIGMOD 2021), implemented from scratch in Rust: **LSS**, a
//! neural-network regression sketch for subgraph counting over large
//! labeled graphs, and **AL**, its specialized active learner (together:
//! **ALSS**).
//!
//! Pipeline (Fig. 2 / Algorithm 1):
//!
//! 1. [`alss_graph::decompose()`] a query into per-node 3-hop BFS-tree
//!    substructures, written straight into the packed block-diagonal
//!    graph the GIN reads;
//! 2. [`encode`] the substructures' nodes — frequency-based,
//!    pre-trained-embedding (ProNE on the label-augmented graph), or
//!    concatenated features, computed once per distinct label list, with
//!    the Eq. (4) edge-label extension — into one packed [`EncodedQuery`]
//!    that stores each distinct row once, with a per-row index;
//! 3. a GIN encoder produces per-substructure representations
//!    (`σ(·)` of Eq. 2), structured self-attention learns query-specific
//!    weights (`w(·)`), and a multi-task MLP emits `log10 c_Θ(q)` plus a
//!    count-magnitude posterior (`φ(·)` + §5's auxiliary classifier) —
//!    [`model`];
//! 4. training minimizes Eq. (6) = (1−λ)·MSE-log + λ·cross-entropy with
//!    Adam — [`train`];
//! 5. the active learner scores unlabeled test queries with
//!    CON/MAR/ENT/CTC uncertainty and fine-tunes on the selected batch —
//!    [`active`], [`sketch::active_round`].
//!
//! The one-call facade is [`sketch::LearnedSketch`]; accuracy metrics
//! (q-error, Eq. 1) live in [`metrics`].

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

pub mod active;
pub mod encode;
mod json;
pub mod metrics;
pub mod model;
pub mod parallel;
pub mod sketch;
pub mod train;
pub mod workload;

pub use active::{select_batch, uncertainty, LssEnsemble, Strategy};
pub use encode::{EncodedQuery, Encoder, EncodingKind};
pub use metrics::{l1_log_error, q_error, QErrorStats};
pub use model::{LssConfig, LssModel, Prediction};
pub use parallel::{par_map, Parallelism};
pub use sketch::{active_round, ActiveRoundReport, LearnedSketch, PoolItem, SketchConfig};
pub use train::{encode_workload_with, evaluate_with, train_model, TrainConfig, TrainReport};
pub use workload::{LabeledQuery, Workload};
