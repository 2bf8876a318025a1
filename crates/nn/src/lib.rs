//! # alss-nn
//!
//! A from-scratch neural-network stack sufficient to express the LSS model
//! of *A Learned Sketch for Subgraph Counting* (SIGMOD 2021) — replacing
//! PyTorch + PyTorch Geometric in the original implementation.
//!
//! Components:
//!
//! * [`mat::Mat`] — dense `f32` matrices;
//! * [`tape::Tape`] — define-by-run reverse-mode autodiff over the op set
//!   the LSS architecture needs (matmul, broadcasts, ReLU/tanh/softmax,
//!   dropout, GIN graph aggregation, concat/slice/flatten);
//! * [`param::ParamStore`] — persistent parameters (weights and names
//!   only); [`param::GradShard`] — the gradient accumulator a backward
//!   pass fills and the optimizer reads;
//! * [`linear`] — `Linear` / `Mlp` layers; [`gin`] — GIN encoder;
//!   [`attention`] — structured self-attention (Algorithm 1, lines 8–11);
//! * [`gin::PackedGraphs`] — the one graph format GIN reads: many graphs
//!   packed into one block-diagonal graph. Each layer has a tape-free
//!   `infer` for inference, which reads weights in place and runs GIN
//!   over all packed graphs at once, and a tape `forward` for training,
//!   which runs one packed graph at a time; the two share their `Mat`
//!   kernels, so `infer` equals an eval-tape `forward` bit for bit;
//! * [`loss`] — Eq. (3)/(5)/(6) losses; [`adam`] — Adam with weight decay
//!   and LR decay;
//! * [`gradcheck`] — finite-difference validation used by the test suite.
//!
//! Determinism: initialization draws from a caller-provided `rand::Rng`,
//! and dropout draws from the RNG a training tape ([`Tape::train`]) owns,
//! in op order. An eval tape ([`Tape::eval`]) draws nothing, so inference
//! is a pure function of the weights and the input.
//!
//! ```
//! use alss_nn::{Activation, Adam, AdamConfig, Mat, Mlp, ParamStore, Tape};
//! use alss_nn::loss::mse_log_loss;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // fit y = 2x with a tiny MLP
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let mlp = Mlp::new(&mut store, "m", &[1, 8, 1], Activation::Tanh, 0.0, &mut rng);
//! let mut adam = Adam::new(AdamConfig { lr: 0.02, weight_decay: 0.0, ..Default::default() }, &store);
//! let mut grads = store.grad_shard();
//! for step in 0..200 {
//!     grads.zero();
//!     let mut tape = Tape::train(SmallRng::seed_from_u64(step));
//!     let x = tape.input(Mat::from_vec(4, 1, vec![0.0, 0.25, 0.5, 1.0]));
//!     let y = mlp.forward(&mut tape, &store, x);
//!     let loss = mse_log_loss(&mut tape, y, &[0.0, 0.5, 1.0, 2.0]);
//!     tape.backward(loss, &mut grads);
//!     adam.step(&mut store, &grads);
//! }
//! // evaluate at x = 0.75 → ≈ 1.5
//! let mut tape = Tape::eval();
//! let x = tape.input(Mat::from_vec(1, 1, vec![0.75]));
//! let y = mlp.forward(&mut tape, &store, x);
//! assert!((tape.value(y).scalar() - 1.5).abs() < 0.2);
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

pub mod adam;
pub mod attention;
pub mod gin;
pub mod gradcheck;
pub mod init;
pub mod linear;
pub mod loss;
pub mod mat;
pub mod param;
pub mod tape;

pub use adam::{Adam, AdamConfig};
pub use attention::SelfAttention;
pub use gin::{Aggregation, GinEncoder, GinLayer, PackedGraphs};
pub use linear::{Activation, Linear, Mlp};
pub use mat::Mat;
pub use param::{GradShard, ParamId, ParamStore};
pub use tape::{Tape, Var};
