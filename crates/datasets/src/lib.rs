//! # alss-datasets
//!
//! Synthetic stand-ins for the paper's evaluation data (§6.1): generators
//! for the six Table 2 data graphs (the originals are not redistributable)
//! and the Table 3 query workloads with exact ground-truth labeling.
//!
//! * [`zipf`] — Zipf label assignment calibrated to a target label entropy
//!   `Ent(Σ)` (the skew knob §6.2's sampling-failure analysis hinges on);
//! * [`generators`] — topology families (Erdős–Rényi, Barabási–Albert,
//!   Watts–Strogatz, molecule forests, knowledge graphs);
//! * [`datasets`] — the six analogues (`aids`, `yeast`, `youtube`,
//!   `wordnet`, `eu2005`, `yago`) with per-dataset family/entropy choices;
//! * [`queries`] — random connected-subgraph workload generation with
//!   parallel exact labeling (`alss_core::par_map`) and budget filtering,
//!   plus the §6.6 frequent/infrequent pattern labeling.
//!
//! ```
//! use alss_datasets::{by_name, generate_workload, WorkloadSpec};
//!
//! let data = by_name("yeast", 0.05, 0).unwrap();
//! let workload = generate_workload(&data, &WorkloadSpec {
//!     sizes: vec![3],
//!     per_size: 5,
//!     budget_per_query: 1_000_000,
//!     ..Default::default()
//! });
//! assert!(!workload.is_empty());
//! assert!(workload.queries.iter().all(|q| q.count >= 1));
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

pub mod datasets;
pub mod generators;
pub mod queries;
pub mod zipf;

pub use datasets::{all_specs, by_name, generate, DatasetSpec};
pub use queries::{
    assign_pattern_labels, generate_workload, unlabeled_patterns, unlabeled_pool, WorkloadSpec,
};
