//! # alss-bench
//!
//! Shared harness for the figure/table reproduction binaries (one binary
//! per table and figure of §6 — see DESIGN.md's experiment index).
//!
//! The harness generates the synthetic Table 2 analogues and Table 3
//! workloads once and caches them as JSON under `bench_data/`, so repeated
//! figure runs skip ground-truth recomputation. Scale and fidelity are
//! controlled by environment variables:
//!
//! * `ALSS_SCALE` — dataset scale factor (default 0.25 of the DESIGN.md
//!   sizes; 1.0 for the full synthetic sizes);
//! * `ALSS_PER_SIZE` — labeled queries per query size (default 25);
//! * `ALSS_EPOCHS` — training epochs (default 40);
//! * `ALSS_FULL=1` — paper-fidelity model (3×64 GIN, 4-head attention)
//!   instead of the fast default (2×32, 2 heads).

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

pub mod evalkit;
pub mod scenario;
pub mod table;
pub mod telemetry;
pub mod validate;

pub use scenario::{
    bench_model_config, bench_train_config, epochs, full_fidelity, load_dataset, load_workload,
    per_size, scale, Scenario,
};
pub use table::TableWriter;
pub use telemetry::{strip_run_flags, telemetry_arg};
