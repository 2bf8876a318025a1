//! # alss-bench
//!
//! One harness for the figure/table reproduction binaries (one binary per
//! table and figure of §6 and per ablation — see DESIGN.md's experiment
//! index). Each binary's `main` holds only what makes its figure
//! different — datasets, semantics, seeds, the knob it sweeps, its title
//! and footnote — and takes the rest from here:
//!
//! * [`scenario`] — the one sketch configuration
//!   ([`bench_sketch_config`]), the synthetic Table 2 analogues and
//!   Table 3 workloads (generated once and cached as JSON under
//!   `bench_data/`, so repeated runs skip ground-truth recomputation),
//!   the command-line dataset selection and the 80/20 split;
//! * [`evalkit`] — the one LSS scorer, the baseline dispatcher, the
//!   exact-engine timer, the per-size q-error and latency tables of
//!   Figs. 4/7 and 8/9, and the single-knob ablation sweep;
//! * [`table`] — aligned text tables; [`telemetry`] — the `--telemetry`
//!   flag; [`validate`] — the capture checker behind `validate_telemetry`.
//!
//! Scale and fidelity are controlled by environment variables:
//!
//! * `ALSS_SCALE` — dataset scale factor (default 0.25 of the DESIGN.md
//!   sizes; 1.0 for the full synthetic sizes);
//! * `ALSS_PER_SIZE` — labeled queries per query size (default 40);
//! * `ALSS_EPOCHS` — training epochs (default 60);
//! * `ALSS_FULL=1` — paper-fidelity model (3×64 GIN, 4-head attention)
//!   instead of the fast default (2×32, 2 heads);
//! * `ALSS_CACHE_DIR` — where datasets and workloads are cached (default
//!   `bench_data`).

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

pub use scenario::{bench_sketch_config, load_dataset, load_workload, per_size, scale, Scenario};
pub use table::TableWriter;
pub use telemetry::{strip_run_flags, telemetry_arg};
