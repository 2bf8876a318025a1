//! # alss-ghd
//!
//! The query-optimization substrate for §6.6 of *A Learned Sketch for
//! Subgraph Counting*: generalized hypertree decompositions (GHD) in the
//! style of EmptyHeaded, costed either by the classical AGM bound or by a
//! pluggable cardinality estimator (the bench harness plugs in LSS).
//!
//! * [`simplex`] — a dense two-phase simplex LP solver;
//! * [`cover`] — fractional edge covers `ρ*` and the (label-aware) AGM
//!   bound `min_x Π_e |R_e|^{x_e}`;
//! * [`enumerate`] — GHD enumeration for small queries: edge partitions
//!   with connected bags, validated α-acyclic by GYO reduction;
//! * [`plan`] — plan costing (`max_i ĉ(τ_i)`), selection, and true-cost
//!   evaluation (`max_i |R_{τ_i}|` by exact counting).
//!
//! ```
//! use alss_ghd::{enumerate_ghds, fractional_edge_cover};
//! use alss_graph::builder::graph_from_edges;
//! use alss_graph::WILDCARD;
//!
//! // the triangle has fractional edge cover number 3/2 (AGM: |E|^1.5)
//! let tri = graph_from_edges(&[WILDCARD; 3], &[(0, 1), (1, 2), (0, 2)]);
//! let (rho, _) = fractional_edge_cover(&tri).unwrap();
//! assert!((rho - 1.5).abs() < 1e-6);
//!
//! // GHD plans: the whole-triangle bag plus two-bag splits
//! let plans = enumerate_ghds(&tri, 3);
//! assert!(plans.iter().any(|d| d.bags.len() == 1));
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

pub mod cover;
pub mod enumerate;
pub mod plan;
pub mod simplex;

pub use cover::{agm_bound, fractional_edge_cover};
pub use enumerate::{enumerate_ghds, Decomposition};
pub use plan::{agm_cost, choose_plan, true_cost, PlanChoice, RelationIndex};
