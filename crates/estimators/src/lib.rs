//! # alss-estimators
//!
//! From-scratch Rust re-implementations of the seven cardinality-estimation
//! baselines the paper compares against through the G-CARE benchmark
//! (§6.1), plus the isomorphism-revised variants of WJ and IMPR (§6.2):
//!
//! | name | style | module |
//! |------|-------|--------|
//! | CSET | summary (characteristic sets, star decomposition) | [`cset`] |
//! | SumRDF | summary (label summary graph, expected matchings) | [`sumrdf`] |
//! | IMPR | sampling (random-walk visible subgraphs, ≤5-node queries) | [`impr`] |
//! | CS | sampling (correlated hash-based vertex sampling) | [`cs`] |
//! | WJ | sampling (wander join random walks, Horvitz–Thompson) | [`wj`] |
//! | JSUB | sampling (maximal acyclic subquery upper bound) | [`jsub`] |
//! | BS | bound sketch (label-aware AGM bound) | [`bound_sketch`] |
//!
//! All estimators implement [`CardinalityEstimator`]; sampling-based ones
//! report *sampling failure* — the central phenomenon of Figs. 4–5 — when
//! every drawn sample is invalid, in which case the estimate is 0.
//!
//! ```
//! use alss_estimators::{CardinalityEstimator, LabelIndex, WanderJoin};
//! use alss_graph::builder::graph_from_edges;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let data = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
//! let index = LabelIndex::new(&data);
//! let wj = WanderJoin::new(&index, 500);
//! let query = graph_from_edges(&[0, 0], &[(0, 1)]);
//! let mut rng = SmallRng::seed_from_u64(0);
//! let est = wj.estimate(&query, &mut rng);
//! assert!(!est.failed);
//! assert!((est.count - 8.0).abs() < 2.0); // 2|E| = 8 ordered edge matchings
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

pub mod bound_sketch;
pub mod cs;
pub mod cset;
pub mod impr;
pub mod index;
pub mod jsub;
pub mod sumrdf;
pub mod wj;

pub use bound_sketch::BoundSketch;
pub use cs::CorrelatedSampling;
pub use cset::CharacteristicSets;
pub use impr::Impr;
pub use index::LabelIndex;
pub use jsub::JSub;
pub use sumrdf::SumRdf;
pub use wj::WanderJoin;

use alss_graph::Graph;
use rand::rngs::SmallRng;

/// An estimation result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Estimated number of matchings (≥ 0; may be fractional).
    pub count: f64,
    /// True iff the estimator suffered *sampling failure*: every sample was
    /// invalid so the returned count is 0 with no information. Summary- and
    /// bound-based estimators never fail.
    pub failed: bool,
}

impl Estimate {
    /// A successful estimate.
    pub fn ok(count: f64) -> Self {
        Estimate {
            count,
            failed: false,
        }
    }

    /// Sampling failure (count 0).
    pub fn failure() -> Self {
        Estimate {
            count: 0.0,
            failed: true,
        }
    }

    /// The estimate clamped to ≥ 1 for q-error computation (the paper
    /// assumes `ĉ(q) ≥ 1`).
    pub fn clamped(&self) -> f64 {
        self.count.max(1.0)
    }
}

/// Common interface over all baselines.
pub trait CardinalityEstimator {
    /// Short display name matching the paper's figures (e.g. `"WJ"`).
    fn name(&self) -> &'static str;

    /// Estimate the matching count of `query`.
    fn estimate(&self, query: &Graph, rng: &mut SmallRng) -> Estimate;
}
