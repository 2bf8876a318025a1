//! # alss-matching
//!
//! Exact subgraph counting by **homomorphism** and **subgraph isomorphism**
//! over labeled undirected graphs — the ground-truth engine of the ALSS
//! reproduction (standing in for Graphflow / GraphQL in §6.1, and for the
//! `GFlow` / `GQL` series of Figs. 8–9).
//!
//! The engine is a backtracking search in the style of Ullmann's algorithm
//! with the standard modern refinements analyzed in the paper's related
//! work:
//!
//! * label + degree + neighbor-label **candidate filtering**
//!   ([`candidates`]);
//! * a greedy connected **matching order** that starts from the rarest
//!   candidate set ([`order`]);
//! * **budgeted** search — a node-expansion budget models the paper's
//!   "true count computable within 2 hours" workload filter ([`budget`]).
//!
//! Each count is sequential; workload labeling parallelises across queries
//! instead (`alss_datasets::generate_workload`), as the paper does for its
//! 32-CPU ground-truth step.
//!
//! Counting is exact: the returned value is the number of homomorphism
//! (resp. subgraph-isomorphism) functions `f : V_q → V` as defined in §2.
//!
//! ```
//! use alss_graph::builder::graph_from_edges;
//! use alss_matching::{count_homomorphisms, count_isomorphisms, Budget};
//!
//! let data = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]); // K3
//! let path = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
//!
//! let b = Budget::unlimited();
//! assert_eq!(count_homomorphisms(&data, &path, &b).unwrap(), 12); // folds allowed
//! assert_eq!(count_isomorphisms(&data, &path, &b).unwrap(), 6);   // injective only
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

pub mod budget;
pub mod candidates;
pub(crate) mod engine;
pub mod exists;
pub mod homomorphism;
pub mod isomorphism;
pub mod order;

pub use budget::{Budget, BudgetExceeded};
pub use exists::{homomorphism_exists, isomorphism_exists};
pub use homomorphism::count_homomorphisms;
pub use isomorphism::count_isomorphisms;

use alss_graph::Graph;

/// Which matching semantics to count under (§2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Any structure/label-preserving function `f : V_q → V`.
    Homomorphism,
    /// Injective homomorphisms.
    Isomorphism,
}

impl Semantics {
    /// Count matchings of `query` in `data` under these semantics.
    pub fn count(
        self,
        data: &Graph,
        query: &Graph,
        budget: &Budget,
    ) -> Result<u64, BudgetExceeded> {
        match self {
            Semantics::Homomorphism => count_homomorphisms(data, query, budget),
            Semantics::Isomorphism => count_isomorphisms(data, query, budget),
        }
    }
}

impl std::fmt::Display for Semantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Semantics::Homomorphism => write!(f, "homomorphism"),
            Semantics::Isomorphism => write!(f, "isomorphism"),
        }
    }
}

#[cfg(test)]
mod semantics_tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;

    #[test]
    fn dispatch_matches_direct_calls() {
        let d = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let b = Budget::unlimited();
        assert_eq!(
            Semantics::Homomorphism.count(&d, &q, &b).unwrap(),
            count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap()
        );
        assert_eq!(
            Semantics::Isomorphism.count(&d, &q, &b).unwrap(),
            count_isomorphisms(&d, &q, &Budget::unlimited()).unwrap()
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Semantics::Homomorphism.to_string(), "homomorphism");
        assert_eq!(Semantics::Isomorphism.to_string(), "isomorphism");
    }
}
