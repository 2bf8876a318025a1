//! # alss-graph
//!
//! Labeled undirected graph substrate for the ALSS reproduction
//! (*A Learned Sketch for Subgraph Counting*, SIGMOD 2021).
//!
//! This crate provides:
//!
//! * [`Graph`] — a compact CSR representation of a node-labeled (and
//!   optionally edge-labeled) undirected graph, used for both data graphs
//!   and query graphs (§2 of the paper);
//! * [`GraphBuilder`] — an ergonomic incremental builder;
//! * [`LabelStats`] — label frequencies `F(l)` and the label entropy
//!   `Ent(Σ)` reported in Table 2;
//! * [`bfs_tree`] / [`decompose()`] — the `l`-hop BFS-tree query
//!   decomposition of §4.2 (Algorithm 1, line 1);
//! * [`augmented::label_augmented_graph`] — the label-augmented graph
//!   `G_L` of §4.3 (Fig. 3) used for embedding pre-training;
//! * [`extract`] — random connected-subgraph extraction, the query
//!   generator of §6.1;
//! * [`io`] — serde-based persistence of graphs and query workloads.
//!
//! Nodes in a *query* graph may be unlabeled (the paper's "**any**" label);
//! this is encoded with the sentinel [`WILDCARD`].
//!
//! ```
//! use alss_graph::{GraphBuilder, decompose};
//!
//! // a labeled triangle with a tail
//! let mut b = GraphBuilder::new(4);
//! b.set_label(0, 0).set_label(1, 1).set_label(2, 1).set_label(3, 2);
//! b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2).add_edge(2, 3);
//! let g = b.build();
//! assert_eq!(g.num_edges(), 4);
//! assert!(g.is_connected());
//!
//! // the paper's query decomposition: one BFS tree per node
//! let subs = decompose(&g, 3);
//! assert_eq!(subs.len(), 4);
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

pub mod augmented;
pub mod bfs;
pub mod builder;
pub mod canon;
pub mod decompose;
pub mod extract;
pub mod graph;
pub mod io;
pub mod labels;

pub use bfs::{bfs_tree, BfsTree};
pub use builder::GraphBuilder;
pub use canon::{canonical_hash, canonical_key, CanonicalKey};
pub use decompose::{decompose, Substructure};
pub use graph::{CsrViolation, EdgeRef, Graph};
pub use labels::LabelStats;

/// Node identifier within a graph (dense, `0..n`).
pub type NodeId = u32;
/// Label identifier (dense, `0..|Σ|`).
pub type LabelId = u32;

/// Sentinel label meaning "matches **any** label" on a query node/edge (§2).
pub const WILDCARD: LabelId = u32::MAX;

/// Checked `usize → NodeId` conversion for loop indices and array
/// positions. Graphs are bounded to `u32` ids by representation choice
/// (CSR offsets are `u32`); a debug assert catches an index that would
/// silently wrap, and this is the one place that cast is allowed to live.
#[inline]
#[must_use]
pub fn node_id(i: usize) -> NodeId {
    debug_assert!(
        u32::try_from(i).is_ok(),
        "node index {i} exceeds the u32 id space"
    );
    #[expect(
        clippy::cast_possible_truncation,
        reason = "checked above, and |V| < 2^32 by representation"
    )]
    {
        i as NodeId
    }
}

/// Checked `usize → LabelId` conversion; see [`node_id`].
#[inline]
#[must_use]
pub fn label_id(i: usize) -> LabelId {
    debug_assert!(
        u32::try_from(i).is_ok(),
        "label index {i} exceeds the u32 id space"
    );
    #[expect(
        clippy::cast_possible_truncation,
        reason = "checked above, and |Σ| < 2^32 by representation"
    )]
    {
        i as LabelId
    }
}

/// Does a query label match a data label?
///
/// A [`WILDCARD`] query label matches everything; otherwise the labels must
/// be equal. Data graphs never carry wildcards.
#[inline]
pub fn label_matches(query_label: LabelId, data_label: LabelId) -> bool {
    query_label == WILDCARD || query_label == data_label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_matches_everything() {
        assert!(label_matches(WILDCARD, 0));
        assert!(label_matches(WILDCARD, 12345));
        assert!(label_matches(3, 3));
        assert!(!label_matches(3, 4));
    }
}
