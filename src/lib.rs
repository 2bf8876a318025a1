//! # ALSS — Active Learned Sketch for Subgraph Counting
//!
//! A from-scratch Rust reproduction of *"A Learned Sketch for Subgraph
//! Counting"* (Zhao, Yu, Zhang, Li, Rong — SIGMOD 2021): a GNN-based
//! learned estimator for homomorphism / subgraph-isomorphism counts over
//! large labeled graphs, with an active learner for online model updates.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`graph`] — labeled CSR graphs, BFS-tree decomposition, label
//!   statistics, the label-augmented graph, query extraction;
//! * [`matching`] — exact budgeted homomorphism/isomorphism counting;
//! * [`nn`] — the tape-autograd neural stack (GIN, attention, Adam);
//! * [`embedding`] — DeepWalk / node2vec / ProNE pre-training;
//! * [`estimators`] — the seven G-CARE baselines (CSET, SumRDF, IMPR, CS,
//!   WJ, JSUB, BS) and isomorphism variants;
//! * [`core`] — **LSS + AL**, the paper's contribution
//!   ([`core::LearnedSketch`] is the one-call facade);
//! * [`ghd`] — GHD query optimization with AGM vs learned costing (§6.6);
//! * [`datasets`] — synthetic Table 2 analogues and Table 3 workloads;
//! * [`serve`] — the TCP estimate server with canonical-query caching
//!   and deadline fallback (`alss serve` / `alss query`).
//!
//! ## Quickstart
//!
//! ```
//! use alss::core::{LearnedSketch, SketchConfig, Workload, LabeledQuery};
//! use alss::graph::builder::graph_from_edges;
//! use alss::matching::{count_homomorphisms, Budget};
//!
//! // a small labeled data graph
//! let data = graph_from_edges(&[0, 0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
//!
//! // label a few training queries with exact counts
//! let shapes: Vec<(Vec<u32>, Vec<(u32, u32)>)> = vec![
//!     (vec![0, 0], vec![(0, 1)]),
//!     (vec![0, 1], vec![(0, 1)]),
//!     (vec![1, 2], vec![(0, 1)]),
//!     (vec![0, 1, 2], vec![(0, 1), (1, 2)]),
//!     (vec![0, 0, 1], vec![(0, 1), (1, 2)]),
//! ];
//! let queries = shapes
//!     .into_iter()
//!     .map(|(l, e)| {
//!         let q = graph_from_edges(&l, &e);
//!         let c = count_homomorphisms(&data, &q, &Budget::unlimited()).unwrap();
//!         LabeledQuery::new(q, c.max(1))
//!     })
//!     .collect();
//!
//! // train the sketch and estimate an unseen query
//! let (sketch, _report) = LearnedSketch::train(
//!     &data,
//!     &Workload::from_queries(queries),
//!     &SketchConfig::tiny(),
//! );
//! let q = graph_from_edges(&[1, 1], &[(0, 1)]);
//! assert!(sketch.estimate(&q) >= 1.0);
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

pub use alss_core as core;
pub use alss_datasets as datasets;
pub use alss_embedding as embedding;
pub use alss_estimators as estimators;
pub use alss_ghd as ghd;
pub use alss_graph as graph;
pub use alss_matching as matching;
pub use alss_nn as nn;
pub use alss_serve as serve;
pub use alss_telemetry as telemetry;
