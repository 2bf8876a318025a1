//! `alss-serve` — estimate serving for the learned sketch.
//!
//! A std-only, multi-threaded TCP server that loads a trained
//! [`LearnedSketch`](alss_core::LearnedSketch) checkpoint and answers
//! subgraph-count estimate requests over newline-delimited JSON:
//!
//! * **Canonical caching** — queries are keyed by the 1-WL canonical hash
//!   from `alss_graph::canon`, so isomorphic re-submissions of an
//!   already-answered query hit a sharded LRU cache without touching the
//!   model ([`cache`]).
//! * **One handler per connection** — each connection's requests are
//!   answered in order on its own thread, and a cache miss runs the model
//!   there. Per-query compute is pure, so answers are bit-identical
//!   however many connections are live ([`server`]).
//! * **Graceful degradation** — per-request deadlines; an expired deadline
//!   or an unloadable checkpoint falls back to a deterministic Wander-Join
//!   estimate tagged `degraded:true` ([`engine`]). Transient checkpoint
//!   read failures are retried with bounded exponential backoff.
//! * **Telemetry** — a per-request span, cache hit/miss and overload
//!   counters, and a latency histogram, always recorded in the metrics
//!   table; span and event lines are written only when a sink is
//!   installed (`--telemetry <path>` or `ALSS_TELEMETRY`).
//!
//! The wire protocol is documented in [`proto`]; [`client`] provides a
//! blocking client plus the load generator used by the e2e tests and the
//! CI smoke gate.

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

pub mod cache;
pub mod client;
pub mod engine;
pub mod proto;
pub mod server;

pub use cache::{CachedEstimate, ShardedLru};
pub use client::{run_load, Client, LoadReport};
pub use engine::{load_sketch_with_retry, magnitude_class_of, Outcome};
pub use proto::{Request, Response};
pub use server::{serve, ServeConfig, ServerHandle};
