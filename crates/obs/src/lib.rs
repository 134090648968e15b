//! `asdr_obs` — the observability layer under every serving crate: request
//! spans, counters, and diagnostic run bundles.
//!
//! The crate is **zero-dependency** (std only) and sits below `asdr_serve`
//! in the workspace DAG, so every layer from the model store up to the
//! remote fleet can thread through it:
//!
//! * [`mod@span`] — each request carries a [`TraceId`] and accumulates a span
//!   timeline (admit → queue → store → probe → render → reply) into a
//!   bounded process-global ring. The [`span!`] / [`event!`]
//!   macros are the only entry points: compiled out entirely without the
//!   `span-capture` feature, and one relaxed atomic load when compiled in
//!   but disabled at runtime (the default — creating a run bundle turns
//!   capture on, as [`set_enabled`] does).
//! * [`metrics`] — the relaxed-atomic [`Counter`] that the store and the
//!   fleet keep as plain fields and read back into `StoreStats` /
//!   `ClusterStats`.
//! * [`json`] — the one shared hand-rolled JSON writer (no serde in this
//!   environment) that every stats serializer and bundle file goes
//!   through, so number formatting cannot drift between crates again, and
//!   the one reader of the flat one-object-per-line formats it writes.
//! * [`bundle`] — diagnostic run bundles: every binary writes a directory
//!   from start to exit (config snapshot, periodic stats timeline,
//!   last-stage marker, span stream). A bundle streams from creation: spans
//!   write through to its `spans.jsonl` line-by-line, so a SIGKILLed daemon
//!   still leaves its timeline behind for the merged report.
//! * [`report`] — merges the bundles of a fleet run into a per-phase
//!   latency breakdown, the cross-process span joins (spills, failovers),
//!   and a dominant-phase attribution for every deadline miss.
//!
//! ```
//! use asdr_obs::TraceId;
//! use std::time::Instant;
//!
//! asdr_obs::set_enabled(true);
//! let trace = TraceId::fresh();
//! let t0 = Instant::now();
//! asdr_obs::span!(trace, "render", t0, Instant::now());
//! asdr_obs::event!(trace, "reply");
//! assert!(asdr_obs::span::snapshot().iter().any(|s| s.trace == trace));
//! # asdr_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use bundle::Bundle;
pub use json::JsonWriter;
pub use metrics::Counter;
pub use span::{enabled, set_enabled, SpanRecord, TraceId};
