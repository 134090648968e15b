//! `asdr_serve` — the multi-tenant render service (ROADMAP: "serves heavy
//! traffic from millions of users").
//!
//! Sustained throughput on the simulated chip comes from scheduling many
//! concurrent requests over shared warm state, not from one fast frame.
//! This crate layers that serving story on top of the
//! [`FrameEngine`](asdr_core::algo::FrameEngine) session API:
//!
//! * [`store::ModelStore`] — a persistent, versioned, checkpoint-backed fit
//!   cache keyed by (scene name, fit-config fingerprint): an in-memory
//!   `Arc` layer with LRU eviction and single-flight fit deduplication,
//!   over an optional on-disk directory of VERSION-2 checkpoints so fits
//!   survive across processes;
//! * [`service::RenderService`] — a bounded admission queue with
//!   deadline-aware priority ordering feeding a worker pool; a worker
//!   claims one request at a time, and multi-frame requests reuse their
//!   sample plan via [`PlanPolicy::Reuse`](asdr_core::algo::PlanPolicy);
//! * [`workload`] — the JSON-lines workload format, with its one reader
//!   and one writer (what `--record` captures), and the one shared
//!   [`ReplayDriver`] that both `asdr-serve` and `asdr-cluster` submit a
//!   parsed `Vec<`[`TimedRequest`]`>` through;
//! * [`ServeError`] — the one error vocabulary of the serving stack: the
//!   service, the cluster's shard seam and its fleet all return it, and
//!   each layer reads its own decision (wait, retry elsewhere, evict,
//!   fail) off the variant.
//!
//! ```no_run
//! use asdr_serve::{ModelStore, Priority, RenderProfile, RenderRequest, RenderService};
//! use asdr_scenes::registry;
//! use std::sync::Arc;
//!
//! let store = Arc::new(ModelStore::builder().dir("/tmp/asdr-ckpts").build());
//! let service =
//!     RenderService::builder(RenderProfile::tiny()).store(store).workers(2).build().unwrap();
//! let ticket = service
//!     .submit(
//!         RenderRequest::frame(registry::handle("Mic"), 48).with_priority(Priority::High),
//!     )
//!     .unwrap();
//! let result = ticket.wait().expect("request completed");
//! println!("{} in {:?} (cache: {:?})", result.scene, result.latency, service.store().stats());
//! ```
//!
//! The `ASDR_STORE_DIR` environment variable is read once per process; an
//! explicit builder setting always wins — see [`config`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod flags;
pub mod profile;
pub mod service;
pub mod store;
pub mod workload;

pub use profile::RenderProfile;
pub use service::{
    Priority, RenderRequest, RenderResult, RenderService, RenderTicket, ServeError, ServeStats,
};
pub use store::{ModelStore, StoreKey, StoreStats};
pub use workload::{parse_workload, ReplayDriver, ReplayTarget, TimedRequest};
