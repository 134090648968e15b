//! `asdr_cluster` — sharded serving over the PR-4
//! [`RenderService`](asdr_serve::RenderService) (ROADMAP "serving
//! scale-out": the step from one warm process to a fleet).
//!
//! One process, one scheduler, one worker pool is not "heavy traffic from
//! millions of users". This crate adds the cluster layer, and it is one
//! router whether the shards are threads or processes:
//!
//! * [`Fleet`] — consistent-hashes requests by scene name over the live
//!   shards ([`HashRing`], 64 virtual nodes each), spills a request off a
//!   busy home to an idle warm shard and off a full one to the shard with
//!   the fewest in flight, and owns health/evict/rejoin, failover and ring
//!   re-warm. A shard evicted for missed probes has what it held failed
//!   over, so a hung shard is got past as a dead one is.
//!   Each shard's worker pool keeps the size it was built with.
//! * [`Shard`] — the one seam the fleet reaches its members through, with
//!   two backends: [`LocalShard`] (a `RenderService` in this process;
//!   shards run separate [`ModelStore`](asdr_serve::ModelStore)s over one
//!   checkpoint directory, so the store's cross-process lock-file
//!   single-flight keeps fits deduplicated fleet-wide) and [`RemoteShard`]
//!   (the [`wire`] client of an `asdr-shardd`, whose [`server`] loop
//!   drives a `LocalShard` through the same methods). Frames are
//!   byte-identical whichever backend serves them, and every layer fails
//!   with the service's own [`ServeError`](asdr_serve::ServeError).
//! * [`cost::CostModel`] — learns per-(scene, resolution) render cost
//!   online from completed request latencies (seeded from probe-point
//!   counts); `ClusterStats` reports predicted-vs-actual error.
//! * [`stats::ClusterStats`] — per-shard throughput and latency
//!   percentiles, miss rate, fit-dedup and failure
//!   counters, with the JSON artifact the `asdr-cluster` binary emits.
//!
//! ```no_run
//! use asdr_cluster::{Fleet, FleetConfig, LocalShards};
//! use asdr_scenes::registry;
//! use asdr_serve::{ModelStore, RenderProfile, RenderRequest};
//!
//! let profile = RenderProfile::tiny();
//! let store = ModelStore::builder().dir("/tmp/asdr-ckpts");
//! let shards = LocalShards { shards: 3, workers: 2, store, ..LocalShards::new(profile.clone()) }
//!     .build()
//!     .unwrap();
//! let fleet = Fleet::new(shards, &profile, FleetConfig::default()).unwrap();
//! let ticket = fleet.submit(RenderRequest::frame(registry::handle("Mic"), 48)).unwrap();
//! let result = ticket.wait().expect("request completed");
//! println!("shard {} rendered {} in {} us", ticket.shard(), result.scene, result.latency_us);
//! println!("{}", fleet.shutdown().to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod fleet;
pub mod net;
pub mod remote;
pub mod ring;
pub mod server;
pub mod shard;
pub mod stats;
pub mod wire;

pub use cost::{CostModel, CostStats};
// `RemoteFleet` is the name the frozen `benchmark/` knows the fleet by
pub use fleet::{Fleet, Fleet as RemoteFleet, FleetConfig, FleetTicket};
pub use net::{Listener, ShardAddr, Stream};
pub use remote::RemoteShard;
pub use ring::HashRing;
pub use server::Server;
pub use shard::{Done, LocalShard, LocalShards, Shard};
pub use stats::{ClusterStats, FleetStats, ShardStats};
