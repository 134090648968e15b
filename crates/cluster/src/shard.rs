//! The seam between the router and whatever renders: [`Shard`].
//!
//! [`Fleet`](crate::Fleet) reaches its shards only through this trait, so
//! ring, spill, eviction and failover are written once,
//! over `dyn Shard`. Two backends ship: [`LocalShard`], a
//! [`RenderService`] in this process, and
//! [`RemoteShard`](crate::RemoteShard), the wire client of an
//! `asdr-shardd` — whose connection loop ([`crate::server`]) in turn
//! drives a `LocalShard` through the same methods. A third lives in
//! `tests/fleet_seam.rs`: a fake whose requests complete, stall or die on
//! the test's command, which is what makes the failover path testable
//! without a process or a sleep.
//!
//! Every method fails with the service's own [`ServeError`]: a shard in
//! this process passes its service's error through untouched, a remote
//! one adds [`ServeError::Connection`] and [`ServeError::Protocol`].

use crate::wire::{WireResult, WireStats};
use asdr_serve::store::ModelStoreBuilder;
use asdr_serve::{ModelStore, RenderProfile, RenderRequest, RenderService, ServeError};
use std::sync::Arc;
use std::time::Duration;

/// How a shard reports that a submitted request is terminal on it: called
/// once, with the result or with why there is none, by whoever learns it —
/// the service worker that rendered it ([`LocalShard`]), the reader thread
/// of the connection it came back on, was refused on or died with
/// ([`RemoteShard`](crate::RemoteShard)) — whether or not anyone is waiting.
/// It must be cheap to call: the caller has a queue or a socket to get back
/// to. Dropping it uncalled says the request was lost and counts as an `Err`.
pub type Done = Box<dyn FnOnce(Result<WireResult, ServeError>) + Send>;

/// One member of a fleet. The `timeout`s bound a remote round trip; a
/// shard in this process answers at once and ignores them.
pub trait Shard: Send + Sync {
    /// Hands a request to the shard, reporting its end through `done` —
    /// which may run before this returns, on a shard that finishes at once.
    /// A refusal the shard decides later (a remote one answers only once
    /// the request has crossed the wire) is one of those ends, through
    /// `done`.
    ///
    /// # Errors
    ///
    /// Nothing was admitted, and `done` is dropped uncalled: the service's
    /// refusal from a shard that decides at once,
    /// [`ServeError::Connection`] when the shard is unreachable.
    fn submit(&self, req: &RenderRequest, done: Done) -> Result<(), ServeError>;

    /// Gives up on every request the shard holds: each one's [`Done`] is
    /// called with [`ServeError::Connection`] (`why`), exactly as if the
    /// shard had died under it, so the fleet fails it over. Its probes are
    /// left as they were. What the fleet's health loop calls each round
    /// the shard stays silent past eviction; a shard whose health cannot
    /// fail (one in this process) is never silent and holds nothing to
    /// give up.
    fn abandon(&self, why: &str);

    /// Probes liveness.
    ///
    /// # Errors
    ///
    /// Connection or protocol errors — each a health miss.
    fn health(&self, timeout: Duration) -> Result<(), ServeError>;

    /// The shard's statistics snapshot.
    ///
    /// # Errors
    ///
    /// Connection or protocol errors.
    fn stats(&self, timeout: Duration) -> Result<WireStats, ServeError>;

    /// Pre-fetches `scene`'s model (a replica the fleet makes on demand),
    /// returning whether the shard knew the scene.
    ///
    /// # Errors
    ///
    /// Connection or protocol errors.
    fn prewarm(&self, scene: &str, timeout: Duration) -> Result<bool, ServeError>;

    /// Stops admissions and finishes what was admitted (best effort; a
    /// remote shard exits afterwards).
    fn drain(&self, timeout: Duration);
}

/// A [`RenderService`] in this process, as a fleet member.
///
/// Shards deliberately get **separate [`ModelStore`]s over one checkpoint
/// directory** — the topology of N processes — so the store's lock-file
/// single-flight is exercised in-process too and a spilled request warms
/// from its home shard's checkpoint instead of refitting.
pub struct LocalShard {
    service: RenderService,
}

impl LocalShard {
    /// Unparks a [`paused`](LocalShards::paused) worker pool.
    pub fn start(&self) {
        self.service.start();
    }
}

impl Shard for LocalShard {
    fn submit(&self, req: &RenderRequest, done: Done) -> Result<(), ServeError> {
        // every end, failures too, on the worker that reached it; the
        // frames move into the wire result
        self.service.submit_with(req.clone(), move |outcome| done(outcome.map(WireResult::from)))
    }

    fn abandon(&self, _why: &str) {}

    fn health(&self, _timeout: Duration) -> Result<(), ServeError> {
        Ok(())
    }

    fn stats(&self, _timeout: Duration) -> Result<WireStats, ServeError> {
        Ok(WireStats { workers: self.service.workers() as u64, serve: self.service.stats() })
    }

    fn prewarm(&self, scene: &str, _timeout: Duration) -> Result<bool, ServeError> {
        let Some(handle) = asdr_scenes::registry::get(scene) else { return Ok(false) };
        // the fit/load itself is the warm-up; the store's cross-process
        // lock keeps it deduplicated
        self.service.store().get_or_fit(&handle, &self.service.profile().grid);
        Ok(true)
    }

    fn drain(&self, _timeout: Duration) {
        self.service.drain();
    }
}

/// What N [`LocalShard`]s are built from: set the fields that differ from
/// [`LocalShards::new`], then [`build`](LocalShards::build).
#[derive(Debug, Clone)]
pub struct LocalShards {
    /// The render profile every shard serves.
    pub profile: RenderProfile,
    /// Number of shards (at least 1).
    pub shards: usize,
    /// Workers per shard (at least 1), fixed for the shard's lifetime.
    pub workers: usize,
    /// Per-shard admission-queue capacity (at least 1): the one bound a
    /// shard refuses by, which is where the fleet spills to another shard.
    pub queue_capacity: usize,
    /// What each shard's own [`ModelStore`] is built from. Point it at a
    /// directory and all shards persist checkpoints there; the lock-file
    /// protocol deduplicates their fits.
    pub store: ModelStoreBuilder,
    /// Starts every shard's worker pool parked: submissions queue (and
    /// count as in flight) but nothing renders until [`LocalShard::start`].
    /// Used to stage bursts and by the admission tests to make routing
    /// decisions observable without racing completions.
    pub paused: bool,
}

impl LocalShards {
    /// Two single-worker shards with 64-deep queues over the store
    /// `ASDR_STORE_DIR` names.
    pub fn new(profile: RenderProfile) -> LocalShards {
        LocalShards {
            profile,
            shards: 2,
            workers: 1,
            queue_capacity: 64,
            store: ModelStore::builder(),
            paused: false,
        }
    }

    /// Builds the shards and spawns their worker pools.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint if the profile
    /// fails validation.
    pub fn build(&self) -> Result<Vec<Arc<LocalShard>>, String> {
        let build_one = |_| {
            let mut service = RenderService::builder(self.profile.clone())
                .store(Arc::new(self.store.clone().build()))
                .workers(self.workers.max(1))
                .queue_capacity(self.queue_capacity);
            if self.paused {
                service = service.paused();
            }
            Ok(Arc::new(LocalShard { service: service.build()? }))
        };
        (0..self.shards.max(1)).map(build_one).collect()
    }
}
