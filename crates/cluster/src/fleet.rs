//! The router: [`Fleet`], over [`Shard`]s it never looks behind.
//!
//! Requests are consistent-hashed by scene over the *live* shard set
//! ([`HashRing`]) and tried in one order, [`spill_order`]. It is
//! **work-conserving**: a home with a request in flight yields to a shard
//! with none that is *warm* for the scene — it has answered a prewarm or a
//! request for it since it last joined — so no shard idles while another
//! queues; beside an idle shard that is cold the request queues at home and
//! a background prewarm makes the replica (counted in
//! [`FleetStats::replications`], bounded by each shard's store LRU). A
//! shard refuses only through its own bounded queue
//! ([`ServeError::QueueFull`], or [`ServeError::ShuttingDown`] while it
//! drains), and only when every live shard refuses is the fleet full. A
//! request counts as in flight on its shard from submit until the shard
//! reports it terminal ([`Done`]) — result, failure, refusal or lost
//! connection — whether or not anyone has waited on the ticket, so a driver
//! that submits a whole trace before waiting on any of it never leaves a
//! shard looking busy. A refusal reported so is routed again by the ticket
//! ([`FleetTicket`]).
//!
//! Around that one admission path, whichever backend serves:
//!
//! * **failure detection** — a health thread probes every shard each
//!   interval; [`FleetConfig::health_misses`] consecutive misses evict
//!   the shard from the ring ([`HashRing::without`]), and a later
//!   successful probe rejoins it. Connection errors on the submit or
//!   wait path evict immediately — a refused connect is better evidence
//!   than a timer. Each round a shard stays that silent, the loop also
//!   abandons what it holds ([`Shard::abandon`]): a shard that hangs with
//!   its connections open ends its requests as one that died does.
//! * **failover** — in-flight requests on a shard that dies, or is
//!   evicted, are resubmitted, which is what makes the kill −9 and the
//!   SIGSTOP acceptance runs pass: the run completes with zero wrong bytes
//!   and the failure is visible only in the counters.
//! * **re-warm** — when the ring changes (eviction or rejoin), every
//!   scene this fleet has routed whose home moved gets a prewarm on its
//!   new home, pulling the model from the shared checkpoint directory
//!   before traffic lands there (the helper replicas use: a shard never has
//!   two prewarms of one scene in flight). An evicted shard's replicas are
//!   forgotten: whatever rejoins under its id is cold.

use crate::net::ShardAddr;
use crate::remote::RemoteShard;
use crate::ring::HashRing;
use crate::shard::{Done, Shard};
use crate::stats::{ClusterStats, FleetStats, ShardStats};
use crate::wire::{WireResult, WireStats};
use crate::CostModel;
use asdr_obs::{Counter, TraceId};
use asdr_serve::{RenderProfile, RenderRequest, ReplayTarget, ServeError};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Pooled connections per shard ([`Fleet::connect`]).
    pub connections_per_shard: usize,
    /// Health-probe period; also the longest a request every shard has
    /// refused waits between tries while nothing completes.
    pub health_interval: Duration,
    /// Per-probe reply deadline.
    pub health_timeout: Duration,
    /// Consecutive misses before a shard is evicted from the ring.
    pub health_misses: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            connections_per_shard: 2,
            health_interval: Duration::from_millis(250),
            health_timeout: Duration::from_millis(1000),
            health_misses: 3,
        }
    }
}

/// Interruptible sleep for the health loop: shutdown must not wait out a
/// full probe interval (a 60 s interval would stall every drop by a
/// minute).
#[derive(Default)]
struct Stop {
    stopped: Mutex<bool>,
    cond: Condvar,
}

impl Stop {
    /// Sleeps for `interval` or until stopped; returns whether stopped.
    fn wait_interval(&self, interval: Duration) -> bool {
        let stopped = self.stopped.lock().unwrap();
        *self.cond.wait_timeout_while(stopped, interval, |stopped| !*stopped).unwrap().0
    }

    fn stop(&self) {
        *self.stopped.lock().unwrap() = true;
        self.cond.notify_all();
    }
}

/// A scene's model on one shard since the shard last joined: a prewarm is on
/// its way, or the shard has answered a prewarm or a request for the scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Warmth {
    Warming,
    Warm,
}

/// One shard's admitted-but-unfinished requests and warm scenes.
#[derive(Debug, Default)]
struct Load {
    in_flight: usize,
    spilled_in: u64,
    warm: HashMap<String, Warmth>,
}

/// One live shard's load as of one lock, for one scene: a row [`spill_order`] reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoad {
    /// Ring id.
    pub id: usize,
    /// Requests admitted and not yet terminal.
    pub in_flight: usize,
    /// Whether the shard has answered for the routed scene since it last joined.
    pub warm: bool,
}

/// The order [`Fleet::submit`] tries the live shards in, the one place it
/// is decided. A busy home yields to an idle shard that is warm for the
/// scene (the lowest id of several): two stations behind one queue serve
/// 2 µ where two separate queues serve 1.6 µ. Then the home, then the
/// rest by fewest in flight (the lower id of a tie): where a full home's
/// queue spills. An idle home always keeps its scene, so one caller at a
/// time never leaves it.
pub fn spill_order(home: usize, loads: &[ShardLoad]) -> impl Iterator<Item = usize> + '_ {
    let home_row = loads.iter().find(|l| l.id == home);
    let home_busy = home_row.is_some_and(|l| l.in_flight > 0);
    let idle = loads
        .iter()
        .find(|l| home_busy && l.id != home && l.in_flight == 0 && l.warm)
        .map(|l| l.id);
    let mut rest: Vec<&ShardLoad> =
        loads.iter().filter(|l| l.id != home && Some(l.id) != idle).collect();
    rest.sort_by_key(|l| (l.in_flight, l.id));
    idle.into_iter().chain(home_row.map(|l| l.id)).chain(rest.into_iter().map(|l| l.id))
}

/// The fleet's book: the cost model, every shard's [`Load`], and the
/// completion pulse [`Fleet::wait_capacity`] parks on. Kept apart from the
/// shards so a [`Reservation`] parked inside one holds no reference back
/// to it.
struct Book {
    cost: CostModel,
    loads: Vec<Mutex<Load>>,
    completions: Mutex<u64>,
    completed: Condvar,
    attempts: AtomicU64,
}

impl Book {
    /// Counts one more submission of `req` in flight on `shard`. The
    /// returned [`Done`] owns the [`Reservation`] and is the submission's
    /// whole completion path: the one call the shard makes teaches the cost
    /// model the actual service time, releases the slot, and reports to
    /// `race` as the returned attempt — in that order, so whoever the report
    /// wakes sees the other two. Dropped uncalled it releases and reports a
    /// loss.
    fn reserve(
        self: &Arc<Self>,
        shard: usize,
        req: &RenderRequest,
        race: &Race,
    ) -> (Attempt, Done) {
        self.loads[shard].lock().unwrap().in_flight += 1;
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        let (book, race) = (self.clone(), race.clone());
        let reservation = Reservation { book, shard, race, attempt, end: None };
        let (scene, resolution, frames) =
            (req.scene.name().to_string(), req.resolution, req.frames);
        let done = move |outcome: Outcome| {
            if let Ok(result) = &outcome {
                // service time — latency minus queue wait — is what the model predicts
                let service_us = result.latency_us.saturating_sub(result.queue_wait_us);
                let book = &reservation.book;
                book.cost.observe(&scene, resolution, frames, service_us as f64 / 1e3);
                book.loads[shard].lock().unwrap().warm.insert(scene, Warmth::Warm);
            }
            reservation.settle(outcome);
        };
        (attempt, Box::new(done))
    }

    /// `shard`'s row for `scene`. A snapshot, because completions mutate the
    /// loads concurrently and a comparator reading live state can violate the
    /// total-order contract (a sort panic on the submit path).
    fn snapshot(&self, shard: usize, scene: &str) -> ShardLoad {
        let load = self.loads[shard].lock().unwrap();
        ShardLoad {
            id: shard,
            in_flight: load.in_flight,
            warm: load.warm.get(scene) == Some(&Warmth::Warm),
        }
    }

    /// Waits until more than `seen` reservations have been released or
    /// `timeout` passes — completions are the only events that free queue
    /// slots.
    fn wait_release(&self, seen: u64, timeout: Duration) {
        let count = self.completions.lock().unwrap();
        drop(self.completed.wait_timeout_while(count, timeout, |count| *count == seen).unwrap());
    }
}

/// How one submission ended on its shard.
type Outcome = Result<WireResult, ServeError>;

/// Which submission a report is about — a ticket's first, or a re-route's
/// or failover's replacement — numbered by the [`Book`] as they are made.
type Attempt = u64;

/// One submission's end, as its ticket's [`Race`] queues it.
type Report = (Attempt, Outcome);

/// Where every submission made for one ticket reports its end: one queue, in
/// the order the ends were learned, that [`FleetTicket::wait`] blocks on. A
/// report can arrive before `submit` has returned the ticket it is about (a
/// shard that finishes at once), so it is queued under its attempt number
/// and matched by the waiter, who by then knows which attempt it holds; one
/// from a submission that was refused or replaced matches nothing and is
/// skipped.
type Race = Sender<Report>;

/// A submission's slot in one shard's in-flight count and the report it
/// owes the ticket's [`Race`], both settled on drop: the slot released, then
/// the end posted — for a [`Done`] dropped uncalled, a lost connection.
struct Reservation {
    book: Arc<Book>,
    shard: usize,
    race: Race,
    attempt: Attempt,
    end: Option<Outcome>,
}

impl Reservation {
    fn settle(mut self, end: Outcome) {
        self.end = Some(end);
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.book.loads[self.shard].lock().unwrap().in_flight -= 1;
        *self.book.completions.lock().unwrap() += 1;
        self.book.completed.notify_all();
        let lost = || Err(ServeError::Connection("the shard dropped the request".into()));
        // nobody listens once the ticket is gone
        let _ = self.race.send((self.attempt, self.end.take().unwrap_or_else(lost)));
    }
}

struct FleetShard {
    shard: Arc<dyn Shard>,
    live: AtomicBool,
    last_stats: Mutex<Option<WireStats>>,
}

/// Routing and failure counters; snapshot with [`Fleet::stats`].
#[derive(Default)]
struct FleetCounters {
    routed_home: Counter,
    spilled: Counter,
    rejected: Counter,
    evictions: Counter,
    rejoins: Counter,
    failovers: Counter,
    rewarms: Counter,
    replications: Counter,
}

struct FleetInner {
    shards: Vec<FleetShard>,
    ring: Mutex<HashRing>,
    scene_homes: Mutex<HashMap<String, usize>>,
    book: Arc<Book>,
    counters: FleetCounters,
    /// The prewarm threads still to join; `None` once the fleet stopped.
    prewarms: Mutex<Option<Vec<JoinHandle<()>>>>,
    cfg: FleetConfig,
    stop: Stop,
}

impl FleetInner {
    fn is_live(&self, id: usize) -> bool {
        self.shards[id].live.load(Ordering::SeqCst)
    }

    fn live_ids(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&id| self.is_live(id)).collect()
    }

    /// Removes a failed shard from the ring and re-warms the scenes its
    /// departure remapped. Idempotent per up-state.
    fn evict(self: &Arc<Self>, id: usize, why: &str) {
        if !self.shards[id].live.swap(false, Ordering::SeqCst) {
            return;
        }
        self.counters.evictions.inc();
        eprintln!("fleet: evicting shard {id}: {why}");
        // whatever comes back under this id (a restarted daemon) is cold
        self.book.loads[id].lock().unwrap().warm.clear();
        {
            let mut ring = self.ring.lock().unwrap();
            *ring = ring.without(id);
        }
        self.rewarm_remapped();
    }

    /// Returns a recovered shard to the ring (a no-op for one already on it).
    fn rejoin(self: &Arc<Self>, id: usize) {
        if self.shards[id].live.swap(true, Ordering::SeqCst) {
            return;
        }
        self.counters.rejoins.inc();
        eprintln!("fleet: shard {id} rejoined");
        {
            let mut ring = self.ring.lock().unwrap();
            *ring = HashRing::from_ids(self.live_ids());
        }
        self.rewarm_remapped();
    }

    /// Pre-fetches every routed scene whose home moved onto its new home
    /// before traffic lands there. Runs the probes off-thread; the ring
    /// is already updated, so racing traffic merely finds a warm (or
    /// warming — the store single-flights) model.
    fn rewarm_remapped(self: &Arc<Self>) {
        let ring = self.ring.lock().unwrap().clone();
        if ring.is_empty() {
            return;
        }
        let mut homes = self.scene_homes.lock().unwrap();
        for (scene, home) in homes.iter_mut() {
            let now = ring.home(scene);
            if now != *home {
                *home = now;
                if self.prewarm(now, scene) {
                    self.counters.rewarms.inc();
                }
            }
        }
    }

    /// Pre-fetches `scene` on shard `id` off the caller's thread and returns
    /// whether it did: not when the shard is warm or a prewarm is on its way (a
    /// pair has at most one in flight; a failed one leaves it cold, to be retried).
    fn prewarm(&self, id: usize, scene: &str) -> bool {
        let mut handles = self.prewarms.lock().unwrap();
        let Some(handles) = handles.as_mut() else { return false };
        match self.book.loads[id].lock().unwrap().warm.entry(scene.to_string()) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(cold) => cold.insert(Warmth::Warming),
        };
        let (book, shard, scene) =
            (self.book.clone(), self.shards[id].shard.clone(), scene.to_string());
        handles.retain(|h| !h.is_finished());
        handles.push(std::thread::spawn(move || {
            let warmed = matches!(shard.prewarm(&scene, Duration::from_secs(30)), Ok(true));
            let mut load = book.loads[id].lock().unwrap();
            // gone: the shard was evicted meanwhile; `Warm`: a request got there first
            if load.warm.get(&scene) == Some(&Warmth::Warming) {
                if warmed {
                    load.warm.insert(scene, Warmth::Warm);
                } else {
                    load.warm.remove(&scene);
                }
            }
        }));
        true
    }

    /// Routes one request over the live shards in [`spill_order`], passing
    /// over those in `skip` (they refused it) as if they were full. One that
    /// queues at a busy home beside an idle shard (cold for the scene) has a
    /// replica made there in the background: the next overlap finds it warm, and
    /// no request waits for a load or a fit because of where the router sent it.
    ///
    /// A shard that is full or draining is passed over, one whose connection
    /// is lost evicted; when none admits, the fleet is full
    /// ([`ServeError::QueueFull`]) if any was passed over, and otherwise
    /// fails with the last shard's own error.
    fn route(
        self: &Arc<Self>,
        req: &RenderRequest,
        race: &Race,
        skip: &[usize],
    ) -> Result<Held, ServeError> {
        let scene = req.scene.name();
        let no_shard = || ServeError::Connection("no live shards".into());
        let home = {
            let ring = self.ring.lock().unwrap();
            if ring.is_empty() {
                return Err(no_shard());
            }
            ring.home(scene)
        };
        self.scene_homes.lock().unwrap().entry(scene.to_string()).or_insert(home);
        let loads: Vec<ShardLoad> =
            self.live_ids().into_iter().map(|id| self.book.snapshot(id, scene)).collect();
        let mut order = spill_order(home, &loads).peekable();
        let idle = order.peek().copied().filter(|&id| id != home);
        if idle.is_none() && loads.iter().any(|l| l.id == home && l.in_flight > 0) {
            let cold = loads.iter().find(|l| l.id != home && l.in_flight == 0 && !l.warm);
            if cold.is_some_and(|l| self.prewarm(l.id, scene)) {
                self.counters.replications.inc();
            }
        }
        let mut busy = false;
        let mut last_final = None;
        for id in order {
            if !self.is_live(id) {
                continue;
            }
            if skip.contains(&id) {
                busy = true;
                continue;
            }
            let (attempt, done) = self.book.reserve(id, req, race);
            match self.shards[id].shard.submit(req, done) {
                Ok(()) => {
                    if id == home {
                        self.counters.routed_home.inc();
                    } else {
                        self.counters.spilled.inc();
                        self.book.loads[id].lock().unwrap().spilled_in += 1;
                    }
                    let why = match id {
                        _ if id == home => "home",
                        _ if Some(id) == idle => "idle",
                        _ => "spill",
                    };
                    asdr_obs::event!(
                        req.trace,
                        "remote-submit",
                        format!("shard={id} home={home} why={why}")
                    );
                    return Ok(Held { attempt, shard: id });
                }
                Err(ServeError::QueueFull { .. } | ServeError::ShuttingDown) => busy = true,
                Err(ServeError::Connection(why)) => self.evict(id, &why),
                Err(e) => last_final = Some(e),
            }
        }
        if busy {
            let capacity = loads.iter().map(|l| l.in_flight).sum();
            return Err(ServeError::QueueFull { capacity });
        }
        Err(last_final.unwrap_or_else(no_shard))
    }
}

/// The fleet handle (see the module docs). Dropping it stops the health
/// and prewarm threads; [`Fleet::shutdown`] also drains the shards and
/// returns the final statistics.
pub struct Fleet {
    inner: Arc<FleetInner>,
    /// The health loop's thread; `None` once the fleet stopped.
    health: Mutex<Option<JoinHandle<()>>>,
}

impl Fleet {
    /// A fleet of remote shards: connects to every address in `addrs`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unreachable shard — starting a
    /// fleet with a dead member is a deployment error, not a failure to
    /// tolerate — or whatever [`Fleet::new`] rejects.
    pub fn connect(
        addrs: Vec<ShardAddr>,
        profile: RenderProfile,
        cfg: FleetConfig,
    ) -> Result<Fleet, String> {
        let mut shards = Vec::with_capacity(addrs.len());
        for (id, addr) in addrs.into_iter().enumerate() {
            let shard = RemoteShard::connect(addr.clone(), cfg.connections_per_shard)
                .map_err(|e| format!("shard {id} ({addr}): {e}"))?;
            shards.push(Arc::new(shard));
        }
        Fleet::new(shards, &profile, cfg)
    }

    /// A fleet over `shards` (ring ids are their positions), with the
    /// health loop started.
    ///
    /// # Errors
    ///
    /// Returns a message when `shards` is empty.
    pub fn new<S: Shard + 'static>(
        shards: Vec<Arc<S>>,
        profile: &RenderProfile,
        cfg: FleetConfig,
    ) -> Result<Fleet, String> {
        if shards.is_empty() {
            return Err("a fleet needs at least one shard".into());
        }
        let inner = Arc::new(FleetInner {
            ring: Mutex::new(HashRing::new(shards.len())),
            book: Arc::new(Book {
                cost: CostModel::new(profile),
                loads: shards.iter().map(|_| Mutex::default()).collect(),
                completions: Mutex::new(0),
                completed: Condvar::new(),
                attempts: AtomicU64::new(0),
            }),
            shards: shards
                .into_iter()
                .map(|shard| FleetShard {
                    shard,
                    live: AtomicBool::new(true),
                    last_stats: Mutex::new(None),
                })
                .collect(),
            scene_homes: Mutex::new(HashMap::new()),
            counters: FleetCounters::default(),
            prewarms: Mutex::new(Some(Vec::new())),
            cfg,
            stop: Stop::default(),
        });
        let health = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("asdr-fleet-health".into())
                .spawn(move || health_loop(&inner))
                .expect("spawn fleet health thread")
        };
        Ok(Fleet { inner, health: Mutex::new(Some(health)) })
    }

    /// Shards the fleet was configured with (live or not).
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Shards currently on the ring.
    pub fn live_shards(&self) -> usize {
        self.inner.live_ids().len()
    }

    /// The ring as it routes right now (for tooling and tests).
    pub fn ring(&self) -> HashRing {
        self.inner.ring.lock().unwrap().clone()
    }

    /// Submits a request to the first shard of [`spill_order`] that admits
    /// it — its home, unless that is busy beside an idle warm shard, or full
    /// — returning a ticket that owns re-routing and failover.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for a request past the serving bounds
    /// ([`RenderRequest::check_bounds`]), before any shard is asked: a
    /// remote shard drops the connection a request it cannot decode came
    /// on, and each failover would evict the next shard.
    /// [`ServeError::QueueFull`] when every live shard is momentarily full
    /// or draining; otherwise why the request cannot be admitted (the last
    /// shard's refusal, or no live shard).
    pub fn submit(&self, mut req: RenderRequest) -> Result<FleetTicket, ServeError> {
        req.check_bounds()?;
        // the client is the trace root: the id travels with the request
        // and joins this process's spans with the serving shard's
        if asdr_obs::enabled() && !req.trace.is_set() {
            req.trace = TraceId::fresh();
        }
        let (race, reported) = mpsc::channel();
        let held = self.inner.route(&req, &race, &[]).inspect_err(|e| {
            if matches!(e, ServeError::QueueFull { .. }) {
                self.inner.counters.rejected.inc();
            }
        })?;
        Ok(FleetTicket {
            inner: self.inner.clone(),
            req,
            race,
            served_by: AtomicUsize::new(held.shard),
            admitted: Mutex::new(Some((held, reported))),
            outcome: Mutex::new(None),
        })
    }

    /// A statistics snapshot: per-shard stats (last known for dead
    /// shards — the work they completed before dying), what each has in
    /// flight, routing and failure counters, and the cost model.
    pub fn stats(&self) -> ClusterStats {
        let inner = &self.inner;
        let mut shards = Vec::with_capacity(inner.shards.len());
        for (id, s) in inner.shards.iter().enumerate() {
            if inner.is_live(id) {
                if let Ok(fresh) = s.shard.stats(inner.cfg.health_timeout) {
                    *s.last_stats.lock().unwrap() = Some(fresh);
                }
            }
            let snap = s.last_stats.lock().unwrap().clone();
            let load = inner.book.loads[id].lock().unwrap();
            shards.push(ShardStats {
                shard: id,
                workers: snap.as_ref().map_or(0, |s| s.workers as usize),
                in_flight: load.in_flight,
                spilled_in: load.spilled_in,
                warm_scenes: load.warm.values().filter(|w| **w == Warmth::Warm).count(),
                serve: snap.map(|s| s.serve).unwrap_or_default(),
            });
        }
        let c = &inner.counters;
        ClusterStats {
            shards,
            routed_home: c.routed_home.get(),
            spilled: c.spilled.get(),
            rejected: c.rejected.get(),
            cost: inner.book.cost.stats(),
            fleet: FleetStats {
                shards_lost: (inner.shards.len() - inner.live_ids().len()) as u64,
                evictions: c.evictions.get(),
                rejoins: c.rejoins.get(),
                hedges: 0,
                failovers: c.failovers.get(),
                rewarms: c.rewarms.get(),
                replications: c.replications.get(),
            },
        }
    }

    /// Stops the health and prewarm threads, snapshots final statistics,
    /// and drains every live shard (best effort).
    pub fn shutdown(&self) -> ClusterStats {
        self.stop_threads();
        let stats = self.stats();
        for id in self.inner.live_ids() {
            self.inner.shards[id].shard.drain(Duration::from_secs(5));
        }
        stats
    }

    fn stop_threads(&self) {
        // no health probe or prewarm may outlive the handle it acts for
        self.inner.stop.stop();
        // reached from `Drop`: a second panic there would abort
        let join = |thread: JoinHandle<()>| {
            if thread.join().is_err() {
                eprintln!("fleet: a control thread panicked");
            }
        };
        // the health thread first: an eviction it makes may still prewarm
        self.health.lock().unwrap().take().into_iter().for_each(join);
        self.inner.prewarms.lock().unwrap().take().into_iter().flatten().for_each(join);
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Probes every shard each interval. One that has missed `health_misses`
/// probes in a row is evicted and, every round it stays silent, abandoned:
/// off the ring first, so no failover is routed back to it, and again each
/// round, so a request that reached it while it was being evicted is ended
/// too. Only silence abandons: a shard evicted for one lost connection that
/// still answers keeps, and finishes, what its other connections carry.
fn health_loop(inner: &Arc<FleetInner>) {
    let mut misses = vec![0u32; inner.shards.len()];
    while !inner.stop.wait_interval(inner.cfg.health_interval) {
        for (id, s) in inner.shards.iter().enumerate() {
            match s.shard.health(inner.cfg.health_timeout) {
                Ok(_) => {
                    misses[id] = 0;
                    inner.rejoin(id);
                }
                Err(e) => {
                    misses[id] = misses[id].saturating_add(1);
                    if misses[id] >= inner.cfg.health_misses {
                        let why = format!("{} consecutive health misses ({e})", misses[id]);
                        inner.evict(id, &why);
                        s.shard.abandon(&format!("evicted: {why}"));
                    }
                }
            }
        }
    }
}

/// One admitted submission: which of its ticket's attempts it is and the
/// ring id of the shard that took it.
struct Held {
    attempt: Attempt,
    shard: usize,
}

/// A fleet submission's completion handle. [`FleetTicket::wait`] owns the
/// tail-tolerance machinery: routing again when a shard refuses, and
/// eviction + resubmission when the serving shard dies or is evicted. The
/// ticket keeps its outcome — waiting again returns it again — and one
/// dropped un-waited leaves its request to finish on the shard unheard.
pub struct FleetTicket {
    inner: Arc<FleetInner>,
    req: RenderRequest,
    /// Where every submission made for this ticket reports.
    race: Race,
    /// What `submit` was handed and where `wait` hears of it, until the
    /// first `wait` takes them.
    admitted: Mutex<Option<(Held, Receiver<Report>)>>,
    served_by: AtomicUsize,
    outcome: Mutex<Option<Result<WireResult, String>>>,
}

impl FleetTicket {
    /// The shard that served (or is currently serving) the request.
    pub fn shard(&self) -> usize {
        self.served_by.load(Ordering::SeqCst)
    }

    /// Blocks until some shard completes the request.
    ///
    /// # Errors
    ///
    /// Returns a message when the request failed shard-side (render
    /// panic) or no live shard remains to serve it.
    pub fn wait(&self) -> Result<WireResult, String> {
        // held across the resolution: a second waiter gets the first's
        // outcome instead of a request that has been answered
        let mut outcome = self.outcome.lock().unwrap();
        outcome.get_or_insert_with(|| self.resolve()).clone()
    }

    /// Blocks on the ticket's [`Race`] for the end of the one submission it
    /// holds, skipping reports of those it no longer holds. A result wins; a
    /// render failure or a final refusal is final. A submission refused for
    /// now is routed again past every shard that has refused it; one lost
    /// with its connection, or abandoned by the health loop, evicts its
    /// shard, counts a failover and is replaced the same way.
    fn resolve(&self) -> Result<WireResult, String> {
        let wait_t0 = Instant::now();
        let inner = &self.inner;
        let (mut held, reported) = self.admitted.lock().unwrap().take().expect("resolved once");
        let mut refused: Vec<usize> = Vec::new();
        loop {
            // the ticket holds a sender: the queue cannot close under the wait
            let (attempt, outcome) = reported.recv().expect("the ticket holds a sender");
            if attempt != held.attempt {
                continue;
            }
            held = match outcome {
                Ok(result) => return Ok(self.win(held.shard, result, wait_t0)),
                Err(e @ (ServeError::RenderFailed(_) | ServeError::InvalidRequest(_))) => {
                    return Err(e.to_string())
                }
                // nothing is evicted and no failover counted
                Err(ServeError::QueueFull { .. } | ServeError::ShuttingDown) => {
                    refused.retain(|&shard| shard != held.shard);
                    refused.push(held.shard);
                    self.reroute(&refused, "request refused")?
                }
                Err(e) => {
                    // the shard died, or was evicted, mid-request
                    inner.evict(held.shard, &e.to_string());
                    let replacement = self.reroute(&[], "request lost its shard")?;
                    inner.counters.failovers.inc();
                    asdr_obs::event!(
                        self.req.trace,
                        "failover",
                        format!("from={} to={}", held.shard, replacement.shard)
                    );
                    replacement
                }
            };
        }
    }

    /// Routes the request again (rendering is deterministic: the frames do
    /// not change), past the shards in `skip`. While none admits, each next
    /// try, which skips nobody, waits for a release or a health interval: a
    /// full fleet costs one try per completion and never spins.
    fn reroute(&self, mut skip: &[usize], failing: &str) -> Result<Held, String> {
        let inner = &self.inner;
        loop {
            match inner.route(&self.req, &self.race, skip) {
                Ok(held) => {
                    self.served_by.store(held.shard, Ordering::SeqCst);
                    return Ok(held);
                }
                Err(ServeError::QueueFull { .. }) => {
                    // read before `rejected` moves: whoever sees it move and
                    // then completes a request wakes this wait
                    let seen = *inner.book.completions.lock().unwrap();
                    inner.counters.rejected.inc();
                    inner.book.wait_release(seen, inner.cfg.health_interval);
                    skip = &[];
                }
                Err(e) => return Err(format!("{failing}: {e}")),
            }
        }
    }

    fn win(&self, shard: usize, result: WireResult, wait_t0: Instant) -> WireResult {
        self.served_by.store(shard, Ordering::SeqCst);
        asdr_obs::span!(
            self.req.trace,
            "remote-wait",
            wait_t0,
            Instant::now(),
            format!("shard={shard}")
        );
        result
    }
}

impl ReplayTarget for Fleet {
    type Ticket = FleetTicket;

    /// A fleet replays like a single service: a full fleet is
    /// [`ServeError::QueueFull`] (the driver blocks the replay clock).
    fn try_submit(&self, req: RenderRequest) -> Result<FleetTicket, ServeError> {
        self.submit(req)
    }

    fn wait_capacity(&self, timeout: Duration) {
        let book = &self.inner.book;
        book.wait_release(*book.completions.lock().unwrap(), timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> Arc<Book> {
        Arc::new(Book {
            cost: CostModel::new(&RenderProfile::tiny()),
            loads: vec![Mutex::default()],
            completions: Mutex::new(0),
            completed: Condvar::new(),
            attempts: AtomicU64::new(0),
        })
    }

    fn served_in(latency_us: u64, queue_wait_us: u64) -> WireResult {
        WireResult {
            scene: "Mic".into(),
            resolution: 8,
            reused_frames: 0,
            queue_wait_us,
            latency_us,
            deadline_met: None,
            completed_seq: 0,
            images: Vec::new(),
            trace: TraceId::UNSET,
        }
    }

    #[test]
    fn reservations_round_trip() {
        let book = book();
        let (race, reported) = mpsc::channel();
        let req = RenderRequest::frame(asdr_scenes::registry::handle("Mic"), 8);
        let in_flight = || book.loads[0].lock().unwrap().in_flight;
        let (first, served) = book.reserve(0, &req, &race);
        assert_eq!(in_flight(), 1);
        // a result: the model learns service = latency - queue wait, the
        // slot is released, the race hears of it
        served(Ok(served_in(15_000, 3_000)));
        assert_eq!(in_flight(), 0);
        assert_eq!(book.cost.stats().observations, 1);
        assert_eq!(book.cost.predict("Mic", 8, 1), 12.0, "the one observation is the estimate");
        let ((second, a), (third, b)) =
            (book.reserve(0, &req, &race), book.reserve(0, &req, &race));
        assert_eq!(in_flight(), 2);
        drop(a); // dropped uncalled (a refused submit) releases too
        b(Err(ServeError::RenderFailed("boom".into()))); // a failure releases without teaching
        assert_eq!(in_flight(), 0, "every end releases its slot");
        assert_eq!(book.cost.stats().observations, 1);
        assert_eq!(*book.completions.lock().unwrap(), 3, "every release pulses wait_capacity");
        // each end was reported once, in the order it was learned, under its own attempt
        let lost = ServeError::Connection("the shard dropped the request".into());
        let ends = [
            (first, Ok(served_in(15_000, 3_000))),
            (second, Err(lost)),
            (third, Err(ServeError::RenderFailed("boom".into()))),
        ];
        assert_eq!(reported.try_iter().collect::<Vec<_>>(), ends);
    }

    fn row(id: usize, in_flight: usize, warm: bool) -> ShardLoad {
        ShardLoad { id, in_flight, warm }
    }

    fn order(home: usize, loads: &[ShardLoad]) -> Vec<usize> {
        spill_order(home, loads).collect()
    }

    #[test]
    fn a_busy_home_yields_only_to_an_idle_warm_shard() {
        // an idle home keeps its scene whatever the others hold
        let others_idle = [row(0, 0, true), row(1, 0, true), row(2, 0, true)];
        assert_eq!(order(1, &others_idle), [1, 0, 2]);
        // a busy home beside an idle warm shard: that one first
        let loads = [row(0, 1, true), row(1, 2, true), row(2, 0, true)];
        assert_eq!(order(1, &loads), [2, 1, 0]);
        // … beside an idle cold one: home first, then the rest by fewest in flight
        let cold = [row(0, 1, true), row(1, 2, true), row(2, 0, false)];
        assert_eq!(order(1, &cold), [1, 2, 0]);
        // … beside a warm one that has work: it does not count as idle
        let working = [row(0, 2, true), row(1, 2, true), row(2, 1, true)];
        assert_eq!(order(1, &working), [1, 2, 0]);
        // … and of two with as many in flight, the lower id first
        let tied = [row(0, 1, true), row(1, 2, true), row(2, 1, true), row(3, 0, false)];
        assert_eq!(order(1, &tied), [1, 3, 0, 2]);
        // two idle warm others: the lower id, and the other keeps its place
        let two = [row(0, 3, true), row(1, 0, false), row(2, 0, true), row(3, 0, true)];
        assert_eq!(order(0, &two), [2, 0, 1, 3]);
    }

    #[test]
    fn every_live_shard_is_tried_exactly_once() {
        // ids are ring ids, not positions: shard 1 is off the ring here
        for home in [0, 2, 3, 5] {
            for busy in 0..16u32 {
                let loads: Vec<ShardLoad> = [0usize, 2, 3, 5]
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| {
                        let in_flight = (busy >> i & 1) as usize * (7 - i);
                        row(id, in_flight, i % 2 == 0)
                    })
                    .collect();
                let mut tried = order(home, &loads);
                tried.sort_unstable();
                assert_eq!(tried, [0, 2, 3, 5], "home {home}, busy mask {busy:04b}");
            }
        }
        // a home that left the ring between the lookup and the snapshot
        assert_eq!(order(1, &[row(0, 1, true), row(2, 0, true)]), [2, 0]);
        assert_eq!(order(0, &[]), [0usize; 0]);
    }

    #[test]
    fn dead_fleets_are_named() {
        let dead = ShardAddr::Unix(std::env::temp_dir().join("asdr-no-such-shard.sock"));
        let Err(e) = Fleet::connect(vec![dead], RenderProfile::tiny(), FleetConfig::default())
        else {
            panic!("connecting a fleet to a dead shard must fail");
        };
        assert!(e.starts_with("shard 0"), "{e}");
        assert!(Fleet::connect(Vec::new(), RenderProfile::tiny(), FleetConfig::default()).is_err());
    }
}
