//! What the [`Shard`] seam makes testable: the fleet's re-route and
//! failover paths, and the server's reply path, against a fake shard whose
//! requests complete, stall or die when the test says so — in process, or
//! behind a real `Server` reached by a `RemoteShard`; and frames
//! byte-identical whichever real backend serves them.
//!
//! No process is spawned and nothing sleeps: the fake hands the test a
//! [`Handle`] over a channel for every request it admits, so each ordering
//! is forced by a blocking receive; the only clocked waits are
//! deadline-bounded polls on what the fleet's health thread does.

use asdr_cluster::wire::{self, Message, WireRequest, WireResult, WireStats};
use asdr_cluster::{
    Done, Fleet, FleetConfig, FleetStats, FleetTicket, Listener, LocalShards, RemoteShard, Server,
    Shard, ShardAddr, Stream,
};
use asdr_math::{Image, Rgb};
use asdr_scenes::registry::{self, OrbitCamera};
use asdr_serve::{
    ModelStore, Priority, RenderProfile, RenderRequest, RenderService, ServeError, ServeStats,
};
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PATIENCE: Duration = Duration::from_secs(30);

/// The test's end of one request a fake shard admitted: the request's
/// [`Done`] itself. Keep it alive for as long as the request should stall;
/// dropping it un-ended loses the request, as a shard can.
struct Handle {
    shard: usize,
    done: Option<Done>,
}

impl Handle {
    fn end(&mut self, outcome: Result<WireResult, ServeError>) {
        self.done.take().expect("a request ends once")(outcome);
    }

    fn complete(&mut self, result: WireResult) {
        self.end(Ok(result));
    }

    fn die(&mut self) {
        self.end(Err(ServeError::Connection("the test killed this shard".into())));
    }

    /// Refuses the request after `submit` has returned, as a remote shard
    /// does.
    fn refuse(&mut self, retryable: bool) {
        self.end(Err(match retryable {
            true => ServeError::QueueFull { capacity: 1 },
            false => ServeError::InvalidRequest("the test is full".into()),
        }));
    }
}

/// A shard that admits everything (unless told its queue is full) and
/// renders nothing.
struct FakeShard {
    id: usize,
    admitted: Mutex<Sender<Handle>>,
    healthy: AtomicBool,
    /// Refuses every submit at once, as a service whose queue is full.
    full: AtomicBool,
    /// Ends every request inside `submit`, before the ticket exists.
    instant: AtomicBool,
    /// Every prewarm that reached a fake shard, failed ones included.
    prewarmed: Arc<Mutex<Vec<(usize, String)>>>,
    /// How many more prewarms this shard fails.
    failing_prewarms: AtomicUsize,
    /// Set: `submit` stops answering health and admits only once the
    /// eviction that follows has abandoned the shard, keeping the request
    /// itself for the next abandon to end.
    hangs_in_submit: AtomicBool,
    /// How many abandons this shard has seen, and what it keeps.
    kept: Mutex<(usize, Vec<Done>)>,
}

impl FakeShard {
    fn new(
        id: usize,
        admitted: Sender<Handle>,
        prewarmed: Arc<Mutex<Vec<(usize, String)>>>,
    ) -> Arc<FakeShard> {
        Arc::new(FakeShard {
            id,
            admitted: Mutex::new(admitted),
            healthy: AtomicBool::new(true),
            full: AtomicBool::new(false),
            instant: AtomicBool::new(false),
            prewarmed,
            failing_prewarms: AtomicUsize::new(0),
            hangs_in_submit: AtomicBool::new(false),
            kept: Mutex::default(),
        })
    }
}

impl Shard for FakeShard {
    fn submit(&self, _req: &RenderRequest, done: Done) -> Result<(), ServeError> {
        if self.full.load(Ordering::SeqCst) {
            return Err(ServeError::QueueFull { capacity: 1 });
        }
        if self.hangs_in_submit.load(Ordering::SeqCst) {
            self.healthy.store(false, Ordering::SeqCst);
            eventually("the health loop abandons the shard", || self.kept.lock().unwrap().0 > 0);
            self.kept.lock().unwrap().1.push(done);
            return Ok(());
        }
        let mut handle = Handle { shard: self.id, done: Some(done) };
        if self.instant.load(Ordering::SeqCst) {
            handle.complete(frames_of(self.id as f32));
        } else {
            self.admitted.lock().unwrap().send(handle).expect("the test outlives its fleet");
        }
        Ok(())
    }

    /// Ends what a hanging shard keeps. The test holds everything else this
    /// shard admitted, and ends it: in process, an abandon gives that up
    /// nowhere (behind a `Server`, the `RemoteShard` does).
    fn abandon(&self, why: &str) {
        let kept = {
            let mut kept = self.kept.lock().unwrap();
            kept.0 += 1;
            std::mem::take(&mut kept.1)
        };
        for done in kept {
            done(Err(ServeError::Connection(why.to_string())));
        }
    }

    fn health(&self, _timeout: Duration) -> Result<(), ServeError> {
        if self.healthy.load(Ordering::SeqCst) {
            Ok(())
        } else {
            Err(ServeError::Connection("timed out".into()))
        }
    }

    fn stats(&self, _timeout: Duration) -> Result<WireStats, ServeError> {
        Ok(WireStats { workers: 1, serve: ServeStats::default() })
    }

    fn prewarm(&self, scene: &str, _timeout: Duration) -> Result<bool, ServeError> {
        self.prewarmed.lock().unwrap().push((self.id, scene.to_string()));
        let fail = |left: usize| left.checked_sub(1);
        match self.failing_prewarms.fetch_update(Ordering::SeqCst, Ordering::SeqCst, fail) {
            Ok(_) => Err(ServeError::Connection("timed out".into())),
            Err(_) => Ok(true),
        }
    }

    fn drain(&self, _timeout: Duration) {}
}

struct FakeFleet {
    fleet: Fleet,
    shards: Vec<Arc<FakeShard>>,
    admitted: Receiver<Handle>,
    prewarmed: Arc<Mutex<Vec<(usize, String)>>>,
}

fn fake_fleet(n: usize, cfg: FleetConfig) -> FakeFleet {
    let (tx, admitted) = mpsc::channel();
    let prewarmed = Arc::new(Mutex::new(Vec::new()));
    let shards: Vec<Arc<FakeShard>> =
        (0..n).map(|id| FakeShard::new(id, tx.clone(), prewarmed.clone())).collect();
    let fleet = Fleet::new(shards.clone(), &RenderProfile::tiny(), cfg).unwrap();
    FakeFleet { fleet, shards, admitted, prewarmed }
}

impl FakeFleet {
    /// The next request some fake shard admitted, blocking until one does.
    fn next_admitted(&self) -> Handle {
        self.admitted.recv_timeout(PATIENCE).expect("no shard admitted a request")
    }

    /// Submits `req` and returns it in flight on whichever shard took it.
    fn admit(&self, req: RenderRequest) -> InFlight {
        let ticket = self.fleet.submit(req).unwrap();
        InFlight { handle: self.next_admitted(), ticket }
    }

    fn prewarms(&self) -> usize {
        self.prewarmed.lock().unwrap().len()
    }

    /// Waits until the fleet holds `shard` warm for `scenes` scenes: a
    /// prewarm's answer is recorded just after the fake has logged it.
    fn await_warm(&self, shard: usize, scenes: usize) {
        eventually("the fleet records the prewarm's answer", || {
            self.fleet.stats().shards[shard].warm_scenes == scenes
        });
    }
}

/// A request some fake shard admitted and the test has not yet answered.
struct InFlight {
    handle: Handle,
    ticket: FleetTicket,
}

impl InFlight {
    fn shard(&self) -> usize {
        self.handle.shard
    }

    /// Answers the request; when this returns the fleet has released its
    /// in-flight slot and knows the shard warm for the scene.
    fn complete(mut self) {
        self.handle.complete(frames_of(0.0));
        self.ticket.wait().unwrap();
    }
}

/// A result whose single pixel names who rendered it.
fn frames_of(who: f32) -> WireResult {
    let mut image = Image::new(1, 1);
    image.pixels_mut()[0] = Rgb { r: who, g: 0.0, b: 0.0 };
    WireResult {
        scene: "Mic".into(),
        resolution: 1,
        reused_frames: 0,
        queue_wait_us: 0,
        latency_us: 1000,
        deadline_met: None,
        completed_seq: 0,
        images: vec![image],
        trace: asdr_obs::TraceId::UNSET,
    }
}

fn mic() -> RenderRequest {
    RenderRequest::frame(registry::handle("Mic"), 16)
}

/// Polls `done` until it holds; the fleet's health thread is the only
/// thing these wait on.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::yield_now();
    }
}

/// A ticket waits on the one submission it holds; a report about one it no
/// longer holds is skipped. Here the failover's first try is refused at
/// submit, whose dropped `Done` reports a lost request under its own attempt
/// just before another shard admits the replacement: taken for the
/// replacement's end, it would evict that shard too and fail over again.
#[test]
fn a_report_from_a_submission_the_ticket_no_longer_holds_is_skipped() {
    let cfg = FleetConfig { health_misses: u32::MAX, ..unprobed() };
    let f = fake_fleet(3, cfg);
    let ring = f.fleet.ring();
    let victim = ring.home("Mic");
    // where the failover tries first once the victim is off the ring
    let refuser = ring.without(victim).home("Mic");
    let ticket = f.fleet.submit(mic()).unwrap();
    let mut primary = f.next_admitted();
    assert_eq!(primary.shard, victim, "an idle home keeps its scene");
    f.shards[refuser].full.store(true, Ordering::SeqCst);
    std::thread::scope(|s| {
        let waiter = s.spawn(|| ticket.wait());
        primary.die();
        let mut replacement = f.next_admitted();
        assert!(![victim, refuser].contains(&replacement.shard), "{}", replacement.shard);
        replacement.complete(frames_of(3.0));
        assert_eq!(waiter.join().unwrap().unwrap(), frames_of(3.0), "the replacement's frames");
        assert_eq!(ticket.shard(), replacement.shard);
    });
    let stats = f.fleet.stats();
    assert_eq!((stats.fleet.evictions, stats.fleet.failovers), (1, 1), "{:?}", stats.fleet);
    assert_eq!(f.fleet.live_shards().len(), 2, "a shard besides the victim was evicted");
    assert_eq!(stats.cost.observations, 1, "only the replacement's result teaches");
    assert!(stats.shards.iter().all(|s| s.in_flight == 0), "an in-flight slot leaked");
}

/// A second `wait()` answers with the first's outcome and asks no shard.
#[test]
fn a_ticket_answers_every_wait_with_its_one_outcome() {
    let f = fake_fleet(2, unprobed());
    let ticket = f.fleet.submit(mic()).unwrap();
    f.next_admitted().complete(frames_of(1.0));
    assert_eq!(ticket.wait().unwrap(), frames_of(1.0));
    assert_eq!(ticket.wait().unwrap(), frames_of(1.0), "the second wait lost the outcome");
    assert!(f.admitted.try_recv().is_err(), "the second wait submitted a duplicate");
    let stats = f.fleet.stats();
    assert_eq!(stats.fleet, FleetStats::default());
    assert_eq!(stats.cost.observations, 1, "one request, one observation");
}

#[test]
fn a_dead_primary_fails_over_with_its_reservation_and_rejoins_without_a_prewarm() {
    const SCENES: [&str; 8] =
        ["Mic", "Lego", "Pulse", "Palace", "Fountain", "Family", "Chair", "Ship"];
    let cfg = FleetConfig {
        health_interval: Duration::from_millis(1),
        health_misses: u32::MAX, // only the ticket's connection error may evict
        ..FleetConfig::default()
    };
    let f = fake_fleet(3, cfg);
    // route every scene once, one at a time: homes that the ring changes
    // below move, and nothing ever queues, so nothing asks for a replica
    for scene in SCENES {
        let ticket = f.fleet.submit(RenderRequest::frame(registry::handle(scene), 16)).unwrap();
        f.next_admitted().complete(frames_of(0.0));
        ticket.wait().unwrap();
    }
    let ring = f.fleet.ring();
    let victim = ring.home("Mic");
    assert!(SCENES.iter().any(|s| ring.home(s) != victim), "every scene homes on the victim");

    // probes fail from here on, so the eviction below is not undone at once
    f.shards[victim].healthy.store(false, Ordering::SeqCst);
    let ticket = f.fleet.submit(mic()).unwrap();
    let mut primary = f.next_admitted();
    assert_eq!(primary.shard, victim);
    std::thread::scope(|s| {
        let waiter = s.spawn(|| ticket.wait());
        primary.die();
        let mut replacement = f.next_admitted();
        assert_ne!(replacement.shard, victim);
        // between the resubmission and its answer: the victim is off the
        // ring and the request is in flight on the shard that took over
        let stats = f.fleet.stats();
        assert_eq!(f.fleet.live_shards().len(), 2);
        assert_eq!((stats.fleet.evictions, stats.fleet.shards_lost), (1, 1), "{:?}", stats.fleet);
        assert_eq!(stats.shards[victim].in_flight, 0, "the dead shard kept the request");
        assert_eq!(stats.shards[replacement.shard].in_flight, 1);
        replacement.complete(frames_of(3.0));
        assert_eq!(waiter.join().unwrap().unwrap(), frames_of(3.0));
        assert_eq!(ticket.shard(), replacement.shard);
    });
    let stats = f.fleet.stats();
    assert_eq!((stats.fleet.failovers, stats.fleet.rejoins), (1, 0), "{:?}", stats.fleet);
    assert!(stats.shards.iter().all(|s| s.in_flight == 0), "an in-flight slot leaked");

    // a healthy probe returns the shard
    f.shards[victim].healthy.store(true, Ordering::SeqCst);
    eventually("the recovered shard rejoins", || f.fleet.stats().fleet.rejoins == 1);
    assert_eq!(f.fleet.live_shards().len(), 3);
    // shutdown joins the health thread and every prewarm it could have
    // started: neither ring change sent one
    let stats = f.fleet.shutdown();
    assert_eq!(f.prewarms(), 0, "a ring change prewarmed {:?}", f.prewarmed.lock().unwrap());
    assert_eq!((stats.fleet.evictions, stats.fleet.rejoins, stats.fleet.shards_lost), (1, 1, 0));
    assert_eq!(stats.fleet.replications, 0);
}

/// A failover that finds every surviving shard full waits for a
/// completion, not for luck: the replacement goes out on the release.
#[test]
fn a_failover_waits_out_a_fleet_that_is_busy() {
    // no health probe while the test runs: a re-route's only wake-up is a release
    let cfg = FleetConfig { health_misses: u32::MAX, ..unprobed() };
    let f = fake_fleet(2, cfg);
    let mut doomed = f.admit(mic());
    f.shards[doomed.shard()].full.store(true, Ordering::SeqCst);
    let mut other = f.admit(mic());
    assert_ne!(other.shard(), doomed.shard(), "the full home spills");
    f.shards[doomed.shard()].healthy.store(false, Ordering::SeqCst);
    f.shards[other.shard()].full.store(true, Ordering::SeqCst);
    std::thread::scope(|s| {
        let waiter = s.spawn(|| doomed.ticket.wait());
        doomed.handle.die();
        // the survivor is full: the resubmission is refused `QueueFull`
        eventually("the failover meets a busy fleet", || f.fleet.stats().rejected >= 1);
        assert!(f.admitted.try_recv().is_err(), "a full shard admitted the failover");
        // room again, but nothing has told the waiting ticket so
        f.shards[other.shard()].full.store(false, Ordering::SeqCst);
        assert!(f.admitted.try_recv().is_err(), "the failover went out before a release");
        other.handle.complete(frames_of(0.0));
        let mut replacement = f.next_admitted();
        assert_eq!(replacement.shard, other.shard());
        replacement.complete(frames_of(3.0));
        assert_eq!(waiter.join().unwrap().unwrap(), frames_of(3.0));
    });
    other.ticket.wait().unwrap();
    let stats = f.fleet.stats();
    assert_eq!((stats.fleet.evictions, stats.fleet.failovers), (1, 1), "{:?}", stats.fleet);
    assert!(stats.shards.iter().all(|s| s.in_flight == 0), "an in-flight slot leaked");
}

/// No health probe while the test runs: nothing but the ticket's own
/// routing can move a request.
fn unprobed() -> FleetConfig {
    FleetConfig { health_interval: PATIENCE, ..FleetConfig::default() }
}

/// A refusal reported after `submit` has returned (a remote shard's
/// `Failed` with a full queue) is a re-route: the request goes to the shard that did not
/// refuse it, and nobody is evicted or failed over.
#[test]
fn a_request_refused_after_submit_completes_on_the_other_shard() {
    let f = fake_fleet(2, unprobed());
    let ticket = f.fleet.submit(mic()).unwrap();
    let mut refuser = f.next_admitted();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| ticket.wait());
        refuser.refuse(true);
        let mut other = f.next_admitted();
        assert_ne!(other.shard, refuser.shard, "the refusing shard was asked again");
        other.complete(frames_of(2.0));
        assert_eq!(waiter.join().unwrap().unwrap(), frames_of(2.0));
    });
    assert_eq!(ticket.shard(), 1 - refuser.shard);
    let stats = f.fleet.stats();
    assert_eq!(f.fleet.live_shards().len(), 2);
    assert_eq!(stats.fleet, FleetStats::default(), "a refusal counted as a failure");
    assert_eq!(stats.rejected, 0, "the other shard admitted at once");
    assert!(stats.shards.iter().all(|s| s.in_flight == 0), "an in-flight slot leaked");
}

#[test]
fn a_final_refusal_fails_the_ticket_with_its_reason() {
    let f = fake_fleet(2, unprobed());
    let ticket = f.fleet.submit(mic()).unwrap();
    f.next_admitted().refuse(false);
    let why = ticket.wait().unwrap_err();
    assert!(why.contains("the test is full"), "{why}");
    assert!(f.admitted.try_recv().is_err(), "a final refusal was routed again");
    let stats = f.fleet.stats();
    assert_eq!((stats.fleet, f.fleet.live_shards().len()), (FleetStats::default(), 2));
    assert!(stats.shards.iter().all(|s| s.in_flight == 0), "an in-flight slot leaked");
}

/// A request past the serving bounds is refused before any shard sees it:
/// a daemon cannot decode it and drops the connection it came on, so
/// sending it would evict shard after shard as the request failed over.
#[test]
fn a_request_past_the_serving_bounds_is_refused_before_any_shard_is_asked() {
    let f = fake_fleet(2, unprobed());
    let mic = || registry::handle("Mic");
    // one past MAX_PIXELS: one frame of 4097², two of 4096²
    let mut refused = vec![
        (RenderRequest::frame(mic(), 4097), "pixels"),
        (RenderRequest::sequence(mic(), 4096, 2), "pixels"),
    ];
    // a camera field the wire cannot carry
    for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for camera in [
            OrbitCamera { azimuth_deg: v, ..OrbitCamera::default() },
            OrbitCamera { elevation_deg: v, ..OrbitCamera::default() },
            OrbitCamera { radius: v, ..OrbitCamera::default() },
        ] {
            refused.push((RenderRequest::frame(mic(), 16).with_camera(camera), "camera"));
        }
    }
    for (req, named) in refused {
        let shown = format!("{} px, {:?}", req.resolution, req.camera);
        match f.fleet.submit(req) {
            Err(ServeError::InvalidRequest(why)) => assert!(why.contains(named), "{why}"),
            other => panic!("{shown} was not refused: {:?}", other.err()),
        }
    }
    assert!(f.admitted.try_recv().is_err(), "a shard was asked");
    let stats = f.fleet.stats();
    assert_eq!(
        (stats.fleet, stats.rejected, f.fleet.live_shards().len()),
        (FleetStats::default(), 0, 2)
    );
}

/// With every shard refusing each try the moment it is made, a ticket asks
/// each shard once, then waits for a release before each further try: its
/// submits never outnumber the completions plus the shards, and it spins
/// through none while nothing completes.
#[test]
fn a_fleet_that_refuses_everywhere_costs_one_try_per_completion() {
    const SHARDS: usize = 2;
    const COMPLETIONS: usize = 3;
    let f = fake_fleet(SHARDS, unprobed());
    let others: Vec<InFlight> = (0..COMPLETIONS).map(|_| f.admit(mic())).collect();
    let FakeFleet { fleet, admitted, .. } = f;
    let ticket = fleet.submit(mic()).unwrap();
    let tries = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // refuses every try but the last one the bound allows, which it answers
        let refuser = s.spawn(|| {
            let mut asked = Vec::new();
            loop {
                let mut handle = admitted.recv_timeout(PATIENCE).expect("no try was made");
                asked.push(handle.shard);
                if tries.fetch_add(1, Ordering::SeqCst) + 1 == SHARDS + COMPLETIONS {
                    handle.complete(frames_of(5.0));
                    return (asked, admitted);
                }
                handle.refuse(true);
            }
        });
        let waiter = s.spawn(|| ticket.wait());
        for (completed, other) in others.into_iter().enumerate() {
            // the count moves just before the ticket parks for a release
            eventually("the ticket waits for a release", || {
                fleet.stats().rejected > completed as u64
            });
            let made = tries.load(Ordering::SeqCst);
            assert_eq!(made, SHARDS + completed, "more tries than completions plus shards");
            other.complete();
        }
        assert_eq!(waiter.join().unwrap().unwrap(), frames_of(5.0));
        let (asked, admitted) = refuser.join().unwrap();
        assert_ne!(asked[0], asked[1], "a shard was asked twice before a release");
        assert!(admitted.try_recv().is_err(), "a try after the ticket was answered");
    });
    let stats = fleet.stats();
    assert_eq!(stats.rejected, COMPLETIONS as u64, "one wait per completion");
    assert_eq!((stats.fleet.evictions, stats.fleet.failovers), (0, 0), "{:?}", stats.fleet);
    assert!(stats.shards.iter().all(|s| s.in_flight == 0), "an in-flight slot leaked");
}

/// Probes fast enough to evict and rejoin while a test waits.
fn quiet() -> FleetConfig {
    FleetConfig {
        health_interval: Duration::from_millis(1),
        health_misses: 1,
        ..FleetConfig::default()
    }
}

#[test]
fn a_busy_home_makes_a_replica_then_yields_to_it() {
    let f = fake_fleet(2, quiet());
    let home = f.fleet.ring().home("Mic");
    let first = f.admit(mic());
    assert_eq!(first.shard(), home);
    // the first overlap: the idle shard is cold, so the request queues at
    // home and the replica is made behind it
    let second = f.admit(mic());
    assert_eq!(second.shard(), home, "a request was sent to a cold shard");
    eventually("one prewarm reaches the idle shard", || f.prewarms() == 1);
    assert_eq!(*f.prewarmed.lock().unwrap(), [(1 - home, "Mic".to_string())]);
    f.await_warm(1 - home, 1);
    // the next overlap is served there
    let third = f.admit(mic());
    assert_eq!(third.shard(), 1 - home, "the home was busy beside an idle replica");
    // … and with both at work the home takes the fourth: nothing is idle
    let fourth = f.admit(mic());
    assert_eq!(fourth.shard(), home);
    let stats = f.fleet.stats();
    assert_eq!((stats.routed_home, stats.spilled, stats.rejected), (3, 1, 0));
    assert_eq!(stats.shards[1 - home].spilled_in, 1);
    assert_eq!(stats.fleet, FleetStats { replications: 1, ..FleetStats::default() });
    [first, second, third, fourth].into_iter().for_each(InFlight::complete);
    assert_eq!(f.prewarms(), 1, "a warm shard was prewarmed again");
}

#[test]
fn an_idle_home_keeps_its_scene() {
    let f = fake_fleet(3, quiet());
    let home = f.fleet.ring().home("Mic");
    for _ in 0..20 {
        let only = f.admit(mic());
        assert_eq!(only.shard(), home);
        only.complete();
    }
    let stats = f.fleet.stats();
    assert_eq!((stats.routed_home, stats.spilled), (20, 0));
    assert_eq!(stats.fleet, FleetStats::default());
    assert_eq!(f.prewarms(), 0, "nothing queued, so nothing is replicated");
}

#[test]
fn an_evicted_shard_rejoins_cold() {
    let f = fake_fleet(2, quiet());
    let home = f.fleet.ring().home("Mic");
    let other = 1 - home;
    let overlap = || [f.admit(mic()), f.admit(mic())];
    overlap().into_iter().for_each(InFlight::complete);
    f.await_warm(other, 1);

    f.shards[other].healthy.store(false, Ordering::SeqCst);
    eventually("the silent shard is evicted and its replica forgotten", || {
        f.fleet.live_shards().len() == 1 && f.fleet.stats().shards[other].warm_scenes == 0
    });
    f.shards[other].healthy.store(true, Ordering::SeqCst);
    eventually("it rejoins", || f.fleet.live_shards().len() == 2);

    // whatever answers under that id now may be a new process: the overlap
    // queues at home and the replica is made again
    let pair = overlap();
    assert_eq!([pair[0].shard(), pair[1].shard()], [home, home]);
    pair.into_iter().for_each(InFlight::complete);
    eventually("the rejoined shard is prewarmed again", || f.prewarms() == 2);
    let stats = f.fleet.stats();
    assert_eq!((stats.spilled, stats.fleet.replications), (0, 2));
}

#[test]
fn a_failed_replication_is_retried_and_never_doubles() {
    let f = fake_fleet(2, quiet());
    let home = f.fleet.ring().home("Mic");
    f.shards[1 - home].failing_prewarms.store(1, Ordering::SeqCst);
    // overlap after overlap goes home until the failed prewarm has been
    // replaced by one that worked; while either is on its way none is added
    let mut queued = vec![f.admit(mic())];
    eventually("a second replication follows the failed one", || {
        queued.push(f.admit(mic()));
        let stats = f.fleet.stats();
        assert_eq!(stats.spilled, 0, "a request followed a prewarm that had failed");
        stats.fleet.replications == 2
    });
    f.await_warm(1 - home, 1);
    assert_eq!(f.prewarms(), 2, "one failed, one worked: nothing else may reach the shard");
    let spilled = f.admit(mic());
    assert_eq!(spilled.shard(), 1 - home);
    queued.into_iter().chain([spilled]).for_each(InFlight::complete);
    assert_eq!((f.prewarms(), f.fleet.stats().fleet.replications), (2, 2));
}

/// A closed loop of four callers over two shards, each submitting or being
/// answered in a seeded random order: whatever the interleaving, no request
/// is sent to a shard with work in flight while a live shard the test knows
/// warm for its scene has none. Three scenes start with a replica the test
/// has waited for; the fourth gets its own whenever the loop first queues
/// it, and counts as warm on a shard once that shard has answered for it.
#[test]
fn no_submit_queues_behind_work_while_a_warm_shard_is_idle() {
    const SCENES: [&str; 4] = ["Mic", "Lego", "Pulse", "Chair"];
    let f = fake_fleet(2, quiet());
    let mut rng = asdr_math::rng::seeded("fleet-seam-closed-loop", 0);
    let mut next = |below: usize| rng.gen_range(0..below);
    let mut answered: BTreeSet<(usize, &str)> = BTreeSet::new();
    for (replicas, scene) in SCENES[..3].iter().enumerate() {
        let overlap = [(); 2].map(|()| f.admit(RenderRequest::frame(registry::handle(scene), 16)));
        let home = overlap[0].shard();
        overlap.into_iter().for_each(InFlight::complete);
        eventually("the overlap's replica lands", || {
            let warm: usize = f.fleet.stats().shards.iter().map(|s| s.warm_scenes).sum();
            warm == 2 * (replicas + 1)
        });
        answered.extend([(home, *scene), (1 - home, *scene)]);
    }
    let mut in_flight: Vec<(InFlight, &str)> = Vec::new();
    let (mut completions, mut yielded) = (0, 0);
    while completions < 1000 {
        if in_flight.is_empty() || (in_flight.len() < 4 && next(2) == 0) {
            let scene = SCENES[next(SCENES.len())];
            let busy = |shard: usize| in_flight.iter().any(|(r, _)| r.shard() == shard);
            let idle_warm: Vec<usize> =
                (0..2).filter(|&s| !busy(s) && answered.contains(&(s, scene))).collect();
            let was_busy = [busy(0), busy(1)];
            let admitted = f.admit(RenderRequest::frame(registry::handle(scene), 16));
            let chosen = admitted.shard();
            assert!(
                !was_busy[chosen] || idle_warm.is_empty(),
                "{scene} queued on shard {chosen} while {idle_warm:?} stood idle and warm"
            );
            yielded += usize::from(chosen != f.fleet.ring().home(scene));
            in_flight.push((admitted, scene));
            continue;
        }
        let (done, scene) = in_flight.swap_remove(next(in_flight.len()));
        answered.insert((done.shard(), scene));
        done.complete();
        completions += 1;
    }
    let stats = f.fleet.stats();
    assert_eq!(stats.spilled, yielded as u64);
    assert!(yielded > 100, "only {yielded} of 1000 requests left a busy home");
    assert!(stats.fleet.replications <= 2 * SCENES.len() as u64, "{:?}", stats.fleet);
    eventually("every replication reaches its shard", || {
        f.prewarms() as u64 == stats.fleet.replications
    });
    let log = f.prewarmed.lock().unwrap().clone();
    assert_eq!(log.iter().collect::<BTreeSet<_>>().len(), log.len(), "doubled: {log:?}");
    in_flight.into_iter().for_each(|(r, _)| r.complete());
}

/// One fake shard behind the library's connection loop on a Unix socket.
struct Served {
    shard: Arc<FakeShard>,
    admitted: Receiver<Handle>,
    addr: ShardAddr,
    server: Arc<Server>,
    /// What `run` returned, once it has.
    ran: Receiver<std::io::Result<()>>,
    thread: std::thread::JoinHandle<()>,
}

fn serve(name: &str) -> Served {
    let sock = std::env::temp_dir().join(format!("asdr-seam-{name}-{}.sock", std::process::id()));
    let (listener, addr) = Listener::bind(&ShardAddr::Unix(sock)).unwrap();
    let (tx, admitted) = mpsc::channel();
    let shard = FakeShard::new(0, tx, Arc::default());
    let server = Server::new(shard.clone(), 0);
    let (running, (ran_tx, ran)) = (server.clone(), mpsc::channel());
    let thread = std::thread::spawn(move || {
        let _ = ran_tx.send(running.run(&listener));
        running.drain();
    });
    Served { shard, admitted, addr, server, ran, thread }
}

impl Served {
    fn next_admitted(&self) -> Handle {
        self.admitted.recv_timeout(PATIENCE).expect("the shard admitted no request")
    }

    /// A connection past its handshake, speaking raw frames.
    fn dial(&self) -> Stream {
        let mut stream = self.addr.connect().unwrap();
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        wire::write_frame(&mut stream, &Message::Hello { version: wire::VERSION }).unwrap();
        assert_eq!(next_frame(&mut stream), Message::HelloOk { shard: 0 });
        stream
    }

    /// Stops the server, whose `run` must then return at once — it sits
    /// in a blocking `accept` that only `stop`'s own connection ends.
    fn stop(self) {
        self.server.stop();
        let ran = self.ran.recv_timeout(PATIENCE).expect("stop left `run` blocked in accept");
        ran.expect("accept");
        self.thread.join().unwrap();
        if let ShardAddr::Unix(sock) = &self.addr {
            let _ = std::fs::remove_file(sock);
        }
    }
}

fn next_frame(stream: &mut Stream) -> Message {
    wire::read_frame(stream).unwrap().expect("the server closed the connection")
}

/// Sends `mic()` as `id`. Nothing answers until the request ends: that the
/// shard took it is seen on [`Served::next_admitted`].
fn submit(stream: &mut Stream, id: u64) {
    let req = WireRequest::from_request(&mic());
    wire::write_frame(stream, &Message::Submit { id, req }).unwrap();
}

/// The accept loop blocks in `accept`, which only a connection ends:
/// `stop` must make one.
#[test]
fn stop_ends_a_run_blocked_in_accept_with_no_client() {
    let served = serve("idle");
    // a handshake answered: `run` has published its address, and with
    // this client gone it is back in `accept` with nobody dialling
    drop(served.dial());
    served.stop();
}

/// Ended before `Shard::submit` has returned, a request is still answered
/// exactly once, with its `Result`: the health reply queued after the eight
/// ends is the next frame after the eighth.
#[test]
fn a_request_that_ends_inside_submit_is_answered_exactly_once_with_its_result() {
    let served = serve("instant");
    served.shard.instant.store(true, Ordering::SeqCst);
    let mut client = served.dial();
    for id in 1..=8 {
        submit(&mut client, id);
        assert_eq!(next_frame(&mut client), Message::Result { id, result: frames_of(0.0) });
    }
    wire::write_frame(&mut client, &Message::Health { id: 9 }).unwrap();
    assert!(matches!(next_frame(&mut client), Message::HealthOk { id: 9, .. }), "a second end");
    drop(client);
    served.stop();
}

/// At the parent every admitted request parked a responder thread in the
/// daemon until its render was done.
#[cfg(target_os = "linux")]
#[test]
fn admitted_requests_cost_the_server_no_threads() {
    fn threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("Threads:");
        line.trim().parse().unwrap()
    }
    const STALLED: u64 = 64;
    let served = serve("threads");
    let mut client = served.dial();
    // one request through and back, so the connection's two threads exist
    submit(&mut client, 0);
    served.next_admitted().complete(frames_of(0.0));
    assert!(matches!(next_frame(&mut client), Message::Result { id: 0, .. }));
    let before = threads();
    let mut stalled: Vec<Handle> = (1..=STALLED)
        .map(|id| {
            submit(&mut client, id);
            served.next_admitted()
        })
        .collect();
    let after = threads();
    // the other tests of this binary come and go meanwhile: what is ruled
    // out is growth with the requests, and half of it is far beyond theirs
    assert!(
        after < before + STALLED as usize / 2,
        "{STALLED} stalled requests took the process from {before} to {after} threads"
    );
    for (id, handle) in (1..=STALLED).zip(&mut stalled) {
        handle.complete(frames_of(0.0));
        assert!(matches!(next_frame(&mut client), Message::Result { id: got, .. } if got == id));
    }
    drop(client);
    served.stop();
}

#[test]
fn a_peer_that_stops_reading_delays_nobody_elses_reply() {
    let served = serve("stalled-peer");
    let (mut deaf, mut prompt) = (served.dial(), served.dial());
    // far more reply bytes than a socket buffers: the deaf peer's writer blocks
    let mut big = frames_of(0.0);
    big.images = vec![Image::new(128, 128)];
    let mut unread: Vec<Handle> = (1..=32)
        .map(|id| {
            submit(&mut deaf, id);
            served.next_admitted()
        })
        .collect();
    submit(&mut prompt, 1);
    let mut wanted = served.next_admitted();
    // ending a request must not wait for its peer either: these return
    unread.iter_mut().for_each(|handle| handle.complete(big.clone()));
    wanted.complete(frames_of(7.0));
    assert_eq!(next_frame(&mut prompt), Message::Result { id: 1, result: frames_of(7.0) });
    // the deaf peer hangs up: its writer fails and releases the queue,
    // which is what lets the drain below finish
    drop((deaf, prompt));
    served.stop();
}

/// A shard that stops answering its health probes while it holds a
/// request — still connected, so nothing else ends the request — is
/// evicted by the health loop, which abandons what its connections carry: the request fails over and completes on the other
/// shard with that shard's frames. The hung shard's answer, when it comes
/// at last, reaches nobody, and waiting again answers the same.
#[test]
fn a_hung_shards_request_fails_over_once_its_health_evicts_it() {
    let served = [serve("hung-0"), serve("hung-1")];
    let shards: Vec<Arc<RemoteShard>> =
        served.iter().map(|s| Arc::new(RemoteShard::connect(s.addr.clone(), 1).unwrap())).collect();
    let cfg = FleetConfig { health_interval: Duration::from_millis(1), ..FleetConfig::default() };
    let fleet = Fleet::new(shards, &RenderProfile::tiny(), cfg).unwrap();
    let hung = fleet.ring().home("Mic");
    let ticket = fleet.submit(mic()).unwrap();
    let mut stalled = served[hung].next_admitted();
    served[hung].shard.healthy.store(false, Ordering::SeqCst);
    // not scoped: a request nothing frees would hold the test for ever
    // instead of failing it at the deadline below
    let waiter = std::thread::spawn(move || {
        let answer = ticket.wait();
        (ticket, answer)
    });
    // only the eviction can free the request: the hung shard never ends it
    let mut replacement = served[1 - hung].next_admitted();
    replacement.complete(frames_of(2.0));
    let (ticket, answer) = waiter.join().unwrap();
    assert_eq!(answer.unwrap(), frames_of(2.0), "the other shard's frames");
    assert_eq!(ticket.shard(), 1 - hung);
    // written to a connection the fleet has given up
    stalled.complete(frames_of(1.0));
    assert_eq!(ticket.wait().unwrap(), frames_of(2.0), "a second wait answered differently");
    let stats = fleet.shutdown();
    assert_eq!((stats.fleet.evictions, stats.fleet.failovers), (1, 1), "{:?}", stats.fleet);
    assert_eq!(stats.cost.observations, 1, "the hung shard's late answer reached the fleet");
    assert!(stats.shards.iter().all(|s| s.in_flight == 0), "an in-flight slot leaked");
    served.into_iter().for_each(Served::stop);
}

/// A request a shard admits while the health loop is evicting it — after
/// the eviction's abandon has run — is ended too: the loop abandons a
/// silent shard every round, not once, and the request fails over.
#[test]
fn a_request_admitted_by_a_shard_being_evicted_still_fails_over() {
    let cfg = FleetConfig { health_interval: Duration::from_millis(1), ..FleetConfig::default() };
    let f = fake_fleet(2, cfg);
    let hung = f.fleet.ring().home("Mic");
    f.shards[hung].hangs_in_submit.store(true, Ordering::SeqCst);
    let ticket = f.fleet.submit(mic()).unwrap();
    assert_eq!(f.shards[hung].kept.lock().unwrap().1.len(), 1, "the shard ended it in submit");
    // not scoped: a request nothing frees would hold the test for ever
    // instead of failing it at the deadline below
    let waiter = std::thread::spawn(move || {
        let answer = ticket.wait();
        (ticket, answer)
    });
    let mut replacement = f.next_admitted();
    assert_eq!(replacement.shard, 1 - hung);
    replacement.complete(frames_of(2.0));
    let (ticket, answer) = waiter.join().unwrap();
    assert_eq!(answer.unwrap(), frames_of(2.0), "the other shard's frames");
    assert_eq!(ticket.shard(), 1 - hung);
    let stats = f.fleet.stats();
    assert_eq!((stats.fleet.evictions, stats.fleet.failovers), (1, 1), "{:?}", stats.fleet);
    assert!(stats.shards.iter().all(|s| s.in_flight == 0), "an in-flight slot leaked");
}

/// A silent shard's eviction costs the health loop no more than its probes'
/// own timeout: the abandon leaves the connections open, so each round's
/// probe goes out on one and gives up after `health_timeout`. A stopped
/// daemon is played by a peer that answered one handshake and since reads
/// without answering, and accepts no other dial: a connection the abandon
/// closed would be dialled again, into a handshake that waits 5 s.
#[test]
fn an_evicted_silent_shard_is_probed_on_its_open_connection_each_round() {
    let sock = std::env::temp_dir().join(format!("asdr-seam-silent-{}.sock", std::process::id()));
    let (listener, addr) = Listener::bind(&ShardAddr::Unix(sock.clone())).unwrap();
    let (probed, probes) = mpsc::channel();
    let peer = std::thread::spawn(move || {
        let mut stream = listener.accept().unwrap();
        assert!(matches!(next_frame(&mut stream), Message::Hello { .. }));
        wire::write_frame(&mut stream, &Message::HelloOk { shard: 0 }).unwrap();
        while let Ok(Some(msg)) = wire::read_frame(&mut stream) {
            if matches!(msg, Message::Health { .. }) && probed.send(Instant::now()).is_err() {
                break;
            }
        }
    });
    let shard = Arc::new(RemoteShard::connect(addr, 1).unwrap());
    let cfg = FleetConfig {
        health_interval: Duration::from_millis(1),
        health_timeout: Duration::from_millis(100),
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(vec![shard], &RenderProfile::tiny(), cfg).unwrap();
    eventually("the silent shard is evicted", || fleet.live_shards().is_empty());
    probes.try_iter().for_each(drop);
    let closed = "the evicted shard's connection was closed";
    let mut last = probes.recv_timeout(PATIENCE).expect(closed);
    for _ in 0..3 {
        let next = probes.recv_timeout(PATIENCE).expect(closed);
        assert!(next - last < Duration::from_secs(4), "a health round took {:?}", next - last);
        last = next;
    }
    // the peer hangs up at the next probe, which ends the client's reader
    drop(probes);
    peer.join().unwrap();
    drop(fleet);
    let _ = std::fs::remove_file(&sock);
}

const E2E_SCENES: [&str; 3] = ["Mic", "Lego", "Pulse"];
const E2E_RESOLUTION: u32 = 24;

/// `tests/cluster_e2e.rs`'s workload: per scene, a prioritized frame and a
/// short orbit sequence.
fn e2e_workload() -> Vec<RenderRequest> {
    E2E_SCENES
        .iter()
        .flat_map(|name| {
            let scene = registry::handle(name);
            [
                RenderRequest::frame(scene.clone(), E2E_RESOLUTION).with_priority(Priority::High),
                RenderRequest::sequence(scene, E2E_RESOLUTION, 2),
            ]
        })
        .collect()
}

/// Runs the workload through `fleet` — all six at once, again and again
/// until some request has met a busy home beside a finished replica — and
/// holds every round to what `tests/cluster_e2e.rs` asserts of a sharded
/// run over a warm directory.
fn assert_matches_reference(fleet: Fleet, reference: &[Vec<Image>], backend: &str) {
    let shards = fleet.shards() as u64;
    let deadline = Instant::now() + PATIENCE;
    let mut rounds = Vec::new();
    while fleet.stats().spilled == 0 && Instant::now() < deadline {
        let tickets: Vec<_> = e2e_workload().into_iter().map(|r| fleet.submit(r)).collect();
        let outcomes: Vec<_> =
            tickets.iter().map(|t| t.as_ref().map_err(|e| e.to_string())?.wait()).collect();
        rounds.push(outcomes);
    }
    // shut down before anything may panic: it is what stops the servers
    let stats = fleet.shutdown();
    assert!(stats.spilled > 0, "{backend}: no overlap ever found its replica: {stats:?}");
    assert!(stats.fleet.replications > 0, "{backend}: a spill without a replica");
    assert_eq!(stats.requests(), 6 * rounds.len() as u64, "{backend}");
    for outcomes in rounds {
        let frames: Vec<Vec<Image>> =
            outcomes.into_iter().map(|o| o.expect("request completed").images).collect();
        assert_eq!(frames, reference, "{backend} shards changed pixels");
    }
    assert_eq!(
        stats.total_fits(),
        0,
        "{backend}: every shard warms from the reference's checkpoints"
    );
    let loads = stats.total_disk_hits();
    assert!(
        (3..=3 * shards).contains(&loads),
        "{backend}: {loads} checkpoint loads; a (scene, shard) pair loads at most once"
    );
    let replications = stats.fleet.replications;
    assert_eq!(stats.fleet, FleetStats { replications, ..FleetStats::default() }, "{backend}");
}

#[test]
fn frames_are_byte_identical_local_remote_and_single_service() {
    let dir = std::env::temp_dir().join(format!("asdr_fleet_seam_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let profile = RenderProfile::tiny();

    let service = RenderService::builder(profile.clone())
        .store(Arc::new(ModelStore::builder().dir(&dir).build()))
        .workers(2)
        .build()
        .unwrap();
    let tickets: Vec<_> = e2e_workload().into_iter().map(|r| service.submit(r).unwrap()).collect();
    let reference: Vec<Vec<Image>> =
        tickets.iter().map(|t| t.wait().expect("request completed").images.clone()).collect();
    assert_eq!(service.shutdown().store.fits, 3, "the cold reference run fits each scene once");

    let local_shards = || {
        let store = ModelStore::builder().dir(&dir);
        LocalShards { shards: 3, store, ..LocalShards::new(profile.clone()) }.build()
    };
    let cfg = FleetConfig::default();
    let local = Fleet::new(local_shards().unwrap(), &profile, cfg.clone()).unwrap();
    assert_matches_reference(local, &reference, "local");

    // the same three shards again, each behind the library's connection
    // loop on a Unix socket, reached by the wire client
    std::thread::scope(|s| {
        let mut remote_shards = Vec::new();
        for (id, shard) in local_shards().unwrap().into_iter().enumerate() {
            let addr = ShardAddr::Unix(dir.join(format!("shard{id}.sock")));
            let (listener, addr) = Listener::bind(&addr).unwrap();
            let server = Server::new(shard, id as u64);
            s.spawn(move || {
                server.run(&listener).expect("accept");
                server.drain();
            });
            remote_shards.push(Arc::new(RemoteShard::connect(addr, 1).unwrap()));
        }
        let remote = Fleet::new(remote_shards, &profile, cfg).unwrap();
        // shutdown's wire `Drain` is also what ends the three server threads
        assert_matches_reference(remote, &reference, "remote");
    });
    let _ = std::fs::remove_dir_all(&dir);
}
