//! The shared replay driver — one submit loop for every binary.
//!
//! `asdr-serve` and `asdr-cluster` both read their input whole into a
//! `Vec<`[`TimedRequest`]`>` and hand it to a [`ReplayDriver`], which owns
//! the open-loop clock (sleep until each request's arrival offset,
//! optionally time-warped by `--speed`), the busy-retry policy (a full
//! queue blocks the replay clock rather than dropping work), and `--record`
//! capture of every admitted request as a workload file. The driver is generic over a [`ReplayTarget`], so a single-node
//! [`RenderService`] and a sharded cluster router replay identically.

use crate::profile::RenderProfile;
use crate::service::{Priority, RenderRequest, RenderService, RenderTicket, ServeError};
use crate::workload::write_workload;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One render request with its arrival time: a line of a workload file.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    /// Arrival offset from replay start, milliseconds.
    pub at_ms: u64,
    /// Registry scene name (resolved at submit time).
    pub scene: String,
    /// Frames in the request (>= 1).
    pub frames: usize,
    /// Frame resolution override (`None`: the profile's default).
    pub resolution: Option<u32>,
    /// Scheduling class.
    pub priority: Priority,
    /// Latency budget from submission, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Orbit step override, degrees per frame.
    pub azimuth_step_deg: Option<f32>,
    /// 1-based line in the source workload file, so resolution failures
    /// name where the request came from.
    pub origin: usize,
}

impl TimedRequest {
    /// Resolves the entry into a submit-ready request under `profile`.
    ///
    /// # Errors
    ///
    /// Returns a message if the scene is not registered.
    pub fn to_request(&self, profile: &RenderProfile) -> Result<RenderRequest, String> {
        let scene = asdr_scenes::registry::get(&self.scene)
            .ok_or_else(|| format!("unknown scene {:?} (see `experiments --list`)", self.scene))?;
        let mut req = RenderRequest::sequence(
            scene,
            self.resolution.unwrap_or(profile.default_resolution),
            self.frames,
        )
        .with_priority(self.priority);
        if let Some(ms) = self.deadline_ms {
            req = req.with_deadline(Duration::from_millis(ms));
        }
        if let Some(step) = self.azimuth_step_deg {
            req.azimuth_step_deg = step;
        }
        Ok(req)
    }
}

/// One admission attempt's outcome, as the driver sees it.
#[derive(Debug)]
pub enum SubmitOutcome<T> {
    /// The request was admitted; hold the ticket.
    Admitted(T),
    /// The target is momentarily full — retry after a poll interval.
    Busy,
    /// The request can never be admitted; abort the replay.
    Fatal(String),
}

/// Anything a workload can be replayed into.
///
/// Implementations map their own retryable-overload error to
/// [`SubmitOutcome::Busy`]; everything else is fatal.
pub trait ReplayTarget {
    /// The per-request completion handle.
    type Ticket;

    /// Attempts to admit one request.
    fn try_submit(&self, req: RenderRequest) -> SubmitOutcome<Self::Ticket>;

    /// Parks until admission capacity *may* be available or `timeout`
    /// passes; called by the driver after [`SubmitOutcome::Busy`]. The
    /// default is a plain sleep; targets with a completion signal override
    /// it so an idle replay wakes the moment a slot frees instead of
    /// sleeping the poll interval out.
    fn wait_capacity(&self, timeout: Duration) {
        std::thread::sleep(timeout);
    }
}

impl ReplayTarget for RenderService {
    type Ticket = RenderTicket;

    fn try_submit(&self, req: RenderRequest) -> SubmitOutcome<RenderTicket> {
        match self.submit(req) {
            Ok(t) => SubmitOutcome::Admitted(t),
            Err(ServeError::QueueFull { .. }) => SubmitOutcome::Busy,
            Err(e) => SubmitOutcome::Fatal(e.to_string()),
        }
    }

    fn wait_capacity(&self, timeout: Duration) {
        RenderService::wait_capacity(self, timeout);
    }
}

/// One admitted request, paired with where it came from.
#[derive(Debug)]
pub struct ReplayedRequest<T> {
    /// 0-based submission index.
    pub index: usize,
    /// Scene name, kept for the per-request table.
    pub scene: String,
    /// Whether the request carried a deadline.
    pub deadlined: bool,
    /// The target's completion handle.
    pub ticket: T,
}

/// A finished submission pass: every ticket, in arrival order.
#[derive(Debug)]
pub struct Replay<T> {
    /// Admitted requests with their tickets; callers wait on these.
    pub requests: Vec<ReplayedRequest<T>>,
    /// When the replay clock started (wall-clock measurements anchor here).
    pub started: Instant,
}

/// How long the driver parks in [`ReplayTarget::wait_capacity`] after a
/// [`SubmitOutcome::Busy`] before it tries again.
const BUSY_WAIT: Duration = Duration::from_millis(5);

/// The shared open-loop replay driver (see the module docs).
#[derive(Debug, Clone)]
pub struct ReplayDriver {
    profile: RenderProfile,
    speed: f64,
    record: Option<PathBuf>,
}

impl ReplayDriver {
    /// A driver replaying in real time under `profile`, recording nothing.
    pub fn new(profile: RenderProfile) -> Self {
        ReplayDriver { profile, speed: 1.0, record: None }
    }

    /// Time-warps the replay clock: arrival offsets are divided by
    /// `speed`, so `2.0` replays twice as fast. Validated in [`run`](Self::run).
    pub fn speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Captures every admitted request (at its warped arrival offset)
    /// into a workload file at `path` when the replay finishes.
    pub fn record(mut self, path: Option<PathBuf>) -> Self {
        self.record = path;
        self
    }

    /// Submits `entries`, ordered by arrival offset, into `target`: sleeps
    /// until each entry's (warped) arrival offset, resolves it against the
    /// profile, and submits, retrying while the target is busy.
    ///
    /// # Errors
    ///
    /// Returns `"entry N: why"` when a request cannot be resolved,
    /// `"request N: why"` on a fatal submit error, a speed-validation
    /// message, or a record-file write error. Any already-issued tickets
    /// are dropped (their requests still complete in the target).
    pub fn run<T: ReplayTarget>(
        &self,
        entries: &[TimedRequest],
        target: &T,
    ) -> Result<Replay<T::Ticket>, String> {
        if !self.speed.is_finite() || self.speed <= 0.0 {
            return Err(format!("--speed must be a positive number, got {}", self.speed));
        }
        let started = Instant::now();
        let mut requests = Vec::with_capacity(entries.len());
        let mut recorded: Vec<TimedRequest> = Vec::new();
        for (index, entry) in entries.iter().enumerate() {
            let req = entry
                .to_request(&self.profile)
                .map_err(|e| format!("entry {}: {e}", entry.origin))?;
            let warped_ms = (entry.at_ms as f64 / self.speed).round() as u64;
            if let Some(wait) = Duration::from_millis(warped_ms).checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            let ticket = loop {
                match target.try_submit(req.clone()) {
                    SubmitOutcome::Admitted(t) => break t,
                    SubmitOutcome::Busy => target.wait_capacity(BUSY_WAIT),
                    SubmitOutcome::Fatal(e) => return Err(format!("request {index}: {e}")),
                }
            };
            if self.record.is_some() {
                // The capture is the *warped* schedule — replaying it
                // reproduces this run verbatim.
                recorded.push(TimedRequest {
                    at_ms: warped_ms,
                    origin: index + 1,
                    ..entry.clone()
                });
            }
            requests.push(ReplayedRequest {
                index,
                scene: entry.scene.clone(),
                deadlined: entry.deadline_ms.is_some(),
                ticket,
            });
        }
        if let Some(path) = &self.record {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
            std::fs::write(path, write_workload(&recorded))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(Replay { requests, started })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::parse_workload;
    use std::sync::Mutex;

    /// A target that stays busy for the first `busy` submissions of each
    /// request index, then admits, echoing the request back as a ticket.
    struct MockTarget {
        busy: usize,
        attempts: Mutex<usize>,
        admitted: Mutex<Vec<String>>,
        waits: Mutex<usize>,
    }

    impl MockTarget {
        fn new(busy: usize) -> Self {
            MockTarget {
                busy,
                attempts: Mutex::new(0),
                admitted: Mutex::new(Vec::new()),
                waits: Mutex::new(0),
            }
        }
    }

    impl ReplayTarget for MockTarget {
        type Ticket = RenderRequest;

        fn try_submit(&self, req: RenderRequest) -> SubmitOutcome<RenderRequest> {
            let mut attempts = self.attempts.lock().unwrap();
            *attempts += 1;
            if *attempts <= self.busy {
                return SubmitOutcome::Busy;
            }
            self.admitted.lock().unwrap().push(req.scene.name().to_string());
            SubmitOutcome::Admitted(req)
        }

        // wake instantly: the driver's retry policy must not depend on the
        // wait actually sleeping, only on being called between attempts
        fn wait_capacity(&self, _timeout: Duration) {
            *self.waits.lock().unwrap() += 1;
        }
    }

    fn entry(at_ms: u64, scene: &str, origin: usize) -> TimedRequest {
        TimedRequest {
            at_ms,
            scene: scene.to_string(),
            frames: 1,
            resolution: Some(16),
            priority: Priority::Normal,
            deadline_ms: Some(250),
            azimuth_step_deg: None,
            origin,
        }
    }

    fn driver() -> ReplayDriver {
        ReplayDriver::new(RenderProfile::tiny())
    }

    #[test]
    fn replays_through_busy_targets_in_order() {
        let target = MockTarget::new(2);
        let entries = [entry(0, "Mic", 1), entry(1, "Lego", 2), entry(2, "Mic", 3)];
        let replay = driver().run(&entries, &target).unwrap();
        assert_eq!(replay.requests.len(), 3);
        assert_eq!(*target.admitted.lock().unwrap(), ["Mic", "Lego", "Mic"]);
        assert_eq!(replay.requests[1].scene, "Lego");
        assert!(replay.requests[0].deadlined);
        // every Busy outcome parked in wait_capacity exactly once
        assert_eq!(*target.waits.lock().unwrap(), 2);
    }

    #[test]
    fn full_service_queues_wake_on_freed_slots() {
        // capacity 1, workers parked: the queue fills with one request,
        // wait_capacity must block while full and wake once a worker
        // claims the queued request
        let service = RenderService::builder(RenderProfile::tiny())
            .store(std::sync::Arc::new(
                crate::store::ModelStore::builder().in_memory_only().build(),
            ))
            .workers(1)
            .queue_capacity(1)
            .paused()
            .build()
            .unwrap();
        let req = || entry(0, "Mic", 1).to_request(&RenderProfile::tiny()).unwrap();
        let t0 = service.submit(req()).unwrap();
        assert!(matches!(service.submit(req()), Err(ServeError::QueueFull { .. })));
        // full queue: the bounded wait times out without a notify
        let start = Instant::now();
        ReplayTarget::wait_capacity(&service, Duration::from_millis(30));
        assert!(start.elapsed() >= Duration::from_millis(25), "full queue must park");
        // unpark: the worker claims the request, freeing the slot and
        // notifying the waiter well before the generous timeout
        service.start();
        ReplayTarget::wait_capacity(&service, Duration::from_secs(30));
        t0.wait().unwrap();
        service.submit(req()).unwrap().wait().unwrap();
        service.shutdown();
    }

    #[test]
    fn speed_warps_the_clock_and_the_recording() {
        let dir = std::env::temp_dir().join(format!("asdr-replay-{}", std::process::id()));
        let path = dir.join("warped.jsonl");
        let target = MockTarget::new(0);
        let entries = [entry(0, "Mic", 1), entry(400, "Lego", 2)];
        let t0 = Instant::now();
        let replay =
            driver().speed(100.0).record(Some(path.clone())).run(&entries, &target).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(300), "400ms warped 100x replays fast");
        assert_eq!(replay.requests.len(), 2);
        let decoded = parse_workload(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[1].at_ms, 4, "400ms / 100x");
        assert_eq!(decoded[1].scene, "Lego");
        assert_eq!(decoded[1].deadline_ms, Some(250));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorded_traces_replay_identically() {
        let dir = std::env::temp_dir().join(format!("asdr-replay2-{}", std::process::id()));
        let path = dir.join("capture.jsonl");
        let entries = [entry(0, "Mic", 1), entry(2, "Lego", 2)];
        let target = MockTarget::new(0);
        driver().record(Some(path.clone())).run(&entries, &target).unwrap();
        let recorded = parse_workload(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(recorded, entries, "line numbers are the 1-based submission order");
        let target2 = MockTarget::new(0);
        let replay = driver().run(&recorded, &target2).unwrap();
        assert_eq!(*target2.admitted.lock().unwrap(), *target.admitted.lock().unwrap());
        assert_eq!(replay.requests.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_entries_and_bad_speeds_are_named() {
        let target = MockTarget::new(0);
        let e = driver().run(&[entry(0, "no-such-scene", 7)], &target).unwrap_err();
        assert!(e.starts_with("entry 7: "), "{e}");
        let e = driver().speed(0.0).run(&[], &target).unwrap_err();
        assert!(e.contains("--speed"), "{e}");
    }

    #[test]
    fn timed_request_resolves_against_the_registry() {
        let profile = RenderProfile::tiny();
        let mut mic = entry(0, "Mic", 1);
        mic.resolution = None;
        let ok = mic.to_request(&profile).unwrap();
        assert_eq!(ok.scene.name(), "Mic");
        assert_eq!(ok.resolution, profile.default_resolution);
        assert!(entry(0, "no-such-scene", 1).to_request(&profile).is_err());
    }

    #[test]
    fn render_service_is_a_replay_target() {
        let service = RenderService::builder(RenderProfile::tiny())
            .store(std::sync::Arc::new(
                crate::store::ModelStore::builder().in_memory_only().build(),
            ))
            .workers(1)
            .build()
            .unwrap();
        let replay = driver().run(&[entry(0, "Mic", 1)], &service).unwrap();
        let result = replay.requests.into_iter().next().unwrap().ticket.wait().unwrap();
        assert_eq!(result.images.len(), 1);
        service.shutdown();
    }
}
