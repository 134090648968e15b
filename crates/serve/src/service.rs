//! The multi-tenant render service: a bounded admission queue feeding a
//! worker pool of reusable frame-engine sessions over a shared
//! [`ModelStore`].
//!
//! Scheduling is **deadline-aware priority ordering**: the queue pops the
//! highest [`Priority`] first, earliest absolute deadline within a
//! priority, FIFO as the tie-break. A worker claims exactly one request —
//! one model lookup, one [`FrameEngine`] session — so no request waits
//! behind a worse-ranked one and no worker idles while another holds work.
//!
//! Within a request, consecutive frames reuse the engine's [`SamplePlan`]
//! via [`PlanPolicy::Reuse`]; plan state never crosses a request boundary,
//! so **images are byte-identical regardless of worker count or arrival
//! order** — the property the end-to-end tests pin down.
//!
//! [`SamplePlan`]: asdr_core::algo::SamplePlan

use crate::config;
use crate::profile::RenderProfile;
use crate::store::{ModelStore, StoreStats};
use crate::workload::{check_pixels, MAX_FRAMES, MAX_RESOLUTION};
use asdr_core::algo::{ExecPolicy, FrameEngine, PlanPolicy, RenderStats, SequenceFrame};
use asdr_math::Image;
use asdr_nerf::NgpModel;
use asdr_obs::{JsonWriter, TraceId};
use asdr_scenes::registry::OrbitCamera;
use asdr_scenes::SceneHandle;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request urgency class. Higher runs first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work (pre-warming, speculative frames).
    Low,
    /// Interactive default.
    Normal,
    /// Latency-critical (the VR head pose of the paper's motivation).
    High,
}

impl Priority {
    /// Parses a case-insensitive priority name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s.to_ascii_lowercase().as_str() {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }

    /// The lowercase name [`Priority::parse`] reads back.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One unit of client work: a scene, a viewpoint (or short sequence), and
/// the scheduling metadata the queue orders by.
#[derive(Debug, Clone)]
pub struct RenderRequest {
    /// The scene to render (already resolved against a registry).
    pub scene: SceneHandle,
    /// Viewpoint override; `None` uses the scene's standard orbit.
    pub camera: Option<OrbitCamera>,
    /// Square frame resolution in pixels.
    pub resolution: u32,
    /// Frames in this request (>= 1); frames beyond the first orbit the
    /// camera by [`RenderRequest::azimuth_step_deg`] per frame.
    pub frames: usize,
    /// Per-frame azimuth advance for multi-frame requests, degrees.
    pub azimuth_step_deg: f32,
    /// Scheduling class.
    pub priority: Priority,
    /// Latency budget measured from submission; `None` = best effort.
    pub deadline: Option<Duration>,
    /// Observability trace id. [`TraceId::UNSET`] by default; when span
    /// capture is enabled, [`RenderService::submit`] assigns a fresh id to
    /// unset requests. The cluster layers set it before submission (and
    /// carry it over the wire) so one request's spans join across the
    /// fleet client and failover resubmits.
    pub trace: TraceId,
}

impl RenderRequest {
    /// Default per-frame azimuth advance (matches the `sequence`
    /// experiment's slow orbit).
    pub const DEFAULT_AZIMUTH_STEP_DEG: f32 = 1.5;

    /// Checks the request against the bounds the workload reader and the
    /// fleet wire enforce: past them a worker's image allocation aborts the
    /// process (which no `catch_unwind` survives), a remote result does not
    /// fit one wire frame, or one request holds a worker for hours.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] naming the first bound broken: frames
    /// ([`MAX_FRAMES`]), resolution ([`MAX_RESOLUTION`]), their pixels
    /// ([`MAX_PIXELS`](crate::workload::MAX_PIXELS)), the orbit step, or a
    /// camera override with a field that is not finite.
    pub fn check_bounds(&self) -> Result<(), ServeError> {
        if self.frames == 0 || self.frames as u64 > MAX_FRAMES {
            return Err(ServeError::InvalidRequest(format!(
                "frames must be in 1..={MAX_FRAMES}, got {}",
                self.frames
            )));
        }
        if self.resolution == 0 || u64::from(self.resolution) > MAX_RESOLUTION {
            return Err(ServeError::InvalidRequest(format!(
                "resolution must be in 1..={MAX_RESOLUTION}, got {}",
                self.resolution
            )));
        }
        check_pixels(u64::from(self.resolution), self.frames as u64)
            .map_err(ServeError::InvalidRequest)?;
        // frame i orbits by i * step: an infinite step makes frame 0's
        // 0 * inf a NaN azimuth, and a huge finite one overflows from
        // frame 2 on — either way no camera exists for the frame
        let step = self.azimuth_step_deg;
        if !step.is_finite() || step.abs() > 360.0 {
            return Err(ServeError::InvalidRequest(format!(
                "azimuth_step_deg must be in -360..=360, got {step}"
            )));
        }
        // the wire refuses the same fields: a daemon that cannot decode a
        // request drops the connection it came on
        if let Some(cam) = &self.camera {
            let fields = [
                ("azimuth_deg", cam.azimuth_deg),
                ("elevation_deg", cam.elevation_deg),
                ("radius", cam.radius),
                ("fov_deg", cam.fov_deg),
                ("center.x", cam.center.x),
                ("center.y", cam.center.y),
                ("center.z", cam.center.z),
            ];
            if let Some((name, v)) = fields.into_iter().find(|(_, v)| !v.is_finite()) {
                return Err(ServeError::InvalidRequest(format!(
                    "camera {name} must be finite, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// A single-frame request at `resolution` with default scheduling.
    pub fn frame(scene: SceneHandle, resolution: u32) -> Self {
        RenderRequest {
            scene,
            camera: None,
            resolution,
            frames: 1,
            azimuth_step_deg: Self::DEFAULT_AZIMUTH_STEP_DEG,
            priority: Priority::Normal,
            deadline: None,
            trace: TraceId::UNSET,
        }
    }

    /// An `n`-frame orbit sequence at `resolution`.
    pub fn sequence(scene: SceneHandle, resolution: u32, n: usize) -> Self {
        RenderRequest { frames: n, ..Self::frame(scene, resolution) }
    }

    /// Sets the scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the latency budget.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the viewpoint.
    #[must_use]
    pub fn with_camera(mut self, camera: OrbitCamera) -> Self {
        self.camera = Some(camera);
        self
    }

    /// The camera for frame `i` of this request.
    fn camera_for_frame(&self, i: usize) -> asdr_math::Camera {
        let mut orbit = self.camera.unwrap_or_else(|| self.scene.def().camera_orbit());
        orbit.azimuth_deg += i as f32 * self.azimuth_step_deg;
        orbit.camera(self.resolution, self.resolution)
    }
}

/// Why a submission was refused, or a submitted request failed: the one
/// error of the serving stack. The service returns the first four; a
/// fleet's shard seam adds the two a wire can cause. Each caller reads its
/// own decision off the variant — a replay waits out only `QueueFull`, a
/// fleet tries another shard on `QueueFull` and `ShuttingDown` and evicts
/// one whose connection is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Momentarily at capacity — the admission queue, or every live shard
    /// of a fleet (each one's queue full, or draining); retry after
    /// completions drain.
    QueueFull {
        /// The requests pending: the queue's configured capacity, or the
        /// fleet's requests in flight.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The request failed validation (message names the constraint).
    InvalidRequest(String),
    /// The request's fit or render panicked (message carries the panic).
    /// The open registry makes this reachable — a registered scene's
    /// builder is arbitrary user code — so it fails the ticket, never the
    /// service: the worker survives and keeps serving.
    RenderFailed(String),
    /// A remote shard could not be reached, did not answer in time, or its
    /// connection died under the request (or a fleet has no live shard).
    Connection(String),
    /// A remote peer broke the wire protocol.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} pending)")
            }
            ServeError::ShuttingDown => f.write_str("service is shutting down"),
            ServeError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            ServeError::RenderFailed(why) => write!(f, "render failed: {why}"),
            ServeError::Connection(why) => write!(f, "connection: {why}"),
            ServeError::Protocol(why) => write!(f, "protocol: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The completed output of one request.
#[derive(Debug)]
pub struct RenderResult {
    /// Scene name.
    pub scene: String,
    /// Square frame resolution the request rendered at.
    pub resolution: u32,
    /// The rendered frames, in order.
    pub images: Vec<Image>,
    /// Operation counts aggregated over the request's frames.
    pub stats: RenderStats,
    /// Frames that skipped Phase I by reusing the request's sample plan.
    pub reused_frames: usize,
    /// Time spent queued before a worker claimed the request.
    pub queue_wait: Duration,
    /// Submission-to-completion latency.
    pub latency: Duration,
    /// Whether the latency met the deadline (`None` = no deadline).
    pub deadline_met: Option<bool>,
    /// Global completion sequence number (0-based, service-wide) — the
    /// observable execution order the scheduler tests assert on.
    pub completed_seq: u64,
    /// The trace id the request carried ([`TraceId::UNSET`] when
    /// observability was disabled at admission), echoed so a remote
    /// client can join its spans with the shard's.
    pub trace: TraceId,
}

/// How one admitted request ends ([`RenderService::submit_with`]): called
/// once, on the worker thread, with the result or the failure, after the
/// request's statistics are folded in.
type End = Box<dyn FnOnce(Result<RenderResult, ServeError>) + Send>;

/// A handle to a submitted request's eventual [`RenderResult`].
#[derive(Clone)]
pub struct RenderTicket {
    inner: Arc<TicketInner>,
}

struct TicketInner {
    state: Mutex<Option<Result<Arc<RenderResult>, ServeError>>>,
    cond: Condvar,
}

impl fmt::Debug for RenderTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RenderTicket").field("state", &self.inner.state).finish_non_exhaustive()
    }
}

impl RenderTicket {
    fn new() -> Self {
        RenderTicket {
            inner: Arc::new(TicketInner { state: Mutex::new(None), cond: Condvar::new() }),
        }
    }

    /// Blocks until the request completes or fails.
    ///
    /// # Errors
    ///
    /// [`ServeError::RenderFailed`] if the request's fit or render
    /// panicked (the worker survives; only this ticket fails).
    pub fn wait(&self) -> Result<Arc<RenderResult>, ServeError> {
        let mut state = self.inner.state.lock().unwrap();
        while state.is_none() {
            state = self.inner.cond.wait(state).unwrap();
        }
        state.as_ref().expect("loop exits only when filled").clone()
    }

    fn fill(&self, result: Result<RenderResult, ServeError>) {
        let mut state = self.inner.state.lock().unwrap();
        *state = Some(result.map(Arc::new));
        self.inner.cond.notify_all();
    }
}

/// How every worker's engine cuts a frame into tiles.
const EXEC_POLICY: ExecPolicy = ExecPolicy::TileStealing { tile_size: 16 };

/// A multi-frame request re-probes its sample plan every this many frames.
const PLAN_REFRESH_EVERY: usize = 3;

/// One queued admission.
struct Queued {
    req: RenderRequest,
    end: End,
    submitted: Instant,
    deadline_at: Option<Instant>,
    seq: u64,
}

/// The scheduling key: highest priority first, then earliest deadline
/// (deadline-less requests after any deadlined one), then FIFO.
fn sched_key(q: &Queued) -> (Reverse<Priority>, bool, Option<Instant>, u64) {
    (Reverse(q.req.priority), q.deadline_at.is_none(), q.deadline_at, q.seq)
}

struct QueueState {
    queue: VecDeque<Queued>,
    accepting: bool,
    paused: bool,
    next_seq: u64,
}

/// Pops the best-ranked request by [`sched_key`], or `None` when empty.
fn pop(q: &mut QueueState) -> Option<Queued> {
    let best = q.queue.iter().enumerate().min_by_key(|(_, e)| sched_key(e)).map(|(i, _)| i)?;
    q.queue.remove(best)
}

/// Most recent request latencies the percentile snapshot covers. Bounds
/// the accumulator for service-lifetime operation: memory stays O(window)
/// and a stats() poll sorts at most this many samples, however many
/// requests the service has served.
const LATENCY_WINDOW: usize = 4096;

/// Every serve counter and latency accumulator, folded under one lock:
/// workers advance them together and [`RenderService::stats`] reads them
/// together, so a snapshot is coherent.
#[derive(Default)]
struct StatsAccum {
    requests: u64,
    frames: u64,
    reused_frames: u64,
    deadlined_requests: u64,
    deadline_misses: u64,
    /// Ring of the last [`LATENCY_WINDOW`] request latencies.
    latencies_ms: Vec<f64>,
    latency_next: usize,
    queue_wait_sum_ms: f64,
    agg: RenderStats,
    probe_points_avoided_est: f64,
    first_submit: Option<Instant>,
    last_done: Option<Instant>,
}

impl StatsAccum {
    fn push_latency(&mut self, ms: f64) {
        if self.latencies_ms.len() < LATENCY_WINDOW {
            self.latencies_ms.push(ms);
        } else {
            self.latencies_ms[self.latency_next] = ms;
        }
        self.latency_next = (self.latency_next + 1) % LATENCY_WINDOW;
    }
}

/// Aggregate service metrics; snapshot with [`RenderService::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests completed.
    pub requests: u64,
    /// Frames rendered.
    pub frames: u64,
    /// Frames that reused a sample plan instead of re-probing.
    pub reused_frames: u64,
    /// Requests that carried a deadline.
    pub deadlined_requests: u64,
    /// Deadlined requests that finished late.
    pub deadline_misses: u64,
    /// Median submission-to-completion latency, milliseconds (over the
    /// most recent window of completions).
    pub p50_latency_ms: f64,
    /// 95th-percentile latency, milliseconds (same window).
    pub p95_latency_ms: f64,
    /// Mean time spent in the admission queue, milliseconds.
    pub mean_queue_wait_ms: f64,
    /// Frames per wall-clock second, first submission to last completion.
    pub throughput_fps: f64,
    /// Probe sample points actually executed.
    pub probe_points: u64,
    /// Probe points plan reuse avoided (estimated from each request's
    /// probed-frame cost).
    pub probe_points_avoided_est: f64,
    /// Density evaluations the sample plans asked for, probe included
    /// (`RenderStats::total_density`): counted work, what a chip executes.
    pub density_evals: u64,
    /// Color evaluations the sample plans asked for, probe included.
    pub color_evals: u64,
    /// Of `density_evals`, those the renderer did not run: they could not
    /// change a pixel (unoccupied cells, rays already saturated), or Phase II
    /// read them from the probe of a pixel kept at the base count. Why a
    /// mostly-empty scene costs a fraction of a dense one at equal counted
    /// work.
    pub skipped_density: u64,
    /// Of `color_evals`, those the renderer did not run (colourless groups,
    /// saturated rays, leaders coloured by their pixel's probe).
    pub skipped_color: u64,
    /// Model-store activity (fits, hits, evictions).
    pub store: StoreStats,
}

impl ServeStats {
    /// Fraction of frames that skipped Phase I.
    pub fn reuse_fraction(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        self.reused_frames as f64 / self.frames as f64
    }

    /// Serializes the snapshot as a JSON object (the `asdr-serve` artifact
    /// format) through the workspace-shared [`JsonWriter`], so number
    /// formatting cannot drift from the cluster artifact again.
    pub fn to_json(&self) -> String {
        let s = &self.store;
        let mut w = JsonWriter::new();
        w.obj();
        w.gap("\n  ").key("requests").u64(self.requests);
        w.key("frames").u64(self.frames);
        w.key("reused_frames").u64(self.reused_frames);
        w.gap("\n  ").key("deadlined_requests").u64(self.deadlined_requests);
        w.key("deadline_misses").u64(self.deadline_misses);
        w.gap("\n  ").key("p50_latency_ms").f64(self.p50_latency_ms, 3);
        w.key("p95_latency_ms").f64(self.p95_latency_ms, 3);
        w.key("mean_queue_wait_ms").f64(self.mean_queue_wait_ms, 3);
        w.gap("\n  ").key("throughput_fps").f64(self.throughput_fps, 3);
        w.gap("\n  ").key("probe_points").u64(self.probe_points);
        w.key("probe_points_avoided_est").f64(self.probe_points_avoided_est, 0);
        w.gap("\n  ").key("density_evals").u64(self.density_evals);
        w.key("skipped_density").u64(self.skipped_density);
        w.key("color_evals").u64(self.color_evals);
        w.key("skipped_color").u64(self.skipped_color);
        w.gap("\n  ").key("store").obj();
        w.key("memory_hits").u64(s.memory_hits);
        w.key("disk_hits").u64(s.disk_hits);
        w.key("fits").u64(s.fits);
        w.key("evictions").u64(s.evictions);
        w.key("disk_errors").u64(s.disk_errors);
        w.key("single_flight_waits").u64(s.single_flight_waits);
        w.key("lock_waits").u64(s.lock_waits);
        w.key("lock_steals").u64(s.lock_steals);
        w.key("resident").u64(s.resident as u64);
        w.close_obj();
        w.raw("\n");
        w.close_obj();
        w.raw("\n");
        w.finish()
    }
}

/// Configures and builds a [`RenderService`].
pub struct RenderServiceBuilder {
    profile: RenderProfile,
    workers: Option<usize>,
    queue_capacity: usize,
    store: Option<Arc<ModelStore>>,
    paused: bool,
}

impl RenderServiceBuilder {
    /// Worker-pool size, fixed for the service's lifetime. Default, and
    /// what zero means: the detected parallelism.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = (n > 0).then_some(n);
        self
    }

    /// Admission-queue capacity (pending requests before
    /// [`ServeError::QueueFull`]; clamped to >= 1).
    #[must_use]
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Shares an existing model store (several services, one warm cache).
    /// Default: a fresh store honoring `ASDR_STORE_DIR`.
    #[must_use]
    pub fn store(mut self, store: Arc<ModelStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Starts with the worker pool parked: submissions queue up but nothing
    /// renders until [`RenderService::start`]. Used to stage bursts (and by
    /// the scheduler tests to make ordering observable).
    #[must_use]
    pub fn paused(mut self) -> Self {
        self.paused = true;
        self
    }

    /// Builds the service and spawns its worker pool.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint if the profile's
    /// render options fail validation.
    pub fn build(self) -> Result<RenderService, String> {
        self.profile.options_for(self.profile.default_resolution).validate()?;
        let workers = self.workers.unwrap_or_else(config::default_workers);
        let store = self.store.unwrap_or_else(|| Arc::new(ModelStore::builder().build()));
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                paused: self.paused,
                next_seq: 0,
            }),
            cond: Condvar::new(),
            store,
            profile: self.profile,
            queue_capacity: self.queue_capacity,
            stats: Mutex::new(StatsAccum::default()),
            completed: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("asdr-serve-{id}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn render worker")
            })
            .collect();
        Ok(RenderService { shared, pool_size: workers, workers: Mutex::new(handles) })
    }
}

/// State shared between the service handle and its workers.
struct Shared {
    queue: Mutex<QueueState>,
    cond: Condvar,
    store: Arc<ModelStore>,
    profile: RenderProfile,
    queue_capacity: usize,
    stats: Mutex<StatsAccum>,
    completed: AtomicU64,
}

/// The service handle. Dropping it drains the queue and joins the workers;
/// [`RenderService::shutdown`] does the same and returns the final stats.
pub struct RenderService {
    shared: Arc<Shared>,
    pool_size: usize,
    /// The workers still to join; empty once the service drained.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for RenderService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RenderService")
            .field("workers", &self.workers())
            .field("queue_capacity", &self.shared.queue_capacity)
            .field("profile", &self.shared.profile)
            .finish_non_exhaustive()
    }
}

impl RenderService {
    /// Starts a builder over a render profile.
    pub fn builder(profile: RenderProfile) -> RenderServiceBuilder {
        RenderServiceBuilder {
            profile,
            workers: None,
            queue_capacity: 64,
            store: None,
            paused: false,
        }
    }

    /// The shared model store.
    pub fn store(&self) -> &Arc<ModelStore> {
        &self.shared.store
    }

    /// The service's render profile.
    pub fn profile(&self) -> &RenderProfile {
        &self.shared.profile
    }

    /// Worker-pool size the service was built with.
    pub fn workers(&self) -> usize {
        self.pool_size
    }

    /// Blocks until the admission queue has a free slot, the service stops
    /// accepting, or `timeout` passes — the condvar the replay driver
    /// parks on instead of spinning while the queue is full. Capacity
    /// observed here is advisory: a racing submitter may take the slot, in
    /// which case the next submit returns `QueueFull` and the caller waits
    /// again.
    pub fn wait_capacity(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut q = self.shared.queue.lock().unwrap();
        while q.accepting && q.queue.len() >= self.shared.queue_capacity {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            q = self.shared.cond.wait_timeout(q, left).unwrap().0;
        }
    }

    /// The admission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Admits a request, returning its ticket.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for malformed requests,
    /// [`ServeError::QueueFull`] at capacity, [`ServeError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit(&self, req: RenderRequest) -> Result<RenderTicket, ServeError> {
        let ticket = RenderTicket::new();
        let filled = ticket.clone();
        self.submit_with(req, move |outcome| filled.fill(outcome))?;
        Ok(ticket)
    }

    /// Admits a request whose end is `end`: called once, on the worker
    /// thread that reached it, with the result or the failure, after the
    /// request's statistics are folded in — whether or not anyone waits. A
    /// panic in it is caught, so the worker loses only that end. A refused
    /// submission drops `end` uncalled.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_with(
        &self,
        mut req: RenderRequest,
        end: impl FnOnce(Result<RenderResult, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        req.check_bounds()?;
        self.shared
            .profile
            .options_for(req.resolution)
            .validate()
            .map_err(ServeError::InvalidRequest)?;
        let submitted = Instant::now();
        // checked: a sentinel like Duration::MAX must not overflow (and
        // certainly not panic inside the queue lock, poisoning the service);
        // an unrepresentable deadline schedules as best-effort and always
        // counts as met
        let deadline_at = req.deadline.and_then(|d| submitted.checked_add(d));
        if asdr_obs::enabled() && !req.trace.is_set() {
            req.trace = TraceId::fresh();
        }
        asdr_obs::event!(req.trace, "admit", format!("scene={}", req.scene.name()));
        {
            let mut q = self.shared.queue.lock().unwrap();
            if !q.accepting {
                return Err(ServeError::ShuttingDown);
            }
            if q.queue.len() >= self.shared.queue_capacity {
                return Err(ServeError::QueueFull { capacity: self.shared.queue_capacity });
            }
            let seq = q.next_seq;
            q.next_seq += 1;
            q.queue.push_back(Queued { req, end: Box::new(end), submitted, deadline_at, seq });
        }
        let mut stats = self.shared.stats.lock().unwrap();
        stats.first_submit.get_or_insert(submitted);
        drop(stats);
        self.shared.cond.notify_all();
        Ok(())
    }

    /// Unparks a paused worker pool (no-op when already running).
    pub fn start(&self) {
        self.shared.queue.lock().unwrap().paused = false;
        self.shared.cond.notify_all();
    }

    /// A statistics snapshot (completed requests only). Workers update
    /// the accumulator under the stats lock held here, so the snapshot is
    /// coherent.
    pub fn stats(&self) -> ServeStats {
        let acc = self.shared.stats.lock().unwrap();
        let elapsed = match (acc.first_submit, acc.last_done) {
            (Some(t0), Some(t1)) => (t1 - t0).as_secs_f64(),
            _ => 0.0,
        };
        ServeStats {
            requests: acc.requests,
            frames: acc.frames,
            reused_frames: acc.reused_frames,
            deadlined_requests: acc.deadlined_requests,
            deadline_misses: acc.deadline_misses,
            p50_latency_ms: percentile(&acc.latencies_ms, 50.0),
            p95_latency_ms: percentile(&acc.latencies_ms, 95.0),
            mean_queue_wait_ms: if acc.requests > 0 {
                acc.queue_wait_sum_ms / acc.requests as f64
            } else {
                0.0
            },
            throughput_fps: if elapsed > 0.0 { acc.frames as f64 / elapsed } else { 0.0 },
            probe_points: acc.agg.probe_points,
            probe_points_avoided_est: acc.probe_points_avoided_est,
            density_evals: acc.agg.total_density(),
            color_evals: acc.agg.total_color(),
            skipped_density: acc.agg.skipped_density,
            skipped_color: acc.agg.skipped_color,
            store: self.shared.store.stats(),
        }
    }

    /// Stops admissions, drains the queue, joins the workers, and returns
    /// the final statistics.
    pub fn shutdown(self) -> ServeStats {
        self.drain();
        self.stats()
    }

    /// Stops admissions, drains the queue, and joins the workers without
    /// consuming the handle (idempotent). For services held behind a shared
    /// `Arc` — the cluster's shards — where [`RenderService::shutdown`]
    /// cannot take ownership; read the final [`RenderService::stats`]
    /// afterwards.
    pub fn drain(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.accepting = false;
            // a paused pool must still drain what was admitted
            q.paused = false;
        }
        self.shared.cond.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            h.join().expect("render worker panicked");
        }
    }
}

impl Drop for RenderService {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Worker thread: claim the best-ranked request, render it, repeat until
/// shutdown drains the queue.
fn worker_loop(shared: &Shared) {
    loop {
        let item = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if !q.paused {
                    if let Some(item) = pop(&mut q) {
                        // the claim just freed a queue slot: wake anyone
                        // blocked in wait_capacity before going to render
                        shared.cond.notify_all();
                        break item;
                    }
                    if !q.accepting {
                        return;
                    }
                }
                q = shared.cond.wait(q).unwrap();
            }
        };
        // a panicking fit or render (reachable: registered scene builders
        // are arbitrary user code) fails the request, never the worker —
        // the client sees RenderFailed instead of hanging on an end nobody
        // calls; a panicking end loses only itself
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            render_request(shared, &item)
        }))
        .map_err(|panic| ServeError::RenderFailed(panic_message(panic.as_ref())));
        let end = item.end;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| end(outcome)));
    }
}

/// Best-effort panic payload extraction for [`ServeError::RenderFailed`].
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_string())
}

/// Renders one claimed request: one store lookup, one engine session,
/// plan reuse across its frames. Folds the outcome into the service
/// statistics; the caller ends the request.
fn render_request(shared: &Shared, item: &Queued) -> RenderResult {
    let claimed_at = Instant::now();
    let req = &item.req;
    asdr_obs::span!(req.trace, "queue", item.submitted, claimed_at);
    let store_t0 = Instant::now();
    let model = shared.store.get_or_fit(&req.scene, &shared.profile.grid);
    asdr_obs::span!(req.trace, "store", store_t0, Instant::now());
    let engine = FrameEngine::new(shared.profile.options_for(req.resolution), EXEC_POLICY)
        .expect("options validated at submit");
    let cams: Vec<_> = (0..req.frames).map(|i| req.camera_for_frame(i)).collect();
    let frames: Vec<SequenceFrame<'_, NgpModel>> =
        cams.iter().map(|c| SequenceFrame::new(&*model, c.clone())).collect();
    let render_t0 = Instant::now();
    // plan reuse stays within this request: every request re-probes its
    // first frame, so output is independent of scheduling
    let out = engine
        .render_sequence(&frames, &PlanPolicy::Reuse { refresh_every: PLAN_REFRESH_EVERY })
        .expect("frames >= 1 validated at submit");
    let done = Instant::now();
    let latency = done - item.submitted;
    let deadline_met = req.deadline.map(|d| latency <= d);
    let reused = out.reused_frames();
    let frame_count = out.frames.len();
    let probed = frame_count - reused;
    let aggregate = out.aggregate;
    // phase spans come from the engine's own phase timers, laid
    // end-to-end from the render start
    let probe_dur = Duration::from_secs_f64(out.timings.probe_s);
    asdr_obs::span_at!(req.trace, "probe", render_t0, probe_dur);
    asdr_obs::span_at!(
        req.trace,
        "render",
        render_t0 + probe_dur,
        Duration::from_secs_f64(out.timings.render_s),
        format!("frames={frame_count} reused={reused}")
    );
    let result = RenderResult {
        scene: req.scene.name().to_string(),
        resolution: req.resolution,
        // `out` is owned and done with: move the frames, don't clone
        // O(frames x pixels) on the serving hot path
        images: out.frames.into_iter().map(|f| f.image).collect(),
        stats: aggregate,
        reused_frames: reused,
        queue_wait: claimed_at - item.submitted,
        latency,
        deadline_met,
        completed_seq: shared.completed.fetch_add(1, Ordering::Relaxed),
        trace: req.trace,
    };
    let mut acc = shared.stats.lock().unwrap();
    acc.requests += 1;
    acc.frames += frame_count as u64;
    acc.reused_frames += reused as u64;
    acc.push_latency(latency.as_secs_f64() * 1e3);
    acc.queue_wait_sum_ms += result.queue_wait.as_secs_f64() * 1e3;
    if let Some(met) = deadline_met {
        acc.deadlined_requests += 1;
        if !met {
            acc.deadline_misses += 1;
        }
    }
    acc.agg.accumulate(&aggregate);
    if probed > 0 && reused > 0 {
        acc.probe_points_avoided_est +=
            aggregate.probe_points as f64 / probed as f64 * reused as f64;
    }
    acc.last_done = Some(acc.last_done.map_or(done, |t| t.max(done)));
    drop(acc);
    if deadline_met == Some(false) {
        asdr_obs::event!(
            req.trace,
            "deadline-miss",
            format!("latency_ms={:.1}", latency.as_secs_f64() * 1e3)
        );
    }
    asdr_obs::event!(req.trace, "reply");
    result
}

/// Nearest-rank percentile over an unsorted sample (0 when empty).
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::parse("HIGH"), Some(Priority::High));
        assert_eq!(Priority::parse("nope"), None);
    }

    #[test]
    fn a_pop_claims_exactly_one_request() {
        use asdr_scenes::registry;
        let now = Instant::now();
        let queued = |seq: u64, scene: &str| Queued {
            req: RenderRequest::frame(registry::handle(scene), 16),
            end: Box::new(drop),
            submitted: now,
            deadline_at: None,
            seq,
        };
        let mut q = QueueState {
            queue: ["Mic", "Lego", "Mic", "Mic"]
                .into_iter()
                .enumerate()
                .map(|(i, scene)| queued(i as u64, scene))
                .collect(),
            accepting: true,
            paused: false,
            next_seq: 4,
        };
        let head = pop(&mut q).expect("queue holds four");
        assert_eq!((head.seq, head.req.scene.name()), (0, "Mic"));
        let left: Vec<_> = q.queue.iter().map(|e| (e.seq, e.req.scene.name())).collect();
        assert_eq!(left, [(1, "Lego"), (2, "Mic"), (3, "Mic")], "no same-scene rider left with it");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn latency_window_is_bounded() {
        let mut acc = StatsAccum::default();
        for i in 0..(LATENCY_WINDOW + 100) {
            acc.push_latency(i as f64);
        }
        assert_eq!(acc.latencies_ms.len(), LATENCY_WINDOW, "ring must not grow past the window");
        // the oldest entries were overwritten by the newest
        assert!(acc.latencies_ms.contains(&(LATENCY_WINDOW as f64 + 99.0)));
        assert!(!acc.latencies_ms.contains(&0.0));
    }

    #[test]
    fn stats_json_is_shape_stable() {
        let stats = ServeStats {
            requests: 2,
            frames: 5,
            reused_frames: 3,
            deadlined_requests: 1,
            deadline_misses: 0,
            p50_latency_ms: 12.5,
            p95_latency_ms: 40.0,
            mean_queue_wait_ms: 1.25,
            throughput_fps: 8.0,
            probe_points: 1000,
            probe_points_avoided_est: 3000.0,
            density_evals: 9000,
            color_evals: 5000,
            skipped_density: 7000,
            skipped_color: 3500,
            store: StoreStats::default(),
        };
        let json = stats.to_json();
        for key in [
            "\"requests\"",
            "\"p95_latency_ms\"",
            "\"throughput_fps\"",
            "\"density_evals\": 9000, \"skipped_density\": 7000",
            "\"color_evals\": 5000, \"skipped_color\": 3500",
            "\"store\"",
            "\"fits\"",
            "\"lock_waits\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!((stats.reuse_fraction() - 0.6).abs() < 1e-12);
    }
}
