//! `serve_mix` and `fleet_mix`: one seeded request stream, closed loop with
//! four callers, through an in-process `RenderService` or through a
//! `RemoteFleet` of two spawned `asdr-shardd`.
//!
//! Closed loop because a headset waits for its frame before asking for the
//! next, and because a wall-clock arrival schedule turns host drift into
//! utilisation drift, which queueing amplifies. A block is eight requests:
//! four go out at once, each completion sends the next, the block ends
//! when all eight are back — so the service is idle while the generator
//! runs the reference unit between blocks.

use crate::gen::{self, RequestSpec, RequestStream, SERVE_AZIMUTHS, SERVE_SCENES};
use crate::host::{self, Block, Steps, Timed, Work};
use crate::layers;
use crate::metrics::WorkloadId;
use crate::quality::{self, ChipTotals, DistinctFrame};
use crate::run::{self, Ctx, Measured, WARMUP_BLOCKS};
use crate::spans::SpanId;
use crate::stats;
use asdr_cluster::wire::{Message, WireResult};
use asdr_cluster::{CostModel, FleetConfig, HashRing, RemoteFleet, RemoteShard, ShardAddr};
use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOutput, RenderStats};
use asdr_math::{Camera, Image};
use asdr_nerf::NgpModel;
use asdr_scenes::{registry, SceneHandle};
use asdr_serve::{
    ModelStore, Priority, RenderProfile, RenderRequest, RenderResult, RenderService, StoreStats,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frame edge, pixels: small, so admit/queue/batch/store/reply are as
/// large a share of a request as they realistically get.
pub const RESOLUTION: u32 = 16;
/// Callers waiting on a reply at any time.
const OUTSTANDING: usize = 4;
const BLOCK_REQUESTS: usize = gen::BLOCK;
/// The store holds five of the six scenes, so the least popular ones take
/// turns being evicted and reloaded from disk.
const STORE_CAPACITY: usize = 5;
const SERVICE_WORKERS: usize = 2;
const SHARDS: usize = 2;
/// `asdr-shardd` polls its listener every 20 ms, so each of a set-up's four
/// connections waits a uniform 0–20 ms to be accepted: ±11 ms of the
/// program's own making on a 200 ms set-up. More repeats than the other
/// workloads' five bring the median's spread back under a third of the
/// bound; a repeat costs a quarter of a second.
const FLEET_SETUP_REPEATS: usize = 15;
/// How long a daemon gets to start listening, or to exit after a drain.
const DAEMON_PATIENCE: Duration = Duration::from_secs(20);

fn profile() -> RenderProfile {
    RenderProfile::tiny()
}

fn orbit_request(scenes: &[SceneHandle], spec: RequestSpec) -> RenderRequest {
    let scene = scenes[spec.scene].clone();
    let mut orbit = scene.def().camera_orbit();
    orbit.azimuth_deg += SERVE_AZIMUTHS[spec.view];
    let req = if spec.frames > 1 {
        RenderRequest::sequence(scene, RESOLUTION, spec.frames)
    } else {
        RenderRequest::frame(scene, RESOLUTION)
    };
    req.with_camera(orbit).with_priority(if spec.high_priority {
        Priority::High
    } else {
        Priority::Normal
    })
}

/// The camera of frame `i` of a request for `view`, as `RenderRequest`
/// derives it.
fn frame_camera(scene: &SceneHandle, view: usize, i: usize) -> Camera {
    let step = RenderRequest::DEFAULT_AZIMUTH_STEP_DEG;
    crate::render::camera(scene, SERVE_AZIMUTHS[view] + i as f32 * step, RESOLUTION)
}

/// Where requests go.
#[derive(Clone, Copy)]
enum Target<'a> {
    Service(&'a RenderService),
    Fleet(&'a RemoteFleet),
}

enum Reply {
    Service(Arc<RenderResult>),
    Fleet(WireResult),
}

impl Reply {
    fn images(&self) -> &[Image] {
        match self {
            Reply::Service(r) => &r.images,
            Reply::Fleet(r) => &r.images,
        }
    }
    fn queue_wait_ms(&self) -> f64 {
        match self {
            Reply::Service(r) => r.queue_wait.as_secs_f64() * 1e3,
            Reply::Fleet(r) => r.queue_wait_us as f64 / 1e3,
        }
    }
    fn reused_frames(&self) -> u64 {
        match self {
            Reply::Service(r) => r.reused_frames as u64,
            Reply::Fleet(r) => r.reused_frames,
        }
    }
}

enum Miss {
    Refused(String),
    Failed(String),
}

/// A submitted request.
enum Ticket {
    Service(asdr_serve::RenderTicket),
    Fleet(Box<asdr_cluster::FleetTicket>),
}

impl Target<'_> {
    /// Submits, with a span around the call.
    fn submit(
        &self,
        ctx: &Ctx,
        parent: Option<SpanId>,
        op: u64,
        req: RenderRequest,
    ) -> Result<Ticket, Miss> {
        let rec = &ctx.recorder;
        match self {
            Target::Service(service) => rec
                .span("serve.submit", parent, op, |_| service.submit(req))
                .map(Ticket::Service)
                .map_err(|e| Miss::Refused(e.to_string())),
            Target::Fleet(fleet) => rec
                .span("cluster.submit", parent, op, |_| fleet.submit(req))
                .map(|t| Ticket::Fleet(Box::new(t)))
                .map_err(|e| Miss::Refused(e.to_string())),
        }
    }

    /// Submits and waits.
    fn call(
        &self,
        ctx: &Ctx,
        parent: Option<SpanId>,
        op: u64,
        req: RenderRequest,
    ) -> Result<Reply, Miss> {
        self.submit(ctx, parent, op, req)?.wait(ctx, parent, op)
    }
}

impl Ticket {
    /// Waits for the reply, with a span around the call.
    fn wait(&self, ctx: &Ctx, parent: Option<SpanId>, op: u64) -> Result<Reply, Miss> {
        let rec = &ctx.recorder;
        match self {
            Ticket::Service(t) => rec
                .span("serve.wait", parent, op, |_| t.wait())
                .map(Reply::Service)
                .map_err(|e| Miss::Failed(e.to_string())),
            Ticket::Fleet(t) => rec
                .span("cluster.wait", parent, op, |_| t.wait())
                .map(Reply::Fleet)
                .map_err(Miss::Failed),
        }
    }
}

/// What a completed request told the generator.
struct Done {
    latency_ms: f64,
    queue_wait_ms: f64,
    frames: u64,
    reused: u64,
}

/// The reference images of every request shape, by [`RequestSpec::shape`].
type Catalogue = Vec<Vec<Image>>;

fn matches_catalogue(catalogue: &Catalogue, spec: RequestSpec, images: &[Image]) -> bool {
    let want = &catalogue[spec.shape()];
    want.len() == images.len() && want.iter().zip(images).all(|(a, b)| quality::same_bytes(a, b))
}

/// One caller's view of one request: sent at `sent`, under span `span`.
struct InFlight {
    index: usize,
    span: Option<SpanId>,
    sent: Instant,
    ticket: Result<Ticket, Miss>,
}

/// Runs one block: [`OUTSTANDING`] callers, each with its own share of
/// `specs`, send their next request when the last one returns. The first
/// [`OUTSTANDING`] requests are sent from this thread, in order, before
/// the callers start: were each caller to send its own first request, the
/// order in which four threads happen to start would decide which request
/// reaches an idle worker first, and with it every latency in the block.
fn run_block(
    ctx: &Ctx,
    target: Target<'_>,
    scenes: &[SceneHandle],
    catalogue: &Catalogue,
    specs: &[RequestSpec],
    first_op: u64,
) -> (Work, Vec<Done>) {
    let rec = &ctx.recorder;
    let done = Mutex::new(Vec::with_capacity(specs.len()));
    let misses = Mutex::new((0u64, 0u64, Vec::<String>::new()));
    let root = rec.open("block", None, first_op);
    let send = |index: usize| {
        let op = first_op + index as u64;
        let span = rec.open("request", root, op);
        let sent = Instant::now();
        let ticket = target.submit(ctx, span, op, orbit_request(scenes, specs[index]));
        InFlight { index, span, sent, ticket }
    };
    let receive = |flight: InFlight| {
        let op = first_op + flight.index as u64;
        let outcome = flight.ticket.and_then(|t| t.wait(ctx, flight.span, op));
        let latency_ms = flight.sent.elapsed().as_secs_f64() * 1e3;
        rec.close(flight.span);
        let miss = |refused: u64, failed: u64, why: String| {
            let mut m = misses.lock().expect("callers do not panic");
            m.0 += refused;
            m.1 += failed;
            m.2.push(why);
        };
        match outcome {
            Ok(reply) if matches_catalogue(catalogue, specs[flight.index], reply.images()) => {
                done.lock().expect("callers do not panic").push(Done {
                    latency_ms,
                    queue_wait_ms: reply.queue_wait_ms(),
                    frames: reply.images().len() as u64,
                    reused: reply.reused_frames(),
                });
            }
            Ok(_) => miss(0, 1, format!("request {op} returned other bytes than its reference")),
            Err(Miss::Refused(why)) => miss(1, 0, format!("request {op} refused: {why}")),
            Err(Miss::Failed(why)) => miss(0, 1, format!("request {op} failed: {why}")),
        }
    };
    let first: Vec<InFlight> = (0..OUTSTANDING.min(specs.len())).map(send).collect();
    std::thread::scope(|scope| {
        for mut flight in first {
            let (send, receive) = (&send, &receive);
            // caller k owns requests k, k + 4, …: which request follows
            // which does not depend on who finishes first
            scope.spawn(move || loop {
                let index = flight.index + OUTSTANDING;
                receive(flight);
                if index >= specs.len() {
                    return;
                }
                flight = send(index);
            });
        }
    });
    rec.close(root);
    let done = done.into_inner().expect("callers do not panic");
    let (refused, failed, why) = misses.into_inner().expect("callers do not panic");
    for line in why.iter().take(3) {
        eprintln!("asdr-benchmark: {line}");
    }
    let work = Work {
        latencies_ms: done.iter().map(|d| d.latency_ms).collect(),
        frames: done.iter().map(|d| d.frames).sum(),
        refused,
        failed,
    };
    (work, done)
}

// ---------------------------------------------------------------------
// daemons
// ---------------------------------------------------------------------

/// Spawned `asdr-shardd` processes; dropping kills and reaps whatever is
/// still running, so no run leaves a daemon behind.
struct Daemons {
    children: Vec<Child>,
    addrs: Vec<ShardAddr>,
}

impl Daemons {
    fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    fn peak_rss_mb(&self) -> f64 {
        self.children.iter().map(|c| crate::proc::peak_rss_mb(Some(c.id()))).sum()
    }

    /// Starts [`SHARDS`] daemons over `store_dir` and waits until each
    /// accepts a connection.
    fn spawn(dir: &Path, store_dir: &Path) -> Result<Daemons, String> {
        let exe = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("asdr-shardd")))
            .filter(|p| p.exists())
            .ok_or("asdr-shardd is not next to asdr-benchmark: build both with benchmark/run.sh")?;
        let mut daemons = Daemons { children: Vec::new(), addrs: Vec::new() };
        for i in 0..SHARDS {
            let sock = dir.join(format!("s{i}.sock"));
            let _ = std::fs::remove_file(&sock);
            let log = std::fs::File::create(dir.join(format!("shard{i}.log")))
                .map_err(|e| format!("cannot create a daemon log in {}: {e}", dir.display()))?;
            let child = Command::new(&exe)
                .arg("--listen")
                .arg(format!("unix:{}", sock.display()))
                .args(["--scale", "tiny", "--workers", "1", "--shard-id", &i.to_string()])
                .arg("--store-dir")
                .arg(store_dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
            daemons.children.push(child);
            daemons.addrs.push(ShardAddr::Unix(sock));
        }
        let deadline = Instant::now() + DAEMON_PATIENCE;
        for addr in &daemons.addrs {
            while addr.connect().is_err() {
                if Instant::now() > deadline {
                    return Err(format!("the shard at {addr} never came up"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(daemons)
    }

    /// Waits for daemons that were asked to drain; kills the stragglers.
    fn reap(&mut self) {
        let deadline = Instant::now() + DAEMON_PATIENCE;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        self.children.clear();
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------

/// The system a window runs on.
enum System {
    Service(RenderService),
    Fleet { fleet: RemoteFleet, daemons: Daemons },
}

impl System {
    fn target(&self) -> Target<'_> {
        match self {
            System::Service(s) => Target::Service(s),
            System::Fleet { fleet, .. } => Target::Fleet(fleet),
        }
    }

    fn daemon_pids(&self) -> Vec<u32> {
        match self {
            System::Service(_) => Vec::new(),
            System::Fleet { daemons, .. } => daemons.pids(),
        }
    }

    /// Store counters summed over every store the requests can reach.
    fn store_stats(&self) -> StoreStats {
        match self {
            System::Service(s) => s.store().stats(),
            System::Fleet { fleet, .. } => {
                let mut stats = fleet.stats().shards.into_iter().map(|s| s.serve.store);
                let mut total = stats.next().expect("a fleet has shards");
                for s in stats {
                    total.memory_hits += s.memory_hits;
                    total.disk_hits += s.disk_hits;
                    total.fits += s.fits;
                    total.evictions += s.evictions;
                }
                total
            }
        }
    }
}

impl Drop for System {
    fn drop(&mut self) {
        if let System::Fleet { fleet, daemons } = self {
            // asks every daemon to drain; reap waits for them to go
            fleet.shutdown();
            daemons.reap();
        }
    }
}

fn first_frame(
    ctx: &Ctx,
    target: Target<'_>,
    scenes: &[SceneHandle],
    scene: usize,
    parent: Option<SpanId>,
) {
    let spec = RequestSpec { scene, view: 0, frames: 1, high_priority: false };
    if let Err(Miss::Refused(why) | Miss::Failed(why)) =
        target.call(ctx, parent, scene as u64, orbit_request(scenes, spec))
    {
        eprintln!("asdr-benchmark: set-up frame of {} failed: {why}", scenes[scene].name());
    }
}

/// `serve_mix`, from nothing: an empty checkpoint directory, a store and a
/// service over it, then the first frame of every scene — which fits the
/// scene and writes its checkpoint (the store's write path).
fn setup_service(ctx: &Ctx, scenes: &[SceneHandle], attempt: usize) -> (Timed, System) {
    let rec = &ctx.recorder;
    let dir = ctx.workdir.join(format!("ckpt{attempt}"));
    let mut clock = ctx.clock_1();
    let mut steps = Steps::begin(&mut clock);
    let root = rec.open("setup", None, attempt as u64);
    let service =
        steps.step(|| rec.span("serve.build", root, 0, |_| build_service(&dir, STORE_CAPACITY)));
    for scene in 0..scenes.len() {
        steps.step(|| {
            rec.span("serve.cold_first_frame", root, scene as u64, |span| {
                first_frame(ctx, Target::Service(&service), scenes, scene, span);
            });
        });
    }
    rec.close(root);
    (steps.finish(), System::Service(service))
}

fn build_service(dir: &Path, capacity: usize) -> RenderService {
    let store = Arc::new(ModelStore::builder().dir(dir).capacity(capacity).build());
    RenderService::builder(profile())
        .store(store)
        .workers(SERVICE_WORKERS)
        .build()
        .expect("the tiny profile is valid")
}

/// Normalised milliseconds of `fleet_mix`'s first two set-up steps, one
/// entry per set-up that ran.
#[derive(Default)]
struct FleetSetupTimes {
    spawn_connect_ms: Vec<f64>,
    prewarm_ms: Vec<f64>,
}

/// `fleet_mix`, from nothing but a populated checkpoint directory: spawn
/// the daemons, connect, `Prewarm` every scene on its home shard (the
/// store's read path), then the first frame of every scene, as
/// `serve_mix`'s set-up ends.
fn setup_fleet(
    ctx: &Ctx,
    scenes: &[SceneHandle],
    store_dir: &Path,
    attempt: usize,
    times: &mut FleetSetupTimes,
) -> Result<(Timed, System), String> {
    let rec = &ctx.recorder;
    let dir = ctx.workdir.join(format!("fleet{attempt}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut clock = ctx.clock_1();
    let mut steps = Steps::begin(&mut clock);
    let root = rec.open("setup", None, attempt as u64);
    let (fleet, daemons) = steps.step(|| {
        rec.span("cluster.spawn_connect", root, 0, |_| {
            let daemons = Daemons::spawn(&dir, store_dir)?;
            let cfg = FleetConfig { connections_per_shard: 1, ..FleetConfig::default() };
            let fleet = RemoteFleet::connect(daemons.addrs.clone(), profile(), cfg)?;
            Ok::<_, String>((fleet, daemons))
        })
    })?;
    // from here on a failure must still stop the daemons: System owns them
    let system = System::Fleet { fleet, daemons };
    steps.step(|| {
        rec.span("cluster.prewarm", root, 0, |_| {
            let System::Fleet { daemons, .. } = &system else { unreachable!("built above") };
            let ring = HashRing::new(SHARDS);
            let shards: Vec<RemoteShard> = daemons
                .addrs
                .iter()
                .map(|a| RemoteShard::connect(a.clone(), 1).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            for scene in scenes {
                let home = ring.home(scene.name());
                if !shards[home]
                    .prewarm(scene.name(), DAEMON_PATIENCE)
                    .map_err(|e| e.to_string())?
                {
                    return Err(format!("shard {home} does not know {}", scene.name()));
                }
            }
            Ok::<_, String>(())
        })
    })?;
    times.spawn_connect_ms.push(steps.step_ms[0]);
    times.prewarm_ms.push(steps.step_ms[1]);
    steps.step(|| {
        rec.span("cluster.first_frames", root, 0, |span| {
            for scene in 0..scenes.len() {
                first_frame(ctx, system.target(), scenes, scene, span);
            }
        });
    });
    rec.close(root);
    Ok((steps.finish(), system))
}

// ---------------------------------------------------------------------
// the run
// ---------------------------------------------------------------------

/// One distinct camera of the catalogue, rendered directly.
struct Direct {
    scene: usize,
    view: usize,
    frame: usize,
    cam: Camera,
    out: RenderOutput,
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let args = &ctx.args;
    let rec = &ctx.recorder;
    let fleet_mode = args.workload == WorkloadId::FleetMix;
    let scenes: Vec<SceneHandle> = SERVE_SCENES.iter().map(|n| registry::handle(n)).collect();
    let mut problems: Vec<String> = Vec::new();

    // -- set-up (measured) ------------------------------------------------
    rec.set_on(args.trace);
    let mut fleet_times = FleetSetupTimes::default();
    let seeded_dir: PathBuf = ctx.workdir.join("ckpt-seeded");
    let (setup, system) = if fleet_mode {
        // the fleet starts from checkpoints somebody else wrote
        let seeder = ModelStore::builder().dir(&seeded_dir).capacity(scenes.len()).build();
        for scene in &scenes {
            seeder.get_or_fit(scene, &profile().grid);
        }
        run::repeat_setup(FLEET_SETUP_REPEATS, |attempt| {
            setup_fleet(ctx, &scenes, &seeded_dir, attempt, &mut fleet_times)
                .map_err(|why| format!("fleet set-up: {why}"))
        })?
    } else {
        run::repeat_setup(run::SETUP_REPEATS, |attempt| Ok(setup_service(ctx, &scenes, attempt)))?
    };
    rec.set_on(false);

    // -- references (not measured) -----------------------------------------
    // models come from the checkpoints the system itself serves from,
    // through a store of our own so the system's counters stay its own
    let ckpt_dir = match &system {
        System::Service(s) => s.store().dir().expect("built over a directory").to_path_buf(),
        System::Fleet { .. } => seeded_dir.clone(),
    };
    let side_store = ModelStore::builder().dir(&ckpt_dir).capacity(scenes.len()).build();
    let models: Vec<Arc<NgpModel>> =
        scenes.iter().map(|s| side_store.get_or_fit(s, &profile().grid)).collect();
    if side_store.stats().fits != 0 {
        problems.push("a scene the set-up served had no checkpoint on disk".into());
    }
    let direct_engine = FrameEngine::new(profile().options_for(RESOLUTION), ExecPolicy::Sequential)
        .expect("the profile's options are valid");
    let mut direct: Vec<Direct> = Vec::new();
    for scene in 0..scenes.len() {
        for view in 0..SERVE_AZIMUTHS.len() {
            for frame in 0..gen::SEQUENCE_FRAMES {
                let cam = frame_camera(&scenes[scene], view, frame);
                let out = direct_engine.render_frame(&*models[scene], &cam);
                direct.push(Direct { scene, view, frame, cam, out });
            }
        }
    }

    // every request shape once through an in-process service: the fleet's
    // images must equal these, and these must equal the direct renders
    let reference_service = fleet_mode.then(|| build_service(&ckpt_dir, scenes.len()));
    let in_process: Target<'_> = match (&reference_service, &system) {
        (Some(s), _) => Target::Service(s),
        (None, System::Service(s)) => Target::Service(s),
        (None, System::Fleet { .. }) => unreachable!("fleet mode builds a reference service"),
    };
    let shapes = gen::serve_catalogue();
    let mut catalogue: Catalogue = Vec::new();
    let mut returned_stats = RenderStats::default();
    let mut returned_frames = 0u64;
    for (i, &spec) in shapes.iter().enumerate() {
        match in_process.call(ctx, None, i as u64, orbit_request(&scenes, spec)) {
            Ok(Reply::Service(r)) => {
                returned_stats.accumulate(&r.stats);
                returned_frames += r.images.len() as u64;
                catalogue.push(r.images.clone());
            }
            Ok(Reply::Fleet(_)) => unreachable!("the in-process target is a service"),
            Err(Miss::Refused(why) | Miss::Failed(why)) => {
                return Err(format!("reference request {i} did not complete: {why}"));
            }
        }
    }
    for d in direct.iter().filter(|d| d.frame == 0) {
        for frames in [1, gen::SEQUENCE_FRAMES] {
            let spec = RequestSpec { scene: d.scene, view: d.view, frames, high_priority: false };
            if !quality::same_bytes(&catalogue[spec.shape()][0], &d.out.image) {
                problems.push(format!(
                    "service frame of {} view {} ({frames}-frame request) differs from FrameEngine::render_frame",
                    scenes[d.scene].name(),
                    d.view
                ));
            }
        }
    }
    if fleet_mode {
        let (work, _) = run_block(ctx, system.target(), &scenes, &catalogue, &shapes, 0);
        if work.failed + work.refused > 0 {
            problems.push(format!(
                "{} of {} request shapes came back from the fleet failed, refused or with other bytes than in-process",
                work.failed + work.refused,
                shapes.len()
            ));
        }
    }

    // -- window --------------------------------------------------------------
    let target = system.target();
    let mut stream = RequestStream::new(args.seed);
    let mut block_of = |i: usize, traced: bool| -> (Work, Vec<Done>) {
        let specs: Vec<RequestSpec> = stream.by_ref().take(BLOCK_REQUESTS).collect();
        rec.set_on(traced);
        let out = run_block(ctx, target, &scenes, &catalogue, &specs, (i * BLOCK_REQUESTS) as u64);
        rec.set_on(false);
        out
    };
    for i in 0..WARMUP_BLOCKS {
        block_of(i, false);
    }
    let store_before = system.store_stats();
    let pids = system.daemon_pids();
    let mut clock = ctx.clock(&pids);
    let mut per_block: Vec<Vec<Done>> = Vec::new();
    let blocks = host::run_chain(&mut clock, run::window_stop(args.seconds), |i| {
        let traced = args.trace && i % 2 == 1;
        let (work, done) = block_of(WARMUP_BLOCKS + i, traced);
        per_block.push(done);
        (work, traced)
    });
    let store_after = system.store_stats();

    // -- quality ---------------------------------------------------------------
    let distinct: Vec<DistinctFrame<'_>> = direct
        .iter()
        .map(|d| {
            let kind = if d.frame == 0 { 1 } else { gen::SEQUENCE_FRAMES };
            let spec =
                RequestSpec { scene: d.scene, view: d.view, frames: kind, high_priority: false };
            DistinctFrame {
                scene: &scenes[d.scene],
                model: &models[d.scene],
                cam: d.cam.clone(),
                direct: &d.out,
                returned: &catalogue[spec.shape()][d.frame],
            }
        })
        .collect();
    let psnr_db = quality::mean_psnr_db(&distinct);
    let chip = ChipTotals::simulate(&distinct);
    let sim_host_ms = ctx.normalised_ms(|| {
        if ChipTotals::simulate(&distinct) != chip {
            problems.push("the chip simulator gave two answers for the same frames".into());
        }
    });

    // -- layers (traced run) -----------------------------------------------------
    let mut layer_values = Vec::new();
    if args.trace {
        rec.set_on(true);
        layer_values.extend(quality::count_metrics(&returned_stats, returned_frames));
        layer_values.extend(chip.layer_metrics());
        layer_values.push(("arch.sim_host_ms_per_frame", sim_host_ms / distinct.len() as f64));
        let plain: Vec<NgpModel> = models.iter().map(|m| (**m).clone()).collect();
        layer_values.extend(layers::nerf_setup_path(ctx, &scenes, &plain, !fleet_mode));
        layer_values.extend(window_layers(&blocks, &per_block, &store_before, &store_after));
        layer_values.extend(serve_tax(ctx, in_process, &scenes, &models));
        layer_values.push(("serve.submit_us", submit_us(ctx, fleet_mode)));
        match &system {
            System::Service(service) => {
                layer_values.extend(store_layers(ctx, &scenes, &ckpt_dir));
                layer_values.extend(obs_layers(ctx, service, &scenes, &catalogue, args.seed));
                layer_values.push((
                    "core.sequence_reuse_speedup_x",
                    layers::sequence_reuse_ratio(ctx, &scenes[0], &models[0], RESOLUTION),
                ));
            }
            System::Fleet { fleet, .. } => {
                layer_values.extend(cluster_layers(
                    ctx,
                    fleet,
                    in_process,
                    &scenes,
                    &catalogue,
                    &fleet_times,
                    args.seed,
                ));
            }
        }
        rec.set_on(false);
    }

    let daemon_rss_mb = match &system {
        System::Service(_) => 0.0,
        System::Fleet { daemons, .. } => daemons.peak_rss_mb(),
    };
    drop(system);
    Ok(Measured { setup, blocks, psnr_db, chip, daemon_rss_mb, layers: layer_values, problems })
}

// ---------------------------------------------------------------------
// layer metrics
// ---------------------------------------------------------------------

/// What the window itself shows of the serve layer: queue waits as the
/// service reported them (normalised by their block), plan reuse, and the
/// store counters' movement. Predicts `latency_ms_p50/p90` and
/// `goodput_rps` on both serving workloads.
fn window_layers(
    blocks: &[Block],
    per_block: &[Vec<Done>],
    before: &StoreStats,
    after: &StoreStats,
) -> Vec<(&'static str, f64)> {
    let mut waits = Vec::new();
    let (mut frames, mut reused, mut refused, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for ((b, keep), done) in blocks.iter().zip(host::kept(blocks)).zip(per_block) {
        refused += b.work.refused;
        failed += b.work.failed;
        if !keep {
            continue;
        }
        for d in done {
            waits.push(d.queue_wait_ms / b.host_factor());
            frames += d.frames;
            reused += d.reused;
        }
    }
    let waits = stats::sorted(&waits);
    let moved = |f: fn(&StoreStats) -> u64| (f(after) - f(before)) as f64;
    let (memory, disk, fits) =
        (moved(|s| s.memory_hits), moved(|s| s.disk_hits), moved(|s| s.fits));
    vec![
        ("serve.queue_wait_ms_p50", stats::percentile_sorted(&waits, 50.0)),
        ("serve.queue_wait_ms_p90", stats::percentile_sorted(&waits, 90.0)),
        ("serve.reused_frames_share", reused as f64 / frames.max(1) as f64 * 100.0),
        ("serve.store.memory_hits", memory),
        ("serve.store.disk_hits", disk),
        ("serve.store.fits", fits),
        ("serve.store.evictions", moved(|s| s.evictions)),
        ("serve.store.disk_hit_share", disk / (memory + disk + fits).max(1.0) * 100.0),
        ("serve.refused", refused as f64),
        ("serve.failed", failed as f64),
    ]
}

/// Requests in each one-at-a-time comparison.
const TAX_REQUESTS: usize = 48;

/// `serve.tax_ms_p50`: a single-frame request through the service, one
/// outstanding, minus the same frame through `FrameEngine` directly — the
/// serving tax of a frame. Pairs run back to back and are normalised
/// together.
fn serve_tax(
    ctx: &Ctx,
    service: Target<'_>,
    scenes: &[SceneHandle],
    models: &[Arc<NgpModel>],
) -> Vec<(&'static str, f64)> {
    // the policy RenderService::builder defaults to, so both sides split
    // the frame the same way
    let engine = FrameEngine::new(
        profile().options_for(RESOLUTION),
        ExecPolicy::TileStealing { tile_size: 16 },
    )
    .expect("the profile's options are valid");
    let mut clock = ctx.clock_1();
    let mut taxes = Vec::new();
    let singles = RequestStream::new(0x0074_6178).filter(|s| s.frames == 1).take(TAX_REQUESTS);
    for (i, spec) in singles.enumerate() {
        let cam = frame_camera(&scenes[spec.scene], spec.view, 0);
        let mut pair = (0.0, 0.0);
        let (timed, ()) = host::normalised_step(&mut clock, || {
            let t0 = Instant::now();
            black_box(ctx.recorder.span("core.render_frame", None, i as u64, |_| {
                engine.render_frame(&*models[spec.scene], &cam)
            }));
            pair.0 = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let _ = service.call(ctx, None, i as u64, orbit_request(scenes, spec));
            pair.1 = t1.elapsed().as_secs_f64();
        });
        if let Some(secs) = timed.steady_seconds() {
            // secs is the normalised time of both; split it as measured
            taxes.push(secs * 1e3 * (pair.1 - pair.0) / (pair.0 + pair.1));
        }
    }
    vec![("serve.tax_ms_p50", stats::median(&taxes))]
}

/// `serve.submit_us`: median of the spans around `submit`, from the traced
/// window blocks.
fn submit_us(ctx: &Ctx, fleet_mode: bool) -> f64 {
    let name = if fleet_mode { "cluster.submit" } else { "serve.submit" };
    let spans = ctx.recorder.snapshot();
    let in_window: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == "request"))
        .map(crate::spans::Span::dur_us)
        .collect();
    stats::median(&in_window)
}

/// `serve.store.memory_hit_ns`, `serve.store.disk_hit_ms`: the store's two
/// hit paths, alone.
fn store_layers(ctx: &Ctx, scenes: &[SceneHandle], ckpt_dir: &Path) -> Vec<(&'static str, f64)> {
    let rec = &ctx.recorder;
    let grid = profile().grid;
    let disk: Vec<f64> = scenes
        .iter()
        .map(|scene| {
            let cold = ModelStore::builder().dir(ckpt_dir).build();
            ctx.normalised_ms(|| {
                rec.span("serve.store.disk_hit", None, 0, |_| cold.get_or_fit(scene, &grid))
            })
        })
        .collect();
    let warm = ModelStore::builder().dir(ckpt_dir).build();
    warm.get_or_fit(&scenes[0], &grid);
    let memory = rec.span("serve.store.memory_hit", None, 0, |_| {
        ctx.ns_per_op(5, 20_000, |_| {
            black_box(warm.get_or_fit(&scenes[0], &grid));
        })
    });
    vec![("serve.store.memory_hit_ns", memory), ("serve.store.disk_hit_ms", stats::median(&disk))]
}

/// Blocks run both ways in the on/off comparison.
const OVERHEAD_BLOCKS: usize = 24;

/// `obs.*`: the repository's own span capture on and off. Each block of
/// the stream runs twice back to back, once each way, in alternating
/// order; the overhead is the median of the paired ratios of normalised
/// block time.
fn obs_layers(
    ctx: &Ctx,
    service: &RenderService,
    scenes: &[SceneHandle],
    catalogue: &Catalogue,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    ctx.recorder.set_on(false);
    let mut stream = RequestStream::new(seed ^ 0x006F_6273);
    let mut specs: Vec<RequestSpec> = Vec::new();
    let mut requests_on = 0usize;
    asdr_obs::span::clear();
    let mut clock = ctx.clock(&[]);
    let blocks = host::run_chain(
        &mut clock,
        |_, blocks| blocks.len() >= 2 * OVERHEAD_BLOCKS,
        |i| {
            if i % 2 == 0 {
                specs = stream.by_ref().take(BLOCK_REQUESTS).collect();
            }
            // on-off, off-on, on-off, …
            let on = (i % 2 == 0) == (i / 2 % 2 == 0);
            asdr_obs::set_enabled(on);
            let (work, _) = run_block(ctx, Target::Service(service), scenes, catalogue, &specs, 0);
            asdr_obs::set_enabled(false);
            if on {
                requests_on += work.latencies_ms.len();
            }
            (work, on)
        },
    );
    ctx.recorder.set_on(true);
    let spans = asdr_obs::span::snapshot().len();
    asdr_obs::span::clear();
    let ratios: Vec<f64> = blocks
        .chunks_exact(2)
        .filter(|pair| !pair[0].unstable() && !pair[1].unstable())
        .map(|pair| {
            let (on, off) =
                if pair[0].traced { (&pair[0], &pair[1]) } else { (&pair[1], &pair[0]) };
            (on.wall_ms / on.host_factor()) / (off.wall_ms / off.host_factor())
        })
        .collect();
    vec![
        ("obs.span_overhead_pct", (stats::median(&ratios) - 1.0) * 100.0),
        ("obs.spans_per_request", spans as f64 / requests_on.max(1) as f64),
    ]
}

/// `cluster.*`: the fleet tax (same request in-process and through the
/// fleet, one outstanding, back to back), the wire codec, the ring and
/// the cost book alone, and the fleet's own counters. Predicts
/// `latency_ms_p50/p90` and `setup_s` on `fleet_mix` only.
fn cluster_layers(
    ctx: &Ctx,
    fleet: &RemoteFleet,
    in_process: Target<'_>,
    scenes: &[SceneHandle],
    catalogue: &Catalogue,
    setup: &FleetSetupTimes,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let rec = &ctx.recorder;
    let mut clock = ctx.clock_1();
    let mut taxes = Vec::new();
    for (i, spec) in RequestStream::new(seed ^ 0x0074_6178).take(TAX_REQUESTS).enumerate() {
        let mut pair = (0.0, 0.0);
        let (timed, ()) = host::normalised_step(&mut clock, || {
            let t0 = Instant::now();
            let _ = in_process.call(ctx, None, i as u64, orbit_request(scenes, spec));
            pair.0 = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let _ = Target::Fleet(fleet).call(ctx, None, i as u64, orbit_request(scenes, spec));
            pair.1 = t1.elapsed().as_secs_f64();
        });
        if let Some(secs) = timed.steady_seconds() {
            taxes.push(secs * 1e3 * (pair.1 - pair.0) / (pair.0 + pair.1));
        }
    }

    let result = Message::Result {
        id: 7,
        result: WireResult {
            scene: scenes[0].name().to_string(),
            resolution: RESOLUTION,
            reused_frames: 0,
            queue_wait_us: 1234,
            latency_us: 56_789,
            deadline_met: None,
            completed_seq: 42,
            images: catalogue[0].clone(),
            trace: asdr_obs::TraceId::UNSET,
        },
    };
    let bytes = result.encode();
    let encode_us = rec.span("cluster.wire_encode", None, 0, |_| {
        ctx.ns_per_op(5, 5000, |_| {
            black_box(black_box(&result).encode());
        })
    }) / 1e3;
    let decode_us = rec.span("cluster.wire_decode", None, 0, |_| {
        ctx.ns_per_op(5, 5000, |_| {
            black_box(Message::decode(black_box(&bytes)).expect("an encoded message decodes"));
        })
    }) / 1e3;
    let ring = HashRing::new(SHARDS);
    let route_ns = rec.span("cluster.route", None, 0, |_| {
        ctx.ns_per_op(5, 200_000, |i| {
            black_box(ring.home(black_box(scenes[i % scenes.len()].name())));
        })
    });
    let cost = CostModel::new(&profile());
    let cost_ns = rec.span("cluster.cost_predict_observe", None, 0, |_| {
        ctx.ns_per_op(5, 100_000, |i| {
            let scene = scenes[i % scenes.len()].name();
            let predicted = cost.predict(scene, RESOLUTION, 1);
            cost.observe(scene, RESOLUTION, 1, black_box(predicted) * 1.01);
        })
    });

    let stats = fleet.stats();
    let per_shard: Vec<f64> = stats.shards.iter().map(|s| s.serve.requests as f64).collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let busiest = per_shard.iter().copied().fold(0.0, f64::max);
    vec![
        ("cluster.tax_ms_p50", stats::median(&taxes)),
        ("cluster.wire_encode_us", encode_us),
        ("cluster.wire_decode_us", decode_us),
        ("cluster.wire_bytes_per_result", bytes.len() as f64),
        ("cluster.route_ns", route_ns),
        ("cluster.cost_predict_observe_ns", cost_ns),
        ("cluster.cost_mape", stats.cost.mean_abs_pct_error * 100.0),
        ("cluster.shard_imbalance", if mean > 0.0 { busiest / mean } else { 0.0 }),
        ("cluster.spawn_connect_ms", stats::median(&setup.spawn_connect_ms)),
        ("cluster.prewarm_ms", stats::median(&setup.prewarm_ms)),
        ("cluster.hedges", stats.fleet.hedges as f64),
        ("cluster.failovers", stats.fleet.failovers as f64),
        ("cluster.evictions", stats.fleet.evictions as f64),
    ]
}
