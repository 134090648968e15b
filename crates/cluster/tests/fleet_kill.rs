//! The fleet's survival contract, end to end: kill −9 one `asdr-shardd`
//! process mid-workload and the run must still complete, every frame must
//! be byte-identical to a single-process render of the same requests, and
//! the failure must be visible in `ClusterStats` (an eviction, and a
//! failover for every request the dead shard was holding).
//!
//! The run is also the observability contract's proving ground: every
//! process writes an [`asdr_obs`] run bundle, and the merged report must
//! join at least one completed request's spans across two shardd
//! processes (the failover made visible by wire trace-id propagation —
//! the victim's write-through `spans.jsonl` survives the SIGKILL) and
//! attribute every deadline miss to a dominant phase.
//!
//! The shards warm from a directory pre-populated with cheap blank models
//! (the `cluster_sched.rs` idiom), so no process pays for a real fit —
//! the test exercises the fleet machinery, not the renderer.

use asdr_cluster::{Fleet, FleetConfig, LocalShards, ShardAddr};
use asdr_math::{Aabb, Image, Vec3};
use asdr_nerf::embedding::EmbeddingSet;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::mlp::{Activation, Dense, Mlp};
use asdr_nerf::model::{COLOR_IN_DIM, DENSITY_OUT_DIM, HIDDEN_DIM};
use asdr_nerf::occupancy::OccupancyGrid;
use asdr_nerf::{HashEncoder, NgpModel};
use asdr_scenes::registry;
use asdr_serve::{ModelStore, RenderProfile, RenderRequest};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SCENES: [&str; 3] = ["Mic", "Lego", "Pulse"];
/// Sixteen requests a scene, and a scene has one home shard: whichever
/// shard holds the most holds at least sixteen (thirty-two on today's ring,
/// which homes two scenes together). Its worker answers three to seven of
/// them before the client has seen the first reply and counted, so the
/// kill always finds more than [`MIN_HELD`] unanswered.
const REQUESTS: usize = 48;
const RESOLUTION: u32 = 32;
/// Unanswered requests the victim must hold at the kill.
const MIN_HELD: usize = 10;

fn blank_model(grid: &GridConfig) -> NgpModel {
    let encoder = HashEncoder::new(grid.clone(), EmbeddingSet::new(grid));
    let density = Mlp::new(vec![
        Dense::zeros(grid.encoded_dim(), HIDDEN_DIM, Activation::Relu),
        Dense::zeros(HIDDEN_DIM, DENSITY_OUT_DIM, Activation::None),
    ]);
    let color = Mlp::new(vec![
        Dense::zeros(COLOR_IN_DIM, HIDDEN_DIM, Activation::Relu),
        Dense::zeros(HIDDEN_DIM, 3, Activation::None),
    ]);
    let bounds = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0));
    let occ = OccupancyGrid::from_cells(4, bounds, vec![true; 64]).expect("valid cells");
    NgpModel::new(encoder, density, color, bounds, occ)
}

/// A checkpoint directory where every scene is already fitted at the
/// `tiny` profile's grid, so shardds and the reference service all warm
/// from disk.
fn warm_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_fleet_kill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::builder().dir(&dir).build();
    let grid = RenderProfile::tiny().grid;
    for scene in SCENES {
        store.get_or_fit_with(&registry::handle(scene), &grid, || blank_model(&grid));
    }
    dir
}

fn requests() -> Vec<RenderRequest> {
    (0..REQUESTS)
        .map(|i| {
            let req = RenderRequest::frame(registry::handle(SCENES[i % SCENES.len()]), RESOLUTION);
            if i % 3 == 0 {
                // an unmeetable deadline: the render still completes (and
                // must stay byte-identical), but the miss has to show up
                // attributed in the merged bundle report
                req.with_deadline(Duration::from_micros(1))
            } else {
                req
            }
        })
        .collect()
}

fn image_bits(images: &[Image]) -> Vec<u32> {
    images
        .iter()
        .flat_map(|img| img.pixels().iter().flat_map(|px| [px.r, px.g, px.b]))
        .map(f32::to_bits)
        .collect()
}

// The test waits on every child: the victim right after the kill, the
// survivors after their drain.
#[allow(clippy::zombie_processes)]
fn spawn_shardd(id: usize, sock: &Path, store: &Path, bundles: &Path) -> (Child, ShardAddr) {
    let child = Command::new(env!("CARGO_BIN_EXE_asdr-shardd"))
        .args([
            "--listen",
            &format!("unix:{}", sock.display()),
            "--scale",
            "tiny",
            "--workers",
            "1",
            "--queue",
            &REQUESTS.to_string(), // one shard can be home to every scene
            "--shard-id",
            &id.to_string(),
            "--store-dir",
            &store.display().to_string(),
            "--bundle",
            &bundles.join(format!("shard{id}")).display().to_string(),
        ])
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn asdr-shardd");
    let addr = ShardAddr::parse(&format!("unix:{}", sock.display())).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if std::os::unix::net::UnixStream::connect(sock).is_ok() {
            return (child, addr);
        }
        assert!(Instant::now() < deadline, "shard {id} never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn killing_a_shard_mid_workload_loses_no_requests_and_no_bytes() {
    let dir = warm_dir();

    // Reference: the same requests through one in-process shard.
    let reference: Vec<Vec<u32>> = {
        let shard = LocalShards {
            shards: 1,
            store: ModelStore::builder().dir(&dir),
            ..LocalShards::new(RenderProfile::tiny())
        };
        let single =
            Fleet::new(shard.build().unwrap(), &shard.profile, FleetConfig::default()).unwrap();
        let frames = requests()
            .into_iter()
            .map(|req| {
                let r = single.submit(req).unwrap().wait().expect("reference render");
                image_bits(&r.images)
            })
            .collect();
        single.shutdown();
        frames
    };

    // The fleet: three shardd processes on unix sockets over the same
    // warm checkpoint directory, every process writing a run bundle. The
    // client bundle is created after the reference run so the reference
    // stays un-instrumented.
    let bundles = dir.join("bundles");
    let client_bundle = asdr_obs::Bundle::create(&bundles.join("client"), "client", &[])
        .expect("create client bundle");
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for id in 0..3 {
        let (child, addr) = spawn_shardd(id, &dir.join(format!("shard{id}.sock")), &dir, &bundles);
        children.push(child);
        addrs.push(addr);
    }
    let cfg = FleetConfig {
        health_interval: Duration::from_millis(100),
        health_timeout: Duration::from_millis(500),
        health_misses: 2,
        ..FleetConfig::default()
    };
    let fleet = Fleet::connect(addrs, RenderProfile::tiny(), cfg).unwrap();

    let tickets: Vec<_> =
        requests().into_iter().map(|req| fleet.submit(req).expect("fleet admits")).collect();

    // SIGKILL the shard holding the most queued work — no drain, no
    // goodbye — on a condition, not a clock: when its first reply has
    // arrived. Every request was acknowledged at submit, so the victim has
    // admitted (and recorded spans for) all it holds, and its single worker
    // is mid-workload with the rest still queued.
    let mut per_shard = [0usize; 3];
    for t in &tickets {
        per_shard[t.shard()] += 1;
    }
    let victim = (0..3).max_by_key(|&s| per_shard[s]).unwrap();
    let first = tickets.iter().position(|t| t.shard() == victim).unwrap();
    tickets[first].wait().expect("the victim's first reply");
    let answered = fleet.stats().shards[victim].serve.requests as usize;
    let held = per_shard[victim].saturating_sub(answered);
    assert!(
        held >= MIN_HELD,
        "the victim holds {held} unanswered requests of {per_shard:?} after {answered} replies: \
         too few to fail over, raise REQUESTS or RESOLUTION"
    );
    children[victim].kill().expect("SIGKILL the victim shard");
    children[victim].wait().expect("reap the victim");

    // Every request still completes, and every frame is byte-identical
    // to the single-process reference.
    for (i, ticket) in tickets.iter().enumerate() {
        let result = ticket.wait().unwrap_or_else(|e| panic!("request {i} lost: {e}"));
        assert!(!result.images.is_empty(), "request {i} returned no frames");
        assert_eq!(
            image_bits(&result.images),
            reference[i],
            "request {i} ({}) came back with different bytes after the kill",
            result.scene
        );
    }

    // The failure is visible: the victim left the ring and its pending
    // requests were re-run elsewhere.
    let deadline = Instant::now() + Duration::from_secs(10);
    while fleet.live_shards().len() == 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(fleet.live_shards().len(), 2, "the killed shard never left the ring");
    let stats = fleet.shutdown();
    assert!(stats.fleet.evictions >= 1, "eviction not counted: {:?}", stats.fleet);
    assert!(stats.fleet.failovers >= 1, "failover not counted: {:?}", stats.fleet);
    assert!(stats.to_json().contains("\"evictions\""), "stats JSON hides the failure");

    // The survivors drain cleanly after shutdown's Drain.
    for (id, mut child) in children.into_iter().enumerate() {
        if id == victim {
            continue;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait().expect("poll shardd") {
                Some(status) => {
                    assert!(status.success(), "shard {id} exited with {status}");
                    break;
                }
                None if Instant::now() >= deadline => {
                    child.kill().ok();
                    child.wait().ok();
                    panic!("shard {id} ignored the drain");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    // The merged bundle report: the failover must be visible as a
    // completed request whose spans joined across two shardd processes,
    // and every deadline miss must carry a dominant-phase attribution.
    client_bundle.finish(None);
    let (spans, skipped) = asdr_obs::report::load_bundles(&bundles).expect("load bundles");
    let report = asdr_obs::report::analyze(&spans, skipped);
    assert!(
        report.processes.iter().filter(|p| p.starts_with("shardd-")).count() >= 2,
        "spans from fewer than two shardd processes: {:?}",
        report.processes
    );
    let cross_shard = report.joins.iter().any(|j| {
        j.completed && j.processes.iter().filter(|p| p.starts_with("shardd-")).count() >= 2
    });
    assert!(
        cross_shard,
        "no completed request joined spans across two shardd processes: {:?}",
        report.joins
    );
    assert!(!report.misses.is_empty(), "the unmeetable deadlines produced no recorded misses");
    for m in &report.misses {
        assert_ne!(m.dominant_phase, "unattributed", "miss {:016x} has no dominant phase", m.trace);
        assert!(m.total_us > 0, "miss {:016x} measured no phase time", m.trace);
        assert!(m.share() > 0.0, "miss {:016x} has a zero dominant share", m.trace);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
