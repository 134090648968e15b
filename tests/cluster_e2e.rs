//! Cluster acceptance: the same mixed workload through (a) one
//! `RenderService` and (b) a `Fleet` of 3 `LocalShard`s produces
//! **byte-identical images** — sharding is a pure scale-out decision, never
//! a quality one.
//! The two runs share one checkpoint directory, so the test also pins the
//! multi-store topology: the single service fits each scene once (cold),
//! and every cluster shard warms from those checkpoints (zero fits).
//! The workload goes out all at once, so requests overlap at their home
//! shards: the fleet makes replicas on the idle ones and spills to them,
//! and the frames must not care.

use asdr::cluster::{Fleet, FleetConfig, FleetStats, LocalShards};
use asdr::math::Image;
use asdr::scenes::registry;
use asdr::serve::{ModelStore, Priority, RenderProfile, RenderRequest, RenderService};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCENES: [&str; 3] = ["Mic", "Lego", "Pulse"];
const RESOLUTION: u32 = 24;

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_cluster_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The canonical workload: per scene, a prioritized frame and a short
/// orbit sequence (plan reuse inside a request must not depend on where
/// the request lands).
fn workload() -> Vec<RenderRequest> {
    SCENES
        .iter()
        .flat_map(|name| {
            let scene = registry::handle(name);
            [
                RenderRequest::frame(scene.clone(), RESOLUTION).with_priority(Priority::High),
                RenderRequest::sequence(scene, RESOLUTION, 2),
            ]
        })
        .collect()
}

#[test]
fn a_sharded_cluster_renders_byte_identical_to_one_service() {
    let dir = fresh_dir();

    // (a) the reference: one service, cold store
    let service = RenderService::builder(RenderProfile::tiny())
        .store(Arc::new(ModelStore::builder().dir(&dir).build()))
        .workers(2)
        .build()
        .unwrap();
    let tickets: Vec<_> = workload().into_iter().map(|r| service.submit(r).unwrap()).collect();
    let reference: Vec<Vec<Image>> =
        tickets.iter().map(|t| t.wait().expect("request completed").images.clone()).collect();
    let single = service.shutdown();
    assert_eq!(single.store.fits, 3, "the cold reference run fits each scene once");

    // (b) the same workload over 3 shards sharing that checkpoint dir
    let shards = LocalShards {
        shards: 3,
        store: ModelStore::builder().dir(&dir),
        ..LocalShards::new(RenderProfile::tiny())
    };
    let cfg = FleetConfig::default();
    let cluster = Fleet::new(shards.build().unwrap(), &shards.profile, cfg).unwrap();
    // round after round until an overlap has met a finished replica (the
    // first round only makes them: a cold fleet keeps every scene at home)
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut rounds = 0;
    while cluster.stats().spilled == 0 && Instant::now() < deadline {
        let tickets: Vec<_> = workload().into_iter().map(|r| cluster.submit(r).unwrap()).collect();
        let shards_used: Vec<usize> = tickets.iter().map(|t| t.shard()).collect();
        let sharded: Vec<Vec<Image>> =
            tickets.iter().map(|t| t.wait().expect("request completed").images).collect();
        assert_eq!(sharded, reference, "sharding changed pixels (shards used: {shards_used:?})");
        if rounds == 0 {
            for pair in shards_used.chunks(2) {
                assert_eq!(pair[0], pair[1], "no replica yet, one home shard: {shards_used:?}");
            }
        }
        rounds += 1;
    }
    let stats = cluster.shutdown();

    assert!(stats.spilled > 0, "no overlap ever found its replica: {stats:?}");
    assert_eq!(stats.requests(), 6 * rounds);
    assert_eq!(stats.total_fits(), 0, "every shard warms from the reference run's checkpoints");
    let loads = stats.total_disk_hits();
    assert!((3..=9).contains(&loads), "{loads} loads: a (scene, shard) pair loads at most once");
    assert_eq!(stats.rejected, 0);
    // nothing was lost here, but the fleet counters must still
    // appear (zeroed) in the JSON artifact — scripts/fleet_smoke.sh
    // extracts evictions from exactly this shape
    let replications = stats.fleet.replications;
    assert!(replications > 0, "a spill without a replica");
    assert_eq!(stats.fleet, FleetStats { replications, ..FleetStats::default() });
    let json = stats.to_json();
    assert!(
        json.contains("\"fleet\": {\"shards_lost\": 0, \"evictions\": 0")
            && json.contains(&format!("\"rewarms\": 0, \"replications\": {replications}}}")),
        "local cluster stats must carry the fleet block, zeroed but for the replicas: {json}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
