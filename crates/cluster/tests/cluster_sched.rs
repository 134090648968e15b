//! Cluster scheduling contracts: admission through the shards' own queue
//! bounds (home → spill → reject), the retry classes a fleet reads off the
//! service's own error, the in-flight count's release on completion, and
//! the fleet-wide deadline-miss rate over the requests that carried a
//! deadline.
//!
//! The shards here warm from a directory pre-populated with cheap blank
//! models, so no test pays for a real fit; admission tests run against
//! **paused** shards so routing decisions cannot race completions.

use asdr_cluster::{Fleet, FleetConfig, LocalShards, Shard};
use asdr_math::{Aabb, Vec3};
use asdr_nerf::embedding::EmbeddingSet;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::mlp::{Activation, Dense, Mlp};
use asdr_nerf::model::{COLOR_IN_DIM, DENSITY_OUT_DIM, HIDDEN_DIM};
use asdr_nerf::occupancy::OccupancyGrid;
use asdr_nerf::{HashEncoder, NgpModel};
use asdr_scenes::registry;
use asdr_serve::{ModelStore, RenderProfile, RenderRequest, ServeError};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn test_grid() -> GridConfig {
    GridConfig { levels: 2, base_res: 4, max_res: 8, table_size: 1 << 8, feat_dim: 2 }
}

fn test_profile() -> RenderProfile {
    RenderProfile { grid: test_grid(), base_ns: 16, default_resolution: 16 }
}

/// A cheap structurally-valid model (the scheduler does not care what the
/// model predicts).
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

/// A checkpoint directory where every named scene is already fitted, so
/// every shard warms from disk instead of fitting.
fn warm_dir(name: &str, scenes: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_cluster_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::builder().dir(&dir).build();
    let grid = test_grid();
    for scene in scenes {
        store.get_or_fit_with(&registry::handle(scene), &grid, || blank_model(&grid));
    }
    dir
}

#[test]
fn admission_goes_home_then_spills_then_rejects() {
    let dir = warm_dir("admission", &["Mic"]);
    // paused, one queue slot each: a shard holds exactly one request, and
    // no completion can race the routing decisions below
    let shards = LocalShards {
        store: ModelStore::builder().dir(&dir),
        queue_capacity: 1,
        paused: true,
        ..LocalShards::new(test_profile())
    };
    let shards = shards.build().unwrap();
    let cluster = Fleet::new(shards.clone(), &test_profile(), FleetConfig::default()).unwrap();
    let mic = registry::handle("Mic");
    let home = cluster.ring().home("Mic");

    // a deadline no render can meet: the miss rate below is known by construction
    let hopeless = RenderRequest::frame(mic.clone(), 16).with_deadline(Duration::from_micros(1));
    let first = cluster.submit(hopeless).unwrap();
    assert_eq!(first.shard(), home, "an idle home shard takes its own scene");

    let second = cluster.submit(RenderRequest::frame(mic.clone(), 16)).unwrap();
    assert_ne!(second.shard(), home, "a full home shard spills to the other");

    let third = cluster.submit(RenderRequest::frame(mic.clone(), 16));
    let full = ServeError::QueueFull { capacity: 2 };
    assert_eq!(third.err(), Some(full), "every shard's queue is full");

    let staged = cluster.stats();
    assert_eq!((staged.routed_home, staged.spilled, staged.rejected), (1, 1, 1));
    assert_eq!((staged.shards[home].in_flight, staged.shards[1 - home].in_flight), (1, 1));
    assert_eq!(staged.shards[1 - home].spilled_in, 1);

    shards.iter().for_each(|s| s.start());
    assert_eq!(first.wait().unwrap().deadline_met, Some(false));
    assert_eq!(second.wait().unwrap().deadline_met, None);
    let stats = cluster.shutdown();
    assert_eq!(stats.requests(), 2);
    assert_eq!((stats.deadlined_requests(), stats.deadline_misses()), (1, 1));
    assert_eq!(stats.miss_rate(), 1.0, "only the deadlined request counts, and it missed");
    for s in &stats.shards {
        assert_eq!(s.in_flight, 0, "completions must release their in-flight slots");
    }
    assert_eq!(stats.total_fits(), 0, "everything warmed from the shared checkpoint dir");
    assert_eq!(stats.cost.observations, 2, "completions feed the cost model");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A draining shard is passed over like a full one, and a fleet of them
/// is full rather than failed; an invalid request is final on every
/// shard, and nobody is evicted for either.
#[test]
fn a_draining_home_is_passed_over_and_an_invalid_request_is_final() {
    let dir = warm_dir("draining", &["Mic"]);
    let shards =
        LocalShards { store: ModelStore::builder().dir(&dir), ..LocalShards::new(test_profile()) };
    let shards = shards.build().unwrap();
    let cluster = Fleet::new(shards.clone(), &test_profile(), FleetConfig::default()).unwrap();
    let mic = registry::handle("Mic");
    let Err(e) = cluster.submit(RenderRequest::frame(mic.clone(), 0)) else {
        panic!("a resolution-0 request was admitted");
    };
    assert!(e.to_string().contains("resolution"), "{e}");
    let home = cluster.ring().home("Mic");
    shards[home].drain(Duration::from_secs(5));
    let ticket = cluster.submit(RenderRequest::frame(mic.clone(), 16)).unwrap();
    assert_eq!(ticket.shard(), 1 - home, "the draining home kept the request");
    ticket.wait().unwrap();
    // every shard draining: the fleet is full for now, not failed
    shards[1 - home].drain(Duration::from_secs(5));
    let refused = cluster.submit(RenderRequest::frame(mic, 16)).err();
    assert!(matches!(refused, Some(ServeError::QueueFull { .. })), "{refused:?}");
    assert_eq!((cluster.stats().fleet.evictions, cluster.live_shards().len()), (0, 2));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_requests_release_their_in_flight_slot() {
    use asdr_scenes::registry::SceneDef;
    if registry::get("cluster-panics").is_none() {
        registry::register(SceneDef::new("cluster-panics", || panic!("builder exploded"))).unwrap();
    }
    let shards = LocalShards::new(test_profile()).build().unwrap();
    let cluster = Fleet::new(shards, &test_profile(), FleetConfig::default()).unwrap();
    let doomed =
        cluster.submit(RenderRequest::frame(registry::handle("cluster-panics"), 16)).unwrap();
    assert!(doomed.wait().is_err(), "the panicking fit fails the ticket");
    // the slot must not leak, or the shard reads busy for good and its
    // scene spills away from it
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = cluster.stats();
        if stats.shards.iter().all(|s| s.in_flight == 0) {
            break;
        }
        assert!(Instant::now() < deadline, "in-flight slot leaked: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}
