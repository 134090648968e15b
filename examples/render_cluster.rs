//! Sharded serving demo: a [`Fleet`] of three in-process shards, each
//! with a fixed two-worker pool and a bounded queue.
//!
//! ```text
//! cargo run --release --example render_cluster
//! ```
//!
//! Submits two waves of deadlined traffic across three scenes, shows
//! which home shard the consistent-hash ring gave each scene, then prints
//! the cluster statistics: per-shard throughput, the cost model's
//! predicted-vs-actual error, and the fleet's deadline-miss rate.

use asdr::cluster::{Fleet, FleetConfig, LocalShards};
use asdr::scenes::registry;
use asdr::serve::{RenderProfile, RenderRequest};
use std::time::Duration;

const RESOLUTION: u32 = 32;
const SCENES: [&str; 3] = ["Mic", "Lego", "Pulse"];

fn main() {
    let profile = RenderProfile::tiny();
    let shards = LocalShards { shards: 3, workers: 2, ..LocalShards::new(profile.clone()) }
        .build()
        .expect("valid render profile");
    let cluster = Fleet::new(shards, &profile, FleetConfig::default()).expect("at least one shard");
    for name in SCENES {
        println!("{name:>6} -> home shard {}", cluster.ring().home(name));
    }

    for wave in 0..2 {
        println!("\n== wave {wave} ==");
        let tickets: Vec<_> = SCENES
            .iter()
            .flat_map(|name| {
                let scene = registry::handle(name);
                [
                    RenderRequest::frame(scene.clone(), RESOLUTION)
                        .with_deadline(Duration::from_secs(3)),
                    RenderRequest::sequence(scene, RESOLUTION, 2),
                ]
            })
            .map(|req| cluster.submit(req).expect("the shards' queues have room"))
            .collect();
        for t in &tickets {
            let r = t.wait().expect("request completed");
            println!(
                "shard {} {:>6}: {} frame(s) in {:>6.1} ms{}",
                t.shard(),
                r.scene,
                r.images.len(),
                r.latency_us as f64 / 1e3,
                match r.deadline_met {
                    Some(false) => "  MISSED",
                    _ => "",
                },
            );
        }
    }

    let stats = cluster.shutdown();
    println!(
        "\n{} requests, {} frames, {} fits ({} home-routed, {} spilled, {} replications)",
        stats.requests(),
        stats.frames(),
        stats.total_fits(),
        stats.routed_home,
        stats.spilled,
        stats.fleet.replications,
    );
    println!(
        "cost model: {:.0}% mean abs prediction error over {} observations",
        stats.cost.mean_abs_pct_error * 100.0,
        stats.cost.observations,
    );
    for s in &stats.shards {
        println!(
            "shard {}: {} workers, {} requests, p50 {:.1} ms",
            s.shard, s.workers, s.serve.requests, s.serve.p50_latency_ms,
        );
    }
    println!(
        "deadlines: {}/{} missed ({:.0}%)",
        stats.deadline_misses(),
        stats.deadlined_requests(),
        stats.miss_rate() * 100.0,
    );
}
