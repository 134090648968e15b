//! Sharded serving demo: a [`Fleet`] of three in-process shards with
//! cost-based admission and the autoscaling control loop.
//!
//! ```text
//! cargo run --release --example render_cluster
//! ```
//!
//! Submits two waves of deadlined traffic across three scenes, shows
//! which home shard the consistent-hash ring gave each scene, then prints
//! the cluster statistics: per-shard throughput, the cost model's
//! predicted-vs-actual error, and any scaling events the control loop
//! recorded.

use asdr::cluster::{AutoscalerConfig, Fleet, FleetConfig, LocalShards};
use asdr::scenes::registry;
use asdr::serve::{ModelStore, RenderProfile, RenderRequest};
use std::time::Duration;

const RESOLUTION: u32 = 32;
const SCENES: [&str; 3] = ["Mic", "Lego", "Pulse"];

fn main() {
    let profile = RenderProfile::tiny();
    let shards = LocalShards {
        shards: 3,
        store: ModelStore::builder().in_memory_only(),
        ..LocalShards::new(profile.clone())
    }
    .build()
    .expect("valid render profile");
    let autoscale = AutoscalerConfig {
        workers_min: 1,
        workers_max: 3,
        interval: Duration::from_millis(100),
        ..AutoscalerConfig::default()
    };
    let cfg = FleetConfig { autoscale: Some(autoscale), ..FleetConfig::default() };
    let cluster = Fleet::new(shards, &profile, cfg).expect("valid cluster configuration");
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
            .map(|req| cluster.submit(req).expect("budget open"))
            .collect();
        for t in &tickets {
            let r = t.wait().expect("request completed");
            println!(
                "shard {} {:>6}: {} frame(s) in {:>6.1} ms (predicted {:>6.1} ms){}",
                t.shard(),
                r.scene,
                r.images.len(),
                r.latency_us as f64 / 1e3,
                t.predicted_ms(),
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
    for e in &stats.scale_events {
        println!(
            "scale event t+{} ms: shard {} {} -> {} workers (miss rate {:.0}%)",
            e.at_ms,
            e.shard,
            e.from,
            e.to,
            e.miss_rate * 100.0
        );
    }
}
