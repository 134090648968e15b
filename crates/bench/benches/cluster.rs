//! Wall-clock benchmarks of the cluster layer's kernels: routing-decision
//! cost (the pure overhead the router adds to every submit), cost-model
//! bookkeeping, and the wire codec (the per-message tax every remote hop
//! pays). The fleet end to end is `fleet_mix` in `benchmark/`.

use asdr_cluster::fleet::{spill_order, ShardLoad};
use asdr_cluster::wire::{Message, WireRequest, WireResult};
use asdr_cluster::{CostModel, HashRing};
use asdr_math::image::Image;
use asdr_nerf::grid::GridConfig;
use asdr_serve::{Priority, RenderProfile};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn warm_profile() -> RenderProfile {
    RenderProfile { grid: GridConfig::tiny(), base_ns: 48, default_resolution: 24 }
}

fn bench_routing(c: &mut Criterion) {
    let ring = HashRing::new(4);
    let names = ["Mic", "Lego", "Pulse", "Palace", "Fountain", "Family"];
    let mut g = c.benchmark_group("cluster_route");
    g.bench_function("home_shard", |b| {
        b.iter(|| {
            for n in &names {
                black_box(ring.home(n));
            }
        })
    });
    // the try-order runs on every submit: a busy home (shard 3) beside
    // seven others, two of them idle and one of those warm
    let loads: Vec<ShardLoad> = (0..8)
        .map(|id| ShardLoad {
            id,
            in_flight: [2, 0, 1, 3, 1, 0, 4, 1][id],
            outstanding_ms: [31.0, 0.0, 12.5, 48.0, 9.0, 0.0, 60.0, 14.0][id],
            warm: id != 1,
        })
        .collect();
    g.bench_function("spill_order_8shards", |b| {
        b.iter(|| black_box(spill_order(3, black_box(&loads)).sum::<usize>()))
    });
    g.finish();

    let cost = CostModel::new(&warm_profile());
    cost.observe("Mic", 24, 1, 55.0);
    let mut g = c.benchmark_group("cluster_cost");
    g.bench_function("predict_observe", |b| {
        b.iter(|| {
            black_box(cost.predict("Mic", 24, 2));
            cost.observe("Mic", 24, 1, 55.0);
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let submit = Message::Submit {
        id: 7,
        req: WireRequest {
            // unset keeps the encoded bytes identical to the pre-trace
            // protocol, so the baseline entry stays comparable
            trace: asdr_obs::TraceId::UNSET,
            scene: "Mic".into(),
            resolution: 64,
            frames: 2,
            azimuth_step_deg: 1.5,
            priority: Priority::High,
            deadline_us: Some(250_000),
            camera: None,
        },
    };
    let mut img = Image::new(32, 32);
    for (i, px) in img.pixels_mut().iter_mut().enumerate() {
        px.r = i as f32 * 0.25;
        px.g = i as f32 * 0.5;
        px.b = i as f32;
    }
    let result = Message::Result {
        id: 7,
        result: WireResult {
            trace: asdr_obs::TraceId::UNSET,
            scene: "Mic".into(),
            resolution: 32,
            reused_frames: 1,
            queue_wait_us: 1_200,
            latency_us: 48_000,
            deadline_met: Some(true),
            completed_seq: 9,
            images: vec![img; 2],
        },
    };
    let result_bytes = result.encode();

    let mut g = c.benchmark_group("cluster_wire");
    g.bench_function("submit_roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(&submit).encode();
            black_box(Message::decode(&bytes).expect("own encoding decodes"));
        })
    });
    g.bench_function("result_32x32x2_decode", |b| {
        b.iter(|| black_box(Message::decode(black_box(&result_bytes)).expect("frames decode")))
    });
    g.finish();
}

criterion_group!(benches, bench_routing, bench_wire);
criterion_main!(benches);
