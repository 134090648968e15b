//! Wall-clock benchmark of the one cluster kernel the acceptance benchmark
//! does not time: the fleet's try-order, which runs on every submit. Ring
//! lookup, cost-model bookkeeping and the wire codec are `cluster.route_ns`,
//! `cluster.cost_predict_observe_ns` and `cluster.wire_*_us` in
//! `benchmark/`; the fleet end to end is its `fleet_mix`.

use asdr_cluster::fleet::{spill_order, ShardLoad};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_routing(c: &mut Criterion) {
    // a busy home (shard 3) beside seven others, two of them idle and one
    // of those warm
    let loads: Vec<ShardLoad> = (0..8)
        .map(|id| ShardLoad { id, in_flight: [2, 0, 1, 3, 1, 0, 4, 1][id], warm: id != 1 })
        .collect();
    let mut g = c.benchmark_group("cluster_route");
    g.bench_function("spill_order_8shards", |b| {
        b.iter(|| black_box(spill_order(3, black_box(&loads)).sum::<usize>()))
    });
    g.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
