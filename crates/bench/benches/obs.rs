//! Wall-clock benchmark of what observability costs a request that nobody
//! is observing: a `span!` site with capture off (one relaxed load, its
//! arguments never evaluated) and a counter's `inc`. The
//! cost with capture *on* is `obs.span_overhead_pct` in `benchmark/`.

use asdr_obs::{Counter, TraceId};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;

fn evaluated() -> String {
    panic!("a disabled span! evaluated its detail")
}

fn bench_obs(c: &mut Criterion) {
    let (trace, t0) = (TraceId::fresh(), Instant::now());
    c.bench_function("obs_span_disabled", |b| {
        b.iter(|| asdr_obs::span!(black_box(trace), "bench", t0, t0, evaluated()))
    });
    assert!(asdr_obs::span::snapshot().is_empty(), "a disabled span! recorded something");

    let counter = Counter::default();
    c.bench_function("obs_counter_inc", |b| b.iter(|| black_box(&counter).inc()));
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
