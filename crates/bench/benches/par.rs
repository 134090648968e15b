//! Wall-clock cost of one fan-out onto a parked helper: what every
//! multi-worker phase of a frame pays before any work is done. A return to
//! spawning a thread per call costs several times this row (DESIGN.md §2).

use asdr_math::par::fan_out;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_par(c: &mut Criterion) {
    c.bench_function("fan_out_2_noop", |b| b.iter(|| fan_out(2, || black_box(0u8))));
}

criterion_group!(benches, bench_par);
criterion_main!(benches);
