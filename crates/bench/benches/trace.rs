//! Wall-clock benchmark of the binary trace codec on a 1000-request trace:
//! what a `--record` capture and a `--trace` load spend their time in.

use asdr_serve::trace::format;
use asdr_serve::{Priority, TimedRequest};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// 1000 arrivals over 50 simulated seconds (1–99 ms apart), a skewed mix of
/// three scenes, one resolution and one deadline.
fn fixture() -> Vec<TimedRequest> {
    const SCENES: [&str; 6] = ["Mic", "Lego", "Mic", "Pulse", "Mic", "Lego"];
    (0..1000u64)
        .map(|i| TimedRequest {
            at_ms: i * 50 + i * 37 % 50,
            scene: SCENES[(i * 7 % 6) as usize].to_string(),
            frames: 1,
            resolution: Some(32),
            priority: Priority::Normal,
            deadline_ms: Some(300),
            azimuth_step_deg: None,
            origin: 0,
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let entries = fixture();
    let bytes = format::encode(&entries);
    let mut g = c.benchmark_group("trace_codec_1k");
    g.bench_function("encode", |b| b.iter(|| black_box(format::encode(&entries))));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(format::decode(&bytes).expect("round-trip decodes")))
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
