//! Wall-clock benchmark of full-frame rendering: fixed Instant-NGP sampling
//! vs the ASDR pipeline (adaptive + decoupled). The ASDR frame should be
//! measurably faster in pure software too (this is the Fig. 24 effect, here
//! measured rather than modelled).

use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions};
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_scenes::registry;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_endtoend(c: &mut Criterion) {
    let model = fit_ngp(registry::handle("Lego").build().as_ref(), &GridConfig::tiny());
    let cam = registry::handle("Lego").camera(32, 32);

    let mut g = c.benchmark_group("frame_32x32");
    g.sample_size(10);
    let engine = |opts| FrameEngine::new(opts, ExecPolicy::default()).expect("valid options");
    let fixed = engine(RenderOptions::instant_ngp(48));
    g.bench_function("instant_ngp_fixed48", |b| {
        b.iter(|| black_box(fixed.render_frame(&model, &cam)))
    });
    let asdr = engine(RenderOptions::asdr_default(48));
    g.bench_function("asdr_adaptive_plus_decoupled", |b| {
        b.iter(|| black_box(asdr.render_frame(&model, &cam)))
    });
    g.finish();
}

criterion_group!(benches, bench_endtoend);
criterion_main!(benches);
