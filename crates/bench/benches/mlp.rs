//! Wall-clock benchmark of the density/color queries and MLP forward passes.

use asdr_math::Vec3;
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::kernel::Kernel;
use asdr_nerf::mlp::IntMlp;
use asdr_scenes::registry;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_mlp(c: &mut Criterion) {
    let model = fit_ngp(registry::handle("Mic").build().as_ref(), &GridConfig::tiny());
    let mut scratch = model.make_scratch();
    let p = Vec3::new(0.0, 0.45, 0.0);
    let dir = Vec3::new(0.3, -0.5, 0.8).normalized();

    c.bench_function("density_query", |b| {
        b.iter(|| black_box(model.query_density_into(black_box(p), &mut scratch)))
    });

    // one direction throughout, as along a ray: every color query after the
    // first resumes from the cached SH sums
    c.bench_function("density_plus_color_query", |b| {
        b.iter(|| black_box(model.query_point(black_box(p), black_box(dir), &mut scratch)))
    });

    // the once-per-ray miss: the direction changes on every query, so each
    // recomputes the SH coefficients and their share of the first layer
    let dirs = [dir, Vec3::new(-0.6, 0.1, 0.2).normalized()];
    c.bench_function("color_query_new_direction", |b| {
        let mut i = 0;
        b.iter(|| {
            i ^= 1;
            black_box(model.query_color_into(black_box(dirs[i]), &mut scratch))
        })
    });

    // the integer MLPs the queries run, on the dispatched instantiation
    // (`_raw`: VNNI on a host that has it) and on the narrower ones by name,
    // so a run on a VNNI host still fails when the AVX2 or the portable body
    // slows down — and, set beside `_raw`, shows whether each still runs
    // its own body: rows that read the same say one no longer does
    let int = model.int_mlps();
    for (kernel, density, color) in [
        (Kernel::Avx512Vnni, "density_mlp_forward_raw", "color_mlp_forward_raw"),
        (Kernel::Avx2, "density_mlp_forward_avx2", "color_mlp_forward_avx2"),
        (Kernel::Portable, "density_mlp_forward_portable", "color_mlp_forward_portable"),
    ] {
        bench_on(c, density, &int.density, kernel);
        bench_on(c, color, &int.color, kernel);
    }
}

/// `mlp`'s forward pass over input bytes a little above zero, every layer
/// on `kernel` (or the widest the CPU has below it).
fn bench_on(c: &mut Criterion, name: &str, mlp: &IntMlp, kernel: Kernel) {
    let first = &mlp.layers()[0];
    let x: Vec<u8> = (0..first.in_dim()).map(|i| 128 + (i % 29) as u8).collect();
    let mut y = vec![0.0f32; mlp.layers().last().unwrap().out_dim()];
    c.bench_function(name, |b| {
        b.iter(|| {
            mlp.forward_on(kernel, None, 0, black_box(&x), &mut y);
            black_box(&y);
        })
    });
}

criterion_group!(benches, bench_mlp);
criterion_main!(benches);
