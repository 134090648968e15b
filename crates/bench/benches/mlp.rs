//! Wall-clock benchmark of the density/color MLP forward passes.

use asdr_math::Vec3;
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::mlp::{Activation, Dense};
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

    c.bench_function("density_plus_color_query", |b| {
        b.iter(|| black_box(model.query_point(black_box(p), black_box(dir), &mut scratch)))
    });

    let density = model.density_mlp();
    let x = vec![0.1f32; density.in_dim()];
    let mut y = vec![0.0f32; density.out_dim()];
    let mut s = density.make_scratch();
    c.bench_function("density_mlp_forward_raw", |b| {
        b.iter(|| {
            density.forward_scratch(black_box(&x), &mut y, &mut s);
            black_box(&y);
        })
    });

    let color = model.color_mlp();
    let x = vec![0.1f32; color.in_dim()];
    let mut y = vec![0.0f32; color.out_dim()];
    let mut s = color.make_scratch();
    c.bench_function("color_mlp_forward_raw", |b| {
        b.iter(|| {
            color.forward_scratch(black_box(&x), &mut y, &mut s);
            black_box(&y);
        })
    });

    // the narrow tail layer alone: three outputs, one block, a chain of 64
    // dependent adds — the part of the color MLP wider lanes cannot help
    let mut tail = Dense::zeros(64, 3, Activation::None);
    for row in 0..3 {
        for col in 0..64 {
            tail.set(row, col, (row * 64 + col) as f32 * 1e-3 - 0.1);
        }
    }
    let x = vec![0.1f32; 64];
    let mut y = [0.0f32; 3];
    c.bench_function("dense_forward_64x3", |b| {
        b.iter(|| {
            tail.forward(black_box(&x), &mut y);
            black_box(&y);
        })
    });
}

criterion_group!(benches, bench_mlp);
criterion_main!(benches);
