//! Wall-clock benchmark of the density/color MLP forward passes.

use asdr_math::Vec3;
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::kernel::Kernel;
use asdr_nerf::mlp::{Activation, Dense, Mlp};
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

    // the same layers on the narrower instantiations by name, so a run on an
    // AVX-512 host still fails when the AVX2 or the baseline build loses its
    // vectorisation — and, set beside the `_raw` rows, shows whether the body
    // still inlines into the wider wrappers: if it stops, the rows read the
    // same and only these numbers say so. Each instantiation can lose
    // vectorisation on its own, and each runs the 8- and 4-lane blocks of
    // the tails; the 64-output layers run 8-lane blocks here, 16-lane ones
    // in `_raw` on AVX-512
    bench_on(c, "density_mlp_forward_avx2", density, Kernel::Avx2);
    bench_on(c, "color_mlp_forward_avx2", color, Kernel::Avx2);
    bench_on(c, "density_mlp_forward_portable", density, Kernel::Portable);
    bench_on(c, "color_mlp_forward_portable", color, Kernel::Portable);

    // the narrow tail layer alone: three outputs in one 4-lane block, a
    // chain of 64 dependent adds. Losing the narrow block (back to 16 lanes
    // for three outputs) shows here as ≈ 4× the vector work
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

/// `mlp`'s forward pass at an input of 0.1s, every layer on `kernel` (or the
/// widest the CPU has below it).
fn bench_on(c: &mut Criterion, name: &str, mlp: &Mlp, kernel: Kernel) {
    let bias_rows: Vec<Vec<f32>> = mlp
        .layers()
        .iter()
        .map(|layer| {
            let mut row = vec![0.0f32; layer.stride()];
            layer.prefix_on(kernel, &[], &mut row);
            row
        })
        .collect();
    let x = vec![0.1f32; mlp.in_dim()];
    let width = mlp.layers().iter().map(|l| l.in_dim().max(l.out_dim())).max().unwrap();
    let (mut src, mut dst) = (vec![0.0f32; width], vec![0.0f32; width]);
    c.bench_function(name, |b| {
        b.iter(|| {
            src[..x.len()].copy_from_slice(black_box(&x));
            for (layer, bias) in mlp.layers().iter().zip(&bias_rows) {
                let (input, output) = (&src[..layer.in_dim()], &mut dst[..layer.out_dim()]);
                layer.forward_on(kernel, bias, 0, input, output);
                std::mem::swap(&mut src, &mut dst);
            }
            black_box(&src);
        })
    });
}

criterion_group!(benches, bench_mlp);
criterion_main!(benches);
