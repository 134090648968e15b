//! Wall-clock benchmark of the density/color queries and MLP forward passes.

use asdr_math::sh::SH_DEGREE4_COEFFS;
use asdr_math::Vec3;
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::kernel::Kernel;
use asdr_nerf::mlp::{IntMlp, LINE};
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
    // its own body: rows that read the same say one no longer does. The
    // colour MLP resumes after its 16 SH inputs, as every colour query does
    let int = model.int_mlps();
    let sh = SH_DEGREE4_COEFFS;
    for (kernel, density, color) in [
        (Kernel::Avx512Vnni, "density_mlp_forward_raw", "color_mlp_forward_raw"),
        (Kernel::Avx2, "density_mlp_forward_avx2", "color_mlp_forward_avx2"),
        (Kernel::Portable, "density_mlp_forward_portable", "color_mlp_forward_portable"),
    ] {
        bench_on(c, density, &int.density, 0, kernel, false);
        bench_on(c, color, &int.color, sh, kernel, false);
    }
    // two inputs in one body: `scripts/bench_check.sh` holds each below a
    // bound × its single row, so a body that stops interleaving fails there
    bench_on(c, "density_mlp_pair_raw", &int.density, 0, Kernel::Avx512Vnni, true);
    bench_on(c, "color_mlp_pair_raw", &int.color, sh, Kernel::Avx512Vnni, true);
}

/// `mlp`'s forward pass over input bytes a little above zero, every layer
/// on `kernel` (or the widest the CPU has below it): resumed after the
/// first `skip` inputs from their running sums (made once, untimed), the
/// rest run on to the end of its last group as the queries do — for one
/// input, or (`pair`) two in one body.
fn bench_on(c: &mut Criterion, name: &str, mlp: &IntMlp, skip: usize, kernel: Kernel, pair: bool) {
    let first = &mlp.layers()[0];
    let bytes = |m: usize| -> Vec<u8> {
        (0..first.in_dim().next_multiple_of(4)).map(|i| 128 + (i % m) as u8).collect()
    };
    let (x, x2) = (bytes(29), bytes(31));
    let mut sums = vec![0; first.sums_len()];
    first.prefix(&x[..skip], &mut sums);
    let init = (skip > 0).then_some(&sums[..]);
    let (mut y, mut y2) = ([0.0f32; LINE], [0.0f32; LINE]);
    c.bench_function(name, |b| {
        b.iter(|| {
            if pair {
                let rests = [black_box(&x[skip..]), black_box(&x2[skip..])];
                mlp.forward_on(kernel, init, skip, rests, [&mut y, &mut y2]);
            } else {
                mlp.forward_on(kernel, init, skip, [black_box(&x[skip..])], [&mut y]);
            }
            black_box((&y, &y2));
        })
    });
}

criterion_group!(benches, bench_mlp);
criterion_main!(benches);
