//! Wall-clock benchmark of the per-sample kernels in front of the MLPs: the
//! multi-resolution hash encoding and the occupancy pass over a ray.

use asdr_math::{Ray, Vec3};
use asdr_nerf::embedding::EmbeddingSet;
use asdr_nerf::encoder::HashEncoder;
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::kernel::Kernel;
use asdr_scenes::registry;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_encoding(c: &mut Criterion) {
    let model = fit_ngp(registry::handle("Lego").build().as_ref(), &GridConfig::tiny());
    let enc = model.encoder();
    let mut out = vec![0.0f32; enc.encoded_dim()];
    let points: Vec<Vec3> = (0..256)
        .map(|i| {
            let t = i as f32 / 256.0;
            Vec3::new(t, (t * 7.3).fract(), (t * 3.1).fract())
        })
        .collect();

    c.bench_function("encode_point", |b| {
        let mut i = 0;
        b.iter(|| {
            enc.encode(black_box(points[i % points.len()]), &mut out);
            i += 1;
            black_box(&out);
        })
    });

    // the four-feature instance of the blend (the fit only builds F = 2)
    let wide = GridConfig { feat_dim: 4, ..GridConfig::tiny() };
    let mut tables = EmbeddingSet::new(&wide);
    for level in 0..wide.levels {
        let params = tables.table_mut(level).params_mut();
        (0..).zip(params).for_each(|(i, v)| *v = (i % 17) as f32 * 0.1 - 0.8);
    }
    let enc4 = HashEncoder::new(wide, tables);
    let mut out4 = vec![0.0f32; enc4.encoded_dim()];
    c.bench_function("encode_point_feat4", |b| {
        let mut i = 0;
        b.iter(|| {
            enc4.encode(black_box(points[i % points.len()]), &mut out4);
            i += 1;
            black_box(&out4);
        })
    });

    c.bench_function("encode_point_traced", |b| {
        let mut trace = Vec::with_capacity(enc.config().levels * 8);
        let mut i = 0;
        b.iter(|| {
            trace.clear();
            enc.encode_traced(black_box(points[i % points.len()]), &mut out, &mut trace);
            i += 1;
            black_box(trace.len());
        })
    });

    c.bench_function("vertex_accesses_level0", |b| {
        let mut i = 0;
        b.iter(|| {
            let a = enc.vertex_accesses(black_box(points[i % points.len()]), 0);
            i += 1;
            black_box(a);
        })
    });

    // `encode_point` on the baseline target: the AVX2 row reading the same
    // means the lane body no longer inlines into the wrapper
    c.bench_function("encode_point_portable", |b| {
        let mut i = 0;
        b.iter(|| {
            let p = black_box(points[i % points.len()]);
            enc.encode_on(Kernel::Portable, p, &mut out, None);
            i += 1;
            black_box(&out);
        })
    });

    // the pass `march` makes over a fixed-48 ray, on 16 rays through Lego's box
    let grid = model.occupancy();
    let rays: Vec<(Ray, Vec<f32>)> = (0..16)
        .filter_map(|i| {
            let a = i as f32 * 0.39;
            let origin = Vec3::new(4.0 * a.cos(), 0.3 + 0.05 * i as f32, 4.0 * a.sin());
            let ray = Ray::new(origin, (Vec3::new(0.1, -0.2, 0.05) - origin).normalized());
            Some((ray, grid.bounds().intersect(&ray)?.midpoints(48)))
        })
        .collect();
    let mut mask = Vec::with_capacity(48);
    for (name, kernel) in
        [("occupied_along_48", Kernel::Avx2), ("occupied_along_48_portable", Kernel::Portable)]
    {
        c.bench_function(name, |b| {
            let mut i = 0;
            b.iter(|| {
                let (ray, ts) = &rays[i % rays.len()];
                grid.occupied_along_on(kernel, black_box(ray), ts.iter().copied(), &mut mask);
                i += 1;
                black_box(&mask);
            })
        });
    }
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
