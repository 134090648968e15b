//! Per-layer measurements of `nerf` and `core` (traced runs only): each
//! times calls into one layer's public functions between two reference
//! units and reports the normalised cost. The serving layers' metrics need
//! a live service and live in [`crate::serving`].
//!
//! Each list below says which end-to-end metric the numbers should move;
//! README.md carries the full prediction table.

use crate::gen::Rng;
use crate::run::Ctx;
use crate::stats;
use asdr_core::algo::{
    composite, ExecPolicy, FrameEngine, PlanPolicy, RenderOptions, SamplePlan, SamplePoint,
    SequenceFrame,
};
use asdr_math::{Camera, Rgb, Vec3};
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::io::{load_model_file, save_model_file};
use asdr_nerf::NgpModel;
use asdr_scenes::SceneHandle;
use std::hint::black_box;
use std::time::Instant;

/// Points per kernel round: 16 K points × ~1 µs keeps a round near the
/// length of a frame.
const KERNEL_POINTS: usize = 16 * 1024;
const KERNEL_ROUNDS: usize = 5;

fn unit_points(seed: u64) -> Vec<Vec3> {
    let mut rng = Rng::new(seed);
    (0..KERNEL_POINTS)
        .map(|_| Vec3::new(rng.unit() as f32, rng.unit() as f32, rng.unit() as f32))
        .collect()
}

/// `nerf.*_ns`: the three queries a sample costs and the MLP inside the
/// density query. Predicts `latency_ms_p50` and `cpu_ms_per_frame` on
/// `render_fixed` (every sample runs all three) and, less, `render_adaptive`.
pub fn nerf_kernels(ctx: &Ctx, model: &NgpModel, small: bool) -> Vec<(&'static str, f64)> {
    let rec = &ctx.recorder;
    let unit = unit_points(0x6E65_7266);
    let world: Vec<Vec3> = unit.iter().map(|&u| model.bounds().denormalize(u)).collect();
    let dir = Vec3::new(0.3, -0.5, 0.8).normalized();
    let mut scratch = model.make_scratch();
    let mut encoded = vec![0.0f32; model.encoder().encoded_dim()];
    let mut density_out = vec![0.0f32; model.density_mlp().out_dim()];
    let mut mlp_scratch = model.density_mlp().make_scratch();

    let encode = rec.span("nerf.encode_point", None, 0, |_| {
        ctx.ns_per_op(KERNEL_ROUNDS, KERNEL_POINTS, |i| {
            model.encoder().encode(unit[i], &mut encoded);
            black_box(&encoded);
        })
    });
    let density = rec.span("nerf.density_query", None, 0, |_| {
        ctx.ns_per_op(KERNEL_ROUNDS, KERNEL_POINTS, |i| {
            black_box(model.query_density_into(world[i], &mut scratch));
        })
    });
    if small {
        return vec![
            ("nerf.encode_point_ns.small", encode),
            ("nerf.density_query_ns.small", density),
        ];
    }
    let color = rec.span("nerf.color_query", None, 0, |_| {
        ctx.ns_per_op(KERNEL_ROUNDS, KERNEL_POINTS, |_| {
            black_box(model.query_color_into(black_box(dir), &mut scratch));
        })
    });
    let forward = rec.span("nerf.density_mlp_forward", None, 0, |_| {
        ctx.ns_per_op(KERNEL_ROUNDS, KERNEL_POINTS, |_| {
            model.density_mlp().forward_scratch(
                black_box(&encoded),
                &mut density_out,
                &mut mlp_scratch,
            );
            black_box(&density_out);
        })
    });
    vec![
        ("nerf.encode_point_ns", encode),
        ("nerf.density_query_ns", density),
        ("nerf.color_query_ns", color),
        ("nerf.density_mlp_forward_ns", forward),
    ]
}

/// The same two kernels on a `GridConfig::small()` fit, whose 4 MB of
/// tables no longer sit in L2: the number a memory-layout change moves.
pub fn nerf_small(ctx: &Ctx, scene: &SceneHandle) -> Vec<(&'static str, f64)> {
    let model = ctx
        .recorder
        .span("nerf.fit.small", None, 0, |_| fit_ngp(scene.build().as_ref(), &GridConfig::small()));
    nerf_kernels(ctx, &model, true)
}

/// `nerf.fit_ms`, `nerf.ckpt_*`: the set-up path, one scene at a time,
/// mean over the scenes. Predicts `setup_s`: fit and save where the
/// workload's set-up fits (`with_fit`), load on `fleet_mix`.
pub fn nerf_setup_path(
    ctx: &Ctx,
    scenes: &[SceneHandle],
    models: &[NgpModel],
    with_fit: bool,
) -> Vec<(&'static str, f64)> {
    let rec = &ctx.recorder;
    let dir = ctx.workdir.join("ckpt-layer");
    let _ = std::fs::create_dir_all(&dir);
    let (mut fit, mut save, mut load, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (scene, model) in scenes.iter().zip(models) {
        let path = dir.join(format!("{}.ckpt", scene.name()));
        if with_fit {
            fit.push(ctx.normalised_ms(|| {
                rec.span("nerf.fit", None, 0, |_| {
                    black_box(fit_ngp(scene.build().as_ref(), &GridConfig::tiny()))
                })
            }));
        }
        save.push(ctx.normalised_ms(|| {
            rec.span("nerf.ckpt_save", None, 0, |_| save_model_file(model, scene.name(), &path))
                .expect("the work directory is writable")
        }));
        load.push(ctx.normalised_ms(|| {
            rec.span("nerf.ckpt_load", None, 0, |_| load_model_file(&path))
                .expect("a checkpoint just written loads")
        }));
        bytes.extend(std::fs::metadata(&path).map(|m| m.len() as f64));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut out = vec![("nerf.ckpt_load_ms", mean(&load)), ("nerf.ckpt_bytes", mean(&bytes))];
    if with_fit {
        out.extend([("nerf.fit_ms", mean(&fit)), ("nerf.ckpt_save_ms", mean(&save))]);
    }
    out
}

/// `core.plan_from_probes_us`, `core.composite_ns`: the two pieces of
/// `core::algo` small enough to time alone.
pub fn core_kernels(ctx: &Ctx, model: &NgpModel, cam: &Camera) -> Vec<(&'static str, f64)> {
    let rec = &ctx.recorder;
    let (w, h) = (cam.width(), cam.height());
    let base_ns = crate::render::BASE_NS;
    // a ray's worth of real samples through the middle of the frame
    let ray = cam.ray_for_pixel(w / 2, h / 2);
    let range = model.bounds().intersect(&ray).expect("the centre ray meets the scene");
    let mut scratch = model.make_scratch();
    let points: Vec<SamplePoint> = range
        .midpoints(base_ns)
        .into_iter()
        .map(|t| {
            let (sigma, color): (f32, Rgb) = model.query_point(ray.at(t), ray.dir, &mut scratch);
            SamplePoint { t, sigma, color }
        })
        .collect();
    let composite_ns = rec.span("core.composite", None, 0, |_| {
        ctx.ns_per_op(KERNEL_ROUNDS, 200_000, |_| {
            black_box(composite(black_box(&points)));
        })
    });
    let mut out = vec![("core.composite_ns", composite_ns)];
    // only the adaptive path builds a plan from probes
    if ctx.args.workload == crate::metrics::WorkloadId::RenderAdaptive {
        let d = 4u32;
        let mut rng = Rng::new(0x636F_7265);
        let probe_counts: Vec<Vec<u32>> = (0..h.div_ceil(d))
            .map(|_| (0..w.div_ceil(d)).map(|_| 1 + rng.below(base_ns) as u32).collect())
            .collect();
        let plan_us = rec.span("core.plan_from_probes", None, 0, |_| {
            ctx.ns_per_op(KERNEL_ROUNDS, 2000, |_| {
                black_box(SamplePlan::from_probes(w, h, base_ns, d, black_box(&probe_counts)));
            })
        }) / 1e3;
        out.push(("core.plan_from_probes_us", plan_us));
    }
    out
}

/// Pairs run back to back, so both sides of a ratio meet the same host.
const RATIO_PAIRS: usize = 5;

fn ratio_of_medians(mut slow: impl FnMut(), mut fast: impl FnMut()) -> f64 {
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..RATIO_PAIRS {
        a.push(time(&mut slow));
        b.push(time(&mut fast));
    }
    stats::median(&a) / stats::median(&b)
}

/// `core.*_speedup_x`: what each mechanism of the paper's path buys on one
/// frame. Predicts `frames_per_s` on `render_adaptive`.
pub fn core_ratios(
    ctx: &Ctx,
    scene: &SceneHandle,
    model: &NgpModel,
    cam: &Camera,
) -> Vec<(&'static str, f64)> {
    let rec = &ctx.recorder;
    let base_ns = crate::render::BASE_NS;
    let build = |opts, policy| FrameEngine::new(opts, policy).expect("valid options");
    let fixed = build(RenderOptions::instant_ngp(base_ns), ExecPolicy::Sequential);
    let adaptive = build(RenderOptions::asdr_default(base_ns), ExecPolicy::Sequential);
    let threaded =
        build(RenderOptions::asdr_default(base_ns), ExecPolicy::TileStealing { tile_size: 8 })
            .with_workers(2);
    let asdr = rec.span("core.asdr_speedup", None, 0, |_| {
        ratio_of_medians(
            || drop(black_box(fixed.render_frame(model, cam))),
            || drop(black_box(adaptive.render_frame(model, cam))),
        )
    });
    let mt2 = rec.span("core.mt2_speedup", None, 0, |_| {
        ratio_of_medians(
            || drop(black_box(adaptive.render_frame(model, cam))),
            || drop(black_box(threaded.render_frame(model, cam))),
        )
    });
    vec![
        ("core.asdr_speedup_x", asdr),
        ("core.mt2_speedup_x", mt2),
        ("core.sequence_reuse_speedup_x", sequence_reuse_ratio(ctx, scene, model, cam.width())),
    ]
}

/// `PerFrame` ÷ `Reuse{4}` on a 4-frame orbit: what plan reuse buys a
/// sequence request. Predicts `frames_per_s` on `serve_mix`.
pub fn sequence_reuse_ratio(
    ctx: &Ctx,
    scene: &SceneHandle,
    model: &NgpModel,
    resolution: u32,
) -> f64 {
    let engine = FrameEngine::new(
        asdr_serve::RenderProfile::tiny().options_for(resolution),
        ExecPolicy::Sequential,
    )
    .expect("valid options");
    let frames: Vec<SequenceFrame<'_, NgpModel>> = (0..crate::gen::SEQUENCE_FRAMES)
        .map(|i| {
            SequenceFrame::new(model, crate::render::camera(scene, i as f32 * 1.5, resolution))
        })
        .collect();
    ctx.recorder.span("core.sequence_reuse_speedup", None, 0, |_| {
        ratio_of_medians(
            || drop(black_box(engine.render_sequence(&frames, &PlanPolicy::PerFrame))),
            || {
                drop(black_box(
                    engine.render_sequence(&frames, &PlanPolicy::Reuse { refresh_every: 4 }),
                ))
            },
        )
    })
}
