//! `render_fixed` and `render_adaptive`: `FrameEngine` called directly,
//! one frame a block.

use crate::gen::{self, View, RENDER_AZIMUTHS, RENDER_SCENES};
use crate::host::{self, Steps, Timed, Work};
use crate::layers;
use crate::metrics::WorkloadId;
use crate::quality::{self, ChipTotals, DistinctFrame};
use crate::run::{self, Ctx, Measured, WARMUP_BLOCKS};
use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions, RenderOutput, RenderStats};
use asdr_math::Camera;
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::NgpModel;
use asdr_scenes::{registry, SceneHandle};

/// Frame edge, pixels.
pub const RESOLUTION: u32 = 24;
/// Samples per ray of `RenderProfile::tiny()`.
pub const BASE_NS: usize = 48;

fn engine(workload: WorkloadId) -> FrameEngine {
    match workload {
        WorkloadId::RenderFixed => {
            FrameEngine::new(RenderOptions::instant_ngp(BASE_NS), ExecPolicy::Sequential)
        }
        _ => FrameEngine::new(
            RenderOptions::asdr_default(BASE_NS),
            ExecPolicy::TileStealing { tile_size: 8 },
        )
        .map(|e| e.with_workers(2)),
    }
    .expect("the workload's options are valid")
}

pub fn camera(scene: &SceneHandle, azimuth_offset_deg: f32, resolution: u32) -> Camera {
    let mut orbit = scene.def().camera_orbit();
    orbit.azimuth_deg += azimuth_offset_deg;
    orbit.camera(resolution, resolution)
}

struct Ready {
    models: Vec<NgpModel>,
    engine: FrameEngine,
}

/// From nothing to the first frame: one fit per scene, then the engine and
/// the first frame of the cycle.
fn setup_once(ctx: &Ctx, scenes: &[SceneHandle], first: View) -> (Timed, Ready) {
    let rec = &ctx.recorder;
    let mut clock = ctx.clock_1();
    let mut steps = Steps::begin(&mut clock);
    let root = rec.open("setup", None, 0);
    let models: Vec<NgpModel> = scenes
        .iter()
        .map(|scene| {
            steps.step(|| {
                rec.span("nerf.fit", root, 0, |_| {
                    fit_ngp(scene.build().as_ref(), &GridConfig::tiny())
                })
            })
        })
        .collect();
    let engine = steps.step(|| {
        let engine = engine(ctx.args.workload);
        let cam = camera(&scenes[first.scene], RENDER_AZIMUTHS[first.azimuth], RESOLUTION);
        rec.span("core.render_frame", root, 0, |_| engine.render_frame(&models[first.scene], &cam));
        engine
    });
    rec.close(root);
    (steps.finish(), Ready { models, engine })
}

/// The window's state: one frame a block, cycling the views.
struct Frames<'a> {
    ctx: &'a Ctx,
    engine: &'a FrameEngine,
    models: &'a [NgpModel],
    cycle: &'a [View],
    cams: &'a [Camera],
    /// The first rendering of each view; every later rendering of it must
    /// return the same bytes and counts.
    first: Vec<Option<RenderOutput>>,
    /// (probe, render) phase timers of each frame, raw milliseconds.
    phases: Vec<(f64, f64)>,
    mismatched: u64,
}

impl Frames<'_> {
    fn frame(&mut self, i: usize, traced: bool) -> Work {
        let rec = &self.ctx.recorder;
        let slot = i % self.cycle.len();
        rec.set_on(traced);
        let root = rec.open("frame", None, i as u64);
        let t0 = std::time::Instant::now();
        let out = rec.span("core.render_frame", root, i as u64, |_| {
            self.engine.render_frame(&self.models[self.cycle[slot].scene], &self.cams[slot])
        });
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        rec.close(root);
        rec.set_on(false);
        self.phases.push((out.timings.probe_s * 1e3, out.timings.render_s * 1e3));
        match &self.first[slot] {
            Some(kept)
                if !quality::same_bytes(&kept.image, &out.image) || kept.stats != out.stats =>
            {
                self.mismatched += 1;
                return Work { failed: 1, ..Work::default() };
            }
            Some(_) => {}
            None => self.first[slot] = Some(out),
        }
        Work { latencies_ms: vec![latency_ms], frames: 1, ..Work::default() }
    }
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let args = &ctx.args;
    let rec = &ctx.recorder;
    let scenes: Vec<SceneHandle> = RENDER_SCENES.iter().map(|n| registry::handle(n)).collect();
    let cycle = gen::render_cycle(args.seed);

    rec.set_on(args.trace);
    let (setup, ready) =
        run::repeat_setup(run::SETUP_REPEATS, |_| Ok(setup_once(ctx, &scenes, cycle[0])))?;
    rec.set_on(false);
    let Ready { models, engine } = ready;

    let cams: Vec<Camera> = cycle
        .iter()
        .map(|v| camera(&scenes[v.scene], RENDER_AZIMUTHS[v.azimuth], RESOLUTION))
        .collect();
    let mut frames = Frames {
        ctx,
        engine: &engine,
        models: &models,
        cycle: &cycle,
        cams: &cams,
        first: (0..cycle.len()).map(|_| None).collect(),
        phases: Vec::new(),
        mismatched: 0,
    };
    for i in 0..WARMUP_BLOCKS {
        frames.frame(i, false);
    }
    frames.phases.clear();
    let mut clock = ctx.clock(&[]);
    let blocks = host::run_chain(&mut clock, run::window_stop(args.seconds), |i| {
        // a traced run alternates whole cycles, so both kinds render the
        // same views and meet the same host
        let traced = args.trace && (i / cycle.len()) % 2 == 1;
        (frames.frame(WARMUP_BLOCKS + i, traced), traced)
    });
    let Frames { first, phases, mismatched, .. } = frames;

    let mut problems = Vec::new();
    if mismatched > 0 {
        problems
            .push(format!("{mismatched} frames differed from the first rendering of their view"));
    }
    let outputs: Vec<(usize, &RenderOutput)> =
        first.iter().enumerate().filter_map(|(i, o)| o.as_ref().map(|o| (i, o))).collect();
    if outputs.len() != cycle.len() {
        problems.push(format!("only {} of {} views were rendered", outputs.len(), cycle.len()));
    }
    // in cycle order the set depends on the seed only by permutation, and
    // the sums below are taken in catalogue order so they repeat exactly
    let mut order: Vec<usize> = outputs.iter().map(|(i, _)| *i).collect();
    order.sort_by_key(|&i| cycle[i]);
    let distinct: Vec<DistinctFrame<'_>> = order
        .iter()
        .map(|&i| {
            let out = first[i].as_ref().expect("filtered above");
            DistinctFrame {
                scene: &scenes[cycle[i].scene],
                model: &models[cycle[i].scene],
                cam: cams[i].clone(),
                direct: out,
                returned: &out.image,
            }
        })
        .collect();
    let psnr_db = quality::mean_psnr_db(&distinct);
    let chip = ChipTotals::simulate(&distinct);
    let sim_host_ms = ctx.normalised_ms(|| {
        if ChipTotals::simulate(&distinct) != chip {
            problems.push("the chip simulator gave two answers for the same frames".into());
        }
    });

    let mut layer_values = Vec::new();
    if args.trace {
        let mut total = RenderStats::default();
        for f in &distinct {
            total.accumulate(&f.direct.stats);
        }
        layer_values.extend(quality::count_metrics(&total, distinct.len() as u64));
        layer_values.extend(chip.layer_metrics());
        layer_values.push(("arch.sim_host_ms_per_frame", sim_host_ms / distinct.len() as f64));
        // phase timers of the kept, untraced window frames, normalised
        let (mut probe, mut render) = (Vec::new(), Vec::new());
        for ((b, keep), &(p, r)) in blocks.iter().zip(host::kept(&blocks)).zip(&phases) {
            if keep && b.work.failed == 0 {
                probe.push(p / b.host_factor());
                render.push(r / b.host_factor());
            }
        }
        let (probe_ms, render_ms) = (crate::stats::median(&probe), crate::stats::median(&render));
        layer_values.push(("core.probe_ms", probe_ms));
        layer_values.push(("core.render_ms", render_ms));
        layer_values.push(("core.probe_share", probe_ms / (probe_ms + render_ms) * 100.0));
        rec.set_on(true);
        layer_values.extend(layers::nerf_kernels(ctx, &models[1], false));
        layer_values.extend(layers::nerf_small(ctx, &scenes[1]));
        layer_values.extend(layers::nerf_setup_path(ctx, &scenes, &models, true));
        layer_values.extend(layers::core_kernels(ctx, &models[0], &cams[0]));
        if args.workload == WorkloadId::RenderAdaptive {
            let view =
                cycle.iter().position(|v| v.scene == 0).expect("every scene is in the cycle");
            layer_values.extend(layers::core_ratios(ctx, &scenes[0], &models[0], &cams[view]));
        }
        rec.set_on(false);
    }

    Ok(Measured {
        setup,
        blocks,
        psnr_db,
        chip,
        daemon_rss_mb: 0.0,
        layers: layer_values,
        problems,
    })
}
