//! The frame engine: a session API over the two-phase ASDR dataflow.
//!
//! [`FrameEngine`] is built once from validated [`RenderOptions`] plus an
//! [`ExecPolicy`] and then renders any number of frames. Pixels are
//! independent, so every policy produces the byte-identical image and the
//! identical operation counts — only the wall-clock changes:
//!
//! * [`ExecPolicy::Sequential`] — one thread, the reference path;
//! * [`ExecPolicy::StaticRows`] — contiguous row blocks, one per worker
//!   (the historical `render()` split);
//! * [`ExecPolicy::TileStealing`] — square tiles handed out through an
//!   atomic next-tile counter, so workers that draw cheap background tiles
//!   steal the remaining hard ones. Adaptive sampling makes per-row cost
//!   wildly uneven; this is the wall-clock win the ROADMAP's "renderer
//!   scaling" item asks for.
//!
//! [`FrameEngine::render_sequence`] renders N model/camera frames under a
//! [`PlanPolicy`]: `PerFrame` re-probes Phase I for every frame, while
//! `Reuse { refresh_every }` carries the previous frame's [`SamplePlan`]
//! forward across temporally coherent frames, skipping the probe work
//! entirely between refreshes.

use crate::algo::adaptive::SamplePlan;
use crate::algo::renderer::{
    probe_plan, render_ray, RayScratch, RenderOptions, RenderOutput, RenderStats,
};
use asdr_math::{Camera, Image, Rgb};
use asdr_nerf::model::RadianceModel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How Phase II distributes pixels over worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Single-threaded reference execution.
    Sequential,
    /// Contiguous row blocks, one per worker (static split).
    StaticRows,
    /// Square tiles pulled from a shared atomic counter — work stealing
    /// without a scheduler, hand-rolled (no rayon in this environment).
    TileStealing {
        /// Tile edge length in pixels.
        tile_size: u32,
    },
}

impl ExecPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ExecPolicy::TileStealing { tile_size: 0 } => Err("tile_size must be >= 1".into()),
            _ => Ok(()),
        }
    }
}

impl Default for ExecPolicy {
    /// The historical `render()` behavior.
    fn default() -> Self {
        ExecPolicy::StaticRows
    }
}

/// How a sequence derives each frame's sample plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPolicy {
    /// Re-run Phase I probing for every frame.
    PerFrame,
    /// Carry the previous frame's plan forward, re-probing every
    /// `refresh_every`-th frame (1 is equivalent to [`PlanPolicy::PerFrame`]).
    Reuse {
        /// Probe refresh period in frames.
        refresh_every: usize,
    },
}

impl PlanPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PlanPolicy::Reuse { refresh_every: 0 } => Err("refresh_every must be >= 1".into()),
            _ => Ok(()),
        }
    }
}

/// Wall-clock time spent in each phase of a frame (or summed over a
/// sequence). Timings are measurement noise, not semantics: determinism
/// contracts compare images and [`RenderStats`], never these.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Phase I (probe + plan) seconds.
    pub probe_s: f64,
    /// Phase II (full-image rendering) seconds.
    pub render_s: f64,
}

impl PhaseTimings {
    /// Total seconds across both phases.
    pub fn total_s(&self) -> f64 {
        self.probe_s + self.render_s
    }

    /// Adds another frame's timings into this one (sequence aggregation).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.probe_s += other.probe_s;
        self.render_s += other.render_s;
    }
}

/// One frame of a sequence: a model and the camera viewing it. Frames of a
/// sequence may share one model (camera animation) or carry per-keyframe
/// models (geometry animation, e.g. `PulseScene::at_phase` fits).
#[derive(Debug)]
pub struct SequenceFrame<'a, M> {
    /// The radiance model for this frame.
    pub model: &'a M,
    /// The viewpoint for this frame.
    pub cam: Camera,
}

impl<'a, M> SequenceFrame<'a, M> {
    /// Bundles a model reference and camera into a sequence frame.
    pub fn new(model: &'a M, cam: Camera) -> Self {
        SequenceFrame { model, cam }
    }
}

/// One rendered frame of a sequence.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// The image.
    pub image: Image,
    /// Operation counts (probe counts are zero when the plan was reused).
    pub stats: RenderStats,
    /// Wall-clock phase timings.
    pub timings: PhaseTimings,
    /// Whether this frame reused the previous frame's sample plan.
    pub plan_reused: bool,
}

impl FrameRecord {
    /// Expands into a [`RenderOutput`] carrying the (externally supplied)
    /// plan — the public [`FrameEngine::render_planned`] contract.
    fn into_output(self, plan: &SamplePlan) -> RenderOutput {
        RenderOutput {
            image: self.image,
            stats: self.stats,
            plan: plan.clone(),
            timings: self.timings,
        }
    }
}

/// A rendered sequence with per-frame and aggregate statistics.
#[derive(Debug, Clone)]
pub struct SequenceOutput {
    /// Every frame in order.
    pub frames: Vec<FrameRecord>,
    /// Operation counts summed over the sequence.
    pub aggregate: RenderStats,
    /// Wall-clock phase timings summed over the sequence.
    pub timings: PhaseTimings,
}

impl SequenceOutput {
    /// Number of frames that skipped Phase I by reusing a plan.
    pub fn reused_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.plan_reused).count()
    }

    /// Probe sample points executed over the whole sequence (the work plan
    /// reuse avoids).
    pub fn probe_points(&self) -> u64 {
        self.aggregate.probe_points
    }
}

/// A rectangular block of pixels, `[x0, x1) × [y0, y1)`.
#[derive(Debug, Clone, Copy)]
struct Tile {
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
}

impl Tile {
    fn width(&self) -> usize {
        (self.x1 - self.x0) as usize
    }
}

/// The session object: validated options + execution policy, reusable
/// across frames and sequences.
#[derive(Debug, Clone)]
pub struct FrameEngine {
    opts: RenderOptions,
    policy: ExecPolicy,
    workers: Option<usize>,
}

impl FrameEngine {
    /// Builds an engine, validating both the options and the policy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn new(opts: RenderOptions, policy: ExecPolicy) -> Result<Self, String> {
        opts.validate()?;
        policy.validate()?;
        Ok(FrameEngine { opts, policy, workers: None })
    }

    /// Overrides the worker-thread count (otherwise `ASDR_WORKERS` or the
    /// detected parallelism). Worker count never changes output. Zero means
    /// auto.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = (workers > 0).then_some(workers);
        self
    }

    /// The engine's render options.
    pub fn options(&self) -> &RenderOptions {
        &self.opts
    }

    /// The engine's execution policy.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Renders one frame: Phase I probing, then Phase II under the
    /// execution policy. The image and stats are identical across policies.
    pub fn render_frame<M: RadianceModel + Sync>(&self, model: &M, cam: &Camera) -> RenderOutput {
        let mut stats = frame_stats(cam, &self.opts);
        let t0 = Instant::now();
        let plan = probe_plan(model, cam, &self.opts, &mut stats);
        let probe_s = t0.elapsed().as_secs_f64();
        stats.planned_points = plan.total();
        let t1 = Instant::now();
        let (image, phase2) = self.run_phase2(model, cam, &plan);
        stats.accumulate_phase2(&phase2);
        let timings = PhaseTimings { probe_s, render_s: t1.elapsed().as_secs_f64() };
        RenderOutput { image, stats, plan, timings }
    }

    /// Renders one frame against an externally supplied sample plan,
    /// skipping Phase I entirely (the plan-reuse path of
    /// [`FrameEngine::render_sequence`], exposed for callers that manage
    /// their own temporal coherence).
    ///
    /// # Errors
    ///
    /// Returns an error if the plan's dimensions or base count do not match
    /// the camera and options.
    pub fn render_planned<M: RadianceModel + Sync>(
        &self,
        model: &M,
        cam: &Camera,
        plan: &SamplePlan,
    ) -> Result<RenderOutput, String> {
        if plan.width() != cam.width() || plan.height() != cam.height() {
            return Err(format!(
                "plan is {}x{} but camera is {}x{}",
                plan.width(),
                plan.height(),
                cam.width(),
                cam.height()
            ));
        }
        if plan.base_ns() != self.opts.base_ns {
            return Err(format!(
                "plan base count {} does not match options base count {}",
                plan.base_ns(),
                self.opts.base_ns
            ));
        }
        Ok(self.render_planned_record(model, cam, plan).into_output(plan))
    }

    /// The validated plan-replay path without the plan echo — the sequence
    /// loop reuses its carried plan directly instead of cloning it back out
    /// of every reused frame.
    fn render_planned_record<M: RadianceModel + Sync>(
        &self,
        model: &M,
        cam: &Camera,
        plan: &SamplePlan,
    ) -> FrameRecord {
        let mut stats = frame_stats(cam, &self.opts);
        stats.planned_points = plan.total();
        let t1 = Instant::now();
        let (image, phase2) = self.run_phase2(model, cam, plan);
        stats.accumulate_phase2(&phase2);
        let timings = PhaseTimings { probe_s: 0.0, render_s: t1.elapsed().as_secs_f64() };
        FrameRecord { image, stats, timings, plan_reused: true }
    }

    /// Renders a sequence of frames under `plan_policy`, returning per-frame
    /// records plus aggregate stats and timings.
    ///
    /// With [`PlanPolicy::Reuse`], a frame reuses the previous frame's plan
    /// unless it falls on a refresh boundary or its resolution differs from
    /// the plan's (a resolution change forces a re-probe, recorded as
    /// `plan_reused: false`).
    ///
    /// # Errors
    ///
    /// Returns an error if `frames` is empty or the policy is invalid.
    pub fn render_sequence<M: RadianceModel + Sync>(
        &self,
        frames: &[SequenceFrame<'_, M>],
        plan_policy: &PlanPolicy,
    ) -> Result<SequenceOutput, String> {
        plan_policy.validate()?;
        if frames.is_empty() {
            return Err("sequence needs at least one frame".into());
        }
        let mut out = Vec::with_capacity(frames.len());
        let mut aggregate = RenderStats::default();
        let mut timings = PhaseTimings::default();
        let mut carried: Option<SamplePlan> = None;
        for (i, f) in frames.iter().enumerate() {
            let reuse = match plan_policy {
                PlanPolicy::PerFrame => false,
                PlanPolicy::Reuse { refresh_every } => !i.is_multiple_of(*refresh_every),
            };
            let plan_fits = carried
                .as_ref()
                .is_some_and(|p| p.width() == f.cam.width() && p.height() == f.cam.height());
            let record = if reuse && plan_fits {
                // the carried plan stays carried — no per-frame plan clone
                let plan = carried.as_ref().expect("plan_fits implies a carried plan");
                self.render_planned_record(f.model, &f.cam, plan)
            } else {
                let rendered = self.render_frame(f.model, &f.cam);
                let record = FrameRecord {
                    image: rendered.image,
                    stats: rendered.stats,
                    timings: rendered.timings,
                    plan_reused: false,
                };
                carried = Some(rendered.plan);
                record
            };
            aggregate.accumulate(&record.stats);
            timings.accumulate(&record.timings);
            out.push(record);
        }
        Ok(SequenceOutput { frames: out, aggregate, timings })
    }

    /// Phase II: renders every pixel at its planned count under the
    /// execution policy. Returns the assembled image and the phase's
    /// operation counts.
    fn run_phase2<M: RadianceModel + Sync>(
        &self,
        model: &M,
        cam: &Camera,
        plan: &SamplePlan,
    ) -> (Image, Phase2Stats) {
        let mut image = Image::new(cam.width(), cam.height());
        let mut totals = Phase2Stats::default();
        let mut merge = |tile: Tile, pixels: Vec<Rgb>, local: Phase2Stats| {
            blit(&mut image, tile, &pixels);
            totals.accumulate(&local);
        };
        match self.policy {
            ExecPolicy::Sequential => {
                let tile = Tile { x0: 0, y0: 0, x1: cam.width(), y1: cam.height() };
                let (mut scratch, mut rays) = (model.make_query_scratch(), RayScratch::default());
                let (pixels, local) =
                    render_tile(model, cam, plan, &self.opts, tile, &mut scratch, &mut rays);
                merge(tile, pixels, local);
            }
            ExecPolicy::StaticRows => {
                let workers = self.worker_count().min(cam.height().max(1) as usize);
                let tiles = row_tiles(cam.width(), cam.height(), workers);
                self.run_static(model, cam, plan, &tiles, &mut merge);
            }
            ExecPolicy::TileStealing { tile_size } => {
                let tiles = square_tiles(cam.width(), cam.height(), tile_size);
                self.run_stealing(model, cam, plan, &tiles, &mut merge);
            }
        }
        (image, totals)
    }

    /// Static assignment: one worker per tile.
    fn run_static<M: RadianceModel + Sync>(
        &self,
        model: &M,
        cam: &Camera,
        plan: &SamplePlan,
        tiles: &[Tile],
        merge: &mut impl FnMut(Tile, Vec<Rgb>, Phase2Stats),
    ) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = tiles
                .iter()
                .map(|&tile| {
                    scope.spawn(move || {
                        let mut scratch = model.make_query_scratch();
                        let mut rays = RayScratch::default();
                        let out = render_tile(
                            model,
                            cam,
                            plan,
                            &self.opts,
                            tile,
                            &mut scratch,
                            &mut rays,
                        );
                        (tile, out)
                    })
                })
                .collect();
            for h in handles {
                let (tile, (pixels, local)) = h.join().expect("render worker panicked");
                merge(tile, pixels, local);
            }
        });
    }

    /// Dynamic assignment: workers pull the next tile index from a shared
    /// atomic counter until the list is drained.
    fn run_stealing<M: RadianceModel + Sync>(
        &self,
        model: &M,
        cam: &Camera,
        plan: &SamplePlan,
        tiles: &[Tile],
        merge: &mut impl FnMut(Tile, Vec<Rgb>, Phase2Stats),
    ) {
        let workers = self.worker_count().min(tiles.len()).max(1);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut scratch = model.make_query_scratch();
                        let mut rays = RayScratch::default();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&tile) = tiles.get(i) else {
                                return done;
                            };
                            done.push((
                                tile,
                                render_tile(
                                    model,
                                    cam,
                                    plan,
                                    &self.opts,
                                    tile,
                                    &mut scratch,
                                    &mut rays,
                                ),
                            ));
                        }
                    })
                })
                .collect();
            for h in handles {
                for (tile, (pixels, local)) in h.join().expect("render worker panicked") {
                    merge(tile, pixels, local);
                }
            }
        });
    }
}

/// Per-frame fixed stats: ray count and the fixed-sampling reference
/// workload.
fn frame_stats(cam: &Camera, opts: &RenderOptions) -> RenderStats {
    let rays = cam.pixel_count() as u64;
    RenderStats { rays, base_points: rays * opts.base_ns as u64, ..Default::default() }
}

/// Phase-II operation counters accumulated per tile.
#[derive(Debug, Default, Clone, Copy)]
struct Phase2Stats {
    density_points: u64,
    color_points: u64,
    interpolated_points: u64,
    et_terminated_rays: u64,
}

impl Phase2Stats {
    fn accumulate(&mut self, other: &Phase2Stats) {
        self.density_points += other.density_points;
        self.color_points += other.color_points;
        self.interpolated_points += other.interpolated_points;
        self.et_terminated_rays += other.et_terminated_rays;
    }
}

impl RenderStats {
    /// Folds a Phase-II partial into the frame stats.
    fn accumulate_phase2(&mut self, p: &Phase2Stats) {
        self.density_points += p.density_points;
        self.color_points += p.color_points;
        self.interpolated_points += p.interpolated_points;
        self.et_terminated_rays += p.et_terminated_rays;
    }
}

/// Renders one tile into a fresh row-major pixel buffer.
fn render_tile<M: RadianceModel>(
    model: &M,
    cam: &Camera,
    plan: &SamplePlan,
    opts: &RenderOptions,
    tile: Tile,
    scratch: &mut M::Scratch,
    rays: &mut RayScratch,
) -> (Vec<Rgb>, Phase2Stats) {
    let w = tile.width();
    let mut pixels = vec![Rgb::BLACK; w * (tile.y1 - tile.y0) as usize];
    let mut local = Phase2Stats::default();
    for py in tile.y0..tile.y1 {
        for px in tile.x0..tile.x1 {
            let ray = cam.ray_for_pixel(px, py);
            let count = plan.count(px, py) as usize;
            let (color, work) = render_ray(model, &ray, count, opts, scratch, rays);
            local.density_points += work.density;
            local.color_points += work.color;
            local.interpolated_points += work.interpolated;
            if work.terminated {
                local.et_terminated_rays += 1;
            }
            pixels[(py - tile.y0) as usize * w + (px - tile.x0) as usize] = color;
        }
    }
    (pixels, local)
}

/// Writes a rendered tile into the frame with one row-span copy per tile
/// row — the single merge path of every policy.
fn blit(image: &mut Image, tile: Tile, pixels: &[Rgb]) {
    for (r, row) in pixels.chunks_exact(tile.width().max(1)).enumerate() {
        image.set_row_span(tile.x0, tile.y0 + r as u32, row);
    }
}

/// Default parallelism: `ASDR_WORKERS` (containers often misreport their
/// CPU budget) or the detected hardware parallelism. Read once per process —
/// the render hot path must never call `getenv` (unsynchronized `setenv`
/// elsewhere would race it).
fn detected_workers() -> usize {
    static DETECTED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::env::var("ASDR_WORKERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

impl FrameEngine {
    /// Worker threads for a frame: the engine override or the process-wide
    /// default. Each policy caps it by its own work-unit count (rows or
    /// tiles). Any worker count produces identical output.
    fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(detected_workers).max(1)
    }
}

/// Full-width row-block tiles, one per worker (the static split).
fn row_tiles(width: u32, height: u32, workers: usize) -> Vec<Tile> {
    let rows_per_worker = (height as usize).div_ceil(workers.max(1)) as u32;
    (0..height)
        .step_by(rows_per_worker.max(1) as usize)
        .map(|y0| Tile { x0: 0, y0, x1: width, y1: (y0 + rows_per_worker).min(height) })
        .collect()
}

/// Square `tile_size`-pixel tiles in row-major order (edge tiles clipped).
fn square_tiles(width: u32, height: u32, tile_size: u32) -> Vec<Tile> {
    let t = tile_size.max(1);
    let mut tiles = Vec::new();
    for y0 in (0..height).step_by(t as usize) {
        for x0 in (0..width).step_by(t as usize) {
            tiles.push(Tile { x0, y0, x1: (x0 + t).min(width), y1: (y0 + t).min(height) });
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_nerf::fit::fit_ngp;
    use asdr_nerf::grid::GridConfig;
    use asdr_nerf::NgpModel;
    use asdr_scenes::registry;

    fn model(name: &str) -> NgpModel {
        fit_ngp(registry::handle(name).build().as_ref(), &GridConfig::tiny())
    }

    fn all_policies() -> [ExecPolicy; 4] {
        [
            ExecPolicy::Sequential,
            ExecPolicy::StaticRows,
            // 5 does not divide 16/24: exercises ragged edge tiles
            ExecPolicy::TileStealing { tile_size: 5 },
            ExecPolicy::TileStealing { tile_size: 64 }, // single oversized tile
        ]
    }

    #[test]
    fn policies_are_byte_identical_across_scenes() {
        // the cross-policy determinism contract on two scenes, adaptive +
        // decoupling on so the plan is non-uniform
        for (scene, res) in [("Mic", 16), ("Lego", 24)] {
            let m = model(scene);
            let cam = registry::handle(scene).camera(res, res);
            let opts = RenderOptions::asdr_default(48);
            let reference = FrameEngine::new(opts.clone(), ExecPolicy::Sequential)
                .unwrap()
                .render_frame(&m, &cam);
            for policy in all_policies() {
                let out = FrameEngine::new(opts.clone(), policy).unwrap().render_frame(&m, &cam);
                assert_eq!(
                    out.image.pixels(),
                    reference.image.pixels(),
                    "{scene}: {policy:?} image diverged"
                );
                assert_eq!(out.stats, reference.stats, "{scene}: {policy:?} stats diverged");
                assert_eq!(out.plan, reference.plan, "{scene}: {policy:?} plan diverged");
            }
        }
    }

    #[test]
    fn worker_override_preserves_determinism() {
        // force multi-worker execution even on single-core machines so the
        // concurrent merge paths are exercised; output must not change
        let m = model("Lego");
        let cam = registry::handle("Lego").camera(20, 20);
        let opts = RenderOptions::asdr_default(48);
        let single = crate::algo::renderer::render(&m, &cam, &opts);
        let rows = FrameEngine::new(opts.clone(), ExecPolicy::StaticRows)
            .unwrap()
            .with_workers(4)
            .render_frame(&m, &cam);
        let steal = FrameEngine::new(opts, ExecPolicy::TileStealing { tile_size: 6 })
            .unwrap()
            .with_workers(3)
            .render_frame(&m, &cam);
        assert_eq!(rows.image, single.image);
        assert_eq!(steal.image, single.image);
        assert_eq!(rows.stats, single.stats);
        assert_eq!(steal.stats, single.stats);
    }

    #[test]
    fn policies_agree_under_early_termination() {
        let m = model("Hotdog");
        let cam = registry::handle("Hotdog").camera(20, 20);
        let mut opts = RenderOptions::instant_ngp(48);
        opts.early_termination = true;
        let seq =
            FrameEngine::new(opts.clone(), ExecPolicy::Sequential).unwrap().render_frame(&m, &cam);
        let steal = FrameEngine::new(opts, ExecPolicy::TileStealing { tile_size: 7 })
            .unwrap()
            .render_frame(&m, &cam);
        assert_eq!(seq.image, steal.image);
        assert_eq!(seq.stats, steal.stats);
        assert!(seq.stats.et_terminated_rays > 0);
    }

    #[test]
    fn shim_matches_engine() {
        let m = model("Mic");
        let cam = registry::handle("Mic").camera(16, 16);
        let opts = RenderOptions::asdr_default(48);
        let shim = crate::algo::renderer::render(&m, &cam, &opts);
        let engine = FrameEngine::new(opts, ExecPolicy::StaticRows).unwrap().render_frame(&m, &cam);
        assert_eq!(shim.image, engine.image);
        assert_eq!(shim.stats, engine.stats);
    }

    #[test]
    fn invalid_options_and_policies_are_rejected() {
        let mut opts = RenderOptions::instant_ngp(16);
        opts.approx_group = 0;
        assert!(FrameEngine::new(opts, ExecPolicy::Sequential).is_err());
        let err = FrameEngine::new(
            RenderOptions::instant_ngp(16),
            ExecPolicy::TileStealing { tile_size: 0 },
        );
        assert_eq!(err.unwrap_err(), "tile_size must be >= 1");
        assert!(PlanPolicy::Reuse { refresh_every: 0 }.validate().is_err());
        assert!(PlanPolicy::Reuse { refresh_every: 1 }.validate().is_ok());
    }

    #[test]
    fn planned_render_skips_probing_and_checks_dims() {
        let m = model("Mic");
        let cam = registry::handle("Mic").camera(16, 16);
        let engine =
            FrameEngine::new(RenderOptions::asdr_default(48), ExecPolicy::Sequential).unwrap();
        let probed = engine.render_frame(&m, &cam);
        assert!(probed.stats.probe_points > 0);
        let replay = engine.render_planned(&m, &cam, &probed.plan).unwrap();
        assert_eq!(replay.stats.probe_points, 0);
        assert_eq!(replay.stats.probe_rays, 0);
        assert_eq!(replay.image, probed.image, "same plan must reproduce the frame");
        assert_eq!(replay.timings.probe_s, 0.0);
        // mismatched dimensions are an error, not a panic
        let small_cam = registry::handle("Mic").camera(8, 8);
        assert!(engine.render_planned(&m, &small_cam, &probed.plan).is_err());
        // mismatched base count too
        let other =
            FrameEngine::new(RenderOptions::asdr_default(96), ExecPolicy::Sequential).unwrap();
        assert!(other.render_planned(&m, &cam, &probed.plan).is_err());
    }

    #[test]
    fn sequence_reuse_skips_probe_work() {
        let m = model("Mic");
        let cam = registry::handle("Mic").camera(16, 16);
        let engine =
            FrameEngine::new(RenderOptions::asdr_default(48), ExecPolicy::Sequential).unwrap();
        let frames: Vec<_> = (0..4).map(|_| SequenceFrame::new(&m, cam.clone())).collect();
        let per_frame = engine.render_sequence(&frames, &PlanPolicy::PerFrame).unwrap();
        let reuse =
            engine.render_sequence(&frames, &PlanPolicy::Reuse { refresh_every: 4 }).unwrap();
        assert_eq!(per_frame.reused_frames(), 0);
        assert_eq!(reuse.reused_frames(), 3);
        assert_eq!(reuse.probe_points() * 4, per_frame.probe_points());
        // a static scene under a static camera: reuse is exact
        for (a, b) in per_frame.frames.iter().zip(&reuse.frames) {
            assert_eq!(a.image, b.image);
        }
        assert_eq!(per_frame.aggregate.rays, 4 * 16 * 16);
        assert!(per_frame.timings.total_s() >= per_frame.timings.render_s);
    }

    #[test]
    fn sequence_refresh_period_reprobes() {
        let m = model("Mic");
        let cam = registry::handle("Mic").camera(12, 12);
        let engine =
            FrameEngine::new(RenderOptions::asdr_default(48), ExecPolicy::Sequential).unwrap();
        let frames: Vec<_> = (0..5).map(|_| SequenceFrame::new(&m, cam.clone())).collect();
        let out = engine.render_sequence(&frames, &PlanPolicy::Reuse { refresh_every: 2 }).unwrap();
        let reused: Vec<bool> = out.frames.iter().map(|f| f.plan_reused).collect();
        assert_eq!(reused, [false, true, false, true, false]);
    }

    #[test]
    fn sequence_resolution_change_forces_reprobe() {
        let m = model("Mic");
        let engine =
            FrameEngine::new(RenderOptions::asdr_default(48), ExecPolicy::Sequential).unwrap();
        let frames = [
            SequenceFrame::new(&m, registry::handle("Mic").camera(12, 12)),
            SequenceFrame::new(&m, registry::handle("Mic").camera(16, 16)),
        ];
        let out = engine.render_sequence(&frames, &PlanPolicy::Reuse { refresh_every: 8 }).unwrap();
        assert!(!out.frames[1].plan_reused, "a resolution change must re-probe");
        assert_eq!(out.frames[1].image.width(), 16);
    }

    #[test]
    fn empty_sequence_is_an_error() {
        let engine =
            FrameEngine::new(RenderOptions::instant_ngp(16), ExecPolicy::Sequential).unwrap();
        let frames: Vec<SequenceFrame<'_, NgpModel>> = Vec::new();
        assert!(engine.render_sequence(&frames, &PlanPolicy::PerFrame).is_err());
    }

    #[test]
    fn tile_lists_cover_the_frame_exactly() {
        for (w, h, t) in [(16u32, 16u32, 5u32), (17, 13, 4), (8, 8, 64), (3, 9, 1)] {
            let tiles = square_tiles(w, h, t);
            let mut covered = vec![0u32; (w * h) as usize];
            for tile in &tiles {
                for y in tile.y0..tile.y1 {
                    for x in tile.x0..tile.x1 {
                        covered[(y * w + x) as usize] += 1;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{w}x{h}/{t}: coverage hole or overlap");
        }
        let rows = row_tiles(10, 7, 3);
        assert_eq!(rows.iter().map(|t| (t.y1 - t.y0) * 10).sum::<u32>(), 70);
    }
}
