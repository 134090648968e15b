//! The frame engine: a session API over the two-phase ASDR dataflow.
//!
//! [`FrameEngine`] is built once from validated [`RenderOptions`] plus an
//! [`ExecPolicy`] and then renders any number of frames. Pixels are
//! independent, so every policy produces the byte-identical image and the
//! identical operation counts — only the wall-clock changes. A policy only
//! says how a frame is cut into tiles:
//!
//! * [`ExecPolicy::Sequential`] — the whole frame, one thread: the
//!   reference path;
//! * [`ExecPolicy::TileStealing`] — square tiles. Adaptive sampling makes
//!   per-tile cost wildly uneven, and workers that draw cheap background
//!   tiles steal the remaining hard ones.
//!
//! Both phases then run on the same workers — the caller plus
//! `workers − 1` helpers parked between frames
//! ([`asdr_math::par::fan_out`], which the fit shares), none woken for a
//! one-tile frame — which claim work through an atomic counter: Phase I the
//! probe-grid cells, Phase II the tiles, largest planned sample count
//! first, because the plan Phase I just paid for is the frame's cost
//! profile. A probe that kept the base count also hands its ray's buffers
//! to Phase II, which reads them at that pixel instead of asking the model
//! again.
//!
//! [`FrameEngine::render_sequence`] renders N model/camera frames under a
//! [`PlanPolicy`]: `PerFrame` re-probes Phase I for every frame, while
//! `Reuse { refresh_every }` carries the previous frame's [`SamplePlan`]
//! forward across temporally coherent frames, skipping the probe work
//! entirely between refreshes.

use crate::algo::adaptive::SamplePlan;
use crate::algo::renderer::{
    march, probe_cell, RayBuffers, RenderOptions, RenderOutput, RenderStats, Stop,
};
use asdr_math::par::{detected_workers, fan_out};
use asdr_math::{Camera, Image, Rgb};
use asdr_nerf::model::RadianceModel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How a frame is cut into tiles for its worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Single-threaded reference execution.
    Sequential,
    /// Square tiles pulled from a shared atomic counter, largest planned
    /// sample count first — work stealing without a scheduler, hand-rolled
    /// (no rayon in this environment).
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

    /// Σ planned samples over the tile: its Phase-II cost, known before it
    /// runs.
    fn planned(&self, plan: &SamplePlan) -> u64 {
        let row = |y| (self.x0..self.x1).map(move |x| plan.count(x, y) as u64);
        (self.y0..self.y1).flat_map(row).sum()
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

    /// Renders one frame: Phase I probing, then Phase II, both on the
    /// workers of the execution policy. The image and stats are identical
    /// across policies.
    pub fn render_frame<M: RadianceModel + Sync>(&self, model: &M, cam: &Camera) -> RenderOutput {
        let (tiles, workers) = self.frame_tiles(cam);
        let mut stats = frame_stats(cam, &self.opts);
        let t0 = Instant::now();
        let (plan, probes) = self.run_phase1(model, cam, workers, &mut stats);
        let probe_s = t0.elapsed().as_secs_f64();
        stats.planned_points = plan.total();
        let t1 = Instant::now();
        let image = self.run_phase2(model, cam, &plan, &probes, tiles, workers, &mut stats);
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
        let (tiles, workers) = self.frame_tiles(cam);
        let mut stats = frame_stats(cam, &self.opts);
        stats.planned_points = plan.total();
        let t1 = Instant::now();
        let image =
            self.run_phase2(model, cam, plan, &KeptProbes::default(), tiles, workers, &mut stats);
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

    /// How the policy puts a frame on threads: its tiles and the number of
    /// workers (the caller included) both phases run on. The budget is the
    /// engine override or the process-wide default, capped by the tile
    /// count, so a one-tile frame stays on the caller. Any worker count
    /// produces identical output.
    fn frame_tiles(&self, cam: &Camera) -> (Vec<Tile>, usize) {
        let (w, h) = (cam.width(), cam.height());
        let budget = self.workers.unwrap_or_else(detected_workers).max(1);
        let tiles = match self.policy {
            ExecPolicy::Sequential => return (vec![Tile { x0: 0, y0: 0, x1: w, y1: h }], 1),
            ExecPolicy::TileStealing { tile_size } => square_tiles(w, h, tile_size),
        };
        let workers = budget.min(tiles.len());
        (tiles, workers)
    }

    /// Phase I: probes the sparse pixel grid, one cell per claim, and
    /// derives the sample plan, charging probe work to `stats` (no-op plan
    /// and no probes when adaptivity is off). The grid, the counts and the
    /// kept probe buffers are assembled here from the returned cells, so
    /// none depends on who probed what.
    fn run_phase1<M: RadianceModel + Sync>(
        &self,
        model: &M,
        cam: &Camera,
        workers: usize,
        stats: &mut RenderStats,
    ) -> (SamplePlan, KeptProbes) {
        let (w, h, base_ns) = (cam.width(), cam.height(), self.opts.base_ns);
        let Some(acfg) = &self.opts.adaptive else {
            return (SamplePlan::uniform(w, h, base_ns), KeptProbes::default());
        };
        let d = acfg.probe_stride;
        let (gx, gy) = (w.div_ceil(d) as usize, h.div_ceil(d) as usize);
        let mut probe_counts = vec![vec![base_ns as u32; gx]; gy];
        let cells: Vec<_> = drain(model, workers, gx * gy, |i, scratch, buffers| {
            let cell = ((i % gx) as u32, (i / gx) as u32);
            probe_cell(model, cam, acfg, base_ns, cell, scratch, buffers)
        })
        .collect();
        for (i, (count, cost, _)) in &cells {
            probe_counts[i / gx][i % gx] = *count;
            stats.accumulate(cost);
        }
        let plan = SamplePlan::from_probes(w, h, base_ns, d, &probe_counts);
        // filed only once the plan is built: filed in the loop above, the
        // plan's interpolation right after it ran about three times slower
        // per pixel on the recording host (same code, same inputs)
        let mut rays: Vec<Option<RayBuffers>> =
            std::iter::repeat_with(|| None).take(gx * gy).collect();
        for (i, (_, _, kept)) in cells {
            rays[i] = kept;
        }
        (plan, KeptProbes { stride: d, columns: gx, rays })
    }

    /// Phase II: renders every pixel at its planned count, one tile per
    /// claim, reading a kept probe's buffers at its pixel. Returns the
    /// assembled image, charging the work to `stats`.
    #[allow(clippy::too_many_arguments)]
    fn run_phase2<M: RadianceModel + Sync>(
        &self,
        model: &M,
        cam: &Camera,
        plan: &SamplePlan,
        probes: &KeptProbes,
        mut tiles: Vec<Tile>,
        workers: usize,
        stats: &mut RenderStats,
    ) -> Image {
        if tiles.len() > workers {
            // list scheduling, longest first: the last tiles claimed decide
            // how unevenly the workers finish, so they should be the cheap
            // ones. Stable, so equal tiles keep their row-major order
            tiles.sort_by_cached_key(|t| std::cmp::Reverse(t.planned(plan)));
        }
        // allocated before the workers' transient buffers: the image outlives
        // the frame, and placed after them it would pin the heap above their
        // holes (measured: +0.3 MiB peak RSS over 24 kept frames)
        let mut image = Image::new(cam.width(), cam.height());
        let rendered = drain(model, workers, tiles.len(), |i, scratch, buffers| {
            render_tile(model, cam, plan, probes, &self.opts, tiles[i], scratch, buffers)
        });
        for (i, (pixels, local)) in rendered {
            blit(&mut image, tiles[i], &pixels);
            stats.accumulate(&local);
        }
        image
    }
}

/// Hands the units `0..units` out to `workers` threads ([`fan_out`]: the
/// caller and parked pool helpers), each with its own query scratch and ray
/// buffers, through a shared claim counter, and returns every
/// `(unit, result)` in no particular order.
fn drain<M: RadianceModel + Sync, R: Send>(
    model: &M,
    workers: usize,
    units: usize,
    run: impl Fn(usize, &mut M::Scratch, &mut RayBuffers) -> R + Sync,
) -> impl Iterator<Item = (usize, R)> {
    // Relaxed: a claim only has to be unique. The counter publishes no
    // data — what a worker computes returns through `fan_out`, whose
    // helpers report done under a lock the caller then takes
    let next = AtomicUsize::new(0);
    let per_worker = fan_out(workers.min(units), || {
        let (mut scratch, mut buffers) = (model.make_query_scratch(), RayBuffers::default());
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= units {
                return done;
            }
            done.push((i, run(i, &mut scratch, &mut buffers)));
        }
    });
    per_worker.into_iter().flatten()
}

/// Per-frame fixed stats: ray count and the fixed-sampling reference
/// workload.
fn frame_stats(cam: &Camera, opts: &RenderOptions) -> RenderStats {
    let rays = cam.pixel_count() as u64;
    RenderStats { rays, base_points: rays * opts.base_ns as u64, ..Default::default() }
}

/// What Phase I hands Phase II: the buffers of each probe ray that kept the
/// base count, by probe cell. Probe cell `(jx, jy)` is pixel `(jx·d, jy·d)`
/// (`jx < ⌈w/d⌉`, so `probe_cell`'s clamp never moves it), which Phase II
/// marches along the same ray; at the base count, so over the same
/// midpoints, it reads the probe's buffers instead of asking the model again.
#[derive(Debug, Default)]
struct KeptProbes {
    /// The probe pitch `d`; 0 for a frame without Phase I.
    stride: u32,
    /// Probe cells per row.
    columns: usize,
    /// Row-major by cell: the probe's buffers if it kept the base count.
    rays: Vec<Option<RayBuffers>>,
}

impl KeptProbes {
    /// The kept buffers of the probe ray through pixel `(px, py)`, if any.
    fn at(&self, px: u32, py: u32) -> Option<&RayBuffers> {
        let d = self.stride;
        if d == 0 || !px.is_multiple_of(d) || !py.is_multiple_of(d) {
            return None;
        }
        self.rays[(py / d) as usize * self.columns + (px / d) as usize].as_ref()
    }
}

/// Renders one tile into a fresh row-major pixel buffer.
#[allow(clippy::too_many_arguments)]
fn render_tile<M: RadianceModel>(
    model: &M,
    cam: &Camera,
    plan: &SamplePlan,
    probes: &KeptProbes,
    opts: &RenderOptions,
    tile: Tile,
    scratch: &mut M::Scratch,
    buffers: &mut RayBuffers,
) -> (Vec<Rgb>, RenderStats) {
    let w = tile.width();
    let mut pixels = vec![Rgb::BLACK; w * (tile.y1 - tile.y0) as usize];
    let mut local = RenderStats::default();
    let group = opts.approx_group;
    let stop = if opts.early_termination { Stop::Threshold } else { Stop::Saturated };
    for py in tile.y0..tile.y1 {
        for px in tile.x0..tile.x1 {
            let ray = cam.ray_for_pixel(px, py);
            let count = plan.count(px, py) as usize;
            let probe = probes.at(px, py);
            pixels[(py - tile.y0) as usize * w + (px - tile.x0) as usize] =
                march(model, &ray, count, group, stop, probe, scratch, buffers, &mut local);
        }
    }
    (pixels, local)
}

/// Writes a rendered tile into the frame with one row-span copy per tile
/// row.
fn blit(image: &mut Image, tile: Tile, pixels: &[Rgb]) {
    for (r, row) in pixels.chunks_exact(tile.width().max(1)).enumerate() {
        image.set_row_span(tile.x0, tile.y0 + r as u32, row);
    }
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
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    fn model(name: &str) -> NgpModel {
        fit_ngp(registry::handle(name).build().as_ref(), &GridConfig::tiny())
    }

    fn all_policies() -> [ExecPolicy; 3] {
        [
            ExecPolicy::Sequential,
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
        let single =
            FrameEngine::new(opts.clone(), ExecPolicy::Sequential).unwrap().render_frame(&m, &cam);
        let steal = FrameEngine::new(opts, ExecPolicy::TileStealing { tile_size: 6 })
            .unwrap()
            .with_workers(3)
            .render_frame(&m, &cam);
        assert_eq!(steal.image, single.image);
        assert_eq!(steal.stats, single.stats);

        // every policy × worker count, 64 being more than there are probe
        // cells (5×4) or tiles, on a ragged frame (25×17 under stride-5
        // probes and 5-pixel tiles) with early termination on
        let cam = registry::handle("Lego").camera(25, 17);
        let mut opts = RenderOptions::asdr_default(48);
        opts.early_termination = true;
        let reference =
            FrameEngine::new(opts.clone(), ExecPolicy::Sequential).unwrap().render_frame(&m, &cam);
        assert!(reference.stats.probe_rays == 20 && reference.stats.et_terminated_rays > 0);
        for policy in all_policies() {
            for workers in [1, 2, 3, 5, 64] {
                let out = FrameEngine::new(opts.clone(), policy)
                    .unwrap()
                    .with_workers(workers)
                    .render_frame(&m, &cam);
                assert_eq!(out.image, reference.image, "{policy:?} × {workers}: image");
                assert_eq!(out.plan, reference.plan, "{policy:?} × {workers}: plan");
                assert_eq!(out.stats, reference.stats, "{policy:?} × {workers}: stats");
            }
        }
    }

    /// A model that records which threads query it, and makes the first
    /// `density_into` of each of the first `parties` threads wait
    /// for the others: with two parties, a render completes only if two
    /// threads are inside the model at once.
    struct Rendezvous {
        inner: NgpModel,
        /// Distinct querying threads, in order of first query.
        seen: Mutex<Vec<ThreadId>>,
        parties: usize,
        barrier: Barrier,
    }

    impl Rendezvous {
        fn new(inner: NgpModel, parties: usize) -> Self {
            Rendezvous { inner, seen: Mutex::default(), parties, barrier: Barrier::new(parties) }
        }

        fn seen(&self) -> Vec<ThreadId> {
            self.seen.lock().unwrap().clone()
        }
    }

    impl RadianceModel for Rendezvous {
        type Scratch = <NgpModel as RadianceModel>::Scratch;

        fn make_query_scratch(&self) -> Self::Scratch {
            self.inner.make_query_scratch()
        }

        fn model_bounds(&self) -> asdr_math::Aabb {
            self.inner.model_bounds()
        }

        // not the inner model's answer: a thread whose first rays are all
        // empty space would never reach the barrier in `density_into`
        fn occupied_along(
            &self,
            _: &asdr_math::Ray,
            ts: impl IntoIterator<Item = f32>,
            out: &mut Vec<bool>,
        ) {
            out.clear();
            out.extend(ts.into_iter().map(|_| true));
        }

        fn density_into(
            &self,
            points: &[asdr_math::Vec3],
            scratch: &mut Self::Scratch,
            sigma: &mut [f32],
        ) {
            let id = std::thread::current().id();
            let arrival = {
                let mut seen = self.seen.lock().unwrap();
                (!seen.contains(&id)).then(|| {
                    seen.push(id);
                    seen.len()
                })
            };
            // later threads (Phase II's helper is a new one) pass through
            if arrival.is_some_and(|nth| nth <= self.parties) {
                self.barrier.wait();
            }
            self.inner.density_into(points, scratch, sigma);
        }

        fn color_into(
            &self,
            dir: asdr_math::Vec3,
            slots: &[usize],
            scratch: &mut Self::Scratch,
            colors: &mut [Rgb],
        ) {
            self.inner.color_into(dir, slots, scratch, colors);
        }

        fn stage_flops(&self) -> (u64, u64, u64) {
            self.inner.stage_flops()
        }
    }

    #[test]
    fn phase_one_runs_on_two_threads_at_once() {
        // the caller's first probe ray blocks in the model until a second
        // thread queries it, which only another Phase-I worker can do. Run
        // on a thread, so a serial probe fails by timeout instead of hanging
        let m = Rendezvous::new(model("Lego"), 2);
        let cam = registry::handle("Lego").camera(24, 24);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let engine = FrameEngine::new(
                RenderOptions::asdr_default(48),
                ExecPolicy::TileStealing { tile_size: 8 },
            )
            .unwrap()
            .with_workers(2);
            let out = engine.render_frame(&m, &cam);
            let _ = tx.send((std::thread::current().id(), m.seen(), out.stats.probe_rays));
        });
        let (caller, seen, probe_rays) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("Phase I never had two threads inside the model: the probe is serial");
        assert_eq!(probe_rays, 25);
        assert!(seen.contains(&caller), "the caller renders too");
        assert!(seen.len() >= 2);
    }

    #[test]
    fn single_unit_frames_stay_on_the_caller() {
        let m = Rendezvous::new(model("Lego"), 1);
        let me = std::thread::current().id();
        let square = registry::handle("Lego").camera(24, 24);
        let one_row = registry::handle("Lego").camera(24, 1);
        let engine = |policy| FrameEngine::new(RenderOptions::asdr_default(48), policy).unwrap();
        for (what, engine, cam) in [
            ("Sequential", engine(ExecPolicy::Sequential).with_workers(8), &square),
            (
                "one tile",
                engine(ExecPolicy::TileStealing { tile_size: 64 }).with_workers(8),
                &square,
            ),
            (
                "one worker",
                engine(ExecPolicy::TileStealing { tile_size: 24 }).with_workers(1),
                &square,
            ),
            (
                "one row",
                engine(ExecPolicy::TileStealing { tile_size: 24 }).with_workers(8),
                &one_row,
            ),
        ] {
            let out = engine.render_frame(&m, cam);
            assert!(out.stats.density_points > 0, "{what}: the frame queried the model");
            assert_eq!(m.seen(), [me], "{what}: a single-unit frame left the caller's thread");
        }
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
    }
}
