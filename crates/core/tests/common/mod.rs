//! The kept scalar reference renderer: the two-phase dataflow written the
//! plain way — every sample evaluated in full, every term composited, no
//! stop but early termination — and the check that a frame through the
//! engine is bit for bit what it renders, and runs on the host exactly the
//! counted work it did not skip.

mod reference;

use asdr_core::algo::adaptive::choose_count;
use asdr_core::algo::{
    ExecPolicy, FrameEngine, RenderOptions, RenderOutput, RenderStats, SamplePlan,
};
use asdr_math::{Aabb, Camera, Image, Ray, Rgb, Vec3};
use asdr_nerf::model::RadianceModel;
use reference::reference_ray;
use std::sync::atomic::{AtomicU64, Ordering};

/// `inner`, counting the points whose density and colour were asked through
/// it (a call asking for two counts two).
struct Counting<'a, M> {
    inner: &'a M,
    density: AtomicU64,
    color: AtomicU64,
}

impl<M: RadianceModel> RadianceModel for Counting<'_, M> {
    type Scratch = M::Scratch;

    fn make_query_scratch(&self) -> M::Scratch {
        self.inner.make_query_scratch()
    }

    fn model_bounds(&self) -> Aabb {
        self.inner.model_bounds()
    }

    fn occupied_along(&self, ray: &Ray, ts: impl IntoIterator<Item = f32>, out: &mut Vec<bool>) {
        self.inner.occupied_along(ray, ts, out);
    }

    fn density_into(&self, points: &[Vec3], scratch: &mut M::Scratch, sigma: &mut [f32]) {
        self.density.fetch_add(points.len() as u64, Ordering::Relaxed);
        self.inner.density_into(points, scratch, sigma);
    }

    fn color_into(
        &self,
        view_dir: Vec3,
        slots: &[usize],
        scratch: &mut M::Scratch,
        colors: &mut [Rgb],
    ) {
        self.color.fetch_add(slots.len() as u64, Ordering::Relaxed);
        self.inner.color_into(view_dir, slots, scratch, colors);
    }

    fn stage_flops(&self) -> (u64, u64, u64) {
        self.inner.stage_flops()
    }
}

/// The pixel probe cell `(jx, jy)` marches, for a probe pitch `d`.
fn probe_pixel(cam: &Camera, d: u32, (jx, jy): (u32, u32)) -> (u32, u32) {
    ((jx * d).min(cam.width() - 1), (jy * d).min(cam.height() - 1))
}

/// Every probe pixel of `cam` under `opts`, row by row; none without
/// adaptive sampling.
fn probe_pixels(cam: &Camera, opts: &RenderOptions) -> Vec<(u32, u32)> {
    let Some(d) = opts.adaptive.as_ref().map(|a| a.probe_stride) else {
        return Vec::new();
    };
    let (gx, gy) = (cam.width().div_ceil(d), cam.height().div_ceil(d));
    (0..gy).flat_map(|jy| (0..gx).map(move |jx| probe_pixel(cam, d, (jx, jy)))).collect()
}

/// How many probe pixels of `plan` are planned at the base count: the
/// pixels whose probe Phase II may read.
pub fn probes_at_base(cam: &Camera, opts: &RenderOptions, plan: &SamplePlan) -> usize {
    let base = opts.base_ns as u32;
    probe_pixels(cam, opts).into_iter().filter(|&(x, y)| plan.count(x, y) == base).count()
}

/// The density queries Phase I makes: a probe ray runs one for each of its
/// samples in an occupied cell, and none elsewhere.
fn probe_density_calls<M: RadianceModel>(model: &M, cam: &Camera, opts: &RenderOptions) -> u64 {
    let mut occupied = Vec::new();
    let mut calls = 0;
    for (x, y) in probe_pixels(cam, opts) {
        let ray = cam.ray_for_pixel(x, y);
        let Some(range) = model.model_bounds().intersect(&ray).filter(|r| !r.is_empty()) else {
            continue;
        };
        model.occupied_along(&ray, range.midpoints(opts.base_ns), &mut occupied);
        calls += occupied.iter().filter(|&&o| o).count() as u64;
    }
    calls
}

/// Renders `cam` without the engine: Phase I marches each probe-grid pixel
/// at the base count with colour for every sample and picks its count with
/// the public `choose_count`, the plan is `SamplePlan::from_probes`, and
/// Phase II marches every pixel at its planned count ([`reference_ray`]).
/// Returns the image, the plan and the counted work, with nothing skipped.
pub fn reference_frame<M: RadianceModel>(
    model: &M,
    cam: &Camera,
    opts: &RenderOptions,
) -> (Image, SamplePlan, RenderStats) {
    let (w, h, base_ns) = (cam.width(), cam.height(), opts.base_ns);
    let mut scratch = model.make_query_scratch();
    let rays = cam.pixel_count() as u64;
    let mut stats = RenderStats { rays, base_points: rays * base_ns as u64, ..Default::default() };
    let plan = match &opts.adaptive {
        None => SamplePlan::uniform(w, h, base_ns),
        Some(acfg) => {
            let d = acfg.probe_stride;
            let mut probe_counts = Vec::new();
            for jy in 0..h.div_ceil(d) {
                let mut row = Vec::new();
                for jx in 0..w.div_ceil(d) {
                    let (x, y) = probe_pixel(cam, d, (jx, jy));
                    let ray = cam.ray_for_pixel(x, y);
                    let (_, points, probe) =
                        reference_ray(model, &ray, base_ns, 1, false, &mut scratch);
                    stats.probe_rays += 1;
                    stats.probe_points += probe.density_points;
                    row.push(choose_count(&points, acfg, base_ns) as u32);
                }
                probe_counts.push(row);
            }
            SamplePlan::from_probes(w, h, base_ns, d, &probe_counts)
        }
    };
    stats.planned_points = plan.total();
    let mut image = Image::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let ray = cam.ray_for_pixel(x, y);
            let count = plan.count(x, y) as usize;
            let (pixel, _, marched) = reference_ray(
                model,
                &ray,
                count,
                opts.approx_group,
                opts.early_termination,
                &mut scratch,
            );
            image.set(x, y, pixel);
            stats.accumulate(&marched);
        }
    }
    (image, plan, stats)
}

/// Renders `cam` through the engine and through [`reference_frame`] and
/// checks the two agree bit for bit — image, sample plan, every counted
/// field — and that the engine's frame made exactly the density and colour
/// queries it counted and did not skip. It also pins what reading the probe
/// saves: with a probe pixel planned at the base count, the frame makes
/// fewer density queries than its probes plus the same plan rendered
/// without them (`render_planned`); with none, exactly as many. Returns the
/// engine's frame.
pub fn assert_matches_reference<M: RadianceModel + Sync>(
    model: &M,
    cam: &Camera,
    opts: &RenderOptions,
    what: &str,
) -> RenderOutput {
    let engine = FrameEngine::new(opts.clone(), ExecPolicy::Sequential).expect("valid options");
    let counting = |inner| Counting { inner, density: AtomicU64::new(0), color: AtomicU64::new(0) };
    let frame = counting(model);
    let out = engine.render_frame(&frame, cam);
    let (image, plan, counted) = reference_frame(model, cam, opts);
    let bits = |image: &Image| -> Vec<[u32; 3]> {
        image.pixels().iter().map(|c| [c.r, c.g, c.b].map(f32::to_bits)).collect()
    };
    assert_eq!(bits(&out.image), bits(&image), "{what}: image");
    assert_eq!(out.plan, plan, "{what}: sample plan");
    let s = out.stats;
    assert_eq!(RenderStats { skipped_density: 0, skipped_color: 0, ..s }, counted, "{what}");
    let (density, color) = (frame.density.into_inner(), frame.color.into_inner());
    assert_eq!(density + s.skipped_density, s.total_density(), "{what}: density calls, {s:?}");
    assert_eq!(color + s.skipped_color, s.total_color(), "{what}: colour calls, {s:?}");

    let planned = counting(model);
    let replay = engine.render_planned(&planned, cam, &out.plan).expect("the frame's own plan");
    assert_eq!(bits(&replay.image), bits(&image), "{what}: the plan without its probes");
    let unshared = probe_density_calls(model, cam, opts) + planned.density.into_inner();
    if probes_at_base(cam, opts, &out.plan) > 0 {
        assert!(density < unshared, "{what}: {density} density calls, {unshared} without reuse");
    } else {
        assert_eq!(density, unshared, "{what}: density calls");
    }
    out
}
