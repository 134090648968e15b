//! The software ASDR renderer: the paper's two-phase dataflow (§5.5) at the
//! algorithm level.
//!
//! Phase I probes a sparse pixel grid at the full sample count and derives
//! the per-pixel sample plan (adaptive sampling). Phase II renders every
//! pixel at its planned count, running the density MLP for all samples and
//! the color MLP only for group leaders (color–density decoupling), with
//! optional early termination at group granularity.
//!
//! Beyond the image, the renderer returns [`RenderStats`] — the exact
//! operation counts (density executions, color executions, probe overhead,
//! interpolations) that drive the architecture and baseline timing models.
//!
//! The [`render`] free function survives as a thin shim; the session API —
//! execution policies, sample-plan reuse, multi-frame sequences — lives in
//! [`crate::algo::engine::FrameEngine`].

use crate::algo::adaptive::{choose_count_validated, AdaptiveConfig, SamplePlan};
use crate::algo::approx::interpolate_followers;
use crate::algo::engine::PhaseTimings;
use crate::algo::volrend::{SamplePoint, EARLY_TERM_TRANSMITTANCE};
use asdr_math::{Camera, Image, Ray, Rgb};
use asdr_nerf::model::RadianceModel;

/// Renderer configuration: which ASDR optimizations are active.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderOptions {
    /// Full (reference) sample count per ray (paper: 192).
    pub base_ns: usize,
    /// Adaptive sampling (Phase I probing); `None` = fixed count.
    pub adaptive: Option<AdaptiveConfig>,
    /// Color-decoupling group size `n`; 1 disables the approximation.
    pub approx_group: usize,
    /// Early termination of opaque rays.
    pub early_termination: bool,
}

impl RenderOptions {
    /// Baseline Instant-NGP rendering: fixed count, full color MLP, no ET.
    pub fn instant_ngp(base_ns: usize) -> Self {
        RenderOptions { base_ns, adaptive: None, approx_group: 1, early_termination: false }
    }

    /// The ASDR default: adaptive sampling (δ = 1/2048) plus group-2
    /// rendering approximation (the configuration behind Figs. 16–19).
    pub fn asdr_default(base_ns: usize) -> Self {
        RenderOptions {
            base_ns,
            adaptive: Some(AdaptiveConfig::paper(base_ns)),
            approx_group: 2,
            early_termination: false,
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_ns == 0 {
            return Err("base_ns must be >= 1".into());
        }
        if self.approx_group == 0 {
            return Err("approx_group must be >= 1".into());
        }
        if let Some(a) = &self.adaptive {
            a.validate(self.base_ns)?;
        }
        Ok(())
    }
}

/// Operation counts of one rendered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderStats {
    /// Primary rays (pixels).
    pub rays: u64,
    /// Phase-I probe rays.
    pub probe_rays: u64,
    /// Phase-I sample points (each runs density *and* color MLPs).
    pub probe_points: u64,
    /// Phase-II density-MLP executions.
    pub density_points: u64,
    /// Phase-II color-MLP executions (group leaders).
    pub color_points: u64,
    /// Phase-II follower points whose color was interpolated.
    pub interpolated_points: u64,
    /// Σ planned samples over the frame (before early termination).
    pub planned_points: u64,
    /// `rays × base_ns` — the fixed-sampling reference workload.
    pub base_points: u64,
    /// Rays stopped early by termination.
    pub et_terminated_rays: u64,
}

impl RenderStats {
    /// Adds another frame's counts into this one (sequence aggregation).
    pub fn accumulate(&mut self, other: &RenderStats) {
        self.rays += other.rays;
        self.probe_rays += other.probe_rays;
        self.probe_points += other.probe_points;
        self.density_points += other.density_points;
        self.color_points += other.color_points;
        self.interpolated_points += other.interpolated_points;
        self.planned_points += other.planned_points;
        self.base_points += other.base_points;
        self.et_terminated_rays += other.et_terminated_rays;
    }

    /// Total density-MLP executions including the probe phase.
    pub fn total_density(&self) -> u64 {
        self.probe_points + self.density_points
    }

    /// Total color-MLP executions including the probe phase.
    pub fn total_color(&self) -> u64 {
        self.probe_points + self.color_points
    }

    /// Total encoded sample points (each encoding = one hash-grid lookup
    /// sweep).
    pub fn total_encoded(&self) -> u64 {
        self.total_density()
    }

    /// Fraction of the fixed-sampling workload that was actually executed
    /// (density path).
    pub fn density_workload_ratio(&self) -> f64 {
        self.total_density() as f64 / self.base_points.max(1) as f64
    }
}

/// A rendered frame with its statistics and sample plan.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// The image.
    pub image: Image,
    /// Operation counts.
    pub stats: RenderStats,
    /// The per-pixel sample plan used in Phase II.
    pub plan: SamplePlan,
    /// Wall-clock time spent in each phase.
    pub timings: PhaseTimings,
}

/// Phase I, one cell of the probe grid: fully evaluates the probe ray of
/// cell `(jx, jy)` and returns its chosen sample count plus the sample
/// points it cost. Cells are independent, so the engine may probe them on
/// any thread in any order; `acfg` is the engine's validated config.
pub(crate) fn probe_cell<M: RadianceModel>(
    model: &M,
    cam: &Camera,
    acfg: &AdaptiveConfig,
    base_ns: usize,
    (jx, jy): (u32, u32),
    scratch: &mut M::Scratch,
    rays: &mut RayScratch,
) -> (u32, u64) {
    let d = acfg.probe_stride;
    let px = (jx * d).min(cam.width() - 1);
    let py = (jy * d).min(cam.height() - 1);
    let ray = cam.ray_for_pixel(px, py);
    let pts = evaluate_full_ray(model, &ray, base_ns, scratch, rays);
    (choose_count_validated(pts, acfg, base_ns) as u32, pts.len() as u64)
}

/// One worker's per-ray sample buffers, kept beside the model's query
/// scratch and reused from ray to ray so neither phase allocates per ray.
#[derive(Debug, Default)]
pub(crate) struct RayScratch {
    /// Phase I: the fully evaluated samples of the current probe ray.
    points: Vec<SamplePoint>,
    /// Phase II: sample distances, densities, colors and group-leader marks
    /// of the current ray.
    ts: Vec<f32>,
    sigmas: Vec<f32>,
    colors: Vec<Rgb>,
    is_leader: Vec<bool>,
}

/// Fully evaluates `count` samples (density + color) along a ray — the
/// Phase-I probe path.
fn evaluate_full_ray<'r, M: RadianceModel>(
    model: &M,
    ray: &Ray,
    count: usize,
    scratch: &mut M::Scratch,
    rays: &'r mut RayScratch,
) -> &'r [SamplePoint] {
    rays.points.clear();
    if let Some(range) = model.model_bounds().intersect(ray).filter(|r| !r.is_empty()) {
        rays.points.extend(range.midpoints_iter(count).map(|t| {
            let sigma = model.density_into(ray.at(t), scratch);
            let color = model.color_into(ray.dir, scratch);
            SamplePoint { t, sigma, color }
        }));
    }
    &rays.points
}

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RayWork {
    pub(crate) density: u64,
    pub(crate) color: u64,
    pub(crate) interpolated: u64,
    pub(crate) terminated: bool,
}

/// Phase-II per-ray pipeline: density for every sample, color for group
/// leaders, follower interpolation, group-granular early termination.
pub(crate) fn render_ray<M: RadianceModel>(
    model: &M,
    ray: &Ray,
    count: usize,
    opts: &RenderOptions,
    scratch: &mut M::Scratch,
    rays: &mut RayScratch,
) -> (Rgb, RayWork) {
    let mut work = RayWork::default();
    let Some(range) = model.model_bounds().intersect(ray) else {
        return (Rgb::BLACK, work);
    };
    if range.is_empty() || count == 0 {
        return (Rgb::BLACK, work);
    }
    let RayScratch { ts, sigmas, colors, is_leader, .. } = rays;
    ts.clear();
    ts.extend(range.midpoints_iter(count));
    sigmas.clear();
    sigmas.resize(count, 0.0);
    colors.clear();
    colors.resize(count, Rgb::BLACK);
    is_leader.clear();
    is_leader.resize(count, false);
    let n = opts.approx_group;

    let mut acc = Rgb::BLACK;
    let mut transmittance = 1.0f32;

    let groups = count.div_ceil(n);
    let mut evaluated_until = 0usize; // samples with density computed
    let mut composited_until = 0usize;

    'groups: for g in 0..groups {
        let lo = g * n;
        let hi = ((g + 1) * n).min(count);
        // densities for this group
        for (i, &t) in ts.iter().enumerate().take(hi).skip(lo) {
            sigmas[i] = model.density_into(ray.at(t), scratch);
            if i == lo {
                // group leader: full color path
                colors[i] = model.color_into(ray.dir, scratch);
                is_leader[i] = true;
                work.color += 1;
            }
            work.density += 1;
        }
        evaluated_until = hi;

        // fill in the previous group's followers and composite everything
        // up to (excluding) this group's leader. The span stops short of
        // that leader, so the followers hold their own leader's color —
        // kept as is: interpolating toward it would change every frame
        if g > 0 {
            interpolate_span(ts, colors, is_leader, composited_until, lo);
            work.interpolated += (lo - composited_until).saturating_sub(1) as u64;
            let (c, t_new) =
                composite_span(ts, sigmas, colors, composited_until, lo, acc, transmittance);
            acc = c;
            transmittance = t_new;
            composited_until = lo;
            if opts.early_termination && transmittance < EARLY_TERM_TRANSMITTANCE {
                work.terminated = true;
                break 'groups;
            }
        }
    }

    // tail: composite the remaining evaluated samples (followers hold the
    // last leader's color)
    if composited_until < evaluated_until && !work.terminated {
        interpolate_span(ts, colors, is_leader, composited_until, evaluated_until);
        work.interpolated += (evaluated_until - composited_until).saturating_sub(1) as u64;
        let (c, t_new) = composite_span(
            ts,
            sigmas,
            colors,
            composited_until,
            evaluated_until,
            acc,
            transmittance,
        );
        acc = c;
        transmittance = t_new;
    }
    let _ = transmittance;
    (acc.clamp01(), work)
}

/// Interpolates follower colors in `[lo, hi)` between the leaders inside
/// that span. `lo` is always a group leader (spans start where compositing
/// stopped, at a group boundary), so followers see the same bracketing
/// leaders as they would over the whole evaluated prefix `[0, hi)`.
fn interpolate_span(ts: &[f32], colors: &mut [Rgb], is_leader: &[bool], lo: usize, hi: usize) {
    debug_assert!(lo >= hi || is_leader[lo], "a span starts at a group leader");
    interpolate_followers(&ts[lo..hi], &mut colors[lo..hi], &is_leader[lo..hi]);
}

/// Composites samples `[lo, hi)` continuing from `(acc, transmittance)`.
#[allow(clippy::too_many_arguments)]
fn composite_span(
    ts: &[f32],
    sigmas: &[f32],
    colors: &[Rgb],
    lo: usize,
    hi: usize,
    mut acc: Rgb,
    mut transmittance: f32,
) -> (Rgb, f32) {
    for i in lo..hi {
        let d = if i + 1 < ts.len() {
            ts[i + 1] - ts[i]
        } else if ts.len() >= 2 {
            ts[i] - ts[i - 1]
        } else {
            1.0
        };
        let alpha = 1.0 - (-sigmas[i].max(0.0) * d).exp();
        acc += colors[i] * (transmittance * alpha);
        transmittance *= 1.0 - alpha;
    }
    (acc, transmittance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::engine::{ExecPolicy, FrameEngine};
    use asdr_math::metrics::psnr;
    use asdr_nerf::fit::fit_ngp;
    use asdr_nerf::grid::GridConfig;
    use asdr_nerf::NgpModel;
    use asdr_scenes::registry;

    fn model(name: &str) -> NgpModel {
        fit_ngp(registry::handle(name).build().as_ref(), &GridConfig::tiny())
    }

    fn render(model: &NgpModel, cam: &Camera, opts: &RenderOptions) -> RenderOutput {
        FrameEngine::new(opts.clone(), ExecPolicy::StaticRows)
            .expect("options are valid")
            .render_frame(model, cam)
    }

    /// The fixed-count baseline image quality is measured against.
    fn render_reference(model: &NgpModel, cam: &Camera, base_ns: usize) -> Image {
        render(model, cam, &RenderOptions::instant_ngp(base_ns)).image
    }

    #[test]
    fn fixed_rendering_matches_direct_composite() {
        let m = model("Mic");
        let cam = registry::handle("Mic").camera(16, 16);
        let out = render(&m, &cam, &RenderOptions::instant_ngp(48));
        assert_eq!(out.stats.density_points, out.stats.color_points);
        assert_eq!(out.stats.planned_points, 16 * 16 * 48);
        assert_eq!(out.stats.probe_points, 0);
        assert!(out.image.mean_luminance() > 0.01);
    }

    #[test]
    fn approximation_halves_color_work() {
        let m = model("Lego");
        let cam = registry::handle("Lego").camera(16, 16);
        let mut opts = RenderOptions::instant_ngp(48);
        opts.approx_group = 2;
        let out = render(&m, &cam, &opts);
        // color executions ≈ half of density executions
        let ratio = out.stats.color_points as f64 / out.stats.density_points as f64;
        assert!((ratio - 0.5).abs() < 0.05, "color/density = {ratio}");
        assert!(out.stats.interpolated_points > 0);
    }

    #[test]
    fn approximation_quality_loss_is_small() {
        let m = model("Hotdog");
        let cam = registry::handle("Hotdog").camera(24, 24);
        let reference = render_reference(&m, &cam, 64);
        let mut opts = RenderOptions::instant_ngp(64);
        opts.approx_group = 2;
        let approx = render(&m, &cam, &opts).image;
        let p = psnr(&approx, &reference);
        assert!(p > 28.0, "group-2 approximation PSNR {p} too low");
    }

    #[test]
    fn adaptive_reduces_planned_points() {
        let m = model("Mic");
        let cam = registry::handle("Mic").camera(25, 25);
        let out = render(&m, &cam, &RenderOptions::asdr_default(48));
        assert!(
            out.stats.planned_points < out.stats.base_points,
            "{} vs {}",
            out.stats.planned_points,
            out.stats.base_points
        );
        // background-heavy scene: big savings expected
        assert!(out.plan.average() < 40.0, "average count {}", out.plan.average());
        assert!(out.stats.probe_rays > 0);
    }

    #[test]
    fn adaptive_quality_close_to_reference() {
        let m = model("Chair");
        let cam = registry::handle("Chair").camera(25, 25);
        let reference = render_reference(&m, &cam, 64);
        let out = render(&m, &cam, &RenderOptions::asdr_default(64));
        let p = psnr(&out.image, &reference);
        assert!(p > 30.0, "ASDR vs NGP PSNR {p} too low");
    }

    #[test]
    fn early_termination_saves_work_losslessly() {
        let m = model("Hotdog");
        let cam = registry::handle("Hotdog").camera(20, 20);
        let mut with_et = RenderOptions::instant_ngp(64);
        with_et.early_termination = true;
        let base = render(&m, &cam, &RenderOptions::instant_ngp(64));
        let et = render(&m, &cam, &with_et);
        assert!(et.stats.density_points < base.stats.density_points);
        assert!(et.stats.et_terminated_rays > 0);
        let p = psnr(&et.image, &base.image);
        assert!(p > 40.0, "ET must be (nearly) lossless, got {p} dB");
    }

    #[test]
    fn stats_are_internally_consistent() {
        let m = model("Ficus");
        let cam = registry::handle("Ficus").camera(15, 15);
        let out = render(&m, &cam, &RenderOptions::asdr_default(48));
        let s = &out.stats;
        assert_eq!(s.rays, 225);
        assert!(s.color_points <= s.density_points);
        assert!(s.density_points <= s.planned_points);
        assert!(s.total_density() >= s.density_points);
        assert!(s.density_workload_ratio() > 0.0);
    }
}
