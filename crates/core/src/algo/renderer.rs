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
//! They count what the sample plan asks for; the software march itself does
//! not evaluate samples in empty space (see `march`), and says how many it
//! skipped.
//!
//! Both phases walk a ray through the one `march` below; the session API —
//! execution policies, sample-plan reuse, multi-frame sequences — lives in
//! [`crate::algo::engine::FrameEngine`].

use crate::algo::adaptive::{choose_count_validated, AdaptiveConfig, SamplePlan};
use crate::algo::engine::PhaseTimings;
use crate::algo::volrend::{composite_span, SamplePoint, EARLY_TERM_TRANSMITTANCE};
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
///
/// Every field down to `et_terminated_rays` counts *the evaluations the
/// sample plan asks for* — what a chip without an occupancy grid executes,
/// and what the chip simulator and the GPU / NeuRex baselines are fed. They
/// do not depend on what the host skipped: the two `skipped_*` fields say
/// how much of that counted work the software march did not run because the
/// sample sat in empty space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RenderStats {
    /// Primary rays (pixels).
    pub rays: u64,
    /// Phase-I probe rays.
    pub probe_rays: u64,
    /// Phase-I sample points (each asks for density *and* color).
    pub probe_points: u64,
    /// Phase-II density evaluations the plan asks for.
    pub density_points: u64,
    /// Phase-II color evaluations the plan asks for (group leaders).
    pub color_points: u64,
    /// Phase-II follower points whose color was interpolated.
    pub interpolated_points: u64,
    /// Σ planned samples over the frame (before early termination).
    pub planned_points: u64,
    /// `rays × base_ns` — the fixed-sampling reference workload.
    pub base_points: u64,
    /// Rays stopped early by termination.
    pub et_terminated_rays: u64,
    /// Of `probe_points + density_points`, the density evaluations the host
    /// did not run: samples in cells the model calls unoccupied.
    pub skipped_density: u64,
    /// Of `probe_points + color_points`, the color evaluations the host did
    /// not run: leaders of groups with every sample unoccupied.
    pub skipped_color: u64,
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
        self.skipped_density += other.skipped_density;
        self.skipped_color += other.skipped_color;
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

    /// Fraction of the fixed-sampling workload the plan asks for (density
    /// path) — counted work, whatever the host skipped of it.
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

/// Phase I, one cell of the probe grid: marches the probe ray of cell
/// `(jx, jy)` at the full count with every colour evaluated, and returns its
/// chosen sample count plus what the ray cost the frame. Cells are
/// independent, so the engine may probe them on any thread in any order;
/// `acfg` is the engine's validated config.
pub(crate) fn probe_cell<M: RadianceModel>(
    model: &M,
    cam: &Camera,
    acfg: &AdaptiveConfig,
    base_ns: usize,
    (jx, jy): (u32, u32),
    scratch: &mut M::Scratch,
    points: &mut Vec<SamplePoint>,
) -> (u32, RenderStats) {
    let d = acfg.probe_stride;
    let px = (jx * d).min(cam.width() - 1);
    let py = (jy * d).min(cam.height() - 1);
    let ray = cam.ray_for_pixel(px, py);
    let mut marched = RenderStats::default();
    march(model, &ray, base_ns, 1, false, scratch, points, &mut marched);
    // the frame counts probe work as `probe_points`, not as Phase-II work
    let cost = RenderStats {
        probe_rays: 1,
        probe_points: marched.density_points,
        skipped_density: marched.skipped_density,
        skipped_color: marched.skipped_color,
        ..RenderStats::default()
    };
    (choose_count_validated(points, acfg, base_ns) as u32, cost)
}

/// The per-ray pipeline of both phases: `count` samples in colour groups of
/// `group` — density for every sample, the colour MLP for each group's first
/// (its leader), whose colour the rest of the group holds — composited by
/// Eq. (1) with early termination at group granularity. Returns the pixel
/// and charges the work to `stats`.
///
/// Empty space is not evaluated. A sample in a cell the model calls
/// unoccupied has `σ = 0`, adds exactly `+0` to the pixel and leaves the
/// transmittance bit-equal, so the march asks [`RadianceModel::occupied`]
/// before it pays: a group with every sample empty makes no model call (its
/// leader's colour is read by nobody), an empty follower makes none, and in
/// any other group the leader runs in full even from an empty cell, because
/// an occupied follower holds its colour. The counted work (`density_points`,
/// `color_points`, …) is charged regardless; what was not run is
/// `skipped_density` / `skipped_color`.
///
/// `points` is the calling worker's buffer, reused from ray to ray so no ray
/// allocates; afterwards it holds the ray's samples as evaluated (a skipped
/// sample: the distance, `σ = 0`, black; past an early termination the
/// same).
#[allow(clippy::too_many_arguments)]
pub(crate) fn march<M: RadianceModel>(
    model: &M,
    ray: &Ray,
    count: usize,
    group: usize,
    early_termination: bool,
    scratch: &mut M::Scratch,
    points: &mut Vec<SamplePoint>,
    stats: &mut RenderStats,
) -> Rgb {
    points.clear();
    let Some(range) = model.model_bounds().intersect(ray).filter(|r| !r.is_empty()) else {
        return Rgb::BLACK;
    };
    points.extend(range.midpoints_iter(count).map(|t| SamplePoint {
        t,
        sigma: 0.0,
        color: Rgb::BLACK,
    }));
    let mut integral = (Rgb::BLACK, 1.0f32);
    // `prev..lo` is the group evaluated by the previous turn and composited
    // by this one, a group late: its followers' colours may then depend on
    // the leader at `lo`, already evaluated. The turn at `lo == count`
    // evaluates nothing and composites the last group
    let mut prev = 0;
    for lo in (0..count).step_by(group).chain([count]) {
        let members = &mut points[lo..(lo + group).min(count)];
        let any_occupied = members.iter().any(|p| model.occupied(ray.at(p.t)));
        if let Some((leader, followers)) = members.split_first_mut() {
            stats.density_points += 1 + followers.len() as u64;
            stats.color_points += 1;
            if any_occupied {
                // the full colour path, straight after the density query
                // whose geometry feature it reads — from an empty cell too:
                // an occupied follower holds this colour
                leader.sigma = model.density_into(ray.at(leader.t), scratch);
                leader.color = model.color_into(ray.dir, scratch);
                for f in followers {
                    let at = ray.at(f.t);
                    if model.occupied(at) {
                        f.sigma = model.density_into(at, scratch);
                    } else {
                        stats.skipped_density += 1;
                    }
                }
            } else {
                stats.skipped_density += 1 + followers.len() as u64;
                stats.skipped_color += 1;
            }
        }
        // the colour approximation: followers hold their own leader's colour
        if let Some((leader, followers)) = points[prev..lo].split_first_mut() {
            followers.iter_mut().for_each(|f| f.color = leader.color);
            stats.interpolated_points += followers.len() as u64;
        }
        integral = composite_span(points, prev..lo, integral);
        prev = lo;
        // tested between groups, never after the last: nothing is left to stop
        if early_termination && lo < count && integral.1 < EARLY_TERM_TRANSMITTANCE {
            stats.et_terminated_rays += 1;
            break;
        }
    }
    integral.0.clamp01()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::engine::{ExecPolicy, FrameEngine};
    use asdr_math::metrics::psnr;
    use asdr_math::Vec3;
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

    fn rgb_bits(c: Rgb) -> [u32; 3] {
        [c.r, c.g, c.b].map(f32::to_bits)
    }

    fn sample_bits(p: &SamplePoint) -> [u32; 5] {
        [p.t, p.sigma, p.color.r, p.color.g, p.color.b].map(f32::to_bits)
    }

    /// What Phase I runs — `(base_ns, group 1, no ET)` — is the plain
    /// per-point evaluation composited by Eq. (1): the buffer a probe ray
    /// leaves (what `choose_count` judges) is `query_point` wherever the
    /// sample is occupied and `(t, σ = 0, black)` wherever it was skipped,
    /// and its pixel is the composite of the *fully evaluated* samples — so
    /// it is already final wherever the plan keeps the base count.
    #[test]
    fn the_probe_march_is_query_point_at_the_midpoints_composited() {
        use crate::algo::volrend::composite;
        for name in ["Lego", "Mic", "Cloud"] {
            let m = model(name);
            let cam = registry::handle(name).camera(6, 6);
            let (mut scratch, mut points) = (m.make_query_scratch(), Vec::new());
            let (mut hits, mut skipped) = (0, 0);
            for (px, py) in (0..6).flat_map(|y| (0..6).map(move |x| (x, y))) {
                let ray = cam.ray_for_pixel(px, py);
                let mut stats = RenderStats::default();
                let pixel = march(&m, &ray, 48, 1, false, &mut scratch, &mut points, &mut stats);
                let evaluated: Vec<SamplePoint> = m
                    .model_bounds()
                    .intersect(&ray)
                    .filter(|r| !r.is_empty())
                    .map_or(Vec::new(), |r| r.midpoints(48))
                    .into_iter()
                    .map(|t| {
                        let (sigma, color) = m.query_point(ray.at(t), ray.dir, &mut scratch);
                        SamplePoint { t, sigma, color }
                    })
                    .collect();
                assert_eq!(points.len(), evaluated.len(), "{name} ({px}, {py})");
                let mut empty = 0;
                for (got, full) in points.iter().zip(&evaluated) {
                    let expected = if m.occupied(ray.at(full.t)) {
                        *full
                    } else {
                        empty += 1;
                        assert_eq!(full.sigma.to_bits(), 0.0f32.to_bits(), "the mask");
                        SamplePoint { t: full.t, sigma: 0.0, color: Rgb::BLACK }
                    };
                    assert_eq!(sample_bits(got), sample_bits(&expected), "{name} ({px}, {py})");
                }
                let reference = composite(&evaluated).color;
                assert_eq!(rgb_bits(pixel), rgb_bits(reference), "{name} ({px}, {py})");
                let n = evaluated.len() as u64;
                assert_eq!((stats.density_points, stats.color_points), (n, n));
                assert_eq!((stats.skipped_density, stats.skipped_color), (empty, empty));
                assert_eq!((stats.interpolated_points, stats.et_terminated_rays), (0, 0));
                hits += n / 48;
                skipped += empty;
            }
            assert!(hits > 0, "{name}: no ray met the model");
            assert!(skipped > 0, "{name}: no sample was skipped");
        }
    }

    /// What `march` asked a [`Cells`] model, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Call {
        Occupied(usize),
        Density(usize),
        Color,
    }

    /// Eight unit cells along x, marched by `cells_ray` at one sample a
    /// cell. Density and colour are functions of the cell, masked like a
    /// real model's; the colour of an *empty* cell is not black, as with
    /// `TensoRfModel` and `DvgoModel`. `skip: false` is the no-skip oracle.
    struct Cells {
        occupied: [bool; 8],
        skip: bool,
        calls: std::cell::RefCell<Vec<Call>>,
    }

    impl Cells {
        fn new(pattern: u8, skip: bool) -> Self {
            let occupied = std::array::from_fn(|i| pattern >> i & 1 == 1);
            Cells { occupied, skip, calls: Default::default() }
        }
    }

    impl RadianceModel for Cells {
        /// The cell of the last `density_into`: the geometry feature.
        type Scratch = usize;

        fn make_query_scratch(&self) -> usize {
            usize::MAX
        }

        fn model_bounds(&self) -> asdr_math::Aabb {
            asdr_math::Aabb::new(Vec3::new(0.0, -1.0, -1.0), Vec3::new(8.0, 1.0, 1.0))
        }

        fn occupied(&self, p: Vec3) -> bool {
            self.calls.borrow_mut().push(Call::Occupied(p.x as usize));
            !self.skip || self.occupied[p.x as usize]
        }

        fn density_into(&self, p: Vec3, cell: &mut usize) -> f32 {
            *cell = p.x as usize;
            self.calls.borrow_mut().push(Call::Density(*cell));
            if self.occupied[*cell] {
                1.0 + *cell as f32
            } else {
                0.0
            }
        }

        fn color_into(&self, _: Vec3, cell: &mut usize) -> Rgb {
            self.calls.borrow_mut().push(Call::Color);
            Rgb::new(0.1 * (*cell + 1) as f32, 0.9 - 0.1 * *cell as f32, 0.5)
        }

        fn stage_flops(&self) -> (u64, u64, u64) {
            (0, 0, 0)
        }
    }

    fn march_cells(m: &Cells, group: usize, et: bool) -> (Rgb, Vec<SamplePoint>, RenderStats) {
        let ray = Ray::new(Vec3::new(-1.0, 0.0, 0.0), Vec3::X);
        let (mut points, mut stats) = (Vec::new(), RenderStats::default());
        let pixel =
            march(m, &ray, 8, group, et, &mut m.make_query_scratch(), &mut points, &mut stats);
        (pixel, points, stats)
    }

    #[test]
    fn a_leader_in_an_empty_cell_runs_in_full_when_a_follower_is_occupied() {
        use Call::{Color, Density};
        // groups of 2 — (empty, occupied) (empty, empty) (occupied, empty)
        // (occupied, occupied)
        let m = Cells::new(0b1101_0010, true);
        let (_, points, stats) = march_cells(&m, 2, false);
        let evaluated: Vec<Call> =
            m.calls.borrow().iter().copied().filter(|c| !matches!(c, Call::Occupied(_))).collect();
        assert_eq!(
            evaluated,
            [Density(0), Color, Density(1), Density(4), Color, Density(6), Color, Density(7)]
        );
        assert_eq!(
            (stats.density_points, stats.color_points, stats.interpolated_points),
            (8, 4, 4)
        );
        assert_eq!((stats.skipped_density, stats.skipped_color), (3, 1));
        // the occupied follower holds the colour its empty leader computed
        assert_eq!(points[0].sigma, 0.0);
        assert!(points[1].sigma > 0.0);
        assert_eq!(points[1].color, Rgb::new(0.1, 0.9, 0.5));
        // the all-empty group was left as initialised
        assert_eq!(sample_bits(&points[2])[1..], [0.0f32, 0.0, 0.0, 0.0].map(f32::to_bits));
    }

    /// Every occupancy pattern of the eight cells × every group size × ET:
    /// the colour query only ever follows the density query of a group's
    /// leader, no bit is tested more than twice, and pixel, transmittance
    /// path (ET count) and every counted field equal the no-skip oracle's.
    #[test]
    fn every_pattern_keeps_colour_after_its_own_density_and_equals_the_oracle() {
        let mut terminated = 0;
        for pattern in 0..=u8::MAX {
            for (group, et) in (1..=8).flat_map(|g| [(g, false), (g, true)]) {
                let what = format!("pattern {pattern:#010b} group {group} et {et}");
                let (m, oracle) = (Cells::new(pattern, true), Cells::new(pattern, false));
                let (pixel, _, stats) = march_cells(&m, group, et);
                let (expected, _, counted) = march_cells(&oracle, group, et);
                assert_eq!(rgb_bits(pixel), rgb_bits(expected), "{what}");
                assert_eq!(RenderStats { skipped_density: 0, skipped_color: 0, ..stats }, counted);
                terminated += stats.et_terminated_rays;
                let calls = m.calls.borrow();
                for (i, call) in calls.iter().enumerate() {
                    if *call == Call::Color {
                        assert!(
                            matches!(calls[i - 1], Call::Density(cell) if cell % group == 0),
                            "{what}: colour after {:?}",
                            calls[i - 1]
                        );
                    }
                }
                for cell in 0..8 {
                    let tests = calls.iter().filter(|c| **c == Call::Occupied(cell)).count();
                    assert!(tests <= 2, "{what}: cell {cell} tested {tests} times");
                }
                let ran = |want: fn(&Call) -> bool| calls.iter().filter(|c| want(c)).count() as u64;
                assert_eq!(
                    ran(|c| matches!(c, Call::Density(_))) + stats.skipped_density,
                    stats.density_points,
                    "{what}"
                );
                assert_eq!(
                    ran(|c| *c == Call::Color) + stats.skipped_color,
                    stats.color_points,
                    "{what}"
                );
            }
        }
        assert!(terminated > 0, "no pattern was dense enough to terminate early");
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
