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
//! not evaluate samples that cannot change the pixel (see `march`), and says
//! how many it skipped.
//!
//! Both phases walk a ray through the one `march` below, and a probe pixel
//! kept at the base count asks the model once: its Phase-II march reads
//! what the probe's left. The session API — execution policies,
//! sample-plan reuse, multi-frame sequences — lives in
//! [`crate::algo::engine::FrameEngine`].

use crate::algo::adaptive::{choose_count_validated, AdaptiveConfig, SamplePlan};
use crate::algo::engine::PhaseTimings;
use crate::algo::volrend::{composite_span, saturated, SamplePoint, EARLY_TERM_TRANSMITTANCE};
use asdr_math::{Camera, Image, Ray, Rgb, Vec3};
use asdr_nerf::model::{RadianceModel, MAX_IN_FLIGHT};
use std::ops::Range;

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
/// how much of that counted work the software march did not run, because it
/// could not change the pixel (see `march`).
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
    /// Of `probe_points + density_points`, the density evaluations counted
    /// but not run by the host: samples in cells the model calls unoccupied
    /// (unless a follower's density made the leader run), every sample
    /// after a ray stopped because nothing could change its pixel, and the
    /// densities Phase II read from the probe of a pixel kept at the base
    /// count instead of running them again.
    pub skipped_density: u64,
    /// Of `probe_points + color_points`, the color evaluations counted but
    /// not run by the host: leaders of groups without a sample of positive
    /// density, every group after such a stop, and leaders whose colour
    /// Phase II read from the probe of their pixel.
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

/// One worker's per-ray buffers, reused from ray to ray so no ray allocates.
#[derive(Debug, Default)]
pub(crate) struct RayBuffers {
    /// The samples of the last ray marched, as `march` left them.
    pub(crate) points: Vec<SamplePoint>,
    /// Whether each of `points` lies in an occupied cell.
    occupied: Vec<bool>,
}

/// Phase I, one cell of the probe grid: marches the probe ray of cell
/// `(jx, jy)` — pixel `(jx·d, jy·d)` — at the full count, one colour per
/// sample, to its last sample, and returns its chosen sample count, what the
/// ray cost the frame and, if it kept the base count, its buffers: Phase II
/// marches that pixel at the same count and reads them instead of asking the
/// model again (`march`'s `probe`). Cells are independent, so the engine may
/// probe them on any thread in any order; `acfg` is the engine's validated
/// config.
pub(crate) fn probe_cell<M: RadianceModel>(
    model: &M,
    cam: &Camera,
    acfg: &AdaptiveConfig,
    base_ns: usize,
    (jx, jy): (u32, u32),
    scratch: &mut M::Scratch,
    buffers: &mut RayBuffers,
) -> (u32, RenderStats, Option<RayBuffers>) {
    let d = acfg.probe_stride;
    let px = (jx * d).min(cam.width() - 1);
    let py = (jy * d).min(cam.height() - 1);
    let ray = cam.ray_for_pixel(px, py);
    let mut marched = RenderStats::default();
    march(model, &ray, base_ns, 1, Stop::Never, None, scratch, buffers, &mut marched);
    // the frame counts probe work as `probe_points`, not as Phase-II work
    let cost = RenderStats {
        probe_rays: 1,
        probe_points: marched.density_points,
        skipped_density: marched.skipped_density,
        skipped_color: marched.skipped_color,
        ..RenderStats::default()
    };
    let count = choose_count_validated(&buffers.points, acfg, base_ns);
    (count as u32, cost, (count == base_ns).then(|| std::mem::take(buffers)))
}

/// When `march` stops a ray before its last group. Tested between groups,
/// after each composited one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Never: the probe, whose whole buffer `choose_count_validated` reads
    /// through a subsampled integral with a transmittance of its own.
    Never,
    /// Once no later term can change the pixel's f32 ([`saturated`]) —
    /// Phase II without early termination. Invisible in image and counts.
    Saturated,
    /// Early termination, once `T < EARLY_TERM_TRANSMITTANCE` — Phase II
    /// with it. Saturation needs `T` below half an ulp of a channel ≤ 1
    /// (≤ 6e-8), so this threshold always fires first.
    Threshold,
}

/// The per-ray pipeline of both phases: `count` samples in colour groups of
/// `group` — density for every sample, the colour MLP for each group's first
/// (its leader), whose colour the rest of the group holds — composited by
/// Eq. (1), stopping between groups as `stop` says. Returns the pixel and
/// charges the work to `stats`.
///
/// A sample that cannot change the pixel is not evaluated. The ray's samples
/// are classified against the model's occupancy grid in one pass
/// ([`RadianceModel::occupied_along`]) before any is evaluated, and that bit
/// masks each density the model returns: no model tests occupancy again. A
/// `σ ≤ 0` sample adds exactly `+0` and leaves the transmittance bit-equal,
/// so within a group the followers go first and the leader last: an empty
/// follower makes no call; the leader runs its density if its cell is
/// occupied or a follower read `σ > 0` (its colour is then held by that
/// follower), and its colour, reading the geometry feature its density left,
/// only if some member of the group has `σ > 0`. Only `σ > 0` samples are
/// composited, and a `Stop::Saturated` ray marches no further once nothing
/// can move the pixel.
///
/// Each turn evaluates two neighbouring groups, the first with an occupied
/// sample and the one after it, and then composites them in order with the
/// stop test after each (`Turn::evaluate`): the model is asked for two points
/// a call and up to two leaders' colours a call, and no group is evaluated
/// that the march one group late — evaluating a group before compositing
/// the one before it — would not have evaluated. Groups without an occupied
/// sample are not visited: they make no call and add `+0`, and the stop test
/// after them would repeat its last `false`. The counted work
/// (`density_points`, `color_points`, …) is charged for every sample the
/// plan asks for regardless — to the end of the ray, or under early
/// termination to the end of the group after the one that made the ray
/// opaque; what the host did not ask the model for of it is
/// `skipped_density` / `skipped_color`.
///
/// `probe`, if given, is what a probe march of this same ray left in its
/// buffers (group 1, `Stop::Never`); it is used only if it was marched at
/// this `count`, so over the same midpoints. The model is then not asked
/// again for what the probe already knows: its occupancy mask, an occupied
/// sample's `σ`, and the colour of a leader with `σ > 0`. Only a leader with
/// `σ ≤ 0` in a group with positive density — which the probe never
/// coloured — is still asked for its density and colour. A model's answers
/// depend only on the point and direction asked (`RadianceModel`), so the
/// pixel, the buffer and every counted field are what they are without the
/// probe; what was read from it is charged to `skipped_*`.
///
/// `buffers` are the calling worker's; afterwards `buffers.points` holds the
/// ray's samples as evaluated (a skipped density: the distance, `σ = 0`,
/// black; a skipped colour: black; past a stop the same).
#[allow(clippy::too_many_arguments)]
pub(crate) fn march<M: RadianceModel>(
    model: &M,
    ray: &Ray,
    count: usize,
    group: usize,
    stop: Stop,
    probe: Option<&RayBuffers>,
    scratch: &mut M::Scratch,
    buffers: &mut RayBuffers,
    stats: &mut RenderStats,
) -> Rgb {
    let RayBuffers { points, occupied } = buffers;
    points.clear();
    let Some(range) = model.model_bounds().intersect(ray).filter(|r| !r.is_empty()) else {
        return Rgb::BLACK;
    };
    points.extend(range.midpoints_iter(count).map(|t| SamplePoint {
        t,
        sigma: 0.0,
        color: Rgb::BLACK,
    }));
    let probe = probe.filter(|p| p.points.len() == count);
    let occupied: &[bool] = match probe {
        Some(probe) => &probe.occupied,
        None => {
            model.occupied_along(ray, points.iter().map(|p| p.t), occupied);
            occupied
        }
    };
    let mut turn = Turn { model, ray, occupied, probe, points, scratch, asked: [0, 0] };
    let mut integral = (Rgb::BLACK, 1.0f32);
    // where early termination stopped the ray: the end of the group that
    // made it opaque
    let mut terminated = None;
    let mut lo = 0;
    'ray: loop {
        // the next group with an occupied sample
        lo = occupied[lo..].iter().position(|&o| o).map_or(count, |i| (lo + i) / group * group);
        if lo == count {
            break;
        }
        let mid = (lo + group).min(count);
        let groups = [lo..mid, mid..(mid + group).min(count)];
        let (dense, next) = (turn.evaluate(&groups), groups[1].end);
        for (span, dense) in groups.into_iter().zip(dense) {
            if !dense {
                continue;
            }
            // the colour approximation: followers hold their own leader's colour
            let (leader, followers) = turn.points[span.clone()].split_first_mut().expect("a group");
            followers.iter_mut().for_each(|f| f.color = leader.color);
            integral = composite_span(turn.points, span.clone(), integral);
            // never after the last group: nothing is left to stop
            if span.end == count {
                break 'ray;
            }
            match stop {
                Stop::Threshold if integral.1 < EARLY_TERM_TRANSMITTANCE => {
                    terminated = Some(span.end);
                    break 'ray;
                }
                Stop::Saturated if saturated(integral.0, integral.1) => break 'ray,
                _ => {}
            }
        }
        lo = next;
    }
    // counted: the whole ray, or under early termination every group up to
    // the opaque one composited and the one after it evaluated
    let (evaluated, composited) =
        terminated.map_or((count, count), |end| ((end + group).min(count), end));
    let groups = |samples: usize| samples.div_ceil(group) as u64;
    stats.density_points += evaluated as u64;
    stats.color_points += groups(evaluated);
    stats.interpolated_points += composited as u64 - groups(composited);
    stats.et_terminated_rays += u64::from(terminated.is_some());
    stats.skipped_density += evaluated as u64 - turn.asked[0];
    stats.skipped_color += groups(evaluated) - turn.asked[1];
    integral.0.clamp01()
}

/// What one ray's turns share: the model and the ray, the occupancy bits,
/// the probe's buffers if read, the samples, and how many densities and
/// colours the model was asked for.
struct Turn<'a, M: RadianceModel> {
    model: &'a M,
    ray: &'a Ray,
    occupied: &'a [bool],
    probe: Option<&'a RayBuffers>,
    points: &'a mut [SamplePoint],
    scratch: &'a mut M::Scratch,
    asked: [u64; 2],
}

impl<M: RadianceModel> Turn<'_, M> {
    /// Evaluates the samples of two neighbouring groups (the second may be
    /// empty) that can change the pixel, and says whether each group has a
    /// sample with `σ > 0`. Densities are asked two at a time: the occupied
    /// followers of both groups first, then the leaders, so that both
    /// leaders' geometry features are in the scratch for one colour call.
    fn evaluate(&mut self, groups: &[Range<usize>; 2]) -> [bool; 2] {
        let probe = self.probe;
        let kept = move |i: usize| probe.map(|probe| probe.points[i]);
        let mut followers = Asks::default();
        for i in groups.iter().flat_map(|g| g.start + 1..g.end) {
            if !self.occupied[i] {
                continue;
            }
            match kept(i) {
                Some(k) => self.points[i].sigma = k.sigma,
                None => {
                    followers.push(i);
                    if followers.len == MAX_IN_FLIGHT {
                        self.densities(followers.take());
                    }
                }
            }
        }
        self.densities(followers.take());
        let mut dense =
            groups.each_ref().map(|g| self.points[g.clone()].iter().any(|p| p.sigma > 0.0));
        let mut leaders = Asks::default();
        for (g, dense) in groups.iter().zip(&mut dense) {
            let Some(l) = (!g.is_empty()).then_some(g.start) else { continue };
            match kept(l) {
                // the sample as the probe left it: its σ, and its colour
                // where σ > 0 (black elsewhere, as it is left here)
                Some(k) if self.occupied[l] && (k.sigma > 0.0 || !*dense) => {
                    self.points[l] = k;
                    *dense |= k.sigma > 0.0;
                }
                _ if self.occupied[l] || *dense => {
                    leaders.push(l);
                }
                _ => {}
            }
        }
        let asked = leaders.take();
        self.densities(asked);
        let mut slots = Asks::default();
        for (slot, &l) in asked.iter().enumerate() {
            let g = usize::from(l >= groups[1].start);
            dense[g] |= self.points[l].sigma > 0.0;
            if dense[g] {
                slots.push(slot);
            }
        }
        self.colors(asked, slots.take());
        dense
    }

    /// Asks the model for the density of the samples `which` (none to
    /// two) and masks each with its occupancy bit.
    fn densities(&mut self, which: &[usize]) {
        if which.is_empty() {
            return;
        }
        let mut at = [Vec3::ZERO; MAX_IN_FLIGHT];
        for (at, &i) in at.iter_mut().zip(which) {
            *at = self.ray.at(self.points[i].t);
        }
        let mut sigma = [0.0; MAX_IN_FLIGHT];
        let n = which.len();
        self.model.density_into(&at[..n], self.scratch, &mut sigma[..n]);
        for (&i, sigma) in which.iter().zip(sigma) {
            self.points[i].sigma = if self.occupied[i] { sigma } else { 0.0 };
        }
        self.asked[0] += n as u64;
    }

    /// Asks the model for the colours of the leaders `leaders[slot]` of
    /// `slots` (none to two), the slots of the last density call.
    fn colors(&mut self, leaders: &[usize], slots: &[usize]) {
        if slots.is_empty() {
            return;
        }
        let mut colors = [Rgb::BLACK; MAX_IN_FLIGHT];
        let n = slots.len();
        self.model.color_into(self.ray.dir, slots, self.scratch, &mut colors[..n]);
        for (&slot, color) in slots.iter().zip(colors) {
            self.points[leaders[slot]].color = color;
        }
        self.asked[1] += n as u64;
    }
}

/// Up to two sample indices (or slots) waiting for one model call.
#[derive(Default)]
struct Asks {
    which: [usize; MAX_IN_FLIGHT],
    len: usize,
}

impl Asks {
    fn push(&mut self, i: usize) {
        self.which[self.len] = i;
        self.len += 1;
    }

    /// What is waiting, which no longer waits.
    fn take(&mut self) -> &[usize] {
        let len = std::mem::take(&mut self.len);
        &self.which[..len]
    }
}

#[cfg(test)]
#[path = "../../tests/common/reference.rs"]
mod reference;

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
    use reference::reference_ray;
    use std::collections::BTreeMap;

    fn model(name: &str) -> NgpModel {
        fit_ngp(registry::handle(name).build().as_ref(), &GridConfig::tiny())
    }

    fn render(model: &NgpModel, cam: &Camera, opts: &RenderOptions) -> RenderOutput {
        FrameEngine::new(opts.clone(), ExecPolicy::TileStealing { tile_size: 16 })
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

    /// What Phase I runs — `(base_ns, group 1, never stopped)` — is the
    /// plain per-point evaluation composited by Eq. (1): the buffer a probe
    /// ray leaves (what `choose_count` judges) is `query_point` wherever
    /// `σ > 0` and `(t, σ, black)` elsewhere (`σ = 0` where the cell was
    /// skipped), to its last sample even where Phase II would have stopped,
    /// and its pixel is the composite of the *fully evaluated* samples. That
    /// buffer is what Phase II reads wherever the plan keeps the base count.
    #[test]
    fn the_probe_march_is_query_point_at_the_midpoints_composited() {
        use crate::algo::volrend::composite;
        let (mut without_density, mut would_stop) = (0, 0);
        for name in ["Lego", "Mic", "Cloud"] {
            let m = model(name);
            let cam = registry::handle(name).camera(6, 6);
            let (mut scratch, mut buffers) = (m.make_query_scratch(), RayBuffers::default());
            let (mut hits, mut skipped) = (0, 0);
            for (px, py) in (0..6).flat_map(|y| (0..6).map(move |x| (x, y))) {
                let ray = cam.ray_for_pixel(px, py);
                let mut phase2 = RenderStats::default();
                let (s, b) = (&mut scratch, &mut buffers);
                march(&m, &ray, 48, 1, Stop::Saturated, None, s, b, &mut phase2);
                let mut stats = RenderStats::default();
                let (s, b) = (&mut scratch, &mut buffers);
                let pixel = march(&m, &ray, 48, 1, Stop::Never, None, s, b, &mut stats);
                let points = &buffers.points;
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
                let (mut empty, mut colourless) = (0, 0);
                for (got, full) in points.iter().zip(&evaluated) {
                    if !m.occupancy().occupied_world(ray.at(full.t)) {
                        empty += 1;
                        assert_eq!(full.sigma.to_bits(), 0.0f32.to_bits(), "the mask");
                    }
                    let expected = if full.sigma > 0.0 {
                        *full
                    } else {
                        colourless += 1;
                        SamplePoint { color: Rgb::BLACK, ..*full }
                    };
                    assert_eq!(sample_bits(got), sample_bits(&expected), "{name} ({px}, {py})");
                }
                let reference = composite(&evaluated).color;
                assert_eq!(rgb_bits(pixel), rgb_bits(reference), "{name} ({px}, {py})");
                let n = evaluated.len() as u64;
                assert_eq!((stats.density_points, stats.color_points), (n, n));
                assert_eq!((stats.skipped_density, stats.skipped_color), (empty, colourless));
                assert_eq!((stats.interpolated_points, stats.et_terminated_rays), (0, 0));
                hits += n / 48;
                skipped += empty;
                without_density += colourless - empty;
                would_stop += u64::from(phase2.skipped_density > empty);
            }
            assert!(hits > 0, "{name}: no ray met the model");
            assert!(skipped > 0, "{name}: no sample was skipped");
        }
        assert!(without_density > 0, "no occupied sample had σ = 0");
        assert!(would_stop > 0, "no ray saturated in Phase II");
    }

    /// What `march` asked a [`Cells`] model, in order: each density call's
    /// cells, and each colour call's cells — those its slots held.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Occupancy,
        Density(Vec<usize>),
        Color(Vec<usize>),
    }

    /// What one of [`Cells`]' cells holds.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Cell {
        /// Unoccupied: σ is masked to 0.
        Empty,
        /// Occupied, with σ = 0.
        Zero,
        /// Occupied, with σ = 1 + the cell's index — or, at [`OPAQUE`], a σ
        /// whose α rounds to 1.0, so the transmittance behind it is 0.
        Dense,
    }

    const OPAQUE: usize = 3;

    /// Unit cells along x, marched by `march_cells` at one sample a cell.
    /// Density and colour are functions of the cell; the colour of an
    /// *empty* cell is not black, as with `TensoRfModel` and `DvgoModel`.
    struct Cells {
        cells: Vec<Cell>,
        calls: std::cell::RefCell<Vec<Call>>,
    }

    impl Cells {
        fn new(cells: Vec<Cell>) -> Self {
            Cells { cells, calls: Default::default() }
        }

        /// The `index`-th of the 3⁸ eight-cell patterns: cell `i` is base-3
        /// digit `i`.
        fn pattern(index: u32) -> Self {
            let digit = |i: usize| (index / 3u32.pow(i as u32) % 3) as usize;
            Cells::new((0..8).map(|i| [Cell::Empty, Cell::Zero, Cell::Dense][digit(i)]).collect())
        }

        /// The `seed`-th 32-cell pattern: islands of one to four cells, each
        /// zero or dense, after an empty run of 0–15 cells and then apart by
        /// runs of 4–15.
        fn islands(seed: u64) -> Self {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut below = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n) as usize
            };
            let mut cells = vec![Cell::Empty; below(16)];
            while cells.len() < 32 {
                for _ in 0..1 + below(4) {
                    cells.push(if below(3) == 0 { Cell::Zero } else { Cell::Dense });
                }
                cells.extend(std::iter::repeat_n(Cell::Empty, 4 + below(12)));
            }
            cells.truncate(32);
            Cells::new(cells)
        }

        fn sigma(&self, cell: usize) -> f32 {
            match self.cells[cell] {
                Cell::Dense if cell == OPAQUE => 1e3,
                Cell::Dense => 1.0 + cell as f32,
                Cell::Empty | Cell::Zero => 0.0,
            }
        }

        fn occupied(&self, p: Vec3) -> bool {
            self.cells[p.x as usize] != Cell::Empty
        }
    }

    impl RadianceModel for Cells {
        /// Each slot's cell: the geometry feature.
        type Scratch = [usize; MAX_IN_FLIGHT];

        fn make_query_scratch(&self) -> [usize; MAX_IN_FLIGHT] {
            [usize::MAX; MAX_IN_FLIGHT]
        }

        fn model_bounds(&self) -> asdr_math::Aabb {
            let n = self.cells.len() as f32;
            asdr_math::Aabb::new(Vec3::new(0.0, -1.0, -1.0), Vec3::new(n, 1.0, 1.0))
        }

        fn occupied_along(
            &self,
            ray: &Ray,
            ts: impl IntoIterator<Item = f32>,
            out: &mut Vec<bool>,
        ) {
            self.calls.borrow_mut().push(Call::Occupancy);
            out.clear();
            out.extend(ts.into_iter().map(|t| self.occupied(ray.at(t))));
        }

        /// Unmasked, as every model: an empty cell's σ is the caller's to
        /// mask, so it answers as though occupied (1 + its index).
        fn density_into(&self, points: &[Vec3], slots: &mut [usize; 2], sigma: &mut [f32]) {
            let cells: Vec<usize> = points.iter().map(|p| p.x as usize).collect();
            for ((slot, s), &cell) in slots.iter_mut().zip(sigma).zip(&cells) {
                *slot = cell;
                *s = match self.cells[cell] {
                    Cell::Empty => 1.0 + cell as f32,
                    _ => self.sigma(cell),
                };
            }
            self.calls.borrow_mut().push(Call::Density(cells));
        }

        fn color_into(&self, _: Vec3, read: &[usize], slots: &mut [usize; 2], colors: &mut [Rgb]) {
            let cells: Vec<usize> = read.iter().map(|&slot| slots[slot]).collect();
            for (color, &cell) in colors.iter_mut().zip(&cells) {
                let c = (cell % 8) as f32;
                *color = Rgb::new(0.1 * (c + 1.0), 0.9 - 0.1 * c, 0.5);
            }
            self.calls.borrow_mut().push(Call::Color(cells));
        }

        fn stage_flops(&self) -> (u64, u64, u64) {
            (0, 0, 0)
        }
    }

    fn cells_ray() -> Ray {
        Ray::new(Vec3::new(-1.0, 0.0, 0.0), Vec3::X)
    }

    /// Marches `m` at `count` samples, offering it `probe`.
    fn march_cells_at(
        m: &Cells,
        count: usize,
        group: usize,
        stop: Stop,
        probe: Option<&RayBuffers>,
    ) -> (Rgb, RayBuffers, RenderStats) {
        let (mut buffers, mut stats) = (RayBuffers::default(), RenderStats::default());
        let (ray, mut scratch) = (cells_ray(), m.make_query_scratch());
        let pixel =
            march(m, &ray, count, group, stop, probe, &mut scratch, &mut buffers, &mut stats);
        (pixel, buffers, stats)
    }

    /// Marches `m` at one sample a cell.
    fn march_cells(m: &Cells, group: usize, stop: Stop) -> (Rgb, Vec<SamplePoint>, RenderStats) {
        let (pixel, buffers, stats) = march_cells_at(m, m.cells.len(), group, stop, None);
        (pixel, buffers.points, stats)
    }

    /// `march` as it was before it classified a ray in one pass and asked
    /// for two samples a call: one group late, asking for each sample's bit
    /// as it comes to it, one point a call, and visiting every group up to
    /// the stop. What `march` must ask for, group by group, and charge.
    fn march_cells_per_sample(
        m: &Cells,
        group: usize,
        stop: Stop,
    ) -> (Rgb, Vec<SamplePoint>, RenderStats) {
        let (ray, count, mut scratch) = (cells_ray(), m.cells.len(), m.make_query_scratch());
        let mut stats = RenderStats::default();
        let range = m.model_bounds().intersect(&ray).expect("the ray runs along the cells");
        let mut points: Vec<SamplePoint> = range
            .midpoints_iter(count)
            .map(|t| SamplePoint { t, sigma: 0.0, color: Rgb::BLACK })
            .collect();
        let mut integral = (Rgb::BLACK, 1.0f32);
        let mut prev = 0;
        for lo in (0..count).step_by(group).chain([count]) {
            let hi = (lo + group).min(count);
            if let Some((leader, followers)) = points[lo..hi].split_first_mut() {
                stats.density_points += 1 + followers.len() as u64;
                stats.color_points += 1;
                let mut dense = false;
                // one point a call, masked with the point's own bit
                let mut density = |t: f32| {
                    let mut sigma = [0.0];
                    m.density_into(&[ray.at(t)], &mut scratch, &mut sigma);
                    if m.occupied(ray.at(t)) {
                        sigma[0]
                    } else {
                        0.0
                    }
                };
                for f in followers {
                    if m.occupied(ray.at(f.t)) {
                        f.sigma = density(f.t);
                        dense |= f.sigma > 0.0;
                    } else {
                        stats.skipped_density += 1;
                    }
                }
                if dense || m.occupied(ray.at(leader.t)) {
                    leader.sigma = density(leader.t);
                    dense |= leader.sigma > 0.0;
                } else {
                    stats.skipped_density += 1;
                }
                if dense {
                    let mut color = [Rgb::BLACK];
                    m.color_into(ray.dir, &[0], &mut scratch, &mut color);
                    leader.color = color[0];
                } else {
                    stats.skipped_color += 1;
                }
            }
            if let Some((leader, followers)) = points[prev..lo].split_first_mut() {
                followers.iter_mut().for_each(|f| f.color = leader.color);
                stats.interpolated_points += followers.len() as u64;
            }
            integral = composite_span(&points, prev..lo, integral);
            prev = lo;
            if lo == count {
                break;
            }
            match stop {
                Stop::Threshold if integral.1 < EARLY_TERM_TRANSMITTANCE => {
                    stats.et_terminated_rays += 1;
                    break;
                }
                Stop::Saturated if saturated(integral.0, integral.1) => {
                    let rest = (count - hi) as u64;
                    let rest_groups = (count - hi).div_ceil(group) as u64;
                    stats.density_points += rest;
                    stats.color_points += rest_groups;
                    stats.interpolated_points += (count - lo) as u64 - (1 + rest_groups);
                    stats.skipped_density += rest;
                    stats.skipped_color += rest_groups;
                    break;
                }
                _ => {}
            }
        }
        (integral.0.clamp01(), points, stats)
    }

    /// Each group's density cells (sorted) and colour cells, from `calls`.
    fn points_per_group(calls: &[Call], group: usize) -> BTreeMap<usize, [Vec<usize>; 2]> {
        let mut per_group: BTreeMap<usize, [Vec<usize>; 2]> = BTreeMap::new();
        for call in calls {
            let (kind, cells) = match call {
                Call::Occupancy => continue,
                Call::Density(cells) => (0, cells),
                Call::Color(cells) => (1, cells),
            };
            for &c in cells {
                per_group.entry(c / group).or_default()[kind].push(c);
            }
        }
        per_group.values_mut().for_each(|[d, _]| d.sort_unstable());
        per_group
    }

    /// Marches `cells()` at `group`, with early termination or the saturated
    /// stop, and checks it against the kept scalar reference (pixel and every
    /// counted field) and against `march_cells_per_sample` (one point a call):
    /// the same points per group for every group the march asked anything
    /// of, and of the copy's groups only its last may go unasked — the group
    /// a march one group late evaluated past its stop — whose samples the
    /// buffer then holds as initialised; every other sample the same. Also:
    /// one occupancy pass, made first; no density asked in a group without
    /// an occupied sample; one or two points a density call and one or two
    /// leaders a colour call; colour only for a group with a positive σ,
    /// reading its own leader's slot of the density call just before;
    /// points asked + skipped = counted. Then marches the cells once more,
    /// offered the buffers a probe of them left (group 1, `Stop::Never`):
    /// pixel, buffer and every counted field repeat, and the only calls are
    /// the density and then the colour of leaders with `σ ≤ 0` of groups with
    /// positive density; a probe at any other count is not read. Returns the
    /// march's stats, whether it stopped before its end, how many leaders the
    /// reusing march coloured, and how many calls asked for two.
    fn assert_marches_like_the_reference(
        cells: impl Fn() -> Cells,
        group: usize,
        et: bool,
        what: &str,
    ) -> (RenderStats, bool, u64, u64) {
        let m = cells();
        let stop = if et { Stop::Threshold } else { Stop::Saturated };
        let (pixel, points, stats) = march_cells(&m, group, stop);
        let reference = cells();
        let (n, mut scratch) = (m.cells.len(), reference.make_query_scratch());
        let (expected, _, counted) =
            reference_ray(&reference, &cells_ray(), n, group, et, &mut scratch);
        assert_eq!(rgb_bits(pixel), rgb_bits(expected), "{what}");
        let marched = RenderStats { skipped_density: 0, skipped_color: 0, ..stats };
        assert_eq!(marched, counted, "{what}");

        let parent = cells();
        let (parent_pixel, parent_points, parent_stats) =
            march_cells_per_sample(&parent, group, stop);
        assert_eq!(rgb_bits(pixel), rgb_bits(parent_pixel), "{what}");
        let parent_counted = RenderStats { skipped_density: 0, skipped_color: 0, ..parent_stats };
        assert_eq!(marched, parent_counted, "{what}");
        let calls = m.calls.borrow();
        let asked = points_per_group(&calls, group);
        let mut parent_asked = points_per_group(&parent.calls.borrow(), group);
        let unasked = parent_asked.last_key_value().filter(|(g, _)| !asked.contains_key(g));
        let unasked = unasked.map(|(&g, _)| g * group..((g + 1) * group).min(n));
        if let Some(span) = &unasked {
            assert!(stats.skipped_density > parent_stats.skipped_density, "{what}: {span:?}");
            parent_asked.pop_last();
        }
        assert_eq!(asked, parent_asked, "{what}: the points asked per group");
        let bits = |points: &[SamplePoint]| points.iter().map(sample_bits).collect::<Vec<_>>();
        let mut parent_points = parent_points;
        for i in unasked.into_iter().flatten() {
            parent_points[i] = SamplePoint { sigma: 0.0, color: Rgb::BLACK, ..parent_points[i] };
        }
        assert_eq!(bits(&points), bits(&parent_points), "{what}");

        assert_eq!(calls.first(), Some(&Call::Occupancy), "{what}: {calls:?}");
        let (mut density, mut color, mut pairs) = (0, 0, 0);
        for (i, call) in calls.iter().enumerate() {
            match call {
                Call::Occupancy => assert_eq!(i, 0, "{what}: a second occupancy pass"),
                Call::Density(asked) => {
                    assert!((1..=2).contains(&asked.len()), "{what}: {calls:?}");
                    for &cell in asked {
                        let lo = cell / group * group;
                        let members = lo..(lo + group).min(n);
                        assert!(
                            members.clone().any(|c| m.cells[c] != Cell::Empty),
                            "{what}: a call into {members:?}, which has no occupied cell"
                        );
                    }
                    density += asked.len() as u64;
                    pairs += u64::from(asked.len() == 2);
                }
                Call::Color(read) => {
                    assert!((1..=2).contains(&read.len()), "{what}: {calls:?}");
                    let Call::Density(slots) = &calls[i - 1] else {
                        panic!("{what}: colour after {:?}", calls[i - 1]);
                    };
                    for leader in read {
                        assert!(
                            slots.contains(leader),
                            "{what}: colour of {leader} after {slots:?}"
                        );
                        assert_eq!(leader % group, 0, "{what}: colour of a follower");
                        let members = *leader..(leader + group).min(n);
                        assert!(members.clone().any(|c| m.sigma(c) > 0.0), "{what}: {members:?}");
                    }
                    color += read.len() as u64;
                    pairs += u64::from(read.len() == 2);
                }
            }
        }
        assert_eq!(density + stats.skipped_density, stats.density_points, "{what}");
        assert_eq!(color + stats.skipped_color, stats.color_points, "{what}");

        let (_, probe, _) = march_cells_at(&cells(), n, 1, Stop::Never, None);
        let reusing = cells();
        let (reused_pixel, reused, reused_stats) =
            march_cells_at(&reusing, n, group, stop, Some(&probe));
        assert_eq!(rgb_bits(reused_pixel), rgb_bits(pixel), "{what}: reusing the probe");
        assert_eq!(bits(&reused.points), bits(&points), "{what}: reusing the probe");
        let counted = RenderStats { skipped_density: 0, skipped_color: 0, ..reused_stats };
        assert_eq!(counted, marched, "{what}: reusing the probe");
        let reused_calls = reusing.calls.borrow();
        let mut recoloured = 0;
        for pair in reused_calls.chunks(2) {
            let [Call::Density(leaders), Call::Color(read)] = pair else {
                panic!("{what}: reusing the probe made {reused_calls:?}");
            };
            assert_eq!(leaders, read, "{what}: reusing the probe made {reused_calls:?}");
            for &leader in leaders {
                let members = leader..(leader + group).min(n);
                assert_eq!(leader % group, 0, "{what}: colour of a follower");
                assert!(m.sigma(leader) <= 0.0, "{what}: the probe coloured {leader}");
                assert!(members.clone().any(|c| m.sigma(c) > 0.0), "{what}: {members:?}");
            }
            recoloured += leaders.len() as u64;
        }
        assert_eq!(recoloured + reused_stats.skipped_density, stats.density_points, "{what}");
        assert_eq!(recoloured + reused_stats.skipped_color, stats.color_points, "{what}");

        // at another count the probe's samples are not this march's
        let plain = cells();
        let (half_pixel, half, half_stats) = march_cells_at(&plain, n / 2, group, stop, None);
        let offered = cells();
        let (pixel_offered, buffers_offered, stats_offered) =
            march_cells_at(&offered, n / 2, group, stop, Some(&probe));
        assert_eq!(rgb_bits(pixel_offered), rgb_bits(half_pixel), "{what}: half count");
        assert_eq!(bits(&buffers_offered.points), bits(&half.points), "{what}: half count");
        assert_eq!(stats_offered, half_stats, "{what}: half count");
        assert_eq!(offered.calls.borrow()[..], plain.calls.borrow()[..], "{what}: half count");

        // a ray that stopped skipped what a never-stopped one evaluates
        let (_, _, never) = march_cells(&cells(), group, Stop::Never);
        (stats, stats.skipped_density > never.skipped_density, recoloured, pairs)
    }

    #[test]
    fn colour_runs_for_a_group_with_positive_density_even_behind_an_empty_leader() {
        use Call::{Color, Density, Occupancy};
        use Cell::{Dense as D, Empty as E, Zero as Z};
        // groups of 2: (empty, dense) (empty, empty) (zero, zero) (dense, zero)
        let m = Cells::new(vec![E, D, E, E, Z, Z, D, Z]);
        let (_, points, stats) = march_cells(&m, 2, Stop::Saturated);
        // a turn asks the followers of two groups, then their leaders, then
        // the colours of the leaders of groups with σ > 0, two a call
        assert_eq!(
            m.calls.borrow()[..],
            [
                Occupancy,
                Density(vec![1]),
                Density(vec![0]),
                Color(vec![0]),
                Density(vec![5, 7]),
                Density(vec![4, 6]),
                Color(vec![6]),
            ]
        );
        assert_eq!(
            (stats.density_points, stats.color_points, stats.interpolated_points),
            (8, 4, 4)
        );
        assert_eq!((stats.skipped_density, stats.skipped_color), (2, 2));
        // the dense follower holds the colour its empty leader computed, and
        // the empty leader's σ is masked to 0 though the model answered 1
        assert_eq!(points[0].sigma, 0.0);
        assert!(points[1].sigma > 0.0);
        assert_eq!(points[1].color, Rgb::new(0.1, 0.9, 0.5));
        // the all-empty group was left as initialised, the all-zero one
        // has its densities (0) and no colour
        for p in &points[2..6] {
            assert_eq!(sample_bits(p)[1..], [0.0f32; 4].map(f32::to_bits));
        }
    }

    /// Every pattern of empty, zero-density and dense cells × every group
    /// size × ET, against the kept scalar reference and the per-sample march,
    /// and again reading a probe's buffers.
    #[test]
    fn every_pattern_equals_the_reference_with_colour_only_after_positive_density() {
        let (mut terminated, mut stopped, mut recoloured, mut pairs) = (0, 0, 0, 0);
        for index in 0..3u32.pow(8) {
            for (group, et) in (1..=8).flat_map(|g| [(g, false), (g, true)]) {
                let what = format!("pattern {index} group {group} et {et}");
                let (stats, stop, leaders, paired) =
                    assert_marches_like_the_reference(|| Cells::pattern(index), group, et, &what);
                terminated += stats.et_terminated_rays;
                stopped += u64::from(!et && stop);
                recoloured += leaders;
                pairs += paired;
            }
        }
        assert!(terminated > 0, "no pattern was dense enough to terminate early");
        assert!(stopped > 0, "no pattern saturated a ray before its last group");
        assert!(recoloured > 0, "no leader with σ ≤ 0 led a group with positive density");
        assert!(pairs > 0, "no call asked for two points");
    }

    /// Islands of occupied cells apart by long empty runs — what the march
    /// jumps over — × groups 1–3 × ET, against the same two, and again
    /// reading a probe's buffers.
    #[test]
    fn islands_apart_by_empty_runs_equal_the_reference_and_the_per_sample_calls() {
        let (mut terminated, mut stopped, mut recoloured, mut pairs) = (0, 0, 0, 0);
        for seed in 0..2000 {
            for (group, et) in (1..=3).flat_map(|g| [(g, false), (g, true)]) {
                let what = format!("islands {seed} group {group} et {et}");
                let (stats, stop, leaders, paired) =
                    assert_marches_like_the_reference(|| Cells::islands(seed), group, et, &what);
                terminated += stats.et_terminated_rays;
                stopped += u64::from(!et && stop);
                recoloured += leaders;
                pairs += paired;
            }
        }
        assert!(terminated > 0, "no island terminated a ray early");
        assert!(stopped > 0, "no island saturated a ray before its last group");
        assert!(recoloured > 0, "no leader with σ ≤ 0 led a group with positive density");
        assert!(pairs > 0, "no call asked for two points");
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
