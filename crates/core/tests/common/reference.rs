//! The kept scalar reference for one ray: what `renderer::march` computes,
//! written the plain way, with nothing skipped and no stop but early
//! termination. Shared by the frame reference next to it and by the
//! occupancy-pattern sweep in `renderer.rs`'s unit tests (through `#[path]`),
//! so both hold the march to one definition.

use asdr_core::algo::volrend::EARLY_TERM_TRANSMITTANCE;
use asdr_core::algo::{RenderStats, SamplePoint};
use asdr_math::{Ray, Rgb};
use asdr_nerf::model::RadianceModel;

/// Marches `ray` at `count` midpoints of its intersection with the model:
/// density for every sample (zero where the model's occupancy pass calls the
/// point empty), colour for the first of each `group` (its leader) held by
/// the rest, then Eq. (1) term by term over every sample,
/// with early termination (if asked) tested after each group but the last.
/// Returns the clamped pixel, every evaluated sample, and the counted work
/// — which, as the two-phase dataflow charges it, includes the one group an
/// early-terminated ray evaluated past the group that made it opaque.
pub fn reference_ray<M: RadianceModel>(
    model: &M,
    ray: &Ray,
    count: usize,
    group: usize,
    early_termination: bool,
    scratch: &mut M::Scratch,
) -> (Rgb, Vec<SamplePoint>, RenderStats) {
    let ts = model
        .model_bounds()
        .intersect(ray)
        .filter(|r| !r.is_empty())
        .map_or(Vec::new(), |r| r.midpoints(count));
    // one point a call, masked with the point's own occupancy bit
    let mut occupied = Vec::new();
    let mut density = |t: f32, scratch: &mut M::Scratch| {
        let mut sigma = [0.0];
        model.density_into(&[ray.at(t)], scratch, &mut sigma);
        model.occupied_along(ray, [t], &mut occupied);
        if occupied[0] {
            sigma[0]
        } else {
            0.0
        }
    };
    let mut points = Vec::with_capacity(ts.len());
    for members in ts.chunks(group) {
        let sigma = density(members[0], scratch);
        let mut color = [Rgb::BLACK];
        model.color_into(ray.dir, &[0], scratch, &mut color);
        let color = color[0];
        points.push(SamplePoint { t: members[0], sigma, color });
        for &t in &members[1..] {
            points.push(SamplePoint { t, sigma: density(t, scratch), color });
        }
    }
    let n = points.len();
    let counted = |evaluated: usize, composited_groups: usize, composited: usize| RenderStats {
        density_points: evaluated as u64,
        color_points: evaluated.div_ceil(group) as u64,
        interpolated_points: (composited - composited_groups) as u64,
        ..RenderStats::default()
    };
    let mut stats = counted(n, n.div_ceil(group), n);
    let (mut color, mut transmittance) = (Rgb::BLACK, 1.0f32);
    for (g, start) in (0..n).step_by(group).enumerate() {
        let end = (start + group).min(n);
        for i in start..end {
            let delta = if i + 1 < n {
                points[i + 1].t - points[i].t
            } else if n >= 2 {
                points[i].t - points[i - 1].t
            } else {
                1.0
            };
            let alpha = 1.0 - (-points[i].sigma.max(0.0) * delta).exp();
            color += points[i].color * (transmittance * alpha);
            transmittance *= 1.0 - alpha;
        }
        if early_termination && end < n && transmittance < EARLY_TERM_TRANSMITTANCE {
            let evaluated = (end + group).min(n);
            stats = RenderStats { et_terminated_rays: 1, ..counted(evaluated, g + 1, end) };
            break;
        }
    }
    (color.clamp01(), points, stats)
}
