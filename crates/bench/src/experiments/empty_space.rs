//! Empty space: how much of the counted work the software march never runs,
//! and what that does to the fixed ÷ adaptive ratio.
//!
//! `RenderStats` counts the evaluations the sample plan asks for (what the
//! chip model is fed); `skipped_density` / `skipped_color` say how many of
//! them the host skipped because they could not change the pixel — mostly
//! samples in unoccupied cells, also colourless groups and rays already
//! saturated — and, in an ASDR frame, the samples of a probe pixel kept at
//! the base count, which Phase II reads from the probe instead. Both
//! renderers skip, and adaptive sampling's easy rays *are* the empty ones,
//! so the two ratios differ: counted work (the paper's) and host wall-clock
//! against an Instant-NGP that skips empty space too.

use crate::{fmt_x, print_header, print_row, Harness};
use asdr_core::algo::{RenderOptions, RenderOutput};
use asdr_math::Camera;
use asdr_nerf::model::RadianceModel;
use asdr_scenes::SceneHandle;

/// Frames timed per side; the fastest counts (the rest is the host).
const TIMED_FRAMES: usize = 5;

/// One scene's skipped shares and both ratios.
#[derive(Debug, Clone)]
pub struct EmptySpaceRow {
    /// Scene.
    pub id: SceneHandle,
    /// Share of the fixed-count frame's samples the host skipped.
    pub fixed_skipped: f64,
    /// Share of Phase-I (probe) samples skipped.
    pub probe_skipped: f64,
    /// Share of Phase-II density evaluations skipped as they would be
    /// without a probe to read (ASDR frame).
    pub render_skipped: f64,
    /// Share of Phase-II density evaluations read from a probe that kept
    /// the base count instead of run (ASDR frame).
    pub probe_reused: f64,
    /// Phase-II `skipped_color / color_points` (ASDR frame).
    pub color_skipped: f64,
    /// Fixed ÷ ASDR in counted density work (`density_workload_ratio`).
    pub counted_ratio: f64,
    /// Fixed-count frame, host milliseconds (fastest of five frames).
    pub fixed_ms: f64,
    /// ASDR frame, host milliseconds (same protocol, same threads).
    pub asdr_ms: f64,
}

impl EmptySpaceRow {
    /// Fixed ÷ ASDR in host wall-clock, skipping on both sides.
    pub fn host_ratio(&self) -> f64 {
        self.fixed_ms / self.asdr_ms
    }
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The density evaluations Phase I skips: a probe ray, marched at the base
/// count to its end, runs one for each sample in an occupied cell and none
/// elsewhere. Probe cell `(jx, jy)` is pixel `(jx·d, jy·d)`.
fn probe_skipped<M: RadianceModel>(model: &M, cam: &Camera, opts: &RenderOptions) -> u64 {
    let Some(d) = opts.adaptive.as_ref().map(|a| a.probe_stride) else {
        return 0;
    };
    let mut occupied = Vec::new();
    let mut skipped = 0;
    for jy in 0..cam.height().div_ceil(d) {
        for jx in 0..cam.width().div_ceil(d) {
            let ray = cam.ray_for_pixel(jx * d, jy * d);
            if let Some(range) = model.model_bounds().intersect(&ray).filter(|r| !r.is_empty()) {
                model.occupied_along(&ray, range.midpoints_iter(opts.base_ns), &mut occupied);
                skipped += occupied.iter().filter(|&&o| !o).count() as u64;
            }
        }
    }
    skipped
}

/// Runs the empty-space rows.
pub fn run_empty_space(h: &mut Harness, scenes: &[SceneHandle]) -> Vec<EmptySpaceRow> {
    let asdr_options = h.asdr_options();
    let (fixed_engine, asdr_engine) = (h.engine(h.ngp_options()), h.engine(asdr_options.clone()));
    scenes
        .iter()
        .map(|id| {
            let (model, cam) = (h.model(id), h.camera(id));
            let fastest = |render: &dyn Fn() -> RenderOutput| {
                (0..TIMED_FRAMES)
                    .map(|_| render())
                    .min_by(|a, b| a.timings.total_s().total_cmp(&b.timings.total_s()))
                    .expect("TIMED_FRAMES > 0")
            };
            let fixed = fastest(&|| fixed_engine.render_frame(&*model, &cam));
            let asdr = fastest(&|| asdr_engine.render_frame(&*model, &cam));
            // the same plan without Phase I, so with no probe to read
            let phase2 = asdr_engine
                .render_planned(&*model, &cam, &asdr.plan)
                .expect("the frame's own plan")
                .stats;
            let (f, a) = (&fixed.stats, &asdr.stats);
            let probe = probe_skipped(&*model, &cam, &asdr_options);
            // what the frame skipped beyond its probes and the plain Phase II
            let reused = a.skipped_density - probe - phase2.skipped_density;
            EmptySpaceRow {
                id: id.clone(),
                fixed_skipped: share(f.skipped_density, f.density_points),
                probe_skipped: share(probe, a.probe_points),
                render_skipped: share(phase2.skipped_density, phase2.density_points),
                probe_reused: share(reused, phase2.density_points),
                color_skipped: share(phase2.skipped_color, phase2.color_points),
                counted_ratio: f.density_workload_ratio() / a.density_workload_ratio(),
                fixed_ms: fixed.timings.total_s() * 1e3,
                asdr_ms: asdr.timings.total_s() * 1e3,
            }
        })
        .collect()
}

/// Prints the empty-space rows.
pub fn print_empty_space(rows: &[EmptySpaceRow]) {
    println!("\nEmpty space: counted work the host did not run, and fixed / ASDR both ways");
    print_header(&[
        "Scene",
        "Fixed skipped",
        "Phase I skipped",
        "Phase II skipped",
        "Read from probe",
        "Colour skipped",
        "Counted ratio",
        "Fixed ms",
        "ASDR ms",
        "Host ratio",
    ]);
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    for r in rows {
        print_row(&[
            r.id.to_string(),
            pct(r.fixed_skipped),
            pct(r.probe_skipped),
            pct(r.render_skipped),
            pct(r.probe_reused),
            pct(r.color_skipped),
            fmt_x(r.counted_ratio),
            format!("{:.2}", r.fixed_ms),
            format!("{:.2}", r.asdr_ms),
            fmt_x(r.host_ratio()),
        ]);
    }
    println!(
        "(counted ratio: density evaluations the plans ask for, what the chip model is fed; \
         host ratio: wall-clock of this process, empty space skipped on both sides)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn most_of_mic_is_empty_and_the_counted_ratio_exceeds_the_host_ratio() {
        let mut h = Harness::new(Scale::Tiny);
        let rows = run_empty_space(&mut h, &["Mic"].map(asdr_scenes::registry::handle));
        let r = &rows[0];
        assert!(r.fixed_skipped > 0.8, "Mic is mostly empty: {r:?}");
        for share in [r.probe_skipped, r.render_skipped, r.probe_reused, r.color_skipped] {
            assert!((0.0..=1.0).contains(&share), "{r:?}");
        }
        assert!(r.counted_ratio > 1.0, "adaptive sampling asks for less: {r:?}");
        assert!(r.fixed_ms > 0.0 && r.asdr_ms > 0.0, "{r:?}");
    }

    /// What a frame skips beyond the plain Phase II is the probe's empty
    /// samples *plus* the samples Phase II read from kept probes: the probe
    /// column holds the first alone, the reuse column the second.
    #[test]
    fn the_probe_column_is_the_probe_alone_and_the_reuse_has_its_own() {
        let mut h = Harness::new(Scale::Tiny);
        let lego = asdr_scenes::registry::handle("Lego");
        let r = run_empty_space(&mut h, std::slice::from_ref(&lego)).remove(0);
        let (model, cam, engine) = (h.model(&lego), h.camera(&lego), h.engine(h.asdr_options()));
        let a = engine.render_frame(&*model, &cam);
        let plain = engine.render_planned(&*model, &cam, &a.plan).expect("its own plan").stats;
        let beyond = (a.stats.skipped_density - plain.skipped_density) as f64;
        let probe = r.probe_skipped * a.stats.probe_points as f64;
        let reused = r.probe_reused * plain.density_points as f64;
        assert!(reused > 0.5, "Lego: Phase II read no probe: {r:?}");
        assert!(probe < beyond - 0.5, "the probe column holds the reuse: {r:?}");
        assert!((probe + reused - beyond).abs() < 1e-6 * beyond, "{beyond}: {r:?}");
    }
}
