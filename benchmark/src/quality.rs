//! The metrics that repeat exactly: image quality against the analytic
//! ground truth and the simulated chip, both over a workload's distinct
//! frames (a fixed set, whatever the seed — see [`crate::gen`]).

use asdr_core::algo::{RenderOutput, RenderStats};
use asdr_core::arch::{simulate_chip, ChipOptions, PerfReport};
use asdr_math::metrics::psnr;
use asdr_math::{Camera, Image};
use asdr_nerf::NgpModel;
use asdr_scenes::gt::render_ground_truth;
use asdr_scenes::SceneHandle;

/// Ground-truth samples per ray: twice the profile's 48, so the reference
/// is finer than anything it scores.
const GT_SAMPLES: usize = 96;

/// One distinct frame of a workload.
pub struct DistinctFrame<'a> {
    pub scene: &'a SceneHandle,
    pub model: &'a NgpModel,
    pub cam: Camera,
    /// The frame rendered by calling `FrameEngine::render_frame` directly:
    /// its plan and counts feed the chip simulator.
    pub direct: &'a RenderOutput,
    /// The image the workload's own path returned for this frame.
    pub returned: &'a Image,
}

/// Bit-for-bit image equality (`==` on `f32` would let `-0.0` pass as `0.0`).
pub fn same_bytes(a: &Image, b: &Image) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels().iter().zip(b.pixels()).all(|(p, q)| {
            p.r.to_bits() == q.r.to_bits()
                && p.g.to_bits() == q.g.to_bits()
                && p.b.to_bits() == q.b.to_bits()
        })
}

/// Mean PSNR of the returned images against ground truth, dB.
pub fn mean_psnr_db(frames: &[DistinctFrame<'_>]) -> f64 {
    let mut fields: Vec<(&str, Box<dyn asdr_scenes::SceneField>)> = Vec::new();
    let total: f64 = frames
        .iter()
        .map(|f| {
            if !fields.iter().any(|(name, _)| *name == f.scene.name()) {
                fields.push((f.scene.name(), f.scene.build()));
            }
            let field = &fields.iter().find(|(name, _)| *name == f.scene.name()).expect("pushed").1;
            psnr(f.returned, &render_ground_truth(field.as_ref(), &f.cam, GT_SAMPLES))
        })
        .sum();
    total / frames.len() as f64
}

/// The simulated ASDR-Edge chip over a set of frames.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipTotals {
    pub frames: usize,
    pub time_s: f64,
    pub energy_j: f64,
    pub encoding_cycles: f64,
    pub mlp_cycles: f64,
    pub render_cycles: f64,
    pub encoding_energy_j: f64,
    pub mlp_energy_j: f64,
    pub dram_energy_j: f64,
    pub hit_rate_sum: f64,
}

impl ChipTotals {
    pub fn simulate(frames: &[DistinctFrame<'_>]) -> ChipTotals {
        let opts = ChipOptions::edge();
        let mut t = ChipTotals {
            frames: frames.len(),
            time_s: 0.0,
            energy_j: 0.0,
            encoding_cycles: 0.0,
            mlp_cycles: 0.0,
            render_cycles: 0.0,
            encoding_energy_j: 0.0,
            mlp_energy_j: 0.0,
            dram_energy_j: 0.0,
            hit_rate_sum: 0.0,
        };
        for f in frames {
            let r: PerfReport = simulate_chip(f.model, &f.cam, f.direct, &opts);
            t.time_s += r.time_s;
            t.energy_j += r.total_energy_j;
            t.encoding_cycles += r.encoding_cycles;
            t.mlp_cycles += r.mlp_cycles;
            t.render_cycles += r.render_cycles;
            t.encoding_energy_j += r.encoding_energy_j;
            t.mlp_energy_j += r.mlp_energy_j;
            t.dram_energy_j += r.dram_energy_j;
            t.hit_rate_sum += r.cache_hit_rate;
        }
        t
    }

    /// Frames per simulated second.
    pub fn fps(&self) -> f64 {
        self.frames as f64 / self.time_s
    }

    /// Millijoules per frame.
    pub fn energy_mj_per_frame(&self) -> f64 {
        self.energy_j * 1e3 / self.frames as f64
    }

    fn per_frame(&self, total: f64) -> f64 {
        total / self.frames as f64
    }

    /// The `arch.*` layer metrics that explain the two above.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("arch.regcache_hit_rate", self.per_frame(self.hit_rate_sum) * 100.0),
            ("arch.encoding_cycles", self.per_frame(self.encoding_cycles)),
            ("arch.mlp_cycles", self.per_frame(self.mlp_cycles)),
            ("arch.render_cycles", self.per_frame(self.render_cycles)),
            ("arch.energy_encoding_mj", self.per_frame(self.encoding_energy_j) * 1e3),
            ("arch.energy_mlp_mj", self.per_frame(self.mlp_energy_j) * 1e3),
            ("arch.energy_dram_mj", self.per_frame(self.dram_energy_j) * 1e3),
        ]
    }
}

/// The `core.*` exact counts, per frame, from the stats the program
/// returned with its frames.
pub fn count_metrics(total: &RenderStats, frames: u64) -> Vec<(&'static str, f64)> {
    let per = |n: u64| n as f64 / frames as f64;
    vec![
        ("core.probe_points", per(total.probe_points)),
        ("core.density_evals", per(total.total_density())),
        ("core.color_evals", per(total.total_color())),
        ("core.interpolated", per(total.interpolated_points)),
        ("core.planned_points", per(total.planned_points)),
        ("core.base_points", per(total.base_points)),
        ("core.et_rays", per(total.et_terminated_rays)),
        ("core.samples_per_pixel", total.planned_points as f64 / total.rays.max(1) as f64),
    ]
}
