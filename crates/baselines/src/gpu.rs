//! Roofline GPU models: RTX 3070 and Jetson Xavier NX.
//!
//! The paper measures Instant-NGP's CUDA implementation on real devices; we
//! do not have the hardware, so each stage is modelled with a classic
//! roofline: `time = max(flops / (peak·util), bytes / (bw·gather_eff)) +
//! serial overhead`, with the operation/byte counts taken from the
//! functional renderer's [`RenderStats`]. Hash-table gathers are random
//! 4–8-byte accesses, so the encoding stage sees a small fraction of peak
//! DRAM bandwidth — that is the GPU's fundamental handicap the paper
//! exploits (Fig. 4) and the reason the speedup ratios transfer even though
//! absolute times are modelled (DESIGN.md §1).

use asdr_core::algo::RenderStats;
use asdr_nerf::model::RadianceModel;

/// A GPU device description.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Device name.
    pub name: &'static str,
    /// Peak FP16/FP32-mixed throughput in FLOP/s achievable by the MLP
    /// kernels.
    pub peak_flops: f64,
    /// Peak DRAM bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Fraction of peak compute the small-MLP kernels reach.
    pub mlp_utilization: f64,
    /// Fraction of peak bandwidth random hash gathers reach.
    pub gather_efficiency: f64,
    /// Board power in watts under load.
    pub power_w: f64,
    /// Fixed per-frame serial overhead in seconds (launch/sync/compaction).
    pub frame_overhead_s: f64,
}

impl GpuSpec {
    /// NVIDIA RTX 3070: 20.3 TFLOPS FP32, 448 GB/s GDDR6; ~130 W average
    /// draw under this memory-bound workload.
    pub fn rtx3070() -> Self {
        GpuSpec {
            name: "RTX 3070",
            peak_flops: 20.3e12,
            mem_bw: 448e9,
            mlp_utilization: 0.45,
            gather_efficiency: 0.11,
            power_w: 130.0,
            frame_overhead_s: 1.2e-3,
        }
    }

    /// NVIDIA Jetson Xavier NX: 384-core Volta, ~1.7 TFLOPS FP16,
    /// 51.2 GB/s LPDDR4x; ~12 W average draw.
    pub fn xavier_nx() -> Self {
        GpuSpec {
            name: "Xavier NX",
            peak_flops: 1.7e12,
            mem_bw: 51.2e9,
            mlp_utilization: 0.30,
            gather_efficiency: 0.10,
            power_w: 12.0,
            frame_overhead_s: 2.5e-3,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message if any rate or fraction is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.peak_flops <= 0.0 || self.mem_bw <= 0.0 || self.power_w <= 0.0 {
            return Err("rates must be positive".into());
        }
        for f in [self.mlp_utilization, self.gather_efficiency] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("fraction {f} outside [0,1]"));
            }
        }
        Ok(())
    }
}

/// Per-stage GPU timing/energy for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuPerf {
    /// Encoding (hash gather + interpolation) time in seconds.
    pub encoding_s: f64,
    /// MLP (density + color) time in seconds.
    pub mlp_s: f64,
    /// Volume rendering + bookkeeping time in seconds.
    pub render_s: f64,
    /// Total frame time (stages + serial overhead).
    pub total_s: f64,
    /// Frame energy in joules.
    pub energy_j: f64,
}

impl GpuPerf {
    /// Frames per second.
    pub fn fps(&self) -> f64 {
        1.0 / self.total_s.max(1e-12)
    }
}

/// Bytes fetched per encoded point: 8 vertices × `feat_dim` features ×
/// 2 bytes (fp16) per level.
fn encoding_bytes_per_point(levels: usize, feat_dim: usize) -> f64 {
    (levels * 8 * feat_dim * 2) as f64
}

/// Simulates one frame on `spec` given renderer statistics and the model's
/// per-point stage FLOPs.
pub fn simulate_gpu<M: RadianceModel>(
    spec: &GpuSpec,
    model: &M,
    stats: &RenderStats,
    levels: usize,
    feat_dim: usize,
) -> GpuPerf {
    spec.validate().expect("invalid GPU spec");
    let (enc_flops, den_flops, col_flops) = model.stage_flops();
    let density_execs = stats.total_density() as f64;
    let color_execs = stats.total_color() as f64;

    // encoding: bandwidth-bound gather + interpolation FLOPs
    let enc_bytes = density_execs * encoding_bytes_per_point(levels, feat_dim);
    let enc_compute = density_execs * enc_flops as f64 / (spec.peak_flops * spec.mlp_utilization);
    let enc_mem = enc_bytes / (spec.mem_bw * spec.gather_efficiency);
    let encoding_s = enc_compute.max(enc_mem);

    // MLP: compute-bound at kernel utilization
    let mlp_flops = density_execs * den_flops as f64 + color_execs * col_flops as f64;
    let mlp_s = mlp_flops / (spec.peak_flops * spec.mlp_utilization);

    // volume rendering: ~20 FLOPs per composited point, streaming-friendly
    let render_flops = density_execs * 20.0 + stats.interpolated_points as f64 * 6.0;
    let render_s = render_flops / (spec.peak_flops * spec.mlp_utilization);

    let total_s = encoding_s + mlp_s + render_s + spec.frame_overhead_s;
    GpuPerf { encoding_s, mlp_s, render_s, total_s, energy_j: total_s * spec.power_w }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions, RenderOutput};
    use asdr_nerf::fit::fit_ngp;
    use asdr_nerf::grid::GridConfig;
    use asdr_nerf::NgpModel;
    use asdr_scenes::registry;

    fn setup() -> (NgpModel, asdr_math::Camera) {
        let m = fit_ngp(registry::handle("Lego").build().as_ref(), &GridConfig::tiny());
        let cam = registry::handle("Lego").camera(24, 24);
        (m, cam)
    }

    fn render(model: &NgpModel, cam: &asdr_math::Camera, opts: &RenderOptions) -> RenderOutput {
        FrameEngine::new(opts.clone(), ExecPolicy::TileStealing { tile_size: 12 })
            .expect("options are valid")
            .render_frame(model, cam)
    }

    #[test]
    fn specs_validate() {
        GpuSpec::rtx3070().validate().unwrap();
        GpuSpec::xavier_nx().validate().unwrap();
        let mut bad = GpuSpec::rtx3070();
        bad.gather_efficiency = 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn edge_gpu_is_much_slower() {
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let cfg = model.encoder().config();
        let desktop =
            simulate_gpu(&GpuSpec::rtx3070(), &model, &out.stats, cfg.levels, cfg.feat_dim);
        let edge =
            simulate_gpu(&GpuSpec::xavier_nx(), &model, &out.stats, cfg.levels, cfg.feat_dim);
        // at the tiny test scale the fixed frame overhead blunts the ratio
        assert!(edge.total_s > 2.5 * desktop.total_s, "{} vs {}", edge.total_s, desktop.total_s);
    }

    #[test]
    fn software_optimizations_speed_up_the_gpu() {
        // Fig. 24: AS and AS+RA accelerate the CUDA implementation
        let (model, cam) = setup();
        let cfg = model.encoder().config().clone();
        let spec = GpuSpec::rtx3070();
        let base = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let mut as_only = RenderOptions::asdr_default(32);
        as_only.approx_group = 1;
        let as_out = render(&model, &cam, &as_only);
        let asra = render(&model, &cam, &RenderOptions::asdr_default(32));
        let t_base = simulate_gpu(&spec, &model, &base.stats, cfg.levels, cfg.feat_dim).total_s;
        let t_as = simulate_gpu(&spec, &model, &as_out.stats, cfg.levels, cfg.feat_dim).total_s;
        let t_asra = simulate_gpu(&spec, &model, &asra.stats, cfg.levels, cfg.feat_dim).total_s;
        assert!(t_as < t_base, "AS should help: {t_as} vs {t_base}");
        assert!(t_asra <= t_as, "RA should add on top: {t_asra} vs {t_as}");
    }

    #[test]
    fn energy_follows_time() {
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let cfg = model.encoder().config();
        let p = simulate_gpu(&GpuSpec::rtx3070(), &model, &out.stats, cfg.levels, cfg.feat_dim);
        assert!((p.energy_j - p.total_s * 130.0).abs() < 1e-9);
        assert!(p.fps() > 0.0);
    }

    #[test]
    fn encoding_is_memory_bound_on_gpus() {
        // the premise of Challenge 1: hash gathers strangle the GPU
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let cfg = model.encoder().config();
        let p = simulate_gpu(&GpuSpec::xavier_nx(), &model, &out.stats, cfg.levels, cfg.feat_dim);
        assert!(p.encoding_s > 0.2 * p.mlp_s, "encoding should be a visible cost");
    }
}
