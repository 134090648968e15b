//! NeuRex-like accelerator simulator (ISCA'23 baseline of the paper).
//!
//! NeuRex accelerates Instant-NGP inference with a *subgrid-based* encoding:
//! the input coordinate grid is partitioned so only part of the hash table
//! needs to live in an on-chip grid buffer at a time, and a digital MAC
//! array executes the MLPs. It runs the **full fixed workload** — no
//! difficulty-aware sampling, no color decoupling — which is exactly the
//! gap ASDR attacks. Its restructured encoding costs a small quality loss
//! (the paper reports −0.38 PSNR), which we reproduce mechanically by
//! quantizing the grid features to the 8-bit storage its buffer uses.

use asdr_core::algo::RenderStats;
use asdr_nerf::NgpModel;

/// NeuRex instance scaled to the same area budget as the corresponding ASDR
/// instance (the paper's methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeurexVariant {
    /// Server-class instance (compared against ASDR-Server / RTX 3070).
    Server,
    /// Edge-class instance (compared against ASDR-Edge / Xavier NX).
    Edge,
}

impl NeurexVariant {
    /// Parallel grid-buffer banks serving encoding lookups.
    pub fn encoder_banks(self) -> u32 {
        match self {
            NeurexVariant::Server => 48,
            NeurexVariant::Edge => 16,
        }
    }

    /// Digital MACs retired per cycle by the MLP array.
    pub fn macs_per_cycle(self) -> u64 {
        match self {
            NeurexVariant::Server => 4096,
            NeurexVariant::Edge => 768,
        }
    }

    /// Grid-buffer miss rate (subgrid refills from DRAM).
    pub fn miss_rate(self) -> f64 {
        match self {
            NeurexVariant::Server => 0.02,
            NeurexVariant::Edge => 0.05,
        }
    }

    /// Average power in watts (area-matched to ASDR instances).
    pub fn power_w(self) -> f64 {
        match self {
            NeurexVariant::Server => 25.0,
            NeurexVariant::Edge => 5.0,
        }
    }
}

/// Clock frequency of the NeuRex model (same 1 GHz node as ASDR).
pub const NEUREX_CLOCK_HZ: f64 = 1.0e9;

/// DRAM refill penalty per grid-buffer miss, in cycles (amortized burst).
pub const MISS_PENALTY_CYCLES: f64 = 24.0;

/// Simulated NeuRex frame performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeurexPerf {
    /// Encoding-stage time (s).
    pub encoding_s: f64,
    /// MLP-stage time (s).
    pub mlp_s: f64,
    /// Total frame time (s); stages are pipelined.
    pub total_s: f64,
    /// Frame energy (J).
    pub energy_j: f64,
}

impl NeurexPerf {
    /// Frames per second.
    pub fn fps(&self) -> f64 {
        1.0 / self.total_s.max(1e-12)
    }
}

/// Simulates one frame on NeuRex. `stats` must come from a *fixed-count,
/// full-color* render (NeuRex implements none of ASDR's algorithm
/// optimizations, though it does use early termination like the reference
/// CUDA code).
pub fn simulate_neurex(
    model: &NgpModel,
    stats: &RenderStats,
    variant: NeurexVariant,
) -> NeurexPerf {
    let cfg = model.encoder().config();
    let points = stats.total_encoded() as f64;
    // encoding: 8 lookups × levels per point over the banked grid buffer,
    // plus subgrid refills
    let accesses_per_point = (8 * cfg.levels) as f64;
    let enc_cycles = points * accesses_per_point / variant.encoder_banks() as f64
        + points * accesses_per_point * variant.miss_rate() * MISS_PENALTY_CYCLES
            / variant.encoder_banks() as f64;
    // MLP: dense digital MACs
    let macs_per_point = (model.density_mlp().macs() + model.color_mlp().macs()) as f64;
    let mlp_cycles = points * macs_per_point / variant.macs_per_cycle() as f64;
    let encoding_s = enc_cycles / NEUREX_CLOCK_HZ;
    let mlp_s = mlp_cycles / NEUREX_CLOCK_HZ;
    // encoding and MLP pipeline over points
    let total_s = encoding_s.max(mlp_s);
    NeurexPerf { encoding_s, mlp_s, total_s, energy_j: total_s * variant.power_w() }
}

/// Returns a copy of `model` with its grid features quantized to `bits`
/// (symmetric per-table scaling) — the quality model of NeuRex's 8-bit grid
/// buffer and, at lower widths, a general precision-ablation tool. The
/// copy's integer MLPs are calibrated again on the edited tables.
///
/// # Panics
///
/// Panics if `bits` is 0 or > 16.
pub fn quantize_model_features(model: &NgpModel, bits: u32) -> NgpModel {
    assert!((1..=16).contains(&bits), "bits out of range");
    let mut out = model.clone();
    let levels = out.encoder().config().levels;
    let q_levels = ((1u32 << (bits - 1)) - 1).max(1) as f32;
    for l in 0..levels {
        let table = out.encoder_mut().tables_mut().table_mut(l);
        let absmax = table.params().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-12);
        for v in table.params_mut() {
            *v = (*v / absmax * q_levels).round() / q_levels * absmax;
        }
    }
    out.calibrate();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions, RenderOutput};
    use asdr_math::metrics::psnr;
    use asdr_nerf::fit::fit_ngp;
    use asdr_nerf::grid::GridConfig;
    use asdr_scenes::registry;

    fn setup() -> (NgpModel, asdr_math::Camera) {
        let m = fit_ngp(registry::handle("Lego").build().as_ref(), &GridConfig::tiny());
        let cam = registry::handle("Lego").camera(24, 24);
        (m, cam)
    }

    fn render(model: &NgpModel, cam: &asdr_math::Camera, opts: &RenderOptions) -> RenderOutput {
        FrameEngine::new(opts.clone(), ExecPolicy::Sequential)
            .expect("options are valid")
            .render_frame(model, cam)
    }

    #[test]
    fn server_outpaces_edge() {
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let s = simulate_neurex(&model, &out.stats, NeurexVariant::Server);
        let e = simulate_neurex(&model, &out.stats, NeurexVariant::Edge);
        assert!(s.total_s < e.total_s);
        assert!(s.fps() > e.fps());
    }

    #[test]
    fn quantized_model_loses_a_little_quality() {
        let (model, cam) = setup();
        let fixed = RenderOptions::instant_ngp(48);
        let reference = render(&model, &cam, &fixed).image;
        let nq = quantize_model_features(&model, 8);
        let img8 = render(&nq, &cam, &fixed).image;
        let p8 = psnr(&img8, &reference);
        assert!(p8 > 30.0, "8-bit grid should be near-lossless: {p8}");
        let n4 = quantize_model_features(&model, 4);
        let img4 = render(&n4, &cam, &fixed).image;
        let p4 = psnr(&img4, &reference);
        assert!(p4 < p8, "4-bit must hurt more: {p4} vs {p8}");
    }

    #[test]
    fn a_quantized_model_renders_as_one_calibrated_from_its_edited_parts() {
        let (model, cam) = setup();
        let q = quantize_model_features(&model, 4);
        let fresh = NgpModel::new(
            q.encoder().clone(),
            q.density_mlp().clone(),
            q.color_mlp().clone(),
            q.bounds(),
            q.occupancy().clone(),
        );
        assert_eq!(q.scales(), fresh.scales());
        assert_ne!(q.scales(), model.scales(), "the edit moved the encoded features' steps");
        for opts in [RenderOptions::instant_ngp(48), RenderOptions::asdr_default(48)] {
            let (a, b) = (render(&q, &cam, &opts), render(&fresh, &cam, &opts));
            assert_eq!(a.image, b.image);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn stage_times_are_positive_and_pipelined() {
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let p = simulate_neurex(&model, &out.stats, NeurexVariant::Server);
        assert!(p.encoding_s > 0.0 && p.mlp_s > 0.0);
        assert!((p.total_s - p.encoding_s.max(p.mlp_s)).abs() < 1e-12);
        assert!(p.energy_j > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_bit_quantization_panics() {
        let (model, _) = setup();
        let _ = quantize_model_features(&model, 0);
    }
}
