//! Precision ablation (extension beyond the paper's figures).
//!
//! The paper configures 8-bit grid features and 5-bit ADCs (§6.1) and
//! reports only the end quality. This experiment makes the underlying
//! trade-offs visible: rendering quality versus feature bit width, the
//! cost of running the MLPs at 8 bits (as the renderer does) against their
//! `f32` layers, and device-level MVM accuracy versus ADC resolution and
//! ReRAM conductance noise.

use crate::{print_header, print_row, Harness};
use asdr_baselines::neurex::quantize_model_features;
use asdr_cim::XbarGeometry;
use asdr_core::algo::RenderOptions;
use asdr_math::metrics::psnr;
use asdr_math::rng::seeded;
use asdr_math::sh::sh4;
use asdr_math::{Aabb, Ray, Rgb, Vec3};
use asdr_nerf::model::{RadianceModel, GEO_FEAT_DIM};
use asdr_nerf::NgpModel;
use asdr_scenes::SceneHandle;
use rand::Rng;

/// An [`NgpModel`] answered by its `f32` MLPs instead of the integer ones
/// every product query runs: the reference the 8-bit MLPs are measured
/// against, here and nowhere else. Its frames are the renderer's before the
/// MLPs ran at 8 bits.
#[derive(Debug, Clone, Copy)]
pub struct Fp32Ngp<'a>(pub &'a NgpModel);

/// [`Fp32Ngp`]'s per-thread buffers.
#[derive(Debug, Clone)]
pub struct Fp32Scratch {
    encoded: Vec<f32>,
    density_out: Vec<f32>,
    color_in: Vec<f32>,
    color_out: Vec<f32>,
    mlp: Vec<f32>,
}

impl RadianceModel for Fp32Ngp<'_> {
    type Scratch = Fp32Scratch;

    fn make_query_scratch(&self) -> Fp32Scratch {
        let m = self.0;
        let mlp = m.density_mlp().make_scratch().len().max(m.color_mlp().make_scratch().len());
        Fp32Scratch {
            encoded: vec![0.0; m.encoder().encoded_dim()],
            density_out: vec![0.0; m.density_mlp().out_dim()],
            color_in: vec![0.0; m.color_mlp().in_dim()],
            color_out: vec![0.0; 3],
            mlp: vec![0.0; mlp],
        }
    }

    fn model_bounds(&self) -> Aabb {
        self.0.bounds()
    }

    fn occupied_along(&self, ray: &Ray, ts: impl IntoIterator<Item = f32>, out: &mut Vec<bool>) {
        self.0.occupancy().occupied_along(ray, ts, out);
    }

    fn density_into(&self, p_world: Vec3, s: &mut Fp32Scratch) -> f32 {
        let m = self.0;
        m.encoder().encode(m.bounds().normalize(p_world), &mut s.encoded);
        m.density_mlp().forward_scratch(&s.encoded, &mut s.density_out, &mut s.mlp);
        if !m.occupancy().occupied_world(p_world) {
            return 0.0;
        }
        s.density_out[0].max(0.0)
    }

    fn color_into(&self, view_dir: Vec3, s: &mut Fp32Scratch) -> Rgb {
        let sh = sh4(view_dir);
        s.color_in[..sh.len()].copy_from_slice(&sh);
        s.color_in[sh.len()..].copy_from_slice(&s.density_out[1..1 + GEO_FEAT_DIM]);
        self.0.color_mlp().forward_scratch(&s.color_in, &mut s.color_out, &mut s.mlp);
        Rgb::new(s.color_out[0], s.color_out[1], s.color_out[2]).clamp01()
    }

    fn stage_flops(&self) -> (u64, u64, u64) {
        self.0.flops_per_point()
    }
}

/// The 8-bit MLPs against the `f32` ones on one scene, for the fixed-count
/// Instant-NGP render and the ASDR render (PSNR, dB).
#[derive(Debug, Clone, Copy)]
pub struct MlpPrecisionRow {
    /// `[Instant-NGP, ASDR]`: the 8-bit MLPs against ground truth.
    pub int8_vs_gt: [f64; 2],
    /// `[Instant-NGP, ASDR]`: the `f32` MLPs against ground truth.
    pub fp32_vs_gt: [f64; 2],
    /// `[Instant-NGP, ASDR]`: the 8-bit render against the `f32` one.
    pub int8_vs_fp32: [f64; 2],
}

/// Renders `id` with the 8-bit and the `f32` MLPs.
pub fn run_mlp_precision(h: &mut Harness, id: &SceneHandle) -> MlpPrecisionRow {
    let model = h.model(id);
    let cam = h.camera(id);
    let gt = h.ground_truth(id);
    let mut row =
        MlpPrecisionRow { int8_vs_gt: [0.0; 2], fp32_vs_gt: [0.0; 2], int8_vs_fp32: [0.0; 2] };
    for (i, opts) in [h.ngp_options(), h.asdr_options()].iter().enumerate() {
        let int8 = h.render(&*model, &cam, opts).image;
        let fp32 = h.render(&Fp32Ngp(&model), &cam, opts).image;
        row.int8_vs_gt[i] = psnr(&int8, &gt);
        row.fp32_vs_gt[i] = psnr(&fp32, &gt);
        row.int8_vs_fp32[i] = psnr(&int8, &fp32);
    }
    row
}

/// Prints [`run_mlp_precision`]'s rows, one per scene.
pub fn print_mlp_precision(rows: &[(SceneHandle, MlpPrecisionRow)]) {
    println!("\nPrecision ablation (extension): MLPs at 8 bits (u8 x i8) vs f32, PSNR (dB)");
    print_header(&[
        "scene",
        "NGP int8 vs GT",
        "NGP f32 vs GT",
        "NGP int8 vs f32",
        "ASDR int8 vs GT",
        "ASDR f32 vs GT",
        "ASDR int8 vs f32",
    ]);
    for (id, r) in rows {
        let mut cells = vec![id.to_string()];
        for i in 0..2 {
            cells.extend(
                [r.int8_vs_gt[i], r.fp32_vs_gt[i], r.int8_vs_fp32[i]].map(|v| format!("{v:.2}")),
            );
        }
        print_row(&cells);
    }
}

/// Quality at one feature bit width.
#[derive(Debug, Clone, Copy)]
pub struct FeatureBitsPoint {
    /// Grid feature bits.
    pub bits: u32,
    /// PSNR vs the full-precision render (dB).
    pub fidelity_db: f64,
}

/// Sweeps grid-feature precision on one scene.
pub fn run_feature_bits(h: &mut Harness, id: &SceneHandle, bits: &[u32]) -> Vec<FeatureBitsPoint> {
    let base_ns = h.scale().base_ns();
    let model = h.model(id);
    let cam = h.camera(id);
    let fixed = h.engine(RenderOptions::instant_ngp(base_ns));
    let reference = fixed.render_frame(&*model, &cam).image;
    bits.iter()
        .map(|&b| {
            let q = quantize_model_features(&model, b);
            let img = fixed.render_frame(&q, &cam).image;
            FeatureBitsPoint { bits: b, fidelity_db: psnr(&img, &reference) }
        })
        .collect()
}

/// Device-level MVM accuracy at one ADC/noise setting.
#[derive(Debug, Clone, Copy)]
pub struct DevicePoint {
    /// ADC bits.
    pub adc_bits: u32,
    /// Conductance noise sigma (relative).
    pub noise_sigma: f64,
    /// Relative RMS error of the analog MVM vs exact.
    pub rel_rms_error: f64,
}

/// Measures analog-MVM error across ADC resolutions and noise levels on a
/// color-MLP-shaped workload (64×64 layers, 256 random vectors).
pub fn run_device_accuracy(adc_bits: &[u32], noises: &[f64]) -> Vec<DevicePoint> {
    let mut rng = seeded("precision-device", 0);
    let out_dim = 64;
    let in_dim = 64;
    let w: Vec<f32> = (0..out_dim * in_dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let inputs: Vec<Vec<f32>> =
        (0..64).map(|_| (0..in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let mut out = Vec::new();
    for &adc in adc_bits {
        for &sigma in noises {
            let g = XbarGeometry { adc_bits: adc, ..XbarGeometry::paper() };
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            for (i, x) in inputs.iter().enumerate() {
                let exact = g.mvm_exact(&w, x, out_dim);
                let analog = g.mvm_quantized_noisy(&w, x, out_dim, sigma, i as u64);
                for (e, a) in exact.iter().zip(&analog) {
                    num += ((e - a) as f64).powi(2);
                    den += (*e as f64).powi(2);
                }
            }
            out.push(DevicePoint {
                adc_bits: adc,
                noise_sigma: sigma,
                rel_rms_error: (num / den.max(1e-12)).sqrt(),
            });
        }
    }
    out
}

/// Prints both sweeps.
pub fn print_precision(id: &SceneHandle, feat: &[FeatureBitsPoint], dev: &[DevicePoint]) {
    println!("\nPrecision ablation (extension): grid-feature bits ({id})");
    print_header(&["feature bits", "PSNR vs fp32 render"]);
    for p in feat {
        print_row(&[p.bits.to_string(), format!("{:.2} dB", p.fidelity_db)]);
    }
    println!("\nPrecision ablation (extension): analog MVM accuracy (64x64 layer)");
    print_header(&["ADC bits", "noise sigma", "relative RMS error"]);
    for p in dev {
        print_row(&[
            p.adc_bits.to_string(),
            format!("{:.2}", p.noise_sigma),
            format!("{:.4}", p.rel_rms_error),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn feature_bits_sweep_is_monotone() {
        let mut h = Harness::new(Scale::Tiny);
        let pts = run_feature_bits(&mut h, &asdr_scenes::registry::handle("Mic"), &[4, 6, 8]);
        assert_eq!(pts.len(), 3);
        assert!(pts[2].fidelity_db > pts[0].fidelity_db, "{pts:?}");
        assert!(pts[2].fidelity_db > 30.0, "8-bit must be near-lossless: {pts:?}");
    }

    #[test]
    fn the_fp32_reference_answers_as_the_f32_layers_and_the_int8_render_stays_close() {
        let mut h = Harness::new(Scale::Tiny);
        let id = asdr_scenes::registry::handle("Mic");
        let model = h.model(&id);
        let (p, dir) = (Vec3::new(0.0, 0.45, 0.0), Vec3::new(0.3, -0.5, 0.8).normalized());
        let fp32 = Fp32Ngp(&model);
        let mut s = fp32.make_query_scratch();
        let sigma = fp32.density_into(p, &mut s);
        let mut enc = vec![0.0; model.encoder().encoded_dim()];
        model.encoder().encode(model.bounds().normalize(p), &mut enc);
        let out = model.density_mlp().forward(&enc);
        assert_eq!(sigma, out[0].max(0.0));
        let (q, _) = model.query_density(p);
        assert!((q - sigma).abs() < 0.05 * sigma.max(1.0), "{q} vs {sigma}");
        let c = fp32.color_into(dir, &mut s);
        assert!(c.max_channel_abs_diff(model.query_color(&out[1..], dir)) < 0.02);
        let row = run_mlp_precision(&mut h, &id);
        assert!(row.int8_vs_fp32.iter().all(|&db| db > 40.0), "{row:?}");
    }

    #[test]
    fn device_accuracy_improves_with_adc_bits_and_degrades_with_noise() {
        let pts = run_device_accuracy(&[4, 6, 8], &[0.0, 0.1]);
        let err = |adc: u32, sigma: f64| {
            pts.iter().find(|p| p.adc_bits == adc && p.noise_sigma == sigma).unwrap().rel_rms_error
        };
        assert!(err(8, 0.0) < err(4, 0.0));
        assert!(err(6, 0.1) > err(6, 0.0));
    }
}
