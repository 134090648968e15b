//! Precision ablation (extension beyond the paper's figures).
//!
//! The paper configures 8-bit grid features and 5-bit ADCs (§6.1) and
//! reports only the end quality. This experiment makes the underlying
//! trade-offs visible: rendering quality versus feature bit width, and
//! device-level MVM accuracy versus ADC resolution and ReRAM conductance
//! noise.

use crate::{print_header, print_row, Harness};
use asdr_baselines::neurex::quantize_model_features;
use asdr_cim::XbarGeometry;
use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions};
use asdr_math::metrics::psnr;
use asdr_math::rng::seeded;
use asdr_scenes::SceneHandle;
use rand::Rng;

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
    let fixed = FrameEngine::new(
        RenderOptions::instant_ngp(base_ns),
        ExecPolicy::TileStealing { tile_size: 16 },
    )
    .expect("a harness scale's sample count is valid");
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
    fn device_accuracy_improves_with_adc_bits_and_degrades_with_noise() {
        let pts = run_device_accuracy(&[4, 6, 8], &[0.0, 0.1]);
        let err = |adc: u32, sigma: f64| {
            pts.iter().find(|p| p.adc_bits == adc && p.noise_sigma == sigma).unwrap().rel_rms_error
        };
        assert!(err(8, 0.0) < err(4, 0.0));
        assert!(err(6, 0.1) > err(6, 0.0));
    }
}
