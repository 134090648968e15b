//! Re-NeRF-style baseline: compressed model + naive sample reduction.
//!
//! The paper's Fig. 16 includes "Re-NeRF (sw)", a software optimization that
//! reduces work without sensing per-pixel difficulty and loses ≈2.06 PSNR on
//! average. Re-NeRF-class techniques compress the *model* (weight/feature
//! pruning and quantization) and cut work uniformly; we model both
//! mechanisms: grid features quantized to [`RENERF_FEATURE_BITS`] plus a
//! uniform halving of the sample count for every ray (the "naive reduction"
//! of Fig. 9(b)).

use crate::neurex::quantize_model_features;
use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions, RenderOutput};
use asdr_math::Camera;
use asdr_nerf::NgpModel;

/// Feature bit width of the compressed Re-NeRF model — calibrated so its
/// quality loss lands near the paper's −2.06 PSNR while ASDR stays
/// near-lossless (`experiments quality` prints both).
pub const RENERF_FEATURE_BITS: u32 = 4;

/// Renders the Re-NeRF baseline: quantized features and uniform
/// `base_ns / reduction` samples, full color MLP, no difficulty awareness.
///
/// # Panics
///
/// Panics if `reduction == 0` or it does not divide `base_ns`.
pub fn render_renerf(
    model: &NgpModel,
    cam: &Camera,
    base_ns: usize,
    reduction: usize,
) -> RenderOutput {
    assert!(reduction > 0, "reduction must be positive");
    assert_eq!(base_ns % reduction, 0, "reduction must divide base_ns");
    let compressed = quantize_model_features(model, RENERF_FEATURE_BITS);
    FrameEngine::new(
        RenderOptions::instant_ngp(base_ns / reduction),
        ExecPolicy::TileStealing { tile_size: 16 },
    )
    .expect("instant_ngp options are always valid")
    .render_frame(&compressed, cam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_math::metrics::psnr;
    use asdr_nerf::fit::fit_ngp;
    use asdr_nerf::grid::GridConfig;
    use asdr_scenes::registry;

    #[test]
    fn naive_reduction_hurts_more_than_asdr() {
        // the Fig. 9 comparison: at ~the same budget, ASDR's decoupling
        // preserves quality better than naive halving
        let scene = registry::handle("Lego").build();
        let model = fit_ngp(&scene, &GridConfig::tiny());
        let cam = registry::handle("Lego").camera(24, 24);
        let reference = FrameEngine::new(
            RenderOptions::instant_ngp(64),
            ExecPolicy::TileStealing { tile_size: 16 },
        )
        .unwrap()
        .render_frame(&model, &cam)
        .image;

        let renerf = render_renerf(&model, &cam, 64, 2);
        let p_naive = psnr(&renerf.image, &reference);

        let mut asdr_opts = RenderOptions::instant_ngp(64);
        asdr_opts.approx_group = 2; // same color-budget reduction
        let asdr = FrameEngine::new(asdr_opts, ExecPolicy::TileStealing { tile_size: 16 })
            .unwrap()
            .render_frame(&model, &cam);
        let p_asdr = psnr(&asdr.image, &reference);

        assert!(p_asdr > p_naive, "ASDR {p_asdr} should beat naive {p_naive}");
        // and it halves the workload as intended
        assert_eq!(renerf.stats.planned_points, 24 * 24 * 32);
    }

    #[test]
    #[should_panic]
    fn non_dividing_reduction_panics() {
        let scene = registry::handle("Mic").build();
        let model = fit_ngp(&scene, &GridConfig::tiny());
        let cam = registry::handle("Mic").camera(4, 4);
        let _ = render_renerf(&model, &cam, 64, 7);
    }
}
