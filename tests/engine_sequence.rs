//! Frame-engine contracts at the facade level: cross-policy determinism and
//! sequence plan-reuse quality.

use asdr::core::algo::{ExecPolicy, FrameEngine, PlanPolicy, RenderOptions, SequenceFrame};
use asdr::math::metrics::psnr;
use asdr::nerf::fit::fit_ngp;
use asdr::nerf::grid::GridConfig;
use asdr::nerf::NgpModel;
use asdr::scenes::animated::PulseScene;
use asdr::scenes::registry;

#[test]
fn exec_policies_are_byte_identical_on_two_scenes() {
    // the determinism contract: pixels are independent, so Sequential and
    // TileStealing must agree to the byte — image AND op counts — on both a
    // background-heavy and a geometry-heavy scene
    for scene in ["Mic", "Lego"] {
        let id = registry::handle(scene);
        let model = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
        let cam = id.camera(28, 28);
        let opts = RenderOptions::asdr_default(48);
        let outs: Vec<_> = [ExecPolicy::Sequential, ExecPolicy::TileStealing { tile_size: 9 }]
            .into_iter()
            .map(|p| FrameEngine::new(opts.clone(), p).unwrap().render_frame(&model, &cam))
            .collect();
        for out in &outs[1..] {
            assert_eq!(out.image, outs[0].image, "{scene}: images diverged across policies");
            assert_eq!(out.stats, outs[0].stats, "{scene}: op counts diverged across policies");
        }
    }
}

#[test]
fn plan_reuse_quality_tracks_per_frame_probing_on_a_slow_pulse() {
    // a slow-phase Pulse sequence: geometry morphs a little per frame, so
    // the carried plan must stay within 1 dB (vs the full-count reference)
    // of re-probing every frame — while skipping most of the probe work
    let grid = GridConfig::tiny();
    let cam = registry::handle("Pulse").camera(24, 24);
    let models: Vec<NgpModel> =
        (0..4).map(|i| fit_ngp(&PulseScene::at_phase(0.30 + i as f32 * 0.01), &grid)).collect();
    let frames: Vec<_> = models.iter().map(|m| SequenceFrame::new(m, cam.clone())).collect();

    let engine = FrameEngine::new(
        RenderOptions::asdr_default(48),
        ExecPolicy::TileStealing { tile_size: 16 },
    )
    .unwrap();
    let per_frame = engine.render_sequence(&frames, &PlanPolicy::PerFrame).unwrap();
    let reuse = engine.render_sequence(&frames, &PlanPolicy::Reuse { refresh_every: 4 }).unwrap();

    assert_eq!(reuse.reused_frames(), 3);
    assert!(
        reuse.probe_points() < per_frame.probe_points() / 2,
        "reuse kept too much probe work: {} vs {}",
        reuse.probe_points(),
        per_frame.probe_points()
    );
    let reference_engine = FrameEngine::new(
        RenderOptions::instant_ngp(48),
        ExecPolicy::TileStealing { tile_size: 16 },
    )
    .unwrap();
    for (i, (a, b)) in per_frame.frames.iter().zip(&reuse.frames).enumerate() {
        let reference = reference_engine.render_frame(&models[i], &cam).image;
        let p_probe = psnr(&a.image, &reference);
        let p_reuse = psnr(&b.image, &reference);
        assert!(
            (p_probe - p_reuse).abs() < 1.0,
            "frame {i}: reuse drifted past 1 dB ({p_reuse:.2} vs {p_probe:.2})"
        );
    }
}

#[test]
fn sequence_aggregates_add_up() {
    let id = registry::handle("Mic");
    let model = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
    let cam = id.camera(16, 16);
    let engine = FrameEngine::new(
        RenderOptions::asdr_default(48),
        ExecPolicy::TileStealing { tile_size: 16 },
    )
    .unwrap();
    let frames: Vec<_> = (0..3).map(|_| SequenceFrame::new(&model, cam.clone())).collect();
    let out = engine.render_sequence(&frames, &PlanPolicy::Reuse { refresh_every: 2 }).unwrap();
    let sum: u64 = out.frames.iter().map(|f| f.stats.total_density()).sum();
    assert_eq!(out.aggregate.total_density(), sum);
    let t: f64 = out.frames.iter().map(|f| f.timings.total_s()).sum();
    assert!((out.timings.total_s() - t).abs() < 1e-9);
}
