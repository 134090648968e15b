//! End-to-end pipeline integration tests: scene → fit → render → quality.

use asdr::core::algo::{ExecPolicy, FrameEngine, RenderOptions, RenderOutput};
use asdr::math::metrics::{psnr, quality};
use asdr::nerf::fit::fit_ngp;
use asdr::nerf::grid::GridConfig;
use asdr::nerf::model::RadianceModel;
use asdr::scenes::gt::render_ground_truth;
use asdr::scenes::registry::{self, OrbitCamera, SceneDef};

/// Tier-1 frames go through the session engine under tile stealing so the
/// work-stealing path is exercised end-to-end.
fn render<M: RadianceModel + Sync>(
    model: &M,
    cam: &asdr::math::Camera,
    opts: &RenderOptions,
) -> RenderOutput {
    FrameEngine::new(opts.clone(), ExecPolicy::TileStealing { tile_size: 16 })
        .expect("valid options")
        .render_frame(model, cam)
}

/// The fixed-count baseline image quality is measured against.
fn render_reference<M: RadianceModel + Sync>(
    model: &M,
    cam: &asdr::math::Camera,
    base_ns: usize,
) -> asdr::math::Image {
    render(model, cam, &RenderOptions::instant_ngp(base_ns)).image
}

#[test]
fn fitted_model_reconstructs_every_paper_scene() {
    for id in registry::paper_scenes() {
        let scene = id.build();
        let model = fit_ngp(scene.as_ref(), &GridConfig::tiny());
        let cam = id.camera(32, 32);
        let gt = render_ground_truth(scene.as_ref(), &cam, 128);
        let img = render_reference(&model, &cam, 48);
        let p = psnr(&img, &gt);
        assert!(p > 17.0, "{id}: fitted model too far from ground truth ({p:.2} dB)");
        assert!(img.mean_luminance() > 0.005, "{id}: render is empty");
    }
}

#[test]
fn zoo_scenes_flow_through_the_full_pipeline() {
    // the three showcase families — animated, CSG, volumetric — go through
    // fit → adaptive render with no scene-specific code anywhere downstream
    for id in ["Pulse", "Carved", "Cloud"].map(registry::handle) {
        let scene = id.build();
        let model = fit_ngp(scene.as_ref(), &GridConfig::tiny());
        let cam = id.camera(32, 32);
        let gt = render_ground_truth(scene.as_ref(), &cam, 128);
        let asdr = render(&model, &cam, &RenderOptions::asdr_default(48));
        let p = psnr(&asdr.image, &gt);
        assert!(p > 13.0, "{id}: fitted model too far from ground truth ({p:.2} dB)");
        assert!(asdr.image.mean_luminance() > 0.005, "{id}: render is empty");
        assert!(
            asdr.stats.planned_points <= asdr.stats.base_points,
            "{id}: adaptive sampling must not plan extra work"
        );
    }
}

#[test]
fn registering_a_scene_makes_it_a_first_class_citizen() {
    // the acceptance test for the open registry: one register() call, then
    // the scene flows through fitting, adaptive rendering, and chip
    // simulation without touching any other crate
    use asdr::core::arch::chip::{simulate_chip, ChipOptions};
    use asdr::math::{Rgb, Vec3};
    use asdr::scenes::procedural::SdfScene;

    let def = SceneDef::new("e2e-dumbbell", || {
        Box::new(SdfScene::new(
            "e2e-dumbbell",
            |p: Vec3| {
                let a = (p - Vec3::new(-0.35, 0.0, 0.0)).norm() - 0.3;
                let b = (p - Vec3::new(0.35, 0.0, 0.0)).norm() - 0.3;
                let bar = {
                    let q = Vec3::new(p.x.clamp(-0.35, 0.35), 0.0, 0.0);
                    (p - q).norm() - 0.1
                };
                (a.min(b).min(bar), Rgb::new(0.3, 0.6, 0.9))
            },
            50.0,
            0.03,
        ))
    })
    .dataset("IntegrationTest")
    .camera_spec(OrbitCamera::new(40.0, 15.0, 2.8));
    let id = match registry::register(def) {
        Ok(h) => h,
        // another test in this binary may have registered it already
        Err(_) => registry::handle("e2e-dumbbell"),
    };

    let scene = id.build();
    let model = fit_ngp(scene.as_ref(), &GridConfig::tiny());
    let cam = id.camera(32, 32);
    let out = render(&model, &cam, &RenderOptions::asdr_default(48));
    assert!(out.image.mean_luminance() > 0.005, "custom scene renders empty");
    let perf = simulate_chip(&model, &cam, &out, &ChipOptions::edge());
    assert!(perf.fps > 0.0 && perf.total_energy_j > 0.0, "chip sim must handle custom scenes");
}

#[test]
fn checkpoints_round_trip_registered_scene_names() {
    use asdr::nerf::io::{load_model, save_model};
    let id = registry::handle("Cloud");
    let model = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
    let mut buf = Vec::new();
    save_model(&model, id.name(), &mut buf).unwrap();
    let ckpt = load_model(&mut buf.as_slice()).unwrap();
    let name = ckpt.scene.expect("v2 checkpoints carry the scene name");
    assert_eq!(registry::handle(&name), id, "checkpoint name resolves back to the scene");
}

/// Slow tier: the same reconstruction check at the default evaluation scale
/// (16-level grid, 96×96 frames). Run with `cargo test -- --ignored` or
/// `cargo test --features slow-tests`.
#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "GridConfig::small over all 10 scenes takes minutes; tier-1 runs GridConfig::tiny above"
)]
fn fitted_model_reconstructs_every_scene_at_evaluation_scale() {
    for id in registry::paper_scenes() {
        let scene = id.build();
        let model = fit_ngp(scene.as_ref(), &GridConfig::small());
        let cam = id.camera(96, 96);
        let gt = render_ground_truth(scene.as_ref(), &cam, 192);
        let img = render_reference(&model, &cam, 96);
        let p = psnr(&img, &gt);
        assert!(p > 19.0, "{id}: fitted model too far from ground truth ({p:.2} dB)");
    }
}

#[test]
fn asdr_pipeline_is_near_lossless_and_cheaper() {
    let id = registry::handle("Hotdog");
    let model = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
    let cam = id.camera(40, 40);
    let ngp = render(&model, &cam, &RenderOptions::instant_ngp(48));
    let asdr = render(&model, &cam, &RenderOptions::asdr_default(48));
    // cheaper on both axes the paper optimizes
    assert!(asdr.stats.total_density() < ngp.stats.total_density());
    assert!(asdr.stats.total_color() < ngp.stats.total_color() / 2 + ngp.stats.probe_points);
    // and close to the unoptimized render
    let fidelity = psnr(&asdr.image, &ngp.image);
    assert!(fidelity > 28.0, "optimization loss too large: {fidelity:.2} dB");
}

#[test]
fn rendering_is_deterministic_across_runs() {
    let id = registry::handle("Mic");
    let model_a = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
    let model_b = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
    let cam = id.camera(24, 24);
    let a = render(&model_a, &cam, &RenderOptions::asdr_default(48));
    let b = render(&model_b, &cam, &RenderOptions::asdr_default(48));
    assert_eq!(a.image, b.image, "fit + render must be bit-reproducible");
    assert_eq!(a.stats, b.stats);
}

#[test]
fn quality_metrics_agree_on_ordering() {
    // PSNR, SSIM and the LPIPS proxy must agree about which render is better
    let id = registry::handle("Chair");
    let scene = id.build();
    let model = fit_ngp(scene.as_ref(), &GridConfig::tiny());
    let cam = id.camera(32, 32);
    let gt = render_ground_truth(scene.as_ref(), &cam, 128);
    let good = render_reference(&model, &cam, 48);
    let bad = render_reference(&model, &cam, 4); // drastic undersampling
    let q_good = quality(&good, &gt);
    let q_bad = quality(&bad, &gt);
    assert!(q_good.psnr > q_bad.psnr);
    assert!(q_good.ssim > q_bad.ssim);
    assert!(q_good.lpips < q_bad.lpips);
}

#[test]
fn early_termination_is_lossless_on_opaque_content() {
    let id = registry::handle("Palace");
    let model = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
    let cam = id.camera(32, 32);
    let mut et_opts = RenderOptions::instant_ngp(48);
    et_opts.early_termination = true;
    let base = render(&model, &cam, &RenderOptions::instant_ngp(48));
    let et = render(&model, &cam, &et_opts);
    assert!(et.stats.density_points < base.stats.density_points, "ET saved nothing");
    let p = psnr(&et.image, &base.image);
    assert!(p > 45.0, "ET must be visually lossless: {p:.2} dB");
}

#[test]
fn early_termination_saves_little_on_the_surface_free_cloud() {
    // the cloud family exists to stress ET: with no opaque surface, rays
    // stay translucent and termination fires far less than on solid scenes
    let cloud = registry::handle("Cloud");
    let solid = registry::handle("Hotdog");
    let frac_terminated = |id: &asdr::scenes::SceneHandle| {
        let model = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
        let cam = id.camera(32, 32);
        let mut opts = RenderOptions::instant_ngp(48);
        opts.early_termination = true;
        let out = render(&model, &cam, &opts);
        out.stats.et_terminated_rays as f64 / out.stats.rays as f64
    };
    let cloud_frac = frac_terminated(&cloud);
    let solid_frac = frac_terminated(&solid);
    assert!(
        cloud_frac < solid_frac,
        "cloud should terminate fewer rays than an opaque scene: {cloud_frac:.3} vs {solid_frac:.3}"
    );
}
