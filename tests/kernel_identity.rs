//! Byte-identity of the render kernels across kernel rewrites.
//!
//! The goldens below were recorded when the MLPs moved to 8-bit integer
//! layers (frames) and the checkpoint to VERSION 3 (its six rows), where
//! frames were last allowed to change: any later kernel change that reorders
//! a float operation, moves a table access or changes the checkpoint layout
//! shows up here as a different FNV-1a hash. To re-record after an
//! intentional change, run the test and copy the "actual" side of the
//! failure.

use asdr::core::algo::{ExecPolicy, FrameEngine, RenderOptions};
use asdr::math::{Camera, Image};
use asdr::nerf::fit::fit_ngp;
use asdr::nerf::grid::GridConfig;
use asdr::nerf::io::{load_model, save_model};
use asdr::nerf::NgpModel;
use asdr::scenes::registry;
use std::fmt::Write;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn image_hash(image: &Image) -> u64 {
    fnv1a(image.pixels().iter().flat_map(|p| [p.r, p.g, p.b]).flat_map(f32::to_le_bytes))
}

fn option_sets() -> [(&'static str, RenderOptions); 3] {
    let mut et = RenderOptions::asdr_default(48);
    et.early_termination = true;
    [
        ("instant_ngp", RenderOptions::instant_ngp(48)),
        ("asdr_default", RenderOptions::asdr_default(48)),
        ("asdr_default+et", et),
    ]
}

const GOLDEN: &str = "\
Lego instant_ngp image=045bbdcee78cbfa6 rays=256 probe_rays=0 probe_points=0 density=11424 color=11424 interpolated=0 planned=12288 base=12288 et_rays=0\n\
Lego asdr_default image=aa1f9cc79a889f32 rays=256 probe_rays=16 probe_points=528 density=6546 color=3324 interpolated=3222 planned=6618 base=12288 et_rays=0\n\
Lego asdr_default+et image=6f21de108b1c4341 rays=256 probe_rays=16 probe_points=528 density=5388 color=2739 interpolated=2571 planned=6618 base=12288 et_rays=78\n\
Mic instant_ngp image=9ca109b6b473edeb rays=256 probe_rays=0 probe_points=0 density=12192 color=12192 interpolated=0 planned=12288 base=12288 et_rays=0\n\
Mic asdr_default image=214132263fdc33fe rays=256 probe_rays=16 probe_points=720 density=3012 color=1600 interpolated=1412 planned=3018 base=12288 et_rays=0\n\
Mic asdr_default+et image=31d1b781f45bf6f3 rays=256 probe_rays=16 probe_points=720 density=2772 color=1477 interpolated=1281 planned=3018 base=12288 et_rays=16\n\
Mic checkpoint len=277631 bytes=f552302ed910208c\n\
Cloud instant_ngp image=f172d1030cddeba8 rays=256 probe_rays=0 probe_points=0 density=12240 color=12240 interpolated=0 planned=12288 base=12288 et_rays=0\n\
Cloud asdr_default image=9640a8e066d6d458 rays=256 probe_rays=16 probe_points=720 density=5940 color=3036 interpolated=2904 planned=5943 base=12288 et_rays=0\n\
Cloud asdr_default+et image=9640a8e066d6d458 rays=256 probe_rays=16 probe_points=720 density=5940 color=3036 interpolated=2904 planned=5943 base=12288 et_rays=0\n\
";

/// The checkpoint of every scene the serving workloads fit, recorded
/// serially: a fit that reorders a residual sum, drops a vertex or
/// calibrates the integer MLPs differently changes these bytes.
const CHECKPOINTS: &str = "\
Lego checkpoint len=277632 bytes=66fc164854a5b86f\n\
Mic checkpoint len=277631 bytes=f552302ed910208c\n\
Cloud checkpoint len=277633 bytes=4c261513932afaf4\n\
Pulse checkpoint len=277633 bytes=77e9a46c4b0185cc\n\
Chair checkpoint len=277633 bytes=49ed0eb0bd5e63bc\n\
Ship checkpoint len=277632 bytes=693759efd634253b\n\
";

/// `scene`'s tiny-grid checkpoint as a golden row.
fn checkpoint_row(scene: &str, model: &NgpModel) -> String {
    let mut bytes = Vec::new();
    save_model(model, scene, &mut bytes).unwrap();
    format!("{scene} checkpoint len={} bytes={:016x}\n", bytes.len(), fnv1a(bytes.iter().copied()))
}

/// One golden row per option set: `scene` rendered under `policy` on
/// `workers` threads.
fn frame_rows(
    scene: &str,
    model: &NgpModel,
    cam: &Camera,
    policy: ExecPolicy,
    workers: usize,
) -> String {
    let mut rows = String::new();
    for (name, opts) in option_sets() {
        let engine = FrameEngine::new(opts, policy).unwrap().with_workers(workers);
        let out = engine.render_frame(model, cam);
        let s = out.stats;
        writeln!(
            rows,
            "{scene} {name} image={:016x} rays={} probe_rays={} probe_points={} density={} \
             color={} interpolated={} planned={} base={} et_rays={}",
            image_hash(&out.image),
            s.rays,
            s.probe_rays,
            s.probe_points,
            s.density_points,
            s.color_points,
            s.interpolated_points,
            s.planned_points,
            s.base_points,
            s.et_terminated_rays,
        )
        .unwrap();
    }
    rows
}

#[test]
fn frames_stats_and_checkpoint_bytes_match_the_parent_commit() {
    let (mut actual, mut checkpoints) = (String::new(), String::new());
    for scene in ["Lego", "Mic", "Cloud", "Pulse", "Chair", "Ship"] {
        let id = registry::handle(scene);
        let model = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
        checkpoints += &checkpoint_row(scene, &model);
        if !["Lego", "Mic", "Cloud"].contains(&scene) {
            continue;
        }
        let cam = id.camera(16, 16);
        actual += &frame_rows(scene, &model, &cam, ExecPolicy::Sequential, 1);
        if scene == "Mic" {
            // the checkpoint stores MLP weights row-major whatever the
            // in-memory layout: its bytes, and what a reloaded model
            // renders, must not move
            actual += &checkpoint_row(scene, &model);
            let mut bytes = Vec::new();
            save_model(&model, scene, &mut bytes).unwrap();
            let reloaded = load_model(&mut bytes.as_slice()).unwrap().model;
            let engine =
                FrameEngine::new(RenderOptions::asdr_default(48), ExecPolicy::Sequential).unwrap();
            assert_eq!(
                engine.render_frame(&reloaded, &cam).image,
                engine.render_frame(&model, &cam).image,
                "a reloaded checkpoint renders different bytes"
            );
        }
    }
    assert_eq!(actual, GOLDEN, "kernel output moved (left: actual, right: golden)");
    assert_eq!(checkpoints, CHECKPOINTS, "a fitted checkpoint moved (left: actual, right: golden)");
}

/// The same nine frames on threads — both phases fanned out, tiles claimed
/// largest first — against the same recorded text. `make test-release`
/// runs this on the opt-level-3 code the benchmark measures.
#[test]
fn threaded_policies_render_the_recorded_goldens() {
    let golden: String =
        GOLDEN.lines().filter(|l| !l.contains(" checkpoint ")).map(|l| format!("{l}\n")).collect();
    let policies = [
        (ExecPolicy::TileStealing { tile_size: 8 }, 2),
        (ExecPolicy::TileStealing { tile_size: 5 }, 3),
    ];
    let mut actual = policies.map(|_| String::new());
    for scene in ["Lego", "Mic", "Cloud"] {
        let id = registry::handle(scene);
        let model = fit_ngp(id.build().as_ref(), &GridConfig::tiny());
        let cam = id.camera(16, 16);
        for (&(policy, workers), rows) in policies.iter().zip(&mut actual) {
            *rows += &frame_rows(scene, &model, &cam, policy, workers);
        }
    }
    for ((policy, workers), rows) in policies.iter().zip(&actual) {
        assert_eq!(*rows, golden, "{policy:?} × {workers} moved (left: actual, right: golden)");
    }
}
