//! The march's elisions — empty space, colour without positive density,
//! `σ = 0` terms, the saturated stop — against the kept scalar reference
//! (`common`): whole frames, on the benchmark's three scenes and on the two
//! non-NGP models. Each frame also goes through a counting wrapper, so the
//! host work is pinned too: density and colour calls + skipped = counted,
//! and fewer density calls than the probes plus the plan rendered without
//! them wherever a probe pixel keeps the base count.
//! `make test-release` runs this at opt-level 3, the code generation the
//! benchmark measures.

mod common;

use asdr_core::algo::RenderOptions;
use asdr_nerf::dvgo::{DvgoConfig, DvgoModel};
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::model::RadianceModel;
use asdr_nerf::tensorf::{TensoRfConfig, TensoRfModel};
use asdr_scenes::{registry, SceneField};
use common::{assert_matches_reference, probes_at_base};

/// Fixed, the ASDR default with and without early termination, and colour
/// groups 3 and 5 (48 = 9·5 + 3: an odd tail group).
fn option_sets() -> Vec<(&'static str, RenderOptions)> {
    let with = |f: fn(&mut RenderOptions)| {
        let mut o = RenderOptions::asdr_default(48);
        f(&mut o);
        o
    };
    vec![
        ("instant_ngp", RenderOptions::instant_ngp(48)),
        ("asdr_default", RenderOptions::asdr_default(48)),
        ("asdr_default+et", with(|o| o.early_termination = true)),
        ("group 3", with(|o| o.approx_group = 3)),
        ("group 5 + et", with(|o| (o.approx_group, o.early_termination) = (5, true))),
    ]
}

#[test]
fn ngp_frames_equal_the_scalar_reference_bit_for_bit() {
    for scene in ["Lego", "Mic", "Cloud"] {
        let handle = registry::handle(scene);
        let model = fit_ngp(handle.build().as_ref(), &GridConfig::tiny());
        let cam = handle.camera(16, 16);
        for (name, opts) in option_sets() {
            let out = assert_matches_reference(&model, &cam, &opts, &format!("{scene} {name}"));
            assert!(out.stats.skipped_density > 0, "{scene} {name}: nothing was skipped");
            assert!(out.stats.skipped_color > 0, "{scene} {name}: no colour was skipped");
            if (scene, name) == ("Lego", "asdr_default") {
                // so the frame's saving over its probes plus its plan is pinned
                let kept = probes_at_base(&cam, &opts, &out.plan);
                assert!(kept > 0, "Lego: no probe pixel kept the base count");
            }
        }
    }
}

/// `TensoRfModel` and `DvgoModel` fill their diffuse channels before the
/// mask, so a leader's colour in an empty cell is not black: the frames
/// agree only because the leader of a group with positive density runs.
fn assert_on_lego<M: RadianceModel + Sync>(what: &str, fit: impl Fn(&dyn SceneField) -> M) {
    let handle = registry::handle("Lego");
    let (model, cam) = (fit(handle.build().as_ref()), handle.camera(16, 16));
    for (name, opts) in option_sets() {
        let out = assert_matches_reference(&model, &cam, &opts, &format!("{what} {name}"));
        assert!(out.stats.skipped_density > 0, "{what} {name}: nothing was skipped");
    }
}

#[test]
fn tensorf_frames_equal_the_scalar_reference() {
    assert_on_lego("TensoRF", |field| TensoRfModel::fit(field, &TensoRfConfig::tiny(), 7));
}

#[test]
fn dvgo_frames_equal_the_scalar_reference() {
    assert_on_lego("DVGO", |field| DvgoModel::fit(field, &DvgoConfig::tiny()));
}
