//! Experiment harness regenerating every table and figure of the ASDR paper
//! (§6, Tables 1–4, Figures 4–27 where they carry data).
//!
//! Each experiment lives in [`experiments`] as a `run_*` function returning
//! a plain data struct plus a `print_*` function emitting the table the
//! paper reports. The `experiments` binary dispatches one subcommand per
//! table/figure; integration tests call the `run_*` functions directly at
//! [`Scale::Tiny`].
//!
//! ```no_run
//! use asdr_bench::{Harness, Scale};
//! use asdr_bench::experiments::quality;
//! use asdr_scenes::registry;
//!
//! let mut h = Harness::new(Scale::Tiny);
//! let rows = quality::run_fig16(&mut h, &[registry::handle("Mic")]);
//! quality::print_fig16(&rows);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions, RenderOutput};
use asdr_math::{Camera, Image};
use asdr_nerf::grid::GridConfig;
use asdr_nerf::model::RadianceModel;
use asdr_nerf::tensorf::{TensoRfConfig, TensoRfModel};
use asdr_nerf::NgpModel;
use asdr_scenes::gt::render_ground_truth;
use asdr_scenes::SceneHandle;
use asdr_serve::{ModelStore, RenderProfile};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Experiment scale: `Tiny` for tests/smoke runs, `Small` for the default
/// evaluation (what `experiments <id>` prints without `--scale`), `Paper`
/// for the full-size grid (slow; hours).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 48×48 frames, 8-level grid — seconds per experiment.
    Tiny,
    /// 96×96 frames, 16-level grid — the default evaluation scale.
    Small,
    /// 192×192 frames, paper-size grid (T = 2^19, 512³ finest level).
    Paper,
}

impl Scale {
    /// The serving profile of the same name: the one definition of what
    /// `tiny` / `small` / `paper` mean, so the harness evaluates exactly
    /// what `asdr-cluster --scale` renders.
    fn profile(self) -> RenderProfile {
        match self {
            Scale::Tiny => RenderProfile::tiny(),
            Scale::Small => RenderProfile::small(),
            Scale::Paper => RenderProfile::paper(),
        }
    }

    /// Grid configuration for this scale.
    pub fn grid(self) -> GridConfig {
        self.profile().grid
    }

    /// Frame resolution (square).
    pub fn resolution(self) -> u32 {
        self.profile().default_resolution
    }

    /// Full per-ray sample count (the paper's 192, scaled).
    pub fn base_ns(self) -> usize {
        self.profile().base_ns
    }

    /// TensoRF fitting configuration.
    pub fn tensorf(self) -> TensoRfConfig {
        match self {
            Scale::Tiny => TensoRfConfig::tiny(),
            _ => TensoRfConfig::small(),
        }
    }

    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Caches fitted models and ground-truth renders across experiments.
///
/// NGP fits go through a [`ModelStore`] (single-flight, keyed by scene
/// name + grid fingerprint): by default the process-wide one every harness
/// shares, so the many harnesses a test binary creates fit each scene once
/// per process; one built [`with_store`](Harness::with_store) over a store
/// with a directory fits each scene once per *directory*, and later
/// processes reload the checkpoints instead of refitting. TensoRF models
/// and ground-truth renders stay in per-harness maps keyed by scene name;
/// every entry remembers the exact `SceneDef` it was computed from
/// ([`SceneHandle`] equality is name-only), so a handle from an isolated
/// registry that happens to reuse a name refits instead of aliasing the
/// cached result (the store applies the same rule internally).
#[derive(Debug)]
pub struct Harness {
    scale: Scale,
    store: Arc<ModelStore>,
    tensorf_models: HashMap<&'static str, (SceneHandle, Arc<TensoRfModel>)>,
    gts: HashMap<&'static str, (SceneHandle, Image)>,
}

/// The process-wide fit store every [`Harness::new`] shares, in memory.
pub fn global_store() -> Arc<ModelStore> {
    static STORE: OnceLock<Arc<ModelStore>> = OnceLock::new();
    STORE.get_or_init(|| Arc::new(ModelStore::builder().build())).clone()
}

/// Cache lookup honoring def identity: a same-name handle with a different
/// `SceneDef` recomputes and replaces the entry.
fn cached<T: Clone>(
    map: &mut HashMap<&'static str, (SceneHandle, T)>,
    scene: &SceneHandle,
    compute: impl FnOnce() -> T,
) -> T {
    match map.get(scene.name()) {
        Some((owner, value)) if owner.shares_def(scene) => value.clone(),
        _ => {
            let value = compute();
            map.insert(scene.name(), (scene.clone(), value.clone()));
            value
        }
    }
}

impl Harness {
    /// The execution policy every harness frame renders under: adaptive
    /// sampling makes per-row cost uneven, and every policy is image- and
    /// stats-identical anyway.
    const EXEC_POLICY: ExecPolicy = ExecPolicy::TileStealing { tile_size: 16 };

    /// Creates an empty harness at the given scale, sharing the
    /// process-wide fit store.
    pub fn new(scale: Scale) -> Self {
        Harness::with_store(scale, global_store())
    }

    /// Creates a harness over an explicit model store (isolated tests,
    /// `experiments --store-dir`).
    pub fn with_store(scale: Scale, store: Arc<ModelStore>) -> Self {
        Harness { scale, store, tensorf_models: HashMap::new(), gts: HashMap::new() }
    }

    /// The fit store this harness resolves NGP models through.
    pub fn store(&self) -> &Arc<ModelStore> {
        &self.store
    }

    /// The harness scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// A frame engine over `opts` at the harness's execution policy.
    ///
    /// # Panics
    ///
    /// Panics if `opts` fail validation (harness option constructors always
    /// produce valid options).
    pub fn engine(&self, opts: RenderOptions) -> FrameEngine {
        FrameEngine::new(opts, Self::EXEC_POLICY).expect("invalid render options")
    }

    /// Renders one frame through the harness's engine — the single render
    /// path every experiment goes through.
    pub fn render<M: RadianceModel + Sync>(
        &self,
        model: &M,
        cam: &Camera,
        opts: &RenderOptions,
    ) -> RenderOutput {
        self.engine(opts.clone()).render_frame(model, cam)
    }

    /// The standard evaluation camera for a scene at this scale.
    pub fn camera(&self, scene: &SceneHandle) -> Camera {
        let r = self.scale.resolution();
        scene.camera(r, r)
    }

    /// The fitted NGP model for a scene — resolved through the store:
    /// memory, then checkpoint (when persistence is on), then one fit.
    pub fn model(&mut self, scene: &SceneHandle) -> Arc<NgpModel> {
        self.store.get_or_fit(scene, &self.scale.grid())
    }

    /// The fitted TensoRF model for a scene (fitted once, cached).
    pub fn tensorf_model(&mut self, scene: &SceneHandle) -> Arc<TensoRfModel> {
        let scale = self.scale;
        cached(&mut self.tensorf_models, scene, || {
            Arc::new(TensoRfModel::fit(scene.build().as_ref(), &scale.tensorf(), 0))
        })
    }

    /// The ASDR render options at this scale: adaptive sampling with a
    /// resolution-scaled probe pitch plus group-2 color decoupling — the
    /// options the service renders a frame of this size with.
    pub fn asdr_options(&self) -> RenderOptions {
        let profile = self.scale.profile();
        profile.options_for(profile.default_resolution)
    }

    /// Adaptive sampling only (no color decoupling) at this scale.
    pub fn as_only_options(&self) -> RenderOptions {
        RenderOptions { approx_group: 1, ..self.asdr_options() }
    }

    /// The fixed-count Instant-NGP baseline options at this scale.
    pub fn ngp_options(&self) -> RenderOptions {
        RenderOptions::instant_ngp(self.scale.base_ns())
    }

    /// Analytic ground-truth render for a scene (cached).
    pub fn ground_truth(&mut self, scene: &SceneHandle) -> Image {
        let scale = self.scale;
        cached(&mut self.gts, scene, || {
            let r = scale.resolution();
            let cam = scene.camera(r, r);
            render_ground_truth(scene.build().as_ref(), &cam, scale.base_ns() * 3)
        })
    }
}

/// Formats a speedup/ratio column as the paper does (`12.86×`).
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Prints a Markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a Markdown-style table header and separator.
pub fn print_header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_scenes::procedural::SdfScene;
    use asdr_scenes::registry::SceneDef;
    use asdr_scenes::{registry, SceneRegistry};

    #[test]
    fn harness_cache_does_not_alias_same_name_different_def() {
        // an isolated store: publishing the impostor under "Mic" in the
        // process-global store would race parallel tests fitting Mic
        let isolated_store = Arc::new(ModelStore::builder().build());
        let mut h = Harness::with_store(Scale::Tiny, isolated_store);
        let global_mic = registry::handle("Mic");
        let cached_global = h.model(&global_mic);
        assert!(Arc::ptr_eq(&cached_global, &h.model(&global_mic)), "same handle must hit");

        // an isolated registry reusing the name with a different field
        let mut isolated = SceneRegistry::empty();
        let impostor = isolated
            .register(SceneDef::new("Mic", || {
                Box::new(SdfScene::new(
                    "impostor",
                    |p| (p.norm() - 0.2, asdr_math::Rgb::WHITE),
                    50.0,
                    0.03,
                ))
            }))
            .unwrap();
        let cached_impostor = h.model(&impostor);
        assert!(
            !Arc::ptr_eq(&cached_global, &cached_impostor),
            "same-name handle with a different def must refit, not alias"
        );
        assert!(Arc::ptr_eq(&cached_impostor, &h.model(&impostor)));
    }
}
