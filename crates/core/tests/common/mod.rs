//! The kept no-skip oracle: a model that calls every cell occupied is
//! marched as every ray was before the march read the occupancy bit, so a
//! frame through it is what empty-space skipping must reproduce.

use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions, RenderOutput, RenderStats};
use asdr_math::{Aabb, Camera, Rgb, Vec3};
use asdr_nerf::model::RadianceModel;

/// `M` with `occupied` answering `true` everywhere; everything else is `M`'s.
pub struct AllOccupied<M>(pub M);

impl<M: RadianceModel> RadianceModel for AllOccupied<M> {
    type Scratch = M::Scratch;

    fn make_query_scratch(&self) -> M::Scratch {
        self.0.make_query_scratch()
    }

    fn model_bounds(&self) -> Aabb {
        self.0.model_bounds()
    }

    fn occupied(&self, _: Vec3) -> bool {
        true
    }

    fn density_into(&self, p_world: Vec3, scratch: &mut M::Scratch) -> f32 {
        self.0.density_into(p_world, scratch)
    }

    fn color_into(&self, view_dir: Vec3, scratch: &mut M::Scratch) -> Rgb {
        self.0.color_into(view_dir, scratch)
    }

    fn stage_flops(&self) -> (u64, u64, u64) {
        self.0.stage_flops()
    }
}

/// Renders `cam` through `oracle.0` (skipping) and through `oracle`
/// (evaluating every sample) and checks the two frames agree bit for bit —
/// image, sample plan, every counted field — with nothing skipped through
/// the oracle. Returns the skipping frame.
pub fn assert_skipping_is_invisible<M: RadianceModel + Sync>(
    oracle: &AllOccupied<M>,
    cam: &Camera,
    opts: &RenderOptions,
    what: &str,
) -> RenderOutput {
    let engine = FrameEngine::new(opts.clone(), ExecPolicy::Sequential).expect("valid options");
    let skipping = engine.render_frame(&oracle.0, cam);
    let full = engine.render_frame(oracle, cam);
    let bits = |out: &RenderOutput| -> Vec<[u32; 3]> {
        out.image.pixels().iter().map(|c| [c.r, c.g, c.b].map(f32::to_bits)).collect()
    };
    assert_eq!(bits(&skipping), bits(&full), "{what}: image");
    assert_eq!(skipping.plan, full.plan, "{what}: sample plan");
    let counted = RenderStats { skipped_density: 0, skipped_color: 0, ..skipping.stats };
    assert_eq!(counted, full.stats, "{what}: counted work, and nothing skipped by the oracle");
    assert!(skipping.stats.skipped_color <= skipping.stats.skipped_density, "{what}");
    skipping
}
