//! The combined Instant-NGP model: encoder + density MLP + color MLP.
//!
//! Network shapes follow the paper / Instant-NGP reference:
//!
//! * density MLP: `encoded_dim → 64 → 16`, output `[σ_raw, geo-feature₁₅]`,
//! * color MLP: `16 (SH) + 15 (geo) = 31 → 64 → 64 → 3`.
//!
//! The density MLP runs once per sample point; the color MLP consumes the
//! 15-dim geometry feature together with the SH-encoded view direction.
//! ASDR's color–density decoupling (§4.3) skips the color MLP for most
//! points; the split exposed here (`query_density` / `query_color`) is what
//! makes that optimization expressible.

use crate::encoder::HashEncoder;
use crate::mlp::Mlp;
use crate::occupancy::OccupancyGrid;
use asdr_math::sh::{sh4, SH_DEGREE4_COEFFS};
use asdr_math::{Aabb, Ray, Rgb, Vec3};
use std::sync::atomic::{AtomicU64, Ordering};

/// A queryable radiance field with a decoupled density/color interface.
///
/// The split mirrors the two-MLP structure the ASDR paper exploits:
/// [`RadianceModel::density_into`] runs the (cheap) density path and leaves a
/// geometry feature in the scratch; [`RadianceModel::color_into`] then
/// finishes the (expensive) color path for the *same* point. ASDR's
/// color–density decoupling calls the former for every sample and the latter
/// for only one sample per group — and [`RadianceModel::occupied_along`] lets
/// a caller not pay for either where the answer is already known to be zero.
///
/// The bits of an answer depend only on the question: `density_into` on the
/// point, `color_into` on the direction and the point of the last
/// `density_into` through the same scratch — never on what else was asked
/// through that scratch before (a cache in it, such as a direction prefix,
/// must return exactly what recomputing would). A renderer relies on it to
/// keep an answer and use it again instead of asking twice: the probe's
/// samples are read back when the same pixel is rendered, on any thread.
pub trait RadianceModel {
    /// Reusable per-thread scratch for query state.
    type Scratch;

    /// Allocates scratch for the query methods.
    fn make_query_scratch(&self) -> Self::Scratch;

    /// World-space bounds of the modelled scene.
    fn model_bounds(&self) -> Aabb;

    /// For every `t` of `ts`, in order, whether `ray.at(t)` lies in a cell
    /// of the model's empty-space mask that may hold density, into `out`
    /// (cleared first) — one pass over a ray's samples, not a call per
    /// sample. `false` is a promise: [`Self::density_into`] returns exactly
    /// `0.0` at that point, so a caller that needs neither its density nor
    /// its colour may skip both calls. The three grid models answer with
    /// [`OccupancyGrid::occupied_along`], each entry bit-equal to
    /// [`OccupancyGrid::occupied_world`] — the test their density is masked
    /// with.
    fn occupied_along(&self, ray: &Ray, ts: impl IntoIterator<Item = f32>, out: &mut Vec<bool>);

    /// Density query — the full evaluation wherever it is asked, masked to
    /// `0.0` where [`Self::occupied_along`] says the point is unoccupied;
    /// leaves the geometry feature in `scratch`.
    fn density_into(&self, p_world: Vec3, scratch: &mut Self::Scratch) -> f32;

    /// Color query for the point of the last [`Self::density_into`] call.
    /// Every channel lies in `[0, 1]`: a renderer may rely on it to know
    /// when no later sample can change a pixel.
    fn color_into(&self, view_dir: Vec3, scratch: &mut Self::Scratch) -> Rgb;

    /// Per-point FLOPs of `(encoding, density, color)` stages.
    fn stage_flops(&self) -> (u64, u64, u64);
}

/// A process-unique identity for a fitted model: what a [`DirCache`] is keyed
/// on besides the direction. Never 0, so a new cache belongs to no model.
pub(crate) fn next_model_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What a model derives from the view direction alone, kept while the
/// direction repeats — it is constant along a ray, so every sample after a
/// ray's first reuses it (the software side of the paper's data reuse).
///
/// A hit needs the same model and the same direction bit for bit: `0.0` and
/// `-0.0` have different SH coefficients, and a NaN never matches, itself
/// included. A hit returns exactly what the miss stored, so caching cannot
/// change a result.
#[derive(Debug, Clone)]
pub(crate) struct DirCache<V> {
    model: u64,
    dir: Vec3,
    value: V,
}

impl<V> DirCache<V> {
    /// An empty cache around the storage `value`.
    pub(crate) fn new(value: V) -> Self {
        DirCache { model: 0, dir: Vec3::ZERO, value }
    }

    /// The value for `dir` under model `model` (its [`next_model_id`]),
    /// running `fill` on the stored value first unless both repeat.
    #[inline]
    pub(crate) fn get_or_fill(&mut self, model: u64, dir: Vec3, fill: impl FnOnce(&mut V)) -> &V {
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() && !a.is_nan();
        let hit = self.model == model
            && same(self.dir.x, dir.x)
            && same(self.dir.y, dir.y)
            && same(self.dir.z, dir.z);
        if !hit {
            fill(&mut self.value);
            (self.model, self.dir) = (model, dir);
        }
        &self.value
    }
}

/// Geometry-feature width handed from the density MLP to the color MLP.
pub const GEO_FEAT_DIM: usize = 15;
/// Density MLP output width (`1 + GEO_FEAT_DIM`).
pub const DENSITY_OUT_DIM: usize = 1 + GEO_FEAT_DIM;
/// Color MLP input width (`SH + GEO_FEAT_DIM`).
pub const COLOR_IN_DIM: usize = SH_DEGREE4_COEFFS + GEO_FEAT_DIM;
/// Hidden width of both MLPs (Instant-NGP uses 64).
pub const HIDDEN_DIM: usize = 64;

/// Reusable scratch buffers for model queries (avoids per-point allocation).
#[derive(Debug, Clone)]
pub struct Scratch {
    encoded: Vec<f32>,
    density_out: Vec<f32>,
    /// Running sums of the first color layer after its SH inputs.
    sh_sums: DirCache<Vec<f32>>,
    color_out: Vec<f32>,
    mlp: Vec<f32>,
}

/// A fitted Instant-NGP model over a world-space bounding box.
#[derive(Debug, Clone)]
pub struct NgpModel {
    encoder: HashEncoder,
    density_mlp: Mlp,
    color_mlp: Mlp,
    bounds: Aabb,
    occupancy: OccupancyGrid,
    /// Keys [`Scratch`]'s direction cache; a clone shares it with its
    /// (identical, immutable) color MLP.
    id: u64,
}

impl NgpModel {
    /// Assembles a model.
    ///
    /// # Panics
    ///
    /// Panics if the MLP shapes do not match the expected layout.
    pub fn new(
        encoder: HashEncoder,
        density_mlp: Mlp,
        color_mlp: Mlp,
        bounds: Aabb,
        occupancy: OccupancyGrid,
    ) -> Self {
        assert_eq!(density_mlp.in_dim(), encoder.encoded_dim(), "density MLP input mismatch");
        assert_eq!(density_mlp.out_dim(), DENSITY_OUT_DIM, "density MLP must emit 1+15");
        assert_eq!(color_mlp.in_dim(), COLOR_IN_DIM, "color MLP input mismatch");
        assert_eq!(color_mlp.out_dim(), 3, "color MLP must emit RGB");
        NgpModel { encoder, density_mlp, color_mlp, bounds, occupancy, id: next_model_id() }
    }

    /// The occupancy grid masking empty space (see [`OccupancyGrid`]).
    pub fn occupancy(&self) -> &OccupancyGrid {
        &self.occupancy
    }

    /// The hash encoder.
    pub fn encoder(&self) -> &HashEncoder {
        &self.encoder
    }

    /// Mutable access to the hash encoder (used by the SGD refinement pass).
    pub fn encoder_mut(&mut self) -> &mut HashEncoder {
        &mut self.encoder
    }

    /// The density MLP.
    pub fn density_mlp(&self) -> &Mlp {
        &self.density_mlp
    }

    /// The color MLP.
    pub fn color_mlp(&self) -> &Mlp {
        &self.color_mlp
    }

    /// World-space bounds of the modelled scene.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Allocates scratch buffers for the `_into` query variants.
    pub fn make_scratch(&self) -> Scratch {
        let mlp_len =
            self.density_mlp.make_scratch().len().max(self.color_mlp.make_scratch().len());
        Scratch {
            encoded: vec![0.0; self.encoder.encoded_dim()],
            density_out: vec![0.0; DENSITY_OUT_DIM],
            sh_sums: DirCache::new(vec![0.0; self.color_mlp.layers()[0].stride()]),
            color_out: vec![0.0; 3],
            mlp: vec![0.0; mlp_len],
        }
    }

    /// Density query: returns `σ ≥ 0` and the 15-dim geometry feature.
    /// Allocating convenience wrapper around [`Self::query_density_into`].
    pub fn query_density(&self, p_world: Vec3) -> (f32, Vec<f32>) {
        let mut s = self.make_scratch();
        let sigma = self.query_density_into(p_world, &mut s);
        (sigma, s.density_out[1..].to_vec())
    }

    /// Density query into caller scratch; the geometry feature is left in
    /// `scratch.density_out[1..]` for a subsequent
    /// [`Self::query_color_into`].
    pub fn query_density_into(&self, p_world: Vec3, scratch: &mut Scratch) -> f32 {
        let p01 = self.bounds.normalize(p_world);
        self.encoder.encode(p01, &mut scratch.encoded);
        self.density_mlp.forward_scratch(
            &scratch.encoded,
            &mut scratch.density_out,
            &mut scratch.mlp,
        );
        if !self.occupancy.occupied_world(p_world) {
            return 0.0;
        }
        scratch.density_out[0].max(0.0)
    }

    /// Color query from an explicit geometry feature.
    ///
    /// # Panics
    ///
    /// Panics if `geo_feat` is not 15-dimensional.
    pub fn query_color(&self, geo_feat: &[f32], view_dir: Vec3) -> Rgb {
        assert_eq!(geo_feat.len(), GEO_FEAT_DIM);
        let mut s = self.make_scratch();
        s.density_out[1..].copy_from_slice(geo_feat);
        self.query_color_into(view_dir, &mut s)
    }

    /// Color query using the geometry feature left in `scratch` by the last
    /// [`Self::query_density_into`] call.
    ///
    /// The first color layer sums its 16 SH inputs before the 15 geometry
    /// inputs, so the sums after the SH part depend on `view_dir` alone:
    /// they are computed once per direction and every later sample resumes
    /// from them — same values, same order as a whole forward pass.
    pub fn query_color_into(&self, view_dir: Vec3, scratch: &mut Scratch) -> Rgb {
        let first = &self.color_mlp.layers()[0];
        let sh_sums = scratch
            .sh_sums
            .get_or_fill(self.id, view_dir, |sums| first.prefix(&sh4(view_dir), sums));
        self.color_mlp.forward_from(
            sh_sums,
            SH_DEGREE4_COEFFS,
            &scratch.density_out[1..],
            &mut scratch.color_out,
            &mut scratch.mlp,
        );
        Rgb::new(scratch.color_out[0], scratch.color_out[1], scratch.color_out[2]).clamp01()
    }

    /// Combined density + color query (full per-point evaluation).
    pub fn query_point(&self, p_world: Vec3, view_dir: Vec3, scratch: &mut Scratch) -> (f32, Rgb) {
        let sigma = self.query_density_into(p_world, scratch);
        let color = self.query_color_into(view_dir, scratch);
        (sigma, color)
    }

    /// Per-point FLOPs of the three stages `(encoding, density, color)` —
    /// the quantities behind the Fig. 5 breakdown.
    pub fn flops_per_point(&self) -> (u64, u64, u64) {
        (self.encoder.flops_per_point(), self.density_mlp.flops(), self.color_mlp.flops())
    }
}

impl RadianceModel for NgpModel {
    type Scratch = Scratch;

    fn make_query_scratch(&self) -> Scratch {
        self.make_scratch()
    }

    fn model_bounds(&self) -> Aabb {
        self.bounds
    }

    fn occupied_along(&self, ray: &Ray, ts: impl IntoIterator<Item = f32>, out: &mut Vec<bool>) {
        self.occupancy.occupied_along(ray, ts, out);
    }

    fn density_into(&self, p_world: Vec3, scratch: &mut Scratch) -> f32 {
        self.query_density_into(p_world, scratch)
    }

    fn color_into(&self, view_dir: Vec3, scratch: &mut Scratch) -> Rgb {
        self.query_color_into(view_dir, scratch)
    }

    fn stage_flops(&self) -> (u64, u64, u64) {
        self.flops_per_point()
    }
}

/// The contract every model pins ([`RadianceModel`]: an answer depends only
/// on its question): samples along `p + i·x̂` whose direction repeats, then
/// changes, and then `p` again after another point (`p, q, p`), read bit for
/// bit the same through one kept scratch as through a fresh scratch each
/// time.
#[cfg(test)]
pub(crate) fn assert_kept_scratch_matches_fresh<M: RadianceModel>(model: &M, p: Vec3) {
    let bits = |c: Rgb| [c.r, c.g, c.b].map(f32::to_bits);
    let dirs = [Vec3::new(-0.5, -0.8, -0.3).normalized(), Vec3::Y];
    let along = (0..12).map(|i| (p + Vec3::X * (0.01 * i as f32), dirs[(i / 2) % 2]));
    let q = p + Vec3::new(0.03, -0.02, 0.05);
    let revisit = [(p, dirs[0]), (q, dirs[0]), (p, dirs[0]), (q, dirs[1]), (p, dirs[0])];
    let mut kept = model.make_query_scratch();
    for (i, (p, dir)) in along.chain(revisit).enumerate() {
        let mut fresh = model.make_query_scratch();
        let (got, want) = (model.density_into(p, &mut kept), model.density_into(p, &mut fresh));
        assert_eq!(got.to_bits(), want.to_bits(), "sample {i}");
        let (got, want) = (model.color_into(dir, &mut kept), model.color_into(dir, &mut fresh));
        assert_eq!(bits(got), bits(want), "sample {i}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::EmbeddingSet;
    use crate::grid::GridConfig;
    use crate::mlp::{Activation, Dense};
    use asdr_math::rng::seeded;
    use rand::Rng;

    fn dummy_model() -> NgpModel {
        let cfg = GridConfig::tiny();
        let enc = HashEncoder::new(cfg.clone(), EmbeddingSet::new(&cfg));
        let density = Mlp::new(vec![
            Dense::zeros(enc.encoded_dim(), HIDDEN_DIM, Activation::Relu),
            Dense::zeros(HIDDEN_DIM, DENSITY_OUT_DIM, Activation::None),
        ]);
        let color = Mlp::new(vec![
            Dense::zeros(COLOR_IN_DIM, HIDDEN_DIM, Activation::Relu),
            Dense::zeros(HIDDEN_DIM, HIDDEN_DIM, Activation::Relu),
            Dense::zeros(HIDDEN_DIM, 3, Activation::None),
        ]);
        NgpModel::new(
            enc,
            density,
            color,
            Aabb::centered(1.0),
            crate::occupancy::OccupancyGrid::solid(Aabb::centered(1.0)),
        )
    }

    #[test]
    fn zero_model_returns_zero_density_black_color() {
        let m = dummy_model();
        let mut s = m.make_scratch();
        let (sigma, c) = m.query_point(Vec3::ZERO, Vec3::Z, &mut s);
        assert_eq!(sigma, 0.0);
        assert_eq!(c, Rgb::BLACK);
    }

    #[test]
    fn scratch_and_alloc_paths_agree() {
        let mut m = dummy_model();
        // give the model some nonzero parameters
        for l in 0..m.encoder().config().levels {
            for (i, v) in
                m.encoder_mut().tables_mut().table_mut(l).params_mut().iter_mut().enumerate()
            {
                *v = ((i % 7) as f32 - 3.0) * 0.1;
            }
        }
        let w = m.density_mlp.clone();
        let mut layers = w.layers().to_vec();
        for (layer, m) in layers.iter_mut().zip([5, 3]) {
            let n = layer.in_dim() * layer.out_dim();
            let w: Vec<f32> = (0..n).map(|i| ((i % m) as f32 - (m / 2) as f32) * 0.05).collect();
            layer.import_row_major(&w);
        }
        m.density_mlp = Mlp::new(layers);

        let p = Vec3::new(0.2, -0.3, 0.4);
        let (sig_a, feat_a) = m.query_density(p);
        let mut s = m.make_scratch();
        let sig_b = m.query_density_into(p, &mut s);
        assert_eq!(sig_a, sig_b);
        assert_eq!(&feat_a[..], &s.density_out[1..]);
    }

    #[test]
    fn density_is_clamped_nonnegative() {
        let mut m = dummy_model();
        // bias the sigma output negative
        let mut layers = m.density_mlp.layers().to_vec();
        layers[1].bias_mut()[0] = -5.0;
        m.density_mlp = Mlp::new(layers);
        let (sigma, _) = m.query_density(Vec3::ZERO);
        assert_eq!(sigma, 0.0);
    }

    #[test]
    fn color_is_clamped_to_unit_range() {
        let mut m = dummy_model();
        let mut layers = m.color_mlp.layers().to_vec();
        layers[2].bias_mut().copy_from_slice(&[5.0, -5.0, 0.5]);
        m.color_mlp = Mlp::new(layers);
        let c = m.query_color(&[0.0; GEO_FEAT_DIM], Vec3::Z);
        assert_eq!(c, Rgb::new(1.0, 0.0, 0.5));
    }

    /// `dummy_model` with every MLP weight and bias drawn from `seed`.
    fn seeded_model(seed: u64) -> NgpModel {
        let mut m = dummy_model();
        let mut rng = seeded("model-test", seed);
        let mut fill = |mlp: &Mlp| {
            let mut layers = mlp.layers().to_vec();
            for layer in &mut layers {
                let n = layer.in_dim() * layer.out_dim();
                let w: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
                layer.import_row_major(&w);
                layer.bias_mut().fill_with(|| rng.gen_range(-0.5..0.5));
            }
            Mlp::new(layers)
        };
        m.density_mlp = fill(&m.density_mlp);
        m.color_mlp = fill(&m.color_mlp);
        m
    }

    fn geo_feat(seed: usize) -> [f32; GEO_FEAT_DIM] {
        std::array::from_fn(|i| ((seed * 31 + i * 7) % 13) as f32 * 0.1 - 0.6)
    }

    /// The color through `scratch`, which keeps whatever direction it saw.
    fn color_through(m: &NgpModel, geo: &[f32], dir: Vec3, scratch: &mut Scratch) -> [u32; 3] {
        scratch.density_out[1..].copy_from_slice(geo);
        let c = m.query_color_into(dir, scratch);
        [c.r, c.g, c.b].map(f32::to_bits)
    }

    /// The color through a scratch that has seen nothing.
    fn color_fresh(m: &NgpModel, geo: &[f32], dir: Vec3) -> [u32; 3] {
        let c = m.query_color(geo, dir);
        [c.r, c.g, c.b].map(f32::to_bits)
    }

    #[test]
    fn alternating_directions_on_one_scratch_match_a_fresh_scratch() {
        let mut m = seeded_model(1);
        for l in 0..m.encoder().config().levels {
            let params = m.encoder_mut().tables_mut().table_mut(l).params_mut();
            (0..).zip(params).for_each(|(i, v)| *v = ((i % 7) as f32 - 3.0) * 0.1);
        }
        assert_kept_scratch_matches_fresh(&m, Vec3::new(0.2, -0.3, 0.4));
    }

    #[test]
    fn a_scratch_that_crosses_models_never_returns_the_other_models_sums() {
        let (a, b) = (seeded_model(2), seeded_model(3));
        let (geo, dir) = (geo_feat(5), Vec3::new(0.1, 0.7, -0.7).normalized());
        assert_ne!(color_fresh(&a, &geo, dir), color_fresh(&b, &geo, dir), "models must differ");
        let mut s = a.make_scratch();
        for m in [&a, &b, &b, &a, &a.clone()] {
            assert_eq!(color_through(m, &geo, dir, &mut s), color_fresh(m, &geo, dir));
        }
    }

    #[test]
    fn dir_cache_hits_need_the_same_model_and_the_same_bits() {
        let mut cache = DirCache::new(0u32);
        let mut fills = 0;
        let mut get = |model: u64, dir: Vec3| {
            *cache.get_or_fill(model, dir, |v| {
                fills += 1;
                *v = fills;
            })
        };
        assert_eq!(get(1, Vec3::ZERO), 1, "a new cache belongs to no model");
        assert_eq!(get(1, Vec3::ZERO), 1, "same model, same direction: a hit");
        assert_eq!(get(2, Vec3::ZERO), 2, "another model misses");
        assert_eq!(get(2, Vec3::new(0.0, -0.0, 0.0)), 3, "-0.0 is not 0.0");
        let nan = Vec3::new(0.0, f32::NAN, 1.0);
        assert_eq!(get(2, nan), 4);
        assert_eq!(get(2, nan), 5, "a NaN direction misses every time");
        assert_eq!(get(2, Vec3::Z), 6);
        assert_eq!(get(2, Vec3::Z), 6);
    }

    #[test]
    fn a_nan_direction_leaves_nothing_behind() {
        let m = seeded_model(4);
        let (geo, dir) = (geo_feat(9), Vec3::new(0.0, 0.6, 0.8));
        let mut s = m.make_scratch();
        let nan = Vec3::new(f32::NAN, 0.0, 1.0);
        assert_eq!(color_through(&m, &geo, nan, &mut s), color_fresh(&m, &geo, nan));
        assert_eq!(color_through(&m, &geo, dir, &mut s), color_fresh(&m, &geo, dir));
    }

    #[test]
    fn flops_split_matches_shapes() {
        let m = dummy_model();
        let (enc, den, col) = m.flops_per_point();
        assert!(enc > 0 && den > 0 && col > 0);
        // color MLP is the heavyweight (paper Fig. 5)
        assert!(col > den);
        assert!(den > enc);
    }
}
