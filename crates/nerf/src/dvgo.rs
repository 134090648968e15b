//! DirectVoxGO-style dense-grid substrate (§8.1, Table 5 of the paper).
//!
//! DirectVoxGO models the scene with *dense* multi-resolution 3D grids and
//! no hashing — the paper lists it as the third model family ASDR's
//! optimizations apply to ("multi-resolution 3D grids, interpolation +
//! MLP"). This implementation stores one dense grid of four channels
//! (σ', r, g, b) per resolution level, decoded by trilinear interpolation
//! with coarse-to-fine residuals, exactly like the NGP fit but without the
//! hash (so no aliasing artifacts and no irregular addressing).

use crate::fit::{eval_specular_sh, fit_specular_sh, SIGMA_SCALE};
use crate::model::{next_model_id, DirCache, RadianceModel, MAX_IN_FLIGHT};
use crate::occupancy::OccupancyGrid;
use asdr_math::interp::{trilinear_weights, CORNER_OFFSETS};
use asdr_math::sh::SH_DEGREE4_COEFFS;
use asdr_math::{Aabb, Ray, Rgb, Vec3};
use asdr_scenes::SceneField;

/// Channels stored per grid vertex: scaled density plus diffuse RGB.
pub const DVGO_CHANNELS: usize = 4;

/// DirectVoxGO configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DvgoConfig {
    /// Per-axis grid resolutions, coarse to fine.
    pub resolutions: Vec<u32>,
}

impl DvgoConfig {
    /// Evaluation-scale configuration (coarse-to-fine pyramid).
    pub fn small() -> Self {
        DvgoConfig { resolutions: vec![16, 48, 128] }
    }

    /// Unit-test configuration.
    pub fn tiny() -> Self {
        DvgoConfig { resolutions: vec![8, 24] }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if empty or not strictly ascending.
    pub fn validate(&self) -> Result<(), String> {
        if self.resolutions.is_empty() {
            return Err("need at least one resolution".into());
        }
        let mut prev = 1;
        for &r in &self.resolutions {
            if r < 2 {
                return Err("resolutions must be >= 2".into());
            }
            if r <= prev {
                return Err("resolutions must be strictly ascending".into());
            }
            prev = r;
        }
        Ok(())
    }

    /// Total stored parameters.
    pub fn total_params(&self) -> usize {
        self.resolutions
            .iter()
            .map(|&r| {
                let v = (r + 1) as usize;
                v * v * v * DVGO_CHANNELS
            })
            .sum()
    }
}

/// One dense grid level.
#[derive(Debug, Clone, PartialEq)]
struct DenseLevel {
    res: u32,
    /// `[vertex][channel]`, row-major vertices.
    data: Vec<f32>,
}

impl DenseLevel {
    fn vres(&self) -> u32 {
        self.res + 1
    }

    #[inline]
    fn vertex(&self, x: u32, y: u32, z: u32) -> &[f32] {
        let v = self.vres() as usize;
        let i = (x as usize + v * (y as usize + v * z as usize)) * DVGO_CHANNELS;
        &self.data[i..i + DVGO_CHANNELS]
    }

    fn vertex_mut(&mut self, x: u32, y: u32, z: u32) -> &mut [f32] {
        let v = self.vres() as usize;
        let i = (x as usize + v * (y as usize + v * z as usize)) * DVGO_CHANNELS;
        &mut self.data[i..i + DVGO_CHANNELS]
    }

    /// Trilinear interpolation of all channels at normalized `p01`.
    fn sample(&self, p01: Vec3, out: &mut [f32; DVGO_CHANNELS]) {
        let scaled = p01.clamp(0.0, 1.0) * self.res as f32;
        let hi = (self.res - 1) as f32;
        let bx = scaled.x.floor().min(hi).max(0.0);
        let by = scaled.y.floor().min(hi).max(0.0);
        let bz = scaled.z.floor().min(hi).max(0.0);
        let w = trilinear_weights(
            (scaled.x - bx).clamp(0.0, 1.0),
            (scaled.y - by).clamp(0.0, 1.0),
            (scaled.z - bz).clamp(0.0, 1.0),
        );
        out.fill(0.0);
        let (bx, by, bz) = (bx as u32, by as u32, bz as u32);
        for (i, &(dx, dy, dz)) in CORNER_OFFSETS.iter().enumerate() {
            let vtx = self.vertex(bx + dx, by + dy, bz + dz);
            for c in 0..DVGO_CHANNELS {
                out[c] += w[i] * vtx[c];
            }
        }
    }
}

/// Query scratch for [`DvgoModel`].
#[derive(Debug, Clone)]
pub struct DvgoScratch {
    /// A slot's summed channels: density, then the diffuse colour.
    channels: [[f32; DVGO_CHANNELS]; MAX_IN_FLIGHT],
    spec: DirCache<f32>,
}

/// A fitted DirectVoxGO-style model.
#[derive(Debug, Clone)]
pub struct DvgoModel {
    levels: Vec<DenseLevel>,
    spec_sh: [f32; SH_DEGREE4_COEFFS],
    bounds: Aabb,
    occupancy: OccupancyGrid,
    id: u64,
}

impl DvgoModel {
    /// Fits the dense pyramid to `field` (coarse-to-fine residual fill, no
    /// SGD needed — the grids are collision-free).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn fit(field: &dyn SceneField, cfg: &DvgoConfig) -> Self {
        cfg.validate().expect("invalid DVGO config");
        let bounds = field.bounds();
        let mut levels: Vec<DenseLevel> = Vec::with_capacity(cfg.resolutions.len());
        for &res in &cfg.resolutions {
            let v = (res + 1) as usize;
            let mut level = DenseLevel { res, data: vec![0.0; v * v * v * DVGO_CHANNELS] };
            for z in 0..=res {
                for y in 0..=res {
                    for x in 0..=res {
                        let p01 = Vec3::new(
                            x as f32 / res as f32,
                            y as f32 / res as f32,
                            z as f32 / res as f32,
                        );
                        let pw = bounds.denormalize(p01);
                        // residual against the coarser levels
                        let mut prior = [0.0f32; DVGO_CHANNELS];
                        let mut acc = [0.0f32; DVGO_CHANNELS];
                        for l in &levels {
                            l.sample(p01, &mut acc);
                            for c in 0..DVGO_CHANNELS {
                                prior[c] += acc[c];
                            }
                        }
                        let d = field.diffuse(pw);
                        let target = [field.density(pw) / SIGMA_SCALE, d.r, d.g, d.b];
                        let dst = level.vertex_mut(x, y, z);
                        for c in 0..DVGO_CHANNELS {
                            dst[c] = target[c] - prior[c];
                        }
                    }
                }
            }
            levels.push(level);
        }
        DvgoModel {
            levels,
            spec_sh: fit_specular_sh(),
            bounds,
            occupancy: OccupancyGrid::build(field, OccupancyGrid::DEFAULT_RES),
            id: next_model_id(),
        }
    }

    /// Total stored parameters.
    pub fn param_count(&self) -> usize {
        self.levels.iter().map(|l| l.data.len()).sum()
    }

    /// Table lookups per point query (8 vertices × levels; every vertex
    /// fetch returns all four channels).
    pub fn lookups_per_point(&self) -> u64 {
        8 * self.levels.len() as u64
    }

    /// Occupancy mask.
    pub fn occupancy(&self) -> &OccupancyGrid {
        &self.occupancy
    }
}

impl RadianceModel for DvgoModel {
    type Scratch = DvgoScratch;

    fn make_query_scratch(&self) -> DvgoScratch {
        DvgoScratch { channels: [[0.0; DVGO_CHANNELS]; MAX_IN_FLIGHT], spec: DirCache::new(0.0) }
    }

    fn model_bounds(&self) -> Aabb {
        self.bounds
    }

    fn occupied_along(&self, ray: &Ray, ts: impl IntoIterator<Item = f32>, out: &mut Vec<bool>) {
        self.occupancy.occupied_along(ray, ts, out);
    }

    /// A pair is two single evaluations.
    fn density_into(&self, points: &[Vec3], scratch: &mut DvgoScratch, sigma: &mut [f32]) {
        for ((&p_world, channels), sigma) in points.iter().zip(&mut scratch.channels).zip(sigma) {
            let p01 = self.bounds.normalize(p_world);
            let mut acc = [0.0f32; DVGO_CHANNELS];
            *channels = [0.0; DVGO_CHANNELS];
            for l in &self.levels {
                l.sample(p01, &mut acc);
                for (ch, a) in channels.iter_mut().zip(&acc) {
                    *ch += a;
                }
            }
            *sigma = (channels[0] * SIGMA_SCALE).max(0.0);
        }
    }

    fn color_into(
        &self,
        view_dir: Vec3,
        slots: &[usize],
        scratch: &mut DvgoScratch,
        colors: &mut [Rgb],
    ) {
        let spec = *scratch.spec.get_or_fill(self.id, view_dir, |spec| {
            *spec = eval_specular_sh(&self.spec_sh, view_dir);
        });
        for (&slot, c) in slots.iter().zip(colors) {
            let [_, r, g, b] = scratch.channels[slot];
            *c = Rgb::new(r + spec, g + spec, b + spec).clamp01();
        }
    }

    fn stage_flops(&self) -> (u64, u64, u64) {
        // encoding = trilinear blends, density = scale+clamp, color = SH dot
        let encode = self.levels.len() as u64 * (24 + 8 * DVGO_CHANNELS as u64 * 2);
        let density = 2;
        let color = 2 * SH_DEGREE4_COEFFS as u64 + 6;
        (encode, density, color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{color_of, density_of};
    use asdr_scenes::registry;

    #[test]
    fn config_validation() {
        assert!(DvgoConfig::tiny().validate().is_ok());
        assert!(DvgoConfig { resolutions: vec![] }.validate().is_err());
        assert!(DvgoConfig { resolutions: vec![16, 16] }.validate().is_err());
        assert!(DvgoConfig { resolutions: vec![1] }.validate().is_err());
    }

    #[test]
    fn fitted_dvgo_tracks_field() {
        let scene = registry::handle("Mic").build();
        let model = DvgoModel::fit(scene.as_ref(), &DvgoConfig::tiny());
        let mut s = model.make_query_scratch();
        let inside = Vec3::new(0.0, 0.45, 0.0);
        let sigma = density_of(&model, inside, &mut s);
        assert!(sigma > 0.3 * scene.density(inside), "{sigma}");
        assert!(model.occupancy().occupied_world(inside));
        // the caller masks the density of empty space to 0
        assert!(!model.occupancy().occupied_world(Vec3::new(0.9, 0.9, 0.9)));
    }

    #[test]
    fn dense_grid_has_no_hash_artifacts() {
        // unlike the hashed NGP, the dense fit reproduces vertex values
        // exactly: query a fine-grid vertex position
        let scene = registry::handle("Hotdog").build();
        let cfg = DvgoConfig::tiny();
        let model = DvgoModel::fit(scene.as_ref(), &cfg);
        let res = *cfg.resolutions.last().unwrap();
        let mut s = model.make_query_scratch();
        let mut max_err = 0.0f32;
        for i in 0..60 {
            let (x, y, z) = ((i * 7) % res, (i * 5) % res, (i * 3) % res);
            let p01 =
                Vec3::new(x as f32 / res as f32, y as f32 / res as f32, z as f32 / res as f32);
            let pw = model.model_bounds().denormalize(p01);
            if !model.occupancy().occupied_world(pw) {
                continue;
            }
            let sigma = density_of(&model, pw, &mut s);
            max_err = max_err.max((sigma - scene.density(pw)).abs());
        }
        assert!(max_err < 0.5, "dense vertices must be exact: err {max_err}");
    }

    #[test]
    fn color_includes_diffuse_and_spec() {
        let scene = registry::handle("Lego").build();
        let model = DvgoModel::fit(scene.as_ref(), &DvgoConfig::tiny());
        let mut s = model.make_query_scratch();
        let p = Vec3::new(0.0, -0.18, -0.05); // lego body (yellow)
        density_of(&model, p, &mut s);
        let c = color_of(&model, Vec3::Z, &mut s);
        assert!(c.r > c.b, "body should be yellow-ish: {c}");
    }

    #[test]
    fn alternating_directions_on_one_scratch_match_a_fresh_scratch() {
        let scene = registry::handle("Chair").build();
        let model = DvgoModel::fit(scene.as_ref(), &DvgoConfig::tiny());
        crate::model::assert_kept_scratch_matches_fresh(&model, Vec3::new(0.0, -0.18, -0.05));
    }

    #[test]
    fn params_and_lookups() {
        let cfg = DvgoConfig::tiny();
        let scene = registry::handle("Mic").build();
        let model = DvgoModel::fit(scene.as_ref(), &cfg);
        assert_eq!(model.param_count(), cfg.total_params());
        assert_eq!(model.lookups_per_point(), 16);
    }
}
