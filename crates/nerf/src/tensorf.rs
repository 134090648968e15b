//! TensoRF substrate: vector-matrix (VM) tensor decomposition.
//!
//! TensoRF (Chen et al., ECCV'22) factorizes the radiance volume into three
//! plane ⊗ line products per rank component:
//!
//! `q(x,y,z) = Σ_r  M_XY,r(x,y)·v_Z,r(z) + M_XZ,r(x,z)·v_Y,r(y) +
//!             M_YZ,r(y,z)·v_X,r(x)`
//!
//! The paper evaluates ASDR on TensoRF in §6.8 (Fig. 25, Table 4) to show
//! the optimizations generalize beyond hash grids. Unlike the NGP fit, this
//! model is trained by plain SGD against the analytic field — the factors
//! have no closed-form fill — which also demonstrates the repo's end-to-end
//! trainability.

use crate::fit::{eval_specular_sh, fit_specular_sh, SIGMA_SCALE};
use crate::model::{next_model_id, DirCache, RadianceModel, MAX_IN_FLIGHT};
use crate::occupancy::OccupancyGrid;
use asdr_math::interp::bilinear;
use asdr_math::rng::seeded;
use asdr_math::sh::SH_DEGREE4_COEFFS;
use asdr_math::{Aabb, Ray, Rgb, Vec3};
use asdr_scenes::SceneField;
use rand::Rng;

/// TensoRF fitting hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TensoRfConfig {
    /// Grid resolution per axis for planes and lines.
    pub grid_res: usize,
    /// Rank (number of VM components) per quantity.
    pub rank: usize,
    /// SGD steps.
    pub steps: usize,
    /// SGD learning rate.
    pub lr: f32,
}

impl TensoRfConfig {
    /// Evaluation-scale configuration.
    pub fn small() -> Self {
        TensoRfConfig { grid_res: 64, rank: 8, steps: 60_000, lr: 0.6 }
    }

    /// Unit-test configuration.
    pub fn tiny() -> Self {
        TensoRfConfig { grid_res: 24, rank: 4, steps: 12_000, lr: 0.6 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if any field is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid_res < 2 {
            return Err("grid_res must be >= 2".into());
        }
        if self.rank == 0 {
            return Err("rank must be >= 1".into());
        }
        if self.lr <= 0.0 {
            return Err("lr must be positive".into());
        }
        Ok(())
    }
}

/// One scalar quantity factored as `Σ_r Σ_axis plane·line`.
#[derive(Debug, Clone, PartialEq)]
pub struct VmFactor {
    res: usize,
    rank: usize,
    /// `planes[axis][r * res*res + v*res + u]`, axes = XY, XZ, YZ.
    planes: [Vec<f32>; 3],
    /// `lines[axis][r * res + i]`, axes = Z, Y, X (paired with planes).
    lines: [Vec<f32>; 3],
}

impl VmFactor {
    /// Zero-plane / small-positive-line initialization (so SGD gradients
    /// flow into the planes first).
    pub fn init(res: usize, rank: usize, rng: &mut impl Rng) -> Self {
        let planes = std::array::from_fn(|_| vec![0.0; rank * res * res]);
        let lines =
            std::array::from_fn(|_| (0..rank * res).map(|_| rng.gen_range(0.05..0.25)).collect());
        VmFactor { res, rank, planes, lines }
    }

    /// `(u, v, w)` coordinates of a normalized point for `axis`:
    /// plane coordinates first, then the line coordinate.
    #[inline]
    fn axis_coords(p01: Vec3, axis: usize) -> (f32, f32, f32) {
        match axis {
            0 => (p01.x, p01.y, p01.z), // XY plane, Z line
            1 => (p01.x, p01.z, p01.y), // XZ plane, Y line
            _ => (p01.y, p01.z, p01.x), // YZ plane, X line
        }
    }

    #[inline]
    fn grid_pos(&self, c: f32) -> (usize, usize, f32) {
        let g = c.clamp(0.0, 1.0) * (self.res - 1) as f32;
        let i0 = (g as usize).min(self.res - 2);
        (i0, i0 + 1, g - i0 as f32)
    }

    /// Evaluates the factor at a normalized point.
    pub fn eval(&self, p01: Vec3) -> f32 {
        let mut acc = 0.0f32;
        for axis in 0..3 {
            let (u, v, w) = Self::axis_coords(p01, axis);
            let (u0, u1, fu) = self.grid_pos(u);
            let (v0, v1, fv) = self.grid_pos(v);
            let (w0, w1, fw) = self.grid_pos(w);
            let plane = &self.planes[axis];
            let line = &self.lines[axis];
            let rr = self.res * self.res;
            for r in 0..self.rank {
                let base = r * rr;
                let pv = bilinear(
                    plane[base + v0 * self.res + u0],
                    plane[base + v0 * self.res + u1],
                    plane[base + v1 * self.res + u0],
                    plane[base + v1 * self.res + u1],
                    fu,
                    fv,
                );
                let lv = line[r * self.res + w0] * (1.0 - fw) + line[r * self.res + w1] * fw;
                acc += pv * lv;
            }
        }
        acc
    }

    /// One SGD step toward `target` at `p01` with learning rate `lr`.
    /// Returns the pre-update prediction.
    pub fn sgd_step(&mut self, p01: Vec3, target: f32, lr: f32) -> f32 {
        let pred = self.eval(p01);
        let grad = 2.0 * (pred - target);
        if grad == 0.0 {
            return pred;
        }
        let rr = self.res * self.res;
        for axis in 0..3 {
            let (u, v, w) = Self::axis_coords(p01, axis);
            let (u0, u1, fu) = self.grid_pos(u);
            let (v0, v1, fv) = self.grid_pos(v);
            let (w0, w1, fw) = self.grid_pos(w);
            for r in 0..self.rank {
                let base = r * rr;
                // current values (pre-update) for the product rule
                let corners = [
                    (v0 * self.res + u0, (1.0 - fu) * (1.0 - fv)),
                    (v0 * self.res + u1, fu * (1.0 - fv)),
                    (v1 * self.res + u0, (1.0 - fu) * fv),
                    (v1 * self.res + u1, fu * fv),
                ];
                let lv = self.lines[axis][r * self.res + w0] * (1.0 - fw)
                    + self.lines[axis][r * self.res + w1] * fw;
                let pv =
                    corners.iter().map(|&(i, wgt)| self.planes[axis][base + i] * wgt).sum::<f32>();
                // ∂q/∂plane_corner = corner_weight · line_value
                for &(i, wgt) in &corners {
                    self.planes[axis][base + i] -= lr * grad * wgt * lv;
                }
                // ∂q/∂line_end = plane_value · end_weight
                self.lines[axis][r * self.res + w0] -= lr * grad * pv * (1.0 - fw);
                self.lines[axis][r * self.res + w1] -= lr * grad * pv * fw;
            }
        }
        pred
    }

    /// Total stored parameters.
    pub fn param_count(&self) -> usize {
        self.planes.iter().map(Vec::len).sum::<usize>()
            + self.lines.iter().map(Vec::len).sum::<usize>()
    }
}

/// Query scratch for [`TensoRfModel`] (holds each slot's diffuse color
/// between the density and color queries plus the specular term of the last
/// direction).
#[derive(Debug, Clone)]
pub struct TensoRfScratch {
    diffuse: [[f32; 3]; MAX_IN_FLIGHT],
    spec: DirCache<f32>,
}

/// A fitted TensoRF model.
#[derive(Debug, Clone)]
pub struct TensoRfModel {
    sigma: VmFactor,
    color: [VmFactor; 3],
    spec_sh: [f32; SH_DEGREE4_COEFFS],
    bounds: Aabb,
    occupancy: OccupancyGrid,
    cfg: TensoRfConfig,
    id: u64,
}

impl TensoRfModel {
    /// Fits a TensoRF model to `field` by SGD.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn fit(field: &dyn SceneField, cfg: &TensoRfConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid TensoRF config");
        let mut rng = seeded("tensorf-fit", seed);
        let bounds = field.bounds();
        let occupancy = OccupancyGrid::build(field, OccupancyGrid::DEFAULT_RES);
        let mut sigma = VmFactor::init(cfg.grid_res, cfg.rank, &mut rng);
        let mut color: [VmFactor; 3] =
            std::array::from_fn(|_| VmFactor::init(cfg.grid_res, cfg.rank, &mut rng));

        // pre-collect occupied cell centers for biased sampling
        let mut occupied_pts = Vec::new();
        let probe = 32;
        for z in 0..probe {
            for y in 0..probe {
                for x in 0..probe {
                    let u = Vec3::new(
                        (x as f32 + 0.5) / probe as f32,
                        (y as f32 + 0.5) / probe as f32,
                        (z as f32 + 0.5) / probe as f32,
                    );
                    if occupancy.occupied01(u) {
                        occupied_pts.push(u);
                    }
                }
            }
        }
        assert!(!occupied_pts.is_empty(), "scene is empty");

        for step in 0..cfg.steps {
            // 70% of samples near content, 30% uniform (empty-space zeros)
            let p01 = if step % 10 < 7 {
                let c = occupied_pts[rng.gen_range(0..occupied_pts.len())];
                let jitter = Vec3::new(
                    rng.gen_range(-0.02..0.02),
                    rng.gen_range(-0.02..0.02),
                    rng.gen_range(-0.02..0.02),
                );
                (c + jitter).clamp(0.0, 1.0)
            } else {
                Vec3::new(rng.gen(), rng.gen(), rng.gen())
            };
            let pw = bounds.denormalize(p01);
            let lr = cfg.lr * (1.0 - 0.9 * step as f32 / cfg.steps as f32);
            sigma.sgd_step(p01, field.density(pw) / SIGMA_SCALE, lr);
            let d = field.diffuse(pw);
            color[0].sgd_step(p01, d.r, lr);
            color[1].sgd_step(p01, d.g, lr);
            color[2].sgd_step(p01, d.b, lr);
        }

        TensoRfModel {
            sigma,
            color,
            spec_sh: fit_specular_sh(),
            bounds,
            occupancy,
            cfg: cfg.clone(),
            id: next_model_id(),
        }
    }

    /// Fitting configuration.
    pub fn config(&self) -> &TensoRfConfig {
        &self.cfg
    }

    /// Occupancy mask.
    pub fn occupancy(&self) -> &OccupancyGrid {
        &self.occupancy
    }

    /// Total stored parameters across all factors.
    pub fn param_count(&self) -> usize {
        self.sigma.param_count() + self.color.iter().map(VmFactor::param_count).sum::<usize>()
    }

    /// Table lookups per point query (planes fetch 4 entries, lines 2, per
    /// axis, per quantity) — consumed by the architecture mapping for
    /// Fig. 25.
    pub fn lookups_per_point(&self) -> u64 {
        // 4 quantities × 3 axes × (4 + 2)
        4 * 3 * 6
    }
}

impl RadianceModel for TensoRfModel {
    type Scratch = TensoRfScratch;

    fn make_query_scratch(&self) -> TensoRfScratch {
        TensoRfScratch { diffuse: [[0.0; 3]; MAX_IN_FLIGHT], spec: DirCache::new(0.0) }
    }

    fn model_bounds(&self) -> Aabb {
        self.bounds
    }

    fn occupied_along(&self, ray: &Ray, ts: impl IntoIterator<Item = f32>, out: &mut Vec<bool>) {
        self.occupancy.occupied_along(ray, ts, out);
    }

    /// A pair is two single evaluations.
    fn density_into(&self, points: &[Vec3], scratch: &mut TensoRfScratch, sigma: &mut [f32]) {
        for ((&p_world, diffuse), sigma) in points.iter().zip(&mut scratch.diffuse).zip(sigma) {
            let p01 = self.bounds.normalize(p_world);
            for (d, c) in diffuse.iter_mut().zip(&self.color) {
                *d = c.eval(p01);
            }
            *sigma = (self.sigma.eval(p01) * SIGMA_SCALE).max(0.0);
        }
    }

    fn color_into(
        &self,
        view_dir: Vec3,
        slots: &[usize],
        scratch: &mut TensoRfScratch,
        colors: &mut [Rgb],
    ) {
        let spec = *scratch.spec.get_or_fill(self.id, view_dir, |spec| {
            *spec = eval_specular_sh(&self.spec_sh, view_dir);
        });
        for (&slot, c) in slots.iter().zip(colors) {
            let [r, g, b] = scratch.diffuse[slot];
            *c = Rgb::new(r + spec, g + spec, b + spec).clamp01();
        }
    }

    fn stage_flops(&self) -> (u64, u64, u64) {
        // encoding ≈ plane/line interpolation MACs; density = σ decode;
        // color = 3 channels + SH dot product
        let per_quantity = 3 * self.cfg.rank as u64 * (8 + 3 + 2);
        let encode = 4 * per_quantity;
        let density = 2 * self.cfg.rank as u64 * 3;
        let color = 3 * per_quantity + 2 * SH_DEGREE4_COEFFS as u64 * 3;
        (encode, density, color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{color_of, density_of};
    use asdr_scenes::registry;

    #[test]
    fn vm_factor_fits_separable_function() {
        // f(x,y,z) = x·y·z is rank-1 in the XY⊗Z term
        let mut rng = seeded("vm-test", 0);
        let mut f = VmFactor::init(16, 2, &mut rng);
        let mut rng2 = seeded("vm-test-data", 0);
        for step in 0..20_000 {
            let p = Vec3::new(rng2.gen(), rng2.gen(), rng2.gen());
            let lr = 0.5 * (1.0 - 0.9 * step as f32 / 20_000.0);
            f.sgd_step(p, p.x * p.y * p.z, lr);
        }
        let mut err = 0.0f32;
        for i in 0..100 {
            let t = i as f32 / 100.0;
            let p = Vec3::new(t, (t * 7.0).fract(), (t * 3.0).fract());
            err = err.max((f.eval(p) - p.x * p.y * p.z).abs());
        }
        assert!(err < 0.15, "VM fit error too large: {err}");
    }

    #[test]
    fn sgd_step_reduces_pointwise_error() {
        let mut rng = seeded("vm-step", 0);
        let mut f = VmFactor::init(8, 2, &mut rng);
        let p = Vec3::new(0.3, 0.6, 0.2);
        let before = (f.eval(p) - 1.0).abs();
        for _ in 0..50 {
            f.sgd_step(p, 1.0, 0.1);
        }
        let after = (f.eval(p) - 1.0).abs();
        assert!(after < before, "{before} -> {after}");
        assert!(after < 0.05);
    }

    #[test]
    fn fitted_tensorf_tracks_field() {
        let scene = registry::handle("Hotdog").build();
        let model = TensoRfModel::fit(scene.as_ref(), &TensoRfConfig::tiny(), 0);
        let mut s = model.make_query_scratch();
        // inside the sausage
        let inside = Vec3::new(0.0, -0.34, 0.0);
        let sig = density_of(&model, inside, &mut s);
        assert!(sig > 5.0, "inside density {sig}");
        assert!(model.occupancy().occupied_world(inside));
        // far corner: the caller masks its density to 0
        let out = Vec3::new(0.9, 0.9, 0.9);
        assert!(!model.occupancy().occupied_world(out), "occupancy must mask empty space");
    }

    #[test]
    fn color_includes_specular() {
        let scene = registry::handle("Chair").build();
        let model = TensoRfModel::fit(scene.as_ref(), &TensoRfConfig::tiny(), 0);
        let mut s = model.make_query_scratch();
        let p = Vec3::new(0.0, -0.1, 0.0);
        density_of(&model, p, &mut s);
        let toward_light = Vec3::new(-0.5, -0.8, -0.3).normalized();
        let away = Vec3::Y;
        let c1 = color_of(&model, toward_light, &mut s);
        let c2 = color_of(&model, away, &mut s);
        assert!(c1.luminance() > c2.luminance(), "specular should brighten {c1} vs {c2}");
    }

    #[test]
    fn alternating_directions_on_one_scratch_match_a_fresh_scratch() {
        let scene = registry::handle("Chair").build();
        let model = TensoRfModel::fit(scene.as_ref(), &TensoRfConfig::tiny(), 0);
        crate::model::assert_kept_scratch_matches_fresh(&model, Vec3::new(0.0, -0.1, 0.0));
    }

    #[test]
    fn flops_and_params_positive() {
        let scene = registry::handle("Mic").build();
        let model = TensoRfModel::fit(scene.as_ref(), &TensoRfConfig::tiny(), 0);
        let (e, d, c) = model.stage_flops();
        assert!(e > 0 && d > 0 && c > 0);
        assert!(model.param_count() > 0);
        assert_eq!(model.lookups_per_point(), 72);
    }

    #[test]
    fn config_validation() {
        assert!(TensoRfConfig::tiny().validate().is_ok());
        assert!(TensoRfConfig { grid_res: 1, ..TensoRfConfig::tiny() }.validate().is_err());
        assert!(TensoRfConfig { rank: 0, ..TensoRfConfig::tiny() }.validate().is_err());
        assert!(TensoRfConfig { lr: 0.0, ..TensoRfConfig::tiny() }.validate().is_err());
    }
}
