//! A volumetric cloud: smooth density with no sharp surface ("Cloud").
//!
//! Every paper scene converts an SDF to density through a thin shell, so
//! rays saturate within a few samples of the first surface. A cloud has no
//! surface at all: density is a smooth noise-modulated falloff, rays stay
//! semi-transparent deep into the volume, and early termination / adaptive
//! sampling face their worst case. The registry makes shipping such a field
//! a one-file affair — it is just another [`SceneField`] implementation.

use crate::field::SceneField;
use crate::registry::{OrbitCamera, SceneDef, SceneKind};
use crate::sdf::value_noise;
use asdr_math::{Aabb, Rgb, Vec3};

/// A puffy ellipsoidal cloud bank: three lobes with fbm-style noise erosion
/// and a soft quadratic envelope instead of a surface shell.
#[derive(Debug, Clone, Copy)]
pub struct CloudScene {
    /// Peak density at a lobe center (8, chosen so a ray through a lobe
    /// center accumulates opacity gradually over dozens of samples rather
    /// than saturating at a shell).
    sigma_peak: f32,
}

impl Default for CloudScene {
    fn default() -> Self {
        CloudScene { sigma_peak: 8.0 }
    }
}

impl CloudScene {
    /// The smooth `[0, 1]` envelope: sum of three squared-falloff lobes,
    /// eroded by two octaves of value noise.
    fn envelope(p: Vec3) -> f32 {
        let lobes = [
            (Vec3::new(-0.25, -0.1, 0.05), 0.55),
            (Vec3::new(0.3, 0.05, -0.15), 0.45),
            (Vec3::new(0.05, 0.25, 0.3), 0.38),
        ];
        let mut e = 0.0f32;
        for (c, r) in lobes {
            let q = ((p - c).norm() / r).min(1.0);
            // quadratic falloff: 1 at the center, 0 at the lobe radius
            e += (1.0 - q * q).max(0.0);
        }
        let e = e.min(1.0);
        // erode with two noise octaves for wispy edges
        let n = 0.55 * value_noise(p, 4.0) + 0.25 * value_noise(p, 9.0);
        (e + 0.45 * n - 0.25).clamp(0.0, 1.0)
    }
}

impl SceneField for CloudScene {
    fn density(&self, p: Vec3) -> f32 {
        if !self.bounds().contains(p) {
            return 0.0;
        }
        self.sigma_peak * Self::envelope(p)
    }

    fn albedo(&self, p: Vec3) -> Rgb {
        // brighter tops, grey-blue undersides
        let t = ((p.y + 0.6) / 1.2).clamp(0.0, 1.0);
        Rgb::new(0.62, 0.66, 0.74).lerp(Rgb::new(0.97, 0.97, 0.99), t)
    }

    fn bounds(&self) -> Aabb {
        Aabb::centered(1.0)
    }
}

/// The `Cloud` scene's registry descriptor.
pub fn scene_def() -> SceneDef {
    SceneDef::new("Cloud", || Box::<CloudScene>::default())
        .dataset("ASDR-Zoo")
        .resolution(800, 800)
        .kind(SceneKind::Synthetic)
        .camera_spec(OrbitCamera::new(55.0, 12.0, 3.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_is_smooth_not_shell_like() {
        let s = CloudScene::default();
        // walk a line through the first lobe: density must take many small
        // steps, never the near-instant 0 -> sigma_max jump of an SDF shell
        let c = Vec3::new(-0.25, -0.1, 0.05);
        let mut max_step = 0.0f32;
        let mut prev = s.density(c + Vec3::new(-0.8, 0.0, 0.0));
        for i in 1..=160 {
            let p = c + Vec3::new(-0.8 + i as f32 * 0.01, 0.0, 0.0);
            let d = s.density(p);
            max_step = max_step.max((d - prev).abs());
            prev = d;
        }
        assert!(
            max_step < 0.35 * s.sigma_peak,
            "cloud density jumps like a surface shell: {max_step}"
        );
    }

    #[test]
    fn rays_stay_semi_transparent() {
        // transmittance through the densest lobe stays well above the
        // early-termination threshold for the first half of the traversal
        let s = CloudScene::default();
        let steps = 64;
        let dt = 2.0 / steps as f32;
        let mut transmittance = 1.0f32;
        for i in 0..steps / 2 {
            let p = Vec3::new(-1.0 + (i as f32 + 0.5) * dt, -0.1, 0.05);
            transmittance *= (-s.density(p) * dt).exp();
        }
        assert!(transmittance > 1e-3, "cloud saturates like a solid: T = {transmittance}");
    }

    #[test]
    fn has_content_and_background() {
        let s = CloudScene::default();
        let occ = s.occupancy(1.0, 24);
        assert!(occ > 0.01 && occ < 0.7, "occ = {occ}");
        assert_eq!(s.density(Vec3::splat(1.5)), 0.0);
        assert!(s.density(Vec3::new(-0.25, -0.1, 0.05)) > 1.0, "lobe center must have density");
    }
}
