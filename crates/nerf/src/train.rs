//! Volumetric training: fitting the hash grid from 2D images.
//!
//! The experiment harness uses the closed-form field fit ([`crate::fit`]);
//! this module provides what a real deployment needs — gradient descent on
//! the photometric loss through the volume-rendering integral, i.e. actual
//! NeRF training. The decoder MLPs stay fixed (they implement the linear
//! decode); gradients flow into the embedding tables through
//!
//! `C = Σ_i T_i α_i c_i`, `α_i = 1 − exp(−σ_i δ_i)`,
//! `T_i = Π_{j<i} (1 − α_j)`
//!
//! with `∂C/∂c_i = T_i α_i` and
//! `∂C/∂α_i = T_i c_i − (Σ_{j>i} T_j α_j c_j) / (1 − α_i)`,
//! then through the linear decode and the trilinear interpolation weights
//! into the individual table rows — the exact backward pass of the original
//! Instant-NGP, specialized to frozen MLPs.

use crate::fit::{decode_plans_for, SIGMA_SCALE};
use crate::model::NgpModel;
use asdr_math::interp::{trilinear_weights, CORNER_OFFSETS};
use asdr_math::rng::seeded;
use asdr_math::{Camera, Image, Vec3};
use asdr_scenes::field::specular_lobe;
use rand::Rng;

/// Volumetric-training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Optimization iterations.
    pub iters: usize,
    /// Rays sampled per iteration.
    pub rays_per_iter: usize,
    /// Samples per ray.
    pub samples: usize,
    /// Learning rate on the embedding entries.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl TrainConfig {
    /// Unit-test scale.
    pub fn tiny() -> Self {
        TrainConfig { iters: 300, rays_per_iter: 64, samples: 32, lr: 1.5, seed: 0 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if any field is zero or non-positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.iters == 0 || self.rays_per_iter == 0 || self.samples == 0 {
            return Err("iters, rays_per_iter, samples must be >= 1".into());
        }
        if self.lr <= 0.0 {
            return Err("lr must be positive".into());
        }
        Ok(())
    }
}

/// Before/after photometric loss of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean squared pixel error before training.
    pub initial_loss: f64,
    /// Mean squared pixel error after training.
    pub final_loss: f64,
}

/// One cached sample along a training ray.
#[derive(Debug, Clone, Copy)]
struct TrainSample {
    p01: Vec3,
    sigma: f32,
    alpha: f32,
    trans: f32,
    color: [f32; 3],
    delta: f32,
    occupied: bool,
}

/// Decodes the four linear quantities (σ', r, g, b) at `p01` straight from
/// the tables (bypassing the MLP, which implements the same function).
fn decode_quantities(
    model: &NgpModel,
    plans: &[Vec<(usize, usize, f32)>; 4],
    p01: Vec3,
) -> [f32; 4] {
    let tables = model.encoder().tables();
    let mut out = [0.0f32; 4];
    for (qi, lanes) in plans.iter().enumerate() {
        for &(level, slot, w) in lanes {
            let table = tables.table(level);
            let ((bx, by, bz), frac) = table.plan().voxel_of(p01);
            let tw = trilinear_weights(frac.x, frac.y, frac.z);
            for (i, &(dx, dy, dz)) in CORNER_OFFSETS.iter().enumerate() {
                out[qi] += w * tw[i] * table.lookup(bx + dx, by + dy, bz + dz)[slot];
            }
        }
    }
    out
}

/// Scatters a gradient on quantity `qi` at `p01` back into the tables.
fn scatter_gradient(
    model: &mut NgpModel,
    plans: &[Vec<(usize, usize, f32)>; 4],
    p01: Vec3,
    qi: usize,
    grad: f32,
    lr: f32,
) {
    if grad == 0.0 {
        return;
    }
    for &(level, slot, w) in &plans[qi] {
        let table = model.encoder_mut().tables_mut().table_mut(level);
        let ((bx, by, bz), frac) = table.plan().voxel_of(p01);
        let tw = trilinear_weights(frac.x, frac.y, frac.z);
        for (i, &(dx, dy, dz)) in CORNER_OFFSETS.iter().enumerate() {
            let row = table.row_of(bx + dx, by + dy, bz + dz);
            table.row_mut(row)[slot] -= lr * grad * w * tw[i];
        }
    }
}

/// Trains the embedding tables of `model` against posed RGB images by
/// stochastic gradient descent on the squared photometric error.
///
/// Returns the loss before and after (measured on a fixed probe ray set).
///
/// # Panics
///
/// Panics if `cfg` is invalid, `views` is empty, or a view's camera and
/// image disagree on resolution.
pub fn train_volumetric(
    model: &mut NgpModel,
    views: &[(Camera, Image)],
    cfg: &TrainConfig,
) -> TrainReport {
    cfg.validate().expect("invalid train config");
    assert!(!views.is_empty(), "need at least one training view");
    for (cam, img) in views {
        assert_eq!(cam.width(), img.width(), "camera/image width mismatch");
        assert_eq!(cam.height(), img.height(), "camera/image height mismatch");
    }
    let plans = decode_plans_for(model.encoder().config());
    let mut rng = seeded("train-volumetric", cfg.seed);

    // fixed probe rays for the before/after loss
    let probe: Vec<(usize, u32, u32)> = (0..256)
        .map(|_| {
            let v = rng.gen_range(0..views.len());
            let (cam, _) = &views[v];
            (v, rng.gen_range(0..cam.width()), rng.gen_range(0..cam.height()))
        })
        .collect();

    let eval_loss = |model: &NgpModel, plans: &[Vec<(usize, usize, f32)>; 4]| -> f64 {
        let mut acc = 0.0f64;
        for &(v, px, py) in &probe {
            let (cam, img) = &views[v];
            let (pred, _) = forward_ray(model, plans, cam, px, py, cfg.samples);
            let want = img.get(px, py);
            acc += ((pred[0] - want.r) as f64).powi(2)
                + ((pred[1] - want.g) as f64).powi(2)
                + ((pred[2] - want.b) as f64).powi(2);
        }
        acc / probe.len() as f64
    };
    let initial_loss = eval_loss(model, &plans);

    for _ in 0..cfg.iters {
        for _ in 0..cfg.rays_per_iter {
            let v = rng.gen_range(0..views.len());
            let (cam, img) = &views[v];
            let px = rng.gen_range(0..cam.width());
            let py = rng.gen_range(0..cam.height());
            let (pred, samples) = forward_ray(model, &plans, cam, px, py, cfg.samples);
            if samples.is_empty() {
                continue;
            }
            let want = img.get(px, py);
            let dl_dc =
                [2.0 * (pred[0] - want.r), 2.0 * (pred[1] - want.g), 2.0 * (pred[2] - want.b)];

            // suffix sums Σ_{j>i} T_j α_j c_j for the transmittance term
            let n = samples.len();
            let mut suffix = vec![[0.0f32; 3]; n + 1];
            for i in (0..n).rev() {
                let s = &samples[i];
                let wgt = s.trans * s.alpha;
                let next = suffix[i + 1];
                for (c, out) in suffix[i].iter_mut().enumerate() {
                    *out = next[c] + wgt * s.color[c];
                }
            }

            let lr = cfg.lr / cfg.rays_per_iter as f32;
            for (i, s) in samples.iter().enumerate() {
                if !s.occupied {
                    continue;
                }
                let weight = s.trans * s.alpha;
                // color gradients (diffuse channels; the view-dependent term
                // is a constant offset)
                for (c, &d) in dl_dc.iter().enumerate() {
                    let g = d * weight;
                    scatter_gradient(model, &plans, s.p01, 1 + c, g, lr);
                }
                // density gradient through α_i and the later transmittances
                if s.sigma > 0.0 || dl_dc.iter().any(|&g| g != 0.0) {
                    let dalpha_dsigma = s.delta * (1.0 - s.alpha); // δ·exp(−σδ)
                    let mut dl_dalpha = 0.0f32;
                    for c in 0..3 {
                        let dc_dalpha =
                            s.trans * s.color[c] - suffix[i + 1][c] / (1.0 - s.alpha).max(1e-4);
                        dl_dalpha += dl_dc[c] * dc_dalpha;
                    }
                    // σ = σ' · SIGMA_SCALE with ReLU; in the clipped region
                    // only positive-pushing gradients pass (subgradient)
                    let g_sigma = dl_dalpha * dalpha_dsigma * SIGMA_SCALE;
                    if s.sigma > 0.0 || g_sigma < 0.0 {
                        scatter_gradient(model, &plans, s.p01, 0, g_sigma, lr);
                    }
                }
            }
        }
    }

    TrainReport { initial_loss, final_loss: eval_loss(model, &plans) }
}

/// Forward pass of one ray via the linear decode; returns the composited
/// RGB and the per-sample cache for the backward pass.
fn forward_ray(
    model: &NgpModel,
    plans: &[Vec<(usize, usize, f32)>; 4],
    cam: &Camera,
    px: u32,
    py: u32,
    samples: usize,
) -> ([f32; 3], Vec<TrainSample>) {
    let ray = cam.ray_for_pixel(px, py);
    let Some(tr) = model.bounds().intersect(&ray) else {
        return ([0.0; 3], Vec::new());
    };
    if tr.is_empty() {
        return ([0.0; 3], Vec::new());
    }
    let spec = specular_lobe(ray.dir);
    let dt = tr.span() / samples as f32;
    let mut out = Vec::with_capacity(samples);
    let mut trans = 1.0f32;
    let mut rgb = [0.0f32; 3];
    for t in tr.midpoints(samples) {
        let pw = ray.at(t);
        let p01 = model.bounds().normalize(pw);
        let occupied = model.is_occupied(pw);
        let q = decode_quantities(model, plans, p01);
        let sigma = if occupied { (q[0] * SIGMA_SCALE).max(0.0) } else { 0.0 };
        let alpha = 1.0 - (-sigma * dt).exp();
        let color = [q[1] + spec, q[2] + spec, q[3] + spec];
        for c in 0..3 {
            rgb[c] += trans * alpha * color[c];
        }
        out.push(TrainSample { p01, sigma, alpha, trans, color, delta: dt, occupied });
        trans *= 1.0 - alpha;
        if trans < 1e-4 {
            break;
        }
    }
    (rgb, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fit_ngp;
    use crate::grid::GridConfig;
    use asdr_math::rng::seeded as seeded_rng;
    use asdr_scenes::gt::render_ground_truth;
    use asdr_scenes::registry;

    fn training_views(name: &str, n: usize, res: u32) -> Vec<(Camera, Image)> {
        let scene = registry::handle(name).build();
        (0..n)
            .map(|i| {
                let az = i as f32 * 360.0 / n as f32;
                let cam = Camera::orbit(Vec3::ZERO, 3.2, az, 20.0, 42.0, res, res);
                let img = render_ground_truth(scene.as_ref(), &cam, 96);
                (cam, img)
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss_from_perturbed_start() {
        let scene = registry::handle("Mic").build();
        let mut model = fit_ngp(scene.as_ref(), &GridConfig::tiny());
        // perturb the fitted tables to create something to recover
        let mut rng = seeded_rng("train-perturb", 0);
        for l in 0..model.encoder().config().levels {
            for v in model.encoder_mut().tables_mut().table_mut(l).params_mut() {
                *v += rng.gen_range(-0.08..0.08);
            }
        }
        let views = training_views("Mic", 3, 24);
        let report = train_volumetric(&mut model, &views, &TrainConfig::tiny());
        assert!(
            report.final_loss < report.initial_loss * 0.8,
            "training should recover: {report:?}"
        );
    }

    #[test]
    fn training_improves_held_out_view() {
        use asdr_math::metrics::psnr;
        let scene = registry::handle("Hotdog").build();
        let mut model = fit_ngp(scene.as_ref(), &GridConfig::tiny());
        let mut rng = seeded_rng("train-perturb2", 1);
        for l in 0..model.encoder().config().levels {
            for v in model.encoder_mut().tables_mut().table_mut(l).params_mut() {
                *v += rng.gen_range(-0.06..0.06);
            }
        }
        let views = training_views("Hotdog", 4, 24);
        // held-out view
        let held_cam = registry::handle("Hotdog").camera(24, 24);
        let held_gt = render_ground_truth(scene.as_ref(), &held_cam, 96);
        let before = render_with_decode(&model, &held_cam);
        let report = train_volumetric(&mut model, &views, &TrainConfig::tiny());
        let after = render_with_decode(&model, &held_cam);
        assert!(report.final_loss < report.initial_loss);
        let p_before = psnr(&before, &held_gt);
        let p_after = psnr(&after, &held_gt);
        assert!(
            p_after > p_before - 0.2,
            "held-out quality should not regress: {p_before:.2} -> {p_after:.2}"
        );
    }

    /// Renders a small frame through the same linear decode as training.
    fn render_with_decode(model: &NgpModel, cam: &Camera) -> Image {
        let plans = decode_plans_for(model.encoder().config());
        let mut img = Image::new(cam.width(), cam.height());
        for py in 0..cam.height() {
            for px in 0..cam.width() {
                let (rgb, _) = forward_ray(model, &plans, cam, px, py, 48);
                img.set(px, py, asdr_math::Rgb::new(rgb[0], rgb[1], rgb[2]).clamp01());
            }
        }
        img
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::tiny().validate().is_ok());
        assert!(TrainConfig { iters: 0, ..TrainConfig::tiny() }.validate().is_err());
        assert!(TrainConfig { lr: 0.0, ..TrainConfig::tiny() }.validate().is_err());
    }
}
