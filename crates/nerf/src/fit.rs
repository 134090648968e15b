//! Fitting an NGP model to an analytic scene field.
//!
//! This is the offline substitute for gradient training (DESIGN.md §1). The
//! embedding pyramid is filled coarse-to-fine with *residuals*:
//!
//! * dense (collision-free) levels each store what the coarser levels of
//!   their quantity could not represent;
//! * hashed levels store the residual against the full dense reconstruction,
//!   with colliding vertices **averaged** — exactly the graceful degradation
//!   a trained Instant-NGP exhibits where the hash aliases, and the genuine
//!   source of this model's quality gap versus ground truth;
//! * the decoder MLPs are *constructed* (not trained): a ReLU
//!   positive/negative split makes the hidden layers information-preserving,
//!   and the output layers implement the linear decode. All matrices are
//!   full-size and dense, so every experiment executes the real MVM workload.
//!
//! The view-dependent specular term is projected onto the degree-4 SH basis
//! by least squares ([`fit_specular_sh`]).

use crate::embedding::EmbeddingSet;
use crate::encoder::HashEncoder;
use crate::grid::GridConfig;
use crate::mlp::{Activation, Dense, Mlp};
use crate::model::{MlpScales, NgpModel, COLOR_IN_DIM, DENSITY_OUT_DIM, HIDDEN_DIM};
use crate::occupancy::OccupancyGrid;
use asdr_math::interp::trilinear_weights;
use asdr_math::par::{self, detected_workers};
use asdr_math::rng::seeded;
use asdr_math::sh::{sh4, SH_DEGREE4_COEFFS};
use asdr_math::Vec3;
use asdr_scenes::field::specular_lobe;
use asdr_scenes::SceneField;
use rand::Rng;
use std::sync::OnceLock;

/// Scale dividing stored density so features stay O(1).
pub const SIGMA_SCALE: f32 = 50.0;

/// The four scalar quantities the embedding pyramid stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Quantity {
    Sigma,
    DiffR,
    DiffG,
    DiffB,
}

impl Quantity {
    /// `(level parity, feature slot)` that carries this quantity.
    fn placement(self) -> (usize, usize) {
        match self {
            Quantity::Sigma => (0, 0),
            Quantity::DiffR => (0, 1),
            Quantity::DiffG => (1, 0),
            Quantity::DiffB => (1, 1),
        }
    }

    const ALL: [Quantity; 4] = [Quantity::Sigma, Quantity::DiffR, Quantity::DiffG, Quantity::DiffB];
}

/// The two quantities a level of `parity` stores at world point `p`, by
/// slot ([`Quantity::placement`]), from one evaluation of each field term
/// they need: `diffuse` costs six `density` calls and an `albedo`, so an
/// odd level asks for it once, not once per channel.
fn targets(field: &dyn SceneField, parity: usize, p: Vec3) -> [f32; 2] {
    if parity == 0 {
        [field.density(p) / SIGMA_SCALE, field.diffuse(p).r]
    } else {
        let d = field.diffuse(p);
        [d.g, d.b]
    }
}

/// Per-quantity decode plan: which `(level, slot)` lanes carry it and with
/// what weight.
#[derive(Debug, Clone, Default)]
struct DecodePlan {
    /// `(level, slot, weight)` triples.
    lanes: Vec<(usize, usize, f32)>,
}

fn decode_plans(cfg: &GridConfig) -> [DecodePlan; 4] {
    let mut plans: [DecodePlan; 4] = Default::default();
    for (qi, q) in Quantity::ALL.iter().enumerate() {
        let (parity, slot) = q.placement();
        let levels: Vec<usize> = (0..cfg.levels).filter(|l| l % 2 == parity).collect();
        let hashed: Vec<usize> = levels.iter().copied().filter(|&l| !cfg.is_dense(l)).collect();
        let k = hashed.len().max(1) as f32;
        for l in levels {
            let w = if cfg.is_dense(l) { 1.0 } else { 1.0 / k };
            plans[qi].lanes.push((l, slot, w));
        }
    }
    plans
}

/// The pair the filled dense `levels` of one parity reconstruct at `p01`,
/// slot by slot: a level's voxel and trilinear weights are found once for
/// both slots, and each slot sums corners, then levels, in order.
fn dense_prior(set: &EmbeddingSet, levels: &[usize], p01: Vec3) -> [f32; 2] {
    let mut acc = [0.0f32; 2];
    for &level in levels {
        let table = set.table(level);
        let (base, frac) = table.plan().voxel_of(p01);
        let tw = trilinear_weights(frac.x, frac.y, frac.z);
        let mut v = [0.0f32; 2];
        for (w, row) in tw.iter().zip(table.plan().corner_rows(base)) {
            let f = table.row(row);
            v[0] += w * f[0];
            v[1] += w * f[1];
        }
        acc[0] += v[0];
        acc[1] += v[1];
    }
    acc
}

/// z-slices of a level's vertex grid in one band: the unit a fit worker
/// claims.
#[doc(hidden)]
pub const BAND: u32 = 2;

/// Bands each worker has in flight between two applications: what bounds
/// the records the fit holds at once.
const BANDS_PER_WORKER: usize = 4;

/// A masked vertex's residual pair, bound for table row `.0`.
type Record = (u32, [f32; 2]);

/// What a worker reads to turn one band of a level into records.
struct LevelFill<'a> {
    field: &'a dyn SceneField,
    mask: &'a OccupancyGrid,
    set: &'a EmbeddingSet,
    /// The dense levels of this level's parity already filled, whose
    /// reconstruction each vertex's residual is taken against.
    prior: &'a [usize],
    level: usize,
}

impl LevelFill<'_> {
    /// The records of band `band`'s masked vertices, in z, y, x order, into
    /// `out` (cleared first).
    fn band(&self, band: u32, out: &mut Vec<Record>) {
        out.clear();
        let plan = self.set.table(self.level).plan();
        let vres = plan.vertex_res();
        let res = (vres - 1) as f32;
        let bounds = self.field.bounds();
        for z in band * BAND..((band + 1) * BAND).min(vres) {
            for y in 0..vres {
                for x in 0..vres {
                    let p01 = Vec3::new(x as f32 / res, y as f32 / res, z as f32 / res);
                    if !self.mask.occupied01(p01.clamp(0.0, 0.999)) {
                        continue;
                    }
                    let target = targets(self.field, self.level % 2, bounds.denormalize(p01));
                    let prior = dense_prior(self.set, self.prior, p01);
                    out.push((plan.row_of(x, y, z), [target[0] - prior[0], target[1] - prior[1]]));
                }
            }
        }
    }
}

/// Fits the embedding pyramid of `cfg` to `field` on `workers` threads.
///
/// A level's vertices are cut into z-bands of [`BAND`] slices; workers turn
/// bands into records, a window of bands at a time, and the caller applies
/// each window's records in band order — z, y, x over the level, the
/// serial fit's order — so every worker count yields the same bytes.
///
/// Returned tables decode through [`decode_plans`]-weighted sums; use
/// [`fit_ngp`] for the assembled model.
fn fill_embeddings(field: &dyn SceneField, cfg: &GridConfig, workers: usize) -> EmbeddingSet {
    let mut set = EmbeddingSet::new(cfg);
    // the fill only visits fine vertices in (or next to) cells with density
    let mask = OccupancyGrid::build_on(field, 48, workers);
    // the dense levels filled so far, by parity: the next levels' prior
    let mut dense_filled: [Vec<usize>; 2] = Default::default();
    // sized here, once: a worker writes into its band's buffer and
    // allocates nothing (a thread that allocates grows the heap by an arena)
    let finest = cfg.level_vertex_res(cfg.levels - 1);
    let in_flight = BANDS_PER_WORKER * workers.max(1);
    let mut window: Vec<Vec<Record>> =
        (0..in_flight).map(|_| Vec::with_capacity((BAND * finest * finest) as usize)).collect();

    for level in 0..cfg.levels {
        let dense = cfg.is_dense(level);
        // a hashed level stores each row's mean residual over masked vertices
        let rows = if dense { 0 } else { set.table(level).entries() as usize };
        let (mut acc, mut cnt) = (vec![[0.0f64; 2]; rows], vec![0u32; rows]);
        let bands = cfg.level_vertex_res(level).div_ceil(BAND) as usize;
        for first in (0..bands).step_by(in_flight) {
            let batch = &mut window[..(bands - first).min(in_flight)];
            let fill =
                LevelFill { field, mask: &mask, set: &set, prior: &dense_filled[level % 2], level };
            par::for_each_mut(workers, batch, |i, out| fill.band((first + i) as u32, out));
            for &(row, residual) in batch.iter().flatten() {
                if dense {
                    set.table_mut(level).row_mut(row)[..2].copy_from_slice(&residual);
                } else {
                    let (sum, n) = (&mut acc[row as usize], &mut cnt[row as usize]);
                    sum[0] += residual[0] as f64;
                    sum[1] += residual[1] as f64;
                    *n += 1;
                }
            }
        }
        if dense {
            dense_filled[level % 2].push(level);
        }
        let table = set.table_mut(level);
        for (row, c) in cnt.iter().enumerate() {
            if *c > 0 {
                let dst = table.row_mut(row as u32);
                dst[0] = (acc[row][0] / *c as f64) as f32;
                dst[1] = (acc[row][1] / *c as f64) as f32;
            }
        }
    }
    debug_assert!(mask.occupied_fraction() > 0.0, "scene has no occupied cells");
    set
}

/// The specular term the fitted coefficients `spec_sh` give toward
/// `view_dir`: `Σ yᵢ(view_dir)·cᵢ`, summed in coefficient order.
pub(crate) fn eval_specular_sh(spec_sh: &[f32; SH_DEGREE4_COEFFS], view_dir: Vec3) -> f32 {
    sh4(view_dir).iter().zip(spec_sh).map(|(y, c)| y * c).sum()
}

/// Least-squares projection of the global specular lobe onto the degree-4 SH
/// basis (800 Fibonacci-sphere directions). The lobe is the same for every
/// scene, so the projection runs once per process.
pub fn fit_specular_sh() -> [f32; SH_DEGREE4_COEFFS] {
    static FITTED: OnceLock<[f32; SH_DEGREE4_COEFFS]> = OnceLock::new();
    *FITTED.get_or_init(project_specular_lobe)
}

fn project_specular_lobe() -> [f32; SH_DEGREE4_COEFFS] {
    let n = 800;
    let dirs: Vec<Vec3> = (0..n)
        .map(|i| {
            // Fibonacci sphere
            let k = i as f32 + 0.5;
            let phi = std::f32::consts::PI * (1.0 + 5.0f32.sqrt()) * k;
            let cos_theta = 1.0 - 2.0 * k / n as f32;
            let sin_theta = (1.0 - cos_theta * cos_theta).sqrt();
            Vec3::new(sin_theta * phi.cos(), cos_theta, sin_theta * phi.sin())
        })
        .collect();
    let mut ata = [[0.0f64; SH_DEGREE4_COEFFS]; SH_DEGREE4_COEFFS];
    let mut atb = [0.0f64; SH_DEGREE4_COEFFS];
    for d in &dirs {
        let y = sh4(*d);
        let f = specular_lobe(*d) as f64;
        for j in 0..SH_DEGREE4_COEFFS {
            atb[j] += y[j] as f64 * f;
            for k in 0..SH_DEGREE4_COEFFS {
                ata[j][k] += y[j] as f64 * y[k] as f64;
            }
        }
    }
    // ridge for numerical safety
    for (j, row) in ata.iter_mut().enumerate() {
        row[j] += 1e-9;
    }
    let sol = solve_gauss(&mut ata, &mut atb);
    std::array::from_fn(|i| sol[i] as f32)
}

/// Gaussian elimination with partial pivoting for the small SH system.
fn solve_gauss<const N: usize>(a: &mut [[f64; N]; N], b: &mut [f64; N]) -> [f64; N] {
    for col in 0..N {
        // pivot
        let mut piv = col;
        for r in col + 1..N {
            if a[r][col].abs() > a[piv][col].abs() {
                piv = r;
            }
        }
        a.swap(col, piv);
        b.swap(col, piv);
        let d = a[col][col];
        assert!(d.abs() > 1e-15, "singular SH normal matrix");
        for r in col + 1..N {
            let f = a[r][col] / d;
            let pivot_row = a[col];
            for (av, pv) in a[r][col..].iter_mut().zip(&pivot_row[col..]) {
                *av -= f * pv;
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = [0.0; N];
    for col in (0..N).rev() {
        let mut acc = b[col];
        for c in col + 1..N {
            acc -= a[col][c] * x[c];
        }
        x[col] = acc / a[col][col];
    }
    x
}

/// Builds the constructed density MLP implementing the linear decode of the
/// embedding pyramid (see module docs).
fn build_density_mlp(cfg: &GridConfig) -> Mlp {
    let e = cfg.encoded_dim();
    assert!(2 * e <= HIDDEN_DIM, "encoded dim {e} too wide for the pos/neg split");
    let mut l1 = Dense::zeros(e, HIDDEN_DIM, Activation::Relu);
    for i in 0..e {
        l1.set(i, i, 1.0);
        l1.set(e + i, i, -1.0);
    }
    let mut l2 = Dense::zeros(HIDDEN_DIM, DENSITY_OUT_DIM, Activation::None);
    let plans = decode_plans(cfg);
    // output rows: 0 = σ_raw, 1..4 = diffuse rgb, 4.. = tiny residual lanes
    let f = cfg.feat_dim;
    let row_scale = [SIGMA_SCALE, 1.0, 1.0, 1.0];
    for (qi, plan) in plans.iter().enumerate() {
        for &(level, slot, w) in &plan.lanes {
            let lane = level * f + slot;
            l2.set(qi, lane, w * row_scale[qi]);
            l2.set(qi, e + lane, -w * row_scale[qi]);
        }
    }
    // σ sits at row 0; diffuse rgb at rows 1..4 already (qi order matches)
    // residual rows keep the matrices dense without perturbing the decode
    let mut rng = seeded("density-residual", 0);
    for r in 4..DENSITY_OUT_DIM {
        for c in 0..HIDDEN_DIM {
            l2.set(r, c, rng.gen_range(-1e-3..1e-3));
        }
    }
    Mlp::new(vec![l1, l2])
}

/// Builds the constructed color MLP: `rgb = diffuse + SH·spec` with two
/// information-preserving hidden layers.
fn build_color_mlp(spec_sh: &[f32; SH_DEGREE4_COEFFS]) -> Mlp {
    let y_dim = COLOR_IN_DIM; // 31
    assert!(2 * y_dim <= HIDDEN_DIM + 2, "color input too wide");
    let split = y_dim.min(HIDDEN_DIM / 2); // 31 pos lanes, 31 neg lanes
    let mut l1 = Dense::zeros(y_dim, HIDDEN_DIM, Activation::Relu);
    for i in 0..split {
        l1.set(i, i, 1.0);
        l1.set(split + i, i, -1.0);
    }
    // second hidden layer reconstructs the pos/neg split of y
    let mut l2 = Dense::zeros(HIDDEN_DIM, HIDDEN_DIM, Activation::Relu);
    for i in 0..split {
        l2.set(i, i, 1.0);
        l2.set(i, split + i, -1.0);
        l2.set(split + i, i, -1.0);
        l2.set(split + i, split + i, 1.0);
    }
    let mut l3 = Dense::zeros(HIDDEN_DIM, 3, Activation::None);
    for c in 0..3 {
        // diffuse channel: y[SH + c]
        let idx = SH_DEGREE4_COEFFS + c;
        l3.set(c, idx, 1.0);
        l3.set(c, split + idx, -1.0);
        // specular: Σ_j spec_j · y[j]
        for (j, &s) in spec_sh.iter().enumerate() {
            l3.set(c, j, s);
            l3.set(c, split + j, -s);
        }
    }
    // tiny residual taps keep all rows dense
    let mut rng = seeded("color-residual", 0);
    for c in 0..3 {
        for lane in 2 * split..HIDDEN_DIM {
            l3.set(c, lane, rng.gen_range(-1e-4..1e-4));
        }
    }
    Mlp::new(vec![l1, l2, l3])
}

/// Fits a complete NGP model to `field` under `cfg`, on the process's
/// worker budget ([`detected_workers`]).
///
/// # Panics
///
/// Panics if `cfg` is invalid or too wide for the constructed decoder
/// (`levels × feat_dim` must not exceed 32).
pub fn fit_ngp(field: &dyn SceneField, cfg: &GridConfig) -> NgpModel {
    fit_ngp_on(field, cfg, detected_workers())
}

/// [`fit_ngp`] on `workers` threads (0 counts as 1), the integer MLPs'
/// calibration included. The model, and so its checkpoint bytes, is the
/// same for every worker count.
#[doc(hidden)]
pub fn fit_ngp_on(field: &dyn SceneField, cfg: &GridConfig, workers: usize) -> NgpModel {
    cfg.validate().expect("invalid grid config");
    let tables = fill_embeddings(field, cfg, workers);
    let encoder = HashEncoder::new(cfg.clone(), tables);
    let density = build_density_mlp(cfg);
    let color = build_color_mlp(&fit_specular_sh());
    let occupancy = OccupancyGrid::build_on(field, OccupancyGrid::DEFAULT_RES, workers);
    let scales = MlpScales::calibrate_on(&encoder, &density, &color, &occupancy, workers);
    NgpModel::with_scales(encoder, density, color, field.bounds(), occupancy, scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_math::Rgb;
    use asdr_scenes::registry;

    fn tiny_model(name: &str) -> (Box<dyn SceneField>, NgpModel) {
        let scene = registry::handle(name).build();
        let model = fit_ngp(scene.as_ref(), &GridConfig::tiny());
        (scene, model)
    }

    #[test]
    fn fitted_density_tracks_field() {
        let (scene, model) = tiny_model("Mic");
        let mut s = model.make_scratch();
        // deep inside the mic head
        let inside = Vec3::new(0.0, 0.45, 0.0);
        let sig_in = model.query_density_into(inside, &mut s);
        assert!(
            sig_in > 0.3 * scene.density(inside),
            "inside: {sig_in} vs {}",
            scene.density(inside)
        );
        // far empty corner
        let outside = Vec3::new(0.9, 0.9, 0.9);
        let sig_out = model.query_density_into(outside, &mut s);
        assert!(sig_out < 2.0, "outside: {sig_out}");
    }

    #[test]
    fn fitted_color_tracks_diffuse_plus_spec() {
        let (scene, model) = tiny_model("Lego");
        let mut s = model.make_scratch();
        // a surface point on the lego body
        let p = Vec3::new(0.0, 0.04, -0.05);
        let dir = Vec3::new(0.2, -0.5, 0.8).normalized();
        let _sigma = model.query_density_into(p, &mut s);
        let c = model.query_color_into(dir, &mut s);
        let want = scene.color(p, dir);
        assert!(c.max_channel_abs_diff(want) < 0.3, "model color {c} too far from field {want}");
    }

    #[test]
    fn specular_sh_fit_is_accurate() {
        let coef = fit_specular_sh();
        // evaluate fit error over fresh directions
        let mut max_err = 0.0f32;
        for i in 0..200 {
            let t = i as f32 / 200.0;
            let d = Vec3::new((t * 9.0).sin(), (t * 7.0).cos(), (t * 5.0).sin() + 0.2).normalized();
            let approx: f32 = sh4(d).iter().zip(&coef).map(|(y, c)| y * c).sum();
            max_err = max_err.max((approx - specular_lobe(d)).abs());
        }
        assert!(max_err < 0.06, "SH residual too large: {max_err}");
    }

    #[test]
    fn constructed_mlps_have_expected_shapes() {
        let cfg = GridConfig::tiny();
        let d = build_density_mlp(&cfg);
        assert_eq!(d.in_dim(), cfg.encoded_dim());
        assert_eq!(d.out_dim(), DENSITY_OUT_DIM);
        let c = build_color_mlp(&fit_specular_sh());
        assert_eq!(c.in_dim(), COLOR_IN_DIM);
        assert_eq!(c.out_dim(), 3);
        assert_eq!(c.layers().len(), 3);
    }

    #[test]
    fn gauss_solver_solves_identity_and_diagonal() {
        let mut a = [[0.0f64; 3]; 3];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = (i + 1) as f64;
        }
        let mut b = [2.0, 6.0, 12.0];
        let x = solve_gauss(&mut a, &mut b);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn model_render_smoke() {
        // end-to-end sanity: fitted model produces a non-empty image close
        // to the ground truth in the mean.
        let (scene, model) = tiny_model("Hotdog");
        let cam = registry::handle("Hotdog").camera(16, 16);
        let mut s = model.make_scratch();
        let mut mean_model = Rgb::BLACK;
        let mut mean_gt = Rgb::BLACK;
        let mut n = 0.0f32;
        for py in 0..16 {
            for px in 0..16 {
                let ray = cam.ray_for_pixel(px, py);
                let Some(tr) = model.bounds().intersect(&ray) else { continue };
                let dt = tr.span() / 64.0;
                let (mut t_model, mut t_gt) = (1.0f32, 1.0f32);
                let (mut c_model, mut c_gt) = (Rgb::BLACK, Rgb::BLACK);
                for t in tr.midpoints(64) {
                    let p = ray.at(t);
                    let (sig, col) = model.query_point(p, ray.dir, &mut s);
                    let a = 1.0 - (-sig * dt).exp();
                    c_model += col * (t_model * a);
                    t_model *= 1.0 - a;
                    let gs = scene.density(p);
                    let ga = 1.0 - (-gs * dt).exp();
                    c_gt += scene.color(p, ray.dir) * (t_gt * ga);
                    t_gt *= 1.0 - ga;
                }
                mean_model += c_model;
                mean_gt += c_gt;
                n += 1.0;
            }
        }
        let m = mean_model * (1.0 / n);
        let g = mean_gt * (1.0 / n);
        assert!(m.luminance() > 0.01, "model render is empty");
        assert!(
            (m.luminance() - g.luminance()).abs() < 0.15,
            "mean luminance mismatch: model {} vs gt {}",
            m.luminance(),
            g.luminance()
        );
    }
}
