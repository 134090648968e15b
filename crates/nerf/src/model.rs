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
use crate::mlp::{quantize_signed, IntMlp, Mlp, LINE};
use crate::occupancy::OccupancyGrid;
use asdr_math::par::{self, detected_workers};
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
/// A call asks for one point or for two ([`MAX_IN_FLIGHT`]): a model may run
/// a pair through one body (the NGP MLPs interleave the two), and answers
/// each exactly as a call with that point alone would. The scratch keeps
/// one geometry feature per slot: a density call leaves point `i`'s in slot
/// `i`, and a colour call names the slots it reads.
///
/// The bits of an answer depend only on the question: `density_into` on the
/// point, `color_into` on the direction and the point whose feature the
/// slot holds — never on what else was asked through that scratch before,
/// nor on whether the point was asked alone or in a pair (a cache in it,
/// such as a direction prefix, must return exactly what recomputing would).
/// A renderer relies on it to keep an answer and use it again instead of
/// asking twice: the probe's samples are read back when the same pixel is
/// rendered, on any thread.
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
    /// sample. `false` means the point's density is `0.0`, whatever
    /// [`Self::density_into`] returns there: the caller masks with this bit
    /// (a caller that needs neither density nor colour of such a point may
    /// skip both calls). The three grid models answer with
    /// [`OccupancyGrid::occupied_along`], each entry bit-equal to
    /// [`OccupancyGrid::occupied_world`].
    fn occupied_along(&self, ray: &Ray, ts: impl IntoIterator<Item = f32>, out: &mut Vec<bool>);

    /// Density of each of `points` (one or two) into `sigma`, as long: the
    /// full evaluation, clamped to `≥ 0` and *not* masked — the caller
    /// holds the [`Self::occupied_along`] bit and masks with it, so no model
    /// tests occupancy again. Leaves point `i`'s geometry feature in slot
    /// `i` of `scratch`.
    fn density_into(&self, points: &[Vec3], scratch: &mut Self::Scratch, sigma: &mut [f32]);

    /// Colour along `view_dir` of the point whose geometry feature each of
    /// `slots` (one or two) holds, into `colors`, as long: slot `i` holds
    /// point `i` of the last [`Self::density_into`] call that asked for at
    /// least `i + 1` points. Every channel lies in `[0, 1]`: a renderer may
    /// rely on it to know when no later sample can change a pixel.
    fn color_into(
        &self,
        view_dir: Vec3,
        slots: &[usize],
        scratch: &mut Self::Scratch,
        colors: &mut [Rgb],
    );

    /// Per-point FLOPs of `(encoding, density, color)` stages.
    fn stage_flops(&self) -> (u64, u64, u64);
}

/// The most points one [`RadianceModel`] query asks for, and the geometry
/// feature slots a scratch keeps.
pub const MAX_IN_FLIGHT: usize = 2;

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

/// Reusable scratch buffers for model queries (avoids per-point allocation),
/// one slot per point in flight.
#[derive(Debug, Clone)]
pub struct Scratch {
    encoded: Vec<f32>,
    /// A slot's density-MLP input bytes, run on to the end of the last
    /// group of four (an odd width's pad bytes stay zero, against zero
    /// weights).
    bytes: [Vec<u8>; MAX_IN_FLIGHT],
    /// A slot's density-MLP outputs: `σ` before the clamp, then the
    /// geometry feature.
    density_out: [[f32; DENSITY_OUT_DIM]; MAX_IN_FLIGHT],
    /// The first colour layer's `i32` sums after its SH inputs.
    sh_sums: DirCache<Vec<i32>>,
    /// A colour input's tail: the 15 geometry bytes and the one after them,
    /// a whole group of four each, the last read against zero weights.
    geo: [[u8; GEO_FEAT_DIM + 1]; MAX_IN_FLIGHT],
    /// A slot's colour-MLP line: RGB, then zeros.
    color_out: [[f32; LINE]; MAX_IN_FLIGHT],
}

/// Occupied cells the calibration reads at most.
const CALIBRATION_CELLS: usize = 4096;

/// Slices the calibration's points are cut into, for its workers to claim.
const CALIBRATION_SLICES: usize = 16;

/// The static steps of the integer MLPs' inputs, one per layer input: an
/// input byte's step `q` stands for `q · step`. Each is the magnitude its
/// inputs reach, spread over ±127 steps (signed inputs) or 255 (a hidden
/// layer's ReLU outputs).
#[derive(Debug, Clone, PartialEq)]
pub struct MlpScales {
    /// The encoded features into the density MLP, then one step per hidden
    /// layer.
    density: Vec<f32>,
    /// The SH head and the geometry tail of the colour MLP's input, then
    /// one step per hidden layer.
    color: Vec<f32>,
}

impl MlpScales {
    /// Steps read back from a checkpoint: `None` unless they fit the MLPs
    /// (one per density layer; one more for the colour MLP, whose input has
    /// two parts) and each is finite and above zero.
    pub(crate) fn new(
        density: Vec<f32>,
        color: Vec<f32>,
        density_mlp: &Mlp,
        color_mlp: &Mlp,
    ) -> Option<Self> {
        let fits = density.len() == density_mlp.layers().len()
            && color.len() == color_mlp.layers().len() + 1;
        let positive = density.iter().chain(&color).all(|s| s.is_finite() && *s > 0.0);
        (fits && positive).then_some(MlpScales { density, color })
    }

    /// The density MLP's steps: encoded features, then its hidden layers.
    pub fn density(&self) -> &[f32] {
        &self.density
    }

    /// The colour MLP's steps: SH head, geometry tail, then its hidden layers.
    pub fn color(&self) -> &[f32] {
        &self.color
    }

    /// The steps of a model's parts, on the process's worker budget
    /// ([`detected_workers`]). Exact bounds where they exist: an encoded
    /// feature blends table rows with weights summing to one, so it never
    /// exceeds the tables' largest magnitude, and no degree-4 SH coefficient
    /// exceeds `√(7 / 4π)` (`Y₃₀` at the pole; the addition theorem bounds
    /// every `|Y_lm|` by `√((2l + 1) / 4π)`). The rest — the geometry
    /// feature's largest magnitude and each hidden layer's largest output —
    /// are what the `f32` layers reach at the centres of at most 4 096
    /// occupied cells, evenly strided through the grid, each seen along a
    /// direction of a Fibonacci sphere: maxima, so the same on any number of
    /// workers.
    pub fn calibrate(
        encoder: &HashEncoder,
        density: &Mlp,
        color: &Mlp,
        occupancy: &OccupancyGrid,
    ) -> Self {
        Self::calibrate_on(encoder, density, color, occupancy, detected_workers())
    }

    /// [`Self::calibrate`] on `workers` threads (0 counts as 1).
    pub(crate) fn calibrate_on(
        encoder: &HashEncoder,
        density: &Mlp,
        color: &Mlp,
        occupancy: &OccupancyGrid,
        workers: usize,
    ) -> Self {
        let magnitude = |m: f32, v: &f32| m.max(v.abs());
        let stride = occupancy.occupied_centres().count().div_ceil(CALIBRATION_CELLS).max(1);
        let points: Vec<Vec3> = occupancy.occupied_centres().step_by(stride).collect();
        // per slice of points: each density hidden layer's, the geometry
        // feature's and each colour hidden layer's largest value, and the
        // buffers to find them with (allocated here: a worker thread that
        // allocates grows the heap by an arena)
        let hidden = |mlp: &Mlp| vec![0.0f32; mlp.layers().len() - 1];
        let mut slices: Vec<_> = (0..CALIBRATION_SLICES)
            .map(|_| {
                let buffers = (
                    vec![0.0; encoder.encoded_dim()],
                    density.make_scratch(),
                    color.make_scratch(),
                );
                ((hidden(density), 0.0f32, hidden(color)), buffers)
            })
            .collect();
        let slice = points.len().div_ceil(CALIBRATION_SLICES).max(1);
        par::for_each_mut(workers.max(1), &mut slices, |k, (maxima, buffers)| {
            let ((density_max, geo_max, color_max), (encoded, d_scratch, c_scratch)) =
                (maxima, buffers);
            for (i, &p01) in points.iter().enumerate().skip(k * slice).take(slice) {
                encoder.encode(p01, encoded);
                let out = forward_recording(density, encoded, density_max, d_scratch);
                *geo_max = out[1..].iter().fold(*geo_max, magnitude);
                let mut x = [0.0; COLOR_IN_DIM];
                x[..SH_DEGREE4_COEFFS].copy_from_slice(&sh4(fibonacci_direction(i, points.len())));
                x[SH_DEGREE4_COEFFS..].copy_from_slice(&out[1..]);
                forward_recording(color, &x, color_max, c_scratch);
            }
        });
        let mut maxima = slices.into_iter().map(|(maxima, _)| maxima);
        let (mut density_max, mut geo_max, mut color_max) = maxima.next().expect("slices");
        for (d, g, c) in maxima {
            density_max.iter_mut().zip(d).for_each(|(m, v)| *m = m.max(v));
            geo_max = geo_max.max(g);
            color_max.iter_mut().zip(c).for_each(|(m, v)| *m = m.max(v));
        }
        let signed = |m: f32| if m > 0.0 { m / 127.0 } else { 1.0 };
        let unsigned = |m: f32| if m > 0.0 { m / 255.0 } else { 1.0 };
        let tables = encoder.tables().iter().flat_map(|t| t.params()).fold(0.0, magnitude);
        let sh = sh4(Vec3::Z).iter().fold(0.0, magnitude);
        MlpScales {
            density: [signed(tables)]
                .into_iter()
                .chain(density_max.into_iter().map(unsigned))
                .collect(),
            color: [signed(sh), signed(geo_max)]
                .into_iter()
                .chain(color_max.into_iter().map(unsigned))
                .collect(),
        }
    }
}

/// `mlp` at `x` in `f32` through `scratch` (an [`Mlp::make_scratch`]),
/// raising each hidden layer's entry of `maxima` to the largest output it
/// gave; returns the last layer's outputs.
fn forward_recording<'s>(
    mlp: &Mlp,
    x: &[f32],
    maxima: &mut [f32],
    scratch: &'s mut [f32],
) -> &'s [f32] {
    let (mut src, mut dst) = scratch.split_at_mut(scratch.len() / 2);
    src[..x.len()].copy_from_slice(x);
    for (k, layer) in mlp.layers().iter().enumerate() {
        let y = &mut dst[..layer.out_dim()];
        layer.forward(&src[..layer.in_dim()], y);
        if let Some(m) = maxima.get_mut(k) {
            *m = y.iter().fold(*m, |m, &v| m.max(v));
        }
        std::mem::swap(&mut src, &mut dst);
    }
    let out: &'s [f32] = src;
    &out[..mlp.out_dim()]
}

/// Direction `i` of `n` spread evenly over the sphere (a Fibonacci lattice).
fn fibonacci_direction(i: usize, n: usize) -> Vec3 {
    let k = i as f32 + 0.5;
    let phi = std::f32::consts::PI * (1.0 + 5.0f32.sqrt()) * k;
    let cos_theta = 1.0 - 2.0 * k / n as f32;
    let sin_theta = (1.0 - cos_theta * cos_theta).max(0.0).sqrt();
    Vec3::new(sin_theta * phi.cos(), cos_theta, sin_theta * phi.sin())
}

/// The integer copies of a model's MLPs, and the reciprocal steps their
/// inputs are quantised with.
#[derive(Debug, Clone, PartialEq)]
pub struct IntMlps {
    /// The density MLP at 8 bits.
    pub density: IntMlp,
    /// The colour MLP at 8 bits.
    pub color: IntMlp,
    /// `1 / step` of the encoded features, the SH head and the geometry tail.
    inv: [f32; 3],
}

impl IntMlps {
    fn quantize(density: &Mlp, color: &Mlp, scales: &MlpScales) -> Self {
        let (d, c) = (&scales.density, &scales.color);
        let color_steps: Vec<f32> =
            (0..COLOR_IN_DIM).map(|i| if i < SH_DEGREE4_COEFFS { c[0] } else { c[1] }).collect();
        IntMlps {
            density: IntMlp::quantize(density, &vec![d[0]; density.in_dim()], &d[1..]),
            color: IntMlp::quantize(color, &color_steps, &c[2..]),
            inv: [1.0 / d[0], 1.0 / c[0], 1.0 / c[1]],
        }
    }
}

/// A fitted Instant-NGP model over a world-space bounding box.
///
/// It is built in `f32` and runs as the chip does: every query goes through
/// integer copies of the two MLPs ([`IntMlp`]), quantised with the steps of
/// [`MlpScales`].
#[derive(Debug, Clone)]
pub struct NgpModel {
    encoder: HashEncoder,
    density_mlp: Mlp,
    color_mlp: Mlp,
    bounds: Aabb,
    occupancy: OccupancyGrid,
    scales: MlpScales,
    int: IntMlps,
    /// Keys [`Scratch`]'s direction cache; a clone shares it with its
    /// (identical, immutable) colour MLP, and [`Self::calibrate`] draws a
    /// new one.
    id: u64,
}

impl NgpModel {
    /// Assembles a model and calibrates its integer MLPs
    /// ([`MlpScales::calibrate`]).
    ///
    /// # Panics
    ///
    /// Panics if the MLP shapes do not match the expected layout, or a
    /// hidden layer's activation is not ReLU or the last layer's not none.
    pub fn new(
        encoder: HashEncoder,
        density_mlp: Mlp,
        color_mlp: Mlp,
        bounds: Aabb,
        occupancy: OccupancyGrid,
    ) -> Self {
        let scales = MlpScales::calibrate(&encoder, &density_mlp, &color_mlp, &occupancy);
        Self::with_scales(encoder, density_mlp, color_mlp, bounds, occupancy, scales)
    }

    /// Assembles a model whose integer MLPs take the steps `scales` (a
    /// checkpoint's).
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub(crate) fn with_scales(
        encoder: HashEncoder,
        density_mlp: Mlp,
        color_mlp: Mlp,
        bounds: Aabb,
        occupancy: OccupancyGrid,
        scales: MlpScales,
    ) -> Self {
        assert_eq!(density_mlp.in_dim(), encoder.encoded_dim(), "density MLP input mismatch");
        assert_eq!(density_mlp.out_dim(), DENSITY_OUT_DIM, "density MLP must emit 1+15");
        assert_eq!(color_mlp.in_dim(), COLOR_IN_DIM, "color MLP input mismatch");
        assert_eq!(color_mlp.out_dim(), 3, "color MLP must emit RGB");
        let int = IntMlps::quantize(&density_mlp, &color_mlp, &scales);
        NgpModel {
            encoder,
            density_mlp,
            color_mlp,
            bounds,
            occupancy,
            scales,
            int,
            id: next_model_id(),
        }
    }

    /// Calibrates the integer MLPs again from the model's parts: what a
    /// caller that edited the encoder ([`Self::encoder_mut`]) runs next.
    pub fn calibrate(&mut self) {
        self.scales = MlpScales::calibrate(
            &self.encoder,
            &self.density_mlp,
            &self.color_mlp,
            &self.occupancy,
        );
        self.int = IntMlps::quantize(&self.density_mlp, &self.color_mlp, &self.scales);
        self.id = next_model_id();
    }

    /// The steps the integer MLPs' inputs are quantised with.
    pub fn scales(&self) -> &MlpScales {
        &self.scales
    }

    /// The integer MLPs every query runs.
    pub fn int_mlps(&self) -> &IntMlps {
        &self.int
    }

    /// The occupancy grid masking empty space (see [`OccupancyGrid`]).
    pub fn occupancy(&self) -> &OccupancyGrid {
        &self.occupancy
    }

    /// The hash encoder.
    pub fn encoder(&self) -> &HashEncoder {
        &self.encoder
    }

    /// Mutable access to the hash encoder. The integer MLPs keep the steps
    /// they were calibrated with: run [`Self::calibrate`] after an edit.
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
        Scratch {
            encoded: vec![0.0; self.encoder.encoded_dim()],
            bytes: std::array::from_fn(|_| vec![0; self.encoder.encoded_dim().next_multiple_of(4)]),
            density_out: [[0.0; DENSITY_OUT_DIM]; MAX_IN_FLIGHT],
            sh_sums: DirCache::new(vec![0; self.int.color.layers()[0].sums_len()]),
            geo: [[0; GEO_FEAT_DIM + 1]; MAX_IN_FLIGHT],
            color_out: [[0.0; LINE]; MAX_IN_FLIGHT],
        }
    }

    /// Density query: returns `σ ≥ 0` and the 15-dim geometry feature.
    /// Allocating convenience wrapper around [`Self::query_density_into`].
    pub fn query_density(&self, p_world: Vec3) -> (f32, Vec<f32>) {
        let mut s = self.make_scratch();
        let sigma = self.query_density_into(p_world, &mut s);
        (sigma, s.density_out[0][1..].to_vec())
    }

    /// Density query into caller scratch, masked to `0.0` where the
    /// occupancy grid calls the point empty; the geometry feature is left
    /// in the scratch for a subsequent [`Self::query_color_into`].
    pub fn query_density_into(&self, p_world: Vec3, scratch: &mut Scratch) -> f32 {
        let mut sigma = [0.0];
        self.densities(&[p_world], scratch, &mut sigma);
        if !self.occupancy.occupied_world(p_world) {
            return 0.0;
        }
        sigma[0]
    }

    /// Color query from an explicit geometry feature.
    ///
    /// # Panics
    ///
    /// Panics if `geo_feat` is not 15-dimensional.
    pub fn query_color(&self, geo_feat: &[f32], view_dir: Vec3) -> Rgb {
        assert_eq!(geo_feat.len(), GEO_FEAT_DIM);
        let mut s = self.make_scratch();
        s.density_out[0][1..].copy_from_slice(geo_feat);
        self.query_color_into(view_dir, &mut s)
    }

    /// Color query using the geometry feature left in `scratch` by the last
    /// [`Self::query_density_into`] call.
    pub fn query_color_into(&self, view_dir: Vec3, scratch: &mut Scratch) -> Rgb {
        let mut color = [Rgb::BLACK];
        self.colors(view_dir, &[0], scratch, &mut color);
        color[0]
    }

    /// Combined density + color query (full per-point evaluation).
    pub fn query_point(&self, p_world: Vec3, view_dir: Vec3, scratch: &mut Scratch) -> (f32, Rgb) {
        let sigma = self.query_density_into(p_world, scratch);
        let color = self.query_color_into(view_dir, scratch);
        (sigma, color)
    }

    /// The unmasked `σ ≥ 0` of each of `points` (one or two), its geometry
    /// feature left in its slot; a pair runs the density MLP once over both.
    fn densities(&self, points: &[Vec3], scratch: &mut Scratch, sigma: &mut [f32]) {
        let Scratch { encoded, bytes, density_out, .. } = scratch;
        for (&p, bytes) in points.iter().zip(bytes.iter_mut()) {
            self.encoder.encode(self.bounds.normalize(p), encoded);
            quantize_signed(encoded, self.int.inv[0], bytes);
        }
        let [d0, d1] = density_out;
        match points.len() {
            1 => self.int.density.forward_from(None, 0, [&bytes[0]], [d0]),
            2 => self.int.density.forward_from(None, 0, [&bytes[0], &bytes[1]], [d0, d1]),
            n => panic!("{n} points in one query, not 1 or 2"),
        }
        for (s, out) in sigma.iter_mut().zip(density_out.iter()) {
            *s = out[0].max(0.0);
        }
    }

    /// The colour of each of `slots` (one or two) along `view_dir`.
    ///
    /// The first color layer sums its 16 SH inputs and its 15 geometry
    /// inputs in separate groups, so the `i32` sums over the SH part depend
    /// on `view_dir` alone: they are computed once per direction and every
    /// later sample resumes from them — exact integers, so the same as a
    /// whole forward pass. A pair resumes both from the same sums.
    fn colors(&self, view_dir: Vec3, slots: &[usize], scratch: &mut Scratch, colors: &mut [Rgb]) {
        let Scratch { sh_sums, geo, density_out, color_out, .. } = scratch;
        let first = &self.int.color.layers()[0];
        let sh_sums = sh_sums.get_or_fill(self.id, view_dir, |sums| {
            let mut head = [0; SH_DEGREE4_COEFFS];
            quantize_signed(&sh4(view_dir), self.int.inv[1], &mut head);
            first.prefix(&head, sums);
        });
        for (&slot, geo) in slots.iter().zip(geo.iter_mut()) {
            quantize_signed(&density_out[slot][1..], self.int.inv[2], geo);
        }
        let [c0, c1] = color_out;
        let skip = SH_DEGREE4_COEFFS;
        match slots.len() {
            1 => self.int.color.forward_from(Some(sh_sums), skip, [&geo[0]], [c0]),
            2 => self.int.color.forward_from(Some(sh_sums), skip, [&geo[0], &geo[1]], [c0, c1]),
            n => panic!("{n} colours in one query, not 1 or 2"),
        }
        for (c, out) in colors.iter_mut().zip(color_out.iter()) {
            *c = Rgb::new(out[0], out[1], out[2]).clamp01();
        }
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

    fn density_into(&self, points: &[Vec3], scratch: &mut Scratch, sigma: &mut [f32]) {
        self.densities(points, scratch, sigma);
    }

    fn color_into(
        &self,
        view_dir: Vec3,
        slots: &[usize],
        scratch: &mut Scratch,
        colors: &mut [Rgb],
    ) {
        self.colors(view_dir, slots, scratch, colors);
    }

    fn stage_flops(&self) -> (u64, u64, u64) {
        self.flops_per_point()
    }
}

/// `model`'s density at `p` alone, its geometry feature left in slot 0.
#[cfg(test)]
pub(crate) fn density_of<M: RadianceModel>(model: &M, p: Vec3, scratch: &mut M::Scratch) -> f32 {
    let mut sigma = [0.0];
    model.density_into(&[p], scratch, &mut sigma);
    sigma[0]
}

/// `model`'s colour along `dir` of the point in slot 0.
#[cfg(test)]
pub(crate) fn color_of<M: RadianceModel>(model: &M, dir: Vec3, scratch: &mut M::Scratch) -> Rgb {
    let mut color = [Rgb::BLACK];
    model.color_into(dir, &[0], scratch, &mut color);
    color[0]
}

/// The contract every model pins ([`RadianceModel`]: an answer depends only
/// on its question): samples along `p + i·x̂` whose direction repeats, then
/// changes, and then `p` again after another point (`p, q, p`), read bit for
/// bit the same through one kept scratch as through a fresh scratch each
/// time — asked alone, and asked as pairs of neighbours through the same
/// kept scratch, in either order and with both points equal, each pair's
/// colours read in slot order, swapped and one slot alone, and a single
/// call after every pair.
#[cfg(test)]
pub(crate) fn assert_kept_scratch_matches_fresh<M: RadianceModel>(model: &M, p: Vec3) {
    let bits = |c: Rgb| [c.r, c.g, c.b].map(f32::to_bits);
    let dirs = [Vec3::new(-0.5, -0.8, -0.3).normalized(), Vec3::Y];
    let along = (0..12).map(|i| (p + Vec3::X * (0.01 * i as f32), dirs[(i / 2) % 2]));
    let q = p + Vec3::new(0.03, -0.02, 0.05);
    let revisit = [(p, dirs[0]), (q, dirs[0]), (p, dirs[0]), (q, dirs[1]), (p, dirs[0])];
    let samples: Vec<(Vec3, Vec3)> = along.chain(revisit).collect();
    let fresh = |p: Vec3, dir: Vec3| {
        let mut fresh = model.make_query_scratch();
        (density_of(model, p, &mut fresh).to_bits(), bits(color_of(model, dir, &mut fresh)))
    };
    let mut kept = model.make_query_scratch();
    let single = |kept: &mut M::Scratch, p: Vec3, dir: Vec3| {
        (density_of(model, p, kept).to_bits(), bits(color_of(model, dir, kept)))
    };
    for (i, &(p, dir)) in samples.iter().enumerate() {
        assert_eq!(single(&mut kept, p, dir), fresh(p, dir), "sample {i}");
    }
    for (i, w) in samples.windows(2).enumerate() {
        let ((a, dir), (b, _)) = (w[0], w[1]);
        for pair in [[a, b], [b, a], [a, a]] {
            let want = pair.map(|p| fresh(p, dir));
            let mut sigma = [0.0; 2];
            model.density_into(&pair, &mut kept, &mut sigma);
            assert_eq!(sigma.map(f32::to_bits), want.map(|w| w.0), "pair {i}");
            let mut colors = [Rgb::BLACK; 2];
            model.color_into(dir, &[0, 1], &mut kept, &mut colors);
            assert_eq!(colors.map(bits), want.map(|w| w.1), "pair {i}");
            model.color_into(dir, &[1, 0], &mut kept, &mut colors);
            assert_eq!(colors.map(bits), [want[1].1, want[0].1], "pair {i}, slots swapped");
            model.color_into(dir, &[1], &mut kept, &mut colors[..1]);
            assert_eq!(bits(colors[0]), want[1].1, "pair {i}, slot 1 alone");
        }
        assert_eq!(single(&mut kept, a, dir), fresh(a, dir), "a single call after pair {i}");
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

    /// `m` with other MLPs, calibrated afresh.
    fn rebuilt(m: &NgpModel, density: Mlp, color: Mlp) -> NgpModel {
        NgpModel::new(m.encoder.clone(), density, color, m.bounds, m.occupancy.clone())
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
        let m = rebuilt(&m, Mlp::new(layers), m.color_mlp.clone());

        let p = Vec3::new(0.2, -0.3, 0.4);
        let (sig_a, feat_a) = m.query_density(p);
        let mut s = m.make_scratch();
        let sig_b = m.query_density_into(p, &mut s);
        assert_eq!(sig_a, sig_b);
        assert_eq!(&feat_a[..], &s.density_out[0][1..]);
    }

    #[test]
    fn an_odd_encoded_width_runs_its_bytes_on_to_a_whole_group() {
        // three levels of one feature: three density inputs, read as one
        // group of four whose last byte meets zero weights
        let cfg = GridConfig { levels: 3, feat_dim: 1, ..GridConfig::tiny() };
        let mut set = EmbeddingSet::new(&cfg);
        for l in 0..cfg.levels {
            for (i, v) in set.table_mut(l).params_mut().iter_mut().enumerate() {
                *v = ((i % 7) as f32 - 3.0) * 0.1;
            }
        }
        let mut density = Mlp::new(vec![
            Dense::zeros(cfg.encoded_dim(), HIDDEN_DIM, Activation::Relu),
            Dense::zeros(HIDDEN_DIM, DENSITY_OUT_DIM, Activation::None),
        ]);
        for (layer, m) in density.layers_mut().iter_mut().zip([5, 3]) {
            let n = layer.in_dim() * layer.out_dim();
            let w: Vec<f32> = (0..n).map(|i| ((i % m) as f32 - (m / 2) as f32) * 0.3).collect();
            layer.import_row_major(&w);
            layer.bias_mut().fill(0.1);
        }
        let zero = dummy_model();
        let enc = HashEncoder::new(cfg, set);
        let m = NgpModel::new(enc, density, zero.color_mlp, zero.bounds, zero.occupancy);
        let (mut s, mut encoded, mut positive) = (m.make_scratch(), [0.0; 3], 0);
        for i in 0..32 {
            let p = Vec3::new((i as f32 * 0.37).sin(), (i as f32 * 0.23).cos(), 0.5) * 0.9;
            let sigma = m.query_density_into(p, &mut s);
            // the same bytes, their group run on with a byte other than zero
            m.encoder.encode(m.bounds.normalize(p), &mut encoded);
            let mut x = [0xa5; 4];
            quantize_signed(&encoded, m.int.inv[0], &mut x);
            let mut out = [0.0; DENSITY_OUT_DIM];
            m.int.density.forward_from(None, 0, [&x], [&mut out]);
            assert_eq!(sigma.to_bits(), out[0].max(0.0).to_bits(), "{p}");
            assert_eq!(out[1..], s.density_out[0][1..], "{p}");
            positive += (sigma > 0.0) as usize;
        }
        assert!(positive > 0, "every density zero: the comparison says nothing");
    }

    #[test]
    fn density_is_clamped_nonnegative() {
        let m = dummy_model();
        // bias the sigma output negative
        let mut layers = m.density_mlp.layers().to_vec();
        layers[1].bias_mut()[0] = -5.0;
        let m = rebuilt(&m, Mlp::new(layers), m.color_mlp.clone());
        let (sigma, _) = m.query_density(Vec3::ZERO);
        assert_eq!(sigma, 0.0);
    }

    #[test]
    fn color_is_clamped_to_unit_range() {
        let m = dummy_model();
        let mut layers = m.color_mlp.layers().to_vec();
        layers[2].bias_mut().copy_from_slice(&[5.0, -5.0, 0.5]);
        let m = rebuilt(&m, m.density_mlp.clone(), Mlp::new(layers));
        let c = m.query_color(&[0.0; GEO_FEAT_DIM], Vec3::Z);
        assert_eq!(c, Rgb::new(1.0, 0.0, 0.5));
    }

    /// `dummy_model` with every MLP weight and bias drawn from `seed`.
    fn seeded_model(seed: u64) -> NgpModel {
        let m = dummy_model();
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
        let density = fill(&m.density_mlp);
        rebuilt(&m, density, fill(&m.color_mlp))
    }

    fn geo_feat(seed: usize) -> [f32; GEO_FEAT_DIM] {
        std::array::from_fn(|i| ((seed * 31 + i * 7) % 13) as f32 * 0.1 - 0.6)
    }

    /// The color through `scratch`, which keeps whatever direction it saw.
    fn color_through(m: &NgpModel, geo: &[f32], dir: Vec3, scratch: &mut Scratch) -> [u32; 3] {
        scratch.density_out[0][1..].copy_from_slice(geo);
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
        m.calibrate();
        assert_kept_scratch_matches_fresh(&m, Vec3::new(0.2, -0.3, 0.4));
    }

    #[test]
    fn a_recalibrated_model_answers_as_one_built_from_its_parts() {
        let mut m = seeded_model(6);
        let (geo, dir) = (geo_feat(2), Vec3::new(0.3, -0.4, 0.866).normalized());
        let mut s = m.make_scratch();
        color_through(&m, &geo, dir, &mut s);
        for l in 0..m.encoder().config().levels {
            let params = m.encoder_mut().tables_mut().table_mut(l).params_mut();
            (0..).zip(params).for_each(|(i, v)| *v = ((i % 5) as f32 - 2.0) * 0.4);
        }
        m.calibrate();
        let fresh = rebuilt(&m, m.density_mlp.clone(), m.color_mlp.clone());
        assert_eq!(m.scales(), fresh.scales());
        assert_ne!(m.scales().density()[0], seeded_model(6).scales().density()[0]);
        // the scratch that cached the old steps' SH sums misses
        assert_eq!(color_through(&m, &geo, dir, &mut s), color_fresh(&fresh, &geo, dir));
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
