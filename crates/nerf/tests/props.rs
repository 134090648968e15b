//! Property-based tests of the neural-rendering substrates.

use asdr_math::interp::{trilinear_weights, CORNER_OFFSETS};
use asdr_math::{Aabb, Ray, Vec3};
use asdr_nerf::dvgo::{DvgoConfig, DvgoModel};
use asdr_nerf::embedding::EmbeddingSet;
use asdr_nerf::encoder::{HashEncoder, VertexAccess};
use asdr_nerf::grid::GridConfig;
use asdr_nerf::hash::{dense_index, spatial_hash};
use asdr_nerf::kernel::Kernel;
use asdr_nerf::mlp::{requantise, Activation, Dense, IntDense, IntMlp, Mlp, LINE};
use asdr_nerf::model::{RadianceModel, COLOR_IN_DIM, DENSITY_OUT_DIM, HIDDEN_DIM};
use asdr_nerf::occupancy::OccupancyGrid;
use asdr_nerf::tensorf::{TensoRfConfig, TensoRfModel};
use asdr_nerf::NgpModel;
use asdr_scenes::registry;
use proptest::prelude::*;

/// Deterministic values in `[-1, 1)`.
fn xorshift_unit(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state & 0xffff) as f32 / 32768.0) - 1.0
    }
}

fn encoder_with(cfg: GridConfig, fill: u64) -> HashEncoder {
    let mut set = EmbeddingSet::new(&cfg);
    let mut next = xorshift_unit(fill);
    for l in 0..cfg.levels {
        set.table_mut(l).params_mut().fill_with(&mut next);
    }
    HashEncoder::new(cfg, set)
}

fn tiny_encoder_with(fill: u64) -> HashEncoder {
    encoder_with(GridConfig::tiny(), fill)
}

/// The encoders the kernel-identity properties run against: the three
/// shipped configurations, every other feature width `GridConfig::validate`
/// admits, and at every width a level count that leaves the last block of 8
/// lanes part padding (built once; `paper()` is 60 MB).
fn oracle_encoders() -> &'static [HashEncoder] {
    static ENCODERS: std::sync::OnceLock<Vec<HashEncoder>> = std::sync::OnceLock::new();
    ENCODERS.get_or_init(|| {
        let width = |feat_dim| GridConfig { feat_dim, ..GridConfig::tiny() };
        let padded = |levels, max_res, feat_dim| GridConfig {
            levels,
            max_res,
            feat_dim,
            ..GridConfig::tiny()
        };
        [
            GridConfig::tiny(),
            GridConfig::small(),
            GridConfig::paper(),
            width(1),
            width(4),
            width(8),
            padded(1, 8, 2),
            padded(5, 64, 1),
            padded(9, 128, 2),
            padded(13, 512, 4),
            padded(31, 1024, 8),
        ]
        .into_iter()
        .zip(1..)
        .map(|(cfg, fill)| encoder_with(cfg, fill))
        .collect()
    })
}

/// The encoder as it was before the level plan: resolution re-derived per
/// level, `floor` for the cell, one `row_of` per corner, corners blended
/// into the output in place. Kept as the scalar oracle of `encode`.
fn encode_oracle(enc: &HashEncoder, p01: Vec3, out: &mut [f32], trace: &mut Vec<VertexAccess>) {
    let cfg = enc.config();
    for level in 0..cfg.levels {
        let res = cfg.level_resolution(level);
        let scaled = p01.clamp(0.0, 1.0) * res as f32;
        let hi = (res - 1) as f32;
        let bx = scaled.x.floor().min(hi).max(0.0);
        let by = scaled.y.floor().min(hi).max(0.0);
        let bz = scaled.z.floor().min(hi).max(0.0);
        let w = trilinear_weights(
            (scaled.x - bx).clamp(0.0, 1.0),
            (scaled.y - by).clamp(0.0, 1.0),
            (scaled.z - bz).clamp(0.0, 1.0),
        );
        let table = enc.tables().table(level);
        let dst = &mut out[level * cfg.feat_dim..(level + 1) * cfg.feat_dim];
        dst.fill(0.0);
        for (i, &(dx, dy, dz)) in CORNER_OFFSETS.iter().enumerate() {
            let vertex = (bx as u32 + dx, by as u32 + dy, bz as u32 + dz);
            let row = table.row_of(vertex.0, vertex.1, vertex.2);
            trace.push(VertexAccess { level: level as u16, vertex, row });
            for (d, &s) in dst.iter_mut().zip(table.row(row)) {
                *d += w[i] * s;
            }
        }
    }
}

/// `encode`, `encode_traced` and `vertex_accesses` against the oracle at
/// one point, bit for bit, and both forms of `encode` on every
/// instantiation the host offers.
fn assert_encode_matches_oracle(enc: &HashEncoder, p: Vec3) {
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let (mut want, mut want_trace) = (vec![0.0; enc.encoded_dim()], Vec::new());
    encode_oracle(enc, p, &mut want, &mut want_trace);
    let (levels, f) = (enc.config().levels, enc.config().feat_dim);
    let shape = format!("{levels} levels x F = {f} at {p:?}");
    let mut got = vec![f32::NAN; enc.encoded_dim()];
    enc.encode(p, &mut got);
    assert_eq!(bits(&got), bits(&want), "encode differs from the oracle, {shape}");
    let (mut traced, mut trace) = (vec![f32::NAN; enc.encoded_dim()], Vec::new());
    enc.encode_traced(p, &mut traced, &mut trace);
    assert_eq!(bits(&traced), bits(&want), "encode_traced differs from the oracle, {shape}");
    assert_eq!(trace, want_trace, "traced accesses differ from the oracle, {shape}");
    for level in 0..levels {
        assert_eq!(
            enc.vertex_accesses(p, level)[..],
            want_trace[level * 8..(level + 1) * 8],
            "vertex_accesses differ from the oracle, {shape}, level {level}"
        );
    }
    for &kernel in kernels_under_test() {
        let mut got = vec![f32::NAN; enc.encoded_dim()];
        enc.encode_on(kernel, p, &mut got, None);
        assert_eq!(bits(&got), bits(&want), "encode on {kernel:?} differs, {shape}");
        let (mut traced, mut trace) = (vec![f32::NAN; enc.encoded_dim()], Vec::new());
        enc.encode_on(kernel, p, &mut traced, Some(&mut trace));
        assert_eq!(bits(&traced), bits(&want), "encode_traced on {kernel:?} differs, {shape}");
        assert_eq!(trace, want_trace, "traced accesses on {kernel:?} differ, {shape}");
    }
}

/// Output widths of the `Dense` properties.
const DENSE_WIDTHS: [usize; 18] =
    [1, 3, 4, 5, 8, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 80, 127, 128];

/// Output widths of the `IntDense` properties. The integer bodies run lines
/// of 16 outputs, up to four (the AVX2 one in quarters of a line), so these
/// end the outputs inside a quarter and a line, on their edges, and at each
/// line count.
const INT_WIDTHS: [usize; 13] = [1, 3, 4, 5, 8, 15, 16, 17, 31, 32, 33, 48, 64];

fn dense_layer(in_dim: usize, out_dim: usize, act: Activation, w: &[f32], bias: &[f32]) -> Dense {
    let mut layer = Dense::zeros(in_dim, out_dim, act);
    layer.import_row_major(w);
    layer.bias_mut().copy_from_slice(bias);
    layer
}

/// The instantiations of the kernel bodies the integer-layer, encoder and
/// occupancy-pass properties run on (the encoder and the pass never run
/// wider than AVX2, so their `Avx512Vnni` rows repeat the `Avx2` ones). A
/// host without AVX2 or AVX-512 VNNI cannot run those; say so once instead
/// of letting their rows pass unseen — straight to stderr, which the test
/// harness does not capture, so a plain `cargo test` shows it.
fn kernels_under_test() -> &'static [Kernel] {
    use std::io::Write;
    static SAY_ONCE: std::sync::Once = std::sync::Once::new();
    SAY_ONCE.call_once(|| {
        for (kernel, name) in [(Kernel::Avx2, "AVX2"), (Kernel::Avx512Vnni, "AVX-512F and AVX-512 VNNI")] {
            if !Kernel::available().contains(&kernel) {
                let _ = writeln!(
                    std::io::stderr(),
                    "SKIPPED: this CPU reports no {name}: no Kernel::{kernel:?} row of the kernel properties ran"
                );
            }
        }
    });
    Kernel::available()
}

thread_local! {
    /// The instantiations [`assert_int_matches_oracle`] ran on, in this thread.
    static INT_RAN: std::cell::RefCell<Vec<Kernel>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `got` is what the oracle computed: the same bits — or, where the oracle
/// says NaN, any NaN. Which payload a NaN carries is the one thing here that
/// neither IEEE 754 nor Rust pins down, so it is not compared.
fn same_floats(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// `layer` (built from row-major `w`) at `x` against the oracle — one serial
/// dot product per output row, `bias + w₀x₀ + w₁x₁ + …` — which it returns,
/// for the whole layer and for fewer outputs than it has, as dispatched and
/// on every instantiation the host offers.
fn assert_dense_matches_oracle(layer: &Dense, w: &[f32], x: &[f32]) -> Vec<f32> {
    let (in_dim, out_dim, act) = (layer.in_dim(), layer.out_dim(), layer.activation());
    let want: Vec<f32> = w
        .chunks_exact(in_dim)
        .zip(layer.bias())
        .map(|(row, &b)| {
            let acc = row.iter().zip(x).fold(b, |acc, (w, v)| acc + w * v);
            match act {
                Activation::None => acc,
                Activation::Relu => acc.max(0.0),
            }
        })
        .collect();
    for ask in DENSE_WIDTHS.into_iter().filter(|&n| n < out_dim).chain([out_dim]) {
        let mut got = vec![f32::NAN; ask];
        layer.forward(x, &mut got);
        assert!(
            same_floats(&got, &want[..ask]),
            "{in_dim}x{out_dim} {act:?}, {ask} outputs: {got:?} vs {want:?}"
        );
        for &kernel in kernels_under_test() {
            layer.forward_on(kernel, x, &mut got);
            let same = same_floats(&got, &want[..ask]);
            assert!(same, "{in_dim}x{out_dim} {act:?} on {kernel:?}, {ask} outputs");
        }
    }
    want
}

/// The values arithmetic treats specially, among ordinary ones: subnormals,
/// both zeros, both infinities, the largest and the smallest normal float.
const SPECIALS: [f32; 12] = [
    0.0,
    -0.0,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    f32::MAX,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.5,
    -0.75,
    3e-20,
    -2e19,
];

#[test]
fn dense_forward_matches_the_oracle_on_subnormals_zeros_infinities_and_nan() {
    // [infinite, NaN, subnormal, -0.0] outputs the oracle produced
    let mut seen = [0usize; 4];
    let mut check = |in_dim: usize, out_dim: usize, w: &[f32], bias: &[f32], x: &[f32]| {
        for act in [Activation::None, Activation::Relu] {
            let layer = dense_layer(in_dim, out_dim, act, w, bias);
            for v in assert_dense_matches_oracle(&layer, w, x) {
                let neg_zero = v.to_bits() == (-0.0f32).to_bits();
                for (n, hit) in
                    seen.iter_mut().zip([v.is_infinite(), v.is_nan(), v.is_subnormal(), neg_zero])
                {
                    *n += hit as usize;
                }
            }
        }
    };
    // even rows sum to -0.0 = -0.0 + (-0.0)(1) + (0.0)(-1), odd rows to +0.0
    let (w, bias): (Vec<[f32; 2]>, Vec<f32>) = (0..17)
        .map(|row| if row % 2 == 0 { ([-0.0, 0.0], -0.0) } else { ([0.0, -0.0], 0.0) })
        .unzip();
    check(2, 17, w.as_flattened(), &bias, &[1.0, -1.0]);
    for (with_nan, seed) in [(false, 1u64), (false, 2), (true, 3), (true, 4)] {
        let mut unit = xorshift_unit(seed);
        // three values in four are ordinary ones in [-1, 1), the fourth a special
        let mut next = move || {
            let pick = ((unit() + 1.0) * 32768.0) as usize; // the 16 bits behind a draw
            match pick % 4 {
                0 if with_nan && pick.is_multiple_of(28) => f32::NAN,
                0 => SPECIALS[(pick / 4) % SPECIALS.len()],
                _ => unit(),
            }
        };
        for in_dim in [1usize, 2, 7, 16, 31, 64] {
            let x: Vec<f32> = (0..in_dim).map(|_| next()).collect();
            for out_dim in DENSE_WIDTHS {
                let w: Vec<f32> = (0..in_dim * out_dim).map(|_| next()).collect();
                let bias: Vec<f32> = (0..out_dim).map(|_| next()).collect();
                check(in_dim, out_dim, &w, &bias, &x);
            }
        }
    }
    // comparing to the oracle says something only if every class reached an output
    assert!(seen.iter().all(|&n| n > 0), "[infinite, NaN, subnormal, -0.0] outputs: {seen:?}");
}

/// An integer layer and what built it: row-major `i8` weights, each
/// output's multiplier and addend, and whether its inputs are signed.
struct IntCase {
    layer: IntDense,
    w: Vec<i8>,
    mul: Vec<f32>,
    add: Vec<f32>,
    signed: bool,
}

impl IntCase {
    fn new(in_dim: usize, signed: bool, w: Vec<i8>, mul: Vec<f32>, add: Vec<f32>) -> Self {
        let layer = IntDense::from_parts(in_dim, mul.len(), signed, &w, &mul, &add);
        IntCase { layer, w, mul, add, signed }
    }

    /// `n` outputs of random weights in ±127, multipliers and addends.
    fn random(in_dim: usize, n: usize, signed: bool, seed: u64) -> Self {
        let mut next = xorshift_unit(seed);
        let w = (0..in_dim * n).map(|_| (next() * 127.5).clamp(-127.0, 127.0) as i8).collect();
        let mul = (0..n).map(|_| next() * 0.01).collect();
        let add = (0..n).map(|_| next() * 100.0).collect();
        IntCase::new(in_dim, signed, w, mul, add)
    }

    /// The byte a step `q` travels as: `q + 128` into signed inputs.
    fn byte(&self, q: i32) -> u8 {
        (q + if self.signed { 128 } else { 0 }) as u8
    }

    /// The scalar oracle: each output's `Σ w·q` in `i32`, row by row.
    fn sums(&self, q: &[i32]) -> Vec<i32> {
        let in_dim = self.layer.in_dim();
        self.w
            .chunks_exact(in_dim)
            .map(|row| row.iter().zip(q).map(|(&w, &q)| i32::from(w) * q).sum())
            .collect()
    }

    /// The oracle's `f32` step over `sums`: the value, and the value
    /// requantised (clamped into 0..=255, rounded ties to even).
    fn steps(&self, sums: &[i32]) -> (Vec<f32>, Vec<u8>) {
        let y: Vec<f32> = sums
            .iter()
            .zip(&self.mul)
            .zip(&self.add)
            .map(|((&s, m), a)| s as f32 * m + a)
            .collect();
        let q = y.iter().map(|y| y.clamp(0.0, 255.0).round_ties_even() as u8).collect();
        (y, q)
    }
}

/// `case` at the steps `q` against the scalar `i32` oracle: the prefix over
/// the whole input, run on to the end of its last group with bytes that
/// meet zero weights, as dispatched and on every instantiation the host
/// offers; every output past `out_dim` sums to zero. Returns the oracle's
/// sums.
fn assert_int_matches_oracle(case: &IntCase, q: &[i32]) -> Vec<i32> {
    let layer = &case.layer;
    let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
    let mut x: Vec<u8> = q.iter().map(|&q| case.byte(q)).collect();
    x.resize(in_dim.next_multiple_of(4), 0xa5);
    let mut want = case.sums(q);
    want.resize(layer.sums_len(), 0);
    let shape = format!("{in_dim}x{out_dim} signed {}", case.signed);
    let mut got = vec![i32::MIN; layer.sums_len()];
    layer.prefix(&x, &mut got);
    assert_eq!(got, want, "{shape} as dispatched");
    for &kernel in kernels_under_test() {
        INT_RAN.with_borrow_mut(|ran| ran.push(kernel));
        got.fill(i32::MIN);
        layer.prefix_on(kernel, &x, &mut got);
        assert_eq!(got, want, "{shape} on {kernel:?}");
    }
    want.truncate(out_dim);
    want
}

/// Rows of ±127 weights: all 127, all −127, alternating by input, and
/// alternating by group of four, output after output.
fn extreme_weights(in_dim: usize, out_dim: usize) -> Vec<i8> {
    let row = |j: usize| -> Vec<i8> {
        (0..in_dim)
            .map(|i| match j % 4 {
                0 => 127,
                1 => -127,
                2 if i % 2 == 0 => 127,
                3 if (i / 4) % 2 != 0 => 127,
                _ => -127,
            })
            .collect()
    };
    (0..out_dim).flat_map(row).collect()
}

#[test]
fn int_layers_match_the_oracle_at_the_extremes_of_their_sums() {
    // every input at the top of its range against ±127 weights, at 64
    // inputs: 64 · 255 · 127 = 2 072 640 unsigned, 64 · 127 · 127 signed; a
    // body that adds pairs of products in 16 bits (255 · 127 · 2 > 2¹⁵) fails
    for (signed, top, bottom) in [(false, 255, 0), (true, 127, -127)] {
        for in_dim in [1, 2, 31, 64, 65, 256] {
            for out_dim in [3, 16, 33, 64] {
                let w = extreme_weights(in_dim, out_dim);
                let case = IntCase::new(
                    in_dim,
                    signed,
                    w,
                    vec![1.0 / 4096.0; out_dim],
                    vec![-3.0; out_dim],
                );
                for q in [top, bottom] {
                    let sums = assert_int_matches_oracle(&case, &vec![q; in_dim]);
                    let extreme = in_dim as i32 * 127 * q.abs();
                    assert!(sums.iter().any(|s| s.abs() == extreme), "{sums:?}");
                }
                let alternating: Vec<i32> =
                    (0..in_dim).map(|i| if i % 2 == 0 { top } else { bottom }).collect();
                assert_int_matches_oracle(&case, &alternating);
            }
        }
    }
}

#[test]
fn requantisation_rounds_ties_to_even() {
    // every half step from below the range to above it, and the floats
    // either side of each: the ties in 0..255 go to the even neighbour, the
    // rest to the nearest whole step, clamped into 0..=255 as the oracle
    // chain does (NaN and the infinities at the clamps)
    let mut ties = 0;
    let mut ys = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e9, -1e9];
    for h in -8..=2 * 255 + 8 {
        let y = h as f32 / 2.0;
        ys.extend([y.next_down(), y, y.next_up()]);
    }
    for y in ys {
        let b = requantise(y);
        let want = y.clamp(0.0, 255.0).round_ties_even() as u8;
        assert_eq!(b, want, "{y} → {b}");
        if y.fract() == 0.5 && (0.0..255.0).contains(&y) {
            ties += 1;
            assert!(b.is_multiple_of(2), "{y} → {b}");
        }
    }
    assert_eq!(ties, 255);
}

#[test]
fn a_dense_layer_over_whole_numbers_gives_the_integer_sums() {
    // the `f32` layer is the integer one's oracle too: whole weights and
    // inputs make every partial sum a whole number below 2²⁴, exact in `f32`
    for (in_dim, out_dim, signed, seed) in
        [(16, 64, true, 1), (64, 16, false, 2), (31, 64, true, 3), (64, 3, false, 4)]
    {
        let case = IntCase::random(in_dim, out_dim, signed, seed);
        let mut next = xorshift_unit(seed + 10);
        let q: Vec<i32> = (0..in_dim)
            .map(|_| if signed { (next() * 127.5) as i32 } else { ((next() + 1.0) * 127.5) as i32 })
            .collect();
        let w: Vec<f32> = case.w.iter().map(|&w| f32::from(w)).collect();
        let dense = dense_layer(in_dim, out_dim, Activation::None, &w, &vec![0.0; out_dim]);
        let x: Vec<f32> = q.iter().map(|&q| q as f32).collect();
        let mut y = vec![0.0; out_dim];
        dense.forward(&x, &mut y);
        let sums = assert_int_matches_oracle(&case, &q);
        assert_eq!(y, sums.iter().map(|&s| s as f32).collect::<Vec<_>>());
    }
}

#[test]
fn the_int_properties_run_on_every_instantiation_the_host_offers() {
    for out_dim in INT_WIDTHS {
        INT_RAN.with_borrow_mut(Vec::clear);
        let case = IntCase::random(5, out_dim, out_dim % 2 == 0, out_dim as u64);
        assert_int_matches_oracle(&case, &[1, 0, 127, 3, 99]);
        let mut ran = INT_RAN.take();
        ran.sort();
        ran.dedup();
        assert_eq!(ran, Kernel::available(), "{out_dim} outputs");
    }
    for &kernel in Kernel::available() {
        // naming an instantiation the CPU has runs it, not a narrower one
        assert_eq!(kernel.here(), kernel);
    }
}

/// The shapes of the models' integer MLPs: density on `tiny()` (16 inputs)
/// and on `small()` / `paper()` (32), and colour (31).
const INT_MLP_SHAPES: [&[usize]; 3] = [&[16, 64, 16], &[32, 64, 16], &[31, 64, 64, 3]];

/// An integer MLP and the cases of its layers.
struct IntMlpCase {
    mlp: IntMlp,
    layers: Vec<IntCase>,
}

impl IntMlpCase {
    fn new(layers: Vec<IntCase>) -> Self {
        let mlp = IntMlp::new(layers.iter().map(|c| c.layer.clone()).collect());
        IntMlpCase { mlp, layers }
    }

    /// Layers of `dims` (the inputs, then each layer's outputs) from
    /// `layer(k, in_dim, out_dim)`, the first's inputs `signed`.
    fn build(
        dims: &[usize],
        signed: bool,
        mut layer: impl FnMut(usize, usize, usize) -> (Vec<i8>, Vec<f32>, Vec<f32>),
    ) -> Self {
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(k, d)| {
                let (w, mul, add) = layer(k, d[0], d[1]);
                IntCase::new(d[0], signed && k == 0, w, mul, add)
            })
            .collect();
        IntMlpCase::new(layers)
    }

    /// Random weights in ±127; each layer's multipliers scaled so that a
    /// hidden layer's outputs spread over `0..=255` more than they saturate.
    fn random(dims: &[usize], signed: bool, seed: u64) -> Self {
        let mut next = xorshift_unit(seed);
        IntMlpCase::build(dims, signed, |_, in_dim, out_dim| {
            let w = (0..in_dim * out_dim)
                .map(|_| (next() * 127.5).clamp(-127.0, 127.0) as i8)
                .collect();
            // a sum of `in_dim` products of random sign, up to 127 · 128 each
            let scale = 255.0 / ((in_dim as f32).sqrt() * 127.0 * 64.0);
            let mul = (0..out_dim).map(|_| next() * scale).collect();
            let add = (0..out_dim).map(|_| next() * 128.0).collect();
            (w, mul, add)
        })
    }

    /// The oracle chain: each layer's scalar `i32` sums and `f32` step, a
    /// hidden layer's outputs requantised as the next layer's steps; the last
    /// layer's values as a whole line (zero past its outputs), and how many
    /// hidden outputs were ties.
    fn oracle(&self, q: &[i32]) -> (Vec<f32>, usize) {
        let (last, hidden) = self.layers.split_last().unwrap();
        let (mut q, mut ties) = (q.to_vec(), 0);
        for case in hidden {
            let (y, bytes) = case.steps(&case.sums(&q));
            ties += y.iter().filter(|y| y.fract() == 0.5 && (0.0..255.0).contains(*y)).count();
            q = bytes.into_iter().map(i32::from).collect();
        }
        let mut line = last.steps(&last.sums(&q)).0;
        line.resize(LINE, 0.0);
        (line, ties)
    }
}

/// The bytes of the first layer's steps `q`, run on to the end of the last
/// group of four with `pad`, which meets zero weights.
fn group_bytes(case: &IntMlpCase, q: &[i32], pad: u8) -> Vec<u8> {
    let first = &case.layers[0];
    let mut x: Vec<u8> = q.iter().map(|&q| first.byte(q)).collect();
    x.resize(q.len().next_multiple_of(4), pad);
    x
}

/// `case` at the first layer's steps `q` against the oracle chain, on every
/// instantiation the host offers and as dispatched: whole, and resumed from
/// the first layer's prefix at every group boundary (the colour MLP resumes
/// after its 16 SH inputs). Then two inputs at a time through the pair body
/// ([`assert_pairs_match`]), `q` beside `q` turned by one step. Returns the
/// oracle's hidden ties.
fn assert_int_mlp_matches_oracle(case: &IntMlpCase, q: &[i32]) -> usize {
    let first = &case.layers[0];
    let x = group_bytes(case, q, 0xa5);
    let (want, ties) = case.oracle(q);
    let shape: Vec<usize> = case.layers.iter().map(|c| c.layer.out_dim()).collect();
    let shape = format!("{} -> {shape:?} signed {}", q.len(), first.signed);
    let mut got = [0.0f32; LINE];
    case.mlp.forward_from(None, 0, [&x], [&mut got]);
    assert!(same_floats(&got, &want), "{shape} as dispatched: {got:?} vs {want:?}");
    let mut head = vec![i32::MIN; first.layer.sums_len()];
    for &kernel in kernels_under_test() {
        case.mlp.forward_on(kernel, None, 0, [&x], [&mut got]);
        assert!(same_floats(&got, &want), "{shape} on {kernel:?}: {got:?} vs {want:?}");
        for k in (0..=x.len()).step_by(4) {
            first.layer.prefix_on(kernel, &x[..k], &mut head);
            case.mlp.forward_on(kernel, Some(&head), k, [&x[k..]], [&mut got]);
            assert!(same_floats(&got, &want), "{shape} on {kernel:?}, split at {k}");
        }
    }
    let mut turned = q.to_vec();
    turned.rotate_left(1);
    assert_pairs_match(case, q, &turned, &shape);
    ties
}

/// Two inputs at a time through the pair body on every instantiation the
/// host offers and as dispatched, each slot against the oracle chain and
/// bit for bit what a call with that input alone gives: `q` and `r`, in
/// either order and each beside itself, whole; then resumed from the prefix
/// of `q`'s head at every group boundary (both inputs share it, as a pair of
/// colour calls shares its direction's), the second input `r`'s rest after
/// that head. The two inputs' last groups run on with different bytes.
fn assert_pairs_match(case: &IntMlpCase, q: &[i32], r: &[i32], shape: &str) {
    let first = &case.layers[0];
    let bits = |y: &[f32]| -> Vec<u32> { y.iter().map(|y| y.to_bits()).collect() };
    let (mut single, mut a, mut b) = ([0.0f32; LINE], [0.0f32; LINE], [0.0f32; LINE]);
    let mut head = vec![i32::MIN; first.layer.sums_len()];
    for &kernel in kernels_under_test() {
        for (u, v) in [(q, r), (r, q), (q, q), (r, r)] {
            let (xu, xv) = (group_bytes(case, u, 0xa5), group_bytes(case, v, 0x5a));
            case.mlp.forward_on(kernel, None, 0, [&xu, &xv], [&mut a, &mut b]);
            for (got, input, x) in [(&a, u, &xu), (&b, v, &xv)] {
                let what = format!("{shape} pair on {kernel:?}");
                assert!(same_floats(got, &case.oracle(input).0), "{what}: {got:?}");
                case.mlp.forward_on(kernel, None, 0, [x], [&mut single]);
                assert_eq!(bits(got), bits(&single), "{what}: not what one input alone gives");
            }
        }
        for k in (0..=q.len().next_multiple_of(4)).step_by(4) {
            let h = k.min(q.len());
            let r: Vec<i32> = q[..h].iter().chain(&r[h..]).copied().collect();
            let (xq, xr) = (group_bytes(case, q, 0xa5), group_bytes(case, &r, 0x5a));
            first.layer.prefix_on(kernel, &xq[..k], &mut head);
            let rests = [&xq[k..], &xr[k..]];
            let what = format!("{shape} pair on {kernel:?}, split at {k}");
            case.mlp.forward_on(kernel, Some(&head), k, rests, [&mut a, &mut b]);
            for ((got, input), rest) in [(&a, q), (&b, &r[..])].into_iter().zip(rests) {
                assert!(same_floats(got, &case.oracle(input).0), "{what}: {got:?}");
                case.mlp.forward_on(kernel, Some(&head), k, [rest], [&mut single]);
                assert_eq!(bits(got), bits(&single), "{what}: not what one input alone gives");
            }
        }
    }
}

/// Steps a first layer takes: ±127 signed, `0..=255` unsigned.
fn random_steps(n: usize, signed: bool, seed: u64) -> Vec<i32> {
    let mut next = xorshift_unit(seed);
    (0..n)
        .map(|_| if signed { (next() * 127.5) as i32 } else { ((next() + 1.0) * 127.5) as i32 })
        .collect()
}

#[test]
fn int_mlps_match_the_oracle_chain_at_the_extremes_of_their_sums() {
    // ±127 weights against the top of the first layer's range; each hidden
    // layer's step maps its most extreme sum to 255, or (`add` 1000) every
    // sum to 255, so the layer after it reads all 64 bytes at 255
    for dims in INT_MLP_SHAPES {
        for (signed, top) in [(false, 255i32), (true, 127), (true, -127)] {
            for hidden_add in [0.0, 1000.0] {
                let case = IntMlpCase::build(dims, signed, |k, in_dim, out_dim| {
                    let input = if k == 0 { top.abs() } else { 255 };
                    let extreme = in_dim as f32 * 127.0 * input as f32;
                    let last = k + 2 == dims.len();
                    let (mul, add) =
                        if last { (1.0 / 4096.0, -3.0) } else { (255.0 / extreme, hidden_add) };
                    (extreme_weights(in_dim, out_dim), vec![mul; out_dim], vec![add; out_dim])
                });
                assert_int_mlp_matches_oracle(&case, &vec![top; dims[0]]);
                let alternating: Vec<i32> =
                    (0..dims[0]).map(|i| if i % 2 == 0 { top } else { 0 }).collect();
                assert_int_mlp_matches_oracle(&case, &alternating);
            }
        }
    }
}

#[test]
fn int_mlps_requantise_hidden_ties_to_even() {
    // small weights and multiplier ½: every odd sum a hidden layer makes in
    // range is a tie, and the next layer reads the byte it rounds to
    let mut ties = 0;
    for (seed, dims) in INT_MLP_SHAPES.into_iter().enumerate() {
        let mut next = xorshift_unit(seed as u64 + 40);
        let case = IntMlpCase::build(dims, true, |_, in_dim, out_dim| {
            let w = (0..in_dim * out_dim).map(|_| (next() * 3.5) as i8).collect();
            let add = (0..out_dim).map(|_| (next() * 64.0).round() + 64.0).collect();
            (w, vec![0.5; out_dim], add)
        });
        for s in 0..16 {
            ties += assert_int_mlp_matches_oracle(&case, &random_steps(dims[0], true, s));
        }
    }
    assert!(ties > 400, "{ties} ties");
}

#[test]
fn the_encoder_has_an_instance_for_every_width_validate_admits() {
    let widths: Vec<usize> = oracle_encoders().iter().map(|e| e.config().feat_dim).collect();
    for feat_dim in 0..=9 {
        let admitted = GridConfig { feat_dim, ..GridConfig::tiny() }.validate().is_ok();
        assert_eq!(admitted, [1, 2, 4, 8].contains(&feat_dim), "feat_dim {feat_dim}");
        assert_eq!(admitted, widths.contains(&feat_dim), "feat_dim {feat_dim} has no oracle run");
    }
}

#[test]
fn encode_matches_the_oracle_on_boundary_points() {
    let edge = [-0.25, 0.0, 0.5, 1.0, 1.75];
    for enc in oracle_encoders() {
        for x in edge {
            for y in edge {
                for z in edge {
                    assert_encode_matches_oracle(enc, Vec3::new(x, y, z));
                }
            }
        }
        // exactly on every level-0 and finest-level grid plane
        for res in [enc.config().base_res, enc.config().max_res] {
            for i in 0..=res {
                let c = i as f32 / res as f32;
                assert_encode_matches_oracle(enc, Vec3::new(c, 1.0 - c, c));
            }
        }
    }
}

proptest! {
    #[test]
    fn spatial_hash_stays_in_table(x in 0u32..100_000, y in 0u32..100_000, z in 0u32..100_000) {
        for shift in [8u32, 12, 19] {
            let t = 1u32 << shift;
            prop_assert!(spatial_hash(x, y, z, t) < t);
        }
    }

    #[test]
    fn dense_index_is_injective_on_random_pairs(
        a in (0u32..16, 0u32..16, 0u32..16),
        b in (0u32..16, 0u32..16, 0u32..16),
    ) {
        let (i, j) = (dense_index(a.0, a.1, a.2, 16), dense_index(b.0, b.1, b.2, 16));
        prop_assert_eq!(i == j, a == b);
    }

    #[test]
    fn encoder_output_is_finite_everywhere(
        x in -0.5f32..1.5, y in -0.5f32..1.5, z in -0.5f32..1.5, seed in 0u64..32,
    ) {
        let enc = tiny_encoder_with(seed);
        let mut out = vec![0.0; enc.encoded_dim()];
        enc.encode(Vec3::new(x, y, z), &mut out);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encoder_is_locally_continuous(
        x in 0.1f32..0.9, y in 0.1f32..0.9, z in 0.1f32..0.9, seed in 0u64..16,
    ) {
        let enc = tiny_encoder_with(seed);
        let eps = 5e-5;
        let mut a = vec![0.0; enc.encoded_dim()];
        let mut b = vec![0.0; enc.encoded_dim()];
        enc.encode(Vec3::new(x, y, z), &mut a);
        enc.encode(Vec3::new(x + eps, y, z), &mut b);
        // feature change bounded by a Lipschitz constant of the grid
        // (finest tiny level has 64 cells, features in [-1,1]: |Δ| ≤ 64·eps·2 per level pair)
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u - v).abs() < 64.0 * eps * 4.0 + 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn encoder_trace_shape_is_invariant(
        x in 0.0f32..1.0, y in 0.0f32..1.0, z in 0.0f32..1.0,
    ) {
        let enc = tiny_encoder_with(1);
        let mut out = vec![0.0; enc.encoded_dim()];
        let mut trace = Vec::new();
        enc.encode_traced(Vec3::new(x, y, z), &mut out, &mut trace);
        prop_assert_eq!(trace.len(), 8 * enc.config().levels);
        // all rows within the tables
        for a in &trace {
            let table = enc.tables().table(a.level as usize);
            prop_assert!(a.row < table.entries());
        }
    }

    #[test]
    fn encode_matches_the_oracle_on_random_points(
        x in -0.2f32..1.2, y in -0.2f32..1.2, z in -0.2f32..1.2,
    ) {
        for enc in oracle_encoders() {
            assert_encode_matches_oracle(enc, Vec3::new(x, y, z));
        }
    }

    #[test]
    fn dense_forward_matches_the_row_dot_oracle(in_dim in 1usize..65, seed in 0u64..1000) {
        let mut next = xorshift_unit(seed);
        let x: Vec<f32> = (0..in_dim).map(|_| next()).collect();
        for out_dim in DENSE_WIDTHS {
            let w: Vec<f32> = (0..in_dim * out_dim).map(|_| next()).collect();
            let bias: Vec<f32> = (0..out_dim).map(|_| next()).collect();
            for act in [Activation::None, Activation::Relu] {
                let layer = dense_layer(in_dim, out_dim, act, &w, &bias);
                prop_assert!(layer.export_row_major() == w, "export ∘ import is not the identity");
                // the same matrix entered one weight at a time
                let mut by_set = Dense::zeros(in_dim, out_dim, act);
                for (i, &v) in w.iter().enumerate() {
                    by_set.set(i / in_dim, i % in_dim, v);
                }
                by_set.bias_mut().copy_from_slice(&bias);
                prop_assert!(by_set == layer, "set and import_row_major disagree");
                let want = assert_dense_matches_oracle(&layer, &w, &x);
                prop_assert!(want.iter().all(|v| v.is_finite()), "finite in, non-finite out");
            }
        }
    }

    #[test]
    fn int_layers_match_the_i32_oracle_on_random_layers(
        in_dim in 1usize..65,
        signed in 0u8..2,
        seed in 0u64..1000,
    ) {
        let signed = signed == 1;
        let mut next = xorshift_unit(seed);
        let q: Vec<i32> = (0..in_dim)
            .map(|_| if signed { (next() * 127.5) as i32 } else { ((next() + 1.0) * 127.5) as i32 })
            .collect();
        for out_dim in [1, 3, 16, 17, 49, 64] {
            assert_int_matches_oracle(&IntCase::random(in_dim, out_dim, signed, seed), &q);
        }
    }

    #[test]
    fn int_mlps_match_the_oracle_chain_on_random_layers(seed in 0u64..1000, signed in 0u8..2) {
        let signed = signed == 1;
        for dims in INT_MLP_SHAPES {
            let q = random_steps(dims[0], signed, seed + 1);
            assert_int_mlp_matches_oracle(&IntMlpCase::random(dims, signed, seed), &q);
        }
    }

    #[test]
    fn linear_mlp_is_additive(
        x1 in proptest::collection::vec(-1.0f32..1.0, 4),
        x2 in proptest::collection::vec(-1.0f32..1.0, 4),
        w in proptest::collection::vec(-1.0f32..1.0, 12),
    ) {
        // with Activation::None the MLP is a linear map: f(x1+x2) = f(x1)+f(x2)
        let mut layer = Dense::zeros(4, 3, Activation::None);
        layer.import_row_major(&w);
        let mlp = Mlp::new(vec![layer]);
        let sum: Vec<f32> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let y12 = mlp.forward(&sum);
        let y1 = mlp.forward(&x1);
        let y2 = mlp.forward(&x2);
        for i in 0..3 {
            prop_assert!((y12[i] - (y1[i] + y2[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn relu_mlp_output_is_subadditive_bound(
        x in proptest::collection::vec(-1.0f32..1.0, 4),
        w in proptest::collection::vec(-1.0f32..1.0, 8),
    ) {
        // ReLU outputs are within [0, Σ|w|·|x|]
        let mut layer = Dense::zeros(4, 2, Activation::Relu);
        layer.import_row_major(&w);
        let mlp = Mlp::new(vec![layer]);
        let y = mlp.forward(&x);
        let bound: f32 = w.iter().map(|v| v.abs()).sum::<f32>() * x.iter().map(|v| v.abs()).fold(0.0, f32::max);
        for v in y {
            prop_assert!(v >= 0.0);
            prop_assert!(v <= bound + 1e-4);
        }
    }

    #[test]
    fn the_occupancy_pass_is_the_per_point_test_on_random_rays(
        outside in (-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0),
        inside in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        d in (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
        zeroed in 0u8..8,
        starts_inside in 0u8..2,
        ts in proptest::collection::vec(-1.0f32..7.0, 1..48),
    ) {
        // bit i zeroes direction component i (all three: only x is kept)
        let keep = |i: u8, c: f32| if zeroed & (1 << i) != 0 && zeroed != 7 { 0.0 } else { c };
        let dir = Vec3::new(keep(0, d.0), keep(1, d.1), keep(2, d.2));
        prop_assume!(dir.norm() > 1e-3);
        assert_every_pass_per_point(|grid| {
            let b = grid.bounds();
            let origin = if starts_inside == 1 {
                b.denormalize(Vec3::new(inside.0, inside.1, inside.2))
            } else {
                Vec3::new(outside.0, outside.1, outside.2)
            };
            let ray = Ray::new(origin, dir);
            let mut all = ts.clone();
            all.extend(b.intersect(&ray).map_or(Vec::new(), |r| r.midpoints(48)));
            vec![(ray, all)]
        });
    }

    #[test]
    fn grid_resolution_is_monotone_for_random_configs(
        levels in 2usize..12, base in 4u32..32, growth in 1u32..6,
    ) {
        let cfg = GridConfig {
            levels,
            base_res: base,
            max_res: base * (1 + growth),
            table_size: 1 << 12,
            feat_dim: 2,
        };
        prop_assume!(cfg.validate().is_ok());
        let mut prev = 0;
        for l in 0..levels {
            let r = cfg.level_resolution(l);
            prop_assert!(r >= prev);
            prev = r;
        }
    }
}

/// Boxes with extents that are not powers of two (so a reciprocal is not the
/// divide), one with its faces at `0.0` (so `-0.0` coordinates sit on them).
fn odd_boxes() -> [Aabb; 2] {
    [
        Aabb::new(Vec3::new(-0.7, -1.3, -0.9), Vec3::new(1.1, 0.6, 0.95)),
        Aabb::new(Vec3::ZERO, Vec3::new(1.3, 0.7, 2.1)),
    ]
}

/// Over each odd box: `OccupancyGrid::solid` (res 1), and res 7 and res 64
/// grids with about half their cells set — each with an `NgpModel` of zero
/// weights around it, whose trait method answers for the grid alone.
fn odd_grids() -> &'static [(OccupancyGrid, NgpModel)] {
    static GRIDS: std::sync::OnceLock<Vec<(OccupancyGrid, NgpModel)>> = std::sync::OnceLock::new();
    GRIDS.get_or_init(|| {
        let mut next = xorshift_unit(7);
        let mut grids = Vec::new();
        for b in odd_boxes() {
            grids.push(OccupancyGrid::solid(b));
            for res in [7, 64] {
                let cells = (0..res * res * res).map(|_| next() > 0.0).collect();
                grids.push(OccupancyGrid::from_cells(res, b, cells).expect("res³ cells"));
            }
        }
        let enc = tiny_encoder_with(1);
        let density = Mlp::new(vec![
            Dense::zeros(enc.encoded_dim(), HIDDEN_DIM, Activation::Relu),
            Dense::zeros(HIDDEN_DIM, DENSITY_OUT_DIM, Activation::None),
        ]);
        let color = Mlp::new(vec![
            Dense::zeros(COLOR_IN_DIM, HIDDEN_DIM, Activation::Relu),
            Dense::zeros(HIDDEN_DIM, HIDDEN_DIM, Activation::Relu),
            Dense::zeros(HIDDEN_DIM, 3, Activation::None),
        ]);
        let around = |g: OccupancyGrid| {
            let m =
                NgpModel::new(enc.clone(), density.clone(), color.clone(), g.bounds(), g.clone());
            (g, m)
        };
        grids.into_iter().map(around).collect()
    })
}

/// A res-1024 grid (the largest a grid may be: `res³` is 2³⁰, past the 2²⁴
/// where floats stop counting cells exactly) over the first odd box, about
/// half its cells set. Written as bits, 128 MiB, built once and with no
/// model around it.
fn wide_grid() -> &'static OccupancyGrid {
    static GRID: std::sync::OnceLock<OccupancyGrid> = std::sync::OnceLock::new();
    GRID.get_or_init(|| {
        let res = OccupancyGrid::MAX_RES;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bits = (0..(res * res * res).div_ceil(8))
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        OccupancyGrid::from_bits(res, odd_boxes()[0], bits).expect("⌈res³ / 8⌉ bytes")
    })
}

/// The TensoRF and DVGO fits of Lego, made once.
fn fitted_grid_models() -> &'static (TensoRfModel, DvgoModel) {
    static MODELS: std::sync::OnceLock<(TensoRfModel, DvgoModel)> = std::sync::OnceLock::new();
    MODELS.get_or_init(|| {
        let lego = registry::handle("Lego").build();
        let tensorf = TensoRfModel::fit(lego.as_ref(), &TensoRfConfig::tiny(), 7);
        (tensorf, DvgoModel::fit(lego.as_ref(), &DvgoConfig::tiny()))
    })
}

/// The per-point test as it was before the pass ran in lanes: `contains`,
/// `normalize`, then per axis a clamped truncating cast, the cells combined
/// in `usize`. Kept as the scalar oracle of the pass and of
/// `occupied_world`.
fn occupied_oracle(grid: &OccupancyGrid, p: Vec3) -> bool {
    let (b, res) = (grid.bounds(), grid.res());
    let u = b.normalize(p);
    let cell = |u: f32| ((u.clamp(0.0, 1.0) * res as f32) as usize).min(res - 1);
    let i = cell(u.x) + res * (cell(u.y) + res * cell(u.z));
    b.contains(p) && grid.bits()[i / 8] & (1 << (i % 8)) != 0
}

/// What `pass` leaves in a buffer that held stale entries, against the
/// oracle at `ray.at(t)` for every `t` of `ts` — which `occupied_world`
/// must also give.
fn assert_per_point(
    grid: &OccupancyGrid,
    ray: &Ray,
    ts: &[f32],
    pass: impl FnOnce(&mut Vec<bool>),
) {
    let mut got = vec![true; 5];
    pass(&mut got);
    let want: Vec<bool> = ts.iter().map(|&t| occupied_oracle(grid, ray.at(t))).collect();
    let world: Vec<bool> = ts.iter().map(|&t| grid.occupied_world(ray.at(t))).collect();
    assert_eq!(world, want, "occupied_world: ray {ray:?} over {:?}, ts {ts:?}", grid.bounds());
    assert_eq!(got, want, "ray {ray:?} over {:?}, ts {ts:?}", grid.bounds());
}

/// The pass through `grid` as the product dispatches it and on every
/// instantiation the host offers.
fn assert_grid_per_point(grid: &OccupancyGrid, ray: &Ray, ts: &[f32]) {
    assert_per_point(grid, ray, ts, |out| grid.occupied_along(ray, ts.iter().copied(), out));
    for &kernel in kernels_under_test() {
        assert_per_point(grid, ray, ts, |out| {
            grid.occupied_along_on(kernel, ray, ts.iter().copied(), out)
        });
    }
}

/// The pass through `model`'s trait method, against `grid`, its own.
fn assert_model_per_point(model: &impl RadianceModel, grid: &OccupancyGrid, ray: &Ray, ts: &[f32]) {
    assert_per_point(grid, ray, ts, |out| model.occupied_along(ray, ts.iter().copied(), out));
}

/// The pass through each odd grid itself and through the `NgpModel` around
/// it, and through the TensoRF and DVGO fits: `rays` makes the rays and
/// samples for a grid.
fn assert_every_pass_per_point(rays: impl Fn(&OccupancyGrid) -> Vec<(Ray, Vec<f32>)>) {
    for (grid, ngp) in odd_grids() {
        for (ray, ts) in rays(grid) {
            assert_grid_per_point(grid, &ray, &ts);
            assert_model_per_point(ngp, grid, &ray, &ts);
        }
    }
    for (ray, ts) in rays(wide_grid()) {
        assert_grid_per_point(wide_grid(), &ray, &ts);
    }
    let (tensorf, dvgo) = fitted_grid_models();
    for (ray, ts) in rays(tensorf.occupancy()) {
        assert_model_per_point(tensorf, tensorf.occupancy(), &ray, &ts);
    }
    for (ray, ts) in rays(dvgo.occupancy()) {
        assert_model_per_point(dvgo, dvgo.occupancy(), &ray, &ts);
    }
}

/// Rays along each axis, both ways, whose samples land exactly on the faces
/// and cell planes of `grid` and one ulp to either side of them, from
/// origins whose other coordinates are on faces, on a cell plane, inside
/// the box, just or well outside it, or `-0.0` with a `-0.0` direction
/// component.
fn boundary_rays(grid: &OccupancyGrid) -> Vec<(Ray, Vec<f32>)> {
    let (b, res) = (grid.bounds(), grid.res());
    let planes = |axis: usize| -> Vec<f32> {
        let on: Vec<f32> = (0..=res)
            .map(|k| b.min[axis] + b.extent()[axis] * (k as f32 / res as f32))
            .chain([b.min[axis], b.max[axis]])
            .collect();
        let beside = on.iter().flat_map(|c| [c.next_up(), c.next_down()]);
        on.iter().copied().chain(beside).collect()
    };
    let across = |a: usize| {
        let below_min = b.min[a].next_down();
        vec![
            b.min[a],
            planes(a)[res / 2],
            b.max[a],
            below_min,
            b.center()[a],
            b.max[a] + 0.25,
            -0.0,
        ]
    };
    let mut rays = Vec::new();
    for axis in 0..3 {
        let (u, v) = ((axis + 1) % 3, (axis + 2) % 3);
        for sign in [1.0f32, -1.0] {
            // on the axis `0 + sign·t` is exact, so `t = sign·plane` lands on it
            let ts: Vec<f32> = planes(axis).iter().map(|&c| sign * c).collect();
            for &ou in &across(u) {
                for &ov in &across(v) {
                    let (mut origin, mut dir) = ([0.0f32; 3], [0.0f32; 3]);
                    (origin[u], origin[v], dir[axis]) = (ou, ov, sign);
                    // a -0.0 coordinate stays -0.0 along a -0.0 component
                    dir[u] = 0.0f32.copysign(ou);
                    dir[v] = 0.0f32.copysign(ov);
                    let ray = Ray { origin: Vec3::from(origin), dir: Vec3::from(dir) };
                    rays.push((ray, ts.clone()));
                }
            }
        }
    }
    rays
}

#[test]
fn the_occupancy_pass_is_the_per_point_test_on_faces_cell_planes_and_signed_zeros() {
    assert_every_pass_per_point(boundary_rays);
}

/// Rays with a NaN in the origin, the direction or a sample, and rays whose
/// points have `±0.0` coordinates (on the faces of the odd box whose
/// minimum is the origin, and just inside it), with ordinary samples between:
/// a NaN point is unoccupied and its cell is cell 0, read all the same.
fn nan_and_signed_zero_rays(grid: &OccupancyGrid) -> Vec<(Ray, Vec<f32>)> {
    let (b, nan) = (grid.bounds(), f32::NAN);
    let c = b.center();
    let ts: Vec<f32> = [0.0, -0.0, nan, 0.25, 0.5, nan, 1.0, 2.0, -0.5].repeat(3);
    let mut rays = Vec::new();
    for (origin, dir) in [
        (Vec3::new(nan, c.y, c.z), Vec3::X),
        (Vec3::new(c.x, nan, c.z), Vec3::new(0.3, 0.4, -0.2)),
        (c, Vec3::new(0.0, nan, 1.0)),
        (c, Vec3::new(nan, nan, nan)),
        (Vec3::ZERO, Vec3::X),
        (Vec3::new(-0.0, -0.0, -0.0), Vec3::new(-0.0, 1.0, -0.0)),
        (Vec3::new(-0.0, c.y, 0.0), Vec3::new(0.0, -0.0, 1.0)),
        (Vec3::new(0.0, -0.0, c.z), Vec3::new(1.0, -0.0, 0.0)),
        (b.min, Vec3::new(0.5, 0.25, 0.125)),
        (b.max, Vec3::new(-0.5, -0.25, -0.125)),
    ] {
        rays.push((Ray { origin, dir }, ts.clone()));
    }
    rays
}

#[test]
fn the_occupancy_pass_is_the_per_point_test_on_nan_and_signed_zero_points() {
    assert_every_pass_per_point(nan_and_signed_zero_rays);
}
