//! Dense multilayer perceptrons with FLOP accounting, in `f32` and at the
//! chip's precision.
//!
//! The MLPs are executed as matrix-vector products — the same arithmetic
//! the CIM crossbars of the architecture model perform — and report their
//! exact MAC counts so the FLOPs-breakdown experiment (Fig. 5) and the
//! roofline GPU models measure the real workload.
//!
//! A model is built, and calibrated, in `f32` ([`Dense`], [`Mlp`]); it runs
//! as the crossbars do, 8-bit inputs against 8-bit weights ([`IntDense`],
//! [`IntMlp`]). Every integer sum is exact, so each instantiation of the
//! integer body gives the same bits by construction (DESIGN.md §8). The `f32`
//! layers stay as the fit's builder, the calibration's forward pass and the
//! kept oracle.

use crate::kernel::{cast, dispatch, run_on, Kernel};
use std::fmt;

/// Activation applied after a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// `max(0, x)`.
    Relu,
}

/// One dense layer `y = act(W x + b)` in `f32`.
///
/// Weights are stored input-major, `[in][out]`, so [`Self::forward`] drives
/// one input at a time while every output accumulates, as a crossbar does:
/// each output is `bias + w₀x₀ + w₁x₁ + …` summed left to right, the vector
/// lanes running across outputs, never across the sum.
#[derive(Clone, PartialEq)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    act: Activation,
}

impl fmt::Debug for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dense")
            .field("in_dim", &self.in_dim)
            .field("out_dim", &self.out_dim)
            .field("act", &self.act)
            .finish()
    }
}

impl Dense {
    /// Creates a zero-initialized layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(in_dim: usize, out_dim: usize, act: Activation) -> Self {
        assert!(in_dim > 0 && out_dim > 0);
        Dense {
            in_dim,
            out_dim,
            weights: vec![0.0; in_dim * out_dim],
            bias: vec![0.0; out_dim],
            act,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Activation function.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// The weight matrix in row-major `[out][in]` order — the checkpoint
    /// layout, independent of how the layer stores it.
    pub fn export_row_major(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.in_dim * self.out_dim);
        for row in 0..self.out_dim {
            out.extend(self.weights.iter().skip(row).step_by(self.out_dim));
        }
        out
    }

    /// Replaces the weight matrix from row-major `[out][in]` order.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != in_dim × out_dim`.
    pub fn import_row_major(&mut self, weights: &[f32]) {
        assert_eq!(weights.len(), self.in_dim * self.out_dim, "weight count mismatch");
        for (row, src) in weights.chunks_exact(self.in_dim).enumerate() {
            for (col, &v) in src.iter().enumerate() {
                self.weights[col * self.out_dim + row] = v;
            }
        }
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Sets weight `(row, col)`, i.e. from input `col` to output `row`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, v: f32) {
        assert!(row < self.out_dim && col < self.in_dim);
        self.weights[col * self.out_dim + row] = v;
    }

    /// Forward pass into `out`, which may ask for fewer outputs than the
    /// layer has: every output is `bias + w₀x₀ + w₁x₁ + …` summed in input
    /// order with separate multiplies and adds.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `in_dim` long or `out` is longer than `out_dim`.
    pub fn forward(&self, x: &[f32], out: &mut [f32]) {
        self.forward_on(Kernel::Avx2, x, out);
    }

    /// [`Self::forward`] on the instantiation named: for tests, never the
    /// product. The lanes never cross a sum and nothing fuses, so every
    /// instantiation gives the same bits — which the calibration, and so a
    /// checkpoint's bytes, rely on.
    #[doc(hidden)]
    pub fn forward_on(&self, kernel: Kernel, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim, "input length mismatch");
        assert!(out.len() <= self.out_dim, "more outputs asked for than the layer has");
        run_on(
            kernel,
            self,
            x,
            out,
            #[inline(always)]
            |layer, x, out| layer.accumulate(x, out),
        );
    }

    /// `out = act(bias + Σ w[i]·x[i])`, one input at a time across every output.
    #[inline(always)]
    fn accumulate(&self, x: &[f32], out: &mut [f32]) {
        out.copy_from_slice(&self.bias[..out.len()]);
        for (w_in, &v) in self.weights.chunks_exact(self.out_dim).zip(x) {
            for (y, &w) in out.iter_mut().zip(w_in) {
                *y += w * v;
            }
        }
        if self.act == Activation::Relu {
            out.iter_mut().for_each(|y| *y = y.max(0.0));
        }
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn macs(&self) -> u64 {
        (self.in_dim * self.out_dim) as u64
    }
}

/// A stack of dense layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    scratch_len: usize,
}

impl Mlp {
    /// Builds an MLP from layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive dimensions disagree.
    pub fn new(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_dim, pair[1].in_dim, "layer dimension mismatch");
        }
        let scratch_len = layers.iter().map(|l| l.out_dim.max(l.in_dim)).max().unwrap();
        Mlp { layers, scratch_len }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim
    }

    /// The layers.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layers.
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Allocates a scratch buffer sized for [`Self::forward_scratch`].
    pub fn make_scratch(&self) -> Vec<f32> {
        vec![0.0; self.scratch_len * 2]
    }

    /// Forward pass using caller-provided scratch (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x`, `out` or `scratch` have wrong lengths.
    pub fn forward_scratch(&self, x: &[f32], out: &mut [f32], scratch: &mut [f32]) {
        assert_eq!(out.len(), self.out_dim(), "output length mismatch");
        assert!(scratch.len() >= self.scratch_len * 2, "scratch too small");
        let (last, hidden) = self.layers.split_last().expect("an MLP has at least one layer");
        // activations ping-pong between the two halves of the scratch
        let (mut src, mut dst) = scratch.split_at_mut(self.scratch_len);
        src[..x.len()].copy_from_slice(x);
        for layer in hidden {
            layer.forward(&src[..layer.in_dim], &mut dst[..layer.out_dim]);
            std::mem::swap(&mut src, &mut dst);
        }
        last.forward(&src[..last.in_dim], out);
    }

    /// Forward pass with internal allocation (convenience).
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.out_dim()];
        let mut scratch = self.make_scratch();
        self.forward_scratch(x, &mut out, &mut scratch);
        out
    }

    /// Total multiply-accumulates of one forward pass.
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(Dense::macs).sum()
    }

    /// Total FLOPs of one forward pass (2 per MAC).
    pub fn flops(&self) -> u64 {
        self.macs() * 2
    }

    /// Total parameter count (weights + biases).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| (l.in_dim + 1) * l.out_dim).sum()
    }
}

/// Inputs of a group: four bytes, one `vpdpbusd` operand per output.
const GROUP: usize = 4;

/// Outputs of a line: their `i32` sums, or one group of their weights, fill
/// 64 bytes. An [`IntMlp`]'s last layer is one line, and writes all of it.
pub const LINE: usize = 16;

/// Lines of an integer layer: 64 outputs — the hidden width of both MLPs,
/// in one pass. A narrower layer keeps all four, its outputs past `out_dim`
/// against zero weights.
const LINES: usize = 4;

/// The groups a hidden layer's 64 output bytes make as the next layer's input.
const HIDDEN_GROUPS: usize = LINES * LINE / GROUP;

/// The most outputs an integer layer may have: four lines of 16, one pass.
pub const MAX_INT_OUTPUTS: usize = LINES * LINE;

/// The byte of a zero input to a layer with signed inputs: a signed step `q`
/// in `−127..=127` travels as the byte `q + 128`.
const SIGNED_ZERO: u8 = 128;

/// The most inputs an integer layer may have. Every sum then stays below 2²⁴
/// in magnitude (256 · 255 · 128), exact in an `i32` and again as an `f32`.
pub const MAX_INT_INPUTS: usize = 256;

/// A value on a 64-byte boundary: a line of weights or sums never straddles
/// two cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
struct Aligned<T>(T);

/// One line of one group: the weights of the group's four inputs into the
/// line's 16 outputs, output `o`'s at `4·o..4·o + 4` — one `vpdpbusd` operand.
type Row = Aligned<[i8; 64]>;

/// The `i32` sums of a pass, line by line.
type Sums = [[i32; LINE]; LINES];

/// `y` as a hidden activation: clamped into `0..=255` (the ReLU, and the top
/// of the calibrated range) and rounded to the nearest whole number, ties to
/// even.
#[inline(always)]
pub fn requantise(y: f32) -> u8 {
    // 2²³: adding it rounds a value in 0..=255 to a whole number, ties to
    // even, which the low mantissa bits then hold; `round_ties_even` is a
    // libm call on the baseline target
    const ROUND: f32 = 8_388_608.0;
    let y = if y > 0.0 { y } else { 0.0 };
    let y = if y < 255.0 { y } else { 255.0 };
    ((y + ROUND).to_bits() - ROUND.to_bits()) as u8
}

/// `x` in steps of `1 / inv` as the input bytes of a layer with signed
/// inputs: `round_ties_even(clamp(x·inv, −127, 127)) + 128` each.
///
/// # Panics
///
/// Panics if `out` is shorter than `x`.
#[inline]
pub fn quantize_signed(x: &[f32], inv: f32, out: &mut [u8]) {
    // 1.5·2²³: adding it rounds a value in ±127 to a whole number, ties to
    // even, in the binade whose unit in the last place is 1
    const ROUND: f32 = 12_582_912.0;
    for (b, &v) in out[..x.len()].iter_mut().zip(x) {
        let v = v * inv;
        let v = if v > -127.0 { v } else { -127.0 };
        let v = if v < 127.0 { v } else { 127.0 };
        *b = ((v + ROUND).to_bits().wrapping_sub(ROUND.to_bits()) as u8).wrapping_add(SIGNED_ZERO);
    }
}

/// One dense layer at the chip's precision: `u8` inputs against `i8`
/// weights, exact `i32` sums, and one `f32` step per output.
///
/// Inputs are bytes: `q + 128` for a signed step `q` in `−127..=127` when
/// the layer takes signed inputs, the step `0..=255` itself otherwise. The
/// weights are laid out `[in / 4][line][16][4]`, four lines of 16 outputs
/// a group (64 bytes each, so a line of one group of inputs is one
/// `vpdpbusd` operand). A pass over the groups `a..b` starts each sum at
/// `−zero · Σ w` over those groups (`zero` the byte of a zero input), so
/// the sum is `Σ w·q` exactly however the groups are split, and the output
/// is `sum · mul + add`.
#[derive(Clone, PartialEq)]
pub struct IntDense {
    in_dim: usize,
    out_dim: usize,
    zero: u8,
    /// `[group][line]`: output `16·line + o`'s weights of the group's four
    /// inputs at `4·o..4·o + 4`.
    weights: Vec<[Row; LINES]>,
    /// `[group]`: `−zero · Σ w` over the groups before, by output; empty
    /// for unsigned inputs, whose every row would be zero.
    corr: Vec<Aligned<Sums>>,
    mul: Aligned<[[f32; LINE]; LINES]>,
    add: Aligned<[[f32; LINE]; LINES]>,
}

impl fmt::Debug for IntDense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntDense")
            .field("in_dim", &self.in_dim)
            .field("out_dim", &self.out_dim)
            .field("signed", &(self.zero == SIGNED_ZERO))
            .finish()
    }
}

/// What one pass of a layer reads for each of `N` inputs in flight: the
/// running sums `init` every input resumes (none: zero), and each input's
/// groups `x` from group `first` on, as many for every input.
#[derive(Clone, Copy)]
struct IntPass<'a, const N: usize> {
    init: Option<&'a [i32; MAX_INT_OUTPUTS]>,
    first: usize,
    x: [&'a [[u8; GROUP]]; N],
}

impl<'a, const N: usize> IntPass<'a, N> {
    /// A pass over the inputs `skip..skip + x.len()` of each `x` (all of
    /// one length) resumed from `init`, its bytes read where they lie. The
    /// caller has checked that `skip` and each length are whole groups.
    #[inline(always)]
    fn new(init: Option<&'a [i32]>, skip: usize, x: [&'a [u8]; N]) -> Self {
        let init = init.map(|i| i.try_into().expect("running-sum row length mismatch"));
        IntPass { init, first: skip / GROUP, x: x.map(|x| x.as_chunks().0) }
    }

    /// The groups the pass reads of each input.
    fn groups(&self) -> usize {
        self.x[0].len()
    }
}

impl IntDense {
    /// A layer from row-major `[out][in]` weights and each output's
    /// multiplier and addend; `signed` says how its input bytes read.
    ///
    /// # Panics
    ///
    /// Panics if `in_dim` is not in `1..=`[`MAX_INT_INPUTS`], `out_dim` not
    /// in `1..=`[`MAX_INT_OUTPUTS`], or a slice length disagrees with them.
    pub fn from_parts(
        in_dim: usize,
        out_dim: usize,
        signed: bool,
        weights: &[i8],
        mul: &[f32],
        add: &[f32],
    ) -> Self {
        assert!((1..=MAX_INT_INPUTS).contains(&in_dim), "inputs outside 1..={MAX_INT_INPUTS}");
        assert!((1..=MAX_INT_OUTPUTS).contains(&out_dim), "outputs outside 1..={MAX_INT_OUTPUTS}");
        assert_eq!(weights.len(), in_dim * out_dim, "weight count mismatch");
        assert!(
            mul.len() == out_dim && add.len() == out_dim,
            "one multiplier and addend an output"
        );
        let mut rows = vec![[Aligned([0i8; 64]); LINES]; in_dim.div_ceil(GROUP)];
        for (j, row) in weights.chunks_exact(in_dim).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                rows[i / GROUP][j / LINE].0[j % LINE * GROUP + i % GROUP] = w;
            }
        }
        let zero = if signed { SIGNED_ZERO } else { 0 };
        // unsigned inputs (`zero` 0) would make every row zero: none is kept
        let mut corr = Vec::with_capacity(if signed { rows.len() + 1 } else { 0 });
        if signed {
            corr.push(Aligned([[0i32; LINE]; LINES]));
            for group in &rows {
                let before = corr.last().expect("the first row is zero").0;
                corr.push(Aligned(std::array::from_fn(|l| {
                    std::array::from_fn(|o| {
                        let w = &group[l].0[o * GROUP..][..GROUP];
                        before[l][o]
                            - i32::from(zero) * w.iter().map(|&w| i32::from(w)).sum::<i32>()
                    })
                })));
            }
        }
        let padded = |v: &[f32]| {
            let mut lines = Aligned([[0.0; LINE]; LINES]);
            lines.0.as_flattened_mut()[..out_dim].copy_from_slice(v);
            lines
        };
        IntDense { in_dim, out_dim, zero, weights: rows, corr, mul: padded(mul), add: padded(add) }
    }

    /// `dense` at 8 bits. `steps[i]` is the value of one step of input `i`
    /// (signed inputs with `signed`, else `0..=255`); it is folded into the
    /// weight column, and each output row of weights is then quantised to
    /// ±127 steps of the row's largest magnitude. With `out_step` the layer
    /// is a hidden one (its activation must be ReLU) whose outputs are
    /// requantised to steps of `out_step`; without, it is the last layer
    /// (no activation) and writes `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is not `in_dim` long or the activation does not
    /// match `out_step`.
    pub fn quantize(dense: &Dense, steps: &[f32], signed: bool, out_step: Option<f32>) -> Self {
        let (in_dim, out_dim) = (dense.in_dim, dense.out_dim);
        assert_eq!(steps.len(), in_dim, "one step an input");
        let want = if out_step.is_some() { Activation::Relu } else { Activation::None };
        assert_eq!(dense.act, want, "hidden layers end in ReLU, the last in none");
        let mut weights = vec![0i8; in_dim * out_dim];
        let (mut mul, mut add) = (vec![0.0; out_dim], dense.bias.clone());
        for ((row, dst), (m, a)) in dense
            .export_row_major()
            .chunks_exact(in_dim)
            .zip(weights.chunks_exact_mut(in_dim))
            .zip(mul.iter_mut().zip(&mut add))
        {
            let folded: Vec<f32> = row.iter().zip(steps).map(|(w, s)| w * s).collect();
            let absmax = folded.iter().fold(0.0f32, |m, w| m.max(w.abs()));
            let step = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
            for (q, w) in dst.iter_mut().zip(&folded) {
                *q = (w / step).round_ties_even().clamp(-127.0, 127.0) as i8;
            }
            *m = step;
            if let Some(s) = out_step {
                (*m, *a) = (step / s, *a / s);
            }
        }
        IntDense::from_parts(in_dim, out_dim, signed, &weights, &mul, &add)
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Length of a running-sum row ([`Self::prefix`] writes one,
    /// [`IntMlp::forward_from`] resumes from one): every line's 16 outputs,
    /// [`MAX_INT_OUTPUTS`] whatever the layer's width.
    pub fn sums_len(&self) -> usize {
        MAX_INT_OUTPUTS
    }

    /// The running sums after the first `head.len()` inputs, whole groups
    /// of four: what [`IntMlp::forward_from`] resumes from when the head of
    /// the input repeats. A head may run on to the end of the last group:
    /// those bytes meet zero weights.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a whole number of groups within the input
    /// rounded up to whole groups, or `sums` is not [`Self::sums_len`] long.
    pub fn prefix(&self, head: &[u8], sums: &mut [i32]) {
        self.prefix_on(Kernel::Avx512Vnni, head, sums);
    }

    /// [`Self::prefix`] on the instantiation named: for tests and benches, never the product.
    #[doc(hidden)]
    pub fn prefix_on(&self, kernel: Kernel, head: &[u8], sums: &mut [i32]) {
        let len = head.len();
        assert!(len.is_multiple_of(GROUP) && len <= self.end(), "head is not whole groups");
        let sums: &mut [i32; MAX_INT_OUTPUTS] =
            sums.try_into().expect("running-sum row length mismatch");
        #[cfg(target_arch = "x86_64")]
        let (avx2, vnni) = (prefix_avx2, prefix_vnni);
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, vnni) = (prefix_portable, prefix_portable);
        let pass = IntPass::new(None, 0, [head]);
        dispatch(kernel, self, pass, sums, prefix_portable, avx2, vnni);
    }

    /// The end of the input's last group of four, where a forward pass's
    /// bytes end.
    fn end(&self) -> usize {
        self.in_dim.next_multiple_of(GROUP)
    }

    /// The sums each input of a pass starts from: the resumed row (or
    /// zero), plus `−zero · Σ w` over the pass's groups.
    #[inline(always)]
    fn start<const N: usize>(&self, pass: IntPass<'_, N>) -> Sums {
        let mut sums = [[0; LINE]; LINES];
        if let Some(init) = pass.init {
            sums.as_flattened_mut().copy_from_slice(init);
        }
        let span = (self.corr.get(pass.first), self.corr.get(pass.first + pass.groups()));
        if let (Some(lo), Some(hi)) = span {
            let span = hi.0.as_flattened().iter().zip(lo.0.as_flattened());
            for (s, (hi, lo)) in sums.as_flattened_mut().iter_mut().zip(span) {
                *s += hi - lo;
            }
        }
        sums
    }

    /// The weights of the pass's groups.
    #[inline(always)]
    fn rows<const N: usize>(&self, pass: IntPass<'_, N>) -> &[[Row; LINES]] {
        &self.weights[pass.first..][..pass.groups()]
    }

    /// The weights of a layer after a hidden one: its 16 groups, checked
    /// once ([`IntMlp::new`] admits no other width).
    #[inline(always)]
    fn hidden_rows(&self) -> &[[Row; LINES]; HIDDEN_GROUPS] {
        self.weights.first_chunk().expect("a layer after a hidden one has 64 inputs")
    }

    /// The `f32` step of a hidden layer: each of its 64 sums `s` as
    /// `s·mul + add` requantised, the 16 groups of the next layer's input.
    #[inline(always)]
    fn requantised(&self, sums: &Sums) -> [[u8; GROUP]; HIDDEN_GROUPS] {
        let mut x = [[0; GROUP]; HIDDEN_GROUPS];
        let (mul, add) = (self.mul.0.as_flattened(), self.add.0.as_flattened());
        let steps = sums.as_flattened().iter().zip(mul).zip(add);
        for (y, ((&s, &m), &a)) in x.as_flattened_mut().iter_mut().zip(steps) {
            *y = requantise(s as f32 * m + a);
        }
        x
    }

    /// The `f32` step of the last layer: each of line 0's 16 sums `s` as
    /// `s·mul + add` (|s| < 2²⁴: the conversion is exact, one rounding each
    /// after), zero past `out_dim`. A whole line, so the step runs in vector
    /// lanes and is stored whole whatever the layer's width.
    #[inline(always)]
    fn finish(&self, sums: &[i32; LINE]) -> [f32; LINE] {
        let mut y = [0.0; LINE];
        let steps = sums.iter().zip(&self.mul.0[0]).zip(&self.add.0[0]);
        for (y, ((&s, &m), &a)) in y.iter_mut().zip(steps) {
            *y = s as f32 * m + a;
        }
        y
    }
}

/// The sums of a pass's four lines for each of `N` inputs, from their start
/// sums `Sums`, over each input's groups against the groups' rows.
trait Four<const N: usize>: Fn([Sums; N], [&[[u8; GROUP]]; N], &[[Row; LINES]]) -> [Sums; N] {}
impl<const N: usize, F> Four<N> for F where
    F: Fn([Sums; N], [&[[u8; GROUP]]; N], &[[Row; LINES]]) -> [Sums; N]
{
}

/// The sums of a pass's line 0 alone, as [`Four`] for one line.
trait One<const N: usize>:
    Fn([[i32; LINE]; N], [&[[u8; GROUP]]; N], &[[Row; LINES]]) -> [[i32; LINE]; N]
{
}
impl<const N: usize, F> One<N> for F where
    F: Fn([[i32; LINE]; N], [&[[u8; GROUP]]; N], &[[Row; LINES]]) -> [[i32; LINE]; N]
{
}

/// A layer's prefix on one instantiation's line kernels: the sums of all
/// four lines.
#[inline(always)]
fn prefix_body(
    layer: &IntDense,
    pass: IntPass<'_, 1>,
    sums: &mut [i32; MAX_INT_OUTPUTS],
    (four, _): (impl Four<1>, impl One<1>),
) {
    let [s] = four([layer.start(pass)], pass.x, layer.rows(pass));
    sums.copy_from_slice(s.as_flattened());
}

/// A whole MLP on one instantiation's line kernels, one straight-line body
/// for `N` inputs in flight: the first layer over the pass's groups (a
/// runtime count), each hidden layer after it over the 16 groups of the
/// bytes before, and the last layer's one line, every sum a local. The
/// inputs' chains interleave layer by layer: each row of weights is loaded
/// once for all of them, and while one input's sums wait on a multiply-add
/// the others' run. [`IntMlp::new`] fixed the shapes this reads: nothing
/// here divides or calls a function.
///
/// A hidden layer's requantised bytes go through memory to the next layer:
/// a group's four bytes broadcast from a load take no shuffle port, which
/// the multiply-adds share. Kept in registers, the compiler broadcast them
/// with a shuffle (`vpextrd` into a general register and back, at two
/// inputs) and a pair of colour calls cost 2.0× one call, where through
/// memory it costs 1.4×.
#[inline(always)]
fn mlp_body<const N: usize>(
    mlp: &IntMlp,
    pass: IntPass<'_, N>,
    out: &mut [&mut [f32; LINE]; N],
    (four, one): (impl Four<N>, impl One<N>),
) {
    let (first, rest) = mlp.layers.split_first().expect("an MLP has at least two layers");
    let (last, middle) = rest.split_last().expect("an MLP has at least two layers");
    let (start, rows) = (first.start(pass), first.rows(pass));
    // a layer after the first takes unsigned bytes: its sums start at zero
    let bytes = [[0; GROUP]; HIDDEN_GROUPS];
    let mut x: [_; N] = each(four([start; N], pass.x, rows), bytes, |s| first.requantised(&s));
    for layer in middle {
        let sums = four([[[0; LINE]; LINES]; N], in_memory(&x), layer.hidden_rows());
        x = each(sums, bytes, |s| layer.requantised(&s));
    }
    let sums = one([[0; LINE]; N], in_memory(&x), last.hidden_rows());
    for (out, s) in out.iter_mut().zip(&sums) {
        **out = last.finish(s);
    }
}

/// Each input's hidden bytes as groups the kernels read from memory:
/// `black_box` keeps the compiler from carrying them in registers.
#[inline(always)]
fn in_memory<const N: usize>(x: &[[[u8; GROUP]; HIDDEN_GROUPS]; N]) -> [&[[u8; GROUP]]; N] {
    each(std::hint::black_box(x), &[][..], |x| &x[..])
}

/// `f` of each item of `items` (`N` of them), `init` where there are fewer:
/// a loop the kernel bodies inline. (`array::map` is a call the compiler may
/// leave out of line, and what it maps then runs compiled for the baseline
/// target: the `f32` step between layers read 1.5–2× slower.)
#[inline(always)]
fn each<T, U: Copy, const N: usize>(
    items: impl IntoIterator<Item = T>,
    init: U,
    f: impl Fn(T) -> U,
) -> [U; N] {
    let mut out = [init; N];
    for (o, item) in out.iter_mut().zip(items) {
        *o = f(item);
    }
    out
}

/// [`Four`] and [`One`] from a kernel of one line `l` at a time.
#[inline(always)]
fn by_line<const N: usize>(
    line: impl Fn([[i32; LINE]; N], [&[[u8; GROUP]]; N], &[[Row; LINES]], usize) -> [[i32; LINE]; N]
        + Copy,
) -> (impl Four<N>, impl One<N>) {
    (
        #[inline(always)]
        move |mut sums: [Sums; N], x: [&[[u8; GROUP]]; N], rows: &[[Row; LINES]]| {
            for l in 0..LINES {
                let line_sums = line(each(&sums, [0; LINE], |s| s[l]), x, rows, l);
                for (s, line_sums) in sums.iter_mut().zip(line_sums) {
                    s[l] = line_sums;
                }
            }
            sums
        },
        #[inline(always)]
        move |start, x: [&[[u8; GROUP]]; N], rows: &[[Row; LINES]]| line(start, x, rows, 0),
    )
}

/// The portable line kernels: plain integer loops, one line and one input
/// at a time (without wide registers, running the inputs side by side only
/// spills). Each line keeps a sum per pair of weights — `i16` products added
/// in pairs, the shape of SSE2's `pmaddwd` — over the groups, and an
/// output's two pairs are added at the end.
#[inline(always)]
fn portable<const N: usize>() -> (impl Four<N>, impl One<N>) {
    by_line(
        #[inline(always)]
        |start: [[i32; LINE]; N], x: [&[[u8; GROUP]]; N], rows: &[[Row; LINES]], l: usize| {
            let mut sums = start;
            for (sums, x) in sums.iter_mut().zip(x) {
                let mut pairs = [0i32; LINE * GROUP / 2];
                for (x, row) in x.iter().zip(rows) {
                    let x = [x.map(i16::from); LINE];
                    let w: [i16; LINE * GROUP] = row[l].0.map(i16::from);
                    for ((p, w), x) in pairs
                        .iter_mut()
                        .zip(w.as_chunks::<2>().0)
                        .zip(x.as_flattened().as_chunks::<2>().0)
                    {
                        *p += i32::from(w[0]) * i32::from(x[0]) + i32::from(w[1]) * i32::from(x[1]);
                    }
                }
                for (s, p) in sums.iter_mut().zip(pairs.as_chunks::<2>().0) {
                    *s += p[0] + p[1];
                }
            }
            sums
        },
    )
}

/// The AVX2 line kernels, one line at a time: the weights of four outputs
/// widened to `i16` (`vpmovsxbw`) once a group for every input, multiplied
/// by the input's four bytes widened to `i16` and summed in pairs
/// (`vpmaddwd`, no saturation: 255 · 128 · 2 < 2³¹); each output's two pair
/// sums are added at the end of the line. Four lines at once would want 16
/// accumulators an input, every register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn avx2<const N: usize>() -> (impl Four<N>, impl One<N>) {
    use std::arch::x86_64::*;
    by_line(
        #[inline(always)]
        |start: [[i32; LINE]; N], x: [&[[u8; GROUP]]; N], rows: &[[Row; LINES]], l: usize| {
            let x: [_; N] = each(x, &[][..], |x| &x[..rows.len()]);
            let mut acc = [[_mm256_setzero_si256(); 4]; N];
            for (g, row) in rows.iter().enumerate() {
                let w: [__m128i; 4] = cast(&row[l].0);
                let mut wide = [_mm256_setzero_si256(); 4];
                for (wide, w) in wide.iter_mut().zip(w) {
                    *wide = _mm256_cvtepi8_epi16(w);
                }
                for (acc, x) in acc.iter_mut().zip(x) {
                    let x = _mm256_set1_epi64x(
                        x[g].iter().rev().fold(0i64, |v, &b| v << 16 | i64::from(b)),
                    );
                    for (a, &w) in acc.iter_mut().zip(&wide) {
                        *a = _mm256_add_epi32(*a, _mm256_madd_epi16(w, x));
                    }
                }
            }
            let mut sums = start;
            for (sums, acc) in sums.iter_mut().zip(acc) {
                // [o0 o0 o1 o1 o2 o2 o3 o3] and the next four: added in
                // pairs, then the 64-bit lanes put back in output order
                let lo = _mm256_permute4x64_epi64::<0xD8>(_mm256_hadd_epi32(acc[0], acc[1]));
                let hi = _mm256_permute4x64_epi64::<0xD8>(_mm256_hadd_epi32(acc[2], acc[3]));
                let base: [__m256i; 2] = cast(&*sums);
                *sums = cast(&[_mm256_add_epi32(base[0], lo), _mm256_add_epi32(base[1], hi)]);
            }
            sums
        },
    )
}

/// The AVX-512 VNNI line kernels: one `vpdpbusd` per group, line and input,
/// the input's four bytes against each output's four weights, each row of
/// weights loaded once for every input. Four lines run as eight chains an
/// input, even and odd groups apart; one line alone (the 64→16 and 64→3
/// tails) splits its groups over four chains an input. Integer addition
/// allows either: the chains are added at the end.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vnni")]
#[inline]
fn vnni<const N: usize>() -> (impl Four<N>, impl One<N>) {
    use std::arch::x86_64::*;
    let bytes = {
        #[inline(always)]
        |x: &[u8; GROUP]| _mm512_set1_epi32(i32::from_le_bytes(*x))
    };
    (
        #[inline(always)]
        move |start: [Sums; N], x: [&[[u8; GROUP]]; N], rows: &[[Row; LINES]]| {
            let zero = _mm512_setzero_si512();
            // [even or odd groups][line][input]
            let mut acc = [[[zero; N]; LINES]; 2];
            for (l, acc) in acc[0].iter_mut().enumerate() {
                for (a, start) in acc.iter_mut().zip(&start) {
                    *a = cast(&start[l]);
                }
            }
            let step = {
                #[inline(always)]
                |acc: &mut [[__m512i; N]; LINES], x: [&[u8; GROUP]; N], row: &[Row; LINES]| {
                    let mut xs = [zero; N];
                    for (b, x) in xs.iter_mut().zip(x) {
                        *b = bytes(x);
                    }
                    for (acc, w) in acc.iter_mut().zip(row) {
                        let w = cast(&w.0);
                        for (a, &b) in acc.iter_mut().zip(&xs) {
                            *a = _mm512_dpbusd_epi32(*a, b, w);
                        }
                    }
                }
            };
            let (pairs, rest) = rows.as_chunks::<2>();
            let x: [_; N] = each(x, (&[][..], &[][..]), |x| x[..rows.len()].as_chunks::<2>());
            for (k, ws) in pairs.iter().enumerate() {
                for (h, (acc, row)) in acc.iter_mut().zip(ws).enumerate() {
                    step(acc, each(x, &[0; GROUP], |x| &x.0[k][h]), row);
                }
            }
            if let Some(row) = rest.first() {
                step(&mut acc[0], each(x, &[0; GROUP], |x| &x.1[0]), row);
            }
            let [even, odd] = acc;
            let mut sums = [[[0; LINE]; LINES]; N];
            for (l, (even, odd)) in even.iter().zip(&odd).enumerate() {
                for ((s, &a), &b) in sums.iter_mut().zip(even).zip(odd) {
                    s[l] = cast(&_mm512_add_epi32(a, b));
                }
            }
            sums
        },
        #[inline(always)]
        move |start: [[i32; LINE]; N], x: [&[[u8; GROUP]]; N], rows: &[[Row; LINES]]| {
            let zero = _mm512_setzero_si512();
            // [chain][input]
            let mut acc = [[zero; N]; 4];
            for (a, start) in acc[0].iter_mut().zip(&start) {
                *a = cast(start);
            }
            let step = {
                #[inline(always)]
                |acc: &mut [__m512i; N], x: [&[u8; GROUP]; N], row: &[Row; LINES]| {
                    let w = cast(&row[0].0);
                    for (a, x) in acc.iter_mut().zip(x) {
                        *a = _mm512_dpbusd_epi32(*a, bytes(x), w);
                    }
                }
            };
            let (quads, rest) = rows.as_chunks::<4>();
            let x: [_; N] = each(x, (&[][..], &[][..]), |x| x[..rows.len()].as_chunks::<4>());
            for (k, ws) in quads.iter().enumerate() {
                for (c, (acc, row)) in acc.iter_mut().zip(ws).enumerate() {
                    step(acc, each(x, &[0; GROUP], |x| &x.0[k][c]), row);
                }
            }
            for (c, (acc, row)) in acc.iter_mut().zip(rest).enumerate() {
                step(acc, each(x, &[0; GROUP], |x| &x.1[c]), row);
            }
            let [a, b, c, d] = acc;
            let mut sums = [[0; LINE]; N];
            for (s, (((&a, &b), &c), &d)) in sums.iter_mut().zip(a.iter().zip(&b).zip(&c).zip(&d)) {
                *s = cast(&_mm512_add_epi32(_mm512_add_epi32(a, b), _mm512_add_epi32(c, d)));
            }
            sums
        },
    )
}

#[inline]
fn prefix_portable(layer: &IntDense, pass: IntPass<'_, 1>, sums: &mut [i32; MAX_INT_OUTPUTS]) {
    prefix_body(layer, pass, sums, portable());
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn prefix_avx2(layer: &IntDense, pass: IntPass<'_, 1>, sums: &mut [i32; MAX_INT_OUTPUTS]) {
    prefix_body(layer, pass, sums, avx2());
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vnni")]
fn prefix_vnni(layer: &IntDense, pass: IntPass<'_, 1>, sums: &mut [i32; MAX_INT_OUTPUTS]) {
    prefix_body(layer, pass, sums, vnni());
}

fn mlp_portable<const N: usize>(
    mlp: &IntMlp,
    pass: IntPass<'_, N>,
    out: &mut [&mut [f32; LINE]; N],
) {
    mlp_body(mlp, pass, out, portable());
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mlp_avx2<const N: usize>(mlp: &IntMlp, pass: IntPass<'_, N>, out: &mut [&mut [f32; LINE]; N]) {
    mlp_body(mlp, pass, out, avx2());
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vnni")]
fn mlp_vnni<const N: usize>(mlp: &IntMlp, pass: IntPass<'_, N>, out: &mut [&mut [f32; LINE]; N]) {
    mlp_body(mlp, pass, out, vnni());
}

/// A stack of [`IntDense`] layers: the first takes the model's quantised
/// inputs, each hidden layer's requantised bytes feed the next, and the last
/// writes `f32`. The shapes are the models' own: every hidden layer has 64
/// outputs and the last at most 16, so a whole MLP runs as one body whose
/// only runtime trip count is the first layer's groups.
#[derive(Debug, Clone, PartialEq)]
pub struct IntMlp {
    layers: Vec<IntDense>,
}

impl IntMlp {
    /// An MLP of `layers`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `layers` has fewer than two layers, a hidden layer does not
    /// have [`MAX_INT_OUTPUTS`] outputs, the last has more than 16, or a
    /// layer after the first does not take its 64 inputs unsigned.
    pub fn new(layers: Vec<IntDense>) -> Self {
        assert!(layers.len() >= 2, "an MLP has at least two layers");
        let (last, hidden) = layers.split_last().expect("an MLP has at least two layers");
        assert!(last.out_dim <= LINE, "the last layer has at most {LINE} outputs");
        for layer in hidden {
            assert_eq!(layer.out_dim, MAX_INT_OUTPUTS, "a hidden layer's width");
        }
        for layer in &layers[1..] {
            assert!(
                layer.in_dim == MAX_INT_OUTPUTS && layer.zero == 0,
                "a layer after a hidden one takes its bytes unsigned"
            );
        }
        IntMlp { layers }
    }

    /// `mlp` at 8 bits: `inputs[i]` is the step of input `i` (signed), and
    /// `hidden[k]` the step of hidden layer `k`'s outputs (`0..=255`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `mlp.in_dim()` long, `hidden` does not have
    /// one step per hidden layer, an activation is not ReLU on a hidden
    /// layer and none on the last, or a shape is one [`Self::new`] refuses.
    pub fn quantize(mlp: &Mlp, inputs: &[f32], hidden: &[f32]) -> Self {
        let layers = mlp.layers();
        assert_eq!(hidden.len() + 1, layers.len(), "one step a hidden layer");
        let mut steps = inputs.to_vec();
        let mut out = Vec::with_capacity(layers.len());
        for (k, layer) in layers.iter().enumerate() {
            let next = hidden.get(k).copied();
            out.push(IntDense::quantize(layer, &steps, k == 0, next));
            steps = vec![next.unwrap_or(1.0); layer.out_dim];
        }
        IntMlp::new(out)
    }

    /// The layers.
    pub fn layers(&self) -> &[IntDense] {
        &self.layers
    }

    /// Forward pass of each of the `N` inputs `x_rests` into its line of
    /// `outs` (the last layer's outputs, zero past them), the first layer
    /// resumed after `skip` inputs from the running sums `init` when given
    /// (an [`IntDense::prefix`] row), every input from the same `init`: the
    /// same sums, so the same outputs, as a pass over the whole input.
    /// `skip` is a whole number of groups of four, and each rest runs on to
    /// the end of the input's last group (those bytes meet zero weights).
    /// The queries ask for one input or two: at two, the inputs' chains
    /// interleave in one body, and `outs[i]` is bit for bit what a call
    /// with `x_rests[i]` alone writes.
    ///
    /// # Panics
    ///
    /// Panics if `skip` is not whole groups, a rest does not end at the end
    /// of the input's last group, or `init` is not [`MAX_INT_OUTPUTS`] long.
    pub fn forward_from<const N: usize>(
        &self,
        init: Option<&[i32]>,
        skip: usize,
        x_rests: [&[u8]; N],
        outs: [&mut [f32; LINE]; N],
    ) {
        self.forward_on(Kernel::Avx512Vnni, init, skip, x_rests, outs);
    }

    /// [`Self::forward_from`] on the instantiation named: for tests and
    /// benches, never the product.
    #[doc(hidden)]
    pub fn forward_on<const N: usize>(
        &self,
        kernel: Kernel,
        init: Option<&[i32]>,
        skip: usize,
        x_rests: [&[u8]; N],
        mut outs: [&mut [f32; LINE]; N],
    ) {
        let first = &self.layers[0];
        let whole = skip.is_multiple_of(GROUP);
        assert!(whole && x_rests.iter().all(|x| skip + x.len() == first.end()), "input mismatch");
        #[cfg(target_arch = "x86_64")]
        let (avx2, vnni) = (mlp_avx2::<N>, mlp_vnni::<N>);
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, vnni) = (mlp_portable::<N>, mlp_portable::<N>);
        let pass = IntPass::new(init, skip, x_rests);
        dispatch(kernel, self, pass, &mut outs, mlp_portable::<N>, avx2, vnni);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_layer(dim: usize) -> Dense {
        let mut l = Dense::zeros(dim, dim, Activation::None);
        for i in 0..dim {
            l.set(i, i, 1.0);
        }
        l
    }

    /// Whether every row of weights and sums starts on a 64-byte boundary.
    fn rows_aligned(l: &IntDense) -> bool {
        l.weights.as_flattened().iter().all(|r| (r as *const Row).addr().is_multiple_of(64))
            && l.corr.iter().all(|r| (r as *const Aligned<_>).addr().is_multiple_of(64))
    }

    #[test]
    fn integer_rows_start_on_a_64_byte_boundary() {
        for (in_dim, out_dim) in [(1, 1), (31, 64), (64, 16), (64, 3), (5, 33)] {
            let w = vec![1i8; in_dim * out_dim];
            let l = IntDense::from_parts(
                in_dim,
                out_dim,
                true,
                &w,
                &vec![1.0; out_dim],
                &vec![0.0; out_dim],
            );
            assert!(rows_aligned(&l) && rows_aligned(&l.clone()), "{in_dim}x{out_dim}");
        }
    }

    #[test]
    fn a_loaded_checkpoint_keeps_its_bytes_and_its_integer_layers() {
        use crate::fit::fit_ngp;
        use crate::grid::GridConfig;
        use crate::io::{load_model, save_model};
        let model =
            fit_ngp(asdr_scenes::registry::handle("Lego").build().as_ref(), &GridConfig::tiny());
        let mut bytes = Vec::new();
        save_model(&model, "Lego", &mut bytes).unwrap();
        // `nerf.ckpt_bytes`: the `f32` layers, then two length-prefixed rows
        // of steps, 2 and 4 (VERSION 3)
        assert_eq!(bytes.len(), 277_632);
        let loaded = load_model(&mut bytes.as_slice()).unwrap().model;
        assert_eq!(model.density_mlp(), loaded.density_mlp());
        assert_eq!(model.color_mlp(), loaded.color_mlp());
        assert_eq!(model.scales(), loaded.scales());
        assert_eq!(model.int_mlps(), loaded.int_mlps());
    }

    #[test]
    fn single_layer_linear_map() {
        let mut l = Dense::zeros(2, 2, Activation::None);
        l.set(0, 0, 2.0);
        l.set(0, 1, 1.0);
        l.set(1, 0, -1.0);
        l.bias_mut()[1] = 0.5;
        let mut out = [0.0; 2];
        l.forward(&[3.0, 4.0], &mut out);
        assert_eq!(out, [10.0, -2.5]);
    }

    #[test]
    fn relu_clamps_negative() {
        let mut l = Dense::zeros(1, 2, Activation::Relu);
        l.set(0, 0, 1.0);
        l.set(1, 0, -1.0);
        let mut out = [0.0; 2];
        l.forward(&[2.0], &mut out);
        assert_eq!(out, [2.0, 0.0]);
    }

    #[test]
    fn deep_identity_preserves_input() {
        let mlp = Mlp::new(vec![identity_layer(3), identity_layer(3), identity_layer(3)]);
        let y = mlp.forward(&[1.0, -2.0, 0.5]);
        assert_eq!(y, vec![1.0, -2.0, 0.5]);
    }

    #[test]
    fn forward_scratch_matches_forward() {
        // a 4 -> 5 -> 3 -> 2 network with pseudo-random weights
        let mut l1 = Dense::zeros(4, 5, Activation::Relu);
        let mut l2 = Dense::zeros(5, 3, Activation::Relu);
        let mut l3 = Dense::zeros(3, 2, Activation::None);
        let mut v = 0.1f32;
        for l in [&mut l1, &mut l2, &mut l3] {
            let w: Vec<f32> = (0..l.in_dim() * l.out_dim())
                .map(|_| {
                    v = (v * 1.7 + 0.13) % 1.0 - 0.5;
                    v
                })
                .collect();
            l.import_row_major(&w);
        }
        let mlp = Mlp::new(vec![l1, l2, l3]);
        let x = [0.3, -0.7, 1.2, 0.05];
        let y1 = mlp.forward(&x);
        let mut y2 = vec![0.0; 2];
        let mut scratch = mlp.make_scratch();
        mlp.forward_scratch(&x, &mut y2, &mut scratch);
        assert_eq!(y1, y2);
    }

    #[test]
    fn quantising_folds_the_input_steps_and_tracks_the_f32_layer() {
        // 31 -> 64 -> 3 with two input steps, as the colour MLP's head and tail
        let (mut l1, mut l2) =
            (Dense::zeros(31, 64, Activation::Relu), Dense::zeros(64, 3, Activation::None));
        let mut v = 0.3f32;
        let mut next = || {
            v = (v * 3.7 + 0.11) % 1.0;
            v - 0.5
        };
        for l in [&mut l1, &mut l2] {
            let w: Vec<f32> = (0..l.in_dim() * l.out_dim()).map(|_| next()).collect();
            l.import_row_major(&w);
            l.bias_mut().iter_mut().for_each(|b| *b = 0.1 * next());
        }
        let mlp = Mlp::new(vec![l1, l2]);
        let steps: Vec<f32> =
            (0..31).map(|i| if i < 16 { 0.8 / 127.0 } else { 0.5 / 127.0 }).collect();
        let q = IntMlp::quantize(&mlp, &steps, &[6.0 / 255.0]);
        let x: Vec<f32> = (0..31).map(|i| if i < 16 { 0.8 } else { 0.5 } * next()).collect();
        let mut bytes = vec![0u8; 32];
        for (i, (b, &v)) in bytes.iter_mut().zip(&x).enumerate() {
            quantize_signed(&[v], 1.0 / steps[i], std::slice::from_mut(b));
        }
        let mut got = [0.0f32; LINE];
        q.forward_from(None, 0, [&bytes], [&mut got]);
        let want = mlp.forward(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 0.05, "{got:?} vs {want:?}");
        }
        // the head's sums resumed give the same bits
        let mut sums = vec![0; q.layers()[0].sums_len()];
        q.layers()[0].prefix(&bytes[..16], &mut sums);
        let mut resumed = [0.0f32; LINE];
        q.forward_from(Some(&sums), 16, [&bytes[16..]], [&mut resumed]);
        assert_eq!(resumed.map(f32::to_bits), got.map(f32::to_bits));
    }

    #[test]
    fn quantize_signed_rounds_ties_to_even_and_saturates() {
        let mut out = [0u8; 8];
        quantize_signed(&[0.5, 1.5, -0.5, -2.5, 200.0, -200.0, 0.0, 126.5], 1.0, &mut out);
        assert_eq!(out, [128, 130, 128, 126, 255, 1, 128, 254]);
        assert_eq!(
            [0.5, 1.5, 2.5, 254.5, 255.5, -3.0, 300.0].map(requantise),
            [0, 2, 2, 254, 255, 0, 255]
        );
    }

    #[test]
    fn mac_and_param_counts() {
        let mlp = Mlp::new(vec![
            Dense::zeros(32, 64, Activation::Relu),
            Dense::zeros(64, 16, Activation::None),
        ]);
        assert_eq!(mlp.macs(), 32 * 64 + 64 * 16);
        assert_eq!(mlp.flops(), 2 * (32 * 64 + 64 * 16));
        assert_eq!(mlp.param_count(), 32 * 64 + 64 + 64 * 16 + 16);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let _ = Mlp::new(vec![
            Dense::zeros(4, 8, Activation::Relu),
            Dense::zeros(9, 2, Activation::None),
        ]);
    }

    #[test]
    fn color_vs_density_flops_ratio_matches_paper() {
        // §3 Challenge 2: density MLP ≈ 8%… color ≈ 92% of MLP FLOPs in
        // vanilla NeRF; for Instant-NGP's small MLPs (Fig. 5) the ratio is
        // roughly 2:1. Our shapes reproduce the Instant-NGP split.
        let density = Mlp::new(vec![
            Dense::zeros(32, 64, Activation::Relu),
            Dense::zeros(64, 16, Activation::None),
        ]);
        let color = Mlp::new(vec![
            Dense::zeros(32, 64, Activation::Relu),
            Dense::zeros(64, 64, Activation::Relu),
            Dense::zeros(64, 3, Activation::None),
        ]);
        let ratio = color.flops() as f64 / density.flops() as f64;
        assert!(ratio > 1.8 && ratio < 2.5, "color:density = {ratio}");
    }
}
