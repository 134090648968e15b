//! Dense multilayer perceptrons with FLOP accounting.
//!
//! The MLPs are executed as matrix-vector products — the same arithmetic
//! the CIM crossbars of the architecture model perform — and report their
//! exact MAC counts so the FLOPs-breakdown experiment (Fig. 5) and the
//! roofline GPU models measure the real workload.
//!
//! Like a crossbar, [`Dense::forward`] drives one input at a time while
//! every output accumulates in parallel: weights are stored input-major and
//! the vector lanes run across outputs, never across the reduction, so each
//! output is the same left-to-right sum a scalar row dot product gives
//! (DESIGN.md §8).

use crate::kernel::{run_on, Kernel};
use std::fmt;

/// Activation applied after a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// `max(0, x)`.
    Relu,
}

impl Activation {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
        }
    }
}

/// Blocks the kernel body advances over each pass of the inputs: four
/// independent add chains, each in one register.
const BLOCKS: usize = 4;

/// Outputs of one block of [`Dense::forward_from`] on the portable and AVX2
/// instantiations, and on every instantiation for at most `2 * LANES`
/// outputs (the 64→16 density tail, where two blocks cover the layer): one
/// 256-bit register under AVX2, so a pass covers 32 outputs.
const LANES: usize = 8;

/// Block width on the AVX-512 instantiation above `2 * LANES` outputs: one
/// 512-bit register, so a 64-output layer is one pass. Measured, not
/// guessed: 32-wide blocks there no longer stay in registers, and a
/// density plus a colour query ran over ten times slower (DESIGN.md §8).
const WIDE_LANES: usize = 16;

/// Block width when at most this many outputs are asked for (the 64→3 colour
/// tail): one register does the work. The other three blocks are all
/// padding, nothing writes them out, and the compiler drops their loops.
const NARROW_LANES: usize = 4;

/// Weights and bias rows start on a boundary of this many bytes, so a row is
/// never split across cache lines by where the allocator put it.
const ROW_ALIGN: usize = 64;

/// A zeroed `f32` buffer whose first element sits on a [`ROW_ALIGN`]-byte
/// boundary: a padded `Vec` and the offset of its first such boundary. A
/// clone re-aligns (the copy lives elsewhere); equality compares the
/// elements only.
struct AlignedRow {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl AlignedRow {
    fn zeros(len: usize) -> Self {
        let slack = ROW_ALIGN / size_of::<f32>() - 1;
        let buf = vec![0.0; len + slack];
        let misalign = buf.as_ptr().addr() % ROW_ALIGN;
        let start = (ROW_ALIGN - misalign) % ROW_ALIGN / size_of::<f32>();
        AlignedRow { buf, start, len }
    }

    fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl Clone for AlignedRow {
    fn clone(&self) -> Self {
        let mut row = AlignedRow::zeros(self.len);
        row.as_mut_slice().copy_from_slice(self.as_slice());
        row
    }
}

impl PartialEq for AlignedRow {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// What one pass of the kernel body reads: the running sums `init` after the
/// first `skip` inputs, the inputs `x` left to add, the activation on the way out.
struct Pass<'a> {
    init: &'a [f32],
    skip: usize,
    x: &'a [f32],
    act: Activation,
}

/// One dense layer `y = act(W x + b)`.
///
/// Weights are stored input-major, `[in][stride]` with `stride` the output
/// count rounded up to whole passes of the widest blocks any instantiation
/// runs over them (16 up to 16 outputs, a multiple of 64 above); the padding
/// columns (and padding biases) stay zero and are never written out, so
/// every pass of [`Self::forward_from`] is the same fixed-width loop. The
/// weights and the bias row each start on a 64-byte boundary, in a clone
/// too; equal layers compare equal wherever they live.
#[derive(Clone, PartialEq)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    stride: usize,
    weights: AlignedRow,
    bias: AlignedRow,
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
        // whole passes of the widest blocks any instantiation runs on these outputs
        let stride = if out_dim <= 2 * LANES {
            2 * LANES
        } else {
            out_dim.next_multiple_of(BLOCKS * WIDE_LANES)
        };
        Dense {
            in_dim,
            out_dim,
            stride,
            weights: AlignedRow::zeros(in_dim * stride),
            bias: AlignedRow::zeros(stride),
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
            out.extend(self.weights.as_slice().iter().skip(row).step_by(self.stride));
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
        let dst = self.weights.as_mut_slice();
        for (row, src) in weights.chunks_exact(self.in_dim).enumerate() {
            for (col, &v) in src.iter().enumerate() {
                dst[col * self.stride + row] = v;
            }
        }
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias.as_slice()[..self.out_dim]
    }

    /// Mutable bias.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias.as_mut_slice()[..self.out_dim]
    }

    /// Sets weight `(row, col)`, i.e. from input `col` to output `row`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, v: f32) {
        assert!(row < self.out_dim && col < self.in_dim);
        self.weights.as_mut_slice()[col * self.stride + row] = v;
    }

    /// Length of a running-sum row ([`Self::prefix`] writes one,
    /// [`Self::forward_from`] starts from one): the output count rounded up
    /// to whole passes.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Forward pass into `out`.
    ///
    /// Every output is `bias + w₀x₀ + w₁x₁ + …` summed in input order with
    /// separate multiplies and adds: the lanes of a block run across
    /// outputs, never across the sum.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths mismatch.
    pub fn forward(&self, x: &[f32], out: &mut [f32]) {
        self.forward_from(self.bias.as_slice(), 0, x, out);
    }

    /// The running sums `bias + w₀x₀ + … ` after the first `x_head.len()`
    /// inputs, before any activation: what [`Self::forward_from`] resumes
    /// from when the head of the input repeats.
    ///
    /// # Panics
    ///
    /// Panics if `x_head` is longer than the input or `sums` is not
    /// [`Self::stride`] long.
    pub fn prefix(&self, x_head: &[f32], sums: &mut [f32]) {
        self.prefix_on(Kernel::Avx512, x_head, sums);
    }

    /// [`Self::prefix`] on the instantiation named: for tests and benches, never the product.
    #[doc(hidden)]
    pub fn prefix_on(&self, kernel: Kernel, x_head: &[f32], sums: &mut [f32]) {
        assert!(x_head.len() <= self.in_dim, "head longer than the input");
        assert_eq!(sums.len(), self.stride, "running-sum row length mismatch");
        let pass = Pass { init: self.bias.as_slice(), skip: 0, x: x_head, act: Activation::None };
        self.run(kernel, pass, sums);
    }

    /// Forward pass resumed after `skip` inputs: `init` holds the running
    /// sums so far (the bias row when `skip` is 0, a [`Self::prefix`] row
    /// otherwise) and `x_rest` the remaining inputs. The sums continue left
    /// to right from where `init` stopped, so the result is bit-identical to
    /// [`Self::forward`] over the whole input. `out` may ask for fewer
    /// outputs than the layer has.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths mismatch.
    pub fn forward_from(&self, init: &[f32], skip: usize, x_rest: &[f32], out: &mut [f32]) {
        self.forward_on(Kernel::Avx512, init, skip, x_rest, out);
    }

    /// [`Self::forward_from`] on the instantiation named (see [`Self::prefix_on`]).
    #[doc(hidden)]
    pub fn forward_on(&self, k: Kernel, init: &[f32], skip: usize, x: &[f32], out: &mut [f32]) {
        assert_eq!(init.len(), self.stride, "running-sum row length mismatch");
        assert_eq!(skip + x.len(), self.in_dim, "input length mismatch");
        assert!(out.len() <= self.out_dim, "more outputs asked for than the layer has");
        let pass = Pass { init, skip, x, act: self.act };
        self.run(k, pass, out);
    }

    /// Runs the kernel body over `out` at the narrowest block width whose
    /// blocks cover it, up to the widest `kernel` runs on this CPU: chosen from
    /// `out.len()` and what the CPU reports, never from an option. The tails
    /// (16 outputs or fewer) stop at AVX2: compiled for AVX-512 the 64→16
    /// density tail measured 74 ns against 58 (DESIGN.md §8).
    fn run(&self, kernel: Kernel, pass: Pass<'_>, out: &mut [f32]) {
        let tail = kernel.min(Kernel::Avx2);
        if out.len() <= NARROW_LANES {
            self.run_at::<NARROW_LANES, NARROW_LANES>(tail, pass, out);
        } else if out.len() <= 2 * LANES {
            self.run_at::<LANES, { 2 * LANES }>(tail, pass, out);
        } else if kernel.here() == Kernel::Avx512 {
            self.run_at::<WIDE_LANES, { usize::MAX }>(kernel, pass, out);
        } else {
            self.run_at::<LANES, { usize::MAX }>(kernel, pass, out);
        }
    }

    /// The kernel body at block width `N` on `kernel` (see [`run_on`]), for
    /// at most `MAX` outputs.
    fn run_at<const N: usize, const MAX: usize>(
        &self,
        kernel: Kernel,
        pass: Pass<'_>,
        out: &mut [f32],
    ) {
        run_on(
            kernel,
            self,
            pass,
            out,
            #[inline(always)]
            |layer, pass, out| layer.accumulate::<N, MAX>(pass, out),
        );
    }

    /// The one kernel body: `out[j] = act(init[j] + Σ w[skip + i][j]·x[i])`
    /// for four `N`-output blocks per pass over the inputs — four add chains
    /// in flight instead of one. The blocks are four named arrays: LLVM keeps
    /// those in registers, and scalarises `[[f32; N]; 4]` or `[f32; 4 * N]`
    /// (DESIGN.md §8). At most `MAX` outputs are written, a bound the
    /// compiler sees: the blocks past it read no weights, and their loops go.
    #[inline(always)]
    fn accumulate<const N: usize, const MAX: usize>(&self, pass: Pass<'_>, out: &mut [f32]) {
        let Pass { init, skip, x, act } = pass;
        let n = out.len().min(MAX);
        // the columns a pass reads: four blocks, or fewer where `MAX` ends first
        let span = (BLOCKS * N).min(MAX);
        let weights = &self.weights.as_slice()[skip * self.stride..];
        for (quad, dst) in out[..n].chunks_mut(BLOCKS * N).enumerate() {
            let o = quad * BLOCKS * N;
            let init = &init[o..o + span];
            let [mut a, mut b, mut c, mut d] = [[0.0f32; N]; BLOCKS];
            load(&mut a, block::<N>(init, 0));
            load(&mut b, block::<N>(init, 1));
            load(&mut c, block::<N>(init, 2));
            load(&mut d, block::<N>(init, 3));
            for (w_in, &v) in weights.chunks_exact(self.stride).zip(x) {
                let w = &w_in[o..o + span];
                mac(&mut a, block::<N>(w, 0), v);
                mac(&mut b, block::<N>(w, 1), v);
                mac(&mut c, block::<N>(w, 2), v);
                mac(&mut d, block::<N>(w, 3), v);
            }
            // out through one loop over the blocks laid end to end (the last
            // pass may be narrower than its blocks): a loop per block was
            // written with masked stores under AVX2, 5–15 % slower a layer
            let sums = [a, b, c, d];
            for (y, &s) in dst.iter_mut().zip(sums.as_flattened()) {
                *y = act.apply(s);
            }
        }
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn macs(&self) -> u64 {
        (self.in_dim * self.out_dim) as u64
    }
}

/// Block `k` of the `N`-lane blocks `row` splits into: empty past its end,
/// a whole block wherever the kernel body reads one.
#[inline(always)]
fn block<const N: usize>(row: &[f32], k: usize) -> &[f32] {
    &row[(k * N).min(row.len())..((k + 1) * N).min(row.len())]
}

/// The running sums of a block start from `init`.
#[inline(always)]
fn load<const N: usize>(acc: &mut [f32; N], init: &[f32]) {
    for (s, &v) in acc.iter_mut().zip(init) {
        *s = v;
    }
}

/// One input's step of a block: `acc[j] += w[j] · v`, a multiply then an add.
#[inline(always)]
fn mac<const N: usize>(acc: &mut [f32; N], w: &[f32], v: f32) {
    for (s, &w) in acc.iter_mut().zip(w) {
        *s += w * v;
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
        self.forward_from(self.layers[0].bias.as_slice(), 0, x, out, scratch);
    }

    /// [`Self::forward_scratch`] with the first layer resumed after `skip`
    /// inputs from the running sums `init` (see [`Dense::forward_from`]).
    ///
    /// # Panics
    ///
    /// Panics if any buffer has the wrong length.
    pub(crate) fn forward_from(
        &self,
        init: &[f32],
        skip: usize,
        x_rest: &[f32],
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        assert_eq!(out.len(), self.out_dim(), "output length mismatch");
        assert!(scratch.len() >= self.scratch_len * 2, "scratch too small");
        let (first, rest) = self.layers.split_first().expect("an MLP has at least one layer");
        let Some((last, hidden)) = rest.split_last() else {
            return first.forward_from(init, skip, x_rest, out);
        };
        // activations ping-pong between the two halves of the scratch
        let (mut src, mut dst) = scratch.split_at_mut(self.scratch_len);
        first.forward_from(init, skip, x_rest, &mut src[..first.out_dim]);
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

    /// Whether both of a layer's rows start on a `ROW_ALIGN`-byte boundary.
    fn rows_aligned(l: &Dense) -> bool {
        [l.weights.as_slice(), l.bias.as_slice()].iter().all(|r| r.as_ptr().addr() % ROW_ALIGN == 0)
    }

    #[test]
    fn weight_and_bias_rows_start_on_a_64_byte_boundary() {
        // the odd-sized buffers kept alive between layers move where the next one lands
        let mut keep = Vec::new();
        for (in_dim, out_dim) in [(1, 1), (31, 64), (64, 16), (64, 3), (5, 33), (7, 65), (3, 17)] {
            let mut l = Dense::zeros(in_dim, out_dim, Activation::Relu);
            assert!(rows_aligned(&l), "zeros({in_dim}, {out_dim})");
            let w: Vec<f32> = (0..in_dim * out_dim).map(|i| i as f32 * 0.25 - 1.0).collect();
            l.import_row_major(&w);
            assert!(rows_aligned(&l), "import_row_major on {in_dim}x{out_dim}");
            let copy = l.clone();
            assert!(rows_aligned(&copy), "clone of {in_dim}x{out_dim}");
            assert_eq!(copy, l);
            keep.push((l, copy, vec![0u8; 4 * in_dim + 4]));
        }
    }

    #[test]
    fn a_loaded_checkpoint_keeps_its_bytes_and_gets_aligned_rows() {
        use crate::fit::fit_ngp;
        use crate::grid::GridConfig;
        use crate::io::{load_model, save_model};
        let model =
            fit_ngp(asdr_scenes::registry::handle("Lego").build().as_ref(), &GridConfig::tiny());
        let mut bytes = Vec::new();
        save_model(&model, "Lego", &mut bytes).unwrap();
        // `nerf.ckpt_bytes`: how a layer is stored does not reach the file
        assert_eq!(bytes.len(), 277_600);
        let loaded = load_model(&mut bytes.as_slice()).unwrap().model;
        for (fitted, read) in
            [(model.density_mlp(), loaded.density_mlp()), (model.color_mlp(), loaded.color_mlp())]
        {
            assert_eq!(fitted, read);
            assert!(read.layers().iter().all(rows_aligned));
        }
    }

    #[test]
    fn equal_layers_compare_equal_wherever_their_rows_start() {
        let mut a = Dense::zeros(5, 33, Activation::Relu);
        a.set(32, 4, 1.5);
        a.set(0, 0, -0.25);
        a.bias_mut()[32] = -0.5;
        // the same rows one float past a 64-byte boundary
        let misaligned = |row: &AlignedRow| {
            let mut moved = AlignedRow::zeros(row.len + 1);
            moved.start += 1;
            moved.len = row.len;
            moved.as_mut_slice().copy_from_slice(row.as_slice());
            moved
        };
        let b = Dense { weights: misaligned(&a.weights), bias: misaligned(&a.bias), ..a.clone() };
        assert!(rows_aligned(&a) && !rows_aligned(&b));
        assert_eq!(a, b);
        let x = [0.5, -1.0, 2.0, 0.125, 3.0];
        let (mut ya, mut yb) = ([0.0f32; 33], [0.0f32; 33]);
        a.forward(&x, &mut ya);
        b.forward(&x, &mut yb);
        assert_eq!(ya.map(f32::to_bits), yb.map(f32::to_bits));
        // a clone of the misaligned layer is aligned again, and still equal
        assert!(rows_aligned(&b.clone()));
        assert_eq!(b.clone(), a);
        let mut c = b.clone();
        c.set(32, 4, 1.0);
        assert_ne!(c, a);
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
