//! The run-time choice of kernel instantiation, and what the lane bodies share.
//!
//! Three kernel bodies run with vector lanes across independent items:
//! [`IntMlp`](crate::mlp::IntMlp) across a layer's outputs,
//! [`HashEncoder`](crate::encoder::HashEncoder) across resolution levels and
//! [`OccupancyGrid::occupied_along`](crate::occupancy::OccupancyGrid::occupied_along)
//! across a ray's samples. The encoder and the pass are each written once, as
//! plain safe Rust that LLVM vectorises, and `run_on` compiles them for the
//! build's baseline target and inlined into a function with AVX2 enabled.
//! The integer layer has one pair of line kernels per instantiation
//! (portable `i32` loops, AVX2 `vpmaddwd`, AVX-512 VNNI `vpdpbusd`), which a
//! layer's prefix and a whole MLP's body both inline, bit-identical
//! because every sum is an exact `i32`. `dispatch` picks the instantiation
//! per call from what the CPU reports (DESIGN.md §8).

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m128i, __m256i, __m512i};

/// Lanes of the encoder's and the occupancy pass's blocks: one 256-bit
/// register of `f32` or `u32` under AVX2, two under the baseline's SSE2.
pub(crate) const LANES: usize = 8;

/// An instantiation of the kernel bodies, narrowest first. The product runs
/// the widest the CPU offers up to the one its call site names; tests and
/// benches name one through the `_on` methods
/// ([`IntMlp::forward_on`](crate::mlp::IntMlp::forward_on),
/// [`IntDense::prefix_on`](crate::mlp::IntDense::prefix_on),
/// [`HashEncoder::encode_on`](crate::encoder::HashEncoder::encode_on),
/// [`OccupancyGrid::occupied_along_on`](crate::occupancy::OccupancyGrid::occupied_along_on))
/// to hold each to the same oracle.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// Compiled for the build's baseline target: all that exists off x86-64.
    Portable,
    /// Compiled with AVX2, never `fma`; a CPU without AVX2 runs `Portable` instead.
    Avx2,
    /// The integer layer's `vpdpbusd` body, compiled with AVX2, AVX-512F and
    /// AVX-512 VNNI. Only the MLP names it; the encoder and the occupancy
    /// pass stop at `Avx2`. A CPU without AVX-512F and VNNI runs `Avx2` instead.
    Avx512Vnni,
}

impl Kernel {
    /// The instantiations this CPU runs, widest last: detected once, then
    /// one load per call (every layer, encode and pass asks).
    pub fn available() -> &'static [Kernel] {
        static DETECTED: std::sync::OnceLock<&'static [Kernel]> = std::sync::OnceLock::new();
        DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vnni")
                {
                    return &[Kernel::Portable, Kernel::Avx2, Kernel::Avx512Vnni];
                }
                return &[Kernel::Portable, Kernel::Avx2];
            }
            &[Kernel::Portable]
        })
    }

    /// The widest instantiation this CPU runs, up to `self`.
    pub fn here(self) -> Kernel {
        let widest = *Kernel::available().last().expect("Portable runs everywhere");
        self.min(widest)
    }
}

/// The instantiation the MLP layers run on this host: `"avx512vnni"`,
/// `"avx2"` or `"portable"`. The encoder and the occupancy pass run the same
/// one, except that they stop at AVX2: on a VNNI host they run `"avx2"`.
pub fn kernel_name() -> &'static str {
    match Kernel::Avx512Vnni.here() {
        Kernel::Avx512Vnni => "avx512vnni",
        Kernel::Avx2 => "avx2",
        Kernel::Portable => "portable",
    }
}

/// Runs the instantiation of a body that [`Kernel::here`] of `kernel` picks:
/// `portable` itself, or `avx2` / `vnni`, each a `#[target_feature]`
/// function (so an `unsafe fn` pointer: calling one on a CPU without its
/// features is undefined). The renderer's one dispatch (DESIGN.md §8). Every
/// call site hands it constants, so the compiled call is direct.
#[allow(unsafe_code)]
#[inline(always)]
pub(crate) fn dispatch<T: ?Sized, A, O: ?Sized, R>(
    kernel: Kernel,
    this: &T,
    args: A,
    out: &mut O,
    portable: impl FnOnce(&T, A, &mut O) -> R,
    avx2: unsafe fn(&T, A, &mut O) -> R,
    vnni: unsafe fn(&T, A, &mut O) -> R,
) -> R {
    match kernel.here() {
        Kernel::Portable => portable(this, args, out),
        // SAFETY: `here` returns only instantiations whose every feature
        // `available` detected on this CPU, and each of `avx2` and `vnni`
        // enables only the features of its own instantiation.
        wide => unsafe {
            match wide {
                Kernel::Avx512Vnni => vnni(this, args, out),
                _ => avx2(this, args, out),
            }
        },
    }
}

/// Runs `body(this, args, out)` through [`dispatch`]: compiled for the
/// baseline target, or inlined into a function with AVX2 enabled. This is
/// the encoder's and the pass's one body, which stop at AVX2 (a call naming
/// `Avx512Vnni` runs the AVX2 instantiation). `body` must be an
/// `#[inline(always)]` closure around an `#[inline(always)]` kernel body, or
/// the AVX2 instantiation is a call into baseline code. It captures nothing:
/// what it reads and writes reaches it as arguments, as it would a plain
/// function. (An MLP layer whose layer and inputs were captured ran 5–10 %
/// slower: the compiler no longer knew that writing `out` leaves them
/// unchanged.)
#[inline(always)]
pub(crate) fn run_on<T: ?Sized, A, O: ?Sized, R, F: FnOnce(&T, A, &mut O) -> R>(
    kernel: Kernel,
    this: &T,
    args: A,
    out: &mut O,
    body: F,
) -> R {
    #[cfg(target_arch = "x86_64")]
    let wide = widened::<T, A, O, R, F>;
    #[cfg(not(target_arch = "x86_64"))]
    let wide = baseline::<T, A, O, R, F>;
    dispatch(
        kernel,
        this,
        (args, body),
        out,
        #[inline(always)]
        |this, (args, body), out| body(this, args, out),
        wide,
        wide,
    )
}

/// `body` inlined into a function whose vectors are 256 bits wide. AVX2
/// only: without `fma` no multiply and add can fuse.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn widened<T: ?Sized, A, O: ?Sized, R, F: FnOnce(&T, A, &mut O) -> R>(
    this: &T,
    (args, body): (A, F),
    out: &mut O,
) -> R {
    body(this, args, out)
}

/// Off x86-64 only the portable instantiation exists, and [`Kernel::here`]
/// never picks another: this stands in for the wide ones.
#[cfg(not(target_arch = "x86_64"))]
fn baseline<T: ?Sized, A, O: ?Sized, R, F: FnOnce(&T, A, &mut O) -> R>(
    this: &T,
    (args, body): (A, F),
    out: &mut O,
) -> R {
    body(this, args, out)
}

/// Plain data of exactly 64 bytes, a cache line, of which every bit pattern
/// is a value: what [`cast`] converts between. Implemented by `line64!`
/// alone.
pub(crate) trait Line64: Copy {}

macro_rules! line64 {
    ($($t:ty),*) => {$(
        impl Line64 for $t {}
        const _: () = assert!(size_of::<$t>() == 64);
    )*};
}
line64!([i8; 64], [i32; 16]);
#[cfg(target_arch = "x86_64")]
line64!(__m512i, [__m256i; 2], [__m128i; 4]);

/// The bits of `a` as a `B`: a row of weights or sums loaded into vector
/// registers, or registers stored back into a row. The integer layer's only
/// vector loads and stores, and the renderer's second `unsafe`.
#[allow(unsafe_code)]
#[inline(always)]
pub(crate) fn cast<A: Line64, B: Line64>(a: &A) -> B {
    // SAFETY: `A` and `B` are both 64 bytes (`line64!` asserts it) of
    // integers or vectors of integers, so every bit pattern `a` holds is a
    // `B`; `read_unaligned` asks nothing of the address.
    unsafe { std::ptr::read_unaligned((a as *const A).cast::<B>()) }
}

/// The cell a scaled coordinate `s` falls in, `⌊s⌋` clamped into
/// `0..=max_cell`, as a float and as an integer; `NaN` is in cell 0.
/// `max_cell` is a whole number below 2²³.
///
/// Both `floor` (a libm call on the baseline target) and a saturating `as`
/// cast (a dozen instructions a lane) would keep the lanes scalar. Adding
/// 2²³ rounds `s` to a whole number, whose value is then the float's low
/// mantissa bits; a round up is corrected down by one.
#[inline(always)]
pub(crate) fn floor_cell(s: f32, max_cell: f32) -> (f32, u32) {
    // 2²³: from here up, the unit in the last place is 1
    const ROUND: f32 = 8_388_608.0;
    // `NaN > 0.0` is false; ⌊min(s, max_cell)⌋ is min(⌊s⌋, max_cell) for a
    // whole `max_cell`; written `a > b ? a : b` and `a < b ? a : b`, each is
    // one vector max or min
    let s = if s > 0.0 { s } else { 0.0 };
    let s = if s < max_cell { s } else { max_cell };
    let rounded = s + ROUND;
    let near = rounded - ROUND;
    let up = near > s;
    let base = if up { near - 1.0 } else { near };
    let cell = (rounded.to_bits() - ROUND.to_bits()) - up as u32;
    (base, cell)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_dispatched_kernel_is_the_widest_the_host_reports() {
        #[cfg(target_arch = "x86_64")]
        let (avx2, vnni) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vnni"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, vnni) = (false, false);
        assert_eq!(kernel_name() == "avx512vnni", vnni);
        assert_eq!(kernel_name() == "avx2", avx2 && !vnni);
        assert_eq!(kernel_name() == "portable", !avx2);
        assert_eq!(Kernel::available().first(), Some(&Kernel::Portable));
        assert_eq!(Kernel::available().contains(&Kernel::Avx2), avx2);
        assert_eq!(Kernel::available().contains(&Kernel::Avx512Vnni), vnni);
        assert!(Kernel::available().is_sorted(), "{:?}", Kernel::available());
        // a call site that names AVX2 (the encoder, the pass) never runs wider
        assert_eq!(Kernel::Avx2.here(), if avx2 { Kernel::Avx2 } else { Kernel::Portable });
        assert_eq!(Kernel::Portable.here(), Kernel::Portable);
    }

    /// What the cell was before: a truncating cast, clamped.
    fn cast_cell(s: f32, max_cell: u32) -> (f32, u32) {
        let c = (s as u32).min(max_cell);
        (c as f32, c)
    }

    #[test]
    fn the_cell_is_the_clamped_truncation_on_every_float_near_a_cell_plane() {
        let bits = |(f, c): (f32, u32)| (f.to_bits(), c);
        for max_cell in [0u32, 1, 6, 63, 1023, 65_535] {
            let m = max_cell as f32;
            let mut probes = vec![0.0, -0.0, f32::NAN, f32::MIN_POSITIVE, 1e-40, -1e-40, -0.5];
            probes.extend([m + 0.5, 1e30, f32::INFINITY, f32::NEG_INFINITY, -1e30]);
            for k in (0..=max_cell.min(2000) + 1).chain(max_cell.saturating_sub(2)..=max_cell + 1) {
                let c = k as f32;
                let mut below = c;
                let mut above = c;
                for _ in 0..4 {
                    probes.extend([below, above, c + 0.5, c + 0.25]);
                    (below, above) = (below.next_down(), above.next_up());
                }
            }
            for s in probes {
                assert_eq!(
                    bits(floor_cell(s, m)),
                    bits(cast_cell(s, max_cell)),
                    "s {s} ({:#x}), max_cell {max_cell}",
                    s.to_bits()
                );
            }
        }
    }
}
