//! Volume rendering: the compositing integral of Eq. (1).
//!
//! `C = Σ_i T_i α_i c_i`, `α_i = 1 − exp(−σ_i δ_i)`,
//! `T_i = Π_{j<i} (1 − α_j)` — plus two variants the paper builds on:
//! early-terminated compositing (§6.6) and subsampled compositing with a
//! stride (the "volume rendering with varying numbers of points" the
//! adaptive sampler's difficulty probe performs, §4.2).

use asdr_math::Rgb;

/// One evaluated sample along a ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Parametric distance along the ray.
    pub t: f32,
    /// Predicted density σ.
    pub sigma: f32,
    /// Predicted (or interpolated) color.
    pub color: Rgb,
}

/// Result of compositing a ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompositeResult {
    /// Final pixel color.
    pub color: Rgb,
    /// Remaining transmittance (0 = fully opaque ray).
    pub transmittance: f32,
    /// Samples actually consumed (≤ input length; smaller when early
    /// termination fires).
    pub consumed: usize,
}

/// Transmittance threshold at which early termination stops a ray — the
/// paper phrases it as "accumulated opacity exceeds 1"; the reference
/// Instant-NGP uses `T < 1e-4`.
pub const EARLY_TERM_TRANSMITTANCE: f32 = 1e-4;

/// Per-sample interval length: the spacing to the next sample, with the last
/// sample inheriting the previous spacing.
#[inline]
fn delta(points: &[SamplePoint], i: usize) -> f32 {
    if i + 1 < points.len() {
        points[i + 1].t - points[i].t
    } else if points.len() >= 2 {
        points[i].t - points[i - 1].t
    } else {
        1.0
    }
}

/// Eq. (1)'s single term: sample `p`, over an interval of length `d`, joins
/// the running `color` and `transmittance` of its ray.
#[inline]
fn add_sample(p: SamplePoint, d: f32, color: &mut Rgb, transmittance: &mut f32) {
    let alpha = 1.0 - (-p.sigma.max(0.0) * d).exp();
    *color += p.color * (*transmittance * alpha);
    *transmittance *= 1.0 - alpha;
}

/// Continues a ray's integral over `points[span]` from the unclamped
/// `(color, transmittance)` the samples before the span left. The intervals
/// are those of the whole ray, so going over `0..n` span by span from
/// `(Rgb::BLACK, 1.0)` is [`composite`] before its clamp, bit for bit.
///
/// Only samples with `σ > 0` are composited: the term of any other adds
/// exactly `+0` and leaves the transmittance bit-equal, so passing over it
/// changes nothing for a running colour that is not `-0.0` — and one that
/// starts at `+0.0` and only ever adds terms never is.
pub(crate) fn composite_span(
    points: &[SamplePoint],
    span: std::ops::Range<usize>,
    (mut color, mut transmittance): (Rgb, f32),
) -> (Rgb, f32) {
    for i in span {
        if points[i].sigma > 0.0 {
            add_sample(points[i], delta(points, i), &mut color, &mut transmittance);
        }
    }
    (color, transmittance)
}

/// Whether no later Eq. (1) term can change the unclamped running `color`:
/// `transmittance` is below half an ulp of every channel. A later term is
/// `c·(T'·α)` with the sample's colour `c` and `α` in `[0, 1]` and `T' ≤ T`
/// (transmittance never grows), so it is at most `T` and rounds away
/// (round to nearest) — the exact form of stopping at `T == 0`. At exactly
/// half an ulp a tie may round up to the even neighbour, so that is not
/// saturated; a channel at `0.0` saturates only at `T == 0`.
///
/// Channels must be `≥ 0` and not NaN, as every running colour of
/// non-negative terms is (debug-asserted); an infinite one never saturates.
pub(crate) fn saturated(color: Rgb, transmittance: f32) -> bool {
    [color.r, color.g, color.b].into_iter().all(|c| {
        debug_assert!(c >= 0.0, "a running colour channel is never negative: {c}");
        // `2T` is exact, and `ulp / 2` would round to 0 below the normals
        2.0 * transmittance < c.next_up() - c
    })
}

/// Composites all samples (no early termination).
pub fn composite(points: &[SamplePoint]) -> CompositeResult {
    composite_impl(points, 1, None)
}

/// Composites with early termination at [`EARLY_TERM_TRANSMITTANCE`].
pub fn composite_early_term(points: &[SamplePoint]) -> CompositeResult {
    composite_impl(points, 1, Some(EARLY_TERM_TRANSMITTANCE))
}

/// Composites every `stride`-th sample, scaling the intervals accordingly —
/// the subsampled re-rendering the adaptive probe uses to estimate quality
/// at a lower sample count without re-evaluating the model.
///
/// # Panics
///
/// Panics if `stride == 0`.
pub fn composite_subsampled(points: &[SamplePoint], stride: usize) -> CompositeResult {
    composite_impl(points, stride, None)
}

fn composite_impl(points: &[SamplePoint], stride: usize, early_t: Option<f32>) -> CompositeResult {
    assert!(stride > 0, "stride must be positive");
    let mut transmittance = 1.0f32;
    let mut color = Rgb::BLACK;
    let mut consumed = 0usize;
    let mut i = 0usize;
    while i < points.len() {
        let p = points[i];
        // interval to the next *composited* sample
        let d = if stride == 1 {
            delta(points, i)
        } else {
            let next = i + stride;
            if next < points.len() {
                points[next].t - p.t
            } else {
                delta(points, i) * stride as f32
            }
        };
        add_sample(p, d, &mut color, &mut transmittance);
        consumed += 1;
        if let Some(thresh) = early_t {
            if transmittance < thresh {
                break;
            }
        }
        i += stride;
    }
    CompositeResult { color: color.clamp01(), transmittance, consumed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_points(n: usize, sigma: f32, color: Rgb) -> Vec<SamplePoint> {
        (0..n).map(|i| SamplePoint { t: i as f32 * 0.1, sigma, color }).collect()
    }

    #[test]
    fn empty_ray_is_black_and_transparent() {
        let r = composite(&[]);
        assert_eq!(r.color, Rgb::BLACK);
        assert_eq!(r.transmittance, 1.0);
        assert_eq!(r.consumed, 0);
    }

    #[test]
    fn zero_density_contributes_nothing() {
        let r = composite(&uniform_points(10, 0.0, Rgb::WHITE));
        assert_eq!(r.color, Rgb::BLACK);
        assert_eq!(r.transmittance, 1.0);
    }

    #[test]
    fn opaque_medium_returns_sample_color() {
        let r = composite(&uniform_points(50, 100.0, Rgb::new(0.3, 0.6, 0.9)));
        assert!((r.color.r - 0.3).abs() < 1e-3);
        assert!((r.color.g - 0.6).abs() < 1e-3);
        assert!((r.color.b - 0.9).abs() < 1e-3);
        assert!(r.transmittance < 1e-4);
    }

    #[test]
    fn transmittance_is_monotone_in_density() {
        let lo = composite(&uniform_points(20, 1.0, Rgb::WHITE));
        let hi = composite(&uniform_points(20, 5.0, Rgb::WHITE));
        assert!(hi.transmittance < lo.transmittance);
    }

    #[test]
    fn early_termination_consumes_fewer_points() {
        let pts = uniform_points(100, 50.0, Rgb::WHITE);
        let full = composite(&pts);
        let et = composite_early_term(&pts);
        assert!(et.consumed < full.consumed, "{} vs {}", et.consumed, full.consumed);
        // and the color is (almost) unchanged — the paper stresses ET is
        // lossless
        assert!(full.color.max_channel_abs_diff(et.color) < 1e-3);
    }

    #[test]
    fn early_termination_noop_for_transparent_rays() {
        let pts = uniform_points(30, 0.01, Rgb::WHITE);
        let et = composite_early_term(&pts);
        assert_eq!(et.consumed, 30);
    }

    #[test]
    fn subsampled_matches_full_for_smooth_medium() {
        // uniform density & color: halving the samples is exactly lossless
        let pts = uniform_points(64, 8.0, Rgb::new(0.5, 0.2, 0.7));
        let full = composite(&pts);
        let half = composite_subsampled(&pts, 2);
        assert!(full.color.max_channel_abs_diff(half.color) < 0.02, "{:?} vs {:?}", full, half);
        assert_eq!(half.consumed, 32);
    }

    #[test]
    fn subsampled_differs_for_structured_medium() {
        // alternating colors: subsampling skips half the structure and must
        // show a difference (this is what the rd metric detects); moderate
        // density so several samples contribute
        let mut pts = uniform_points(64, 5.0, Rgb::WHITE);
        for (i, p) in pts.iter_mut().enumerate() {
            p.color = if i % 2 == 0 { Rgb::WHITE } else { Rgb::BLACK };
        }
        let full = composite(&pts);
        let half = composite_subsampled(&pts, 2);
        assert!(full.color.max_channel_abs_diff(half.color) > 0.05);
    }

    fn bits((c, t): (Rgb, f32)) -> [u32; 4] {
        [c.r, c.g, c.b, t].map(f32::to_bits)
    }

    #[test]
    fn any_split_into_spans_continues_to_the_same_integral() {
        // uneven spacing, a negative density, colours beyond [0, 1] so the
        // clamp matters
        let pts: Vec<SamplePoint> = (0..13)
            .map(|i| {
                let x = i as f32;
                SamplePoint {
                    t: 0.1 * x + 0.003 * x * x,
                    sigma: 9.0 * (x * 1.7).sin(),
                    color: Rgb::new(1.0 + 0.2 * x, 0.07 * x, (x * 0.9).cos().abs()),
                }
            })
            .collect();
        let n = pts.len();
        let start = (Rgb::BLACK, 1.0f32);
        let whole = composite_span(&pts, 0..n, start);
        let reference = composite(&pts);
        assert_eq!(
            bits((whole.0.clamp01(), whole.1)),
            bits((reference.color, reference.transmittance))
        );
        assert_ne!(whole.0, whole.0.clamp01());
        // every subset of the cut points 1..n
        for cuts in 0u32..1 << (n - 1) {
            let mut acc = start;
            let mut lo = 0;
            for hi in (1..=n).filter(|&hi| hi == n || cuts & (1 << (hi - 1)) != 0) {
                acc = composite_span(&pts, lo..hi, acc);
                lo = hi;
            }
            assert_eq!(bits(acc), bits(whole), "cuts {cuts:#b}");
        }
    }

    #[test]
    fn a_sample_without_density_adds_plus_zero_and_keeps_transmittance() {
        let color = Rgb::new(0.3, 0.0, 1.0);
        for sigma in [0.0, -0.0, -2.5, f32::MIN] {
            let pts = [
                SamplePoint { t: 0.2, sigma: 3.0, color: Rgb::new(0.9, 0.4, 0.0) },
                SamplePoint { t: 0.5, sigma, color },
                SamplePoint { t: 0.9, sigma: 1.0, color },
            ];
            for before in [(Rgb::BLACK, 1.0f32), composite_span(&pts, 0..1, (Rgb::BLACK, 1.0))] {
                let after = composite_span(&pts, 1..2, before);
                assert_eq!(bits(after), bits(before), "sigma {sigma}");
                // the term itself, which `composite_span` passes over, is
                // +0 and leaves T bit-equal: a −0 channel would become +0
                let (mut c, mut t) = (Rgb::new(-0.0, -0.0, -0.0), before.1);
                add_sample(pts[1], 0.4, &mut c, &mut t);
                assert_eq!(bits((c, t)), bits((Rgb::BLACK, before.1)), "sigma {sigma}");
            }
        }
    }

    #[test]
    fn below_half_an_ulp_no_later_term_moves_a_channel_and_a_tie_is_not_saturated() {
        let gray = |c: f32| Rgb::new(c, c, c);
        for c in [1e-20f32, 0.3, 0.5, 1.0f32.next_down(), 1.0, 1.0f32.next_up(), 1.7] {
            // exact: the spacing above a normal c halves to a normal
            let half = (c.next_up() - c) / 2.0;
            let below = half.next_down();
            assert!(saturated(gray(c), below), "{c}");
            for later in [0.0, 1e-30, 0.5, 1.0] {
                for alpha in [0.0, 1e-30, 0.5, 1.0] {
                    let moved = c + later * (below * alpha);
                    assert_eq!(moved.to_bits(), c.to_bits(), "{c} + {later}·({below}·{alpha})");
                }
            }
            assert!(!saturated(gray(c), half), "{c}: half an ulp is a tie");
        }
        // the tie rounds to even: from an odd mantissa it moves the channel
        let odd = 1.0f32.next_up();
        assert_eq!(odd + 1.0 * ((odd.next_up() - odd) / 2.0), odd.next_up());
        // a channel at 0 is moved by the smallest subnormal term
        let tiny = f32::from_bits(1);
        assert_ne!(0.0f32 + 1.0 * (tiny * 1.0), 0.0);
        assert!(!saturated(Rgb::BLACK, tiny));
        assert!(saturated(Rgb::BLACK, 0.0));
        // every channel has to be saturated
        assert!(!saturated(Rgb::new(1.0, 0.0, 0.5), 1e-30));
        assert!(saturated(Rgb::new(1.0, 0.25, 0.5), 1e-30));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never negative")]
    fn a_negative_running_channel_is_a_bug() {
        saturated(Rgb::new(0.5, -1e-3, 0.5), 0.0);
    }

    #[test]
    fn composite_result_channels_clamped() {
        let pts = vec![SamplePoint { t: 0.0, sigma: 1000.0, color: Rgb::new(2.0, -1.0, 0.5) }];
        let r = composite(&pts);
        assert!(r.color.r <= 1.0 && r.color.g >= 0.0);
    }
}
