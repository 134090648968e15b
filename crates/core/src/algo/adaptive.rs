//! Difficulty-aware adaptive sampling (§4.2).
//!
//! Phase I renders a sparse probe grid of pixels (every `d`-th pixel both
//! ways) at the full sample count `ns`, then re-composites each probe ray at
//! the reduced counts of a ladder `ns_1 < ns_2 < … < ns` *without*
//! re-evaluating the model. The rendering difficulty of count `ns_i` is
//! Eq. (3): `rd_i = max(|Δr|, |Δg|, |Δb|)` against the full-count result;
//! the chosen count is the smallest ladder entry with `rd_i ≤ δ`. Pixels
//! between probes receive bilinearly interpolated counts.

use crate::algo::volrend::{composite, composite_subsampled, SamplePoint};
use asdr_math::interp::bilinear;

/// Adaptive-sampling configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Probe-grid pitch `d` (paper visualizes `d = 5`).
    pub probe_stride: u32,
    /// Difficulty threshold `δ` (paper sweeps 0, 1/2048, 1/256).
    pub delta: f32,
    /// Candidate reduced sample counts, ascending, each dividing the base
    /// count.
    pub ladder: Vec<usize>,
}

impl AdaptiveConfig {
    /// The paper's configuration relative to a base count: ladder
    /// `base/16 … base/2`, probe pitch 5, `δ = 1/2048`.
    ///
    /// # Panics
    ///
    /// Panics if `base_ns < 16`.
    pub fn paper(base_ns: usize) -> Self {
        assert!(base_ns >= 16, "base sample count too small for the ladder");
        AdaptiveConfig {
            probe_stride: 5,
            delta: 1.0 / 2048.0,
            ladder: vec![base_ns / 16, base_ns / 8, base_ns / 4, base_ns / 2],
        }
    }

    /// Like [`AdaptiveConfig::paper`] but with the probe pitch scaled to the
    /// image resolution, keeping the probe density *relative to content*
    /// comparable to the paper's `d = 5` at 800×800. Down-scaled experiment
    /// frames need proportionally denser probes.
    pub fn for_resolution(base_ns: usize, width: u32) -> Self {
        let d = (width / 20).clamp(2, 5);
        AdaptiveConfig { probe_stride: d, ..AdaptiveConfig::paper(base_ns) }
    }

    /// Validates ladder ordering and divisibility against `base_ns`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self, base_ns: usize) -> Result<(), String> {
        if self.probe_stride == 0 {
            return Err("probe_stride must be >= 1".into());
        }
        if self.delta < 0.0 {
            return Err("delta must be non-negative".into());
        }
        let mut prev = 0usize;
        for &n in &self.ladder {
            if n == 0 || n > base_ns {
                return Err(format!("ladder entry {n} out of range (base {base_ns})"));
            }
            if n <= prev {
                return Err("ladder must be strictly ascending".into());
            }
            if !base_ns.is_multiple_of(n) {
                return Err(format!("ladder entry {n} must divide base {base_ns}"));
            }
            prev = n;
        }
        Ok(())
    }
}

/// Chooses the sample count for one probe ray from its fully evaluated
/// sample points (Eq. 3 + threshold rule).
///
/// # Panics
///
/// Panics if the config fails validation against `base_ns`.
pub fn choose_count(points: &[SamplePoint], cfg: &AdaptiveConfig, base_ns: usize) -> usize {
    cfg.validate(base_ns).expect("invalid adaptive config");
    choose_count_validated(points, cfg, base_ns)
}

/// [`choose_count`] for a config the caller has already validated against
/// `base_ns` (`FrameEngine::new` does, once per session): the per-probe-ray
/// body, with no check and so no panic path of its own.
pub(crate) fn choose_count_validated(
    points: &[SamplePoint],
    cfg: &AdaptiveConfig,
    base_ns: usize,
) -> usize {
    if points.is_empty() {
        return cfg.ladder.first().copied().unwrap_or(base_ns);
    }
    let reference = composite(points).color;
    for &ns_i in &cfg.ladder {
        let stride = base_ns / ns_i;
        let rd = composite_subsampled(points, stride).color.max_channel_abs_diff(reference);
        if rd <= cfg.delta {
            return ns_i;
        }
    }
    base_ns
}

/// The per-pixel sample-count plan produced by Phase I.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlan {
    width: u32,
    height: u32,
    base_ns: usize,
    counts: Vec<u32>,
}

impl SamplePlan {
    /// A uniform plan (no adaptivity) at `base_ns` samples everywhere.
    pub fn uniform(width: u32, height: u32, base_ns: usize) -> Self {
        SamplePlan {
            width,
            height,
            base_ns,
            counts: vec![base_ns as u32; width as usize * height as usize],
        }
    }

    /// Builds a plan by bilinear interpolation from probe counts.
    ///
    /// `probe_counts[(px, py)]` holds the chosen counts at probe-grid
    /// coordinates (pixel `(px·d, py·d)`).
    ///
    /// # Panics
    ///
    /// Panics if the probe grid does not cover the image.
    pub fn from_probes(
        width: u32,
        height: u32,
        base_ns: usize,
        d: u32,
        probe_counts: &[Vec<u32>],
    ) -> Self {
        let gx = width.div_ceil(d); // probes per row
        let gy = height.div_ceil(d);
        assert!(probe_counts.len() as u32 >= gy, "probe rows missing");
        assert!(probe_counts.iter().all(|r| r.len() as u32 >= gx), "probe cols missing");
        let clamp_probe = |ix: i64, iy: i64| -> f32 {
            let ix = ix.clamp(0, gx as i64 - 1) as usize;
            let iy = iy.clamp(0, gy as i64 - 1) as usize;
            probe_counts[iy][ix] as f32
        };
        let mut counts = vec![0u32; width as usize * height as usize];
        for y in 0..height {
            for x in 0..width {
                let fx = x as f32 / d as f32;
                let fy = y as f32 / d as f32;
                let ix = fx.floor() as i64;
                let iy = fy.floor() as i64;
                let v = bilinear(
                    clamp_probe(ix, iy),
                    clamp_probe(ix + 1, iy),
                    clamp_probe(ix, iy + 1),
                    clamp_probe(ix + 1, iy + 1),
                    (fx - ix as f32).clamp(0.0, 1.0),
                    (fy - iy as f32).clamp(0.0, 1.0),
                );
                counts[(y * width + x) as usize] = (v.round() as u32).clamp(1, base_ns as u32);
            }
        }
        SamplePlan { width, height, base_ns, counts }
    }

    /// Planned count for pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if out of range.
    #[inline]
    pub fn count(&self, x: u32, y: u32) -> u32 {
        debug_assert!(x < self.width && y < self.height);
        self.counts[(y * self.width + x) as usize]
    }

    /// Image width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The full (reference) sample count.
    pub fn base_ns(&self) -> usize {
        self.base_ns
    }

    /// Total planned samples over the frame.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Mean planned samples per pixel (the paper reports e.g. 120 of 192 for
    /// Lego).
    pub fn average(&self) -> f64 {
        self.total() as f64 / self.counts.len() as f64
    }

    /// Raw per-pixel counts (row-major) — used by the Fig. 7-style
    /// visualization.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_math::Rgb;

    fn flat_points(n: usize, sigma: f32) -> Vec<SamplePoint> {
        (0..n).map(|i| SamplePoint { t: i as f32 * 0.05, sigma, color: Rgb::splat(0.5) }).collect()
    }

    #[test]
    fn paper_config_is_valid() {
        let cfg = AdaptiveConfig::paper(192);
        cfg.validate(192).unwrap();
        assert_eq!(cfg.ladder, vec![12, 24, 48, 96]);
    }

    #[test]
    fn validation_catches_bad_ladders() {
        let mut cfg = AdaptiveConfig::paper(192);
        cfg.ladder = vec![24, 12];
        assert!(cfg.validate(192).is_err());
        cfg.ladder = vec![13];
        assert!(cfg.validate(192).is_err());
        cfg.ladder = vec![0];
        assert!(cfg.validate(192).is_err());
        let mut cfg = AdaptiveConfig::paper(192);
        cfg.probe_stride = 0;
        assert!(cfg.validate(192).is_err());
    }

    #[test]
    fn easy_rays_get_minimum_count() {
        // uniform medium: any subsampling is lossless, so rd = 0 ≤ δ for the
        // smallest ladder entry
        let cfg = AdaptiveConfig::paper(64);
        let pts = flat_points(64, 10.0);
        assert_eq!(choose_count(&pts, &cfg, 64), 4);
    }

    #[test]
    fn hard_rays_keep_full_count() {
        // high-frequency alternating color: every subsampling is visibly
        // wrong → full count retained
        let cfg = AdaptiveConfig { delta: 1.0 / 2048.0, ..AdaptiveConfig::paper(64) };
        let mut pts = flat_points(64, 40.0);
        for (i, p) in pts.iter_mut().enumerate() {
            p.color = if i % 2 == 0 { Rgb::WHITE } else { Rgb::BLACK };
        }
        assert_eq!(choose_count(&pts, &cfg, 64), 64);
    }

    #[test]
    fn zero_threshold_is_strictest() {
        let strict = AdaptiveConfig { delta: 0.0, ..AdaptiveConfig::paper(64) };
        let loose = AdaptiveConfig { delta: 0.5, ..AdaptiveConfig::paper(64) };
        let mut pts = flat_points(64, 20.0);
        pts[31].color = Rgb::BLACK; // single high-frequency defect
        let c_strict = choose_count(&pts, &strict, 64);
        let c_loose = choose_count(&pts, &loose, 64);
        assert!(c_strict >= c_loose, "{c_strict} vs {c_loose}");
        assert_eq!(c_loose, 4, "a 0.5 threshold accepts anything");
    }

    #[test]
    fn empty_ray_gets_smallest_count() {
        let cfg = AdaptiveConfig::paper(64);
        assert_eq!(choose_count(&[], &cfg, 64), 4);
    }

    #[test]
    fn plan_interpolates_between_probes() {
        // probes: left column easy (8), right column hard (64)
        let probes = vec![vec![8u32, 64u32], vec![8u32, 64u32]];
        let plan = SamplePlan::from_probes(8, 8, 64, 7, &probes);
        assert_eq!(plan.count(0, 0), 8);
        assert_eq!(plan.count(7, 0), 64);
        let mid = plan.count(3, 3);
        assert!(mid > 8 && mid < 64, "midpoint should interpolate: {mid}");
        assert!(plan.average() > 8.0 && plan.average() < 64.0);
    }

    #[test]
    fn uniform_plan_totals() {
        let plan = SamplePlan::uniform(4, 4, 32);
        assert_eq!(plan.total(), 16 * 32);
        assert_eq!(plan.average(), 32.0);
        assert_eq!(plan.base_ns(), 32);
    }
}
