//! Workload profilers behind the paper's motivation figures.
//!
//! * [`trace_addresses`] — the raw embedding-address stream of consecutive
//!   sample points in rendering order (Fig. 4's scatter of poor locality),
//! * [`flops_breakdown`] — encoding / density-MLP / color-MLP FLOP shares
//!   (Fig. 5),
//! * [`color_similarity`] — distribution of cosine similarities between
//!   adjacent sample-point colors along rays (Fig. 8, the basis of
//!   color-wise locality),
//! * [`repetition_rates`] — inter-ray and intra-ray voxel repetition per
//!   resolution level (Fig. 15, the basis of the register cache).

use crate::model::{NgpModel, RadianceModel};
use asdr_math::{Camera, Vec3};

/// Flattened byte address of a `(level, row)` embedding access, laying the
/// 16 tables out back-to-back as the paper's Fig. 4 does.
pub fn global_address(model: &NgpModel, level: usize, row: u32) -> u64 {
    let cfg = model.encoder().config();
    let mut base = 0u64;
    for l in 0..level {
        base += cfg.level_entries(l) as u64;
    }
    (base + row as u64) * cfg.feat_dim as u64 * 4
}

/// Collects the embedding addresses touched by the first `n_points` sample
/// points in rendering order (row-major pixels, front-to-back samples,
/// all levels).
pub fn trace_addresses(
    model: &NgpModel,
    cam: &Camera,
    samples_per_ray: usize,
    n_points: usize,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(n_points * 8);
    let mut encoded = vec![0.0; model.encoder().encoded_dim()];
    let mut trace = Vec::new();
    let mut points = 0usize;
    'outer: for py in 0..cam.height() {
        for px in 0..cam.width() {
            let ray = cam.ray_for_pixel(px, py);
            let Some(tr) = model.bounds().intersect(&ray) else { continue };
            for t in tr.midpoints(samples_per_ray) {
                let p01 = model.bounds().normalize(ray.at(t));
                trace.clear();
                model.encoder().encode_traced(p01, &mut encoded, &mut trace);
                for a in &trace {
                    out.push(global_address(model, a.level as usize, a.row));
                }
                points += 1;
                if points >= n_points {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// Mean absolute address delta between consecutive accesses — a scalar
/// summary of the (lack of) spatial locality Fig. 4 visualizes.
pub fn mean_address_stride(addresses: &[u64]) -> f64 {
    if addresses.len() < 2 {
        return 0.0;
    }
    let total: f64 = addresses.windows(2).map(|w| (w[1] as f64 - w[0] as f64).abs()).sum();
    total / (addresses.len() - 1) as f64
}

/// Percentage FLOP shares `(encoding, density MLP, color MLP)` for one fully
/// evaluated sample point (Fig. 5; paper: 2.10 / 32.19 / 65.71).
pub fn flops_breakdown<M: RadianceModel>(model: &M) -> (f64, f64, f64) {
    let (e, d, c) = model.stage_flops();
    let total = (e + d + c) as f64;
    (e as f64 / total * 100.0, d as f64 / total * 100.0, c as f64 / total * 100.0)
}

/// Summary of adjacent-point color similarity along rays (Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityStats {
    /// All pairwise cosine similarities gathered.
    pub count: usize,
    /// Fraction of similarities ≥ 0.9.
    pub frac_high: f64,
    /// 5th-percentile similarity (the paper reports "95% of similarities ≥
    /// x", which is this value).
    pub p05: f32,
    /// 20-bucket histogram over `[0, 1]`.
    pub histogram: [u64; 20],
}

/// Measures cosine similarity between colors of adjacent sample points along
/// every `stride`-th ray. Only points with non-negligible density are
/// compared (transparent points never contribute to the pixel).
pub fn color_similarity(
    model: &NgpModel,
    cam: &Camera,
    samples_per_ray: usize,
    stride: u32,
) -> SimilarityStats {
    let mut sims: Vec<f32> = Vec::new();
    let mut scratch = model.make_scratch();
    for py in (0..cam.height()).step_by(stride.max(1) as usize) {
        for px in (0..cam.width()).step_by(stride.max(1) as usize) {
            let ray = cam.ray_for_pixel(px, py);
            let Some(tr) = model.bounds().intersect(&ray) else { continue };
            let mut prev: Option<Vec3> = None;
            for t in tr.midpoints(samples_per_ray) {
                let p = ray.at(t);
                let (sigma, color) = model.query_point(p, ray.dir, &mut scratch);
                if sigma < 0.5 {
                    prev = None;
                    continue;
                }
                let c = color.to_vec3();
                if let Some(pc) = prev {
                    sims.push(pc.cosine_similarity(c));
                }
                prev = Some(c);
            }
        }
    }
    summarize_similarities(&sims)
}

fn summarize_similarities(sims: &[f32]) -> SimilarityStats {
    let mut histogram = [0u64; 20];
    for &s in sims {
        let b = ((s.clamp(0.0, 1.0)) * 20.0) as usize;
        histogram[b.min(19)] += 1;
    }
    let mut sorted: Vec<f32> = sims.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p05 = if sorted.is_empty() { 0.0 } else { sorted[sorted.len() / 20] };
    let high = sims.iter().filter(|&&s| s >= 0.9).count();
    SimilarityStats {
        count: sims.len(),
        frac_high: if sims.is_empty() { 0.0 } else { high as f64 / sims.len() as f64 },
        p05,
        histogram,
    }
}

/// Per-level locality profile (Fig. 15).
#[derive(Debug, Clone, PartialEq)]
pub struct RepetitionProfile {
    /// Fig. 15(a): per level, the average fraction of a ray's sample points
    /// whose voxel also appears among the neighbouring ray's voxels.
    pub inter_ray: Vec<f64>,
    /// Fig. 15(b): per level, the largest number of sample points of a
    /// single ray falling into one voxel (averaged over rays).
    pub intra_ray: Vec<f64>,
}

/// Profiles voxel repetition between horizontally neighbouring rays and
/// within single rays, over every `stride`-th pixel.
pub fn repetition_rates(
    model: &NgpModel,
    cam: &Camera,
    samples_per_ray: usize,
    stride: u32,
) -> RepetitionProfile {
    let cfg = model.encoder().config().clone();
    let levels = cfg.levels;
    let mut inter_acc = vec![0.0f64; levels];
    let mut inter_n = 0usize;
    let mut intra_acc = vec![0.0f64; levels];
    let mut intra_n = 0usize;

    let voxels_of_ray = |px: u32, py: u32| -> Option<Vec<Vec<(u32, u32, u32)>>> {
        let ray = cam.ray_for_pixel(px, py);
        let tr = model.bounds().intersect(&ray)?;
        let mut per_level = vec![Vec::with_capacity(samples_per_ray); levels];
        for t in tr.midpoints(samples_per_ray) {
            let p01 = model.bounds().normalize(ray.at(t));
            for (lv, table) in per_level.iter_mut().zip(model.encoder().tables().iter()) {
                lv.push(table.plan().voxel_of(p01).0);
            }
        }
        Some(per_level)
    };

    for py in (0..cam.height()).step_by(stride.max(1) as usize) {
        for px in (0..cam.width().saturating_sub(1)).step_by(stride.max(1) as usize) {
            let (Some(a), Some(b)) = (voxels_of_ray(px, py), voxels_of_ray(px + 1, py)) else {
                continue;
            };
            for l in 0..levels {
                let set_b: std::collections::HashSet<_> = b[l].iter().collect();
                let shared = a[l].iter().filter(|v| set_b.contains(v)).count();
                inter_acc[l] += shared as f64 / a[l].len().max(1) as f64;
            }
            inter_n += 1;
            // intra-ray: max run of identical voxels per level for ray a
            for l in 0..levels {
                let mut counts: std::collections::HashMap<(u32, u32, u32), u32> =
                    std::collections::HashMap::new();
                for v in &a[l] {
                    *counts.entry(*v).or_default() += 1;
                }
                let max = counts.values().copied().max().unwrap_or(0);
                intra_acc[l] += max as f64;
            }
            intra_n += 1;
        }
    }
    RepetitionProfile {
        inter_ray: inter_acc.iter().map(|v| v / inter_n.max(1) as f64).collect(),
        intra_ray: intra_acc.iter().map(|v| v / intra_n.max(1) as f64).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fit_ngp;
    use crate::grid::GridConfig;
    use asdr_scenes::registry;

    fn test_model(name: &str) -> NgpModel {
        fit_ngp(registry::handle(name).build().as_ref(), &GridConfig::tiny())
    }

    #[test]
    fn trace_is_nonempty_and_irregular() {
        let model = test_model("Lego");
        let cam = registry::handle("Lego").camera(16, 16);
        let trace = trace_addresses(&model, &cam, 32, 200);
        assert!(trace.len() >= 200 * 8);
        // Fig. 4's point: the hash stream has huge strides compared to the
        // feature row size
        let stride = mean_address_stride(&trace);
        assert!(stride > 1000.0, "hash addresses should be scattered, stride={stride}");
    }

    #[test]
    fn flops_breakdown_sums_to_100_and_color_dominates() {
        let model = test_model("Mic");
        let (e, d, c) = flops_breakdown(&model);
        assert!((e + d + c - 100.0).abs() < 1e-9);
        assert!(c > d && d > e, "expected color > density > encoding: {e:.1}/{d:.1}/{c:.1}");
        assert!(c > 50.0, "color MLP should dominate: {c:.1}%");
    }

    #[test]
    fn color_similarity_is_high() {
        // Fig. 8: adjacent in-object samples have near-identical colors
        let model = test_model("Hotdog");
        let cam = registry::handle("Hotdog").camera(24, 24);
        let stats = color_similarity(&model, &cam, 48, 2);
        assert!(stats.count > 50, "too few pairs: {}", stats.count);
        assert!(stats.frac_high > 0.8, "high-similarity fraction {}", stats.frac_high);
        assert!(stats.p05 > 0.5, "p05 {}", stats.p05);
    }

    #[test]
    fn repetition_decreases_with_resolution() {
        // Fig. 15: coarse levels share almost all voxels between
        // neighbouring rays; the finest level shares fewer.
        // neighbouring-pixel locality needs a realistic pixel pitch: use a
        // fine camera but probe only every 16th pixel
        let model = test_model("Chair");
        let cam = registry::handle("Chair").camera(96, 96);
        let prof = repetition_rates(&model, &cam, 48, 16);
        let l = prof.inter_ray.len();
        assert!(prof.inter_ray[0] > prof.inter_ray[l - 1]);
        assert!(prof.inter_ray[0] > 0.85, "coarse inter-ray repetition {}", prof.inter_ray[0]);
        // intra-ray: many samples share the coarsest voxel
        assert!(prof.intra_ray[0] > prof.intra_ray[l - 1]);
        assert!(prof.intra_ray[0] > 4.0);
    }

    #[test]
    fn histogram_counts_match_total() {
        let stats = summarize_similarities(&[0.05, 0.5, 0.95, 0.99, 1.0]);
        let total: u64 = stats.histogram.iter().sum();
        assert_eq!(total, 5);
        assert_eq!(stats.count, 5);
    }
}
