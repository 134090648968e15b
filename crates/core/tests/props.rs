//! Property-based tests of the ASDR algorithms and architecture components.

mod common;

use asdr_core::algo::adaptive::{choose_count, AdaptiveConfig, SamplePlan};
use asdr_core::algo::volrend::{
    composite, composite_early_term, composite_subsampled, SamplePoint,
};
use asdr_core::algo::RenderOptions;
use asdr_core::arch::addrgen::{HybridAddressGenerator, MappingMode};
use asdr_core::arch::RegCache;
use asdr_math::{Camera, Rgb, Vec3};
use asdr_nerf::fit::fit_ngp;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::NgpModel;
use asdr_scenes::registry;
use common::assert_matches_reference;
use proptest::prelude::*;
use std::collections::HashSet;

fn sample_points(sigmas: Vec<f32>, colors: Vec<(f32, f32, f32)>) -> Vec<SamplePoint> {
    sigmas
        .into_iter()
        .zip(colors)
        .enumerate()
        .map(|(i, (sigma, (r, g, b)))| SamplePoint {
            t: i as f32 * 0.03,
            sigma,
            color: Rgb::new(r, g, b),
        })
        .collect()
}

fn points_strategy(n: usize) -> impl Strategy<Value = Vec<SamplePoint>> {
    (
        proptest::collection::vec(0.0f32..60.0, n),
        proptest::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), n),
    )
        .prop_map(|(s, c)| sample_points(s, c))
}

/// One fitted Lego for every case of the reference property.
fn lego() -> &'static NgpModel {
    static LEGO: std::sync::OnceLock<NgpModel> = std::sync::OnceLock::new();
    LEGO.get_or_init(|| fit_ngp(registry::handle("Lego").build().as_ref(), &GridConfig::tiny()))
}

proptest! {
    #[test]
    fn the_march_equals_the_scalar_reference_for_any_count_group_and_ray(
        count in 1usize..=48, group in 1usize..=6, et in 0u8..2,
        az in 0.0f32..360.0, el in -80.0f32..80.0, radius in 0.5f32..5.0,
    ) {
        // 16 rays from anywhere around (or inside) the model, fixed count so
        // the case's `count` and `group` are what every ray is marched at
        let cam = Camera::orbit(Vec3::ZERO, radius, az, el, 50.0, 4, 4);
        let opts = RenderOptions {
            approx_group: group,
            early_termination: et == 1,
            ..RenderOptions::instant_ngp(count)
        };
        assert_matches_reference(lego(), &cam, &opts, "random rays");
    }

    #[test]
    fn transmittance_is_in_unit_interval_and_monotone(pts in points_strategy(48)) {
        let r = composite(&pts);
        prop_assert!(r.transmittance >= 0.0 && r.transmittance <= 1.0);
        // removing density can only increase transmittance
        let mut lighter = pts.clone();
        for p in &mut lighter {
            p.sigma *= 0.5;
        }
        let r2 = composite(&lighter);
        prop_assert!(r2.transmittance >= r.transmittance - 1e-5);
    }

    #[test]
    fn composite_color_channels_bounded(pts in points_strategy(32)) {
        let r = composite(&pts);
        for ch in [r.color.r, r.color.g, r.color.b] {
            prop_assert!((0.0..=1.0).contains(&ch));
        }
    }

    #[test]
    fn early_termination_never_consumes_more(pts in points_strategy(64)) {
        let full = composite(&pts);
        let et = composite_early_term(&pts);
        prop_assert!(et.consumed <= full.consumed);
        // and never changes the color beyond the transmittance bound
        let diff = full.color.max_channel_abs_diff(et.color);
        prop_assert!(diff <= 2e-4 + 2.0 * asdr_core::algo::volrend::EARLY_TERM_TRANSMITTANCE);
    }

    #[test]
    fn subsampling_consumes_ceil_div(pts in points_strategy(50), stride in 1usize..8) {
        let r = composite_subsampled(&pts, stride);
        prop_assert_eq!(r.consumed, pts.len().div_ceil(stride));
    }

    #[test]
    fn chosen_count_is_from_ladder_or_base(pts in points_strategy(48), delta in 0.0f32..0.2) {
        let cfg = AdaptiveConfig { delta, ..AdaptiveConfig::paper(48) };
        let c = choose_count(&pts, &cfg, 48);
        prop_assert!(cfg.ladder.contains(&c) || c == 48);
        // a looser threshold can only pick an equal-or-smaller count
        let looser = AdaptiveConfig { delta: delta + 0.1, ..AdaptiveConfig::paper(48) };
        prop_assert!(choose_count(&pts, &looser, 48) <= c);
    }

    #[test]
    fn plan_counts_bounded_by_probe_extremes(
        probes in proptest::collection::vec(proptest::collection::vec(1u32..64, 4), 4),
        d in 2u32..8,
    ) {
        let plan = SamplePlan::from_probes(8, 8, 64, d, &probes);
        let lo = probes.iter().flatten().copied().min().unwrap();
        let hi = probes.iter().flatten().copied().max().unwrap();
        for y in 0..8 {
            for x in 0..8 {
                let c = plan.count(x, y);
                prop_assert!(c >= lo && c <= hi, "count {c} outside [{lo},{hi}]");
            }
        }
        prop_assert!(plan.average() >= lo as f64 && plan.average() <= hi as f64);
    }

    #[test]
    fn regcache_matches_reference_lru(
        stream in proptest::collection::vec(0u64..24, 1..200),
        cap in 1usize..9,
    ) {
        // reference LRU: vector ordered by recency
        let mut cache = RegCache::new(cap);
        let mut reference: Vec<u64> = Vec::new();
        for &tag in &stream {
            let expected_hit = reference.contains(&tag);
            let got_hit = cache.access(tag);
            prop_assert_eq!(got_hit, expected_hit);
            reference.retain(|&t| t != tag);
            reference.insert(0, tag);
            reference.truncate(cap);
        }
    }

    #[test]
    fn dehashed_addresses_injective_within_dense_level(
        coords in proptest::collection::hash_set((0u32..9, 0u32..9, 0u32..9), 1..60),
    ) {
        let gen = HybridAddressGenerator::new(GridConfig::tiny(), MappingMode::Hybrid);
        let mut seen = HashSet::new();
        for &(x, y, z) in &coords {
            prop_assert!(seen.insert(gen.translate(0, x, y, z, 0)), "collision at ({x},{y},{z})");
        }
    }

    #[test]
    fn voxel_corner_fanout_holds_for_random_voxels(
        bx in 0u32..7, by in 0u32..7, bz in 0u32..7,
    ) {
        // hybrid mapping sends the 8 corners of any voxel to 8 distinct
        // crossbars (the §5.2.1 guarantee)
        let gen = HybridAddressGenerator::new(GridConfig::tiny(), MappingMode::Hybrid);
        let xbars: HashSet<u32> = (0..8u32)
            .map(|i| {
                let (dx, dy, dz) = (i & 1, (i >> 1) & 1, (i >> 2) & 1);
                gen.translate(0, bx + dx, by + dy, bz + dz, 0).xbar
            })
            .collect();
        prop_assert_eq!(xbars.len(), 8);
    }
}
