//! Property-based tests of the CIM device models.

use asdr_cim::buffer::BufferModel;
use asdr_cim::device::MemTech;
use asdr_cim::energy::EnergyTable;
use asdr_cim::systolic::SystolicArray;
use asdr_cim::XbarGeometry;
use proptest::prelude::*;

proptest! {
    #[test]
    fn tiling_covers_any_matrix(out_dim in 1usize..512, in_dim in 1usize..512) {
        let g = XbarGeometry::paper();
        let (row_tiles, col_tiles) = g.tiles_for(out_dim, in_dim);
        // tiles must cover the matrix…
        prop_assert!(row_tiles * g.rows >= in_dim);
        prop_assert!(col_tiles * g.weights_per_row() >= out_dim);
        // …without an entire spare tile row/column
        prop_assert!((row_tiles - 1) * g.rows < in_dim);
        prop_assert!((col_tiles - 1) * g.weights_per_row() < out_dim);
        prop_assert_eq!(g.xbars_for(out_dim, in_dim), row_tiles * col_tiles);
    }

    #[test]
    fn mvm_energy_is_monotone_in_size(
        o1 in 1usize..128, i1 in 1usize..128, grow_o in 1usize..4, grow_i in 1usize..4,
    ) {
        let g = XbarGeometry::paper();
        let e = EnergyTable::default();
        let small = g.mvm_energy_pj(o1, i1, MemTech::Reram, &e);
        let large = g.mvm_energy_pj(o1 * grow_o, i1 * grow_i, MemTech::Reram, &e);
        prop_assert!(large >= small);
        prop_assert!(small > 0.0);
    }

    #[test]
    fn quantized_mvm_is_deterministic_and_finite(
        seed in 0u64..64, out_dim in 1usize..16, in_dim in 1usize..48,
    ) {
        let g = XbarGeometry::paper();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state & 0xffff) as f32 / 32768.0) - 1.0
        };
        let w: Vec<f32> = (0..out_dim * in_dim).map(|_| next()).collect();
        let x: Vec<f32> = (0..in_dim).map(|_| next()).collect();
        let a = g.mvm_quantized(&w, &x, out_dim);
        let b = g.mvm_quantized(&w, &x, out_dim);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|v| v.is_finite()));
        // output magnitude bounded by the exact worst case plus the ADC
        // rounding residue, whose absolute size is set by the step and
        // operand scales (not by the signal) — ~½ step over 2^16 slice
        // weights at the per-unit operand scale
        let bound: f32 = w.iter().map(|v| v.abs()).sum::<f32>()
            * x.iter().map(|v| v.abs()).fold(0.0, f32::max)
            + 10.0;
        prop_assert!(a.iter().all(|v| v.abs() <= bound), "{a:?} vs bound {bound}");
    }

    #[test]
    fn exact_mvm_matches_manual_dot(
        out_dim in 1usize..8, in_dim in 1usize..16, seed in 0u64..32,
    ) {
        let g = XbarGeometry::paper();
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) & 0xff) as f32 / 128.0 - 1.0
        };
        let w: Vec<f32> = (0..out_dim * in_dim).map(|_| next()).collect();
        let x: Vec<f32> = (0..in_dim).map(|_| next()).collect();
        let y = g.mvm_exact(&w, &x, out_dim);
        for (o, yo) in y.iter().enumerate() {
            let manual: f32 = (0..in_dim).map(|i| w[o * in_dim + i] * x[i]).sum();
            prop_assert!((yo - manual).abs() < 1e-4);
        }
    }

    #[test]
    fn buffer_costs_are_monotone_in_capacity(kb1 in 1usize..64, grow in 2usize..16) {
        let small = BufferModel::new(kb1 * 1024, 32);
        let large = BufferModel::new(kb1 * grow * 1024, 32);
        prop_assert!(large.access_energy_pj() >= small.access_energy_pj());
        prop_assert!(large.access_cycles() >= small.access_cycles());
        prop_assert!(large.area_mm2() > small.area_mm2());
    }

    #[test]
    fn systolic_cycles_scale_with_work(o in 1usize..128, i in 1usize..128) {
        let sa = SystolicArray::area_matched32();
        let one = sa.mvm_cycles(o, i);
        let double = sa.mvm_cycles(o * 2, i);
        prop_assert!(double >= one);
        prop_assert!(one >= 1);
        // throughput cannot exceed the PE count
        let min_cycles = ((o * i) as f64 / (sa.rows * sa.cols) as f64).floor() as u64;
        prop_assert!(one >= min_cycles);
    }

    #[test]
    fn tech_factors_preserve_ordering_for_any_shape(o in 1usize..96, i in 1usize..96) {
        let g = XbarGeometry::paper();
        let e = EnergyTable::default();
        let reram = g.mvm_energy_pj(o, i, MemTech::Reram, &e);
        let sram = g.mvm_energy_pj(o, i, MemTech::SramCim, &e);
        prop_assert!(reram < sram, "{reram} vs {sram}");
        prop_assert!(g.mvm_cycles(MemTech::Reram) <= g.mvm_cycles(MemTech::SramCim));
    }
}

/// More ADC bits never make the analog MVM worse: relative RMS error of a
/// 64×64 layer over 16 inputs is non-increasing from 3 to 9 bits. Rounding
/// the column sums half-up broke this at 6 bits, where the step is 2.
#[test]
fn quantized_mvm_error_does_not_grow_with_adc_bits() {
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    };
    let (out_dim, in_dim) = (64, 64);
    let w: Vec<f32> = (0..out_dim * in_dim).map(|_| next() * 0.5).collect();
    let inputs: Vec<Vec<f32>> = (0..16).map(|_| (0..in_dim).map(|_| next()).collect()).collect();
    let errors: Vec<f64> = (3..=9)
        .map(|adc_bits| {
            let g = XbarGeometry { adc_bits, ..XbarGeometry::paper() };
            let (mut num, mut den) = (0.0f64, 0.0f64);
            for x in &inputs {
                let exact = g.mvm_exact(&w, x, out_dim);
                for (e, a) in exact.iter().zip(g.mvm_quantized(&w, x, out_dim)) {
                    num += f64::from(e - a).powi(2);
                    den += f64::from(*e).powi(2);
                }
            }
            (num / den).sqrt()
        })
        .collect();
    assert!(errors.windows(2).all(|p| p[1] <= p[0]), "error grew with ADC bits: {errors:?}");
}
