//! Crossbar geometry, tiling, costs, and functional quantized MVM.
//!
//! The paper configures 64×64 crossbars with 5-bit ADCs (§6.1). A weight
//! matrix is tiled across crossbars; inputs stream in bit-serially through
//! 1-bit DACs, so one analog MVM of a tile takes `input_bits` array
//! activations, each followed by one ADC conversion per column.

use crate::device::MemTech;
use crate::energy::EnergyTable;

/// Geometry and precision of a CIM crossbar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XbarGeometry {
    /// Wordlines (input rows).
    pub rows: usize,
    /// Bitlines (output columns).
    pub cols: usize,
    /// ADC resolution in bits.
    pub adc_bits: u32,
    /// Input (DAC) resolution streamed bit-serially.
    pub input_bits: u32,
    /// Weight resolution; weights occupy `weight_bits / bits_per_cell`
    /// columns.
    pub weight_bits: u32,
    /// Bits per memory cell (1 for SLC ReRAM).
    pub bits_per_cell: u32,
}

impl XbarGeometry {
    /// The paper's configuration: 64×64, 5-bit ADC, 8-bit inputs/weights,
    /// SLC cells.
    pub fn paper() -> Self {
        XbarGeometry {
            rows: 64,
            cols: 64,
            adc_bits: 5,
            input_bits: 8,
            weight_bits: 8,
            bits_per_cell: 1,
        }
    }

    /// Physical columns one logical weight occupies.
    pub fn cols_per_weight(&self) -> usize {
        (self.weight_bits / self.bits_per_cell) as usize
    }

    /// Logical weights per crossbar row.
    pub fn weights_per_row(&self) -> usize {
        self.cols / self.cols_per_weight()
    }

    /// `(row_tiles, col_tiles)` needed to map an `out_dim × in_dim` weight
    /// matrix onto crossbars of this geometry.
    pub fn tiles_for(&self, out_dim: usize, in_dim: usize) -> (usize, usize) {
        let row_tiles = in_dim.div_ceil(self.rows);
        let col_tiles = out_dim.div_ceil(self.weights_per_row());
        (row_tiles, col_tiles)
    }

    /// Crossbar count for a weight matrix.
    pub fn xbars_for(&self, out_dim: usize, in_dim: usize) -> usize {
        let (r, c) = self.tiles_for(out_dim, in_dim);
        r * c
    }

    /// Cycles for one MVM against a matrix of the given shape, assuming all
    /// tiles operate in parallel and inputs stream bit-serially.
    pub fn mvm_cycles(&self, tech: MemTech) -> u64 {
        // one array activation per input bit + one cycle of shift/add merge
        let base = self.input_bits as u64 + 1;
        ((base as f64) * tech.mvm_latency_factor()).ceil() as u64
    }

    /// ADC conversions of one MVM over a matrix (every column of every tile
    /// converts once per input bit).
    pub fn adc_conversions(&self, out_dim: usize, in_dim: usize) -> u64 {
        let (row_tiles, _) = self.tiles_for(out_dim, in_dim);
        // each logical output column uses cols_per_weight physical columns
        let phys_cols = out_dim * self.cols_per_weight();
        row_tiles as u64 * phys_cols as u64 * self.input_bits as u64
    }

    /// Energy (pJ) of one MVM over an `out_dim × in_dim` matrix.
    pub fn mvm_energy_pj(
        &self,
        out_dim: usize,
        in_dim: usize,
        tech: MemTech,
        e: &EnergyTable,
    ) -> f64 {
        let adcs = self.adc_conversions(out_dim, in_dim) as f64;
        let dacs = (in_dim as u64 * self.input_bits as u64) as f64;
        let array = self.xbars_for(out_dim, in_dim) as f64 * self.input_bits as f64;
        (adcs * e.adc_conversion_pj + dacs * e.dac_drive_pj + array * e.xbar_activation_pj)
            * tech.read_energy_factor()
    }

    /// Functional bit-serial, bit-sliced MVM through the analog datapath.
    ///
    /// Inputs and weights are quantized to the configured bit widths with
    /// *offset (unsigned) encoding* — the standard CIM trick: the analog
    /// array computes `Σ w'·x'` over non-negative operands while the digital
    /// backend subtracts the exact offset correction terms. Each clock cycle
    /// one input bit drives the array and every column's pop-count-like sum
    /// (≤ `rows`) passes through the `adc_bits` ADC, which is where precision
    /// is lost. Returns the dequantized outputs.
    ///
    /// Used by tests and the accuracy ablation to bound the quality impact
    /// of the 5-bit ADCs the paper configures.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != out_dim * x.len()`.
    pub fn mvm_quantized(&self, weights: &[f32], x: &[f32], out_dim: usize) -> Vec<f32> {
        let in_dim = x.len();
        assert_eq!(weights.len(), out_dim * in_dim, "weight shape mismatch");
        let w_absmax = weights.iter().fold(0.0f32, |m, w| m.max(w.abs())).max(1e-12);
        let x_absmax = x.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-12);
        let w_half = (1i64 << (self.weight_bits - 1)) - 1; // e.g. 127
        let x_half = (1i64 << (self.input_bits - 1)) - 1;
        // offset-encoded unsigned operands in [0, 2·half]
        let wq: Vec<i64> = weights
            .iter()
            .map(|w| ((w / w_absmax) * w_half as f32).round() as i64 + w_half)
            .collect();
        let xq: Vec<i64> =
            x.iter().map(|v| ((v / x_absmax) * x_half as f32).round() as i64 + x_half).collect();

        // ADC step: column counts reach `rows`, the ADC resolves 2^bits − 1
        // levels
        let adc_levels = (1i64 << self.adc_bits) - 1;
        let step = ((self.rows as i64 + adc_levels - 1) / adc_levels).max(1);

        let row_tiles = in_dim.div_ceil(self.rows);
        let scale = (w_absmax / w_half as f32) * (x_absmax / x_half as f32);
        let sum_xq: i64 = xq.iter().sum();
        let mut out = vec![0.0f32; out_dim];
        for (o, out_v) in out.iter_mut().enumerate() {
            let wrow = &wq[o * in_dim..(o + 1) * in_dim];
            let mut analog = 0i64; // Σ w'·x' reconstructed from bit slices
            for tile in 0..row_tiles {
                let lo = tile * self.rows;
                let hi = (lo + self.rows).min(in_dim);
                for ib in 0..self.input_bits {
                    for wb in 0..self.weight_bits {
                        // column pop-count for this (input bit, weight bit)
                        let mut colsum = 0i64;
                        for i in lo..hi {
                            let xbit = (xq[i] >> ib) & 1;
                            let wbit = (wrow[i] >> wb) & 1;
                            colsum += xbit & wbit;
                        }
                        // ADC quantization of the analog column current,
                        // ties to even: half-up would lift every odd count
                        // when `step` is 2
                        let (level, rest) = (colsum.div_euclid(step), colsum.rem_euclid(step));
                        let up = 2 * rest > step || (2 * rest == step && level % 2 == 1);
                        let q = (level + i64::from(up)) * step;
                        analog += q << (ib + wb);
                    }
                }
            }
            // exact digital offset correction:
            // Σ(w'−W)(x'−X) = Σw'x' − X·Σw' − W·Σx' + n·W·X
            let sum_wq: i64 = wrow.iter().sum();
            let corrected =
                analog - x_half * sum_wq - w_half * sum_xq + in_dim as i64 * w_half * x_half;
            *out_v = corrected as f32 * scale;
        }
        out
    }

    /// Like [`Self::mvm_quantized`] but with multiplicative Gaussian
    /// conductance noise of relative standard deviation `sigma` applied to
    /// each analog column sum — the dominant ReRAM non-ideality
    /// (device-to-device variation). Deterministic per `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != out_dim * x.len()` or `sigma < 0`.
    pub fn mvm_quantized_noisy(
        &self,
        weights: &[f32],
        x: &[f32],
        out_dim: usize,
        sigma: f64,
        seed: u64,
    ) -> Vec<f32> {
        assert!(sigma >= 0.0, "noise sigma must be non-negative");
        let clean = self.mvm_quantized(weights, x, out_dim);
        if sigma == 0.0 {
            return clean;
        }
        // Box–Muller over a splitmix64 stream
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        clean
            .into_iter()
            .map(|v| {
                let u1 = next().max(1e-12);
                let u2 = next();
                let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                v * (1.0 + sigma * g) as f32
            })
            .collect()
    }

    /// Exact float MVM with the same signature (reference for tests).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != out_dim * x.len()`.
    pub fn mvm_exact(&self, weights: &[f32], x: &[f32], out_dim: usize) -> Vec<f32> {
        let in_dim = x.len();
        assert_eq!(weights.len(), out_dim * in_dim, "weight shape mismatch");
        (0..out_dim)
            .map(|o| weights[o * in_dim..(o + 1) * in_dim].iter().zip(x).map(|(w, v)| w * v).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_math::rng::seeded;
    use rand::Rng;

    #[test]
    fn paper_geometry_tiling() {
        let g = XbarGeometry::paper();
        assert_eq!(g.cols_per_weight(), 8);
        assert_eq!(g.weights_per_row(), 8);
        // density MLP layer 32→64: 32 input rows → 1 row tile; 64 outputs /
        // 8 weights per row → 8 col tiles
        assert_eq!(g.tiles_for(64, 32), (1, 8));
        assert_eq!(g.xbars_for(64, 32), 8);
        // 64→64 layer
        assert_eq!(g.tiles_for(64, 64), (1, 8));
    }

    #[test]
    fn cycles_scale_with_tech() {
        let g = XbarGeometry::paper();
        let r = g.mvm_cycles(MemTech::Reram);
        let s = g.mvm_cycles(MemTech::SramDigital);
        assert_eq!(r, 9); // 8 input bits + merge
        assert!(s > r);
    }

    #[test]
    fn energy_grows_with_matrix_size() {
        let g = XbarGeometry::paper();
        let e = EnergyTable::default();
        let small = g.mvm_energy_pj(16, 32, MemTech::Reram, &e);
        let large = g.mvm_energy_pj(64, 64, MemTech::Reram, &e);
        assert!(large > small);
        assert!(small > 0.0);
        // SRAM digital costs more
        let dig = g.mvm_energy_pj(64, 64, MemTech::SramDigital, &e);
        assert!(dig > large);
    }

    #[test]
    fn quantized_mvm_with_sufficient_adc_is_near_exact() {
        // ISAAC's rule: exact slice conversion needs log2(rows)+1 = 7 bits
        // for 64 rows. With 8 bits the only residual error is the 8-bit
        // operand quantization itself.
        let g = XbarGeometry { adc_bits: 8, ..XbarGeometry::paper() };
        let mut rng = seeded("xbar-quant", 0);
        let out_dim = 16;
        let in_dim = 96; // forces 2 row tiles
        let w: Vec<f32> = (0..out_dim * in_dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let x: Vec<f32> = (0..in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let exact = g.mvm_exact(&w, &x, out_dim);
        let quant = g.mvm_quantized(&w, &x, out_dim);
        let scale = exact.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
        for (e, q) in exact.iter().zip(&quant) {
            let rel = (e - q).abs() / scale;
            assert!(rel < 0.02, "quantized output too far off: {e} vs {q}");
        }
    }

    #[test]
    fn paper_adc_keeps_outputs_correlated() {
        // at the paper's 5-bit ADC the outputs are noisy but must stay
        // strongly correlated with the exact results
        let g = XbarGeometry::paper();
        let mut rng = seeded("xbar-quant5", 0);
        let out_dim = 32;
        let in_dim = 64;
        let w: Vec<f32> = (0..out_dim * in_dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let x: Vec<f32> = (0..in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let exact = g.mvm_exact(&w, &x, out_dim);
        let quant = g.mvm_quantized(&w, &x, out_dim);
        let me = exact.iter().sum::<f32>() / out_dim as f32;
        let mq = quant.iter().sum::<f32>() / out_dim as f32;
        let (mut cov, mut ve, mut vq) = (0.0f64, 0.0f64, 0.0f64);
        for (e, q) in exact.iter().zip(&quant) {
            cov += ((e - me) * (q - mq)) as f64;
            ve += ((e - me) * (e - me)) as f64;
            vq += ((q - mq) * (q - mq)) as f64;
        }
        let corr = cov / (ve.sqrt() * vq.sqrt()).max(1e-12);
        assert!(corr > 0.85, "correlation {corr} too low");
    }

    #[test]
    fn higher_adc_resolution_is_more_accurate() {
        let lo = XbarGeometry { adc_bits: 3, ..XbarGeometry::paper() };
        let hi = XbarGeometry { adc_bits: 9, ..XbarGeometry::paper() };
        let mut rng = seeded("xbar-adc", 1);
        let out_dim = 8;
        let in_dim = 64;
        let w: Vec<f32> = (0..out_dim * in_dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let x: Vec<f32> = (0..in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let exact = lo.mvm_exact(&w, &x, out_dim);
        let err = |g: &XbarGeometry| -> f32 {
            g.mvm_quantized(&w, &x, out_dim).iter().zip(&exact).map(|(q, e)| (q - e).abs()).sum()
        };
        assert!(err(&hi) <= err(&lo), "more ADC bits must not hurt: {} vs {}", err(&hi), err(&lo));
    }

    #[test]
    fn conductance_noise_is_deterministic_and_scales() {
        let g = XbarGeometry { adc_bits: 8, ..XbarGeometry::paper() };
        let mut rng = seeded("xbar-noise", 0);
        let out_dim = 8;
        let in_dim = 32;
        let w: Vec<f32> = (0..out_dim * in_dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let x: Vec<f32> = (0..in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let clean = g.mvm_quantized(&w, &x, out_dim);
        // zero sigma = clean; same seed = same noise
        assert_eq!(g.mvm_quantized_noisy(&w, &x, out_dim, 0.0, 1), clean);
        let a = g.mvm_quantized_noisy(&w, &x, out_dim, 0.05, 7);
        let b = g.mvm_quantized_noisy(&w, &x, out_dim, 0.05, 7);
        assert_eq!(a, b);
        // more noise → larger deviation (on average)
        let dev =
            |ys: &[f32]| -> f32 { ys.iter().zip(&clean).map(|(y, c)| (y - c).abs()).sum::<f32>() };
        let lo = dev(&g.mvm_quantized_noisy(&w, &x, out_dim, 0.01, 3));
        let hi = dev(&g.mvm_quantized_noisy(&w, &x, out_dim, 0.2, 3));
        assert!(hi > lo, "noise should scale: {hi} vs {lo}");
    }

    #[test]
    fn zero_input_gives_near_zero_output() {
        // offset encoding leaves only ADC rounding residue on zero inputs
        let g = XbarGeometry { adc_bits: 8, ..XbarGeometry::paper() };
        let w = vec![0.3f32; 4 * 8];
        let x = vec![0.0f32; 8];
        for v in g.mvm_quantized(&w, &x, 4) {
            assert!(v.abs() < 0.05, "residual {v} too large");
        }
    }
}
