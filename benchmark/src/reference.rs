//! The frozen reference kernel every host-time metric is divided by.
//!
//! One unit is 10 000 points × (16 levels × 8 hashed gathers from a 64 KiB
//! table + one 32→64 mat-vec with ReLU): the same mix of dependent loads and
//! multiply-adds as a hash-grid query, but sharing no code with the
//! repository, so a change to the program under test cannot move it. The
//! unit's cost on the recording machine is the committed constant
//! [`REF_NOMINAL_MS`]; it is never measured at run time, because a nominal
//! that followed the host would cancel the very drift it is there to
//! expose.
//!
//! Do not edit this file to make a number look better: every result ever
//! recorded is in units of this kernel.

use std::hint::black_box;
use std::time::Instant;

/// Wall-clock cost of one [`Reference::unit`] on the recording machine
/// (2-vCPU Xeon @ 2.10 GHz, see README) in its usual state, milliseconds.
pub const REF_NOMINAL_MS: f64 = 6.4;

const POINTS: u32 = 10_000;
const LEVELS: usize = 16;
const CORNERS: u32 = 8;
/// 64 KiB of `f32`.
const TABLE_LEN: usize = 16 * 1024;
const IN_DIM: usize = 2 * LEVELS;
const OUT_DIM: usize = 64;

/// The reference kernel's constant inputs.
pub struct Reference {
    table: Vec<f32>,
    weights: Vec<f32>,
}

impl Reference {
    /// Builds the table and weights from a fixed stream: every process on
    /// every machine runs the identical unit.
    pub fn new() -> Self {
        let mut rng = crate::gen::Rng::new(0x005E_ED0F_A5D2);
        let mut unit_f32 = || (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        let table = (0..TABLE_LEN).map(|_| unit_f32()).collect();
        let weights = (0..IN_DIM * OUT_DIM).map(|_| unit_f32() * 0.25).collect();
        Reference { table, weights }
    }

    /// Runs one unit and returns its checksum (identical on every call).
    pub fn unit(&self) -> f32 {
        let table = &self.table[..TABLE_LEN];
        let mut checksum = 0.0f32;
        let mut feat = [0.0f32; IN_DIM];
        for p in 0..POINTS {
            for (level, pair) in feat.chunks_exact_mut(2).enumerate() {
                let (mut a, mut b) = (0.0f32, 0.0f32);
                let base = p.wrapping_mul(0x9E37_79B1) ^ (level as u32).wrapping_mul(0x85EB_CA6B);
                for corner in 0..CORNERS {
                    let h = (base ^ corner.wrapping_mul(0xC2B2_AE35)).wrapping_mul(0x27D4_EB2F);
                    let idx = ((h >> 8) as usize) & (TABLE_LEN - 2);
                    a += table[idx];
                    b += table[idx + 1];
                }
                pair[0] = a * 0.125;
                pair[1] = b * 0.125;
            }
            for row in self.weights.chunks_exact(IN_DIM) {
                let dot: f32 = row.iter().zip(&feat).map(|(w, x)| w * x).sum();
                checksum += dot.max(0.0);
            }
        }
        checksum
    }

    fn timed_once_ms(&self) -> f64 {
        let t0 = Instant::now();
        black_box(black_box(self).unit());
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Times one unit on each of `threads` threads at once and returns the
    /// mean of their own times, milliseconds.
    ///
    /// The reference must occupy the machine the way the work does. A host
    /// whose second vCPU is being squeezed by a neighbour slows a
    /// two-thread frame by 10 % for tens of seconds while a one-thread
    /// reference on the first vCPU sees nothing (measured: six runs of one
    /// frame spread 7.4 % against a one-thread reference, 2.5 % against a
    /// two-thread one), so a workload that keeps two threads busy is
    /// divided by a unit timed on two.
    pub fn timed_ms(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.timed_once_ms();
        }
        let total: f64 = std::thread::scope(|scope| {
            let others: Vec<_> =
                (1..threads).map(|_| scope.spawn(|| self.timed_once_ms())).collect();
            let own = self.timed_once_ms();
            own + others
                .into_iter()
                .map(|h| h.join().expect("the unit does not panic"))
                .sum::<f64>()
        });
        total / threads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_deterministic_and_does_work() {
        let r = Reference::new();
        let a = r.unit();
        assert_eq!(a.to_bits(), r.unit().to_bits());
        assert_eq!(a.to_bits(), Reference::new().unit().to_bits());
        assert!(a.is_finite() && a > 0.0, "checksum {a}");
    }
}
