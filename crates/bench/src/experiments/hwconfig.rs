//! Hardware-configuration study: Figs. 26–27 — ASDR with a systolic array
//! (SA), SRAM CIM macros, or native ReRAM (§6.9).

use crate::{fmt_x, print_header, print_row, Harness};
use asdr_baselines::gpu::{simulate_gpu, GpuSpec};
use asdr_baselines::neurex::{simulate_neurex, NeurexVariant};
use asdr_cim::device::MemTech;
use asdr_core::algo::RenderOptions;
use asdr_core::arch::chip::{simulate_chip, ChipOptions};
use asdr_scenes::SceneHandle;

/// One scene's results across hardware configurations (speedup and energy
/// efficiency normalized to the setting's GPU).
#[derive(Debug, Clone)]
pub struct HwConfigRow {
    /// Scene.
    pub id: SceneHandle,
    /// NeuRex reference.
    pub neurex_speedup: f64,
    /// ASDR(SA): SRAM encoding + systolic MLP.
    pub sa_speedup: f64,
    /// ASDR(SRAM): SRAM CIM macros.
    pub sram_speedup: f64,
    /// ASDR(ReRAM): native.
    pub reram_speedup: f64,
    /// Energy-efficiency ratios in the same order (NeuRex, SA, SRAM, ReRAM).
    pub energy_eff: [f64; 4],
}

/// Runs Figs. 26–27 for one setting (`server = true` → RTX 3070 + server
/// configs).
pub fn run_hwconfig(h: &mut Harness, scenes: &[SceneHandle], server: bool) -> Vec<HwConfigRow> {
    let base_ns = h.scale().base_ns();
    let asdr_opts = h.asdr_options();
    scenes
        .iter()
        .map(|id| {
            let model = h.model(id);
            let cam = h.camera(id);
            let cfg = model.encoder().config().clone();
            let fixed = h.render(&*model, &cam, &RenderOptions::instant_ngp(base_ns));
            let asdr = h.render(&*model, &cam, &asdr_opts);
            let gpu_spec = if server { GpuSpec::rtx3070() } else { GpuSpec::xavier_nx() };
            let gpu = simulate_gpu(&gpu_spec, &*model, &fixed.stats, cfg.levels, cfg.feat_dim);
            let neurex = simulate_neurex(
                &model,
                &fixed.stats,
                if server { NeurexVariant::Server } else { NeurexVariant::Edge },
            );
            let chip = |tech: MemTech| {
                let base = if server { ChipOptions::server() } else { ChipOptions::edge() };
                simulate_chip(&model, &cam, &asdr, &ChipOptions { tech, ..base })
            };
            let sa = chip(MemTech::SramDigital);
            let sram = chip(MemTech::SramCim);
            let reram = chip(MemTech::Reram);
            HwConfigRow {
                id: id.clone(),
                neurex_speedup: gpu.total_s / neurex.total_s,
                sa_speedup: gpu.total_s / sa.time_s,
                sram_speedup: gpu.total_s / sram.time_s,
                reram_speedup: gpu.total_s / reram.time_s,
                energy_eff: [
                    gpu.energy_j / neurex.energy_j,
                    gpu.energy_j / sa.total_energy_j,
                    gpu.energy_j / sram.total_energy_j,
                    gpu.energy_j / reram.total_energy_j,
                ],
            }
        })
        .collect()
}

/// Prints Fig. 26 (speedup).
pub fn print_fig26(rows: &[HwConfigRow], server: bool) {
    let setting = if server { "Server (RTX 3070 = 1x)" } else { "Edge (Xavier NX = 1x)" };
    println!("\nFig. 26: Speedup across hardware configurations — {setting}");
    print_header(&["Scene", "NeuRex", "ASDR(SA)", "ASDR(SRAM)", "ASDR(ReRAM)"]);
    let mut acc = [0.0f64; 4];
    for r in rows {
        acc[0] += r.neurex_speedup;
        acc[1] += r.sa_speedup;
        acc[2] += r.sram_speedup;
        acc[3] += r.reram_speedup;
        print_row(&[
            r.id.to_string(),
            fmt_x(r.neurex_speedup),
            fmt_x(r.sa_speedup),
            fmt_x(r.sram_speedup),
            fmt_x(r.reram_speedup),
        ]);
    }
    let n = rows.len() as f64;
    print_row(&[
        "Average".into(),
        fmt_x(acc[0] / n),
        fmt_x(acc[1] / n),
        fmt_x(acc[2] / n),
        fmt_x(acc[3] / n),
    ]);
    println!("(paper server averages: NeuRex 2.89x, SA 8.90x, SRAM 9.53x, ReRAM 11.84x)");
}

/// Prints Fig. 27 (energy efficiency).
pub fn print_fig27(rows: &[HwConfigRow], server: bool) {
    let setting = if server { "Server (RTX 3070 = 1x)" } else { "Edge (Xavier NX = 1x)" };
    println!("\nFig. 27: Energy efficiency across hardware configurations — {setting}");
    print_header(&["Scene", "NeuRex", "ASDR(SA)", "ASDR(SRAM)", "ASDR(ReRAM)"]);
    let mut acc = [0.0f64; 4];
    for r in rows {
        for (a, v) in acc.iter_mut().zip(r.energy_eff) {
            *a += v;
        }
        print_row(&[
            r.id.to_string(),
            fmt_x(r.energy_eff[0]),
            fmt_x(r.energy_eff[1]),
            fmt_x(r.energy_eff[2]),
            fmt_x(r.energy_eff[3]),
        ]);
    }
    let n = rows.len() as f64;
    print_row(&[
        "Average".into(),
        fmt_x(acc[0] / n),
        fmt_x(acc[1] / n),
        fmt_x(acc[2] / n),
        fmt_x(acc[3] / n),
    ]);
    println!("(paper server averages: NeuRex 12.70x, SA 18.22x, SRAM 27.45x, ReRAM 36.06x)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn tech_variants_order_correctly() {
        let mut h = Harness::new(Scale::Tiny);
        let rows = run_hwconfig(&mut h, &["Palace"].map(asdr_scenes::registry::handle), true);
        let r = &rows[0];
        // Fig. 26 ordering among ASDR variants: ReRAM ≥ SRAM ≥ SA
        assert!(r.reram_speedup >= r.sram_speedup * 0.99, "{r:?}");
        assert!(r.sram_speedup >= r.sa_speedup * 0.99, "{r:?}");
        // at the tiny test grid (8 levels) NeuRex fetches half the paper's
        // lookups, flattering it; at evaluation scale SA overtakes it
        // (`experiments fig26`). Here we only require the same order of
        // magnitude.
        assert!(r.sa_speedup > 0.5 * r.neurex_speedup, "{r:?}");
        // Fig. 27 ordering on energy
        assert!(r.energy_eff[3] >= r.energy_eff[2] * 0.99, "{r:?}");
        assert!(r.energy_eff[2] >= r.energy_eff[1] * 0.99, "{r:?}");
    }
}
