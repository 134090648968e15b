//! The CIM MLP engine (§5.3): density and color sub-engines.
//!
//! Each sub-engine maps its MLP's layers onto CIM crossbars (or, for the
//! §6.9 SA variant, a digital systolic array). Layers are pipelined, so the
//! steady-state initiation interval of one point is a single layer's MVM
//! latency; total stage cycles scale with executions over engine count.

use asdr_cim::device::MemTech;
use asdr_cim::energy::EnergyTable;
use asdr_cim::systolic::SystolicArray;
use asdr_cim::XbarGeometry;
use asdr_nerf::mlp::Mlp;

/// A timing/energy model for one MLP bound to a sub-engine type.
#[derive(Debug, Clone)]
pub struct MlpEngineModel {
    layer_dims: Vec<(usize, usize)>, // (out, in)
    xbar: XbarGeometry,
    tech: MemTech,
}

impl MlpEngineModel {
    /// Binds an MLP's shape to the engine.
    pub fn new(mlp: &Mlp, xbar: XbarGeometry, tech: MemTech) -> Self {
        let layer_dims = mlp.layers().iter().map(|l| (l.out_dim(), l.in_dim())).collect();
        MlpEngineModel { layer_dims, xbar, tech }
    }

    /// Latency of one point through the pipeline (all layers).
    pub fn latency_cycles(&self) -> u64 {
        match self.tech {
            MemTech::SramDigital => {
                let sa = SystolicArray::area_matched32();
                self.layer_dims.iter().map(|&(o, i)| sa.mvm_cycles(o, i)).sum()
            }
            _ => self.layer_dims.len() as u64 * self.xbar.mvm_cycles(self.tech),
        }
    }

    /// Steady-state initiation interval: cycles between successive points
    /// entering the pipelined engine. The digital array executes layers
    /// back-to-back on one array, so its interval is the whole latency.
    pub fn initiation_interval(&self) -> u64 {
        match self.tech {
            MemTech::SramDigital => self.latency_cycles(),
            _ => self.xbar.mvm_cycles(self.tech),
        }
    }

    /// Total cycles for `execs` executions spread over `engines` parallel
    /// sub-engines.
    pub fn total_cycles(&self, execs: u64, engines: u32) -> f64 {
        let ii = self.initiation_interval() as f64;
        let fill = self.latency_cycles() as f64;
        execs as f64 * ii / engines.max(1) as f64 + fill
    }

    /// Energy of one execution in pJ.
    pub fn energy_per_exec_pj(&self, e: &EnergyTable) -> f64 {
        match self.tech {
            MemTech::SramDigital => {
                let sa = SystolicArray::area_matched32();
                self.layer_dims.iter().map(|&(o, i)| sa.mvm_energy_pj(o, i, e)).sum()
            }
            _ => self
                .layer_dims
                .iter()
                .map(|&(o, i)| self.xbar.mvm_energy_pj(o, i, self.tech, e))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_nerf::mlp::{Activation, Dense};

    fn density_like() -> Mlp {
        Mlp::new(vec![
            Dense::zeros(32, 64, Activation::Relu),
            Dense::zeros(64, 16, Activation::None),
        ])
    }

    fn color_like() -> Mlp {
        Mlp::new(vec![
            Dense::zeros(31, 64, Activation::Relu),
            Dense::zeros(64, 64, Activation::Relu),
            Dense::zeros(64, 3, Activation::None),
        ])
    }

    #[test]
    fn reram_pipeline_is_fast() {
        let m = MlpEngineModel::new(&density_like(), XbarGeometry::paper(), MemTech::Reram);
        assert_eq!(m.initiation_interval(), 9);
        assert_eq!(m.latency_cycles(), 18);
    }

    #[test]
    fn systolic_variant_has_lower_throughput() {
        // the digital array's steady-state rate (one point per full MLP
        // pass) is well below the layer-pipelined crossbars' rate
        let x = XbarGeometry::paper();
        let r = MlpEngineModel::new(&color_like(), x, MemTech::Reram);
        let s = MlpEngineModel::new(&color_like(), x, MemTech::SramDigital);
        assert!(s.initiation_interval() > r.initiation_interval());
        assert!(s.total_cycles(10_000, 1) > r.total_cycles(10_000, 1));
    }

    #[test]
    fn more_engines_cut_total_cycles() {
        let m = MlpEngineModel::new(&color_like(), XbarGeometry::paper(), MemTech::Reram);
        let one = m.total_cycles(10_000, 1);
        let four = m.total_cycles(10_000, 4);
        assert!(four < one / 3.5, "{four} vs {one}");
    }

    #[test]
    fn energy_ordering_across_techs() {
        let e = EnergyTable::default();
        let mk =
            |t| MlpEngineModel::new(&color_like(), XbarGeometry::paper(), t).energy_per_exec_pj(&e);
        let reram = mk(MemTech::Reram);
        let sram = mk(MemTech::SramCim);
        let digital = mk(MemTech::SramDigital);
        assert!(reram < sram, "{reram} vs {sram}");
        assert!(sram < digital, "{sram} vs {digital}");
    }
}
