//! ReRAM and SRAM cell / macro parameters.

/// Technology node assumed throughout (the paper synthesizes at TSMC 28 nm).
pub const TECH_NODE_NM: u32 = 28;

/// Clock frequency of the digital logic (the paper synthesizes at 1 GHz).
pub const CLOCK_HZ: f64 = 1.0e9;

/// Memory technology backing a CIM macro (paper §6.9 compares all three
/// hardware configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTech {
    /// ReRAM crossbar (native ASDR implementation).
    Reram,
    /// SRAM-based CIM macro.
    SramCim,
    /// Plain SRAM + digital systolic array (no analog compute).
    SramDigital,
}

impl MemTech {
    /// Relative read-energy factor versus ReRAM (SRAM macros burn more
    /// leakage/bitline energy per in-memory op; digital arrays pay for
    /// explicit MACs). Calibrated so the §6.9 ordering
    /// `ReRAM > SRAM-CIM > systolic` in energy efficiency holds.
    pub fn read_energy_factor(self) -> f64 {
        match self {
            MemTech::Reram => 1.0,
            MemTech::SramCim => 1.35,
            MemTech::SramDigital => 2.1,
        }
    }

    /// Relative MVM-latency factor versus ReRAM (SRAM CIM macros cycle
    /// slightly faster per bit; the systolic array needs many cycles per
    /// tile).
    pub fn mvm_latency_factor(self) -> f64 {
        match self {
            MemTech::Reram => 1.0,
            MemTech::SramCim => 1.08,
            MemTech::SramDigital => 1.32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tech_ordering_matches_paper_section_6_9() {
        // Figs. 26–27: ReRAM fastest & most efficient, then SRAM-CIM, then
        // systolic array.
        assert!(MemTech::Reram.read_energy_factor() < MemTech::SramCim.read_energy_factor());
        assert!(MemTech::SramCim.read_energy_factor() < MemTech::SramDigital.read_energy_factor());
        assert!(MemTech::Reram.mvm_latency_factor() <= MemTech::SramCim.mvm_latency_factor());
        assert!(MemTech::SramCim.mvm_latency_factor() < MemTech::SramDigital.mvm_latency_factor());
    }
}
