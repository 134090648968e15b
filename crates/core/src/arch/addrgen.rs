//! The hybrid address generator (§5.2.1, Figs. 11–14).
//!
//! High-resolution (hashed) tables keep the original hash mapping. Low-
//! resolution (dense) tables are *de-hashed*: the vertex coordinates are
//! turned into a collision-free address whose **high bits come from the low
//! bits of (x, y, z)** (bit reorder + concatenate, Fig. 14(b)), so the eight
//! corners of any voxel land on eight different Mem Xbars and can be read in
//! parallel. The storage left over by dense tables is used to hold
//! **replicated copies**, raising utilization from ~62% to ~86% (Fig. 13)
//! and letting concurrent readers fan out across copies (Fig. 12).

use asdr_nerf::grid::GridConfig;
use asdr_nerf::hash::spatial_hash;

/// Embedding entries stored per crossbar row: a 2-dim fp8 feature vector
/// occupies 16 of the 64 cells in a row (Fig. 3(c)).
pub const ENTRIES_PER_ROW: u32 = 4;
/// Rows per 64×64 Mem Xbar.
pub const ROWS_PER_XBAR: u32 = 64;
/// Embedding entries per Mem Xbar.
pub const ENTRIES_PER_XBAR: u32 = ENTRIES_PER_ROW * ROWS_PER_XBAR;

/// Address-mapping scheme (the Fig. 20 HW ablation toggles this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingMode {
    /// Naive: every table uses the original hash / dense-linear mapping.
    AllHash,
    /// ASDR: de-hashed bit-reordered addresses + replication for dense
    /// tables, hash for the rest.
    Hybrid,
}

/// A physical embedding location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysAddr {
    /// Global Mem-Xbar index.
    pub xbar: u32,
    /// Row within the crossbar.
    pub row: u32,
    /// Entry slot within the row.
    pub slot: u32,
}

/// The hybrid address generator for one grid configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridAddressGenerator {
    cfg: GridConfig,
    mode: MappingMode,
    /// Per level: number of replicated copies (1 for hashed levels).
    copies: Vec<u32>,
    /// Per level: first global entry index of the level's region.
    level_base: Vec<u64>,
    /// Entries allocated per level region.
    level_span: Vec<u64>,
}

impl HybridAddressGenerator {
    /// Builds the generator with one table-sized region per level (the
    /// paper-scale layout, where the tables fill the Mem Xbars exactly).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: GridConfig, mode: MappingMode) -> Self {
        let span = cfg.table_size as u64;
        Self::with_span(cfg, mode, span)
    }

    /// Builds the generator giving each level `span_entries` of Mem-Xbar
    /// storage. When the chip's crossbar pool exceeds the table footprint
    /// (down-scaled grids on the 64 MB server instance), the hybrid mapping
    /// replicates *hashed* tables into the headroom as well — the same
    /// "duplicate into unused space" rule Fig. 12 applies to dense tables.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or `span_entries < table_size`.
    pub fn with_span(cfg: GridConfig, mode: MappingMode, span_entries: u64) -> Self {
        cfg.validate().expect("invalid grid config");
        assert!(span_entries >= cfg.table_size as u64, "span below table size");
        let mut copies = Vec::with_capacity(cfg.levels);
        let mut level_base = Vec::with_capacity(cfg.levels);
        let mut level_span = Vec::with_capacity(cfg.levels);
        let mut base = 0u64;
        for l in 0..cfg.levels {
            let span = span_entries;
            let v = cfg.level_vertex_res(l) as u64;
            let dense_entries = v * v * v;
            let c = if mode == MappingMode::Hybrid {
                if cfg.is_dense(l) {
                    (span / dense_entries).max(1) as u32
                } else {
                    (span / cfg.table_size as u64).max(1) as u32
                }
            } else {
                1
            };
            copies.push(c);
            level_base.push(base);
            level_span.push(span);
            base += span;
        }
        HybridAddressGenerator { cfg, mode, copies, level_base, level_span }
    }

    /// Grid configuration.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// Mapping mode.
    pub fn mode(&self) -> MappingMode {
        self.mode
    }

    /// Replica count of `level`.
    pub fn copies(&self, level: usize) -> u32 {
        self.copies[level]
    }

    /// De-hashed address: bit-reorder + concatenate (Fig. 14(b)). The low
    /// `LOW_BITS` of each coordinate become the top address bits.
    fn dehashed_index(&self, level: usize, x: u32, y: u32, z: u32) -> u64 {
        let v = self.cfg.level_vertex_res(level);
        let bits = 32 - (v - 1).leading_zeros().max(1); // bits per axis
        let naive_rest = ((x >> 1) as u64)
            | (((y >> 1) as u64) << (bits - 1))
            | (((z >> 1) as u64) << (2 * (bits - 1)));
        let low = ((x & 1) << 2 | (y & 1) << 1 | (z & 1)) as u64;
        (low << (3 * (bits - 1))) | naive_rest
    }

    /// Physical location of vertex `(x, y, z)` at `level`, for a requester
    /// lane `requester` (lanes spread across replicas).
    pub fn translate(&self, level: usize, x: u32, y: u32, z: u32, requester: u32) -> PhysAddr {
        let entry = match self.mode {
            MappingMode::AllHash => {
                // naive: dense levels use linear indexing, hashed use hash —
                // both packed at the bottom of the level region
                self.naive_index(level, x, y, z)
            }
            MappingMode::Hybrid => {
                let copy = (requester % self.copies[level]) as u64;
                if self.cfg.is_dense(level) {
                    let v = self.cfg.level_vertex_res(level) as u64;
                    let dense_entries = v * v * v;
                    copy * dense_entries + self.dehashed_index(level, x, y, z)
                } else {
                    copy * self.cfg.table_size as u64
                        + spatial_hash(x, y, z, self.cfg.table_size) as u64
                }
            }
        };
        let global = self.level_base[level] + (entry % self.level_span[level]);
        PhysAddr {
            xbar: (global / ENTRIES_PER_XBAR as u64) as u32,
            row: ((global % ENTRIES_PER_XBAR as u64) / ENTRIES_PER_ROW as u64) as u32,
            slot: (global % ENTRIES_PER_ROW as u64) as u32,
        }
    }

    fn naive_index(&self, level: usize, x: u32, y: u32, z: u32) -> u64 {
        if self.cfg.is_dense(level) {
            let v = self.cfg.level_vertex_res(level) as u64;
            x as u64 + v * (y as u64 + v * z as u64)
        } else {
            spatial_hash(x, y, z, self.cfg.table_size) as u64
        }
    }

    /// Storage utilization of `level` under the current mapping (Fig. 13).
    pub fn level_utilization(&self, level: usize) -> f64 {
        let v = self.cfg.level_vertex_res(level) as u64;
        let dense_entries = (v * v * v).min(self.level_span[level]);
        if self.cfg.is_dense(level) {
            let used = match self.mode {
                MappingMode::AllHash => dense_entries,
                MappingMode::Hybrid => dense_entries * self.copies[level] as u64,
            };
            used as f64 / self.level_span[level] as f64
        } else {
            let used = match self.mode {
                MappingMode::AllHash => self.cfg.table_size as u64,
                MappingMode::Hybrid => self.cfg.table_size as u64 * self.copies[level] as u64,
            };
            used as f64 / self.level_span[level] as f64
        }
    }

    /// Mean utilization over all levels.
    pub fn average_utilization(&self) -> f64 {
        (0..self.cfg.levels).map(|l| self.level_utilization(l)).sum::<f64>()
            / self.cfg.levels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gens() -> (HybridAddressGenerator, HybridAddressGenerator) {
        let cfg = GridConfig::paper();
        (
            HybridAddressGenerator::new(cfg.clone(), MappingMode::AllHash),
            HybridAddressGenerator::new(cfg, MappingMode::Hybrid),
        )
    }

    #[test]
    fn voxel_corners_hit_distinct_xbars_under_hybrid() {
        let (naive, hybrid) = gens();
        // the 8 corners of voxel (6,10,3)..(7,11,4) — Fig. 14's example
        let corners: Vec<(u32, u32, u32)> =
            (0..8).map(|i| (6 + (i & 1), 10 + ((i >> 1) & 1), 3 + ((i >> 2) & 1))).collect();
        let hybrid_xbars: HashSet<u32> =
            corners.iter().map(|&(x, y, z)| hybrid.translate(0, x, y, z, 0).xbar).collect();
        assert_eq!(hybrid_xbars.len(), 8, "hybrid mapping must fan corners out");
        let naive_xbars: HashSet<u32> =
            corners.iter().map(|&(x, y, z)| naive.translate(0, x, y, z, 0).xbar).collect();
        assert!(naive_xbars.len() < 8, "naive dense mapping clusters corners: {naive_xbars:?}");
    }

    #[test]
    fn dehashed_mapping_is_collision_free() {
        let cfg = GridConfig::tiny();
        let g = HybridAddressGenerator::new(cfg.clone(), MappingMode::Hybrid);
        let v = cfg.level_vertex_res(0);
        let mut seen = HashSet::new();
        for z in 0..v {
            for y in 0..v {
                for x in 0..v {
                    let a = g.translate(0, x, y, z, 0);
                    assert!(seen.insert(a), "collision at ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn replicas_spread_requesters() {
        let (_, hybrid) = gens();
        // paper's Fig. 12 example: a 16³-item table replicates 128×; with
        // vertex grids (17³) the count is slightly lower
        assert!(hybrid.copies(0) >= 100, "coarse level should replicate many times");
        let a = hybrid.translate(0, 3, 4, 5, 0);
        let b = hybrid.translate(0, 3, 4, 5, 1);
        assert_ne!(a, b, "different requesters should hit different copies");
        // same requester: deterministic
        assert_eq!(a, hybrid.translate(0, 3, 4, 5, 0));
    }

    #[test]
    fn utilization_improves_with_hybrid_mapping() {
        let (naive, hybrid) = gens();
        let u_naive = naive.average_utilization();
        let u_hybrid = hybrid.average_utilization();
        // paper Fig. 13: 62.2% → 85.95%
        assert!(u_naive > 0.45 && u_naive < 0.75, "naive utilization {u_naive}");
        assert!(u_hybrid > 0.8, "hybrid utilization {u_hybrid}");
        assert!(u_hybrid > u_naive + 0.15);
    }

    #[test]
    fn hashed_levels_use_hash_in_both_modes() {
        // at paper scale the hashed tables fill their span (1 copy), so the
        // two modes agree on hashed levels
        let (naive, hybrid) = gens();
        let last = naive.config().levels - 1;
        assert_eq!(hybrid.copies(last), 1);
        let a = naive.translate(last, 100, 200, 300, 0);
        let b = hybrid.translate(last, 100, 200, 300, 3);
        assert_eq!(a, b, "hashed levels are identical in both modes");
    }

    #[test]
    fn oversized_span_replicates_hashed_tables_too() {
        let cfg = GridConfig::tiny();
        let span = cfg.table_size as u64 * 4;
        let g = HybridAddressGenerator::new(cfg.clone(), MappingMode::Hybrid);
        let wide = HybridAddressGenerator::with_span(cfg.clone(), MappingMode::Hybrid, span);
        let last = cfg.levels - 1;
        assert_eq!(g.copies(last), 1);
        assert_eq!(wide.copies(last), 4);
        // different requesters now read different copies (different xbars)
        let a = wide.translate(last, 10, 20, 30, 0);
        let b = wide.translate(last, 10, 20, 30, 1);
        assert_ne!(a.xbar, b.xbar);
        // hashed utilization stays full
        assert!((wide.level_utilization(last) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn levels_occupy_disjoint_regions() {
        let (_, hybrid) = gens();
        let a = hybrid.translate(0, 1, 1, 1, 0);
        let b = hybrid.translate(1, 1, 1, 1, 0);
        assert_ne!(a.xbar, b.xbar, "levels must not share crossbars");
    }
}
