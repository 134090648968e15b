//! Per-level embedding tables.
//!
//! Each resolution level owns one table of `entries × feat_dim` learned
//! feature scalars. Dense levels index vertices bijectively; hashed levels
//! go through [`crate::hash::spatial_hash`] and therefore alias distinct
//! vertices onto shared rows — the source of the high-frequency artifacts a
//! trained Instant-NGP exhibits, reproduced here mechanically.

use crate::grid::{GridConfig, LevelPlan};

/// How a level maps vertex coordinates to table rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// Bijective `x + y·V + z·V²` (collision-free).
    Dense,
    /// Spatial hash (Eq. 2), possibly aliasing.
    Hashed,
}

/// One level's embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    level: usize,
    plan: LevelPlan,
    feat_dim: usize,
    entries: u32,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// Creates the zero-initialized table for `level` of `cfg`.
    pub fn new(cfg: &GridConfig, level: usize) -> Self {
        let entries = cfg.level_entries(level);
        EmbeddingTable {
            level,
            plan: cfg.level_plan(level),
            feat_dim: cfg.feat_dim,
            entries,
            data: vec![0.0; entries as usize * cfg.feat_dim],
        }
    }

    /// Level this table serves.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Indexing mode (dense or hashed).
    pub fn mode(&self) -> IndexMode {
        if self.plan.is_dense() {
            IndexMode::Dense
        } else {
            IndexMode::Hashed
        }
    }

    /// The level's resolved geometry and index function.
    pub fn plan(&self) -> &LevelPlan {
        &self.plan
    }

    /// Number of rows.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Features per row.
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    /// Vertices per axis at this level.
    pub fn vertex_res(&self) -> u32 {
        self.plan.vertex_res()
    }

    /// Table row index for vertex `(x, y, z)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a dense coordinate is out of range.
    #[inline]
    pub fn row_of(&self, x: u32, y: u32, z: u32) -> u32 {
        self.plan.row_of(x, y, z)
    }

    /// Feature slice of table row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= entries`.
    #[inline]
    pub fn row(&self, row: u32) -> &[f32] {
        let i = row as usize * self.feat_dim;
        &self.data[i..i + self.feat_dim]
    }

    /// Mutable feature slice of table row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= entries`.
    #[inline]
    pub fn row_mut(&mut self, row: u32) -> &mut [f32] {
        let i = row as usize * self.feat_dim;
        &mut self.data[i..i + self.feat_dim]
    }

    /// Feature slice of vertex `(x, y, z)` (lookup through the index mode).
    #[inline]
    pub fn lookup(&self, x: u32, y: u32, z: u32) -> &[f32] {
        self.row(self.row_of(x, y, z))
    }

    /// Raw parameter slice (all rows).
    pub fn params(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw parameter slice.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// The full multi-level embedding set.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingSet {
    tables: Vec<EmbeddingTable>,
}

impl EmbeddingSet {
    /// Allocates zeroed tables for every level of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GridConfig::validate`].
    pub fn new(cfg: &GridConfig) -> Self {
        cfg.validate().expect("invalid grid config");
        EmbeddingSet { tables: (0..cfg.levels).map(|l| EmbeddingTable::new(cfg, l)).collect() }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.tables.len()
    }

    /// Table of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn table(&self, level: usize) -> &EmbeddingTable {
        &self.tables[level]
    }

    /// Mutable table of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn table_mut(&mut self, level: usize) -> &mut EmbeddingTable {
        &mut self.tables[level]
    }

    /// Iterator over all tables.
    pub fn iter(&self) -> impl Iterator<Item = &EmbeddingTable> {
        self.tables.iter()
    }

    /// Total stored parameters.
    pub fn total_params(&self) -> usize {
        self.tables.iter().map(|t| t.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_table_roundtrip() {
        let cfg = GridConfig::tiny();
        let mut t = EmbeddingTable::new(&cfg, 0);
        assert_eq!(t.mode(), IndexMode::Dense);
        let r = t.row_of(1, 2, 3);
        t.row_mut(r).copy_from_slice(&[0.5, -0.25]);
        assert_eq!(t.lookup(1, 2, 3), &[0.5, -0.25]);
        // a different vertex is untouched
        assert_eq!(t.lookup(0, 0, 0), &[0.0, 0.0]);
    }

    #[test]
    fn hashed_table_aliases_but_is_consistent() {
        let cfg = GridConfig::tiny();
        let last = cfg.levels - 1;
        assert!(!cfg.is_dense(last), "tiny config must hash its finest level");
        let t = EmbeddingTable::new(&cfg, last);
        assert_eq!(t.mode(), IndexMode::Hashed);
        assert_eq!(t.entries(), cfg.table_size);
        // same vertex, same row, always
        assert_eq!(t.row_of(10, 20, 30), t.row_of(10, 20, 30));
    }

    #[test]
    fn set_has_expected_shape() {
        let cfg = GridConfig::tiny();
        let set = EmbeddingSet::new(&cfg);
        assert_eq!(set.levels(), cfg.levels);
        assert_eq!(set.total_params(), cfg.total_params());
        for (l, t) in set.iter().enumerate() {
            assert_eq!(t.level(), l);
            assert_eq!(t.feat_dim(), cfg.feat_dim);
        }
    }

    #[test]
    #[should_panic]
    fn row_out_of_range_panics() {
        let cfg = GridConfig::tiny();
        let t = EmbeddingTable::new(&cfg, 0);
        let _ = t.row(t.entries());
    }
}
