//! Multi-resolution grid geometry.
//!
//! Instant-NGP encodes a point with `L` levels whose per-axis resolutions
//! grow geometrically from `base_res` to `max_res`. Levels whose full dense
//! grid fits in the table are stored densely (collision-free); finer levels
//! are compressed through the spatial hash. The split between the two is
//! what the ASDR hybrid address generator exploits (§5.2.1).
//!
//! [`GridConfig::level_resolution`] derives a level's resolution through
//! `ln`/`exp`/`powi`; per-sample code reads a [`LevelPlan`] instead, which
//! resolves each level's geometry once — as the address generator does.

use crate::hash::{dense_index, spatial_hash, PRIMES};
use asdr_math::interp::CORNER_OFFSETS;
use asdr_math::Vec3;

/// Configuration of the multi-resolution hash encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Number of resolution levels `L` (paper: 16).
    pub levels: usize,
    /// Coarsest per-axis grid resolution (paper: 16).
    pub base_res: u32,
    /// Finest per-axis grid resolution (paper: 512 for the synthetic scenes).
    pub max_res: u32,
    /// Hash-table length `T` per level, a power of two (paper: 2^19).
    pub table_size: u32,
    /// Features per table entry `F` (paper: 2).
    pub feat_dim: usize,
}

impl GridConfig {
    /// The paper's configuration: 16 levels, 16→512, `T = 2^19`, `F = 2`.
    pub fn paper() -> Self {
        GridConfig { levels: 16, base_res: 16, max_res: 512, table_size: 1 << 19, feat_dim: 2 }
    }

    /// A reduced configuration for fast experiments (used by the default
    /// benchmark harness): 16 levels, 16→256, `T = 2^15`.
    pub fn small() -> Self {
        GridConfig { levels: 16, base_res: 16, max_res: 256, table_size: 1 << 15, feat_dim: 2 }
    }

    /// A tiny configuration for unit tests: 8 levels, 8→64, `T = 2^12`.
    pub fn tiny() -> Self {
        GridConfig { levels: 8, base_res: 8, max_res: 64, table_size: 1 << 12, feat_dim: 2 }
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any field is degenerate (zero levels, non-power-of-
    /// two table, resolutions out of order, a feature width other than 1, 2,
    /// 4 or 8, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.levels == 0 {
            return Err("levels must be >= 1".into());
        }
        if self.base_res < 2 {
            return Err("base_res must be >= 2".into());
        }
        if self.max_res < self.base_res {
            return Err(format!("max_res {} < base_res {}", self.max_res, self.base_res));
        }
        if !self.table_size.is_power_of_two() {
            return Err(format!("table_size {} is not a power of two", self.table_size));
        }
        // Instant-NGP's own widths; the encoder has one instance per width
        if ![1, 2, 4, 8].contains(&self.feat_dim) {
            return Err(format!("feat_dim {} is not one of 1, 2, 4, 8", self.feat_dim));
        }
        Ok(())
    }

    /// Per-axis growth factor `b = exp(ln(max/base)/(L−1))` (Instant-NGP
    /// Eq. 3). Equals 1 when there is a single level.
    pub fn growth_factor(&self) -> f64 {
        if self.levels <= 1 {
            return 1.0;
        }
        ((self.max_res as f64 / self.base_res as f64).ln() / (self.levels as f64 - 1.0)).exp()
    }

    /// Grid resolution (number of cells per axis) of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels`.
    pub fn level_resolution(&self, level: usize) -> u32 {
        assert!(level < self.levels, "level {level} out of range");
        let b = self.growth_factor();
        let r = (self.base_res as f64) * b.powi(level as i32);
        (r.round() as u32).max(self.base_res).min(self.max_res)
    }

    /// The resolved geometry of `level` (see [`LevelPlan`]).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels`.
    pub fn level_plan(&self, level: usize) -> LevelPlan {
        let res = self.level_resolution(level);
        LevelPlan {
            res: res as f32,
            max_cell: res - 1,
            vertex_res: res + 1,
            hash_mask: (!self.is_dense(level)).then(|| self.table_size - 1),
        }
    }

    /// Number of vertices per axis of `level` (resolution + 1).
    pub fn level_vertex_res(&self, level: usize) -> u32 {
        self.level_resolution(level) + 1
    }

    /// Whether `level` is stored densely (its full vertex grid fits in the
    /// table) or hashed.
    pub fn is_dense(&self, level: usize) -> bool {
        let v = self.level_vertex_res(level) as u64;
        v * v * v <= self.table_size as u64
    }

    /// Number of table entries `level` actually occupies: the dense vertex
    /// count for dense levels, the full table for hashed ones.
    pub fn level_entries(&self, level: usize) -> u32 {
        if self.is_dense(level) {
            let v = self.level_vertex_res(level);
            v * v * v
        } else {
            self.table_size
        }
    }

    /// Raw storage utilization of `level` under naive all-hash mapping:
    /// occupied entries over table length (the quantity plotted in
    /// Fig. 13(a)).
    pub fn level_utilization(&self, level: usize) -> f64 {
        self.level_entries(level) as f64 / self.table_size as f64
    }

    /// Dimension of the concatenated encoded feature (`L × F`).
    pub fn encoded_dim(&self) -> usize {
        self.levels * self.feat_dim
    }

    /// Total number of stored feature scalars across all levels.
    pub fn total_params(&self) -> usize {
        (0..self.levels).map(|l| self.level_entries(l) as usize * self.feat_dim).sum()
    }

    /// Total embedding-table bytes assuming `f32` entries (the paper quotes
    /// ≈60 MB for 16 × 2^19 × F=2 at half precision; we store f32).
    pub fn total_bytes(&self) -> usize {
        self.total_params() * std::mem::size_of::<f32>()
    }
}

/// One level's geometry, resolved once: where a point falls and which table
/// rows its voxel's corners map to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelPlan {
    res: f32,
    max_cell: u32,
    vertex_res: u32,
    hash_mask: Option<u32>,
}

impl LevelPlan {
    /// Vertices per axis (`resolution + 1`), the stride of dense indexing.
    pub fn vertex_res(&self) -> u32 {
        self.vertex_res
    }

    /// Whether the level indexes its vertices densely (no hash).
    pub fn is_dense(&self) -> bool {
        self.hash_mask.is_none()
    }

    /// The voxel (cell) containing normalized point `p01`, as the integer
    /// coordinates of the cell's base vertex, plus the fractional position
    /// inside the cell. Points outside `[0,1]³` are clamped onto it.
    #[inline]
    pub fn voxel_of(&self, p01: Vec3) -> ((u32, u32, u32), Vec3) {
        let scaled = p01.clamp(0.0, 1.0) * self.res;
        // `scaled` is never negative, so the truncating cast is `floor` —
        // which the baseline x86-64 target would call into libm for
        let cell = |s: f32| (s as u32).min(self.max_cell);
        let (bx, by, bz) = (cell(scaled.x), cell(scaled.y), cell(scaled.z));
        let frac = Vec3::new(
            (scaled.x - bx as f32).clamp(0.0, 1.0),
            (scaled.y - by as f32).clamp(0.0, 1.0),
            (scaled.z - bz as f32).clamp(0.0, 1.0),
        );
        ((bx, by, bz), frac)
    }

    /// Table row of vertex `(x, y, z)`: dense index or spatial hash.
    #[inline]
    pub fn row_of(&self, x: u32, y: u32, z: u32) -> u32 {
        match self.hash_mask {
            None => dense_index(x, y, z, self.vertex_res),
            Some(mask) => spatial_hash(x, y, z, mask + 1),
        }
    }

    /// [`Self::row_of`] for the eight corners of the voxel based at `base`,
    /// in [`CORNER_OFFSETS`] order, with the `y` and `z` terms of the index
    /// computed once per plane instead of once per corner.
    #[inline]
    pub fn corner_rows(&self, (bx, by, bz): (u32, u32, u32)) -> [u32; 8] {
        let (xs, ys, zs) = ([bx, bx + 1], [by, by + 1], [bz, bz + 1]);
        match self.hash_mask {
            None => {
                let v = self.vertex_res;
                std::array::from_fn(|i| {
                    let (dx, dy, dz) = CORNER_OFFSETS[i];
                    xs[dx as usize] + v * (ys[dy as usize] + v * zs[dz as usize])
                })
            }
            Some(mask) => {
                let hy = ys.map(|y| y.wrapping_mul(PRIMES.1));
                let hz = zs.map(|z| z.wrapping_mul(PRIMES.2));
                std::array::from_fn(|i| {
                    let (dx, dy, dz) = CORNER_OFFSETS[i];
                    (xs[dx as usize] ^ hy[dy as usize] ^ hz[dz as usize]) & mask
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let c = GridConfig::paper();
        c.validate().unwrap();
        assert_eq!(c.levels, 16);
        assert_eq!(c.table_size, 1 << 19);
        assert_eq!(c.encoded_dim(), 32);
    }

    #[test]
    fn resolutions_grow_monotonically() {
        for cfg in [GridConfig::paper(), GridConfig::small(), GridConfig::tiny()] {
            let mut prev = 0;
            for l in 0..cfg.levels {
                let r = cfg.level_resolution(l);
                assert!(r >= prev, "level {l} resolution {r} < previous {prev}");
                prev = r;
            }
            assert_eq!(cfg.level_resolution(0), cfg.base_res);
            assert_eq!(cfg.level_resolution(cfg.levels - 1), cfg.max_res);
        }
    }

    #[test]
    fn coarse_levels_are_dense_fine_levels_hashed() {
        let c = GridConfig::paper();
        assert!(c.is_dense(0), "16^3+1 vertices must fit in 2^19");
        assert!(!c.is_dense(c.levels - 1), "513^3 cannot fit in 2^19");
        // the split is monotone: once hashed, stays hashed
        let mut was_hashed = false;
        for l in 0..c.levels {
            let hashed = !c.is_dense(l);
            assert!(!was_hashed || hashed, "density split must be monotone");
            was_hashed = hashed;
        }
    }

    #[test]
    fn utilization_matches_fig13_premise() {
        // Fig. 13(a): storing everything hashed wastes ~38% on average
        // because dense levels occupy a small slice of the table.
        let c = GridConfig::paper();
        let avg: f64 = (0..c.levels).map(|l| c.level_utilization(l)).sum::<f64>() / c.levels as f64;
        assert!(avg > 0.4 && avg < 0.8, "average utilization {avg} out of plausible band");
        assert!(c.level_utilization(0) < 0.01, "coarsest level wastes nearly the whole table");
        assert!((c.level_utilization(c.levels - 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn total_size_is_tens_of_mb_for_paper_config() {
        let c = GridConfig::paper();
        let mb = c.total_bytes() as f64 / (1024.0 * 1024.0);
        // paper says ~60 MB at fp16 ⇒ ~2× that in f32, minus dense savings
        assert!(mb > 20.0 && mb < 130.0, "unexpected table footprint {mb} MB");
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = GridConfig::tiny();
        c.table_size = 1000; // not a power of two
        assert!(c.validate().is_err());
        let mut c = GridConfig::tiny();
        c.levels = 0;
        assert!(c.validate().is_err());
        let mut c = GridConfig::tiny();
        c.max_res = 4; // below base
        assert!(c.validate().is_err());
    }

    #[test]
    fn level_plan_agrees_with_the_config_and_the_index_functions() {
        for cfg in [GridConfig::paper(), GridConfig::small(), GridConfig::tiny()] {
            for l in 0..cfg.levels {
                let plan = cfg.level_plan(l);
                assert_eq!(plan.vertex_res(), cfg.level_vertex_res(l));
                assert_eq!(plan.is_dense(), cfg.is_dense(l));
                let hi = cfg.level_resolution(l) - 1;
                for base in [(0, 0, 0), (hi, hi, hi), (hi / 2, 1, hi / 3)] {
                    let rows = plan.corner_rows(base);
                    for (row, (dx, dy, dz)) in rows.into_iter().zip(CORNER_OFFSETS) {
                        assert_eq!(row, plan.row_of(base.0 + dx, base.1 + dy, base.2 + dz));
                    }
                }
            }
        }
    }

    #[test]
    fn growth_factor_bounds() {
        let c = GridConfig::paper();
        let b = c.growth_factor();
        assert!(b > 1.0 && b < 2.0, "paper growth factor ≈ 1.26, got {b}");
        let single = GridConfig { levels: 1, ..GridConfig::tiny() };
        assert_eq!(single.growth_factor(), 1.0);
    }
}
