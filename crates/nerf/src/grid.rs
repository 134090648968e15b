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
//! resolves each level's geometry once — as the address generator does —
//! and the encoder reads eight levels' plans side by side, one level a
//! vector lane, computing every level's dense and hashed rows at once.

use crate::hash::{dense_index, spatial_hash, PRIMES};
use crate::kernel::{floor_cell, LANES};
use asdr_math::interp::{trilinear_weights, CORNER_OFFSETS};
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
    /// Most levels a configuration may have (the paper's has 16).
    pub const MAX_LEVELS: usize = 32;

    /// Largest finest resolution: a scaled coordinate is then a float's exact
    /// integer, and a vertex's coordinates and dense index fit a `u32`.
    pub const MAX_RES: u32 = 1 << 16;

    /// Longest table a level may have (the paper's is 2¹⁹).
    pub const MAX_TABLE_SIZE: u32 = 1 << 24;

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
    /// Returns `Err` if any field is degenerate or out of bounds (no levels
    /// or more than [`Self::MAX_LEVELS`], resolutions out of order or above
    /// [`Self::MAX_RES`], a table that is not a power of two or is longer than
    /// [`Self::MAX_TABLE_SIZE`], a feature width other than 1, 2, 4 or 8, …).
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=Self::MAX_LEVELS).contains(&self.levels) {
            return Err(format!("levels {} is not in 1..={}", self.levels, Self::MAX_LEVELS));
        }
        if self.base_res < 2 {
            return Err("base_res must be >= 2".into());
        }
        if self.max_res < self.base_res {
            return Err(format!("max_res {} < base_res {}", self.max_res, self.base_res));
        }
        if self.max_res > Self::MAX_RES {
            return Err(format!("max_res {} > {}", self.max_res, Self::MAX_RES));
        }
        if !self.table_size.is_power_of_two() || self.table_size > Self::MAX_TABLE_SIZE {
            return Err(format!(
                "table_size {} is not a power of two up to {}",
                self.table_size,
                Self::MAX_TABLE_SIZE
            ));
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
        // the encoder's lanes find the cell with the same function
        let max_cell = self.max_cell as f32;
        let ((fx, bx), (fy, by), (fz, bz)) = (
            floor_cell(scaled.x, max_cell),
            floor_cell(scaled.y, max_cell),
            floor_cell(scaled.z, max_cell),
        );
        let frac = Vec3::new(
            (scaled.x - fx).clamp(0.0, 1.0),
            (scaled.y - fy).clamp(0.0, 1.0),
            (scaled.z - fz).clamp(0.0, 1.0),
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

/// Up to [`LANES`] levels' plans side by side, one level a lane — what the
/// hybrid address generator (§5.2.1) latches for a block of levels. Each
/// lane keeps the two multipliers its rows take per axis: `V` and `V²` for a
/// dense level (`x + V·y + V²·z` is [`dense_index`]'s value), the hash primes
/// for a hashed one. Lanes past the last level are padding nobody reads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanLanes {
    res: [f32; LANES],
    max_cell: [f32; LANES],
    y_mul: [u32; LANES],
    z_mul: [u32; LANES],
    hash_mask: [u32; LANES],
    hashed: [bool; LANES],
}

/// One point located in a block of levels, lane by lane: the voxel's base
/// vertex, the trilinear weights and the table rows of its eight corners,
/// both in [`CORNER_OFFSETS`] order.
#[derive(Debug, Clone)]
pub(crate) struct Voxels {
    pub(crate) base: [[u32; LANES]; 3],
    pub(crate) weights: [[f32; LANES]; 8],
    pub(crate) rows: [[u32; LANES]; 8],
}

impl PlanLanes {
    /// `plans` in blocks of [`LANES`], the last block padded.
    pub(crate) fn blocks<'a>(plans: impl IntoIterator<Item = &'a LevelPlan>) -> Vec<PlanLanes> {
        let plans: Vec<&LevelPlan> = plans.into_iter().collect();
        plans
            .chunks(LANES)
            .map(|block| {
                // a padding lane: one cell, rows 0
                let mut lanes = PlanLanes {
                    res: [1.0; LANES],
                    max_cell: [0.0; LANES],
                    y_mul: [0; LANES],
                    z_mul: [0; LANES],
                    hash_mask: [0; LANES],
                    hashed: [false; LANES],
                };
                for (lane, plan) in block.iter().enumerate() {
                    let v = plan.vertex_res;
                    lanes.res[lane] = plan.res;
                    lanes.max_cell[lane] = plan.max_cell as f32;
                    (lanes.y_mul[lane], lanes.z_mul[lane], lanes.hash_mask[lane]) =
                        match plan.hash_mask {
                            None => (v, v * v, u32::MAX),
                            Some(mask) => (PRIMES.1, PRIMES.2, mask),
                        };
                    lanes.hashed[lane] = plan.hash_mask.is_some();
                }
                lanes
            })
            .collect()
    }

    /// Locates `p01` in every level of the block at once: [`Self::lane`]
    /// side by side.
    #[inline(always)]
    pub(crate) fn locate(&self, p01: Vec3) -> Voxels {
        let p = p01.clamp(0.0, 1.0);
        // three arrays, not one struct: a 608-byte struct is zeroed by a call
        let mut base = [[0; LANES]; 3];
        let mut weights = [[0.0; LANES]; 8];
        let mut rows = [[0; LANES]; 8];
        for lane in 0..LANES {
            let (b, w, r) = self.lane(lane, p);
            (base[0][lane], base[1][lane], base[2][lane]) = b;
            for corner in 0..8 {
                (weights[corner][lane], rows[corner][lane]) = (w[corner], r[corner]);
            }
        }
        Voxels { base, weights, rows }
    }

    /// Level `lane` of the block at `p`, a point in `[0,1]³`: what
    /// [`LevelPlan::voxel_of`], `trilinear_weights` and
    /// [`LevelPlan::corner_rows`] give that level — the voxel's base vertex,
    /// then per corner its weight and its row, the dense and the hashed row
    /// both computed and one kept.
    #[inline(always)]
    pub(crate) fn lane(&self, lane: usize, p: Vec3) -> ((u32, u32, u32), [f32; 8], [u32; 8]) {
        let (res, max_cell) = (self.res[lane], self.max_cell[lane]);
        let (sx, sy, sz) = (p.x * res, p.y * res, p.z * res);
        let ((fx, bx), (fy, by), (fz, bz)) =
            (floor_cell(sx, max_cell), floor_cell(sy, max_cell), floor_cell(sz, max_cell));
        let w = trilinear_weights(
            (sx - fx).clamp(0.0, 1.0),
            (sy - fy).clamp(0.0, 1.0),
            (sz - fz).clamp(0.0, 1.0),
        );
        // the y and z terms once per plane, as `corner_rows` does; the far
        // plane's is the near one's plus the multiplier, an add for a multiply
        let (y_mul, z_mul) = (self.y_mul[lane], self.z_mul[lane]);
        let (y, z) = (by.wrapping_mul(y_mul), bz.wrapping_mul(z_mul));
        let xs = [bx, bx + 1];
        let ys = [y, y.wrapping_add(y_mul)];
        let zs = [z, z.wrapping_add(z_mul)];
        // a loop, not `CORNER_OFFSETS.map`: its closure is not always inlined
        let mut rows = [0; 8];
        for (row, (dx, dy, dz)) in rows.iter_mut().zip(CORNER_OFFSETS) {
            let (x, y, z) = (xs[dx as usize], ys[dy as usize], zs[dz as usize]);
            let dense = x.wrapping_add(y).wrapping_add(z);
            let hashed = (x ^ y ^ z) & self.hash_mask[lane];
            *row = if self.hashed[lane] { hashed } else { dense };
        }
        ((bx, by, bz), w, rows)
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
        // the bounds themselves are admitted, one past them is not
        let at = GridConfig {
            levels: GridConfig::MAX_LEVELS,
            max_res: GridConfig::MAX_RES,
            table_size: GridConfig::MAX_TABLE_SIZE,
            ..GridConfig::tiny()
        };
        at.validate().unwrap();
        for past in [
            GridConfig { levels: GridConfig::MAX_LEVELS + 1, ..at.clone() },
            GridConfig { max_res: GridConfig::MAX_RES + 1, ..at.clone() },
            GridConfig { max_res: u32::MAX, ..at.clone() },
            GridConfig { table_size: GridConfig::MAX_TABLE_SIZE * 2, ..at.clone() },
        ] {
            assert!(past.validate().is_err(), "{past:?}");
        }
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
