//! Occupancy grid — Instant-NGP's empty-space mask.
//!
//! The reference Instant-NGP maintains a multiscale occupancy bitfield so
//! that ray marching skips cells known to be empty. We keep a single-scale
//! grid and use it twice. It *masks* predicted density: without it, hash
//! aliasing would smear residual energy from occupied vertices into empty
//! space ("ghost density"), which the original system never renders because
//! those cells are skipped. And, through
//! [`RadianceModel::occupied_along`](crate::model::RadianceModel::occupied_along),
//! it lets the renderer skip those cells too: a masked sample is exactly
//! zero, so not evaluating it cannot change a pixel.

use crate::kernel::{floor_cell, run_on, Kernel, LANES};
use asdr_math::interp::CORNER_OFFSETS;
use asdr_math::par::{self, detected_workers};
use asdr_math::{Aabb, Ray, Vec3};
use asdr_scenes::SceneField;

/// A boolean voxel grid over a bounding box, one bit a cell in the
/// checkpoint's own layout: cell `i = x + res·(y + res·z)` is bit `i % 8` of
/// byte `i / 8`, spare bits of the last byte zero. (A byte a cell made the
/// grid half of a resident model.)
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyGrid {
    res: usize,
    bounds: Aabb,
    bits: Vec<u8>,
}

/// Sets cell `i` in the checkpoint's layout.
fn set_bit(bits: &mut [u8], i: usize) {
    bits[i / 8] |= 1 << (i % 8);
}

/// Samples the pass takes at a time: four blocks of [`LANES`]. One block is
/// one chain of dependent vector operations, a divide and two integer
/// multiplies long; four in flight overlap, and read 4.3 ns a sample on the
/// 24 `render_fixed` views where one block read 7.4 (DESIGN.md §8).
const CHUNK: usize = 4 * LANES;

/// The box and the cells of a grid, as a point test reads them: loaded once
/// for a pass, so a block of samples is straight-line arithmetic.
#[derive(Clone, Copy)]
struct Lookup {
    min: Vec3,
    max: Vec3,
    extent: Vec3,
    scale: f32,
    max_cell: f32,
    /// Cells per row and per plane: the strides of `y` and `z`.
    strides: (u32, u32),
}

impl Lookup {
    /// Where the answer for world point `p` is kept: the byte of its cell
    /// ([`Aabb::normalize`], then [`Self::cell_of`]) and the cell's bit in
    /// it — or bit 8, which no byte has, when `p` is outside the box
    /// ([`Aabb::contains`], every comparison made).
    #[inline(always)]
    fn locate(&self, p: Vec3) -> (u32, u32) {
        let (min, max, e) = (self.min, self.max, self.extent);
        let inside = (p.x >= min.x)
            & (p.y >= min.y)
            & (p.z >= min.z)
            & (p.x <= max.x)
            & (p.y <= max.y)
            & (p.z <= max.z);
        let p01 = Vec3::new((p.x - min.x) / e.x, (p.y - min.y) / e.y, (p.z - min.z) / e.z);
        let cell = self.cell_of(p01);
        (cell / 8, if inside { cell % 8 } else { 8 })
    }

    /// Index of the cell holding normalized `p01`, clamped into the grid:
    /// the one definition of "which cell" the per-point tests and the pass
    /// share. The three coordinates combine in integers (`res³` may pass
    /// 2²⁴, where floats stop being exact), `x + res·y + res²·z`: the two
    /// products are independent, unlike `x + res·(y + res·z)`'s.
    #[inline(always)]
    fn cell_of(&self, p01: Vec3) -> u32 {
        // `floor_cell` clamps, so outside [0, 1] (and NaN) needs no clamp first
        let cell = |u: f32| floor_cell(u * self.scale, self.max_cell).1;
        let (row, plane) = self.strides;
        cell(p01.x) + row * cell(p01.y) + plane * cell(p01.z)
    }
}

/// `Err` unless `1 <= res <= MAX_RES`.
fn check_res(res: usize) -> Result<(), String> {
    if !(1..=OccupancyGrid::MAX_RES).contains(&res) {
        return Err(format!("resolution {res} is not in 1..={}", OccupancyGrid::MAX_RES));
    }
    Ok(())
}

fn pack(cells: &[bool]) -> Vec<u8> {
    let mut bits = vec![0u8; cells.len().div_ceil(8)];
    for (i, _) in cells.iter().enumerate().filter(|(_, &c)| c) {
        set_bit(&mut bits, i);
    }
    bits
}

impl OccupancyGrid {
    /// Default grid resolution (cells per axis), matching Instant-NGP's 128
    /// scaled down to our single level.
    pub const DEFAULT_RES: usize = 64;

    /// Largest resolution a grid may have: a cell index then fits a `u32`
    /// (1024³ = 2³⁰) and a scaled coordinate a float's exact integers.
    pub const MAX_RES: usize = 1024;

    /// Builds the grid by probing `field.density` at cell corners and
    /// dilating by one cell (so interpolation transition zones count as
    /// occupied). The corners are probed on the process's worker budget
    /// ([`detected_workers`]).
    ///
    /// # Panics
    ///
    /// Panics if `res` is 0 or above [`Self::MAX_RES`].
    pub fn build(field: &dyn SceneField, res: usize) -> Self {
        Self::build_on(field, res, detected_workers())
    }

    /// [`Self::build`] with the corners probed by z-slice on `workers`
    /// threads; the grid is the same for every count.
    pub(crate) fn build_on(field: &dyn SceneField, res: usize, workers: usize) -> Self {
        assert!((1..=Self::MAX_RES).contains(&res), "occupancy resolution {res}");
        let bounds = field.bounds();
        let v = res + 1;
        let mut probe = vec![false; v * v * v];
        let mut slices: Vec<&mut [bool]> = probe.chunks_mut(v * v).collect();
        par::for_each_mut(workers, &mut slices, |z, slice| {
            for (y, row) in slice.chunks_mut(v).enumerate() {
                for (x, corner) in row.iter_mut().enumerate() {
                    let u = Vec3::new(
                        x as f32 / res as f32,
                        y as f32 / res as f32,
                        z as f32 / res as f32,
                    );
                    *corner = field.density(bounds.denormalize(u)) > 0.0;
                }
            }
        });
        // a cell is occupied when a corner is, then dilated by one cell, both
        // packed: a byte a cell would make these the fit's largest buffers
        let cell = |x: usize, y: usize, z: usize| x + res * (y + res * z);
        let mut raw = vec![0u8; (res * res * res).div_ceil(8)];
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    let corner = |&(dx, dy, dz): &(u32, u32, u32)| {
                        probe[(x + dx as usize) + v * ((y + dy as usize) + v * (z + dz as usize))]
                    };
                    if CORNER_OFFSETS.iter().any(corner) {
                        set_bit(&mut raw, cell(x, y, z));
                    }
                }
            }
        }
        drop(probe);
        let mut bits = vec![0u8; raw.len()];
        let near = |c: usize| c.saturating_sub(1)..=(c + 1).min(res - 1);
        for z in 0..res {
            for y in 0..res {
                for x in 0..res {
                    let i = cell(x, y, z);
                    if raw[i / 8] & (1 << (i % 8)) != 0 {
                        for nz in near(z) {
                            for ny in near(y) {
                                for nx in near(x) {
                                    set_bit(&mut bits, cell(nx, ny, nz));
                                }
                            }
                        }
                    }
                }
            }
        }
        OccupancyGrid { res, bounds, bits }
    }

    /// A grid that reports everything occupied (no masking).
    pub fn solid(bounds: Aabb) -> Self {
        OccupancyGrid { res: 1, bounds, bits: vec![1] }
    }

    /// Builds a grid from one `bool` a cell.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `cells.len() != res³` or `res` is 0 or above
    /// [`Self::MAX_RES`].
    pub fn from_cells(res: usize, bounds: Aabb, cells: Vec<bool>) -> Result<Self, String> {
        check_res(res)?;
        if cells.len() != res * res * res {
            return Err(format!("expected {} cells, got {}", res * res * res, cells.len()));
        }
        Self::from_bits(res, bounds, pack(&cells))
    }

    /// Rebuilds a grid from its packed cells (checkpoint loading); spare
    /// bits of the last byte are cleared.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `bits.len() != ⌈res³ / 8⌉` or `res` is 0 or above
    /// [`Self::MAX_RES`].
    pub fn from_bits(res: usize, bounds: Aabb, mut bits: Vec<u8>) -> Result<Self, String> {
        check_res(res)?;
        let n = res * res * res;
        if bits.len() != n.div_ceil(8) {
            return Err(format!("expected {} bytes, got {}", n.div_ceil(8), bits.len()));
        }
        bits[(n - 1) / 8] &= 0xff >> (bits.len() * 8 - n);
        Ok(OccupancyGrid { res, bounds, bits })
    }

    /// The packed cells, as a checkpoint stores them.
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// Cells per axis.
    pub fn res(&self) -> usize {
        self.res
    }

    /// Covered bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Whether a normalized `[0,1]^3` point lies in an occupied cell.
    #[inline]
    pub fn occupied01(&self, p01: Vec3) -> bool {
        let cell = self.lookup().cell_of(p01);
        self.read((cell / 8, cell % 8))
    }

    /// Whether a world-space point lies in an occupied cell (points outside
    /// the bounds are unoccupied). The cell's bit is read either way — its
    /// index is clamped into the grid — so the answer has no branch.
    #[inline]
    pub fn occupied_world(&self, p: Vec3) -> bool {
        self.read(self.lookup().locate(p))
    }

    /// [`Self::occupied_world`] at `ray.at(t)` for every `t` of `ts`, in
    /// order, into `out` (cleared first): one pass over a ray's samples,
    /// each entry the per-point answer itself.
    pub fn occupied_along(
        &self,
        ray: &Ray,
        ts: impl IntoIterator<Item = f32>,
        out: &mut Vec<bool>,
    ) {
        self.occupied_along_on(Kernel::Avx2, ray, ts, out);
    }

    /// [`Self::occupied_along`] on the instantiation named: for tests and
    /// benches, never the product.
    #[doc(hidden)]
    pub fn occupied_along_on(
        &self,
        kernel: Kernel,
        ray: &Ray,
        ts: impl IntoIterator<Item = f32>,
        out: &mut Vec<bool>,
    ) {
        run_on(
            kernel,
            self,
            (*ray, ts),
            out,
            #[inline(always)]
            |grid, (ray, ts), out| grid.pass(ray, ts, out),
        );
    }

    /// The pass's one body: the samples in chunks of [`CHUNK`], each chunk's
    /// points located side by side ([`Lookup::locate`]), [`LANES`] a vector,
    /// then its bits read one by one — [`Self::occupied_world`] split at the
    /// read.
    #[inline(always)]
    fn pass(&self, ray: Ray, ts: impl IntoIterator<Item = f32>, out: &mut Vec<bool>) {
        out.clear();
        let lookup = self.lookup();
        let mut ts = ts.into_iter();
        loop {
            let mut chunk = [0.0f32; CHUNK];
            let n = chunk.iter_mut().zip(&mut ts).map(|(slot, t)| *slot = t).count();
            let (mut bytes, mut shifts) = ([0u32; CHUNK], [0u32; CHUNK]);
            for ((&t, byte), shift) in chunk.iter().zip(&mut bytes).zip(&mut shifts) {
                (*byte, *shift) = lookup.locate(ray.at(t));
            }
            let mut occupied = [false; CHUNK];
            for ((o, &byte), &shift) in occupied.iter_mut().zip(&bytes).zip(&shifts) {
                *o = self.read((byte, shift));
            }
            // a whole chunk is a fixed-size copy, the tail cut off after it
            let len = out.len();
            out.extend_from_slice(&occupied);
            out.truncate(len + n);
            if n < CHUNK {
                return;
            }
        }
    }

    /// What a point test reads of the grid.
    #[inline(always)]
    fn lookup(&self) -> Lookup {
        let res = self.res as u32;
        Lookup {
            min: self.bounds.min,
            max: self.bounds.max,
            extent: self.bounds.extent(),
            scale: res as f32,
            max_cell: (res - 1) as f32,
            strides: (res, res * res),
        }
    }

    /// Bit `shift` of byte `byte`: 0 when `shift` is 8.
    #[inline(always)]
    fn read(&self, (byte, shift): (u32, u32)) -> bool {
        (u32::from(self.bits[byte as usize]) >> shift) & 1 != 0
    }

    /// The centre of every occupied cell in `[0,1]^3`, in cell-index order
    /// (x fastest, then y, then z).
    pub fn occupied_centres(&self) -> impl Iterator<Item = Vec3> + '_ {
        let res = self.res;
        let centre = move |c: usize| (c as f32 + 0.5) / res as f32;
        (0..res * res * res)
            .step_by(8)
            .zip(&self.bits)
            .filter(|&(_, &byte)| byte != 0)
            .flat_map(|(base, &byte)| {
                (0..8).filter(move |b| byte >> b & 1 != 0).map(move |b| base + b)
            })
            .map(move |i| {
                Vec3::new(centre(i % res), centre(i / res % res), centre(i / (res * res)))
            })
    }

    /// Fraction of occupied cells.
    pub fn occupied_fraction(&self) -> f32 {
        let occupied: u32 = self.bits.iter().map(|b| b.count_ones()).sum();
        occupied as f32 / (self.res * self.res * self.res) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_scenes::registry;

    #[test]
    fn solid_grid_accepts_everything_inside() {
        let g = OccupancyGrid::solid(Aabb::centered(1.0));
        assert!(g.occupied_world(Vec3::ZERO));
        assert!(g.occupied_world(Vec3::splat(0.99)));
        assert!(!g.occupied_world(Vec3::splat(1.5)));
        assert_eq!(g.occupied_fraction(), 1.0);
    }

    #[test]
    fn scene_grid_matches_content() {
        let scene = registry::handle("Mic").build();
        let g = OccupancyGrid::build(scene.as_ref(), 32);
        // mic head region occupied
        assert!(g.occupied_world(Vec3::new(0.0, 0.45, 0.0)));
        // far empty corner unoccupied
        assert!(!g.occupied_world(Vec3::new(0.9, 0.9, -0.9)));
        let f = g.occupied_fraction();
        assert!(f > 0.01 && f < 0.8, "fraction {f}");
    }

    #[test]
    fn cells_pack_into_the_checkpoint_layout_and_back() {
        let bounds = Aabb::centered(1.0);
        for res in [1usize, 3, 4, 64] {
            // every third cell, and the bytes a checkpoint would hold for them
            let cells: Vec<_> = (0..res * res * res).map(|i| i % 3 == 0).collect();
            let mut bits = vec![0u8; cells.len().div_ceil(8)];
            for i in (0..cells.len()).step_by(3) {
                bits[i / 8] |= 1 << (i % 8);
            }
            let g = OccupancyGrid::from_cells(res, bounds, cells.clone()).unwrap();
            assert_eq!(g.bits(), bits, "res {res}");
            assert_eq!(OccupancyGrid::from_bits(res, bounds, bits).unwrap(), g, "res {res}");
            let r = res as f32;
            for (i, &cell) in cells.iter().enumerate() {
                let (x, y, z) = (i % res, (i / res) % res, i / (res * res));
                let centre = Vec3::new(x as f32 + 0.5, y as f32 + 0.5, z as f32 + 0.5) / r;
                assert_eq!(g.occupied01(centre), cell, "res {res} cell {i}");
            }
            let set = cells.iter().filter(|&&c| c).count();
            assert_eq!(g.occupied_fraction(), set as f32 / cells.len() as f32, "res {res}");
        }
    }

    #[test]
    fn spare_bits_stay_zero_and_wrong_lengths_are_rejected() {
        let bounds = Aabb::centered(1.0);
        // 27 cells: five spare bits in the fourth byte
        let full = OccupancyGrid::from_cells(3, bounds, vec![true; 27]).unwrap();
        assert_eq!(full.bits(), [0xff, 0xff, 0xff, 0x07]);
        let loaded = OccupancyGrid::from_bits(3, bounds, vec![0xff; 4]).unwrap();
        assert_eq!(loaded, full, "a file's spare bits must not reach equality or the fraction");
        assert_eq!(loaded.occupied_fraction(), 1.0);
        assert!(OccupancyGrid::from_bits(3, bounds, vec![0; 3]).is_err());
        assert!(OccupancyGrid::from_bits(3, bounds, vec![0; 5]).is_err());
        assert!(OccupancyGrid::from_bits(0, bounds, Vec::new()).is_err());
        assert!(OccupancyGrid::from_cells(3, bounds, vec![true; 26]).is_err());
        assert!(OccupancyGrid::from_cells(0, bounds, Vec::new()).is_err());
    }

    #[test]
    fn the_fraction_is_the_bool_count_on_a_real_scene() {
        let scene = registry::handle("Mic").build();
        let g = OccupancyGrid::build(scene.as_ref(), 32);
        let r = 32.0;
        let mut occupied = 0usize;
        for z in 0..32 {
            for y in 0..32 {
                for x in 0..32 {
                    let centre = Vec3::new(x as f32 + 0.5, y as f32 + 0.5, z as f32 + 0.5) / r;
                    occupied += g.occupied01(centre) as usize;
                }
            }
        }
        assert_eq!(g.occupied_fraction(), occupied as f32 / 32768.0);
    }

    #[test]
    fn dilation_covers_surface_shell() {
        let scene = registry::handle("Lego").build();
        let g = OccupancyGrid::build(scene.as_ref(), 32);
        // a point just outside the density support must still be occupied
        // (the transition shell matters for interpolation)
        let p = Vec3::new(0.0, -0.72 + 0.08, 0.0); // just above the base plate
        assert!(g.occupied_world(p));
    }
}
