//! Multi-resolution hash encoding (§2.2, Fig. 2(b) of the paper).
//!
//! For a sample point the encoder locates the containing voxel at each
//! resolution level, looks up the embeddings of the voxel's eight vertices,
//! blends them trilinearly, and concatenates the per-level results. Like the
//! paper's hybrid address generator (§5.2.1) it locates eight levels at once,
//! one a vector lane, then reads and blends each level's rows. The encoder
//! can additionally emit the exact sequence of `(level, vertex, table-row)`
//! accesses it performed — that access trace is what drives the ASDR
//! architecture simulator (cache, crossbar conflicts, Fig. 4).

use crate::embedding::EmbeddingSet;
use crate::grid::{GridConfig, PlanLanes};
use crate::kernel::{run_on, Kernel, LANES};
use asdr_math::interp::CORNER_OFFSETS;
use asdr_math::Vec3;

/// One embedding-table access performed during encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexAccess {
    /// Resolution level (table index).
    pub level: u16,
    /// Vertex coordinates at that level.
    pub vertex: (u32, u32, u32),
    /// Table row the vertex mapped to (dense or hashed).
    pub row: u32,
}

/// The multi-resolution hash encoder: grid geometry + embedding storage.
#[derive(Debug, Clone, PartialEq)]
pub struct HashEncoder {
    cfg: GridConfig,
    tables: EmbeddingSet,
    /// The tables' level plans in blocks of [`LANES`] levels.
    blocks: Vec<PlanLanes>,
}

impl HashEncoder {
    /// Wraps an embedding set with its grid configuration.
    ///
    /// # Panics
    ///
    /// Panics if the set's level count or feature width disagrees with the
    /// config.
    pub fn new(cfg: GridConfig, tables: EmbeddingSet) -> Self {
        assert_eq!(cfg.levels, tables.levels(), "level count mismatch");
        assert!(
            tables.iter().all(|t| t.feat_dim() == cfg.feat_dim),
            "feature width mismatch between config and tables"
        );
        let blocks = PlanLanes::blocks(tables.iter().map(|t| t.plan()));
        HashEncoder { cfg, tables, blocks }
    }

    /// Grid configuration.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// Embedding storage (shared with the fitting code).
    pub fn tables(&self) -> &EmbeddingSet {
        &self.tables
    }

    /// Mutable embedding storage.
    pub fn tables_mut(&mut self) -> &mut EmbeddingSet {
        &mut self.tables
    }

    /// Dimension of the encoded output (`levels × feat_dim`).
    pub fn encoded_dim(&self) -> usize {
        self.cfg.encoded_dim()
    }

    /// The eight vertex accesses of `p01` at `level`, in
    /// [`CORNER_OFFSETS`] order: the rows the encoder's lane for the level
    /// computes.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn vertex_accesses(&self, p01: Vec3, level: usize) -> [VertexAccess; 8] {
        assert!(level < self.cfg.levels, "level {level} out of range");
        let block = &self.blocks[level / LANES];
        let (base, _, rows) = block.lane(level % LANES, p01.clamp(0.0, 1.0));
        corner_accesses(level, base, rows)
    }

    /// Encodes `p01 ∈ [0,1]^3` into `out` (length [`Self::encoded_dim`]).
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length.
    pub fn encode(&self, p01: Vec3, out: &mut [f32]) {
        self.encode_on(Kernel::Avx2, p01, out, None);
    }

    /// Like [`Self::encode`] but appends every table access to `trace`.
    pub fn encode_traced(&self, p01: Vec3, out: &mut [f32], trace: &mut Vec<VertexAccess>) {
        self.encode_on(Kernel::Avx2, p01, out, Some(trace));
    }

    /// [`Self::encode`] or, with a `trace`, [`Self::encode_traced`] on the
    /// instantiation named: for tests and benches, never the product. Picks
    /// the [`Self::encode_impl`] instance of the configured feature width —
    /// one of those [`GridConfig::validate`] admits.
    #[doc(hidden)]
    pub fn encode_on(
        &self,
        kernel: Kernel,
        p01: Vec3,
        out: &mut [f32],
        trace: Option<&mut Vec<VertexAccess>>,
    ) {
        match self.cfg.feat_dim {
            1 => self.encode_at::<1>(kernel, p01, out, trace),
            2 => self.encode_at::<2>(kernel, p01, out, trace),
            4 => self.encode_at::<4>(kernel, p01, out, trace),
            8 => self.encode_at::<8>(kernel, p01, out, trace),
            f => unreachable!("feat_dim {f} passed GridConfig::validate"),
        }
    }

    /// [`Self::encode_impl`] at width `F` on `kernel` (see [`run_on`]).
    fn encode_at<const F: usize>(
        &self,
        kernel: Kernel,
        p01: Vec3,
        out: &mut [f32],
        trace: Option<&mut Vec<VertexAccess>>,
    ) {
        run_on(
            kernel,
            self,
            (p01, trace),
            out,
            #[inline(always)]
            |encoder, (p01, trace), out| encoder.encode_impl::<F>(p01, out, trace),
        );
    }

    /// The encoder's one body: per block of [`LANES`] levels, the point
    /// located in all of them at once ([`PlanLanes::locate`]), then each
    /// level's eight corner rows read whole, once, and blended.
    #[inline(always)]
    fn encode_impl<const F: usize>(
        &self,
        p01: Vec3,
        out: &mut [f32],
        mut trace: Option<&mut Vec<VertexAccess>>,
    ) {
        assert_eq!(out.len(), self.encoded_dim(), "output buffer length mismatch");
        let (levels, _) = out.as_chunks_mut::<F>();
        let mut tables = self.tables.iter().enumerate();
        for (block, dsts) in self.blocks.iter().zip(levels.chunks_mut(LANES)) {
            let voxels = block.locate(p01);
            for (lane, (dst, (level, table))) in dsts.iter_mut().zip(&mut tables).enumerate() {
                if let Some(t) = trace.as_deref_mut() {
                    let [x, y, z] = &voxels.base;
                    let mut rows = [0; 8];
                    for (row, corner) in rows.iter_mut().zip(&voxels.rows) {
                        *row = corner[lane];
                    }
                    t.extend(corner_accesses(level, (x[lane], y[lane], z[lane]), rows));
                }
                // per feature the corners still add in `CORNER_OFFSETS` order
                // from zero
                let (feats, _) = table.params().as_chunks::<F>();
                let mut acc = [0.0f32; F];
                for (rows, weights) in voxels.rows.iter().zip(&voxels.weights) {
                    let (row, wi) = (&feats[rows[lane] as usize], weights[lane]);
                    for (a, &f) in acc.iter_mut().zip(row) {
                        *a += wi * f;
                    }
                }
                *dst = acc;
            }
        }
    }

    /// FLOPs of one point encoding: per level, 8 trilinear weights (≈24
    /// multiplies) plus 8 × F multiply-accumulates (2 FLOPs each).
    pub fn flops_per_point(&self) -> u64 {
        let per_level = 24 + 8 * self.cfg.feat_dim as u64 * 2;
        self.cfg.levels as u64 * per_level
    }
}

/// The accesses of one voxel's corners, in [`CORNER_OFFSETS`] order.
fn corner_accesses(level: usize, base: (u32, u32, u32), rows: [u32; 8]) -> [VertexAccess; 8] {
    std::array::from_fn(|i| {
        let (dx, dy, dz) = CORNER_OFFSETS[i];
        VertexAccess {
            level: level as u16,
            vertex: (base.0 + dx, base.1 + dy, base.2 + dz),
            row: rows[i],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_math::rng::seeded;
    use rand::Rng;

    fn randomized_encoder() -> HashEncoder {
        let cfg = GridConfig::tiny();
        let mut set = EmbeddingSet::new(&cfg);
        let mut rng = seeded("encoder-test", 0);
        for l in 0..cfg.levels {
            for v in set.table_mut(l).params_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        HashEncoder::new(cfg, set)
    }

    #[test]
    fn encode_output_dim_and_determinism() {
        let enc = randomized_encoder();
        let mut a = vec![0.0; enc.encoded_dim()];
        let mut b = vec![0.0; enc.encoded_dim()];
        let p = Vec3::new(0.3, 0.6, 0.9);
        enc.encode(p, &mut a);
        enc.encode(p, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn encode_at_vertex_returns_vertex_feature() {
        let enc = randomized_encoder();
        // pick the exact grid vertex (2,3,1) of level 0 (res 8 ⇒ spacing 1/8)
        let p = Vec3::new(2.0 / 8.0, 3.0 / 8.0, 1.0 / 8.0);
        let mut out = vec![0.0; enc.encoded_dim()];
        enc.encode(p, &mut out);
        let expect = enc.tables().table(0).lookup(2, 3, 1);
        let f = enc.config().feat_dim;
        for (o, e) in out[..f].iter().zip(expect) {
            assert!((o - e).abs() < 1e-5, "vertex feature should pass through exactly");
        }
    }

    #[test]
    fn encode_is_continuous_across_cells() {
        let enc = randomized_encoder();
        // approach a cell boundary from both sides
        let eps = 1e-5;
        let pa = Vec3::new(0.25 - eps, 0.4, 0.4);
        let pb = Vec3::new(0.25 + eps, 0.4, 0.4);
        let mut a = vec![0.0; enc.encoded_dim()];
        let mut b = vec![0.0; enc.encoded_dim()];
        enc.encode(pa, &mut a);
        enc.encode(pb, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "feature jumps across cell boundary: {x} vs {y}");
        }
    }

    #[test]
    fn trace_has_8_accesses_per_level() {
        let enc = randomized_encoder();
        let mut out = vec![0.0; enc.encoded_dim()];
        let mut trace = Vec::new();
        enc.encode_traced(Vec3::new(0.51, 0.49, 0.52), &mut out, &mut trace);
        assert_eq!(trace.len(), 8 * enc.config().levels);
        for l in 0..enc.config().levels {
            let lvl: Vec<_> = trace.iter().filter(|a| a.level as usize == l).collect();
            assert_eq!(lvl.len(), 8);
            // eight distinct vertices
            let mut verts: Vec<_> = lvl.iter().map(|a| a.vertex).collect();
            verts.sort();
            verts.dedup();
            assert_eq!(verts.len(), 8);
        }
    }

    #[test]
    fn traced_and_untraced_agree() {
        let enc = randomized_encoder();
        let p = Vec3::new(0.12, 0.93, 0.41);
        let mut a = vec![0.0; enc.encoded_dim()];
        let mut b = vec![0.0; enc.encoded_dim()];
        enc.encode(p, &mut a);
        enc.encode_traced(p, &mut b, &mut Vec::new());
        assert_eq!(a, b);
    }

    #[test]
    fn boundary_points_are_clamped_safely() {
        let enc = randomized_encoder();
        let mut out = vec![0.0; enc.encoded_dim()];
        for p in [Vec3::ZERO, Vec3::ONE, Vec3::new(1.0, 0.0, 1.0), Vec3::new(-0.1, 0.5, 1.3)] {
            enc.encode(p, &mut out); // must not panic
            assert!(out.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn neighbouring_points_share_voxel_vertices() {
        // the premise of the register cache (§5.2.2): two nearby points hit
        // the same coarse-level rows.
        let enc = randomized_encoder();
        let a = enc.vertex_accesses(Vec3::new(0.40, 0.40, 0.40), 0);
        let b = enc.vertex_accesses(Vec3::new(0.42, 0.41, 0.40), 0);
        let rows_a: std::collections::HashSet<_> = a.iter().map(|v| v.row).collect();
        let shared = b.iter().filter(|v| rows_a.contains(&v.row)).count();
        assert!(shared >= 4, "coarse-level vertices should be heavily shared");
    }

    #[test]
    fn flops_positive_and_scale_with_levels() {
        let enc = randomized_encoder();
        let f = enc.flops_per_point();
        assert!(f > 0);
        assert_eq!(f % enc.config().levels as u64, 0);
    }
}
