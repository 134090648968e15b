//! Scaffolding shared by the serve integration tests: a tiny fit
//! configuration and a structurally-valid model that costs nothing to
//! build, so no scheduler or store test pays for a real scene fit.

use asdr_math::{Aabb, Vec3};
use asdr_nerf::embedding::EmbeddingSet;
use asdr_nerf::grid::GridConfig;
use asdr_nerf::mlp::{Activation, Dense, Mlp};
use asdr_nerf::model::{COLOR_IN_DIM, DENSITY_OUT_DIM, HIDDEN_DIM};
use asdr_nerf::occupancy::OccupancyGrid;
use asdr_nerf::{HashEncoder, NgpModel};

/// A grid small enough that checkpoints are a few KB.
pub fn test_grid() -> GridConfig {
    GridConfig { levels: 2, base_res: 4, max_res: 8, table_size: 1 << 8, feat_dim: 2 }
}

/// A cheap structurally-valid model; `tag` lands in the color MLP's first
/// bias so instances are distinguishable (read it back with
/// `model.color_mlp().layers()[0].bias()[0]`).
pub fn blank_model(grid: &GridConfig, tag: f32) -> NgpModel {
    let encoder = HashEncoder::new(grid.clone(), EmbeddingSet::new(grid));
    let density = Mlp::new(vec![
        Dense::zeros(grid.encoded_dim(), HIDDEN_DIM, Activation::Relu),
        Dense::zeros(HIDDEN_DIM, DENSITY_OUT_DIM, Activation::None),
    ]);
    let mut color = Mlp::new(vec![
        Dense::zeros(COLOR_IN_DIM, HIDDEN_DIM, Activation::Relu),
        Dense::zeros(HIDDEN_DIM, 3, Activation::None),
    ]);
    color.layers_mut()[0].bias_mut()[0] = tag;
    let bounds = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0));
    let occ = OccupancyGrid::from_cells(4, bounds, vec![true; 64]).expect("valid cells");
    NgpModel::new(encoder, density, color, bounds, occ)
}
