//! The fit on workers: checkpoint bytes must not depend on how many threads
//! filled the tables. `make test-release` also runs this at opt-level 3.

use asdr_math::{Aabb, Rgb, Vec3};
use asdr_nerf::fit::{fit_ngp_on, BAND};
use asdr_nerf::grid::GridConfig;
use asdr_nerf::io::save_model;
use asdr_scenes::{registry, SceneField};

const WORKERS: [usize; 4] = [1, 2, 3, 5];

/// The checkpoint `field` fits to on `workers` threads.
fn checkpoint(field: &dyn SceneField, cfg: &GridConfig, workers: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    save_model(&fit_ngp_on(field, cfg, workers), "fit", &mut bytes).unwrap();
    bytes
}

fn assert_same_on_every_worker_count(name: &str, field: &dyn SceneField, cfg: &GridConfig) {
    let one = checkpoint(field, cfg, WORKERS[0]);
    for workers in &WORKERS[1..] {
        assert!(checkpoint(field, cfg, *workers) == one, "{name}: {workers} workers moved bytes");
    }
}

#[test]
fn serve_scenes_fit_the_same_bytes_on_any_worker_count() {
    for name in ["Lego", "Mic", "Cloud", "Pulse", "Chair", "Ship"] {
        let scene = registry::handle(name).build();
        assert_same_on_every_worker_count(name, scene.as_ref(), &GridConfig::tiny());
    }
}

/// Occupied everywhere, with an albedo that is ±2⁶⁰ at a quarter of the
/// points each and small elsewhere. On a grid with no dense level the
/// residuals are the targets themselves, so a hashed row's f64 sum keeps a
/// small term only if it arrives while the large ones have cancelled: records
/// applied in any order but the serial fit's move the checkpoint.
struct OrderSensitive;

impl SceneField for OrderSensitive {
    fn density(&self, _p: Vec3) -> f32 {
        1.0
    }

    fn albedo(&self, p: Vec3) -> Rgb {
        let h = (p.x.to_bits() ^ p.y.to_bits().rotate_left(11) ^ p.z.to_bits().rotate_left(22))
            .wrapping_mul(0x9E37_79B9);
        let pick = |shift: u32| match (h >> shift) % 4 {
            0 => 2f32.powi(60),
            1 => -(2f32.powi(60)),
            _ => ((h >> (shift + 2)) % 1000) as f32 / 997.0,
        };
        Rgb::new(pick(3), pick(13), pick(23))
    }

    fn bounds(&self) -> Aabb {
        Aabb::centered(1.0)
    }
}

#[test]
fn an_order_sensitive_field_fits_the_same_bytes_on_any_worker_count() {
    // four hashed levels (9³ vertices already overflow 512 rows), the
    // finest 31 vertices a side
    let cfg = GridConfig { levels: 4, base_res: 8, max_res: 30, table_size: 512, feat_dim: 2 };
    assert!((0..cfg.levels).all(|l| !cfg.is_dense(l)));
    let finest = cfg.level_vertex_res(cfg.levels - 1);
    assert_ne!(finest % BAND, 0, "the last band must be a short one");
    assert_same_on_every_worker_count("order-sensitive", &OrderSensitive, &cfg);
}
