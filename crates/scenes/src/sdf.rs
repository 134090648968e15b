//! Signed-distance-field primitives and combinators.
//!
//! These are the building blocks of the procedural stand-in scenes. All
//! functions return conservative signed distances (negative inside), which
//! [`crate::field::density_from_sdf`] converts to volume density.

use asdr_math::Vec3;

/// Distance to a sphere of radius `r` centered at `c`.
#[inline]
pub fn sphere(p: Vec3, c: Vec3, r: f32) -> f32 {
    (p - c).norm() - r
}

/// Distance to an axis-aligned box centered at `c` with half-extents `h`.
#[inline]
pub fn boxed(p: Vec3, c: Vec3, h: Vec3) -> f32 {
    let q = (p - c).abs() - h;
    let outside = q.max(Vec3::ZERO).norm();
    let inside = q.max_component().min(0.0);
    outside + inside
}

/// Distance to a box with rounded edges (radius `r`).
#[inline]
pub fn rounded_box(p: Vec3, c: Vec3, h: Vec3, r: f32) -> f32 {
    boxed(p, c, h) - r
}

/// Distance to a Y-axis cylinder centered at `c` with radius `r` and
/// half-height `hh`.
#[inline]
pub fn cylinder_y(p: Vec3, c: Vec3, r: f32, hh: f32) -> f32 {
    let q = p - c;
    let dxz = (q.x * q.x + q.z * q.z).sqrt() - r;
    let dy = q.y.abs() - hh;
    let outside = Vec3::new(dxz.max(0.0), dy.max(0.0), 0.0).norm();
    let inside = dxz.max(dy).min(0.0);
    outside + inside
}

/// Distance to a torus in the XZ plane centered at `c` with major radius `rr`
/// and tube radius `tr`.
#[inline]
pub fn torus_xz(p: Vec3, c: Vec3, rr: f32, tr: f32) -> f32 {
    let q = p - c;
    let ring = ((q.x * q.x + q.z * q.z).sqrt() - rr).hypot(q.y);
    ring - tr
}

/// Distance to a capsule (line segment `a`–`b` inflated by radius `r`).
#[inline]
pub fn capsule(p: Vec3, a: Vec3, b: Vec3, r: f32) -> f32 {
    let pa = p - a;
    let ba = b - a;
    let h = (pa.dot(ba) / ba.norm_sq()).clamp(0.0, 1.0);
    (pa - ba * h).norm() - r
}

/// Distance to a cone standing on the XZ plane at `base`, with base radius
/// `r` and height `h` (apex at `base + (0, h, 0)`).
#[inline]
pub fn cone_y(p: Vec3, base: Vec3, r: f32, h: f32) -> f32 {
    let q = p - base;
    let dxz = (q.x * q.x + q.z * q.z).sqrt();
    // 2D cross-section distance in (radial, vertical) space
    let t = (q.y / h).clamp(0.0, 1.0);
    let radius_at = r * (1.0 - t);
    let lateral = dxz - radius_at;
    let below = -q.y;
    let above = q.y - h;
    lateral.max(below).max(above) * 0.85 // slight conservative shrink
}

/// Union (minimum distance).
#[inline]
pub fn union(a: f32, b: f32) -> f32 {
    a.min(b)
}

/// Smooth union with blending radius `k` (polynomial smooth-min).
#[inline]
pub fn smooth_union(a: f32, b: f32, k: f32) -> f32 {
    debug_assert!(k > 0.0);
    let h = (0.5 + 0.5 * (b - a) / k).clamp(0.0, 1.0);
    b + (a - b) * h - k * h * (1.0 - h)
}

/// Subtraction: keeps `a` outside `b`.
#[inline]
pub fn subtract(a: f32, b: f32) -> f32 {
    a.max(-b)
}

/// Intersection (maximum distance).
#[inline]
pub fn intersect(a: f32, b: f32) -> f32 {
    a.max(b)
}

/// Infinite repetition of space with period `period` along each axis,
/// returning the repeated local coordinates (cell centered at origin).
#[inline]
pub fn repeat(p: Vec3, period: Vec3) -> Vec3 {
    debug_assert!(period.min_component() > 0.0);
    let half = period * 0.5;
    Vec3::new(
        (p.x + half.x).rem_euclid(period.x) - half.x,
        (p.y + half.y).rem_euclid(period.y) - half.y,
        (p.z + half.z).rem_euclid(period.z) - half.z,
    )
}

/// Cheap deterministic 3D value noise in `[-1, 1]` (single octave, trilinear
/// smoothing) — used for organic surface perturbation.
pub fn value_noise(p: Vec3, freq: f32) -> f32 {
    let q = p * freq;
    let base = q.floor();
    let f = q.fract();
    // smooth the interpolant
    let sm = Vec3::new(smooth(f.x), smooth(f.y), smooth(f.z));
    let mut acc = 0.0;
    for (i, &(dx, dy, dz)) in asdr_math::interp::CORNER_OFFSETS.iter().enumerate() {
        let corner = base + Vec3::new(dx as f32, dy as f32, dz as f32);
        let w = asdr_math::interp::trilinear_weights(sm.x, sm.y, sm.z)[i];
        acc += w * hash3(corner);
    }
    acc
}

#[inline]
fn smooth(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

/// Hashes integer lattice coordinates to `[-1, 1]`.
fn hash3(p: Vec3) -> f32 {
    let xi = p.x as i64;
    let yi = p.y as i64;
    let zi = p.z as i64;
    let mut h = (xi.wrapping_mul(73_856_093)
        ^ yi.wrapping_mul(19_349_663)
        ^ zi.wrapping_mul(83_492_791)) as u64;
    h ^= h >> 13;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h & 0xffff) as f32 / 32767.5 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_distance() {
        assert_eq!(sphere(Vec3::new(2.0, 0.0, 0.0), Vec3::ZERO, 1.0), 1.0);
        assert_eq!(sphere(Vec3::ZERO, Vec3::ZERO, 1.0), -1.0);
        assert!(sphere(Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO, 1.0).abs() < 1e-6);
    }

    #[test]
    fn box_distance_inside_and_out() {
        let h = Vec3::splat(1.0);
        assert!(boxed(Vec3::ZERO, Vec3::ZERO, h) < 0.0);
        assert!((boxed(Vec3::new(2.0, 0.0, 0.0), Vec3::ZERO, h) - 1.0).abs() < 1e-6);
        // corner distance is Euclidean
        let d = boxed(Vec3::new(2.0, 2.0, 2.0), Vec3::ZERO, h);
        assert!((d - (3.0f32).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn cylinder_and_torus_signs() {
        assert!(cylinder_y(Vec3::ZERO, Vec3::ZERO, 1.0, 1.0) < 0.0);
        assert!(cylinder_y(Vec3::new(3.0, 0.0, 0.0), Vec3::ZERO, 1.0, 1.0) > 0.0);
        // point on the ring center-line of the torus is inside the tube
        assert!(torus_xz(Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO, 1.0, 0.2) < 0.0);
        assert!(torus_xz(Vec3::ZERO, Vec3::ZERO, 1.0, 0.2) > 0.0);
    }

    #[test]
    fn capsule_contains_segment() {
        let a = Vec3::ZERO;
        let b = Vec3::new(0.0, 2.0, 0.0);
        assert!(capsule(Vec3::new(0.0, 1.0, 0.0), a, b, 0.3) < 0.0);
        assert!(capsule(Vec3::new(1.0, 1.0, 0.0), a, b, 0.3) > 0.0);
    }

    #[test]
    fn combinators_bounds() {
        let a = 0.5;
        let b = -0.25;
        assert_eq!(union(a, b), -0.25);
        assert_eq!(intersect(a, b), 0.5);
        assert_eq!(subtract(a, b), 0.5);
        // smooth union is never larger than plain union
        assert!(smooth_union(a, b, 0.2) <= union(a, b) + 1e-6);
    }

    #[test]
    fn smooth_union_blends() {
        // two equal distances blend below either input
        let d = smooth_union(0.1, 0.1, 0.2);
        assert!(d < 0.1);
    }

    #[test]
    fn repeat_is_periodic() {
        let period = Vec3::splat(1.0);
        let p = Vec3::new(0.3, -0.2, 5.4);
        let q1 = repeat(p, period);
        let q2 = repeat(p + Vec3::new(3.0, -2.0, 7.0), period);
        assert!((q1 - q2).norm() < 1e-5);
        assert!(q1.abs().max_component() <= 0.5 + 1e-6);
    }

    #[test]
    fn value_noise_is_deterministic_and_bounded() {
        let p = Vec3::new(0.3, 0.7, -0.2);
        let a = value_noise(p, 8.0);
        let b = value_noise(p, 8.0);
        assert_eq!(a, b);
        for i in 0..50 {
            let q = Vec3::new(i as f32 * 0.13, i as f32 * 0.07, -(i as f32) * 0.11);
            let v = value_noise(q, 5.0);
            assert!((-1.01..=1.01).contains(&v), "noise {v} out of range");
        }
    }

    #[test]
    fn cone_apex_and_base() {
        let base = Vec3::ZERO;
        assert!(cone_y(Vec3::new(0.0, 0.5, 0.0), base, 1.0, 1.0) < 0.0);
        assert!(cone_y(Vec3::new(2.0, 0.5, 0.0), base, 1.0, 1.0) > 0.0);
        assert!(cone_y(Vec3::new(0.0, -0.5, 0.0), base, 1.0, 1.0) > 0.0);
    }
}
