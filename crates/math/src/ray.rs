//! Rays and ray segments.

use crate::Vec3;

/// A half-line with an origin and a unit direction.
///
/// Each image pixel corresponds to one ray; sample points along the ray are
/// addressed by the parametric distance `t`.
///
/// ```
/// use asdr_math::{Ray, Vec3};
/// let r = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 2.0));
/// assert_eq!(r.at(3.0), Vec3::new(0.0, 0.0, 3.0)); // direction is normalized
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin.
    pub origin: Vec3,
    /// Unit direction.
    pub dir: Vec3,
}

impl Ray {
    /// Creates a ray; `dir` is normalized.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dir` is (near) zero.
    pub fn new(origin: Vec3, dir: Vec3) -> Self {
        Ray { origin, dir: dir.normalized() }
    }

    /// The point at parametric distance `t` along the ray.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.dir * t
    }
}

/// The `[t_near, t_far]` interval over which a ray should be sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TRange {
    /// Entry distance.
    pub near: f32,
    /// Exit distance.
    pub far: f32,
}

impl TRange {
    /// Creates a range. `near` must not exceed `far`.
    pub fn new(near: f32, far: f32) -> Self {
        debug_assert!(near <= far, "TRange near={near} > far={far}");
        TRange { near, far }
    }

    /// Length of the interval.
    #[inline]
    pub fn span(&self) -> f32 {
        self.far - self.near
    }

    /// True if the interval is empty (or degenerate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.span() <= 0.0
    }

    /// Produces `n` sample distances placed at the midpoints of `n` equal
    /// sub-intervals (the stratified-midpoint rule Instant-NGP uses for
    /// deterministic inference).
    pub fn midpoints(&self, n: usize) -> Vec<f32> {
        self.midpoints_iter(n).collect()
    }

    /// [`Self::midpoints`] without the allocation, for callers that fill a
    /// buffer of their own.
    pub fn midpoints_iter(&self, n: usize) -> impl Iterator<Item = f32> {
        let (near, dt) = (self.near, self.span() / n as f32);
        (0..n).map(move |i| near + dt * (i as f32 + 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_walks_along_direction() {
        let r = Ray::new(Vec3::new(1.0, 0.0, 0.0), Vec3::X);
        assert_eq!(r.at(0.0), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(r.at(2.5), Vec3::new(3.5, 0.0, 0.0));
    }

    #[test]
    fn direction_is_normalized() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(0.0, 10.0, 0.0));
        assert!((r.dir.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn midpoints_cover_range_uniformly() {
        let tr = TRange::new(2.0, 6.0);
        let ts = tr.midpoints(4);
        assert_eq!(ts.len(), 4);
        assert!((ts[0] - 2.5).abs() < 1e-6);
        assert!((ts[3] - 5.5).abs() < 1e-6);
        // uniform spacing
        let d0 = ts[1] - ts[0];
        for w in ts.windows(2) {
            assert!((w[1] - w[0] - d0).abs() < 1e-6);
        }
        // all inside the range
        assert!(ts.iter().all(|&t| t > tr.near && t < tr.far));
    }

    #[test]
    fn trange_span_and_empty() {
        assert_eq!(TRange::new(1.0, 4.0).span(), 3.0);
        assert!(TRange::new(2.0, 2.0).is_empty());
    }
}
