//! Pinhole camera emitting one ray per pixel.

use crate::{Ray, Vec3};

/// A pinhole camera.
///
/// Pixels are addressed `(px, py)` with `(0, 0)` the top-left corner; each
/// pixel maps to exactly one primary ray through its center, matching the
/// paper's "each ray corresponds to one pixel" convention.
///
/// ```
/// use asdr_math::{Camera, Vec3};
/// let cam = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y, 45.0, 800, 800);
/// let center = cam.ray_for_pixel(400, 400);
/// assert!(center.dir.z < 0.0); // looking toward -Z
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Camera {
    origin: Vec3,
    lower_left: Vec3,
    horizontal: Vec3,
    vertical: Vec3,
    width: u32,
    height: u32,
}

impl Camera {
    /// Builds a camera at `eye` looking at `target` with the given vertical
    /// field of view in degrees and image resolution.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero, or `eye == target`.
    pub fn look_at(
        eye: Vec3,
        target: Vec3,
        up: Vec3,
        vfov_deg: f32,
        width: u32,
        height: u32,
    ) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        assert!((eye - target).norm() > 1e-9, "eye and target coincide");
        let aspect = width as f32 / height as f32;
        let theta = vfov_deg.to_radians();
        let half_h = (theta / 2.0).tan();
        let half_w = aspect * half_h;
        let w = (eye - target).normalized();
        let u = up.cross(w).normalized();
        let v = w.cross(u);
        Camera {
            origin: eye,
            lower_left: eye - u * half_w - v * half_h - w,
            horizontal: u * (2.0 * half_w),
            vertical: v * (2.0 * half_h),
            width,
            height,
        }
    }

    /// Camera position.
    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of pixels (= rays per frame).
    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The primary ray through the center of pixel `(px, py)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pixel is out of range.
    pub fn ray_for_pixel(&self, px: u32, py: u32) -> Ray {
        debug_assert!(px < self.width && py < self.height);
        let s = (px as f32 + 0.5) / self.width as f32;
        // flip Y so py=0 is the top row
        let t = 1.0 - (py as f32 + 0.5) / self.height as f32;
        let point = self.lower_left + self.horizontal * s + self.vertical * t;
        Ray::new(self.origin, point - self.origin)
    }

    /// A standard orbit viewpoint: camera on a circle of radius `radius`
    /// around `target` at azimuth `az_deg` and elevation `el_deg`.
    pub fn orbit(
        target: Vec3,
        radius: f32,
        az_deg: f32,
        el_deg: f32,
        vfov_deg: f32,
        width: u32,
        height: u32,
    ) -> Self {
        let az = az_deg.to_radians();
        let el = el_deg.to_radians();
        let eye = target
            + Vec3::new(
                radius * el.cos() * az.sin(),
                radius * el.sin(),
                radius * el.cos() * az.cos(),
            );
        Camera::look_at(eye, target, Vec3::Y, vfov_deg, width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y, 60.0, 64, 48)
    }

    #[test]
    fn central_ray_points_at_target() {
        let cam = test_cam();
        let r = cam.ray_for_pixel(32, 24);
        // should point roughly toward origin, i.e. -Z
        assert!(r.dir.z < -0.99);
    }

    #[test]
    fn corner_rays_diverge() {
        let cam = test_cam();
        let tl = cam.ray_for_pixel(0, 0);
        let br = cam.ray_for_pixel(63, 47);
        assert!(tl.dir.x < 0.0 && tl.dir.y > 0.0, "top-left goes up-left: {:?}", tl.dir);
        assert!(br.dir.x > 0.0 && br.dir.y < 0.0, "bottom-right goes down-right");
    }

    #[test]
    fn all_rays_are_unit_length() {
        let cam = test_cam();
        for py in (0..48).step_by(7) {
            for px in (0..64).step_by(9) {
                let r = cam.ray_for_pixel(px, py);
                assert!((r.dir.norm() - 1.0).abs() < 1e-5);
                assert_eq!(r.origin, cam.origin());
            }
        }
    }

    #[test]
    fn pixel_count_is_width_times_height() {
        assert_eq!(test_cam().pixel_count(), 64 * 48);
    }

    #[test]
    fn orbit_distance_is_radius() {
        let cam = Camera::orbit(Vec3::ZERO, 3.0, 45.0, 30.0, 50.0, 32, 32);
        assert!((cam.origin().norm() - 3.0).abs() < 1e-5);
    }
}
