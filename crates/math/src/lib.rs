//! Geometry, imaging, and quality-metric primitives for the ASDR reproduction.
//!
//! This crate is the dependency-free (besides `rand`/`serde`) foundation of
//! the workspace. It provides:
//!
//! * [`Vec3`] / [`Ray`] / [`Aabb`] — minimal 3D linear algebra,
//! * [`Camera`] — a pinhole camera emitting one ray per pixel,
//! * [`Image`] — an RGB float image with PPM output,
//! * [`metrics`] — PSNR, SSIM and an LPIPS proxy used by the quality tables,
//! * [`interp`] — bilinear/trilinear interpolation helpers shared by the
//!   encoder and the adaptive sampler,
//! * [`sh`] — real spherical-harmonics basis for view-direction encoding,
//! * [`rng`] — deterministic seeding helpers,
//! * [`par`] — the worker budget and the fan-out onto parked helper threads
//!   the frame engine and the fit share.
//!
//! # Example
//!
//! ```
//! use asdr_math::{Camera, Vec3};
//!
//! let cam = Camera::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y, 60.0, 64, 64);
//! let ray = cam.ray_for_pixel(32, 32);
//! assert!((ray.dir.norm() - 1.0).abs() < 1e-6);
//! ```

// the one exception is `par::Join::hand`, which hands a job borrowed from
// the caller's stack to a pooled helper (DESIGN.md §8); its `unsafe` block
// must say why it is sound
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aabb;
pub mod camera;
pub mod image;
pub mod interp;
pub mod metrics;
pub mod par;
pub mod ray;
pub mod rgb;
pub mod rng;
pub mod sh;
pub mod vec3;

pub use aabb::Aabb;
pub use camera::Camera;
pub use image::Image;
pub use ray::Ray;
pub use rgb::Rgb;
pub use vec3::Vec3;
