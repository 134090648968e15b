//! Instant-NGP and TensoRF neural-rendering substrates.
//!
//! This crate reimplements, from scratch, the model side of the systems the
//! ASDR paper builds on:
//!
//! * [`hash`] — the spatial hash of Eq. (2),
//! * [`grid`] — the multi-resolution grid geometry (16 levels, growth
//!   factor, dense-vs-hashed levels),
//! * [`embedding`] — the per-level feature tables,
//! * [`encoder`] — multi-resolution hash encoding with trilinear
//!   interpolation, plus the vertex/address introspection the architecture
//!   simulator consumes,
//! * [`mlp`] — dense MLPs with FLOP accounting, in `f32` and as the 8-bit
//!   integer layers every query runs,
//! * [`kernel`] — which instantiation of the kernel bodies (the integer MLP
//!   layer, the encoder, the occupancy pass) this CPU runs,
//! * [`model`] — the combined NGP model (density MLP + color MLP),
//! * [`fit`] — building a model from an analytic [`asdr_scenes::SceneField`]
//!   (the offline substitute for training; see DESIGN.md §1) and an SGD
//!   refinement pass,
//! * [`tensorf`] — a TensoRF (VM-decomposition) model for §6.8 of the paper,
//! * [`profile`] — workload profilers regenerating Figs. 4, 5, 8 and 15.
//!
//! # Example
//!
//! ```
//! use asdr_nerf::{fit, grid::GridConfig};
//! use asdr_scenes::registry;
//!
//! let scene = registry::handle("Mic").build();
//! let model = fit::fit_ngp(scene.as_ref(), &GridConfig::tiny());
//! let (sigma, _feat) = model.query_density(asdr_math::Vec3::new(0.0, 0.45, 0.0));
//! assert!(sigma > 1.0); // inside the mic head
//! ```

// the two exceptions are in `kernel`: `dispatch`, the run-time choice of
// kernel instantiation, and `cast`, the integer layer's vector loads and
// stores (DESIGN.md §8); each `unsafe` block must say why it is sound
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dvgo;
pub mod embedding;
pub mod encoder;
pub mod fit;
pub mod grid;
pub mod hash;
pub mod io;
pub mod kernel;
pub mod mlp;
pub mod model;
pub mod occupancy;
pub mod profile;
pub mod tensorf;

pub use encoder::HashEncoder;
pub use model::NgpModel;
