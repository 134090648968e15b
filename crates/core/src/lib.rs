//! The ASDR contribution: rendering algorithms and the CIM chip simulator.
//!
//! This crate implements both halves of the paper's co-design:
//!
//! * [`algo`] — the algorithm level (§4): exact volume rendering (Eq. 1),
//!   early termination, difficulty-aware adaptive sampling (Eq. 3),
//!   color–density decoupling via group interpolation, and the software
//!   ASDR renderer that runs the full two-phase dataflow on any
//!   [`asdr_nerf::model::RadianceModel`];
//! * [`arch`] — the architecture level (§5): the hybrid address generator
//!   with de-hashed, replicated low-resolution tables, the register-based
//!   LRU cache, the Mem-Xbar conflict model, the CIM MLP engine, the volume
//!   rendering engine, the ASDR-Server / ASDR-Edge configurations (Table 2),
//!   and the chip-level performance/energy simulator.
//!
//! # Example
//!
//! ```
//! use asdr_core::algo::{ExecPolicy, FrameEngine, RenderOptions};
//! use asdr_nerf::{fit, grid::GridConfig};
//! use asdr_scenes::registry;
//!
//! let mic = registry::handle("Mic");
//! let scene = mic.build();
//! let model = fit::fit_ngp(scene.as_ref(), &GridConfig::tiny());
//! let cam = mic.camera(32, 32);
//! let engine = FrameEngine::new(RenderOptions::asdr_default(64), ExecPolicy::Sequential).unwrap();
//! let out = engine.render_frame(&model, &cam);
//! assert!(out.stats.color_points < out.stats.density_points);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

// the kept scalar reference in `tests/common` names this crate as its
// integration tests see it; `renderer.rs`'s unit tests compile it too
#[cfg(test)]
extern crate self as asdr_core;

pub mod algo;
pub mod arch;

pub use algo::{RenderOptions, RenderOutput, RenderStats};
