//! ASDR — a full-stack Rust reproduction of *"ASDR: Exploiting Adaptive
//! Sampling and Data Reuse for CIM-based Instant Neural Rendering"*
//! (ASPLOS 2025).
//!
//! This façade crate re-exports the workspace's layers:
//!
//! * [`math`] — geometry, imaging, quality metrics,
//! * [`scenes`] — procedural scene fields + ground-truth renderer,
//! * [`nerf`] — Instant-NGP / TensoRF substrates,
//! * [`cim`] — ReRAM/SRAM crossbar, systolic array, energy models,
//! * [`core`] — the ASDR algorithms and chip simulator,
//! * [`serve`] — the multi-tenant render service, checkpoint-backed
//!   model store, and trace record/replay (a run captured as a JSON-lines
//!   workload file that replays it verbatim),
//! * [`cluster`] — sharded serving: consistent-hash routing, cost-based
//!   admission, fixed worker pools, and the remote fleet (wire
//!   protocol, `asdr-shardd` daemons, health-checked hedged clients),
//! * [`baselines`] — GPU roofline models, NeuRex, Re-NeRF.
//!
//! See `examples/quickstart.rs` for the five-minute tour, `DESIGN.md` for
//! the crate inventory and dependency DAG, and `README.md` for the
//! quickstart and verification commands.
//!
//! ```
//! use asdr::core::algo::{ExecPolicy, FrameEngine, RenderOptions};
//! use asdr::nerf::{fit, grid::GridConfig};
//! use asdr::scenes::registry;
//!
//! let mic = registry::handle("Mic");
//! let scene = mic.build();
//! let model = fit::fit_ngp(scene.as_ref(), &GridConfig::tiny());
//! let cam = mic.camera(32, 32);
//! // a session object: validated once, reused across frames and sequences
//! let engine = FrameEngine::new(
//!     RenderOptions::asdr_default(48),
//!     ExecPolicy::TileStealing { tile_size: 8 },
//! )
//! .expect("valid options");
//! let out = engine.render_frame(&model, &cam);
//! assert!(out.stats.planned_points < out.stats.base_points);
//! ```

#![forbid(unsafe_code)]

pub use asdr_baselines as baselines;
pub use asdr_cim as cim;
pub use asdr_cluster as cluster;
pub use asdr_core as core;
pub use asdr_math as math;
pub use asdr_nerf as nerf;
pub use asdr_obs as obs;
pub use asdr_scenes as scenes;
pub use asdr_serve as serve;
