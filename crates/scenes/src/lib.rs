//! Procedural scene fields and ground-truth rendering for the ASDR
//! reproduction.
//!
//! The paper evaluates on ten scenes drawn from five datasets (Table 1).
//! Trained checkpoints and the underlying photos are not available offline,
//! so this crate provides *analytic procedural stand-ins*: fields the
//! neural-rendering substrate (`asdr-nerf`) fits its hash-grid model to,
//! after which every pipeline stage behaves exactly as with a trained model
//! (see DESIGN.md §1).
//!
//! Scenes live in an **open registry** ([`registry`]): a scene is a
//! [`registry::SceneDef`] (name, metadata, field builder, standard camera)
//! and any crate can add one with [`registry::register`] — see
//! `src/README.md` for the guide. The ten paper scenes are pre-registered,
//! along with three showcase families the closed paper set cannot express:
//! a time-parameterized animated field ([`animated`]), a CSG expression
//! tree ([`csg`]), and a surface-free volumetric cloud ([`cloud`]).
//!
//! # Example
//!
//! ```
//! use asdr_scenes::registry;
//!
//! let lego = registry::handle("Lego");
//! let scene = lego.build();
//! let cam = lego.camera(32, 32);
//! let gt = asdr_scenes::gt::render_ground_truth(scene.as_ref(), &cam, 64);
//! assert_eq!(gt.width(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod animated;
pub mod cloud;
pub mod csg;
pub mod field;
pub mod gt;
pub mod procedural;
pub mod registry;
pub mod sdf;

pub use field::SceneField;
pub use registry::{OrbitCamera, SceneDef, SceneHandle, SceneKind, SceneRegistry};
