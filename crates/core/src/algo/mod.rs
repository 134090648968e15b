//! The ASDR algorithm level (§4 of the paper).

pub mod adaptive;
pub mod engine;
pub mod renderer;
pub mod volrend;

pub use adaptive::{AdaptiveConfig, SamplePlan};
pub use engine::{
    ExecPolicy, FrameEngine, FrameRecord, PhaseTimings, PlanPolicy, SequenceFrame, SequenceOutput,
};
pub use renderer::{RenderOptions, RenderOutput, RenderStats};
pub use volrend::{composite, composite_early_term, CompositeResult, SamplePoint};
