//! Trace capture, compression, and representative replay (ROADMAP:
//! "trace capture, compression, and representative replay").
//!
//! The subsystem turns the serving layer's 14-line JSONL fixtures into a
//! real workload pipeline:
//!
//! * [`mod@format`] — the compact VERSION-1 binary trace codec
//!   (delta-encoded arrivals, interned scene names, varint fields);
//! * [`source`] — the [`TraceSource`] trait and its three
//!   implementations ([`JsonlSource`], [`BinarySource`],
//!   [`SyntheticSource`]), the one currency the replay path speaks;
//! * [`synth`] — seeded `poisson`/`diurnal` generators with Zipf
//!   hot-scene skew;
//! * [`replay`] — the shared [`ReplayDriver`] both `asdr-serve` and
//!   `asdr-cluster` submit through, with `--speed` time-warping and
//!   `--record` capture;
//! * [`sample`] — SimPoint-style phase sampling: fingerprint fixed
//!   windows, k-medoids-cluster them, replay weighted medoids, and
//!   extrapolate a full-trace estimate with error bars;
//! * [`report`] — merges per-run stats JSON artifacts into one
//!   comparative markdown table.
//!
//! The `asdr-trace` binary fronts the pipeline with
//! `record | gen | sample | report` subcommands.

pub mod format;
pub mod replay;
pub mod report;
pub mod sample;
pub mod source;
pub mod synth;

pub use format::{DecodedTrace, PlanMeta, PlanPick};
pub use replay::{Replay, ReplayDriver, ReplayTarget, ReplayedRequest, SubmitOutcome};
pub use sample::{
    sample_trace, sample_trace_with, weighted_estimate, Estimate, SampledTrace, WindowObs,
};
pub use source::{BinarySource, JsonlSource, TimedRequest, TraceSource};
pub use synth::{Arrivals, SynthSpec, SyntheticSource};
