//! Trace record and replay: the serving layer's correctness tools.
//!
//! A workload is a JSON-lines file ([`crate::workload`]) read whole into a
//! `Vec<`[`TimedRequest`]`>`; [`replay`] holds [`TimedRequest`] and the
//! [`ReplayDriver`] both `asdr-serve` and `asdr-cluster` submit through,
//! with `--speed` time-warping and `--record` capture.
//!
//! A run with `--record` writes a workload file that replays the same
//! requests at the same (warped) offsets, so its frames repeat byte for
//! byte (`crates/serve/tests/trace_record_replay.rs`). The `asdr-trace`
//! binary merges run bundles with `report --bundles`.

pub mod replay;

pub use replay::{
    Replay, ReplayDriver, ReplayTarget, ReplayedRequest, SubmitOutcome, TimedRequest,
};
