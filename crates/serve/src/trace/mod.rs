//! Trace record and replay: the serving layer's correctness tools.
//!
//! A workload is a file — JSON lines ([`crate::workload`]) or the compact
//! binary trace — read whole into a `Vec<`[`TimedRequest`]`>`:
//!
//! * [`mod@format`] — the VERSION-1 binary trace codec (delta-encoded
//!   arrivals, interned scene names, varint fields), whose [`format::Reader`]
//!   and varint helpers the fleet wire shares;
//! * [`replay`] — [`TimedRequest`] and the [`ReplayDriver`] both
//!   `asdr-serve` and `asdr-cluster` submit through, with `--speed`
//!   time-warping and `--record` capture.
//!
//! A run with `--record` writes a binary trace that replays the same
//! requests at the same (warped) offsets, so its frames repeat byte for
//! byte (`crates/serve/tests/trace_record_replay.rs`). The `asdr-trace`
//! binary transcodes a workload with `record` and merges run bundles with
//! `report --bundles`.

pub mod format;
pub mod replay;

pub use replay::{
    Replay, ReplayDriver, ReplayTarget, ReplayedRequest, SubmitOutcome, TimedRequest,
};
