//! Request-scoped spans: trace ids, the bounded span ring, and the
//! [`span!`](crate::span!) / [`event!`](crate::event!) capture macros.
//!
//! Capture is off by default. The macros guard on
//! [`compiled()`]` && `[`enabled()`]: the first is a constant folded at
//! compile time (the `span-capture` feature), the second is one relaxed
//! atomic load — the entire disabled cost on a hot path. When a
//! [`Bundle`](crate::Bundle) is active, every recorded span also writes
//! through to its `spans.jsonl`, line-buffered and flushed per span, so a
//! process killed mid-run still leaves its timeline on disk.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// A request-scoped trace identifier, propagated across process boundaries
/// by the cluster wire protocol so one request's spans join across the
/// fleet client and every daemon that touched it (failover resubmits
/// reuse the original id).
///
/// Zero is the reserved "unset" value: spans for unset ids are never
/// recorded, and the wire encodes "no trace" by omitting the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The reserved "no trace" id.
    pub const UNSET: TraceId = TraceId(0);

    /// Whether this id names a real trace.
    pub fn is_set(self) -> bool {
        self.0 != 0
    }

    /// A fresh process-unique id: a per-process random seed mixed with a
    /// monotone counter through a splitmix64 finalizer, so ids from
    /// different processes (the fleet client and each daemon) collide with
    /// negligible probability. Never returns [`TraceId::UNSET`].
    pub fn fresh() -> TraceId {
        static SEED: OnceLock<u64> = OnceLock::new();
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let seed = *SEED.get_or_init(|| {
            let nanos = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e37_79b9_7f4a_7c15);
            nanos ^ (std::process::id() as u64).rotate_left(32)
        });
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z != 0 {
                return TraceId(z);
            }
        }
    }

    /// The raw 64-bit value (0 when unset) — the wire representation.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its wire representation.
    pub fn from_u64(v: u64) -> TraceId {
        TraceId(v)
    }

    /// Parses the 16-hex-digit form produced by [`fmt::Display`].
    ///
    /// [`fmt::Display`]: std::fmt::Display
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok().map(TraceId)).flatten()
    }
}

impl Default for TraceId {
    fn default() -> Self {
        TraceId::UNSET
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One recorded span: a phase of one request's lifetime in this process.
/// Events are zero-duration spans. Times are unix microseconds (anchored
/// once per process from `SystemTime` + `Instant`), the only clock shared
/// across the processes of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The request this span belongs to.
    pub trace: TraceId,
    /// Phase name ("admit", "queue", "store", "probe", "render", …).
    pub phase: &'static str,
    /// Start time, unix microseconds.
    pub start_us: u64,
    /// Duration, microseconds (0 for events).
    pub dur_us: u64,
    /// Free-form annotation ("riders=2", "shard=1", …), or empty.
    pub detail: String,
}

/// Whether the `span-capture` feature compiled the macro bodies in.
/// Constant, so `compiled() && enabled()` folds to `false` entirely when
/// the feature is off.
pub const fn compiled() -> bool {
    cfg!(feature = "span-capture")
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span capture is on — one relaxed atomic load, the entire cost
/// of a disabled [`span!`](crate::span!) site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span capture on or off process-wide. Binaries call this when a
/// run bundle is activated; tests call it directly.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Spans the ring retains (oldest dropped first). Bundles are unaffected:
/// their `spans.jsonl` is write-through, not a ring dump.
pub const RING_CAPACITY: usize = 8192;

fn ring() -> &'static Mutex<std::collections::VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<std::collections::VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(std::collections::VecDeque::new()))
}

struct Anchor {
    wall_us: u64,
    instant: Instant,
}

fn anchor() -> &'static Anchor {
    static ANCHOR: OnceLock<Anchor> = OnceLock::new();
    ANCHOR.get_or_init(|| Anchor {
        wall_us: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0),
        instant: Instant::now(),
    })
}

/// Converts a monotonic instant to unix microseconds through the
/// process-global anchor (instants before the anchor clamp to it).
pub fn unix_us(at: Instant) -> u64 {
    let a = anchor();
    a.wall_us.saturating_add(at.saturating_duration_since(a.instant).as_micros() as u64)
}

/// Records one span: ring append plus write-through to the active bundle.
/// No-op for [`TraceId::UNSET`]. Prefer the macros, which add the
/// enabled/compiled guard.
pub fn record(trace: TraceId, phase: &'static str, start: Instant, dur: Duration, detail: String) {
    if !trace.is_set() {
        return;
    }
    let rec = SpanRecord {
        trace,
        phase,
        start_us: unix_us(start),
        dur_us: dur.as_micros() as u64,
        detail,
    };
    crate::bundle::write_span(&rec);
    let mut ring = ring().lock().unwrap();
    if ring.len() >= RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(rec);
}

/// A snapshot of the span ring, oldest first.
pub fn snapshot() -> Vec<SpanRecord> {
    ring().lock().unwrap().iter().cloned().collect()
}

/// Empties the span ring (tests, and bundle handoff on exit).
pub fn clear() {
    ring().lock().unwrap().clear();
}

/// Records a span over `[start, end]` for a request's trace id.
///
/// `span!(trace, "phase", start, end)` or with a trailing detail
/// expression (evaluated only when capture is enabled):
/// `span!(trace, "queue", t0, t1, format!("riders={n}"))`.
#[macro_export]
macro_rules! span {
    ($trace:expr, $phase:expr, $start:expr, $end:expr) => {
        $crate::span!($trace, $phase, $start, $end, ::std::string::String::new())
    };
    ($trace:expr, $phase:expr, $start:expr, $end:expr, $detail:expr) => {
        if $crate::span::compiled() && $crate::span::enabled() {
            let start = $start;
            $crate::span::record(
                $trace,
                $phase,
                start,
                $end.saturating_duration_since(start),
                $detail,
            );
        }
    };
}

/// Records a zero-duration event at "now" for a request's trace id:
/// `event!(trace, "admit")`, optionally with a detail expression.
#[macro_export]
macro_rules! event {
    ($trace:expr, $phase:expr) => {
        $crate::event!($trace, $phase, ::std::string::String::new())
    };
    ($trace:expr, $phase:expr, $detail:expr) => {
        if $crate::span::compiled() && $crate::span::enabled() {
            $crate::span::record(
                $trace,
                $phase,
                ::std::time::Instant::now(),
                ::std::time::Duration::ZERO,
                $detail,
            );
        }
    };
}

/// Records a span from a start instant and an already-measured duration —
/// for phases whose extent comes from an engine's own timers
/// (`span_at!(trace, "probe", t0, probe_duration)`).
#[macro_export]
macro_rules! span_at {
    ($trace:expr, $phase:expr, $start:expr, $dur:expr) => {
        $crate::span_at!($trace, $phase, $start, $dur, ::std::string::String::new())
    };
    ($trace:expr, $phase:expr, $start:expr, $dur:expr, $detail:expr) => {
        if $crate::span::compiled() && $crate::span::enabled() {
            $crate::span::record($trace, $phase, $start, $dur, $detail);
        }
    };
}

/// Serializes tests that flip the process-global capture gate or ring
/// (Rust runs tests of one crate in parallel threads).
#[cfg(test)]
pub(crate) fn test_gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_distinct_and_set() {
        let a = TraceId::fresh();
        let b = TraceId::fresh();
        assert!(a.is_set() && b.is_set());
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trips() {
        let id = TraceId::fresh();
        assert_eq!(TraceId::parse_hex(&id.to_string()), Some(id));
        assert_eq!(TraceId::parse_hex("zz"), None);
        assert_eq!(TraceId::parse_hex(""), None);
    }

    #[test]
    fn capture_gate_and_ring_bound() {
        let _gate = test_gate().lock().unwrap();
        clear();

        // disabled: nothing records
        set_enabled(false);
        let id = TraceId::fresh();
        event!(id, "never");
        assert!(snapshot().is_empty());

        // enabled: unset ids still record nothing; the ring stays bounded
        set_enabled(true);
        let t0 = Instant::now();
        span!(TraceId::UNSET, "queue", t0, Instant::now());
        assert!(snapshot().iter().all(|s| s.trace.is_set()));
        for _ in 0..RING_CAPACITY + 16 {
            event!(id, "tick");
        }
        assert!(snapshot().len() <= RING_CAPACITY);
        set_enabled(false);
        clear();
    }

    #[test]
    fn unix_us_is_monotone_over_instants() {
        let t0 = Instant::now();
        let a = unix_us(t0);
        let b = unix_us(t0 + Duration::from_millis(5));
        assert_eq!(b - a, 5_000);
    }
}
