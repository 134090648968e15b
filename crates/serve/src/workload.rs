//! Workload files and their replay: one JSON object per line, one render
//! request each — the one format a replay reads and `--record` writes —
//! and the one [`ReplayDriver`] `asdr-cluster` submits a parsed
//! `Vec<`[`TimedRequest`]`>` through.
//!
//! ```text
//! # mixed 3-scene burst (lines starting with '#' and blank lines skipped)
//! {"scene": "Mic",   "frames": 2, "priority": "high", "deadline_ms": 500}
//! {"scene": "Lego",  "frames": 1, "at_ms": 10, "resolution": 48}
//! {"scene": "Pulse", "frames": 3, "priority": "low"}
//! ```
//!
//! Fields: `scene` (required registry name); `frames` (default 1);
//! `resolution` (default: the profile's); `priority` (`low`/`normal`/
//! `high`, default normal); `deadline_ms` (latency budget from submission);
//! `at_ms` (arrival offset from replay start — bursts are written as equal
//! offsets); `azimuth_step_deg` (orbit step for multi-frame requests).
//!
//! Integer fields are strictly validated — duplicates, fractional values,
//! and out-of-range numbers are line-numbered errors, with the ranges
//! below ([`MAX_FRAMES`], [`MAX_RESOLUTION`], [`MAX_DEADLINE_MS`],
//! [`MAX_AT_MS`]) and the one bound on frames × resolution²
//! ([`MAX_PIXELS`], checked where a line sets its resolution), which the
//! fleet wire shares; `RenderService::submit` refuses frames, resolutions
//! and pixel counts past the same bounds.
//!
//! [`write_workload`] is the parser's inverse: what it writes parses back
//! to the same requests (`origin` aside), an orbit step bit for bit. A
//! `--record` capture is such a file, so it replays with `--workload` and
//! its frames repeat byte for byte (`crates/cluster/tests/trace_record_replay.rs`).
//!
//! The driver owns the open-loop clock (sleep until each request's arrival
//! offset, optionally time-warped by `--speed`), the busy-retry policy (a
//! full target blocks the replay clock rather than dropping work) and the
//! `--record` capture. It is generic over a [`ReplayTarget`]: the fleet
//! (`asdr_cluster::Fleet`, one shard or many) is the one a program replays
//! into.
//!
//! The environment has no registry access, hence no serde: the reader and
//! the writer in [`asdr_obs::json`] cover exactly the flat
//! string/number/bool objects this format needs.

use crate::profile::RenderProfile;
use crate::service::{Priority, RenderRequest, ServeError};
use asdr_obs::json::{parse_flat_object, Value};
use asdr_obs::JsonWriter;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Largest accepted arrival offset, milliseconds (~115 days).
pub const MAX_AT_MS: u64 = 10_000_000_000;
/// Largest accepted deadline, milliseconds (~28 hours).
pub const MAX_DEADLINE_MS: u64 = 100_000_000;
/// Largest accepted frame count per request.
pub const MAX_FRAMES: u64 = 4096;
/// Largest accepted square resolution.
pub const MAX_RESOLUTION: u64 = 8192;
/// Largest accepted pixel count summed over a request's frames (frames ×
/// resolution²): 192 MiB of `f32` RGB. Past it a worker's image allocation
/// can abort the process, which no `catch_unwind` survives, and a remote
/// result no longer fits one wire frame.
pub const MAX_PIXELS: u64 = 1 << 24;
/// Accepted replay time-warp factors (`--speed`). At the slowest the latest
/// arrival offset ([`MAX_AT_MS`]) warps to 10¹³ ms, which a `u64` holds
/// exactly; below it the warped offset saturates and the replay sleeps for
/// as long as that says.
pub const SPEEDS: RangeInclusive<f64> = 0.001..=1_000_000.0;
/// Largest accepted `--queue` capacity: pending requests a service admits
/// before it refuses with `QueueFull`.
pub const MAX_QUEUE: usize = 65_536;

/// Checks a replay time-warp factor against [`SPEEDS`].
///
/// # Errors
///
/// Names `--speed`, the range and the value.
pub fn check_speed(speed: f64) -> Result<(), String> {
    if SPEEDS.contains(&speed) {
        return Ok(());
    }
    Err(format!(
        "--speed must be a number from {} to {}, got {speed}",
        SPEEDS.start(),
        SPEEDS.end()
    ))
}

/// Checks `frames` frames of `resolution`² pixels against [`MAX_PIXELS`].
///
/// # Errors
///
/// Names the request's pixel count and the bound.
pub fn check_pixels(resolution: u64, frames: u64) -> Result<(), String> {
    let pixels = resolution.saturating_mul(resolution).saturating_mul(frames);
    if pixels > MAX_PIXELS {
        return Err(format!(
            "{frames} frame(s) of {resolution}x{resolution} are {pixels} pixels, \
             over the bound of {MAX_PIXELS}"
        ));
    }
    Ok(())
}

/// One render request with its arrival time: a line of a workload file.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    /// Arrival offset from replay start, milliseconds.
    pub at_ms: u64,
    /// Registry scene name (resolved at submit time).
    pub scene: String,
    /// Frames in the request (>= 1).
    pub frames: usize,
    /// Frame resolution override (`None`: the profile's default).
    pub resolution: Option<u32>,
    /// Scheduling class.
    pub priority: Priority,
    /// Latency budget from submission, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Orbit step override, degrees per frame.
    pub azimuth_step_deg: Option<f32>,
    /// 1-based line in the source workload file, so resolution failures
    /// name where the request came from.
    pub origin: usize,
}

impl TimedRequest {
    /// Resolves the entry into a submit-ready request under `profile`.
    ///
    /// # Errors
    ///
    /// Returns a message if the scene is not registered.
    pub fn to_request(&self, profile: &RenderProfile) -> Result<RenderRequest, String> {
        let scene = asdr_scenes::registry::get(&self.scene)
            .ok_or_else(|| format!("unknown scene {:?} (see `experiments --list`)", self.scene))?;
        let mut req = RenderRequest::sequence(
            scene,
            self.resolution.unwrap_or(profile.default_resolution),
            self.frames,
        )
        .with_priority(self.priority);
        if let Some(ms) = self.deadline_ms {
            req = req.with_deadline(Duration::from_millis(ms));
        }
        if let Some(step) = self.azimuth_step_deg {
            req.azimuth_step_deg = step;
        }
        Ok(req)
    }
}

/// Reads a workload file whole, ordered by arrival offset (ties keep file
/// order).
///
/// # Errors
///
/// Returns `"path: why"` on I/O or parse failure.
pub fn read_workload(path: &Path) -> Result<Vec<TimedRequest>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut entries = parse_workload(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    entries.sort_by_key(|e| e.at_ms);
    Ok(entries)
}

/// Parses a workload file: one JSON object per non-blank, non-`#` line.
///
/// # Errors
///
/// Returns `"line N: why"` for the first malformed line.
pub fn parse_workload(text: &str) -> Result<Vec<TimedRequest>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_entry(line, i + 1).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Writes `entries` as workload lines, in order, one per request. Fields
/// that are `None` are left out; an orbit step is written as the shortest
/// decimal of its `f64` widening, so parsing it back and narrowing to
/// `f32` restores the same bits.
pub fn write_workload(entries: &[TimedRequest]) -> String {
    let mut out = String::new();
    for e in entries {
        let mut w = JsonWriter::new();
        w.obj();
        w.key("scene").str_val(&e.scene);
        w.key("frames").usize(e.frames);
        w.key("at_ms").u64(e.at_ms);
        w.key("priority").str_val(e.priority.name());
        if let Some(r) = e.resolution {
            w.key("resolution").u64(u64::from(r));
        }
        if let Some(d) = e.deadline_ms {
            w.key("deadline_ms").u64(d);
        }
        if let Some(step) = e.azimuth_step_deg {
            w.key("azimuth_step_deg").raw_val(&f64::from(step).to_string());
        }
        w.close_obj();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

fn parse_entry(line: &str, line_no: usize) -> Result<TimedRequest, String> {
    let obj = parse_flat_object(line)?;
    let known = |k: &str| obj.get(k).cloned();
    let scene = match known("scene") {
        Some(Value::Str(s)) if !s.is_empty() => s,
        Some(_) => return Err("\"scene\" must be a non-empty string".into()),
        None => return Err("missing required field \"scene\"".into()),
    };
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "scene"
                | "frames"
                | "resolution"
                | "priority"
                | "deadline_ms"
                | "at_ms"
                | "azimuth_step_deg"
        ) {
            return Err(format!("unknown field {key:?}"));
        }
    }
    let priority = match known("priority") {
        Some(Value::Str(s)) => {
            Priority::parse(&s).ok_or_else(|| format!("unknown priority {s:?}"))?
        }
        Some(_) => return Err("\"priority\" must be a string".into()),
        None => Priority::Normal,
    };
    // Integer fields share the fleet wire's bounds, so anything a workload
    // file accepts can also be sent to a remote shard.
    let int_field = |key: &str, min: u64, max: u64| -> Result<Option<u64>, String> {
        match get_num(&obj, key)? {
            None => Ok(None),
            Some(n) if n.fract() != 0.0 => Err(format!("{key:?} must be an integer, got {n}")),
            Some(n) if (n as u64) < min || (n as u64) > max => {
                Err(format!("{key:?} must be in {min}..={max}, got {n}"))
            }
            Some(n) => Ok(Some(n as u64)),
        }
    };
    let frames = int_field("frames", 1, MAX_FRAMES)?.unwrap_or(1);
    let resolution = int_field("resolution", 1, MAX_RESOLUTION)?;
    // a line without a resolution takes the profile's, checked at submit
    if let Some(resolution) = resolution {
        check_pixels(resolution, frames)?;
    }
    Ok(TimedRequest {
        scene,
        frames: frames as usize,
        resolution: resolution.map(|n| n as u32),
        priority,
        deadline_ms: int_field("deadline_ms", 1, MAX_DEADLINE_MS)?,
        at_ms: int_field("at_ms", 0, MAX_AT_MS)?.unwrap_or(0),
        azimuth_step_deg: get_num(&obj, "azimuth_step_deg")?.map(|n| n as f32),
        origin: line_no,
    })
}

fn get_num(obj: &BTreeMap<String, Value>, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Num(n)) if n.is_finite() && *n >= 0.0 => Ok(Some(*n)),
        Some(_) => Err(format!("{key:?} must be a non-negative number")),
    }
}

/// Anything a workload can be replayed into. The driver reads its one
/// decision off the [`ServeError`]: [`ServeError::QueueFull`] is a wait
/// for capacity, anything else — a draining target included — ends the
/// replay.
pub trait ReplayTarget {
    /// The per-request completion handle.
    type Ticket;

    /// Attempts to admit one request.
    ///
    /// # Errors
    ///
    /// Why the target did not admit it.
    fn try_submit(&self, req: RenderRequest) -> Result<Self::Ticket, ServeError>;

    /// Parks until admission capacity *may* be available or `timeout`
    /// passes; called by the driver after a [`ServeError::QueueFull`], so
    /// an idle replay wakes the moment a slot frees.
    fn wait_capacity(&self, timeout: Duration);
}

/// One admitted request, paired with where it came from.
#[derive(Debug)]
pub struct ReplayedRequest<T> {
    /// 0-based submission index.
    pub index: usize,
    /// Scene name, kept for the per-request table.
    pub scene: String,
    /// Whether the request carried a deadline.
    pub deadlined: bool,
    /// The target's completion handle.
    pub ticket: T,
}

/// A finished submission pass: every ticket, in arrival order.
#[derive(Debug)]
pub struct Replay<T> {
    /// Admitted requests with their tickets; callers wait on these.
    pub requests: Vec<ReplayedRequest<T>>,
    /// When the replay clock started (wall-clock measurements anchor here).
    pub started: Instant,
}

/// How long the driver parks in [`ReplayTarget::wait_capacity`] after a
/// [`ServeError::QueueFull`] before it tries again.
const BUSY_WAIT: Duration = Duration::from_millis(5);

/// The shared open-loop replay driver (see the module docs).
#[derive(Debug, Clone)]
pub struct ReplayDriver {
    profile: RenderProfile,
    speed: f64,
    record: Option<PathBuf>,
}

impl ReplayDriver {
    /// A driver replaying in real time under `profile`, recording nothing.
    pub fn new(profile: RenderProfile) -> Self {
        ReplayDriver { profile, speed: 1.0, record: None }
    }

    /// Time-warps the replay clock: arrival offsets are divided by
    /// `speed`, so `2.0` replays twice as fast. Checked against [`SPEEDS`] in
    /// [`run`](Self::run).
    pub fn speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Captures every admitted request (at its warped arrival offset)
    /// into a workload file at `path` when the replay finishes.
    pub fn record(mut self, path: Option<PathBuf>) -> Self {
        self.record = path;
        self
    }

    /// Submits `entries`, ordered by arrival offset, into `target`: sleeps
    /// until each entry's (warped) arrival offset, resolves it against the
    /// profile, and submits, retrying while the target is full.
    ///
    /// # Errors
    ///
    /// Returns `"entry N: why"` when a request cannot be resolved,
    /// `"request N: why"` when the target refuses it for any reason but a
    /// full queue, a speed-validation message, or a record-file write
    /// error. Any already-issued tickets are dropped (their requests still
    /// complete in the target).
    pub fn run<T: ReplayTarget>(
        &self,
        entries: &[TimedRequest],
        target: &T,
    ) -> Result<Replay<T::Ticket>, String> {
        check_speed(self.speed)?;
        let started = Instant::now();
        let mut requests = Vec::with_capacity(entries.len());
        let mut recorded: Vec<TimedRequest> = Vec::new();
        for (index, entry) in entries.iter().enumerate() {
            let req = entry
                .to_request(&self.profile)
                .map_err(|e| format!("entry {}: {e}", entry.origin))?;
            let warped_ms = (entry.at_ms as f64 / self.speed).round() as u64;
            if let Some(wait) = Duration::from_millis(warped_ms).checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            let ticket = loop {
                match target.try_submit(req.clone()) {
                    Ok(t) => break t,
                    Err(ServeError::QueueFull { .. }) => target.wait_capacity(BUSY_WAIT),
                    Err(e) => return Err(format!("request {index}: {e}")),
                }
            };
            if self.record.is_some() {
                // The capture is the *warped* schedule — replaying it
                // reproduces this run verbatim.
                recorded.push(TimedRequest {
                    at_ms: warped_ms,
                    origin: index + 1,
                    ..entry.clone()
                });
            }
            requests.push(ReplayedRequest {
                index,
                scene: entry.scene.clone(),
                deadlined: entry.deadline_ms.is_some(),
                ticket,
            });
        }
        if let Some(path) = &self.record {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
            std::fs::write(path, write_workload(&recorded))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(Replay { requests, started })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn parses_a_mixed_workload() {
        let text = r#"
            # comment, then a blank line

            {"scene": "Mic", "frames": 2, "priority": "high", "deadline_ms": 500}
            {"scene": "Lego", "at_ms": 10, "resolution": 48}
            {"scene": "Pulse", "frames": 3, "priority": "low", "azimuth_step_deg": 0.5}
        "#;
        let entries = parse_workload(text).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].scene, "Mic");
        assert_eq!(entries[0].origin, 4, "entries remember their source line");
        assert_eq!(entries[2].origin, 6);
        assert_eq!(entries[0].frames, 2);
        assert_eq!(entries[0].priority, Priority::High);
        assert_eq!(entries[0].deadline_ms, Some(500));
        assert_eq!(entries[1].at_ms, 10);
        assert_eq!(entries[1].resolution, Some(48));
        assert_eq!(entries[1].priority, Priority::Normal, "priority defaults to normal");
        assert_eq!(entries[2].azimuth_step_deg, Some(0.5));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_workload("{\"scene\": \"Mic\"}\n{\"frames\": 1}").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("scene"), "{err}");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for (bad, why) in [
            ("{\"scene\": \"Mic\",}", "dangling comma"),
            ("{\"scene\": \"Mic\"} extra", "trailing content"),
            ("{\"scene\": \"Mic\", \"scene\": \"Lego\"}", "duplicate key"),
            ("{\"scene\": \"Mic\", \"frames\": -1}", "negative number"),
            ("{\"scene\": \"Mic\", \"frames\": \"two\"}", "string where number expected"),
            ("{\"scene\": 42}", "number where string expected"),
            ("{\"scene\": \"Mic\", \"priority\": \"urgent\"}", "unknown priority"),
            ("{\"scene\": \"Mic\", \"color\": true}", "unknown field"),
            ("[\"scene\"]", "not an object"),
            ("{\"scene\": \"Mic\"", "unterminated object"),
        ] {
            assert!(parse_workload(bad).is_err(), "should reject: {why}");
        }
        assert_eq!(parse_workload("{}\n").unwrap_err(), "line 1: missing required field \"scene\"");
    }

    #[test]
    fn out_of_range_fields_are_rejected_with_line_numbers() {
        for (bad, needle) in [
            ("{\"scene\": \"Mic\", \"frames\": 0}", "\"frames\" must be in 1..=4096"),
            ("{\"scene\": \"Mic\", \"frames\": 1.5}", "\"frames\" must be an integer"),
            ("{\"scene\": \"Mic\", \"frames\": 5000}", "\"frames\" must be in 1..=4096"),
            ("{\"scene\": \"Mic\", \"resolution\": 0}", "\"resolution\" must be in 1..=8192"),
            ("{\"scene\": \"Mic\", \"resolution\": 9000}", "\"resolution\" must be in 1..=8192"),
            // one past MAX_PIXELS: one frame a pixel wider, two frames at the widest
            ("{\"scene\": \"Mic\", \"resolution\": 4097}", "16785409 pixels, over the bound"),
            (
                "{\"scene\": \"Mic\", \"resolution\": 4096, \"frames\": 2}",
                "33554432 pixels, over the bound",
            ),
            ("{\"scene\": \"Mic\", \"deadline_ms\": 0}", "\"deadline_ms\" must be in"),
            ("{\"scene\": \"Mic\", \"deadline_ms\": 2e8}", "\"deadline_ms\" must be in"),
            ("{\"scene\": \"Mic\", \"at_ms\": 1e11}", "\"at_ms\" must be in"),
            ("{\"scene\": \"Mic\", \"at_ms\": 10.25}", "\"at_ms\" must be an integer"),
        ] {
            let err = parse_workload(&format!("\n{bad}")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{bad}: {err}");
            assert!(err.contains(needle), "{bad}: {err}");
        }
        // the extremes themselves are accepted
        let ok = parse_workload(
            "{\"scene\": \"Mic\", \"frames\": 4096, \"at_ms\": 10000000000, \"deadline_ms\": 1}",
        )
        .unwrap();
        assert_eq!(ok[0].frames, 4096);
        assert_eq!(ok[0].at_ms, 10_000_000_000);
        let widest = parse_workload("{\"scene\": \"Mic\", \"resolution\": 4096}").unwrap();
        assert_eq!(widest[0].resolution, Some(4096), "exactly MAX_PIXELS is accepted");
    }

    #[test]
    fn written_lines_omit_unset_fields_and_parse_back() {
        let mut full = parse_workload(r#"{"scene": "Mic"}"#).unwrap().remove(0);
        let bare = full.clone();
        full.frames = 2;
        full.at_ms = 5;
        full.priority = Priority::High;
        full.resolution = Some(48);
        full.deadline_ms = Some(500);
        full.azimuth_step_deg = Some(0.1);
        let text = write_workload(&[full.clone(), bare.clone()]);
        assert_eq!(
            text,
            "{\"scene\": \"Mic\", \"frames\": 2, \"at_ms\": 5, \"priority\": \"high\", \
             \"resolution\": 48, \"deadline_ms\": 500, \"azimuth_step_deg\": 0.10000000149011612}\n\
             {\"scene\": \"Mic\", \"frames\": 1, \"at_ms\": 0, \"priority\": \"normal\"}\n"
        );
        let back = parse_workload(&text).unwrap();
        assert_eq!(back[0], TimedRequest { origin: 1, ..full });
        assert_eq!(back[1], TimedRequest { origin: 2, ..bare });
    }

    #[test]
    fn read_workload_orders_by_arrival_and_names_the_file() {
        let dir = std::env::temp_dir().join(format!("asdr-workload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.jsonl");
        let text = "{\"scene\": \"Mic\", \"at_ms\": 50}\n{\"scene\": \"Lego\"}\n\
                    {\"scene\": \"Pulse\", \"at_ms\": 10}\n";
        std::fs::write(&path, text).unwrap();
        let entries = read_workload(&path).unwrap();
        let order: Vec<_> = entries.iter().map(|e| e.scene.as_str()).collect();
        assert_eq!(order, ["Lego", "Pulse", "Mic"]);
        assert_eq!(entries[0].origin, 2, "origins keep pointing at source lines");
        let missing = read_workload(&dir.join("missing.jsonl")).unwrap_err();
        assert!(missing.contains("missing.jsonl"), "{missing}");
        std::fs::write(&path, "{}\n").unwrap();
        let bad = read_workload(&path).unwrap_err();
        assert!(bad.contains("w.jsonl") && bad.contains("line 1:"), "{bad}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_resolves_against_the_registry() {
        let profile = RenderProfile::tiny();
        let entry = parse_workload(r#"{"scene": "Mic", "frames": 2, "deadline_ms": 100}"#)
            .unwrap()
            .remove(0);
        let req = entry.to_request(&profile).unwrap();
        assert_eq!(req.scene.name(), "Mic");
        assert_eq!(req.frames, 2);
        assert_eq!(req.resolution, profile.default_resolution);
        assert_eq!(req.deadline, Some(std::time::Duration::from_millis(100)));
        let missing =
            parse_workload(r#"{"scene": "no-such-scene"}"#).unwrap().remove(0).to_request(&profile);
        assert!(missing.is_err());
    }

    /// A target that refuses the first `busy` submissions of each request
    /// index with `refusal` (a full queue unless set), then admits, echoing
    /// the request back as a ticket.
    struct MockTarget {
        busy: usize,
        refusal: ServeError,
        attempts: Mutex<usize>,
        admitted: Mutex<Vec<String>>,
        waits: Mutex<usize>,
    }

    impl MockTarget {
        fn new(busy: usize) -> Self {
            MockTarget {
                busy,
                refusal: ServeError::QueueFull { capacity: 1 },
                attempts: Mutex::new(0),
                admitted: Mutex::new(Vec::new()),
                waits: Mutex::new(0),
            }
        }

        fn refusing(self, refusal: ServeError) -> Self {
            MockTarget { refusal, ..self }
        }
    }

    impl ReplayTarget for MockTarget {
        type Ticket = RenderRequest;

        fn try_submit(&self, req: RenderRequest) -> Result<RenderRequest, ServeError> {
            let mut attempts = self.attempts.lock().unwrap();
            *attempts += 1;
            if *attempts <= self.busy {
                return Err(self.refusal.clone());
            }
            self.admitted.lock().unwrap().push(req.scene.name().to_string());
            Ok(req)
        }

        // wake instantly: the driver's retry policy must not depend on the
        // wait actually sleeping, only on being called between attempts
        fn wait_capacity(&self, _timeout: Duration) {
            *self.waits.lock().unwrap() += 1;
        }
    }

    fn entry(at_ms: u64, scene: &str, origin: usize) -> TimedRequest {
        TimedRequest {
            at_ms,
            scene: scene.to_string(),
            frames: 1,
            resolution: Some(16),
            priority: Priority::Normal,
            deadline_ms: Some(250),
            azimuth_step_deg: None,
            origin,
        }
    }

    fn driver() -> ReplayDriver {
        ReplayDriver::new(RenderProfile::tiny())
    }

    #[test]
    fn replays_through_busy_targets_in_order() {
        let target = MockTarget::new(2);
        let entries = [entry(0, "Mic", 1), entry(1, "Lego", 2), entry(2, "Mic", 3)];
        let replay = driver().run(&entries, &target).unwrap();
        assert_eq!(replay.requests.len(), 3);
        assert_eq!(*target.admitted.lock().unwrap(), ["Mic", "Lego", "Mic"]);
        assert_eq!(replay.requests[1].scene, "Lego");
        assert!(replay.requests[0].deadlined);
        // every full-queue refusal parked in wait_capacity exactly once
        assert_eq!(*target.waits.lock().unwrap(), 2);
    }

    #[test]
    fn speed_warps_the_clock_and_the_recording() {
        let dir = std::env::temp_dir().join(format!("asdr-replay-{}", std::process::id()));
        let path = dir.join("warped.jsonl");
        let target = MockTarget::new(0);
        let entries = [entry(0, "Mic", 1), entry(400, "Lego", 2)];
        let t0 = Instant::now();
        let replay =
            driver().speed(100.0).record(Some(path.clone())).run(&entries, &target).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(300), "400ms warped 100x replays fast");
        assert_eq!(replay.requests.len(), 2);
        let decoded = parse_workload(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[1].at_ms, 4, "400ms / 100x");
        assert_eq!(decoded[1].scene, "Lego");
        assert_eq!(decoded[1].deadline_ms, Some(250));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorded_traces_replay_identically() {
        let dir = std::env::temp_dir().join(format!("asdr-replay2-{}", std::process::id()));
        let path = dir.join("capture.jsonl");
        let entries = [entry(0, "Mic", 1), entry(2, "Lego", 2)];
        let target = MockTarget::new(0);
        driver().record(Some(path.clone())).run(&entries, &target).unwrap();
        let recorded = parse_workload(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(recorded, entries, "line numbers are the 1-based submission order");
        let target2 = MockTarget::new(0);
        let replay = driver().run(&recorded, &target2).unwrap();
        assert_eq!(*target2.admitted.lock().unwrap(), *target.admitted.lock().unwrap());
        assert_eq!(replay.requests.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_entries_and_bad_speeds_are_named() {
        let target = MockTarget::new(0);
        let e = driver().run(&[entry(0, "no-such-scene", 7)], &target).unwrap_err();
        assert!(e.starts_with("entry 7: "), "{e}");
        let e = driver().speed(0.0).run(&[], &target).unwrap_err();
        assert!(e.contains("--speed"), "{e}");
    }

    #[test]
    fn a_draining_target_ends_the_replay_naming_the_request() {
        // `ShuttingDown` is final to a replay: a driver that waited for
        // capacity here would spin forever on a queue that never reopens
        let target = MockTarget::new(usize::MAX).refusing(ServeError::ShuttingDown);
        let e = driver().run(&[entry(0, "Mic", 1)], &target).unwrap_err();
        assert_eq!(e, format!("request 0: {}", ServeError::ShuttingDown));
        assert_eq!(*target.waits.lock().unwrap(), 0, "a draining target is never waited on");
    }
}
