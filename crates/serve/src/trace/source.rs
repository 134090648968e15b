//! [`TraceSource`] — the one currency every workload front door speaks.
//!
//! A trace source yields [`TimedRequest`]s: a render request plus its
//! arrival offset, already validated, independent of where it came from.
//! [`JsonlSource`] wraps the human-editable JSON-lines format,
//! [`BinarySource`] wraps the compact binary format (including sampled
//! traces, whose windows it re-bases and tags), and
//! [`SyntheticSource`](crate::trace::synth::SyntheticSource) generates
//! open-loop workloads from a seeded RNG. The shared
//! [`ReplayDriver`](crate::trace::replay) consumes any of them — the
//! `asdr-serve` and `asdr-cluster` binaries no longer own replay loops.

use crate::profile::RenderProfile;
use crate::service::{Priority, RenderRequest};
use crate::trace::format::{self, DecodedTrace, PlanMeta};
use crate::workload::parse_workload;
use std::path::Path;

/// One render request with its arrival time — the unit every
/// [`TraceSource`] yields, whatever format it came from.
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
    /// 1-based line (JSONL) or record (binary) in the source, so
    /// resolution failures name where the request came from.
    pub origin: usize,
    /// Weighted-window index when replaying a sampled trace; `None` on
    /// full traces. Measurements grouped by this index feed the
    /// [`weighted_estimate`](crate::trace::sample::weighted_estimate).
    pub window: Option<usize>,
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
            req = req.with_deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(step) = self.azimuth_step_deg {
            req.azimuth_step_deg = step;
        }
        Ok(req)
    }
}

/// A stream of timed render requests.
///
/// Sources validate at construction, so `next` is infallible; `None` ends
/// the trace. Implementations must yield non-decreasing `at_ms`.
pub trait TraceSource {
    /// The next request, or `None` at end of trace.
    fn next(&mut self) -> Option<TimedRequest>;

    /// Total requests, when known up front (synthetic sources stream).
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// The weighted-window plan, when this source replays a sampled trace.
    fn plan(&self) -> Option<&PlanMeta> {
        None
    }
}

/// Every remaining request, drained in order.
pub fn drain(source: &mut (impl TraceSource + ?Sized)) -> Vec<TimedRequest> {
    let mut out = Vec::new();
    while let Some(e) = source.next() {
        out.push(e);
    }
    out
}

impl TraceSource for std::vec::IntoIter<TimedRequest> {
    fn next(&mut self) -> Option<TimedRequest> {
        Iterator::next(self)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.len())
    }
}

/// The JSON-lines workload format as a [`TraceSource`].
#[derive(Debug)]
pub struct JsonlSource {
    entries: std::vec::IntoIter<TimedRequest>,
}

impl JsonlSource {
    /// Parses a workload text (see [`parse_workload`]); entries are
    /// ordered by arrival offset, ties keeping file order.
    ///
    /// # Errors
    ///
    /// Returns `"line N: why"` for the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = parse_workload(text)?;
        entries.sort_by_key(|e| e.at_ms);
        Ok(JsonlSource { entries: entries.into_iter() })
    }

    /// Reads and parses a workload file.
    ///
    /// # Errors
    ///
    /// Returns `"path: why"` on I/O or parse failure.
    pub fn from_file(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl TraceSource for JsonlSource {
    fn next(&mut self) -> Option<TimedRequest> {
        Iterator::next(&mut self.entries)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }
}

/// The compact binary format as a [`TraceSource`].
///
/// For a *sampled* trace (one carrying a [`PlanMeta`]), the source
/// re-bases each retained window onto a contiguous clock — window `i`
/// replays at `i * window_ms` — and tags every request with its window
/// index, so an hour-equivalent trace replays in the sum of its medoid
/// windows.
#[derive(Debug)]
pub struct BinarySource {
    entries: std::vec::IntoIter<TimedRequest>,
    plan: Option<PlanMeta>,
}

impl BinarySource {
    /// Decodes a binary trace from bytes.
    ///
    /// # Errors
    ///
    /// See [`format::decode`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        Ok(Self::from_decoded(format::decode(bytes)?))
    }

    /// Reads and decodes a binary trace file.
    ///
    /// # Errors
    ///
    /// Returns `"path: why"` on I/O or decode failure.
    pub fn from_file(path: &Path) -> Result<Self, String> {
        Ok(Self::from_decoded(format::read_file(path)?))
    }

    /// Wraps an already decoded trace.
    pub fn from_decoded(trace: DecodedTrace) -> Self {
        let entries = match &trace.plan {
            None => trace.entries,
            Some(plan) => rebase_windows(trace.entries, plan),
        };
        BinarySource { entries: entries.into_iter(), plan: trace.plan }
    }
}

/// Maps each record of a sampled trace into its window's re-based slot;
/// records outside every retained window are dropped (a sampled file
/// normally only stores retained windows — this tolerates hand-built ones).
fn rebase_windows(entries: Vec<TimedRequest>, plan: &PlanMeta) -> Vec<TimedRequest> {
    let mut out = Vec::with_capacity(entries.len());
    for mut e in entries {
        let Some((idx, pick)) = plan
            .picks
            .iter()
            .enumerate()
            .find(|(_, p)| e.at_ms >= p.start_ms && e.at_ms < p.start_ms + plan.window_ms)
        else {
            continue;
        };
        e.window = Some(idx);
        e.at_ms = idx as u64 * plan.window_ms + (e.at_ms - pick.start_ms);
        out.push(e);
    }
    out.sort_by_key(|e| e.at_ms);
    out
}

impl TraceSource for BinarySource {
    fn next(&mut self) -> Option<TimedRequest> {
        Iterator::next(&mut self.entries)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }

    fn plan(&self) -> Option<&PlanMeta> {
        self.plan.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::format::PlanPick;

    fn entry(at_ms: u64, scene: &str) -> TimedRequest {
        TimedRequest {
            at_ms,
            scene: scene.to_string(),
            frames: 1,
            resolution: Some(32),
            priority: Priority::Normal,
            deadline_ms: None,
            azimuth_step_deg: None,
            origin: 0,
            window: None,
        }
    }

    #[test]
    fn jsonl_source_yields_in_arrival_order() {
        let text = r#"
            {"scene": "Mic", "at_ms": 50}
            {"scene": "Lego"}
            {"scene": "Pulse", "at_ms": 10}
        "#;
        let mut src = JsonlSource::parse(text).unwrap();
        assert_eq!(src.len_hint(), Some(3));
        assert!(src.plan().is_none());
        let drained = drain(&mut src);
        let order: Vec<&str> = drained.iter().map(|e| e.scene.as_str()).collect();
        assert_eq!(order, ["Lego", "Pulse", "Mic"]);
        assert_eq!(drained[0].origin, 3, "origins keep pointing at source lines");
        assert!(JsonlSource::parse("{\"frames\": 1}").is_err());
    }

    #[test]
    fn binary_source_round_trips_a_jsonl_trace() {
        let text = r#"{"scene": "Mic", "frames": 2, "deadline_ms": 40, "priority": "high"}"#;
        let mut jsonl = JsonlSource::parse(text).unwrap();
        let entries = drain(&mut jsonl);
        let bytes = format::encode(&entries, None);
        let mut bin = BinarySource::from_bytes(&bytes).unwrap();
        let back = drain(&mut bin);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].scene, "Mic");
        assert_eq!(back[0].frames, 2);
        assert_eq!(back[0].deadline_ms, Some(40));
        assert_eq!(back[0].priority, Priority::High);
    }

    #[test]
    fn sampled_traces_rebase_and_tag_windows() {
        let plan = PlanMeta {
            window_ms: 1000,
            total_windows: 10,
            picks: vec![
                PlanPick { start_ms: 4000, cluster_size: 6 },
                PlanPick { start_ms: 8000, cluster_size: 4 },
            ],
        };
        let entries = vec![
            entry(4200, "Mic"),  // window 0 at +200
            entry(8900, "Lego"), // window 1 at +900
            entry(6000, "Drop"), // outside every pick
        ];
        let bytes = format::encode(&entries, Some(&plan));
        let mut src = BinarySource::from_bytes(&bytes).unwrap();
        assert_eq!(src.plan().unwrap().total_windows, 10);
        let got = drain(&mut src);
        assert_eq!(got.len(), 2, "records outside retained windows are dropped");
        assert_eq!((got[0].at_ms, got[0].window), (200, Some(0)));
        assert_eq!(got[0].scene, "Mic");
        assert_eq!((got[1].at_ms, got[1].window), (1900, Some(1)));
    }

    #[test]
    fn timed_request_resolves_against_the_registry() {
        let profile = RenderProfile::tiny();
        let ok = entry(0, "Mic").to_request(&profile).unwrap();
        assert_eq!(ok.scene.name(), "Mic");
        assert_eq!(ok.resolution, 32);
        assert!(entry(0, "no-such-scene").to_request(&profile).is_err());
    }
}
