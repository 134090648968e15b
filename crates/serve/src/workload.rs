//! Workload files: one JSON object per line, one render request each —
//! the one format a replay reads and `--record` writes.
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
//! [`MAX_AT_MS`]), which the fleet wire shares; `RenderService::submit`
//! refuses frames and resolutions past the same bounds.
//!
//! [`write_workload`] is the parser's inverse: what it writes parses back
//! to the same requests (`origin` aside), an orbit step bit for bit. A
//! `--record` capture is such a file, so it replays with `--workload`.
//!
//! The environment has no registry access, hence no serde: the reader and
//! the writer in [`asdr_obs::json`] cover exactly the flat
//! string/number/bool objects this format needs, the same trade the
//! in-tree `criterion` shim makes for its JSON dump.

use crate::service::Priority;
use crate::trace::TimedRequest;
use asdr_obs::json::{parse_flat_object, Value};
use asdr_obs::JsonWriter;
use std::collections::BTreeMap;
use std::path::Path;

/// Largest accepted arrival offset, milliseconds (~115 days).
pub const MAX_AT_MS: u64 = 10_000_000_000;
/// Largest accepted deadline, milliseconds (~28 hours).
pub const MAX_DEADLINE_MS: u64 = 100_000_000;
/// Largest accepted frame count per request.
pub const MAX_FRAMES: u64 = 4096;
/// Largest accepted square resolution.
pub const MAX_RESOLUTION: u64 = 8192;

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
    Ok(TimedRequest {
        scene,
        frames: int_field("frames", 1, MAX_FRAMES)?.map_or(1, |n| n as usize),
        resolution: int_field("resolution", 1, MAX_RESOLUTION)?.map(|n| n as u32),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::RenderProfile;

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
}
