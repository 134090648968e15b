//! The compact binary trace format (VERSION 1).
//!
//! A trace file is a request log: every record is one render request with
//! its arrival offset. The encoding is hand-rolled — the same trade the
//! checkpoint and workload parsers make in this registry-less environment
//! (no serde) — and tuned for the quantities request logs actually have:
//! arrival times are **delta-encoded** (bursts cost one byte per record),
//! scene names are **interned** into a string table (a million-request
//! Zipf-skewed log stores each hot name once), and every integer field is
//! an LEB128 **varint** (small frames/resolutions cost one byte).
//!
//! Layout:
//!
//! ```text
//! magic    7 bytes   b"ASDRTRC"
//! version  u8        1
//! flags    u8        0 (no flag is defined; a set bit is an error)
//! scenes   varint n, then n x (varint len + utf-8 bytes)
//! records  varint n, then n x record
//! record   varint delta_at_ms        (vs. the previous record)
//!          varint scene index        (into the table)
//!          varint frames
//!          u8     field flags        bit0 resolution, bit1 deadline,
//!                                    bit2 azimuth, bits 3-4 priority
//!          [varint resolution] [varint deadline_ms] [f32-le azimuth]
//! ```
//!
//! Flag bit 0 once marked a phase-sampled trace carrying a window plan
//! after the scene table. Such a file fails with `"trace header: unknown
//! flags 0x01"`; every full trace decodes as it always did.
//!
//! Records are stored sorted by arrival offset (the encoder sorts, stably,
//! so ties keep submission order); the delta encoding makes any decoded
//! trace monotonic by construction. Decoding is total: a truncated or
//! corrupt file returns a `"trace header: …"` / `"trace record N: …"`
//! message, never a panic.

use crate::service::Priority;
use crate::trace::replay::TimedRequest;
use std::path::Path;

/// File magic, followed by the one-byte version.
pub const MAGIC: &[u8; 7] = b"ASDRTRC";
/// Current (and only) format version.
pub const VERSION: u8 = 1;

/// Largest accepted arrival offset, milliseconds (~115 days). Shared with
/// the JSONL parser so both front doors reject the same nonsense.
pub const MAX_AT_MS: u64 = 10_000_000_000;
/// Largest accepted deadline, milliseconds (~28 hours).
pub const MAX_DEADLINE_MS: u64 = 100_000_000;
/// Largest accepted frame count per request.
pub const MAX_FRAMES: u64 = 4096;
/// Largest accepted square resolution.
pub const MAX_RESOLUTION: u64 = 8192;

const RF_RESOLUTION: u8 = 1;
const RF_DEADLINE: u8 = 1 << 1;
const RF_AZIMUTH: u8 = 1 << 2;
const RF_PRIORITY_SHIFT: u8 = 3;

/// Appends `v` LEB128-encoded (7 bits per byte, high bit = continue).
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The two-bit code a [`Priority`] is stored as, here and on the fleet wire.
pub fn priority_code(p: Priority) -> u8 {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

/// The [`Priority`] a stored code names; any other code is an error.
pub fn priority_from_code(c: u8) -> Result<Priority, String> {
    match c {
        0 => Ok(Priority::Low),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::High),
        _ => Err(format!("unknown priority code {c}")),
    }
}

/// Encodes a trace. The entries are sorted (stably) by arrival offset.
pub fn encode(entries: &[TimedRequest]) -> Vec<u8> {
    let mut sorted: Vec<&TimedRequest> = entries.iter().collect();
    sorted.sort_by_key(|e| e.at_ms);

    // intern scene names in first-appearance order
    let mut names: Vec<&str> = Vec::new();
    let mut index_of = std::collections::HashMap::new();
    for e in &sorted {
        index_of.entry(e.scene.as_str()).or_insert_with(|| {
            names.push(e.scene.as_str());
            names.len() - 1
        });
    }

    let mut out = Vec::with_capacity(16 + entries.len() * 4);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(0); // flags
    push_varint(&mut out, names.len() as u64);
    for name in &names {
        push_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    push_varint(&mut out, sorted.len() as u64);
    let mut prev_at = 0u64;
    for e in &sorted {
        push_varint(&mut out, e.at_ms - prev_at);
        prev_at = e.at_ms;
        push_varint(&mut out, index_of[e.scene.as_str()] as u64);
        push_varint(&mut out, e.frames as u64);
        let mut rflags = priority_code(e.priority) << RF_PRIORITY_SHIFT;
        if e.resolution.is_some() {
            rflags |= RF_RESOLUTION;
        }
        if e.deadline_ms.is_some() {
            rflags |= RF_DEADLINE;
        }
        if e.azimuth_step_deg.is_some() {
            rflags |= RF_AZIMUTH;
        }
        out.push(rflags);
        if let Some(r) = e.resolution {
            push_varint(&mut out, u64::from(r));
        }
        if let Some(d) = e.deadline_ms {
            push_varint(&mut out, d);
        }
        if let Some(a) = e.azimuth_step_deg {
            out.extend_from_slice(&a.to_le_bytes());
        }
    }
    out
}

/// Streaming byte reader with bounds-checked primitives: the one decoder
/// under this format and the fleet wire's. Every read fails with a bare
/// message — the input ended, or the value broke the bound the method
/// names — and each caller prefixes its own context (`"trace record N: …"`,
/// `"wire message: …"`).
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err("unexpected end of input".into());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// The next LEB128 varint; one that overflows `u64` is an error.
    pub fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 && byte > 1 {
                return Err("varint overflows u64".into());
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// The next varint, which must be at most `max`.
    pub fn bounded(&mut self, what: &str, max: u64) -> Result<u64, String> {
        let v = self.varint()?;
        if v > max {
            return Err(format!("{what} {v} out of range (max {max})"));
        }
        Ok(v)
    }

    /// The next little-endian `f32`, which must be finite.
    pub fn finite_f32(&mut self, what: &str) -> Result<f32, String> {
        let v = f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes"));
        if !v.is_finite() {
            return Err(format!("{what} is not finite"));
        }
        Ok(v)
    }

    /// The next little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The next length-prefixed UTF-8 string, of at most `max` bytes.
    pub fn string(&mut self, what: &str, max: u64) -> Result<String, String> {
        let len = self.bounded(what, max)? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
    }

    /// The next byte, which must be 0 or 1.
    pub fn boolean(&mut self, what: &str) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("{what} flag {b} is not 0/1")),
        }
    }
}

/// Decodes a trace into its records, sorted by `at_ms`, each `origin` its
/// 1-based record number.
///
/// # Errors
///
/// Returns `"trace header: why"` for a bad magic/version/flags/table and
/// `"trace record N: why"` (1-based) for a corrupt or truncated record —
/// decoding never panics, whatever the input bytes.
pub fn decode(bytes: &[u8]) -> Result<Vec<TimedRequest>, String> {
    let header = |e: String| format!("trace header: {e}");
    let mut r = Reader::new(bytes);
    let magic = r.take(MAGIC.len()).map_err(&header)?;
    if magic != MAGIC {
        return Err(header("bad magic (not an ASDR trace file)".into()));
    }
    let version = r.u8().map_err(&header)?;
    if version != VERSION {
        return Err(header(format!("unsupported version {version} (expected {VERSION})")));
    }
    let flags = r.u8().map_err(&header)?;
    if flags != 0 {
        return Err(header(format!("unknown flags {flags:#04x}")));
    }
    let scene_count = r.bounded("scene count", 1 << 20).map_err(&header)?;
    let mut scenes = Vec::with_capacity(scene_count as usize);
    for i in 0..scene_count {
        let name = r.string(&format!("scene {i} name"), 4096).map_err(&header)?;
        if name.is_empty() {
            return Err(header(format!("scene {i} has an empty name")));
        }
        scenes.push(name);
    }
    let record_count = r
        .bounded("record count", (bytes.len() as u64).saturating_add(1))
        .map_err(|e| header(format!("{e} (count exceeds file size)")))?;
    let mut entries = Vec::with_capacity(record_count as usize);
    let mut at_ms = 0u64;
    for i in 0..record_count {
        let rec = |e: String| format!("trace record {}: {e}", i + 1);
        let delta = r.bounded("arrival delta", MAX_AT_MS).map_err(&rec)?;
        at_ms = at_ms
            .checked_add(delta)
            .filter(|&t| t <= MAX_AT_MS)
            .ok_or_else(|| rec(format!("arrival offset exceeds {MAX_AT_MS} ms")))?;
        let scene_idx = r.varint().map_err(&rec)?;
        let scene = scenes
            .get(scene_idx as usize)
            .ok_or_else(|| rec(format!("scene index {scene_idx} out of table ({scene_count})")))?
            .clone();
        let frames = r.bounded("frames", MAX_FRAMES).map_err(&rec)?;
        if frames == 0 {
            return Err(rec("frames must be >= 1".into()));
        }
        let rflags = r.u8().map_err(&rec)?;
        if rflags >> RF_PRIORITY_SHIFT > 2 {
            return Err(rec(format!("unknown record flags {rflags:#04x}")));
        }
        let priority = priority_from_code(rflags >> RF_PRIORITY_SHIFT).map_err(&rec)?;
        let resolution = if rflags & RF_RESOLUTION != 0 {
            let v = r.bounded("resolution", MAX_RESOLUTION).map_err(&rec)?;
            if v == 0 {
                return Err(rec("resolution must be >= 1".into()));
            }
            Some(v as u32)
        } else {
            None
        };
        let deadline_ms = if rflags & RF_DEADLINE != 0 {
            Some(r.bounded("deadline_ms", MAX_DEADLINE_MS).map_err(&rec)?)
        } else {
            None
        };
        let azimuth_step_deg = if rflags & RF_AZIMUTH != 0 {
            Some(r.finite_f32("azimuth step").map_err(&rec)?)
        } else {
            None
        };
        entries.push(TimedRequest {
            at_ms,
            scene,
            frames: frames as usize,
            resolution,
            priority,
            deadline_ms,
            azimuth_step_deg,
            origin: (i + 1) as usize,
        });
    }
    if r.remaining() != 0 {
        return Err(format!(
            "trace record {record_count}: {} trailing bytes after the last record",
            r.remaining()
        ));
    }
    Ok(entries)
}

/// Encodes and writes a trace file (creating parent directories).
///
/// # Errors
///
/// Returns a message naming the path on I/O failure.
pub fn write_file(path: &Path, entries: &[TimedRequest]) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, encode(entries))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads and decodes a trace file.
///
/// # Errors
///
/// Returns `"path: why"` on I/O or decode failure.
pub fn read_file(path: &Path) -> Result<Vec<TimedRequest>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at_ms: u64, scene: &str) -> TimedRequest {
        TimedRequest {
            at_ms,
            scene: scene.to_string(),
            frames: 1,
            resolution: None,
            priority: Priority::Normal,
            deadline_ms: None,
            azimuth_step_deg: None,
            origin: 0,
        }
    }

    #[test]
    fn varint_round_trips_across_widths() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        assert!(decode(&encode(&[])).unwrap().is_empty());
    }

    #[test]
    fn a_mixed_trace_round_trips_with_all_fields() {
        let mut a = entry(5, "Mic");
        a.frames = 3;
        a.resolution = Some(48);
        a.deadline_ms = Some(500);
        a.azimuth_step_deg = Some(0.75);
        a.priority = Priority::High;
        let b = entry(5, "Lego");
        let c = entry(1000, "Mic");
        let decoded = decode(&encode(&[a.clone(), b.clone(), c.clone()])).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].scene, "Mic");
        assert_eq!(decoded[0].frames, 3);
        assert_eq!(decoded[0].resolution, Some(48));
        assert_eq!(decoded[0].deadline_ms, Some(500));
        assert_eq!(decoded[0].azimuth_step_deg, Some(0.75));
        assert_eq!(decoded[0].priority, Priority::High);
        assert_eq!(decoded[0].origin, 1, "origins are 1-based record numbers");
        assert_eq!(decoded[1].scene, "Lego");
        assert_eq!(decoded[1].at_ms, 5, "burst ties keep submission order");
        assert_eq!(decoded[2].at_ms, 1000);
    }

    #[test]
    fn encoder_sorts_by_arrival_offset() {
        let decoded = decode(&encode(&[entry(90, "B"), entry(10, "A")])).unwrap();
        assert_eq!(decoded[0].scene, "A");
        assert_eq!(decoded[1].scene, "B");
    }

    #[test]
    fn interning_makes_hot_scenes_cheap() {
        let hot: Vec<TimedRequest> = (0..1000).map(|i| entry(i, "OneHotScene")).collect();
        let bytes = encode(&hot);
        // one name + ~4 bytes per record; far below storing the name per record
        assert!(bytes.len() < 1000 * 8, "interned encoding too large: {} bytes", bytes.len());
    }

    #[test]
    fn header_corruption_degrades_to_errors() {
        let good = encode(&[entry(0, "Mic")]);
        let flagged = |flags: u8| {
            let mut b = good.clone();
            b[8] = flags;
            b
        };
        for (why, bytes) in [
            ("empty file", Vec::new()),
            ("bad magic", b"NOTTRACE".to_vec()),
            ("truncated magic", good[..4].to_vec()),
            ("bad version", {
                let mut b = good.clone();
                b[7] = 9;
                b
            }),
            ("unknown flags", flagged(0x80)),
            ("a phase-sampled trace's plan flag", flagged(0x01)),
        ] {
            let err = decode(&bytes).unwrap_err();
            assert!(err.starts_with("trace header:"), "{why}: {err}");
        }
        assert_eq!(decode(&flagged(0x01)).unwrap_err(), "trace header: unknown flags 0x01");
    }

    #[test]
    fn record_corruption_names_the_record() {
        let good = encode(&[entry(0, "Mic"), entry(7, "Mic")]);
        // truncate mid-way through the record section
        let err = decode(&good[..good.len() - 2]).unwrap_err();
        assert!(err.starts_with("trace record 2:"), "{err}");
        // trailing garbage is rejected too
        let mut padded = good.clone();
        padded.push(0);
        let err = decode(&padded).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn file_round_trip_and_io_errors_name_the_path() {
        let dir = std::env::temp_dir().join(format!("asdr_trace_fmt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.trace");
        write_file(&path, &[entry(3, "Mic")]).unwrap();
        let decoded = read_file(&path).unwrap();
        assert_eq!(decoded[0].at_ms, 3);
        let missing = read_file(&dir.join("nope.trace")).unwrap_err();
        assert!(missing.contains("nope.trace"), "{missing}");
        std::fs::write(dir.join("junk.trace"), b"junk").unwrap();
        let junk = read_file(&dir.join("junk.trace")).unwrap_err();
        assert!(junk.contains("junk.trace") && junk.contains("trace header"), "{junk}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
