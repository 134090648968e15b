//! Merges the run bundles of a fleet run into one report: per-phase
//! latency breakdown, cross-process span joins (the hedges and failovers
//! made visible by wire-propagated trace ids), and a dominant-phase
//! attribution for every deadline miss.
//!
//! Input is any directory tree holding bundle subdirectories (or a single
//! bundle): every `spans.jsonl` one level deep — plus one in the root
//! itself — is parsed line-by-line and a line that does not parse, or is
//! not UTF-8 (a kill −9 can cut a scene name inside a character), is
//! counted and skipped, so a truncated last line from a killed daemon
//! never sinks the report.

use crate::json::{parse_flat_object, JsonWriter, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// One span parsed back out of a bundle's `spans.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Trace id (the 64-bit value behind the 16-hex form).
    pub trace: u64,
    /// Process kind from the bundle that recorded it ("shardd-1").
    pub process: String,
    /// Phase name.
    pub phase: String,
    /// Start, unix microseconds.
    pub start_us: u64,
    /// Duration, microseconds (0 for events).
    pub dur_us: u64,
    /// Free-form annotation.
    pub detail: String,
}

/// Aggregate timing for one phase across every request in the run.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase name.
    pub phase: String,
    /// Spans observed.
    pub count: usize,
    /// Total time in the phase, microseconds.
    pub total_us: u64,
    /// Median span duration, microseconds.
    pub p50_us: u64,
    /// 95th-percentile span duration, microseconds.
    pub p95_us: u64,
    /// Longest span, microseconds.
    pub max_us: u64,
}

/// A request whose spans came from more than one process — a hedge, a
/// spill, or a failover made visible by wire trace-id propagation.
#[derive(Debug, Clone)]
pub struct SpanJoin {
    /// Trace id.
    pub trace: u64,
    /// The distinct processes that recorded spans for it, sorted.
    pub processes: Vec<String>,
    /// Whether a `reply` span exists (the request completed somewhere).
    pub completed: bool,
}

/// One deadline miss attributed to the phase that dominated its timeline.
#[derive(Debug, Clone)]
pub struct MissAttribution {
    /// Trace id.
    pub trace: u64,
    /// The phase with the largest total duration for this request.
    pub dominant_phase: String,
    /// Time in the dominant phase, microseconds.
    pub dominant_us: u64,
    /// Total measured phase time for the request, microseconds.
    pub total_us: u64,
    /// Where the fleet sent the request and why — the last `remote-submit`
    /// detail (`shard=N home=M why=home|idle|spill`), empty for a run
    /// without a fleet. `why=home` under a dominant `queue` is a request
    /// that waited at its home with no warm replica standing idle.
    pub routed: String,
}

impl MissAttribution {
    /// The dominant phase's share of the request's measured time, 0–1.
    pub fn share(&self) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            self.dominant_us as f64 / self.total_us as f64
        }
    }
}

/// The merged view of a fleet run's bundles.
#[derive(Debug, Clone, Default)]
pub struct BundleReport {
    /// Every process kind that contributed spans, sorted.
    pub processes: Vec<String>,
    /// Distinct trace ids observed.
    pub traces: usize,
    /// Spans parsed (lines that failed to parse are counted separately).
    pub spans: usize,
    /// Unparseable `spans.jsonl` lines skipped.
    pub skipped_lines: usize,
    /// Per-phase latency breakdown, canonical phase order first.
    pub phases: Vec<PhaseRow>,
    /// Requests whose spans joined across processes.
    pub joins: Vec<SpanJoin>,
    /// Every deadline miss, attributed to its dominant phase.
    pub misses: Vec<MissAttribution>,
}

/// The request lifecycle order phases are reported in; unknown phases
/// sort after these, alphabetically.
const PHASE_ORDER: [&str; 11] = [
    "admit",
    "queue",
    "store",
    "probe",
    "render",
    "reply",
    "remote-submit",
    "hedge",
    "failover",
    "remote-wait",
    "deadline-miss",
];

fn phase_rank(phase: &str) -> (usize, &str) {
    (PHASE_ORDER.iter().position(|p| *p == phase).unwrap_or(PHASE_ORDER.len()), phase)
}

/// Loads every `spans.jsonl` under `root` (the root itself plus one
/// directory level down), returning the parsed spans and the count of
/// skipped lines.
///
/// # Errors
///
/// A message naming the path when `root` is unreadable or holds no span
/// files at all.
pub fn load_bundles(root: &Path) -> Result<(Vec<ParsedSpan>, usize), String> {
    let mut files = Vec::new();
    let direct = root.join("spans.jsonl");
    if direct.is_file() {
        files.push(direct);
    }
    if root.is_dir() {
        let entries =
            fs::read_dir(root).map_err(|e| format!("cannot read {}: {e}", root.display()))?;
        for entry in entries.flatten() {
            let nested = entry.path().join("spans.jsonl");
            if nested.is_file() {
                files.push(nested);
            }
        }
    }
    if files.is_empty() {
        return Err(format!("no spans.jsonl under {}", root.display()));
    }
    files.sort();
    let mut spans = Vec::new();
    let mut skipped = 0usize;
    for file in files {
        let bytes = fs::read(&file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        for line in bytes.split(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(line) else {
                skipped += 1;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match parse_span_line(line) {
                Some(span) => spans.push(span),
                None => skipped += 1,
            }
        }
    }
    Ok((spans, skipped))
}

/// Parses one `spans.jsonl` line (a flat object of strings and numbers);
/// `None` for anything malformed — a truncated tail from a killed daemon.
pub fn parse_span_line(line: &str) -> Option<ParsedSpan> {
    let fields = parse_flat_object(line).ok()?;
    let get_str = |k: &str| match fields.get(k) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let get_num = |k: &str| match fields.get(k) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    };
    Some(ParsedSpan {
        trace: u64::from_str_radix(&get_str("trace")?, 16).ok()?,
        process: get_str("process")?,
        phase: get_str("phase")?,
        start_us: get_num("start_us")? as u64,
        dur_us: get_num("dur_us")? as u64,
        detail: get_str("detail").unwrap_or_default(),
    })
}

/// Builds the merged report from a parsed span set.
pub fn analyze(spans: &[ParsedSpan], skipped_lines: usize) -> BundleReport {
    let mut processes: BTreeSet<String> = BTreeSet::new();
    let mut by_phase: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut by_trace: BTreeMap<u64, Vec<&ParsedSpan>> = BTreeMap::new();
    for s in spans {
        processes.insert(s.process.clone());
        by_phase.entry(&s.phase).or_default().push(s.dur_us);
        by_trace.entry(s.trace).or_default().push(s);
    }

    let mut phases: Vec<PhaseRow> = by_phase
        .into_iter()
        .map(|(phase, mut durs)| {
            durs.sort_unstable();
            let total: u64 = durs.iter().sum();
            let pick =
                |p: f64| durs[((p * (durs.len() - 1) as f64).round() as usize).min(durs.len() - 1)];
            PhaseRow {
                phase: phase.to_string(),
                count: durs.len(),
                total_us: total,
                p50_us: pick(0.50),
                p95_us: pick(0.95),
                max_us: *durs.last().expect("non-empty by construction"),
            }
        })
        .collect();
    phases.sort_by(|a, b| phase_rank(&a.phase).cmp(&phase_rank(&b.phase)));

    let mut joins = Vec::new();
    let mut misses = Vec::new();
    for (&trace, trace_spans) in &by_trace {
        let procs: BTreeSet<&str> = trace_spans.iter().map(|s| s.process.as_str()).collect();
        let completed = trace_spans.iter().any(|s| s.phase == "reply");
        if procs.len() >= 2 {
            joins.push(SpanJoin {
                trace,
                processes: procs.iter().map(|p| p.to_string()).collect(),
                completed,
            });
        }
        if trace_spans.iter().any(|s| s.phase == "deadline-miss") {
            let mut per_phase: BTreeMap<&str, u64> = BTreeMap::new();
            for s in trace_spans.iter().filter(|s| s.dur_us > 0) {
                *per_phase.entry(&s.phase).or_default() += s.dur_us;
            }
            let total: u64 = per_phase.values().sum();
            // max duration wins; ties break toward the later lifecycle
            // phase so "render beats queue at equal time"
            let dominant = per_phase
                .iter()
                .max_by_key(|(phase, us)| (**us, std::cmp::Reverse(phase_rank(phase).0)))
                .map(|(phase, us)| (phase.to_string(), *us))
                .unwrap_or_else(|| ("unattributed".to_string(), 0));
            misses.push(MissAttribution {
                trace,
                dominant_phase: dominant.0,
                dominant_us: dominant.1,
                total_us: total,
                routed: trace_spans
                    .iter()
                    .rfind(|s| s.phase == "remote-submit")
                    .map(|s| s.detail.clone())
                    .unwrap_or_default(),
            });
        }
    }

    BundleReport {
        processes: processes.into_iter().collect(),
        traces: by_trace.len(),
        spans: spans.len(),
        skipped_lines,
        phases,
        joins,
        misses,
    }
}

impl BundleReport {
    /// Renders the report as markdown. The `SPAN_JOIN` and
    /// `MISS_ATTRIBUTION` lines are machine-greppable — the obs smoke
    /// asserts on them.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# merged bundle report\n\n");
        let _ = writeln!(
            out,
            "{} spans over {} requests from {} processes ({} unparseable lines skipped)\n",
            self.spans,
            self.traces,
            self.processes.len(),
            self.skipped_lines
        );
        let _ = writeln!(out, "processes: {}\n", self.processes.join(", "));

        out.push_str("## per-phase latency\n\n");
        out.push_str("| phase | count | p50 ms | p95 ms | max ms | total ms |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "| {} | {} | {:.3} | {:.3} | {:.3} | {:.3} |",
                p.phase,
                p.count,
                p.p50_us as f64 / 1e3,
                p.p95_us as f64 / 1e3,
                p.max_us as f64 / 1e3,
                p.total_us as f64 / 1e3
            );
        }

        out.push_str("\n## cross-process joins\n\n");
        if self.joins.is_empty() {
            out.push_str("none (no request's spans crossed a process boundary)\n");
        }
        for j in &self.joins {
            let _ = writeln!(
                out,
                "SPAN_JOIN trace={:016x} processes={} completed={} via={}",
                j.trace,
                j.processes.len(),
                j.completed,
                j.processes.join("+")
            );
        }

        out.push_str("\n## deadline misses\n\n");
        if self.misses.is_empty() {
            out.push_str("none\n");
        }
        for m in &self.misses {
            let _ = write!(
                out,
                "MISS_ATTRIBUTION trace={:016x} phase={} share={:.2} dominant_ms={:.3} total_ms={:.3}",
                m.trace,
                m.dominant_phase,
                m.share(),
                m.dominant_us as f64 / 1e3,
                m.total_us as f64 / 1e3
            );
            if !m.routed.is_empty() {
                let _ = write!(out, " routed=[{}]", m.routed);
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the report as JSON (the machine-readable artifact next
    /// to the markdown).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj();
        w.gap("\n  ").key("spans").usize(self.spans);
        w.key("traces").usize(self.traces);
        w.key("skipped_lines").usize(self.skipped_lines);
        w.gap("\n  ").key("processes").arr();
        for p in &self.processes {
            w.str_val(p);
        }
        w.close_arr();
        w.gap("\n  ").key("phases").arr();
        for p in &self.phases {
            w.gap("\n    ").obj();
            w.key("phase").str_val(&p.phase);
            w.key("count").usize(p.count);
            w.key("p50_us").u64(p.p50_us);
            w.key("p95_us").u64(p.p95_us);
            w.key("max_us").u64(p.max_us);
            w.key("total_us").u64(p.total_us);
            w.close_obj();
        }
        w.raw("\n  ").close_arr();
        w.gap("\n  ").key("joins").arr();
        for j in &self.joins {
            w.gap("\n    ").obj();
            let mut hex = String::new();
            let _ = write!(hex, "{:016x}", j.trace);
            w.key("trace").str_val(&hex);
            w.key("completed").bool(j.completed);
            w.key("processes").arr();
            for p in &j.processes {
                w.str_val(p);
            }
            w.close_arr();
            w.close_obj();
        }
        w.raw("\n  ").close_arr();
        w.gap("\n  ").key("misses").arr();
        for m in &self.misses {
            w.gap("\n    ").obj();
            let mut hex = String::new();
            let _ = write!(hex, "{:016x}", m.trace);
            w.key("trace").str_val(&hex);
            w.key("dominant_phase").str_val(&m.dominant_phase);
            w.key("share").f64(m.share(), 2);
            w.key("dominant_us").u64(m.dominant_us);
            w.key("total_us").u64(m.total_us);
            w.key("routed").str_val(&m.routed);
            w.close_obj();
        }
        w.raw("\n  ").close_arr();
        w.raw("\n");
        w.close_obj();
        w.raw("\n");
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, process: &str, phase: &str, start: u64, dur: u64) -> ParsedSpan {
        ParsedSpan {
            trace,
            process: process.to_string(),
            phase: phase.to_string(),
            start_us: start,
            dur_us: dur,
            detail: String::new(),
        }
    }

    #[test]
    fn span_lines_round_trip_and_tolerate_garbage() {
        let line = "{\"trace\": \"00000000000000ff\", \"process\": \"shardd-1\", \
                    \"pid\": 42, \"phase\": \"render\", \"start_us\": 100, \
                    \"dur_us\": 2500, \"detail\": \"riders=1\"}";
        let s = parse_span_line(line).expect("well-formed line parses");
        assert_eq!(s.trace, 0xff);
        assert_eq!(s.process, "shardd-1");
        assert_eq!(s.dur_us, 2500);
        assert_eq!(s.detail, "riders=1");
        for bad in [
            "",
            "{",
            "not json",
            "{\"trace\": \"zz\", \"process\": \"p\", \"phase\": \"x\", \"start_us\": 1, \"dur_us\": 1}",
            "{\"nested\": {\"no\": 1}}",
            "{\"trace\": \"0000000000000001\"}",
        ] {
            assert!(parse_span_line(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn a_line_cut_inside_a_character_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("asdr-report-utf8-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = b"{\"trace\": \"0000000000000001\", \"process\": \"serve\", \
                          \"phase\": \"admit\", \"start_us\": 1, \"dur_us\": 0}\n"
            .to_vec();
        // a kill -9 mid-write: the scene name `Café` ends inside its `é`
        let cut = "{\"trace\": \"0000000000000002\", \"detail\": \"scene=Café";
        bytes.extend_from_slice(&cut.as_bytes()[..cut.len() - 1]);
        fs::write(dir.join("spans.jsonl"), bytes).unwrap();
        let (spans, skipped) = load_bundles(&dir).expect("one bad line must not sink the report");
        assert_eq!((spans.len(), skipped), (1, 1));
        assert_eq!(spans[0].phase, "admit");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn joins_require_two_processes_and_track_completion() {
        let spans = vec![
            span(1, "client", "remote-submit", 0, 0),
            span(1, "shardd-0", "admit", 1, 0),
            span(1, "shardd-1", "render", 10, 500),
            span(1, "shardd-1", "reply", 510, 0),
            span(2, "shardd-0", "render", 0, 100),
            span(2, "shardd-0", "reply", 100, 0),
        ];
        let r = analyze(&spans, 0);
        assert_eq!(r.traces, 2);
        assert_eq!(r.joins.len(), 1);
        assert_eq!(r.joins[0].trace, 1);
        assert!(r.joins[0].completed);
        assert_eq!(r.joins[0].processes.len(), 3);
        let md = r.to_markdown();
        assert!(md.contains("SPAN_JOIN trace=0000000000000001 processes=3 completed=true"));
    }

    #[test]
    fn every_miss_gets_a_dominant_phase() {
        let spans = vec![
            ParsedSpan {
                detail: "shard=0 home=0 why=home".into(),
                ..span(7, "client", "remote-submit", 0, 0)
            },
            span(7, "shardd-0", "queue", 0, 9_000),
            span(7, "shardd-0", "render", 9_000, 1_000),
            span(7, "shardd-0", "deadline-miss", 10_000, 0),
            span(8, "shardd-1", "queue", 0, 100),
            span(8, "shardd-1", "render", 100, 5_000),
            span(8, "shardd-1", "deadline-miss", 5_100, 0),
        ];
        let r = analyze(&spans, 0);
        assert_eq!(r.misses.len(), 2);
        let by_trace: BTreeMap<u64, &MissAttribution> =
            r.misses.iter().map(|m| (m.trace, m)).collect();
        assert_eq!(by_trace[&7].dominant_phase, "queue");
        assert!((by_trace[&7].share() - 0.9).abs() < 1e-9);
        assert_eq!(by_trace[&8].dominant_phase, "render");
        let md = r.to_markdown();
        assert!(md.contains("MISS_ATTRIBUTION trace=0000000000000007 phase=queue share=0.90"));
        // the fleet's routing decision rides along: this one queued at home
        assert!(md.contains("total_ms=10.000 routed=[shard=0 home=0 why=home]\n"), "{md}");
        assert!(md.contains("phase=render share=0.98 dominant_ms=5.000 total_ms=5.100\n"), "{md}");
    }

    #[test]
    fn phase_rows_follow_lifecycle_order() {
        let spans = vec![
            span(1, "p", "render", 0, 10),
            span(1, "p", "admit", 0, 0),
            span(1, "p", "zz-custom", 0, 5),
            span(1, "p", "queue", 0, 3),
        ];
        let r = analyze(&spans, 0);
        let order: Vec<&str> = r.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(order, ["admit", "queue", "render", "zz-custom"]);
    }
}
