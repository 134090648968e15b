//! How a run's result is printed, stored and read back.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::proc::Fingerprint;
use crate::run::RunResult;
use std::fmt::Write as _;
use std::path::Path;

fn arrow(better: Better) -> &'static str {
    match better {
        Better::Lower => "lower is better",
        Better::Higher => "higher is better",
    }
}

/// Every metric by name, with unit and direction, then the notes.
pub fn listing(r: &RunResult) -> String {
    let mut s = String::new();
    let f = &r.fingerprint;
    let _ = writeln!(
        s,
        "workload {} seed {} seconds {} trace {}",
        r.args.workload.def().name,
        r.args.seed,
        r.args.seconds,
        u8::from(r.args.trace)
    );
    let _ = writeln!(
        s,
        "machine: {} x{} | {} | commit {} | {}",
        f.cpu_model, f.nproc, f.rustc, f.commit, f.profile
    );
    if r.args.trace {
        let _ = writeln!(
            s,
            "per-layer metrics (traced run; end-to-end numbers come from --trace 0 runs):"
        );
        for (def, (name, value)) in PER_LAYER.iter().zip(&r.per_layer) {
            match value {
                Some(v) => {
                    let _ = writeln!(
                        s,
                        "  {name:<34} {v:>16.4} {:<6} ({})",
                        def.unit,
                        arrow(def.better)
                    );
                }
                None => {
                    let _ = writeln!(
                        s,
                        "  {name:<34} {:>16} {:<6} (layer not on this workload's path)",
                        "absent", def.unit
                    );
                }
            }
        }
        let _ = writeln!(s, "end-to-end, for orientation only (half the blocks were traced):");
    } else {
        let _ = writeln!(
            s,
            "end-to-end metrics (host-time metrics normalised by the reference kernel):"
        );
    }
    for (def, (name, value)) in END_TO_END.iter().zip(&r.end_to_end) {
        let _ = writeln!(
            s,
            "  {name:<34} {value:>16.4} {:<6} ({}, bound {} %)",
            def.unit,
            arrow(def.better),
            def.bound * 100.0
        );
    }
    for note in &r.notes {
        let _ = writeln!(s, "  note: {note}");
    }
    for problem in &r.problems {
        let _ = writeln!(s, "  CHECK FAILED: {problem}");
    }
    s
}

/// The line the acceptance driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics` — the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one (0 for a layer this workload does not
/// touch; the listing says `absent`).
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = if r.args.trace {
        PER_LAYER
            .iter()
            .zip(&r.per_layer)
            .map(|(def, (name, v))| metric_json(name, v.unwrap_or(0.0), def.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&r.end_to_end)
            .map(|(def, (name, v))| metric_json(name, *v, def.unit))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
}

/// The stored form: the result line's fields plus where and how it ran,
/// and always the end-to-end values (so `compare` can refuse traced runs).
pub fn result_file(r: &RunResult) -> String {
    let f = &r.fingerprint;
    let e2e: Vec<String> =
        r.end_to_end.iter().map(|(n, v)| format!("\"{n}\": {}", number(*v))).collect();
    let layers: Vec<String> = r
        .per_layer
        .iter()
        .filter_map(|(n, v)| v.map(|v| format!("\"{n}\": {}", number(v))))
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"fingerprint\": {{\"cpu_model\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"profile\": \"{}\"}},\n  \"end_to_end\": {{{}}},\n  \"per_layer\": {{{}}}\n}}\n",
        r.args.workload.def().name,
        r.args.seed,
        r.args.seconds,
        r.args.trace,
        r.correct,
        r.attempted,
        r.failed,
        json::escape(&f.cpu_model),
        f.nproc,
        json::escape(&f.rustc),
        json::escape(&f.commit),
        json::escape(&f.profile),
        e2e.join(", "),
        layers.join(", ")
    )
}

/// A stored untraced result, as `compare` and `selfcheck` need it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stored {
    pub workload: String,
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    pub fingerprint: Fingerprint,
    pub end_to_end: Vec<(String, f64)>,
}

/// Parses a result file; `Ok(None)` for a traced run, whose end-to-end
/// numbers are not to be compared.
pub fn parse_result(text: &str) -> Result<Option<Stored>, String> {
    let v = json::parse(text)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result: no {k:?}"));
    if field("trace")?.as_bool() != Some(false) {
        return Ok(None);
    }
    let num = |k: &str| field(k)?.as_f64().ok_or_else(|| format!("result: {k:?} is not a number"));
    let fp = field("fingerprint")?;
    let text_of = |k: &str| fp.get(k).and_then(Value::as_str).unwrap_or("unknown").to_string();
    let end_to_end = field("end_to_end")?
        .as_obj()
        .ok_or("result: end_to_end is not an object")?
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect();
    Ok(Some(Stored {
        workload: field("workload")?
            .as_str()
            .ok_or("result: workload is not a string")?
            .to_string(),
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: num("attempted")?,
        failed: num("failed")?,
        fingerprint: Fingerprint {
            cpu_model: text_of("cpu_model"),
            nproc: fp.get("nproc").and_then(Value::as_f64).unwrap_or(0.0) as usize,
            rustc: text_of("rustc"),
            commit: text_of("commit"),
            profile: text_of("profile"),
        },
        end_to_end,
    }))
}

/// Every untraced result under `dir`: `result.json` in each of its
/// sub-directories, and `*.json` directly inside.
pub fn load_dir(dir: &Path) -> Result<Vec<Stored>, String> {
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let inner = path.join("result.json");
            if inner.is_file() {
                files.push(inner);
            }
        } else if path.extension().is_some_and(|e| e == "json") {
            files.push(path);
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if let Some(stored) = parse_result(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            out.push(stored);
        }
    }
    Ok(out)
}
