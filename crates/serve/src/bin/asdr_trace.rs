//! `asdr-trace` — merge run bundles.
//!
//! ```text
//! asdr-trace report --bundles DIR [--json] [--out FILE]
//! ```
//!
//! `report --bundles` merges the [`asdr_obs`] run bundles of a fleet run
//! into one report: per-phase latency breakdown, cross-process `SPAN_JOIN`
//! lines (trace ids followed across hedges and failovers), and a
//! `MISS_ATTRIBUTION` line naming the dominant phase of every deadline miss.

use asdr_serve::flags::{die, value};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: asdr-trace report --bundles DIR [--json] [--out FILE]");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let rest = &argv[1..];
    match cmd.as_str() {
        "report" => cmd_report(rest),
        "-h" | "--help" => usage(),
        other => die(&format!("unknown subcommand {other:?} (see --help)")),
    }
}

/// Merges every bundle under `--bundles DIR` into the cross-process span
/// report (markdown by default, `--json` for the machine-readable artifact).
fn cmd_report(argv: &[String]) {
    let mut out: Option<PathBuf> = None;
    let mut bundles: Option<PathBuf> = None;
    let mut json = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => out = Some(PathBuf::from(value(argv, &mut i))),
            "--bundles" => bundles = Some(PathBuf::from(value(argv, &mut i))),
            "--json" => json = true,
            "-h" | "--help" => usage(),
            other => die(&format!("unknown argument {other:?} (see --help)")),
        }
        i += 1;
    }
    let root = bundles.unwrap_or_else(|| die("report needs --bundles DIR"));
    let (spans, skipped) = asdr_obs::report::load_bundles(&root).unwrap_or_else(|e| die(&e));
    let merged = asdr_obs::report::analyze(&spans, skipped);
    let text = if json { merged.to_json() } else { merged.to_markdown() };
    match out {
        Some(path) => {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::write(&path, &text)
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
            println!(
                "bundle report ({} spans, {} traces, {} processes) written to {}",
                merged.spans,
                merged.traces,
                merged.processes.len(),
                path.display()
            );
        }
        None => print!("{text}"),
    }
}
