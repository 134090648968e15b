//! The `asdr-trace` toolbox, exercised through the real binary: `record`
//! transcodes a JSONL workload into the binary format, and every malformed
//! invocation exits 2.

use asdr_serve::trace::format;
use asdr_serve::{parse_workload, TimedRequest};
use std::path::Path;
use std::process::Command;

fn trace_cmd(args: &[&std::ffi::OsStr]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_asdr-trace")).args(args).output().expect("spawn asdr-trace")
}

#[test]
fn record_transcodes_a_jsonl_workload() {
    let dir = std::env::temp_dir().join(format!("asdr_trace_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/serve-workload-tiny.jsonl");
    let transcoded = dir.join("workload.trace");
    let out = trace_cmd(&[
        "record".as_ref(),
        "--workload".as_ref(),
        workload.as_os_str(),
        "--out".as_ref(),
        transcoded.as_os_str(),
    ]);
    assert!(out.status.success(), "record failed: {}", String::from_utf8_lossy(&out.stderr));

    // the file holds the workload's requests in arrival order; only
    // `origin` (source line vs record number) differs
    let without_origin = |e: TimedRequest| TimedRequest { origin: 0, ..e };
    let mut expect = parse_workload(&std::fs::read_to_string(&workload).unwrap()).unwrap();
    expect.sort_by_key(|e| e.at_ms);
    let expect: Vec<_> = expect.into_iter().map(without_origin).collect();
    let got: Vec<_> =
        format::read_file(&transcoded).unwrap().into_iter().map(without_origin).collect();
    assert_eq!(got.len(), 5);
    assert_eq!(got, expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_invocations_exit_with_usage() {
    for args in [
        vec!["frobnicate"],
        vec!["gen"],
        vec!["gen", "poisson:rate=1,duration=10s"],
        vec!["sample", "--window-ms", "1000"],
        vec!["record", "--synthetic", "poisson:rate=1,duration=10s", "--out", "x.trace"],
        vec!["report"],
        vec!["report", "full=stats.json"],
    ] {
        let argv: Vec<&std::ffi::OsStr> = args.iter().map(|s| s.as_ref()).collect();
        let out = trace_cmd(&argv);
        assert_eq!(out.status.code(), Some(2), "asdr-trace {args:?} should exit 2");
    }
}
