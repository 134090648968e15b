//! The `asdr-trace` toolbox, exercised through the real binary: every
//! malformed invocation exits 2.

use std::process::Command;

fn trace_cmd(args: &[&std::ffi::OsStr]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_asdr-trace")).args(args).output().expect("spawn asdr-trace")
}

#[test]
fn bad_invocations_exit_with_usage() {
    for args in [
        vec!["frobnicate"],
        vec!["gen"],
        vec!["gen", "poisson:rate=1,duration=10s"],
        vec!["sample", "--window-ms", "1000"],
        vec!["record", "--synthetic", "poisson:rate=1,duration=10s", "--out", "x.trace"],
        vec!["record", "--workload", "x.jsonl", "--out", "y"],
        vec!["report"],
        vec!["report", "full=stats.json"],
    ] {
        let argv: Vec<&std::ffi::OsStr> = args.iter().map(|s| s.as_ref()).collect();
        let out = trace_cmd(&argv);
        assert_eq!(out.status.code(), Some(2), "asdr-trace {args:?} should exit 2");
    }
}
