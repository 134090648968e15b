//! The `asdr-cluster` command line, exercised through the real binary: a
//! flag value it cannot use exits 2 naming the flag, before any shard starts.

use std::process::Command;

#[test]
fn a_hedge_watermark_too_large_for_a_duration_exits_2() {
    let workload =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/cluster-workload-tiny.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_asdr-cluster"))
        .args(["--workload", workload, "--scale", "tiny", "--shards", "2", "--no-store"])
        .args(["--hedge-ms", "1e300"])
        .output()
        .expect("spawn asdr-cluster");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--hedge-ms"), "the message names no flag: {stderr}");
}
