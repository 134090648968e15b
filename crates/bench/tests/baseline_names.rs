//! `scripts/bench-baseline.json` may only name benches that exist: every
//! row's group and function must be a string literal of some file under
//! `benches/`. The nightly `BENCH_REQUIRE_ALL=1` run finds a vanished row a
//! day late; this finds it on the PR that renames or deletes the bench.

use std::fs;
use std::path::Path;

#[test]
fn every_baseline_row_names_a_bench_in_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline = fs::read_to_string(root.join("../../scripts/bench-baseline.json"))
        .expect("scripts/bench-baseline.json is committed");
    let sources: String = fs::read_dir(root.join("benches"))
        .expect("crates/bench/benches exists")
        .map(|entry| fs::read_to_string(entry.expect("readable dir entry").path()).expect("utf-8"))
        .collect();

    // one row per line, as the criterion shim writes them
    let names: Vec<&str> = baseline
        .lines()
        .filter_map(|line| line.split_once(r#""name":""#)?.1.split('"').next())
        .collect();
    assert!(!names.is_empty(), "no rows parsed from the baseline");
    for name in names {
        for part in name.split('/') {
            assert!(
                sources.contains(&format!("\"{part}\"")),
                "baseline row `{name}`: no bench under crates/bench/benches names \"{part}\""
            );
        }
    }
}
