//! `experiments --store-dir DIR` through the real binary: a first run keeps
//! its NGP fit in `DIR` as a checkpoint, and a second run reloads it instead
//! of refitting. A refit would save the checkpoint again (a temp file renamed
//! into place), so the file's inode and mtime standing still across the
//! second run is the proof that it was only read.

use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, inode, mtime in ns)` of every checkpoint in `dir`, sorted.
fn checkpoints(dir: &Path) -> Vec<(String, u64, i64)> {
    let mut found: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry"))
        .filter(|entry| entry.path().extension().is_some_and(|x| x == "ckpt"))
        .map(|entry| {
            let meta = entry.metadata().expect("checkpoint metadata");
            let mtime_ns = meta.mtime() * 1_000_000_000 + meta.mtime_nsec();
            (entry.file_name().to_string_lossy().into_owned(), meta.ino(), mtime_ns)
        })
        .collect();
    found.sort();
    found
}

/// A cheap one-scene experiment at tiny scale, storing its fit in `dir`.
fn run(dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig8", "--scale", "tiny", "--scene", "Mic", "--store-dir"])
        .arg(dir)
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "experiments exited with {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn a_store_dir_keeps_the_fit_and_a_second_run_reloads_it() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("asdr_experiments_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = run(&dir);
    let written = checkpoints(&dir);
    assert_eq!(written.len(), 1, "one scene, one checkpoint: {written:?}");
    assert!(written[0].0.starts_with("Mic-"), "{written:?}");

    let warm = run(&dir);
    assert_eq!(checkpoints(&dir), written, "the second run rewrote its checkpoint: it refitted");
    assert_eq!(warm, cold, "a reloaded fit renders what the fit did");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_dir_without_a_value_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig8", "--scale", "tiny", "--store-dir"])
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--store-dir needs a dir"), "{stderr}");
}
