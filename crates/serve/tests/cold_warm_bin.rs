//! The store acceptance contract, end to end through the real binary: a
//! cold `asdr-serve` run on the bundled mixed 3-scene workload fits each
//! scene exactly once, and a second run against the same `--store-dir`
//! performs **zero** fits while producing **byte-identical** images.
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
    let dir = std::env::temp_dir().join(format!("asdr_serve_bin_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads `"key": <integer>` out of the stats JSON (the store block's keys
/// are unique in the artifact).
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

fn run(store_dir: &Path, images: &Path, out: &Path) -> String {
    let status = Command::new(env!("CARGO_BIN_EXE_asdr-serve"))
        .args(["--workload".as_ref(), workload_path().as_os_str()])
        .args(["--scale", "tiny", "--workers", "2"])
        .args(["--store-dir".as_ref(), store_dir.as_os_str()])
        .args(["--dump-images".as_ref(), images.as_os_str()])
        .args(["--out".as_ref(), out.as_os_str()])
        .args(["--bundle".as_ref(), out.with_extension("bundle").as_os_str()])
        .status()
        .expect("spawn asdr-serve");
    assert!(status.success(), "asdr-serve exited with {status}");
    // the run bundle says which MLP kernel produced these numbers
    let config = std::fs::read_to_string(out.with_extension("bundle").join("config.json"))
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
    assert_eq!(json_u64(&cold, "fits"), 3, "cold run fits each of the 3 scenes once: {cold}");
    assert_eq!(json_u64(&cold, "disk_hits"), 0, "nothing to load on a cold store: {cold}");

    let warm = run(&store_dir, &warm_images, &stats_out.join("warm.json"));
    assert_eq!(json_u64(&warm, "fits"), 0, "warm run must fit nothing: {warm}");
    assert_eq!(json_u64(&warm, "disk_hits"), 3, "each scene loads from checkpoint once: {warm}");
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
