//! Cross-process cold-fit single-flight, with **real processes**: four
//! `asdr-cluster --shards 1` binaries start cold and concurrently against one store
//! directory, and across all of them each (scene, grid) key is fitted
//! **exactly once** — the others wait on the advisory lock file and load
//! the winner's checkpoint. This is the multi-process analogue of
//! `asdr_serve`'s `store_props.rs::concurrent_requests_fit_exactly_once`
//! (threads) and `store_lock.rs` (store instances): here nothing is shared but the
//! filesystem, exactly the deployment the ROADMAP's duplicate-fit gap
//! described.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};

const PROCESSES: usize = 4;
const SCENES: usize = 2;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_multiproc_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
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

fn spawn(workload: &Path, store: &Path, images: &Path, out: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_asdr-cluster"))
        .args(["--workload".as_ref(), workload.as_os_str()])
        .args(["--shards", "1", "--scale", "tiny", "--workers", "2"])
        .args(["--store-dir".as_ref(), store.as_os_str()])
        .args(["--dump-images".as_ref(), images.as_os_str()])
        .args(["--out".as_ref(), out.as_os_str()])
        .spawn()
        .expect("spawn asdr-cluster")
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
fn four_cold_processes_fit_each_key_exactly_once() {
    let root = fresh_dir("root");
    let store = root.join("store");
    // a small 2-scene workload (24 px keeps the render cost negligible
    // next to the fits the test is about); every process replays it whole
    let workload = root.join("workload.jsonl");
    std::fs::write(
        &workload,
        "# multiproc single-flight workload\n\
         {\"scene\": \"Mic\",  \"frames\": 1, \"resolution\": 24}\n\
         {\"scene\": \"Lego\", \"frames\": 1, \"resolution\": 24}\n",
    )
    .unwrap();

    let children: Vec<(usize, Child)> = (0..PROCESSES)
        .map(|i| {
            let images = root.join(format!("images-{i}"));
            let out = root.join(format!("stats-{i}.json"));
            (i, spawn(&workload, &store, &images, &out))
        })
        .collect();
    let mut fits_total = 0;
    let mut disk_hits_total = 0;
    let mut lock_waits_total = 0;
    for (i, mut child) in children {
        let status = child.wait().expect("join asdr-cluster");
        assert!(status.success(), "process {i} exited with {status}");
        let json = std::fs::read_to_string(root.join(format!("stats-{i}.json"))).unwrap();
        assert_eq!(json_u64(&json, "disk_errors"), 0, "process {i} saw a torn checkpoint");
        fits_total += json_u64(&json, "total_fits");
        disk_hits_total += json_u64(&json, "total_disk_hits");
        lock_waits_total += json_u64(&json, "lock_waits");
    }
    assert_eq!(
        fits_total, SCENES as u64,
        "across all {PROCESSES} processes each (scene, grid) must fit exactly once \
         ({disk_hits_total} disk hits, {lock_waits_total} lock waits)"
    );
    assert_eq!(
        disk_hits_total,
        (PROCESSES * SCENES) as u64 - SCENES as u64,
        "every non-fitting lookup loads the winner's checkpoint"
    );

    // and the deduplicated fits serve byte-identical pixels everywhere
    let reference = dumped_frames(&root.join("images-0"));
    assert_eq!(reference.len(), 2, "the workload renders one frame per scene");
    for i in 1..PROCESSES {
        let frames = dumped_frames(&root.join(format!("images-{i}")));
        assert_eq!(
            frames.keys().collect::<Vec<_>>(),
            reference.keys().collect::<Vec<_>>(),
            "process {i} dumped a different frame set"
        );
        for (name, bytes) in &reference {
            assert_eq!(bytes, &frames[name], "process {i}, {name}: pixels diverged");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
