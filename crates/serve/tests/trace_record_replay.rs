//! The record→replay contract, end to end through the real binaries: a
//! workload run with `--record` captures a workload file whose replay
//! renders **byte-identical** frames and performs the same number of fits
//! as the original workload's run.
//!
//! Three processes against one shared store directory: a cold run of the
//! checked-in workload that records, then warm runs of the workload and
//! of the capture, whose image dumps and store counters must agree
//! exactly.

use asdr_serve::workload::{parse_workload, read_workload};
use asdr_serve::TimedRequest;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workload_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/serve-workload-tiny.jsonl")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_trace_rr_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// Runs `asdr-serve` on the workload file `input`, returning the stats
/// artifact text.
fn run(input: &Path, store: &Path, images: &Path, out: &Path, record: Option<&Path>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_asdr-serve"));
    cmd.args(["--workload".as_ref(), input.as_os_str()])
        .args(["--scale", "tiny", "--workers", "2"])
        .args(["--store-dir".as_ref(), store.as_os_str()])
        .args(["--dump-images".as_ref(), images.as_os_str()])
        .args(["--out".as_ref(), out.as_os_str()]);
    if let Some(r) = record {
        cmd.args(["--record".as_ref(), r.as_os_str()]);
    }
    let status = cmd.status().expect("spawn asdr-serve");
    assert!(status.success(), "asdr-serve exited with {status}");
    std::fs::read_to_string(out).expect("stats artifact written")
}

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
fn recorded_trace_replays_byte_identical_frames_and_equal_fits() {
    let store = fresh_dir("store");
    let cold_images = fresh_dir("cold");
    let jsonl_images = fresh_dir("jsonl");
    let capture_images = fresh_dir("capture");
    let scratch = fresh_dir("scratch");
    let capture = scratch.join("captured.jsonl");
    let workload = workload_path();

    let cold = run(&workload, &store, &cold_images, &scratch.join("cold.json"), Some(&capture));
    assert_eq!(json_u64(&cold, "fits"), 3, "cold run fits each scene once: {cold}");
    // the capture is the workload's requests in arrival order (at --speed 1
    // the warped offsets are the file's); only the line numbers differ
    let without_origin = |e: TimedRequest| TimedRequest { origin: 0, ..e };
    let captured = parse_workload(&std::fs::read_to_string(&capture).unwrap()).unwrap();
    let expect = read_workload(&workload).unwrap();
    assert_eq!(
        captured.into_iter().map(without_origin).collect::<Vec<_>>(),
        expect.into_iter().map(without_origin).collect::<Vec<_>>(),
        "--record wrote the replayed requests as a workload file"
    );

    let warm_jsonl = run(&workload, &store, &jsonl_images, &scratch.join("warm_jsonl.json"), None);
    let warm_capture =
        run(&capture, &store, &capture_images, &scratch.join("warm_capture.json"), None);

    // equal fit counts: both warm runs hit the store for everything
    for (label, stats) in [("jsonl", &warm_jsonl), ("capture", &warm_capture)] {
        assert_eq!(json_u64(stats, "fits"), 0, "warm {label} run must fit nothing: {stats}");
        assert_eq!(json_u64(stats, "disk_errors"), 0, "{label}: {stats}");
    }
    assert_eq!(
        json_u64(&warm_jsonl, "requests"),
        json_u64(&warm_capture, "requests"),
        "the capture holds every request"
    );
    assert_eq!(json_u64(&warm_jsonl, "frames"), json_u64(&warm_capture, "frames"));

    // byte-identical frames: workload replay, capture replay, and the
    // recording (cold) run all dump exactly the same images
    let jsonl_frames = dumped_frames(&jsonl_images);
    let capture_frames = dumped_frames(&capture_images);
    let cold_frames = dumped_frames(&cold_images);
    assert_eq!(
        jsonl_frames.keys().collect::<Vec<_>>(),
        capture_frames.keys().collect::<Vec<_>>(),
        "same request indices, same frame set"
    );
    for (name, bytes) in &jsonl_frames {
        assert_eq!(
            bytes, &capture_frames[name],
            "{name}: capture frame diverged from workload frame"
        );
        assert_eq!(bytes, &cold_frames[name], "{name}: warm frame diverged from recording run");
    }

    for dir in [store, cold_images, jsonl_images, capture_images, scratch] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
