//! Facade-level serving acceptance: a mixed 3-scene burst against a
//! checkpoint directory fits each scene exactly once; a second service over
//! the same directory performs zero fits and renders byte-identical images.
//! (The same contract crosses real process boundaries in
//! `crates/serve/tests/cold_warm_bin.rs`.)

use asdr::scenes::registry;
use asdr::serve::{ModelStore, Priority, RenderProfile, RenderRequest, RenderService};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const SCENES: [&str; 3] = ["Mic", "Lego", "Pulse"];
const RESOLUTION: u32 = 24;

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_serve_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn burst() -> Vec<RenderRequest> {
    SCENES
        .iter()
        .flat_map(|name| {
            let scene = registry::handle(name);
            [
                RenderRequest::frame(scene.clone(), RESOLUTION)
                    .with_priority(Priority::High)
                    .with_deadline(Duration::from_secs(30)),
                RenderRequest::sequence(scene, RESOLUTION, 2),
            ]
        })
        .collect()
}

fn run_burst(dir: &PathBuf) -> (Vec<Vec<asdr::math::Image>>, asdr::serve::ServeStats) {
    let service = RenderService::builder(RenderProfile::tiny())
        .store(Arc::new(ModelStore::builder().dir(dir).build()))
        .workers(2)
        .build()
        .unwrap();
    let tickets: Vec<_> = burst().into_iter().map(|r| service.submit(r).unwrap()).collect();
    let images =
        tickets.iter().map(|t| t.wait().expect("request completed").images.clone()).collect();
    (images, service.shutdown())
}

#[test]
fn serving_is_fit_once_then_checkpoint_warm() {
    let dir = fresh_dir();

    let (cold_images, cold) = run_burst(&dir);
    assert_eq!(cold.store.fits, 3, "cold store fits each scene exactly once: {:?}", cold.store);
    assert_eq!(cold.store.disk_hits, 0);
    assert_eq!(cold.requests, 6);
    assert_eq!(cold.frames, 9);
    assert!(cold.reused_frames >= 3, "each 2-frame sequence reuses its plan");

    // a new service over the same directory: in spirit, the next process
    let (warm_images, warm) = run_burst(&dir);
    assert_eq!(warm.store.fits, 0, "warm store must not fit: {:?}", warm.store);
    assert_eq!(warm.store.disk_hits, 3, "each scene reloads from its checkpoint once");
    assert_eq!(warm.store.disk_errors, 0);
    assert_eq!(cold_images, warm_images, "warm-run frames must be byte-identical to the cold run");

    let _ = std::fs::remove_dir_all(&dir);
}
