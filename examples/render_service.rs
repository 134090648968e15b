//! End-to-end serving demo: a multi-tenant [`RenderService`] over a
//! persistent [`ModelStore`].
//!
//! ```text
//! cargo run --release --example render_service
//! ```
//!
//! Submits a mixed burst — a latency-critical frame, a coherent 4-frame
//! orbit sequence, and background work across three scenes — waits for the
//! tickets, and prints per-request latency plus the aggregate `ServeStats`.
//! Then it builds a *second* service over the same checkpoint directory and
//! shows the warm path: zero fits, every model reloaded from disk.

use asdr::scenes::registry;
use asdr::serve::{ModelStore, Priority, RenderProfile, RenderRequest, RenderService};
use std::sync::Arc;
use std::time::Duration;

const RESOLUTION: u32 = 32;

fn burst() -> Vec<(&'static str, RenderRequest)> {
    let (mic, lego, pulse) =
        (registry::handle("Mic"), registry::handle("Lego"), registry::handle("Pulse"));
    vec![
        (
            "head-pose frame (high, 5 s deadline)",
            RenderRequest::frame(mic.clone(), RESOLUTION)
                .with_priority(Priority::High)
                .with_deadline(Duration::from_secs(5)),
        ),
        ("orbit sequence x4 (plan reuse)", RenderRequest::sequence(lego, RESOLUTION, 4)),
        (
            "background frame (low)",
            RenderRequest::frame(pulse, RESOLUTION).with_priority(Priority::Low),
        ),
        ("same scene again (model already resident)", RenderRequest::frame(mic, RESOLUTION)),
    ]
}

fn run_service(store: Arc<ModelStore>, label: &str) {
    let service = RenderService::builder(RenderProfile::tiny())
        .store(store)
        .workers(2)
        .build()
        .expect("valid profile");
    println!("\n== {label} ({} workers) ==", service.workers());
    let tickets: Vec<_> = burst()
        .into_iter()
        .map(|(what, req)| (what, service.submit(req).expect("queue has room")))
        .collect();
    for (what, ticket) in &tickets {
        let r = ticket.wait().expect("request completed");
        println!(
            "  {what:<38} {}: {} frame(s), {} plan-reused, {:>6.1} ms{}",
            r.scene,
            r.images.len(),
            r.reused_frames,
            r.latency.as_secs_f64() * 1e3,
            match r.deadline_met {
                Some(true) => " (deadline met)",
                Some(false) => " (DEADLINE MISSED)",
                None => "",
            },
        );
    }
    let stats = service.shutdown();
    println!(
        "  -> {} frames at {:.2} fps; p50/p95 latency {:.1}/{:.1} ms",
        stats.frames, stats.throughput_fps, stats.p50_latency_ms, stats.p95_latency_ms
    );
    println!(
        "  -> store: {} fits, {} memory hits, {} disk hits (hit rate {:.0}%)",
        stats.store.fits,
        stats.store.memory_hits,
        stats.store.disk_hits,
        stats.store.hit_rate() * 100.0
    );
}

fn main() {
    let dir = std::env::temp_dir().join("asdr-render-service-demo");
    let _ = std::fs::remove_dir_all(&dir);
    println!("checkpoint store: {}", dir.display());

    // cold: every scene fits once (single-flighted), checkpoints written
    run_service(Arc::new(ModelStore::builder().dir(&dir).build()), "cold start");

    // warm: a fresh service (a new process, in spirit) reloads every model
    // from its checkpoint — zero fits, same images
    run_service(Arc::new(ModelStore::builder().dir(&dir).build()), "warm restart, same store dir");

    let _ = std::fs::remove_dir_all(&dir);
    println!("\n(see DESIGN.md §3 for the store + scheduler dataflow)");
}
