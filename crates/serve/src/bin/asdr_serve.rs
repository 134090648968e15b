//! `asdr-serve` — replays a workload file through a [`RenderService`]
//! and reports serving statistics.
//!
//! ```text
//! asdr-serve --workload FILE
//!            [--scale tiny|small|paper] [--workers N]
//!            [--store-dir DIR | --no-store] [--queue N]
//!            [--speed X] [--record PATH]
//!            [--out STATS.json] [--dump-images DIR] [--bundle DIR]
//! ```
//!
//! The input is a JSON-lines workload (what `--record` writes too), read
//! whole before the replay starts. Entries are submitted at
//! their `at_ms` arrival offsets (optionally time-warped by `--speed`;
//! equal offsets form a burst)
//! through the shared [`ReplayDriver`](asdr_serve::ReplayDriver);
//! `--record` captures every admitted request as a workload file. The
//! process waits for every ticket, prints a per-request table plus the
//! aggregate [`ServeStats`](asdr_serve::ServeStats) and a machine-readable
//! `TRACE_RESULT` line, and writes the stats as JSON to `--out`
//! (the artifact the nightly workflow uploads). `--dump-images` writes
//! every rendered frame as a PPM — two runs against the same
//! `--store-dir` must produce byte-identical dumps (the store acceptance
//! contract, pinned by `tests/serve_e2e.rs`). `--bundle DIR` writes an
//! [`asdr_obs`] run bundle — config snapshot, stage markers, periodic
//! stats samples, the span timeline — that `asdr-cluster report` can merge
//! with other processes' bundles.

use asdr_serve::flags::{self, die, OutputFlags, ReplayFlags, ReplayReport, ServiceFlags};
use asdr_serve::workload::read_workload;
use asdr_serve::RenderService;
use std::sync::Arc;

#[derive(Default)]
struct Args {
    replay: ReplayFlags,
    output: OutputFlags,
    service: ServiceFlags,
}

fn usage() -> ! {
    eprintln!(
        "usage: asdr-serve --workload FILE\n\
         \u{20}                 [--scale tiny|small|paper] [--workers N]\n\
         \u{20}                 [--store-dir DIR | --no-store] [--queue N]\n\
         \u{20}                 [--speed X] [--record PATH]\n\
         \u{20}                 [--out STATS.json] [--dump-images DIR] [--bundle DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let known = args.replay.accept(&argv, &mut i)
            || args.output.accept(&argv, &mut i)
            || args.service.accept(&argv, &mut i);
        if !known {
            match argv[i].as_str() {
                "-h" | "--help" => usage(),
                other => die(&format!("unknown argument {other:?} (see --help)")),
            }
        }
        i += 1;
    }
    if args.replay.workload.is_none() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let sized = &args.service;
    let bundle = args.output.bundle.as_ref().map(|dir| {
        let config = [
            ("workers", sized.workers.map_or_else(|| "auto".to_string(), |n| n.to_string())),
            ("queue", sized.queue.to_string()),
            ("store", sized.store_label()),
        ];
        flags::open_bundle(dir, "serve", &config)
    });
    let workload = args.replay.workload.as_deref().expect("checked in parse_args");
    let entries = read_workload(workload).unwrap_or_else(|e| die(&e));
    if entries.is_empty() {
        die(&format!("{} holds no requests", workload.display()));
    }

    let mut builder =
        RenderService::builder(sized.profile.clone()).store(Arc::new(sized.store().build()));
    if let Some(n) = sized.workers {
        builder = builder.workers(n);
    }
    let service = builder.queue_capacity(sized.queue).build().unwrap_or_else(|e| die(&e));
    println!(
        "# asdr-serve: {} requests, {} workers, store {}",
        entries.len(),
        service.workers(),
        service.store().dir().map_or("in-memory".to_string(), |d| d.display().to_string()),
    );

    let driver = args.replay.driver(sized.profile.clone());
    if let Some(b) = &bundle {
        b.stage("replaying");
    }
    let replay = driver
        .run(&entries, &service)
        .unwrap_or_else(|e| die(&format!("{}: {e}", workload.display())));

    let mut report = ReplayReport::begin(&args.output, bundle.as_deref(), "reused");
    for req in &replay.requests {
        let r = req
            .ticket
            .wait()
            .unwrap_or_else(|e| die(&format!("request {} ({}): {e}", req.index, req.scene)));
        let waits_ms = (r.queue_wait.as_secs_f64() * 1e3, r.latency.as_secs_f64() * 1e3);
        report.row(req, &r.reused_frames, &r.images, waits_ms, r.deadline_met);
        report.sample(|| service.stats().to_json());
    }
    let wall = replay.started.elapsed();

    if let Some(b) = &bundle {
        b.stage("shutdown");
    }
    let stats = service.shutdown();
    println!(
        "\n{} requests, {} frames ({} plan-reused, {:.0}% of frames)",
        stats.requests,
        stats.frames,
        stats.reused_frames,
        stats.reuse_fraction() * 100.0,
    );
    println!(
        "latency p50 {:.1} ms / p95 {:.1} ms, mean queue wait {:.1} ms, throughput {:.2} fps",
        stats.p50_latency_ms, stats.p95_latency_ms, stats.mean_queue_wait_ms, stats.throughput_fps,
    );
    println!(
        "store: {} fits, {} memory hits, {} disk hits (hit rate {:.0}%), {} evictions, {} disk errors",
        stats.store.fits,
        stats.store.memory_hits,
        stats.store.disk_hits,
        stats.store.hit_rate() * 100.0,
        stats.store.evictions,
        stats.store.disk_errors,
    );
    if stats.deadlined_requests > 0 {
        println!("deadlines: {}/{} missed", stats.deadline_misses, stats.deadlined_requests);
    }
    report.finish(wall, &stats.to_json());
}
