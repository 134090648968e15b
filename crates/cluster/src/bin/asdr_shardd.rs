//! `asdr-shardd` — one shard of a remote fleet: a single
//! [`LocalShard`](asdr_cluster::LocalShard) (a `RenderService` +
//! `ModelStore`) per process, answering the fleet wire protocol over a
//! Unix or TCP socket. What a shard *does* with each message lives in
//! [`asdr_cluster::server`]; this file is flags, the listener and signals.
//!
//! ```text
//! asdr-shardd --listen (unix:PATH | tcp:HOST:PORT)
//!             [--scale tiny|small|paper] [--workers N] [--queue N]
//!             [--store-dir DIR | --no-store] [--shard-id N]
//!             [--bundle DIR]
//! ```
//!
//! With `--bundle DIR` the daemon writes a diagnostic run bundle
//! (`asdr_obs::Bundle`): span capture is enabled and every request span
//! streams write-through into `DIR/spans.jsonl` — surviving even a
//! kill −9 — periodic stats samples land in `DIR/stats-timeline.jsonl`,
//! and the final snapshot is sealed into `DIR/stats.json`.
//!
//! The daemon prints `SHARDD_READY <addr>` once it accepts connections
//! (with the assigned port for `tcp:HOST:0`), then serves until SIGTERM,
//! SIGINT, or a wire `Drain` message, drains gracefully (see
//! [`Server::drain`]) and exits 0. A kill −9 is the *un*graceful path the
//! fleet's health checks and hedging exist to absorb.

use asdr_cluster::{Listener, LocalShards, Server, Shard, ShardAddr};
use asdr_serve::flags::{die, open_bundle, value, ServiceFlags};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by SIGTERM/SIGINT; the server's tick polls it.
static DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Installs the drain handler with the always-linked libc `signal(2)` —
/// no signal crate offline. BSD semantics imply `SA_RESTART`, which is
/// why the accept loop polls a nonblocking listener instead of parking
/// in `accept`.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    // SAFETY: `signal` is declared as libc defines it (a handler is a
    // pointer-sized value), both signal numbers are valid, and `on_signal`
    // only stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[derive(Default)]
struct Args {
    listen: Option<ShardAddr>,
    service: ServiceFlags,
    shard_id: u64,
    bundle: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: asdr-shardd --listen (unix:PATH | tcp:HOST:PORT)\n\
         \u{20}                  [--scale tiny|small|paper] [--workers N] [--queue N]\n\
         \u{20}                  [--store-dir DIR | --no-store] [--shard-id N]\n\
         \u{20}                  [--bundle DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        if !args.service.accept(&argv, &mut i) {
            match argv[i].as_str() {
                "--listen" => {
                    let addr = ShardAddr::parse(&value(&argv, &mut i));
                    args.listen = Some(addr.unwrap_or_else(|e| die(&e)));
                }
                "--bundle" => args.bundle = Some(PathBuf::from(value(&argv, &mut i))),
                "--shard-id" => {
                    let v = value(&argv, &mut i);
                    args.shard_id = v.parse().unwrap_or_else(|_| {
                        die(&format!("--shard-id needs an integer, got {v:?}"))
                    });
                }
                "-h" | "--help" => usage(),
                other => die(&format!("unknown argument {other:?} (see --help)")),
            }
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(listen) = &args.listen else { usage() };
    install_signal_handlers();

    let sized = &args.service;
    let workers = sized.workers.unwrap_or(1);
    let bundle = args.bundle.as_ref().map(|dir| {
        let config = [
            ("listen", listen.to_string()),
            ("scale", sized.scale.clone()),
            ("workers", workers.to_string()),
            ("queue", sized.queue.to_string()),
            ("store", sized.store_label()),
            ("shard_id", args.shard_id.to_string()),
        ];
        open_bundle(dir, &format!("shardd-{}", args.shard_id), &config)
    });

    let shard = LocalShards {
        shards: 1,
        workers,
        queue_capacity: sized.queue,
        store: sized.store(),
        ..LocalShards::new(sized.profile.clone())
    };
    let shard = shard.build().unwrap_or_else(|e| die(&e)).remove(0);

    let (listener, actual) =
        Listener::bind(listen).unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
    listener.set_nonblocking(true).unwrap_or_else(|e| die(&format!("cannot poll {}: {e}", actual)));
    println!("SHARDD_READY {actual}");
    let _ = std::io::stdout().flush();
    if let Some(b) = &bundle {
        b.stage("listening");
    }

    let stats_json = || {
        let snap = shard.stats(Duration::ZERO).expect("a local shard always answers");
        snap.serve.to_json()
    };
    let server = Server::new(shard.clone(), args.shard_id);
    let mut last_sample = std::time::Instant::now();
    server
        .run(&listener, || {
            if DRAIN.load(Ordering::SeqCst) {
                server.stop();
            }
            if let Some(b) = &bundle {
                if last_sample.elapsed() >= Duration::from_secs(1) {
                    last_sample = std::time::Instant::now();
                    b.stats_sample("periodic", &stats_json());
                }
            }
        })
        .unwrap_or_else(|e| die(&format!("accept on {actual}: {e}")));

    if let Some(b) = &bundle {
        b.stage("draining");
    }
    server.drain();
    if let ShardAddr::Unix(path) = &actual {
        let _ = std::fs::remove_file(path);
    }
    if let Some(b) = &bundle {
        b.finish(Some(&stats_json()));
    }
}
