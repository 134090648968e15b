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
//! fleet's health checks and failover exist to absorb.

use asdr_cluster::{Listener, LocalShards, Server, Shard, ShardAddr};
use asdr_serve::flags::{die, open_bundle, value, ServiceFlags};
use std::io::{ErrorKind, Read as _, Write as _};
use std::os::fd::AsRawFd as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Duration;

/// How often a daemon with a bundle samples its stats into the timeline.
const SAMPLE_EVERY: Duration = Duration::from_secs(1);

/// The write end of the socket pair SIGTERM/SIGINT wake the watcher
/// thread through; -1 until installed.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_signal(_signum: i32) {
    extern "C" {
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    // SAFETY: `write` is declared as libc defines it, the buffer is one
    // static byte, and write(2) is async-signal-safe; a failed write (a
    // full buffer already holds a wake-up) needs no handling.
    unsafe {
        write(WAKE_FD.load(Ordering::SeqCst), b"!".as_ptr(), 1);
    }
}

/// Routes SIGTERM and SIGINT to a byte on `wake`, through the
/// always-linked libc `signal(2)` — no signal crate offline.
fn install_signal_handlers(wake: &UnixStream) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    WAKE_FD.store(wake.as_raw_fd(), Ordering::SeqCst);
    let handler = on_signal as *const () as usize;
    // SAFETY: `signal` is declared as libc defines it (a handler is a
    // pointer-sized value), both signal numbers are valid, and `on_signal`
    // only writes to a socket main keeps open until exit, which is
    // async-signal-safe.
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
    // a signal writes a byte into `signalled`; the watcher reads it from `watch`
    let (mut watch, signalled) = UnixStream::pair()
        .unwrap_or_else(|e| die(&format!("cannot open the signal socket pair: {e}")));
    install_signal_handlers(&signalled);

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
    watch
        .set_read_timeout(bundle.as_ref().map(|_| SAMPLE_EVERY))
        .unwrap_or_else(|e| die(&format!("cannot time the signal socket: {e}")));
    let served = std::thread::scope(|s| {
        // the watcher: a byte is a signal (or the accept loop's end) and
        // stops the server; a second without one is a bundle sample
        s.spawn(|| loop {
            match watch.read(&mut [0u8]) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if let Some(b) = &bundle {
                        b.stats_sample("periodic", &stats_json());
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => return server.stop(),
            }
        });
        let served = server.run(&listener);
        // however the server stopped, the watcher ends with it
        let _ = (&signalled).write_all(b"!");
        served
    });
    served.unwrap_or_else(|e| die(&format!("accept on {actual}: {e}")));

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
