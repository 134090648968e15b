//! `asdr-cluster` — replays a workload file through a [`Fleet`] and
//! reports cluster statistics, or merges the run bundles a run wrote.
//!
//! ```text
//! asdr-cluster --workload FILE
//!              [--shards N | --remote (spawn:N | ADDR[,ADDR...])]
//!              [--scale tiny|small|paper]
//!              [--workers N]
//!              [--store-dir DIR | --no-store] [--queue N]
//!              [--speed X] [--record PATH]
//!              [--out STATS.json] [--dump-images DIR] [--bundle DIR]
//! asdr-cluster report --bundles DIR [--json] [--out FILE]
//! ```
//!
//! The shards are `--shards N` [`LocalShard`](asdr_cluster::LocalShard)s in
//! this process, or — with `--remote` — `asdr-shardd` daemons: `spawn:N`
//! launches N on Unix sockets, a comma-separated list attaches to running
//! ones. Everything after that choice is one path: the same router,
//! eviction and failover serve either kind, over `--workers N` per shard.
//!
//! With `--bundle DIR` the process writes its own diagnostic run bundle
//! to `DIR/cluster` (config snapshot, span capture, periodic stats
//! samples, final stats) and — under `--remote spawn:N` — hands each
//! spawned daemon `DIR/shard<i>` for its bundle, so one flag yields the
//! whole fleet's bundle tree for `asdr-cluster report --bundles DIR`, which
//! merges the [`asdr_obs`] bundles under `DIR` (`asdr-serve`'s too) into one
//! report: per-phase latency breakdown, cross-process `SPAN_JOIN` lines
//! (trace ids followed across failovers), and a
//! `MISS_ATTRIBUTION` line naming the dominant phase of every deadline
//! miss — markdown, or the JSON artifact with `--json`.
//!
//! The workload input is `asdr-serve`'s (see `asdr_serve::workload`); the
//! submit loop is the same shared [`ReplayDriver`](asdr_serve::ReplayDriver)
//! — an overloaded cluster blocks the replay clock rather than dropping
//! work, `--speed` warps arrival offsets, and `--record` captures every
//! admitted request as a workload file. The process waits for every
//! ticket, prints a per-request table (including which shard served it)
//! plus a machine-readable `TRACE_RESULT` line, and writes the
//! [`ClusterStats`](asdr_cluster::ClusterStats) JSON to `--out` — the
//! artifact the nightly `cluster-smoke` job uploads and greps for zero
//! duplicate fits (`"total_fits"` equals the workload's distinct scene
//! count cold, zero warm).

use asdr_cluster::{Fleet, FleetConfig, LocalShards, ShardAddr};
use asdr_serve::flags::{
    self, die, value, worker_count, OutputFlags, ReplayFlags, ReplayReport, ServiceFlags,
};
use asdr_serve::workload::read_workload;
use std::io::{BufRead as _, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Args {
    replay: ReplayFlags,
    output: OutputFlags,
    service: ServiceFlags,
    shards: Option<usize>,
    remote: Option<String>,
    /// `N` of `--remote spawn:N`, checked when the flag is read.
    spawn: Option<usize>,
}

impl Args {
    /// Workers per shard.
    fn workers(&self) -> usize {
        self.service.workers.unwrap_or(1)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: asdr-cluster --workload FILE\n\
         \u{20}                   [--shards N | --remote (spawn:N | ADDR[,ADDR...])]\n\
         \u{20}                   [--scale tiny|small|paper]\n\
         \u{20}                   [--workers N]\n\
         \u{20}                   [--store-dir DIR | --no-store] [--queue N]\n\
         \u{20}                   [--speed X] [--record PATH]\n\
         \u{20}                   [--out STATS.json] [--dump-images DIR] [--bundle DIR]\n\
         \u{20}      asdr-cluster report --bundles DIR [--json] [--out FILE]\n\
         \n\
         --remote runs the workload against asdr-shardd processes instead of\n\
         in-process shards: spawn:N launches N local daemons on Unix sockets;\n\
         a comma-separated list attaches to already-running shards\n\
         (unix:PATH or tcp:HOST:PORT). --shards, spawn:N and --workers\n\
         each take 1 to 256."
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let known = args.replay.accept(argv, &mut i)
            || args.output.accept(argv, &mut i)
            || args.service.accept(argv, &mut i);
        if !known {
            match argv[i].as_str() {
                "--shards" => {
                    args.shards = Some(worker_count("--shards", &value(argv, &mut i)));
                }
                "--remote" => {
                    let spec = value(argv, &mut i);
                    if let Some(n) = spec.strip_prefix("spawn:") {
                        args.spawn = Some(worker_count("--remote spawn:N", n));
                    }
                    args.remote = Some(spec);
                }
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

/// Launches `n` local `asdr-shardd` processes (the binary next to this
/// one) on Unix sockets in a fresh temp dir, waiting for each to accept.
fn spawn_shardds(n: usize, args: &Args) -> (Vec<Child>, Vec<ShardAddr>) {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("asdr-shardd")))
        .unwrap_or_else(|| die("cannot locate asdr-shardd next to asdr-cluster"));
    let dir = std::env::temp_dir().join(format!("asdr-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    let mut children = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for i in 0..n {
        let sock = dir.join(format!("shard{i}.sock"));
        let mut cmd = Command::new(&exe);
        cmd.arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .arg("--scale")
            .arg(&args.service.scale)
            .arg("--workers")
            .arg(args.workers().to_string())
            .arg("--queue")
            .arg(args.service.queue.to_string())
            .arg("--shard-id")
            .arg(i.to_string())
            .stdout(Stdio::piped());
        if let Some(bundle_root) = &args.output.bundle {
            // each daemon gets its own bundle dir under the shared root,
            // which is what the merged report walks
            cmd.arg("--bundle").arg(bundle_root.join(format!("shard{i}")));
        }
        if let Some(store) = &args.service.store_dir {
            cmd.arg("--store-dir").arg(store);
        } else if args.service.no_store {
            cmd.arg("--no-store");
        }
        let child =
            cmd.spawn().unwrap_or_else(|e| die(&format!("cannot spawn {}: {e}", exe.display())));
        children.push(child);
        addrs.push(ShardAddr::Unix(sock));
    }
    // readiness: a daemon prints its ready line once it is accepting; each
    // stdout is read on a thread of its own, so a hung one trips the deadline
    let failed = std::thread::scope(|s| {
        let (ready_tx, ready) = mpsc::channel();
        for (i, child) in children.iter_mut().enumerate() {
            let stdout = child.stdout.take().expect("stdout is piped");
            let ready_tx = ready_tx.clone();
            s.spawn(move || {
                let mut line = String::new();
                let _ = BufReader::new(stdout).read_line(&mut line);
                let _ = ready_tx.send((i, line));
            });
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let failed = (0..n).find_map(|_| {
            match ready.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((_, line)) if line.starts_with("SHARDD_READY ") => None,
                Ok((i, line)) => {
                    Some(format!("shard at {} did not come up: {:?}", addrs[i], line.trim()))
                }
                Err(_) => Some("a shard did not come up within 20 s".to_string()),
            }
        });
        if failed.is_some() {
            // never leave half a fleet running behind a failed start; the
            // kill also ends a reader still waiting for its line
            for child in &mut children {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        failed
    });
    if let Some(why) = failed {
        die(&why);
    }
    (children, addrs)
}

/// Builds the fleet the flags describe — local shards or remote ones —
/// returning the daemons it spawned and a description for the banner.
fn build_fleet(args: &Args) -> (Fleet, Vec<Child>, String) {
    let profile = &args.service.profile;
    let cfg = FleetConfig::default();
    let Some(spec) = &args.remote else {
        let shards = LocalShards {
            shards: args.shards.unwrap_or(2),
            workers: args.workers(),
            queue_capacity: args.service.queue,
            store: args.service.store(),
            ..LocalShards::new(profile.clone())
        };
        let shards = shards.build().unwrap_or_else(|e| die(&e));
        let fleet = Fleet::new(shards, profile, cfg).unwrap_or_else(|e| die(&e));
        return (fleet, Vec::new(), "in-process".to_string());
    };
    let (children, addrs) = match args.spawn {
        Some(n) => spawn_shardds(n, args),
        None => {
            let addrs = spec
                .split(',')
                .map(|s| ShardAddr::parse(s.trim()).unwrap_or_else(|e| die(&e)))
                .collect();
            (Vec::new(), addrs)
        }
    };
    let listed = addrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ");
    let fleet = Fleet::connect(addrs, profile.clone(), cfg).unwrap_or_else(|e| die(&e));
    (fleet, children, listed)
}

/// `report --bundles DIR [--json] [--out FILE]`: the merged span report
/// of every bundle under `DIR`, printed or written to `--out`.
fn report(argv: &[String]) {
    let (mut bundles, mut out, mut json) = (None, None::<PathBuf>, false);
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--bundles" => bundles = Some(PathBuf::from(value(argv, &mut i))),
            "--out" => out = Some(PathBuf::from(value(argv, &mut i))),
            "--json" => json = true,
            "-h" | "--help" => usage(),
            other => die(&format!("unknown argument {other:?} (see --help)")),
        }
        i += 1;
    }
    let root = bundles.unwrap_or_else(|| die("report needs --bundles DIR"));
    let (spans, skipped) = asdr_obs::report::load_bundles(&root).unwrap_or_else(|e| die(&e));
    let merged = asdr_obs::report::analyze(&spans, skipped);
    let text = if json { merged.to_json() } else { merged.to_markdown() };
    let Some(path) = out else { return print!("{text}") };
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &text)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
    println!(
        "bundle report ({} spans, {} traces, {} processes) written to {}",
        merged.spans,
        merged.traces,
        merged.processes.len(),
        path.display()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|cmd| cmd == "report") {
        return report(&argv[1..]);
    }
    let args = parse_args(&argv);
    let bundle = args.output.bundle.as_ref().map(|root| {
        let config = [
            ("scale", args.service.scale.clone()),
            ("shards", args.shards.unwrap_or(2).to_string()),
            ("workers", args.workers().to_string()),
            ("remote", args.remote.clone().unwrap_or_else(|| "in-process".to_string())),
        ];
        flags::open_bundle(&root.join("cluster"), "cluster", &config)
    });
    let workload = args.replay.workload.as_deref().expect("checked in parse_args");
    let entries = read_workload(workload).unwrap_or_else(|e| die(&e));
    if entries.is_empty() {
        die(&format!("{} holds no requests", workload.display()));
    }
    let (fleet, mut children, listed) = build_fleet(&args);
    println!(
        "# asdr-cluster: {} requests over {} shards ({listed}; {} workers/shard), store {}",
        entries.len(),
        fleet.shards(),
        args.workers(),
        args.service.store_label(),
    );

    let driver = args.replay.driver(args.service.profile.clone());
    if let Some(b) = &bundle {
        b.stage("replaying");
    }
    let replay = driver.run(&entries, &fleet);
    let replay = replay.unwrap_or_else(|e| die(&format!("{}: {e}", workload.display())));

    let mut report = ReplayReport::begin(&args.output, bundle.as_deref(), "shard");
    for req in &replay.requests {
        let r = req
            .ticket
            .wait()
            .unwrap_or_else(|e| die(&format!("request {} ({}): {e}", req.index, req.scene)));
        let waits_ms = (r.queue_wait_us as f64 / 1e3, r.latency_us as f64 / 1e3);
        report.row(req, &req.ticket.shard(), &r.images, waits_ms, r.deadline_met);
        report.sample(|| fleet.stats().to_json());
    }
    let wall = replay.started.elapsed();

    if let Some(b) = &bundle {
        b.stage("shutdown");
    }
    let stats = fleet.shutdown();
    println!(
        "\n{} requests, {} frames over {} shards ({} home, {} spilled, {} replications, {} rejected)",
        stats.requests(),
        stats.frames(),
        stats.shards.len(),
        stats.routed_home,
        stats.spilled,
        stats.fleet.replications,
        stats.rejected,
    );
    let fl = &stats.fleet;
    println!(
        "fleet: {} evictions, {} rejoins, {} failovers",
        fl.evictions, fl.rejoins, fl.failovers,
    );
    for s in &stats.shards {
        println!(
            "shard {}: {} workers, {} req, {:.2} fps, p50 {:.1} ms / p95 {:.1} ms, {} fits, {} disk hits",
            s.shard,
            s.workers,
            s.serve.requests,
            s.serve.throughput_fps,
            s.serve.p50_latency_ms,
            s.serve.p95_latency_ms,
            s.serve.store.fits,
            s.serve.store.disk_hits,
        );
    }
    println!(
        "fits: {} total ({} lock waits, {} lock steals) — cost model {:.0}% mean abs error over {} observations",
        stats.total_fits(),
        stats.lock_waits(),
        stats.lock_steals(),
        stats.cost.mean_abs_pct_error * 100.0,
        stats.cost.observations,
    );
    if stats.deadlined_requests() > 0 {
        println!(
            "deadlines: {}/{} missed ({:.0}%)",
            stats.deadline_misses(),
            stats.deadlined_requests(),
            stats.miss_rate() * 100.0
        );
    }
    report.finish(wall, &stats.to_json());

    // fleet.shutdown() asked the live daemons to drain; give each a moment
    // to exit on its own before forcing the issue. One the fleet evicted was
    // never asked (it may be hung), so it is killed at once.
    let live = fleet.live_shards();
    for (id, child) in children.iter_mut().enumerate() {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if live.contains(&id) && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
}
