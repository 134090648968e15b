//! Small shared CLI helpers for the workspace binaries.
//!
//! `asdr-serve` and `asdr-cluster` parse argv by hand (no
//! clap offline); this module keeps the shared pieces — fail-fast value
//! parsing, the replay trio (`--workload` / `--speed` / `--record`), the
//! output trio (`--out` / `--dump-images` / `--bundle`) and the
//! per-request table, `TRACE_RESULT` line and artifacts a replay writes
//! through them — in one place so the binaries hold only their own flags.

use crate::profile::RenderProfile;
use crate::store::{ModelStore, ModelStoreBuilder};
use crate::workload::{check_speed, ReplayDriver, ReplayedRequest};
use asdr_math::par::{parse_workers, MAX_WORKERS};
use asdr_math::Image;
use asdr_obs::{Bundle, JsonWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Prints `error: msg` and exits 2 — the binaries' failure contract.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Consumes the value following `argv[*i]`, advancing `i`; dies when the
/// flag is last.
pub fn value(argv: &[String], i: &mut usize) -> String {
    *i += 1;
    argv.get(*i).cloned().unwrap_or_else(|| die(&format!("{} needs a value", argv[*i - 1])))
}

/// Parses a positive integer or dies naming the flag.
pub fn positive_usize(flag: &str, s: &str) -> usize {
    s.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| die(&format!("{flag} needs a positive number")))
}

/// Parses a count of threads or processes to start — a whole number from 1
/// to [`MAX_WORKERS`] ([`parse_workers`]) — or dies naming the flag.
pub fn worker_count(flag: &str, s: &str) -> usize {
    parse_workers(s)
        .unwrap_or_else(|| die(&format!("{flag} needs a whole number from 1 to {MAX_WORKERS}")))
}

/// Parses a `--speed` factor, a number in
/// [`SPEEDS`](crate::workload::SPEEDS).
///
/// # Errors
///
/// A message naming the flag.
pub fn parse_speed(s: &str) -> Result<f64, String> {
    let speed = s.parse::<f64>().map_err(|_| format!("--speed needs a number, got {s:?}"))?;
    check_speed(speed).map(|()| speed)
}

/// The replay flag set shared by `asdr-serve` and `asdr-cluster`:
/// `--workload` plus `--speed` and `--record`.
#[derive(Debug, Default)]
pub struct ReplayFlags {
    /// `--workload FILE`: the JSON-lines requests to replay.
    pub workload: Option<PathBuf>,
    /// `--speed FACTOR` time-warp (`None` = real time).
    pub speed: Option<f64>,
    /// `--record PATH` capture of admitted requests, as a workload file.
    pub record: Option<PathBuf>,
}

impl ReplayFlags {
    /// Tries to consume `argv[*i]` (and its value) as a replay flag;
    /// returns whether it did.
    pub fn accept(&mut self, argv: &[String], i: &mut usize) -> bool {
        match argv[*i].as_str() {
            "--workload" => self.workload = Some(PathBuf::from(value(argv, i))),
            "--speed" => {
                self.speed = Some(parse_speed(&value(argv, i)).unwrap_or_else(|e| die(&e)))
            }
            "--record" => self.record = Some(PathBuf::from(value(argv, i))),
            _ => return false,
        }
        true
    }

    /// Builds the shared [`ReplayDriver`] these flags describe.
    pub fn driver(&self, profile: RenderProfile) -> ReplayDriver {
        ReplayDriver::new(profile).speed(self.speed.unwrap_or(1.0)).record(self.record.clone())
    }
}

/// The flags that size a service and place its store, shared by every
/// binary that builds one: `--scale`, `--workers`, `--queue`, and
/// `--store-dir` / `--no-store`.
#[derive(Debug)]
pub struct ServiceFlags {
    /// `--scale NAME`, resolved.
    pub profile: RenderProfile,
    /// `--scale NAME`, lowercased (for config snapshots and child processes).
    pub scale: String,
    /// `--workers N` (`None`: the binary's default).
    pub workers: Option<usize>,
    /// `--queue N`: admission-queue capacity.
    pub queue: usize,
    /// `--store-dir DIR`.
    pub store_dir: Option<PathBuf>,
    /// `--no-store`: in-memory only, whatever `ASDR_STORE_DIR` says.
    pub no_store: bool,
}

impl Default for ServiceFlags {
    fn default() -> Self {
        ServiceFlags {
            profile: RenderProfile::tiny(),
            scale: "tiny".to_string(),
            workers: None,
            queue: 64,
            store_dir: None,
            no_store: false,
        }
    }
}

impl ServiceFlags {
    /// Tries to consume `argv[*i]` (and its value) as a service flag;
    /// returns whether it did. Dies on an unknown scale, a worker count
    /// outside `1..=MAX_WORKERS`, a non-positive queue capacity, or both
    /// store flags.
    pub fn accept(&mut self, argv: &[String], i: &mut usize) -> bool {
        match argv[*i].as_str() {
            "--scale" => {
                let name = value(argv, i);
                self.profile = RenderProfile::parse(&name)
                    .unwrap_or_else(|| die(&format!("unknown scale {name:?}")));
                self.scale = name.to_ascii_lowercase();
            }
            "--workers" => self.workers = Some(worker_count("--workers", &value(argv, i))),
            "--queue" => self.queue = positive_usize("--queue", &value(argv, i)),
            "--store-dir" => self.store_dir = Some(PathBuf::from(value(argv, i))),
            "--no-store" => self.no_store = true,
            _ => return false,
        }
        if self.no_store && self.store_dir.is_some() {
            die("--no-store and --store-dir are mutually exclusive");
        }
        true
    }

    /// The store the flags place (unset: `ASDR_STORE_DIR` decides).
    pub fn store(&self) -> ModelStoreBuilder {
        match (&self.store_dir, self.no_store) {
            (Some(dir), _) => ModelStore::builder().dir(dir),
            (None, true) => ModelStore::builder().in_memory_only(),
            (None, false) => ModelStore::builder(),
        }
    }

    /// That placement in words, for banners and config snapshots.
    pub fn store_label(&self) -> String {
        match (&self.store_dir, self.no_store) {
            (Some(dir), _) => dir.display().to_string(),
            (None, true) => "in-memory".to_string(),
            (None, false) => "env".to_string(),
        }
    }
}

/// Where a replay's results go, shared by `asdr-serve` and `asdr-cluster`.
#[derive(Debug, Default)]
pub struct OutputFlags {
    /// `--out STATS.json`: the final statistics artifact.
    pub out: Option<PathBuf>,
    /// `--dump-images DIR`: every rendered frame as a PPM.
    pub dump_images: Option<PathBuf>,
    /// `--bundle DIR`: the diagnostic run bundle.
    pub bundle: Option<PathBuf>,
}

impl OutputFlags {
    /// Tries to consume `argv[*i]` (and its value) as an output flag;
    /// returns whether it did.
    pub fn accept(&mut self, argv: &[String], i: &mut usize) -> bool {
        let slot = match argv[*i].as_str() {
            "--out" => &mut self.out,
            "--dump-images" => &mut self.dump_images,
            "--bundle" => &mut self.bundle,
            _ => return false,
        };
        *slot = Some(PathBuf::from(value(argv, i)));
        true
    }
}

/// Creates the process's run bundle at `dir`, dying when it cannot. Its
/// `config.json` also names the kernel instantiation the MLP layers run on
/// this host (`"mlp_kernel"`; the encoder and the occupancy pass run the
/// same one, up to AVX2), which the caller cannot set: a process slower
/// than its neighbour, or a number recorded on another machine, is
/// explained by what was written.
pub fn open_bundle(dir: &Path, kind: &str, config: &[(&str, String)]) -> Arc<Bundle> {
    let mut config = config.to_vec();
    config.push(("mlp_kernel", asdr_nerf::kernel::kernel_name().to_string()));
    Bundle::create(dir, kind, &config)
        .unwrap_or_else(|e| die(&format!("cannot create bundle {}: {e}", dir.display())))
}

/// What a replay binary prints and writes while and after it waits on its
/// tickets: the per-request table, `--dump-images` frames, bundle stats
/// samples, the `TRACE_RESULT` line and the `--out` artifact.
#[derive(Debug)]
pub struct ReplayReport<'a> {
    output: &'a OutputFlags,
    bundle: Option<&'a Bundle>,
    measurements: ReplayMeasurements,
    last_sample: Instant,
}

impl<'a> ReplayReport<'a> {
    /// Prints the table header; `column` names the one column that is the
    /// binary's own.
    pub fn begin(output: &'a OutputFlags, bundle: Option<&'a Bundle>, column: &str) -> Self {
        println!("| req | scene | frames | {column} | queue ms | latency ms | deadline |");
        println!("|---|---|---|---|---|---|---|");
        ReplayReport {
            output,
            bundle,
            measurements: ReplayMeasurements::default(),
            last_sample: Instant::now(),
        }
    }

    /// Prints one completed request's row (`cell` fills the binary's own
    /// column; the waits are shard-side milliseconds) and dumps its frames.
    pub fn row<T>(
        &mut self,
        req: &ReplayedRequest<T>,
        cell: &dyn std::fmt::Display,
        images: &[Image],
        (queue_ms, latency_ms): (f64, f64),
        deadline_met: Option<bool>,
    ) {
        println!(
            "| {} | {} | {} | {cell} | {queue_ms:.1} | {latency_ms:.1} | {} |",
            req.index,
            req.scene,
            images.len(),
            match deadline_met {
                Some(true) => "met",
                Some(false) => "MISSED",
                None => "-",
            },
        );
        self.measurements.push(req.deadlined, deadline_met == Some(false), images.len());
        if let Some(dir) = &self.output.dump_images {
            dump_frames(dir, req.index, images);
        }
    }

    /// Samples `stats_json` into the bundle, at most once a second.
    pub fn sample(&mut self, stats_json: impl FnOnce() -> String) {
        if let Some(b) = self.bundle {
            if self.last_sample.elapsed() >= Duration::from_secs(1) {
                self.last_sample = Instant::now();
                b.stats_sample("replay", &stats_json());
            }
        }
    }

    /// Prints the `TRACE_RESULT` line, writes `stats_json` to `--out` and
    /// seals it into the bundle.
    pub fn finish(self, wall: Duration, stats_json: &str) {
        println!("{}", self.measurements.trace_result_line(wall));
        if let Some(out) = &self.output.out {
            if let Some(parent) = out.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::write(out, stats_json)
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));
            println!("stats written to {}", out.display());
        }
        if let Some(b) = self.bundle {
            b.finish(Some(stats_json));
        }
    }
}

/// Per-request counts collected while waiting on replayed tickets, and
/// the machine-readable `TRACE_RESULT` summary both binaries print.
#[derive(Debug, Default)]
struct ReplayMeasurements {
    requests: usize,
    frames: usize,
    deadlined: usize,
    misses: usize,
}

impl ReplayMeasurements {
    /// Records one completed request.
    fn push(&mut self, deadlined: bool, missed: bool, frames: usize) {
        self.requests += 1;
        self.frames += frames;
        self.deadlined += usize::from(deadlined);
        self.misses += usize::from(deadlined && missed);
    }

    /// The one-line `TRACE_RESULT {json}` summary: wall clock, request and
    /// frame counts, and the measured deadline-miss rate. Smoke jobs grep
    /// this line.
    fn trace_result_line(&self, wall: Duration) -> String {
        let miss_rate =
            if self.deadlined > 0 { self.misses as f64 / self.deadlined as f64 } else { 0.0 };
        let mut w = JsonWriter::new();
        w.obj();
        w.key("wall_ms").u64(wall.as_millis() as u64);
        w.key("requests").usize(self.requests);
        w.key("frames").usize(self.frames);
        w.key("deadlined_requests").usize(self.deadlined);
        w.key("deadline_misses").usize(self.misses);
        w.key("miss_rate").f64(miss_rate, 6);
        w.close_obj();
        format!("TRACE_RESULT {}", w.finish())
    }
}

/// Writes request `idx`'s frames as `reqNNN-fMM.ppm` under `dir`, dying
/// on I/O errors — the `--dump-images` contract both binaries share.
fn dump_frames(dir: &Path, idx: usize, images: &[Image]) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    for (f, image) in images.iter().enumerate() {
        let path = dir.join(format!("req{idx:03}-f{f:02}.ppm"));
        image
            .write_ppm(&path)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn replay_flags_consume_their_trio() {
        let mut flags = ReplayFlags::default();
        let args = argv(&["--speed", "4", "--workload", "w.jsonl", "--record", "out.jsonl", "--x"]);
        let mut i = 0;
        let mut taken = 0;
        while i < args.len() {
            if flags.accept(&args, &mut i) {
                taken += 1;
            }
            i += 1;
        }
        assert_eq!(taken, 3, "--x is left for the caller");
        assert_eq!(flags.speed, Some(4.0));
        assert_eq!(flags.workload.as_deref(), Some(Path::new("w.jsonl")));
        assert_eq!(flags.record.as_deref(), Some(Path::new("out.jsonl")));
    }

    /// Only parsed: nothing here replays, so no value can make a test sleep.
    #[test]
    fn speed_is_taken_inside_its_range_and_refused_outside_naming_the_flag() {
        let (slowest, fastest) = (*crate::workload::SPEEDS.start(), *crate::workload::SPEEDS.end());
        let below = f64::from_bits(slowest.to_bits() - 1);
        let above = f64::from_bits(fastest.to_bits() + 1);
        for taken in [slowest, fastest, 1.0] {
            assert_eq!(parse_speed(&taken.to_string()), Ok(taken));
        }
        for refused in [below, above, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, 1e-300]
        {
            let e = parse_speed(&refused.to_string()).unwrap_err();
            assert!(e.contains("--speed"), "{refused}: {e}");
        }
        for garbage in ["", "fast", "1x"] {
            assert!(parse_speed(garbage).unwrap_err().contains("--speed"), "{garbage:?}");
        }
    }

    #[test]
    fn replay_flags_leave_trace_to_the_caller() {
        // a workload is JSON lines only: `--trace FILE` is an unknown
        // argument the binaries die on, not a second input
        let mut flags = ReplayFlags::default();
        let args = argv(&["--trace", "t.trace"]);
        let mut i = 0;
        assert!(!flags.accept(&args, &mut i));
        assert_eq!(i, 0, "nothing consumed");
        assert!(flags.workload.is_none());
    }

    #[test]
    fn trace_result_line_is_one_flat_json_object() {
        let mut m = ReplayMeasurements::default();
        m.push(true, false, 2);
        m.push(true, true, 2);
        m.push(false, false, 1);
        let line = m.trace_result_line(Duration::from_millis(120));
        // byte for byte: the smoke scripts `sed` fields out of this line
        assert_eq!(
            line,
            "TRACE_RESULT {\"wall_ms\": 120, \"requests\": 3, \"frames\": 5, \
             \"deadlined_requests\": 2, \"deadline_misses\": 1, \"miss_rate\": 0.500000}"
        );
        let json = line.strip_prefix("TRACE_RESULT ").expect("prefixed line");
        let obj = asdr_obs::json::parse_flat_object(json).unwrap();
        let num = |k: &str| match obj.get(k) {
            Some(asdr_obs::json::Value::Num(n)) => *n,
            other => panic!("{k}: {other:?} in {line}"),
        };
        assert_eq!(num("wall_ms"), 120.0);
        assert_eq!(num("requests"), 3.0);
        assert_eq!(num("frames"), 5.0);
        assert_eq!(num("deadlined_requests"), 2.0);
        assert_eq!(num("deadline_misses"), 1.0);
        assert_eq!(num("miss_rate"), 0.5);
    }
}
