//! Small shared CLI helpers for the workspace binaries.
//!
//! `asdr-serve`, `asdr-cluster`, and `asdr-trace` parse argv by hand (no
//! clap offline); this module keeps the shared pieces — fail-fast value
//! parsing, the trace-input flag trio (`--workload` / `--trace` /
//! `--synthetic`) with `--speed`/`--record`, the output trio (`--out` /
//! `--dump-images` / `--bundle`) and the per-request table, `TRACE_RESULT`
//! line and artifacts a replay writes through them — in one place so the
//! binaries hold only their own flags.

use crate::profile::RenderProfile;
use crate::store::{ModelStore, ModelStoreBuilder};
use crate::trace::replay::ReplayedRequest;
use crate::trace::{BinarySource, JsonlSource, ReplayDriver, SyntheticSource, TraceSource};
use asdr_math::Image;
use asdr_obs::Bundle;
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

/// Parses a positive finite float or dies naming the flag.
pub fn positive_f64(flag: &str, s: &str) -> f64 {
    s.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x > 0.0)
        .unwrap_or_else(|| die(&format!("{flag} needs a positive number")))
}

/// Which of the three [`TraceSource`] forms a replay reads from.
#[derive(Debug, Clone)]
pub enum TraceInput {
    /// `--workload FILE` — the JSON-lines workload format.
    Workload(PathBuf),
    /// `--trace FILE` — a binary trace (full or sampled).
    Trace(PathBuf),
    /// `--synthetic SPEC` — a seeded generator spec.
    Synthetic(String),
}

impl TraceInput {
    /// Opens the input as a boxed [`TraceSource`].
    ///
    /// # Errors
    ///
    /// Propagates the source's construction error (file, parse, or spec).
    pub fn open(&self) -> Result<Box<dyn TraceSource>, String> {
        Ok(match self {
            TraceInput::Workload(path) => Box::new(JsonlSource::from_file(path)?),
            TraceInput::Trace(path) => Box::new(BinarySource::from_file(path)?),
            TraceInput::Synthetic(spec) => Box::new(SyntheticSource::from_spec(spec)?),
        })
    }

    /// One-line description for the binaries' startup banner.
    pub fn describe(&self) -> String {
        match self {
            TraceInput::Workload(p) => format!("workload {}", p.display()),
            TraceInput::Trace(p) => format!("trace {}", p.display()),
            TraceInput::Synthetic(s) => format!("synthetic {s:?}"),
        }
    }
}

/// The replay flag set shared by `asdr-serve` and `asdr-cluster`:
/// one trace input plus `--speed` and `--record`.
#[derive(Debug, Default)]
pub struct ReplayFlags {
    /// The selected input, once one of the trio has been seen.
    pub input: Option<TraceInput>,
    /// `--speed FACTOR` time-warp (`None` = real time).
    pub speed: Option<f64>,
    /// `--record PATH` capture of admitted requests.
    pub record: Option<PathBuf>,
}

impl ReplayFlags {
    /// Tries to consume `argv[*i]` (and its value) as a replay flag;
    /// returns whether it did. Dies on a repeated or conflicting input.
    pub fn accept(&mut self, argv: &[String], i: &mut usize) -> bool {
        let set = |slot: &mut Option<TraceInput>, input: TraceInput| {
            if slot.is_some() {
                die("--workload, --trace, and --synthetic are mutually exclusive");
            }
            *slot = Some(input);
        };
        match argv[*i].as_str() {
            "--workload" => {
                set(&mut self.input, TraceInput::Workload(PathBuf::from(value(argv, i))));
            }
            "--trace" => set(&mut self.input, TraceInput::Trace(PathBuf::from(value(argv, i)))),
            "--synthetic" => set(&mut self.input, TraceInput::Synthetic(value(argv, i))),
            "--speed" => self.speed = Some(positive_f64("--speed", &value(argv, i))),
            "--record" => self.record = Some(PathBuf::from(value(argv, i))),
            _ => return false,
        }
        true
    }

    /// The input, or dies pointing at usage when none was given.
    pub fn input_or_usage(&self, usage: impl FnOnce()) -> TraceInput {
        self.input.clone().unwrap_or_else(|| {
            usage();
            die("one of --workload, --trace, or --synthetic is required");
        })
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
    /// returns whether it did. Dies on an unknown scale, a non-positive
    /// count, or both store flags.
    pub fn accept(&mut self, argv: &[String], i: &mut usize) -> bool {
        match argv[*i].as_str() {
            "--scale" => {
                let name = value(argv, i);
                self.profile = RenderProfile::parse(&name)
                    .unwrap_or_else(|| die(&format!("unknown scale {name:?}")));
                self.scale = name.to_ascii_lowercase();
            }
            "--workers" => self.workers = Some(positive_usize("--workers", &value(argv, i))),
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

/// Creates and activates a run bundle at `dir`, dying when it cannot. Its
/// `config.json` also names the MLP kernel this host runs (`"mlp_kernel"`),
/// which the caller cannot set: a process slower than its neighbour, or a
/// number recorded on another machine, is explained by what was written.
pub fn open_bundle(dir: &Path, kind: &str, config: &[(&str, String)]) -> Arc<Bundle> {
    let mut config = config.to_vec();
    config.push(("mlp_kernel", asdr_nerf::mlp::kernel_name().to_string()));
    let bundle = Bundle::create(dir, kind, &config)
        .unwrap_or_else(|e| die(&format!("cannot create bundle {}: {e}", dir.display())));
    bundle.activate();
    bundle
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
        self.measurements.push(
            req.window,
            req.deadlined,
            deadline_met == Some(false),
            images.len(),
        );
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
    pub fn finish(self, wall: Duration, plan: Option<&crate::trace::PlanMeta>, stats_json: &str) {
        println!("{}", self.measurements.trace_result_line(wall, plan).unwrap_or_else(|e| die(&e)));
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

/// Per-request observations collected while waiting on replayed tickets,
/// and the machine-readable `TRACE_RESULT` summary both binaries print.
#[derive(Debug, Default)]
struct ReplayMeasurements {
    items: Vec<(Option<usize>, bool, bool, usize)>,
}

impl ReplayMeasurements {
    /// Records one completed request.
    fn push(&mut self, window: Option<usize>, deadlined: bool, missed: bool, frames: usize) {
        self.items.push((window, deadlined, missed, frames));
    }

    /// The one-line `TRACE_RESULT {json}` summary: wall clock, measured
    /// miss rate, and — when the replay carried a sampled-trace plan —
    /// the weighted full-trace estimate with its error bars. Smoke jobs
    /// grep this line; `asdr-trace report` merges its JSON.
    ///
    /// # Errors
    ///
    /// Propagates [`weighted_estimate`](crate::trace::sample::weighted_estimate) mismatches.
    fn trace_result_line(
        &self,
        wall: std::time::Duration,
        plan: Option<&crate::trace::PlanMeta>,
    ) -> Result<String, String> {
        let deadlined = self.items.iter().filter(|m| m.1).count();
        let misses = self.items.iter().filter(|m| m.1 && m.2).count();
        let frames: usize = self.items.iter().map(|m| m.3).sum();
        let miss_rate = if deadlined > 0 { misses as f64 / deadlined as f64 } else { 0.0 };
        let mut json = format!(
            "{{\"wall_ms\": {}, \"requests\": {}, \"frames\": {}, \
             \"deadlined_requests\": {deadlined}, \"deadline_misses\": {misses}, \
             \"miss_rate\": {miss_rate:.6}",
            wall.as_millis(),
            self.items.len(),
            frames,
        );
        if let Some(plan) = plan {
            let obs = crate::trace::sample::collect_window_obs(plan, self.items.iter().copied());
            let est = crate::trace::sample::weighted_estimate(plan, &obs)?;
            json.push_str(&format!(
                ", \"est_miss_rate\": {:.6}, \"miss_err\": {:.6}, \
                 \"est_fps\": {:.4}, \"fps_err\": {:.4}, \
                 \"equivalent_ms\": {}, \"replayed_ms\": {}",
                est.est_miss_rate,
                est.miss_err,
                est.est_fps,
                est.fps_err,
                est.equivalent_ms,
                est.replayed_ms,
            ));
        }
        json.push('}');
        Ok(format!("TRACE_RESULT {json}"))
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
        let args = argv(&["--speed", "4", "--trace", "t.trace", "--record", "out.trace", "--x"]);
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
        assert!(matches!(flags.input, Some(TraceInput::Trace(_))));
        assert_eq!(flags.record.as_deref(), Some(Path::new("out.trace")));
    }

    #[test]
    fn trace_result_line_scans_back_as_metrics() {
        use crate::trace::{PlanMeta, PlanPick};
        let mut m = ReplayMeasurements::default();
        m.push(Some(0), true, false, 2);
        m.push(Some(1), true, true, 2);
        let wall = std::time::Duration::from_millis(120);
        let line = m.trace_result_line(wall, None).unwrap();
        assert!(line.starts_with("TRACE_RESULT {"), "{line}");
        assert!(line.contains("\"miss_rate\": 0.5"), "{line}");
        assert!(!line.contains("est_miss_rate"), "full runs carry no estimate: {line}");

        let plan = PlanMeta {
            window_ms: 1000,
            total_windows: 4,
            picks: vec![
                PlanPick { start_ms: 0, cluster_size: 2 },
                PlanPick { start_ms: 2000, cluster_size: 2 },
            ],
        };
        let line = m.trace_result_line(wall, Some(&plan)).unwrap();
        let metrics =
            crate::trace::report::scan_metrics(line.strip_prefix("TRACE_RESULT ").unwrap());
        assert_eq!(metrics.get("wall_ms"), Some(&120.0));
        assert_eq!(metrics.get("est_miss_rate"), Some(&0.5));
        assert_eq!(metrics.get("equivalent_ms"), Some(&4000.0));
        assert_eq!(metrics.get("replayed_ms"), Some(&2000.0));
        assert!(metrics.get("miss_err").unwrap() >= &0.05);
    }

    #[test]
    fn trace_input_opens_all_three_forms() {
        let dir = std::env::temp_dir().join(format!("asdr-flags-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wl = dir.join("w.jsonl");
        std::fs::write(&wl, "{\"scene\": \"Mic\"}\n").unwrap();
        let mut src = TraceInput::Workload(wl).open().unwrap();
        assert_eq!(src.next().unwrap().scene, "Mic");

        let tr = dir.join("t.trace");
        let mut synth =
            TraceInput::Synthetic("poisson:rate=5,duration=2s,seed=1".into()).open().unwrap();
        crate::trace::format::write_file(&tr, &crate::trace::source::drain(synth.as_mut()), None)
            .unwrap();
        assert!(TraceInput::Trace(tr).open().unwrap().next().is_some());
        assert!(TraceInput::Trace(dir.join("missing.trace")).open().is_err());
        assert!(TraceInput::Synthetic("bogus:".into()).open().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
