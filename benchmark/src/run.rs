//! `asdr-benchmark run`: one workload, one seed, one window.

use crate::host::{self, Block, HostClock, Timed, Window, MAX_REF_DISAGREEMENT};
use crate::metrics::{WorkloadId, END_TO_END, PER_LAYER};
use crate::proc::{self, Fingerprint};
use crate::quality::ChipTotals;
use crate::reference::Reference;
use crate::spans::{self, Recorder};
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The window's readings average as many reference units as cost about a
/// tenth of a block: one beside a 20 ms adaptive frame, two beside a
/// 100 ms fixed frame, three beside a 190 ms block of eight requests.
fn window_units(workload: WorkloadId) -> usize {
    match workload {
        WorkloadId::RenderAdaptive => 1,
        WorkloadId::RenderFixed => 2,
        _ => 3,
    }
}
/// Reference units averaged into one reading around a one-off step.
const STEP_UNITS: usize = 3;
/// Valid set-up repeats whose median is `setup_s`.
pub const SETUP_REPEATS: usize = 5;
/// `latency_ms_p90` wants ten samples beyond it: the window runs on, up to
/// one and a half times `--seconds`, until the kept blocks hold this many.
pub const MIN_SAMPLES: usize = 100;
/// Fewer kept samples than this fail the run: the host ran the work at
/// under half its usual speed and the window measured next to nothing.
/// Between the two the run warns, because a benchmark that exits non-zero
/// when a neighbour wakes up tells a later change nothing.
pub const FLOOR_SAMPLES: usize = MIN_SAMPLES / 2;
/// Blocks run before the window opens, so caches and lazy set-up settle.
pub const WARMUP_BLOCKS: usize = 3;
/// `bench.limit_edge_share` above this is reported: the goodput limit sits
/// where small drift flips many samples. A warning, not a failure: a change
/// that slows the program moves the distribution towards the limit, and
/// that must read as worse goodput, not as a run without a result.
const MAX_LIMIT_EDGE_SHARE: f64 = 0.02;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

/// What every part of a run shares.
pub struct Ctx {
    pub args: RunArgs,
    pub reference: Reference,
    pub recorder: Recorder,
    /// Scratch space (checkpoints, sockets), removed when the run ends.
    /// Relative to the working directory, so socket paths stay short.
    pub workdir: PathBuf,
}

impl Ctx {
    /// Threads the workload keeps busy at once, which is how many the
    /// reference unit is timed on: `render_fixed` is sequential, the others
    /// run two render threads, two service workers or two one-worker
    /// daemons.
    pub fn threads(&self) -> usize {
        match self.args.workload {
            WorkloadId::RenderFixed => 1,
            _ => 2,
        }
    }

    /// The window's clock.
    pub fn clock<'a>(&'a self, daemons: &'a [u32]) -> HostClock<'a> {
        HostClock::new(&self.reference, self.threads(), window_units(self.args.workload), daemons)
    }

    /// A clock for single-threaded, one-off measurements: kernels, one
    /// request at a time, and set-up, whose fits and loads run on one
    /// thread wherever they run.
    pub fn clock_1(&self) -> HostClock<'_> {
        HostClock::new(&self.reference, 1, STEP_UNITS, &[])
    }

    /// Normalised milliseconds `f` takes: the first of up to three tries
    /// the host held still under, or the last try if it never did (a
    /// noisier number, not a missing one).
    pub fn normalised_ms<T>(&self, mut f: impl FnMut() -> T) -> f64 {
        let mut clock = self.clock_1();
        let mut last = 0.0;
        for _ in 0..3 {
            let (timed, _) = host::normalised_step(&mut clock, &mut f);
            last = timed.seconds * 1e3;
            if timed.steady {
                break;
            }
        }
        last
    }

    /// Median over `rounds` of the normalised nanoseconds per call of `f`,
    /// run `iters` times a round.
    pub fn ns_per_op(&self, rounds: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
        let per_round: Vec<f64> = (0..rounds)
            .map(|_| {
                self.normalised_ms(|| {
                    for i in 0..iters {
                        f(i);
                    }
                }) * 1e6
                    / iters as f64
            })
            .collect();
        stats::median(&per_round)
    }
}

/// Repeats a set-up until `repeats` of them ran on a steady host, giving up
/// after twice as many attempts. `once` builds the system from nothing and
/// returns its normalised time and the state it built; the last state is
/// the one the window runs on. `setup_s` is the median of the steady
/// repeats, or of every attempt when fewer than half the wanted number were
/// steady: a noisy host must widen the number, not take the run away.
pub fn repeat_setup<S>(
    repeats: usize,
    mut once: impl FnMut(usize) -> Result<(Timed, S), String>,
) -> Result<(Setup, S), String> {
    let mut attempts: Vec<Timed> = Vec::new();
    let mut state = None;
    while attempts.len() < 2 * repeats && attempts.iter().filter(|t| t.steady).count() < repeats {
        // the previous state (services, daemons) must be gone before the
        // next "from nothing" begins
        drop(state.take());
        let (timed, s) = once(attempts.len())?;
        state = Some(s);
        attempts.push(timed);
    }
    let steady: Vec<f64> = attempts.iter().filter_map(|t| t.steady_seconds()).collect();
    let unsteady = attempts.len() - steady.len();
    let used = if steady.len() * 2 >= repeats {
        steady
    } else {
        attempts.iter().map(|t| t.seconds).collect()
    };
    let setup = Setup { seconds: stats::median(&used), repeats: used, unsteady };
    Ok((setup, state.expect("repeats is at least one")))
}

/// `setup_s` and the repeats it is the median of.
pub struct Setup {
    pub seconds: f64,
    pub repeats: Vec<f64>,
    /// Attempts the host changed state under.
    pub unsteady: usize,
}

/// What a workload hands back for the common bookkeeping.
pub struct Measured {
    pub setup: Setup,
    pub blocks: Vec<Block>,
    pub psnr_db: f64,
    pub chip: ChipTotals,
    /// Daemon peak memory, MiB, read before they exited.
    pub daemon_rss_mb: f64,
    /// Measured per-layer metrics (traced run only).
    pub layers: Vec<(&'static str, f64)>,
    /// Correctness findings; any entry fails the run.
    pub problems: Vec<String>,
}

/// Stops the chain once `seconds` have passed and the blocks the window
/// will keep hold [`MIN_SAMPLES`] latencies, or at one and a half
/// times `seconds` whatever they hold (`render_fixed` fits 125 blocks in
/// 15 s on a quiet host, 80 on a disturbed one, a third of them dropped).
pub fn window_stop(seconds: f64) -> impl FnMut(f64, &[Block]) -> bool {
    move |elapsed_s, blocks| {
        if elapsed_s < seconds {
            return false;
        }
        Window::from_blocks(blocks).latencies_ms.len() >= MIN_SAMPLES || elapsed_s >= 1.5 * seconds
    }
}

pub struct RunResult {
    pub args: RunArgs,
    pub fingerprint: Fingerprint,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer name; `None` where this workload does not measure it.
    pub per_layer: Vec<(&'static str, Option<f64>)>,
    pub notes: Vec<String>,
    pub problems: Vec<String>,
}

/// Turns a workload's measurements into the result.
pub fn finish(ctx: &Ctx, m: Measured) -> RunResult {
    let args = &ctx.args;
    let def = args.workload.def();
    let mut problems = m.problems;
    let all = Window::from_blocks(&m.blocks);
    // end-to-end numbers never include a traced block
    let w = Window::from_blocks(m.blocks.iter().filter(|b| !b.traced));
    let lat = stats::sorted(&w.latencies_ms);
    let p50 = stats::percentile_sorted(&lat, 50.0);
    let p90 = stats::percentile_sorted(&lat, 90.0);
    let raw_p50 = stats::median(&w.raw_latencies_ms);
    let edge = w.limit_edge_share(def.limit_ms);

    // a traced run reports no percentile, and half its blocks are traced
    if !args.trace && lat.len() < FLOOR_SAMPLES {
        problems.push(format!("{} latency samples, fewer than {FLOOR_SAMPLES}", lat.len()));
    }
    if m.psnr_db.is_nan() || m.psnr_db < def.psnr_floor_db {
        problems.push(format!("psnr {:.2} dB below the {} dB floor", m.psnr_db, def.psnr_floor_db));
    }
    if all.failed > 0 || all.refused > 0 {
        problems.push(format!("{} failed and {} refused operations", all.failed, all.refused));
    }

    let frames = w.frames.max(1) as f64;
    let end_to_end = vec![
        ("setup_s", m.setup.seconds),
        ("latency_ms_p50", p50),
        ("latency_ms_p90", p90),
        ("frames_per_s", w.frames as f64 / w.work_s),
        ("goodput_rps", w.goodput_per_s(def.limit_ms)),
        ("cpu_ms_per_frame", w.cpu_ms / frames),
        ("peak_rss_mb", proc::peak_rss_mb(None) + m.daemon_rss_mb),
        ("psnr_db", m.psnr_db),
        ("sim_chip_fps", m.chip.fps()),
        ("sim_energy_mj_per_frame", m.chip.energy_mj_per_frame()),
    ];
    debug_assert!(end_to_end.iter().map(|e| e.0).eq(END_TO_END.iter().map(|e| e.name)));

    let mut layers: BTreeMap<&'static str, f64> = m.layers.into_iter().collect();
    if args.trace {
        let traced = Window::from_blocks(m.blocks.iter().filter(|b| b.traced));
        layers.insert(
            "bench.trace_overhead_pct",
            (traced.ms_per_frame() / w.ms_per_frame() - 1.0) * 100.0,
        );
        layers.insert("bench.host_factor_p50", stats::median(&all.host_factors));
        layers.insert("bench.host_factor_spread", all.host_factor_spread() * 100.0);
        layers.insert("bench.blocks", all.blocks as f64);
        layers.insert("bench.blocks_dropped", all.blocks_dropped as f64);
        layers.insert("bench.raw_latency_ms_p50", raw_p50);
        layers.insert("bench.limit_edge_share", edge * 100.0);
    }
    let per_layer: Vec<(&'static str, Option<f64>)> = PER_LAYER
        .iter()
        .map(|l| {
            let measured = layers.remove(l.name).filter(|_| l.on.contains(&args.workload));
            if args.trace && measured.is_none() && l.on.contains(&args.workload) {
                problems.push(format!("{} was not measured", l.name));
            }
            (l.name, measured)
        })
        .collect();

    // every operation sent, whether its block was kept or not
    let succeeded: u64 = m.blocks.iter().map(|b| b.work.latencies_ms.len() as u64).sum();
    let attempted = succeeded + all.failed + all.refused;
    let shape: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0]
        .iter()
        .map(|&p| format!("p{p:.0} {:.1}", stats::percentile_sorted(&lat, p)))
        .collect();
    let mut notes = vec![
        format!(
            "{} latency samples in {} blocks ({} dropped), {:.2} normalised s of work",
            lat.len(),
            all.blocks,
            all.blocks_dropped,
            w.work_s
        ),
        format!(
            "raw p50 {raw_p50:.3} ms beside normalised {p50:.3} ms; host factor p50 {:.3}, spread (p90-p10)/p50 {:.1} %",
            stats::median(&all.host_factors),
            all.host_factor_spread() * 100.0
        ),
        format!(
            "goodput limit {} ms (normalised); {:.2} % of samples within 10 % of it",
            def.limit_ms,
            edge * 100.0
        ),
        format!("normalised latency, ms: {}", shape.join(", ")),
        format!(
            "set-up: {} attempts on an unsteady host; setup_s is the median of, normalised s: {}",
            m.setup.unsteady,
            m.setup.repeats.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(", ")
        ),
        format!(
            "attempted {attempted} = succeeded {succeeded} + failed {} + refused {}",
            all.failed, all.refused
        ),
    ];
    if all.blocks_unstable > all.blocks_dropped {
        notes.push(format!(
            "WARNING: the readings around {} of {} blocks disagreed by more than {} %; the steadiest two thirds were kept",
            all.blocks_unstable,
            all.blocks,
            MAX_REF_DISAGREEMENT * 100.0
        ));
    }
    if !args.trace && lat.len() < MIN_SAMPLES {
        notes.push(format!(
            "WARNING: {} latency samples, fewer than the {MIN_SAMPLES} that put ten beyond p90",
            lat.len()
        ));
    }
    if edge > MAX_LIMIT_EDGE_SHARE {
        notes.push(format!(
            "WARNING: {:.1} % of samples lie within 10 % of the goodput limit; it no longer sits in a sparse tail",
            edge * 100.0
        ));
    }
    RunResult {
        args: args.clone(),
        fingerprint: Fingerprint::capture(),
        correct: problems.is_empty(),
        attempted,
        failed: all.failed + all.refused,
        end_to_end,
        per_layer,
        notes,
        problems,
    }
}

/// The listing of the benchmark's own spans, for a traced run.
pub fn span_listing(recorder: &Recorder) -> Vec<String> {
    spans::summary(&recorder.snapshot())
        .into_iter()
        .map(|(name, count, total_us, self_us)| {
            format!(
                "span {name:<28} x{count:<6} total {:>10.2} ms  self {:>10.2} ms",
                total_us / 1e3,
                self_us / 1e3
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(seconds: f64, steady: bool) -> Timed {
        Timed { seconds, steady }
    }

    #[test]
    fn set_up_repeats_until_enough_were_steady_and_falls_back_when_none_are() {
        // steady from the start: exactly `repeats` attempts, their median
        let (setup, last) =
            repeat_setup(3, |attempt| Ok((timed(1.0 + attempt as f64, true), attempt))).unwrap();
        assert_eq!((setup.seconds, setup.repeats.len(), setup.unsteady, last), (2.0, 3, 0, 2));
        // every other attempt unsteady: runs on until three were steady
        let (setup, last) = repeat_setup(3, |attempt| {
            Ok((timed(if attempt % 2 == 0 { 1.0 } else { 9.0 }, attempt % 2 == 0), attempt))
        })
        .unwrap();
        assert_eq!((setup.seconds, setup.repeats.len(), setup.unsteady, last), (1.0, 3, 2, 4));
        // never steady: twice the repeats, and the median of all of them
        let (setup, _) = repeat_setup(3, |attempt| Ok((timed(attempt as f64, false), ()))).unwrap();
        assert_eq!((setup.seconds, setup.repeats.len(), setup.unsteady), (2.5, 6, 6));
        // a set-up that cannot be built ends the run
        assert_eq!(repeat_setup(3, |_| Err::<(Timed, ()), _>("no".into())).err().unwrap(), "no");
    }
}
