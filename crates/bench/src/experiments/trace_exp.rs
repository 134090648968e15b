//! The `trace` experiment: representative replay — a full synthetic
//! diurnal trace versus its SimPoint-style sampled reduction, replayed
//! through the same warm [`asdr_serve::RenderService`] (ROADMAP "trace
//! capture, compression, and representative replay").
//!
//! A seeded diurnal arrival process (trough-to-peak sinusoid with a
//! Zipf-skewed scene mix) is drained once into a concrete trace. The
//! *full* run replays every request through a 1-worker service at
//! [`SPEED`]× time warp; the *sampled* run clusters the trace's
//! fixed-size windows by (scene-mix, rate, resolution) fingerprint,
//! replays only the weighted medoid windows, and extrapolates the
//! full-trace miss rate with the 95% error bar of
//! [`asdr_serve::trace::weighted_estimate`]. The
//! report compares wall-clock (the compression the sampling buys) against
//! estimate error (what it costs): the measured full-trace miss rate must
//! land inside the sampled estimate's error bar. Both runs share one
//! pre-warmed in-memory store, so neither pays cold fits.

use crate::{fmt_x, print_header, print_row, Harness};
use asdr_scenes::SceneHandle;
use asdr_serve::trace::sample::collect_window_obs;
use asdr_serve::trace::source::drain;
use asdr_serve::trace::{format, sample_trace, Arrivals, Estimate, PlanMeta, SynthSpec};
use asdr_serve::{
    BinarySource, ModelStore, RenderProfile, RenderRequest, ReplayDriver, SyntheticSource,
};
use std::sync::Arc;
use std::time::Instant;

/// Simulated trace length, seconds.
pub const DURATION_S: u64 = 40;
/// Replay time warp: arrival offsets are divided by this.
pub const SPEED: f64 = 20.0;
/// Phase-sampling window, milliseconds of simulated time.
pub const WINDOW_MS: u64 = 4000;
/// Medoid windows kept by the sampling pass.
pub const CLUSTERS: usize = 3;
/// Diurnal trough arrival rate, requests per second.
const BASE_HZ: f64 = 0.5;
/// Diurnal peak arrival rate, requests per second.
const PEAK_HZ: f64 = 2.5;
/// Diurnal cycle length, seconds.
const PERIOD_S: f64 = 20.0;
/// Seed for both the generator and the medoid tie-break.
const SEED: u64 = 17;
/// Deadline as a multiple of the measured warm single-frame latency.
const DEADLINE_FACTOR: f64 = 2.5;

/// One replay's measured outcome.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Requests replayed.
    pub requests: u64,
    /// Frames rendered.
    pub frames: u64,
    /// Requests that missed their deadline.
    pub misses: u64,
    /// Wall-clock from first submission to last completion, milliseconds.
    pub wall_ms: f64,
    /// Cumulative fits on the shared store at shutdown — stays at the
    /// warm-up count when the replay itself fits nothing.
    pub fits: u64,
}

impl TraceRun {
    /// Deadline-miss rate of the run (every request carries a deadline).
    pub fn miss_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.misses as f64 / self.requests as f64
    }
}

/// The full-vs-sampled comparison.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Scene names in the mix.
    pub scenes: Vec<String>,
    /// Calibrated per-request deadline, milliseconds.
    pub deadline_ms: u64,
    /// The sampling plan (window size, kept medoids, cluster weights).
    pub plan: PlanMeta,
    /// Extrapolated full-trace estimate from the sampled run.
    pub estimate: Estimate,
    /// Every request replayed.
    pub full: TraceRun,
    /// Only the weighted medoid windows replayed.
    pub sampled: TraceRun,
}

impl TraceReport {
    /// Wall-clock compression the sampled replay achieves.
    pub fn compression(&self) -> f64 {
        self.full.wall_ms / self.sampled.wall_ms.max(1e-9)
    }

    /// Absolute gap between the measured full-trace miss rate and the
    /// sampled estimate.
    pub fn estimate_error(&self) -> f64 {
        (self.full.miss_rate() - self.estimate.est_miss_rate).abs()
    }

    /// Whether the full-trace miss rate lands inside the estimate's
    /// error bar — the representativeness claim of the sampling.
    pub fn within_error_bars(&self) -> bool {
        self.estimate_error() <= self.estimate.miss_err
    }
}

/// Runs the comparison; see the module docs.
///
/// # Panics
///
/// Panics if `scenes` is empty.
pub fn run_trace(h: &mut Harness, scenes: &[SceneHandle]) -> TraceReport {
    assert!(!scenes.is_empty(), "trace experiment needs at least one scene");
    let profile = RenderProfile {
        grid: h.scale().grid(),
        base_ns: h.scale().base_ns(),
        default_resolution: h.scale().resolution(),
    };
    let resolution = profile.default_resolution;
    // one pre-warmed store for every run: the comparison measures replay,
    // not cold fits
    let store = Arc::new(ModelStore::builder().in_memory_only().build());
    for s in scenes {
        store.get_or_fit(s, &profile.grid);
    }

    // calibrate the deadline against a measured warm single-frame latency
    let single_ms = {
        let service = service(&profile, &store, 4);
        let t0 = Instant::now();
        service
            .submit(RenderRequest::frame(scenes[0].clone(), resolution))
            .expect("queue sized for one request")
            .wait()
            .expect("calibration render");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        service.shutdown();
        ms
    };
    let deadline_ms = ((single_ms * DEADLINE_FACTOR).max(1.0)).round() as u64;

    let spec = SynthSpec {
        arrivals: Arrivals::Diurnal { base_hz: BASE_HZ, peak_hz: PEAK_HZ, period_s: PERIOD_S },
        scenes: scenes.iter().map(|s| s.name().to_string()).collect(),
        zipf_s: 1.0,
        duration_ms: DURATION_S * 1000,
        seed: SEED,
        resolution: Some(resolution),
        frames: 1,
        deadline_ms: Some(deadline_ms),
    };
    let entries = drain(&mut SyntheticSource::new(spec));
    assert!(!entries.is_empty(), "the diurnal spec generates arrivals");
    let sampled =
        sample_trace(&entries, WINDOW_MS, CLUSTERS, SEED).expect("non-empty trace samples");
    let driver = ReplayDriver::new(profile.clone()).speed(SPEED);

    // full replay: every request, time-warped
    let queue = entries.len().max(sampled.entries.len()) + 1;
    let (full, _) = replay(&driver, &profile, &store, queue, &mut entries.clone().into_iter());

    // sampled replay: the medoid windows, re-based onto the compressed
    // clock by the same BinarySource path the binaries use
    let bytes = format::encode(&sampled.entries, Some(&sampled.plan));
    let mut source = BinarySource::from_bytes(&bytes).expect("just-encoded trace decodes");
    let (sampled_run, measurements) = replay(&driver, &profile, &store, queue, &mut source);
    let obs = collect_window_obs(&sampled.plan, measurements);
    let estimate =
        asdr_serve::trace::weighted_estimate(&sampled.plan, &obs).expect("one obs per pick");

    TraceReport {
        scenes: scenes.iter().map(|s| s.name().to_string()).collect(),
        deadline_ms,
        plan: sampled.plan,
        estimate,
        full,
        sampled: sampled_run,
    }
}

fn service(
    profile: &RenderProfile,
    store: &Arc<ModelStore>,
    queue: usize,
) -> asdr_serve::RenderService {
    asdr_serve::RenderService::builder(profile.clone())
        .store(store.clone())
        .workers(1)
        .queue_capacity(queue)
        .build()
        .expect("valid serve profile")
}

/// Per-request `(window, deadlined, missed, frames)` measurement rows
/// in the shape [`collect_window_obs`] consumes.
type Measurements = Vec<(Option<usize>, bool, bool, usize)>;

/// Replays one source through a fresh 1-worker service, returning the
/// run's outcome plus the per-request measurements.
fn replay(
    driver: &ReplayDriver,
    profile: &RenderProfile,
    store: &Arc<ModelStore>,
    queue: usize,
    source: &mut (impl asdr_serve::TraceSource + ?Sized),
) -> (TraceRun, Measurements) {
    let svc = service(profile, store, queue);
    let run = driver.run(source, &svc).expect("replay against a healthy service");
    let mut measurements = Vec::with_capacity(run.requests.len());
    let mut misses = 0u64;
    for req in &run.requests {
        let r = req.ticket.wait().expect("render worker healthy");
        let missed = r.deadline_met == Some(false);
        misses += u64::from(missed);
        measurements.push((req.window, req.deadlined, missed, r.images.len()));
    }
    let wall_ms = run.started.elapsed().as_secs_f64() * 1e3;
    let stats = svc.shutdown();
    (
        TraceRun {
            requests: stats.requests,
            frames: stats.frames,
            misses,
            wall_ms,
            fits: stats.store.fits,
        },
        measurements,
    )
}

/// Prints the comparison report.
pub fn print_trace(r: &TraceReport) {
    println!(
        "\nTrace: diurnal {BASE_HZ}-{PEAK_HZ} Hz over {DURATION_S}s, {} scenes ({}), deadline {} ms, {}x warp",
        r.scenes.len(),
        r.scenes.join(", "),
        r.deadline_ms,
        SPEED,
    );
    println!(
        "sampling: {} windows of {} ms -> {} medoids ({} of {} ms replayed)",
        r.plan.total_windows,
        r.plan.window_ms,
        r.plan.picks.len(),
        r.estimate.replayed_ms,
        r.estimate.equivalent_ms,
    );
    print_header(&["Replay", "requests", "frames", "miss rate", "wall ms"]);
    for (label, run) in [("full trace", &r.full), ("sampled medoids", &r.sampled)] {
        print_row(&[
            label.into(),
            format!("{}", run.requests),
            format!("{}", run.frames),
            format!("{}/{} ({:.0}%)", run.misses, run.requests, run.miss_rate() * 100.0),
            format!("{:.0}", run.wall_ms),
        ]);
    }
    println!(
        "estimate: miss rate {:.3} +/- {:.3} (measured {:.3}, error {:.3} -> {})",
        r.estimate.est_miss_rate,
        r.estimate.miss_err,
        r.full.miss_rate(),
        r.estimate_error(),
        if r.within_error_bars() { "inside the error bar" } else { "OUTSIDE the error bar" },
    );
    println!(
        "compression: {} wall-clock ({:.0} -> {:.0} ms), fps estimate {:.2} +/- {:.2}",
        fmt_x(r.compression()),
        r.full.wall_ms,
        r.sampled.wall_ms,
        r.estimate.est_fps,
        r.estimate.fps_err,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use asdr_scenes::registry;

    /// The structure of a full-vs-sampled run. What the clock decides —
    /// `sampled.wall_ms < full.wall_ms` and the full miss rate landing
    /// inside the estimate's bar — is asserted by `scripts/trace_smoke.sh`
    /// at a scale where it holds; at this one a loaded host flips it.
    #[test]
    fn sampled_replay_drops_requests_and_fits_nothing() {
        let mut h = Harness::new(Scale::Tiny);
        let scenes = [registry::handle("Mic"), registry::handle("Lego")];
        let r = run_trace(&mut h, &scenes);
        assert!(r.full.requests > r.sampled.requests, "sampling must drop requests: {r:?}");
        assert!(r.sampled.requests > 0, "the medoid windows hold work: {r:?}");
        // the shared store's fit counter is cumulative: it must never move
        // past the warm-up fits (one per scene) in either replay
        assert_eq!(r.full.fits, scenes.len() as u64, "full replay must fit nothing: {r:?}");
        assert_eq!(r.sampled.fits, scenes.len() as u64, "sampled replay must fit nothing: {r:?}");
        assert_eq!(r.plan.picks.len(), CLUSTERS.min(r.plan.total_windows as usize));
        assert!(
            r.estimate.replayed_ms < r.estimate.equivalent_ms,
            "the plan must cover less simulated time than the trace: {:?}",
            r.plan
        );
        print_trace(&r); // shape-check the printer too
    }

    #[test]
    fn the_error_bar_is_closed_around_the_estimate() {
        let run = |requests, misses| TraceRun {
            requests,
            frames: requests,
            misses,
            wall_ms: 1.0,
            fits: 0,
        };
        let report = |full_misses, est_miss_rate, miss_err| TraceReport {
            scenes: vec!["Mic".into()],
            deadline_ms: 10,
            plan: PlanMeta { window_ms: 1000, total_windows: 4, picks: Vec::new() },
            estimate: Estimate {
                est_miss_rate,
                miss_err,
                est_fps: 1.0,
                fps_err: 0.0,
                equivalent_ms: 4000,
                replayed_ms: 1000,
            },
            full: run(100, full_misses),
            sampled: run(25, 0),
        };
        // measured 0.75 against 0.5 +/- 0.25 (all exact in binary): on the
        // edge counts as inside, on either side
        let edge = report(75, 0.5, 0.25);
        assert_eq!(edge.estimate_error(), 0.25);
        assert!(edge.within_error_bars());
        assert!(report(25, 0.5, 0.25).within_error_bars(), "the bar is two-sided");
        assert!(!report(76, 0.5, 0.25).within_error_bars());
        // the pair the flaky wall-clock assertion used to report
        let outside = report(97, 0.80, 0.142);
        assert!(!outside.within_error_bars(), "{:.3}", outside.estimate_error());
        assert!(report(0, 0.0, 0.05).within_error_bars(), "no misses anywhere");
        assert_eq!(run(0, 0).miss_rate(), 0.0, "an empty run has no rate to divide");
    }
}
