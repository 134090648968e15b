//! Host normalisation: the measured window is a chain
//! `ref · work · ref · work · ref …`, and every host-time sample of a work
//! block is divided by the block's host factor.
//!
//! On a shared VM the same instructions take 12.7 ms for ten seconds and
//! 16 ms for the next ten; a longer window only averages over whichever
//! plateaus it happened to meet. The reference unit on either side of a
//! block meets the same plateau as the block, so their quotient does not.

use crate::reference::{Reference, REF_NOMINAL_MS};
use crate::stats;
use std::time::Instant;

/// A block whose two reference readings disagree by more than this share is
/// dropped: the host changed state inside it and neither reading describes
/// it.
pub const MAX_REF_DISAGREEMENT: f64 = 0.15;

/// At most this share of a window's blocks is dropped. When more disagree
/// (two runs in twenty did, in a noisy spell of the recording machine) the
/// steadiest two thirds are kept and the run says so: a benchmark that
/// exits non-zero because a neighbour woke up tells a later change nothing,
/// while a noisier number still lands inside the metric's bound or shows up
/// as spread. A set-up with more than this share of unstable steps is
/// repeated instead.
pub const MAX_DROPPED_SHARE: f64 = 1.0 / 3.0;

/// What one work block did, in raw host time.
#[derive(Debug, Clone, Default)]
pub struct Work {
    /// Per-operation latency on the generator's clock, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Frames completed.
    pub frames: u64,
    /// Operations refused at admission.
    pub refused: u64,
    /// Operations that failed after admission (or returned wrong bytes).
    pub failed: u64,
}

/// One link of the chain: a work block and the reference units around it.
#[derive(Debug, Clone)]
pub struct Block {
    pub ref_before_ms: f64,
    pub ref_after_ms: f64,
    /// Wall-clock of the work, milliseconds.
    pub wall_ms: f64,
    /// Process CPU the work used (generator plus daemons), milliseconds.
    pub cpu_ms: f64,
    pub work: Work,
    /// Whether the benchmark's own spans were being recorded.
    pub traced: bool,
}

impl Block {
    /// The block's host factor: how much slower than nominal the host ran
    /// the reference around this block.
    pub fn host_factor(&self) -> f64 {
        (self.ref_before_ms + self.ref_after_ms) / 2.0 / REF_NOMINAL_MS
    }

    /// By how much the two reference readings disagree, as a share of the
    /// smaller.
    pub fn disagreement(&self) -> f64 {
        let (lo, hi) = if self.ref_before_ms < self.ref_after_ms {
            (self.ref_before_ms, self.ref_after_ms)
        } else {
            (self.ref_after_ms, self.ref_before_ms)
        };
        if lo > 0.0 {
            (hi - lo) / lo
        } else {
            f64::INFINITY
        }
    }

    /// Whether the two readings disagree too much to trust either.
    pub fn unstable(&self) -> bool {
        self.disagreement() > MAX_REF_DISAGREEMENT
    }
}

/// Which of `blocks` a window keeps: those whose readings agree within
/// [`MAX_REF_DISAGREEMENT`], or, if that would drop more than
/// [`MAX_DROPPED_SHARE`], the steadiest blocks up to that share.
pub fn kept<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> Vec<bool> {
    let disagreements: Vec<f64> = blocks.into_iter().map(Block::disagreement).collect();
    let may_drop = (disagreements.len() as f64 * MAX_DROPPED_SHARE).floor() as usize;
    let mut sorted = disagreements.clone();
    sorted.sort_by(f64::total_cmp);
    // the largest disagreement still kept if the cap binds
    let cap = sorted.get(sorted.len().saturating_sub(may_drop + 1)).copied().unwrap_or(0.0);
    let threshold = cap.max(MAX_REF_DISAGREEMENT);
    disagreements.iter().map(|&d| d <= threshold).collect()
}

/// Host-side readings the chain takes around each block.
pub trait Clock {
    /// Monotonic wall-clock, milliseconds.
    fn now_ms(&mut self) -> f64;
    /// Times one reference unit, milliseconds.
    fn reference_ms(&mut self) -> f64;
    /// Cumulative CPU of the measured processes, milliseconds.
    fn cpu_ms(&mut self) -> f64;
}

/// The real clock: the frozen kernel and the process CPU counters.
pub struct HostClock<'a> {
    pub reference: &'a Reference,
    /// Threads the reference unit is timed on (see [`Reference::timed_ms`]).
    pub threads: usize,
    /// Units averaged into one reading: more where a single step carries a
    /// whole metric (set-up), one where hundreds of blocks average anyway.
    pub units: usize,
    /// Daemon pids whose CPU is charged to the workload.
    pub daemons: &'a [u32],
    pub epoch: Instant,
}

impl<'a> HostClock<'a> {
    pub fn new(reference: &'a Reference, threads: usize, units: usize, daemons: &'a [u32]) -> Self {
        HostClock { reference, threads, units, daemons, epoch: Instant::now() }
    }
}

impl Clock for HostClock<'_> {
    fn now_ms(&mut self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }
    fn reference_ms(&mut self) -> f64 {
        (0..self.units).map(|_| self.reference.timed_ms(self.threads)).sum::<f64>()
            / self.units as f64
    }
    fn cpu_ms(&mut self) -> f64 {
        crate::proc::self_cpu_ms()
            + self.daemons.iter().map(|&pid| crate::proc::pid_cpu_ms(pid)).sum::<f64>()
    }
}

/// Runs the chain until `stop(elapsed_s, blocks)` says so. `work(i)` runs
/// block `i` and says whether it was traced.
pub fn run_chain(
    clock: &mut impl Clock,
    mut stop: impl FnMut(f64, &[Block]) -> bool,
    mut work: impl FnMut(usize) -> (Work, bool),
) -> Vec<Block> {
    let started_ms = clock.now_ms();
    let mut blocks: Vec<Block> = Vec::new();
    let mut ref_before_ms = clock.reference_ms();
    while !stop((clock.now_ms() - started_ms) / 1e3, &blocks) {
        let cpu0 = clock.cpu_ms();
        let t0 = clock.now_ms();
        let (work, traced) = work(blocks.len());
        let wall_ms = clock.now_ms() - t0;
        let cpu_ms = clock.cpu_ms() - cpu0;
        let ref_after_ms = clock.reference_ms();
        blocks.push(Block { ref_before_ms, ref_after_ms, wall_ms, cpu_ms, work, traced });
        ref_before_ms = ref_after_ms;
    }
    blocks
}

/// The window's host-time results, normalised.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub blocks: usize,
    pub blocks_dropped: usize,
    /// Blocks whose readings disagreed by more than
    /// [`MAX_REF_DISAGREEMENT`]; more than `blocks_dropped` when the cap
    /// bound.
    pub blocks_unstable: usize,
    /// Normalised per-operation latencies of the kept blocks.
    pub latencies_ms: Vec<f64>,
    /// Raw (un-normalised) latencies of the kept blocks.
    pub raw_latencies_ms: Vec<f64>,
    /// Σ block wall / host factor over kept blocks, seconds.
    pub work_s: f64,
    /// Σ block CPU / host factor over kept blocks, milliseconds.
    pub cpu_ms: f64,
    pub frames: u64,
    pub ops: u64,
    pub refused: u64,
    pub failed: u64,
    /// Host factors of the kept blocks.
    pub host_factors: Vec<f64>,
}

impl Window {
    /// Normalises `blocks`, dropping those [`kept`] does not keep. Refused
    /// and failed operations are counted from every block, kept or not: a
    /// failure is a fact about the program, not about the host.
    pub fn from_blocks<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> Window {
        let blocks: Vec<&Block> = blocks.into_iter().collect();
        let mut w = Window::default();
        for (b, keep) in blocks.iter().zip(kept(blocks.iter().copied())) {
            w.blocks += 1;
            w.refused += b.work.refused;
            w.failed += b.work.failed;
            w.blocks_unstable += usize::from(b.unstable());
            if !keep {
                w.blocks_dropped += 1;
                continue;
            }
            let h = b.host_factor();
            w.host_factors.push(h);
            w.work_s += b.wall_ms / h / 1e3;
            w.cpu_ms += b.cpu_ms / h;
            w.frames += b.work.frames;
            w.ops += b.work.latencies_ms.len() as u64;
            w.raw_latencies_ms.extend_from_slice(&b.work.latencies_ms);
            w.latencies_ms.extend(b.work.latencies_ms.iter().map(|l| l / h));
        }
        w
    }

    /// Operations that completed within `limit_ms` (normalised) per
    /// normalised second. Refused and failed operations produced no latency
    /// sample, so they are misses by construction.
    pub fn goodput_per_s(&self, limit_ms: f64) -> f64 {
        let met = self.latencies_ms.iter().filter(|&&l| l <= limit_ms).count();
        met as f64 / self.work_s
    }

    /// Share of samples within ±10 % of `limit_ms`: how much a small drift
    /// of the latency distribution would move goodput.
    pub fn limit_edge_share(&self, limit_ms: f64) -> f64 {
        let near = self
            .latencies_ms
            .iter()
            .filter(|&&l| l >= 0.9 * limit_ms && l <= 1.1 * limit_ms)
            .count();
        near as f64 / self.latencies_ms.len().max(1) as f64
    }

    /// Normalised wall-clock per frame, milliseconds. Steadier than a
    /// percentile when two halves of one window are compared.
    pub fn ms_per_frame(&self) -> f64 {
        self.work_s * 1e3 / self.frames.max(1) as f64
    }

    /// (p90 − p10) / p50 of the kept blocks' host factors.
    pub fn host_factor_spread(&self) -> f64 {
        let s = stats::sorted(&self.host_factors);
        let p50 = stats::percentile_sorted(&s, 50.0);
        if p50 == 0.0 {
            0.0
        } else {
            (stats::percentile_sorted(&s, 90.0) - stats::percentile_sorted(&s, 10.0)) / p50
        }
    }
}

/// The chain as a table, one block a line, raw host time.
pub fn blocks_tsv(blocks: &[Block]) -> String {
    let mut s = String::from(
        "ref_before_ms\tref_after_ms\twall_ms\tcpu_ms\tops\tframes\ttraced\tdropped\tlatencies_ms\n",
    );
    for (b, keep) in blocks.iter().zip(kept(blocks)) {
        s.push_str(&format!(
            "{:.4}\t{:.4}\t{:.4}\t{:.4}\t{}\t{}\t{}\t{}\t{}\n",
            b.ref_before_ms,
            b.ref_after_ms,
            b.wall_ms,
            b.cpu_ms,
            b.work.latencies_ms.len(),
            b.work.frames,
            u8::from(b.traced),
            u8::from(!keep),
            b.work.latencies_ms.iter().map(|l| format!("{l:.3}")).collect::<Vec<_>>().join(",")
        ));
    }
    s
}

/// Set-up, normalised the way the window is: a reference reading before
/// and after each step, each step's wall-clock divided by its own host
/// factor. The same dropping rule applies one level up: a set-up with more
/// than [`MAX_DROPPED_SHARE`] of its steps between disagreeing readings is
/// unsteady, and the run prefers another repeat to it.
pub struct Steps<'c, C: Clock> {
    clock: &'c mut C,
    ref_before_ms: f64,
    /// Normalised milliseconds of each step so far.
    pub step_ms: Vec<f64>,
    unstable: usize,
}

impl<'c, C: Clock> Steps<'c, C> {
    pub fn begin(clock: &'c mut C) -> Self {
        let ref_before_ms = clock.reference_ms();
        Steps { clock, ref_before_ms, step_ms: Vec::new(), unstable: 0 }
    }

    /// Runs one step between two readings.
    pub fn step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = self.clock.now_ms();
        let value = f();
        let wall_ms = self.clock.now_ms() - t0;
        let ref_after_ms = self.clock.reference_ms();
        let probe = Block {
            ref_before_ms: self.ref_before_ms,
            ref_after_ms,
            wall_ms,
            cpu_ms: 0.0,
            work: Work::default(),
            traced: false,
        };
        self.ref_before_ms = ref_after_ms;
        self.unstable += usize::from(probe.unstable());
        self.step_ms.push(wall_ms / probe.host_factor());
        value
    }

    /// Normalised seconds of all steps, and whether the host held still
    /// under enough of them.
    pub fn finish(self) -> Timed {
        let share = self.unstable as f64 / self.step_ms.len().max(1) as f64;
        Timed {
            seconds: self.step_ms.iter().sum::<f64>() / 1e3,
            steady: share <= MAX_DROPPED_SHARE,
        }
    }
}

/// A normalised duration and whether the readings around it agreed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub seconds: f64,
    pub steady: bool,
}

impl Timed {
    /// The duration, if the host held still under it.
    pub fn steady_seconds(self) -> Option<f64> {
        self.steady.then_some(self.seconds)
    }
}

/// Times `step` between two reference readings and returns its normalised
/// wall-clock, unsteady when the readings disagree (see
/// [`Block::unstable`]). The step's value is passed through.
pub fn normalised_step<T>(clock: &mut impl Clock, step: impl FnOnce() -> T) -> (Timed, T) {
    let mut steps = Steps::begin(clock);
    let value = steps.step(step);
    (steps.finish(), value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A synthetic host: the reference and the work both cost
    /// `factor(t) ×` their nominal time, and time advances only by what
    /// runs. The plateau makes the host slower for a stretch.
    struct FakeHost {
        now_ms: f64,
        plateau: (f64, f64),
        /// How much slower the plateau is.
        slow: f64,
    }

    impl FakeHost {
        fn spend(&mut self, nominal_ms: f64) -> f64 {
            let slow = self.now_ms >= self.plateau.0 && self.now_ms < self.plateau.1;
            let took = nominal_ms * if slow { self.slow } else { 1.0 };
            self.now_ms += took;
            took
        }
    }

    impl Clock for &RefCell<FakeHost> {
        fn now_ms(&mut self) -> f64 {
            self.borrow().now_ms
        }
        fn reference_ms(&mut self) -> f64 {
            self.borrow_mut().spend(REF_NOMINAL_MS)
        }
        /// Single-threaded and never idle: CPU time is wall time.
        fn cpu_ms(&mut self) -> f64 {
            self.borrow().now_ms
        }
    }

    fn synthetic_window(plateau: (f64, f64)) -> (Vec<Block>, Window) {
        let host = RefCell::new(FakeHost { now_ms: 0.0, plateau, slow: 1.15 });
        let blocks = run_chain(
            &mut &host,
            |_, blocks| blocks.len() >= 60,
            |_| {
                let took = host.borrow_mut().spend(40.0);
                (Work { latencies_ms: vec![took], frames: 1, ..Work::default() }, false)
            },
        );
        let window = Window::from_blocks(&blocks);
        (blocks, window)
    }

    #[test]
    fn a_plateau_moves_raw_latency_but_not_normalised_latency() {
        // blocks are 46.4 ms nominal: the plateau covers roughly 20 of 60
        let (_, w) = synthetic_window((1000.0, 2000.0));
        let raw = stats::sorted(&w.raw_latencies_ms);
        assert!((raw[0] - 40.0).abs() < 1e-9 && (raw[raw.len() - 1] - 46.0).abs() < 1e-9);
        assert!((stats::percentile_sorted(&raw, 75.0) - 46.0).abs() < 1e-9);
        // a block wholly on either side of an edge normalises exactly; the
        // two blocks that meet an edge see one slow and one fast unit
        let exact = w.latencies_ms.iter().filter(|&&l| (l - 40.0).abs() < 1e-9).count();
        assert_eq!(exact, w.latencies_ms.len() - 2);
        assert!(w.latencies_ms.iter().all(|l| (l / 40.0 - 1.0).abs() < 0.075));
        let sorted = stats::sorted(&w.latencies_ms);
        for p in [10.0, 50.0, 90.0] {
            assert!((stats::percentile_sorted(&sorted, p) - 40.0).abs() < 1e-9);
        }
        assert!((w.cpu_ms / w.frames as f64 / 40.0 - 1.0).abs() < 0.003);
        assert!((w.frames as f64 / w.work_s / 25.0 - 1.0).abs() < 0.003);
        assert!(w.host_factor_spread() > 0.1);
    }

    #[test]
    fn blocks_straddling_a_plateau_edge_keep_or_drop_by_the_15_percent_rule() {
        let (blocks, w) = synthetic_window((1000.0, 2000.0));
        // a 15 % step is exactly at the limit, so nothing is dropped …
        assert_eq!(w.blocks_dropped, 0);
        assert_eq!(w.blocks, blocks.len());
        // … and a step just beyond it is
        let mut edge = blocks[0].clone();
        edge.ref_after_ms = edge.ref_before_ms * 1.16;
        assert!(edge.unstable());
        edge.ref_after_ms = edge.ref_before_ms / 1.16;
        assert!(edge.unstable());
        edge.ref_after_ms = edge.ref_before_ms * 1.14;
        assert!(!edge.unstable());
        let w = Window::from_blocks([&blocks[0], &edge, &blocks[1]]);
        assert_eq!((w.blocks, w.blocks_dropped, w.ops), (3, 0, 3));
        edge.ref_after_ms = edge.ref_before_ms * 1.3;
        edge.work.failed = 1;
        let w = Window::from_blocks([&blocks[0], &edge, &blocks[1]]);
        assert_eq!((w.blocks, w.blocks_dropped, w.ops, w.failed), (3, 1, 2, 1));
    }

    #[test]
    fn at_most_a_third_is_dropped_and_the_steadiest_are_kept() {
        let (blocks, _) = synthetic_window((0.0, 0.0));
        let with_steps = |steps: &[f64]| -> Vec<Block> {
            steps
                .iter()
                .map(|&step| Block {
                    ref_after_ms: blocks[0].ref_before_ms * (1.0 + step),
                    ..blocks[0].clone()
                })
                .collect()
        };
        // two of six beyond 15 %: both go
        let six = with_steps(&[0.0, 0.3, 0.05, 0.2, 0.1, 0.02]);
        assert_eq!(kept(&six), [true, false, true, false, true, true]);
        // four of six beyond 15 %: only the two worst go, and the window says
        // how many disagreed
        let six = with_steps(&[0.0, 0.3, 0.5, 0.2, 0.16, 0.02]);
        assert_eq!(kept(&six), [true, false, false, true, true, true]);
        let w = Window::from_blocks(&six);
        assert_eq!((w.blocks, w.blocks_unstable, w.blocks_dropped, w.ops), (6, 4, 2, 4));
        assert_eq!(kept(&[]), Vec::<bool>::new());
        assert_eq!(kept(&with_steps(&[0.9])), [true]);
    }

    #[test]
    fn goodput_counts_only_operations_inside_the_limit() {
        let block = |lat: Vec<f64>| Block {
            ref_before_ms: REF_NOMINAL_MS,
            ref_after_ms: REF_NOMINAL_MS,
            wall_ms: 1000.0,
            cpu_ms: 0.0,
            work: Work { frames: lat.len() as u64, latencies_ms: lat, ..Work::default() },
            traced: false,
        };
        let blocks = [block(vec![10.0, 20.0, 95.0, 300.0]), block(vec![10.0, 105.0, 111.0, 89.0])];
        let w = Window::from_blocks(&blocks);
        assert_eq!(w.goodput_per_s(100.0), 2.5);
        assert_eq!(w.limit_edge_share(100.0), 2.0 / 8.0);
    }

    #[test]
    fn a_step_is_normalised_by_the_units_around_it() {
        let host = RefCell::new(FakeHost { now_ms: 0.0, plateau: (0.0, f64::MAX), slow: 1.15 });
        let (timed, value) = normalised_step(&mut &host, || {
            host.borrow_mut().spend(1000.0);
            7
        });
        assert_eq!(value, 7);
        // 1150 ms on a host running 1.15× slow is one nominal second
        assert!(timed.steady && (timed.seconds - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_set_up_survives_one_unstable_step_in_three_but_not_two() {
        // the plateau begins right after the second of three 100 ms steps
        let run = |plateau: (f64, f64), factor_steps: usize| {
            let host = RefCell::new(FakeHost { now_ms: 0.0, plateau, slow: 1.3 });
            let mut clock = &host;
            let mut steps = Steps::begin(&mut clock);
            for _ in 0..factor_steps {
                steps.step(|| host.borrow_mut().spend(100.0));
            }
            (steps.step_ms.clone(), steps.finish())
        };
        let (step_ms, timed) = run((150.0, f64::MAX), 3);
        // the step before the edge ran fast but its second reading is slow
        let want = [100.0, 100.0 / 1.15, 100.0];
        assert!(
            step_ms.iter().zip(want).all(|(got, want)| (got - want).abs() < 1e-9),
            "{step_ms:?}"
        );
        assert!(timed.steady, "one unstable step of three");
        assert!((timed.seconds - want.iter().sum::<f64>() / 1e3).abs() < 1e-9);
        // with the edge inside the first of two steps, half are unstable
        assert!(!run((50.0, f64::MAX), 2).1.steady);
    }
}
