//! The seeded workload generator. It owns its random stream (no crate of
//! the repository is involved), so the same `--seed` gives the same
//! sequence on every commit; the program under test sees only the requests.
//!
//! The seed chooses the *order and mix* of operations. The set of distinct
//! frames an operation can ask for (the catalogue: scenes × views × kinds)
//! is fixed, so the metrics that repeat exactly — `psnr_db`, the simulated
//! chip metrics, the `core.*` counts — are the same for every seed and a
//! change in them is a change in the program.

/// SplitMix64: tiny, well mixed, and frozen here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias at these sizes is below
    /// 2⁻⁶⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Scenes of the render workloads: a hard-surface object, a mostly empty
/// frame, and a volume with no surfaces at all.
pub const RENDER_SCENES: [&str; 3] = ["Lego", "Mic", "Cloud"];

/// Orbit azimuth offsets (degrees from the scene's standard view) of the
/// render workloads' eight views.
pub const RENDER_AZIMUTHS: [f32; 8] = [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0];

/// One frame of a render workload: indices into [`RENDER_SCENES`] and
/// [`RENDER_AZIMUTHS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct View {
    pub scene: usize,
    pub azimuth: usize,
}

/// The render workloads' frame order: scenes cycle (so consecutive frames
/// never share a model), and each scene visits its eight views in a seeded
/// order. The cycle of 24 repeats for as long as the window lasts.
pub fn render_cycle(seed: u64) -> Vec<View> {
    let mut rng = Rng::new(seed ^ 0x52454E44);
    let orders: Vec<Vec<usize>> = RENDER_SCENES
        .iter()
        .map(|_| {
            let mut order: Vec<usize> = (0..RENDER_AZIMUTHS.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    (0..RENDER_AZIMUTHS.len())
        .flat_map(|round| (0..RENDER_SCENES.len()).map(move |scene| (scene, round)))
        .map(|(scene, round)| View { scene, azimuth: orders[scene][round] })
        .collect()
}

/// Scenes of the serving workloads, most popular first.
pub const SERVE_SCENES: [&str; 6] = ["Lego", "Mic", "Cloud", "Pulse", "Chair", "Ship"];

/// Zipf exponent of scene popularity.
pub const ZIPF_S: f64 = 1.1;

/// Azimuth offsets of the serving workloads' three views per scene.
pub const SERVE_AZIMUTHS: [f32; 3] = [0.0, 120.0, 240.0];

/// Frames in a sequence request.
pub const SEQUENCE_FRAMES: usize = 4;
/// Share of requests that are sequences.
pub const SEQUENCE_SHARE: f64 = 0.30;
/// Share of requests submitted at high priority.
pub const HIGH_PRIORITY_SHARE: f64 = 0.20;
/// Requests in an epoch of the stream (see [`RequestStream`]).
pub const EPOCH: usize = 80;

/// One serving request, as indices into the tables above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestSpec {
    pub scene: usize,
    pub view: usize,
    /// 1 for a single frame, [`SEQUENCE_FRAMES`] for a sequence.
    pub frames: usize,
    pub high_priority: bool,
}

impl RequestSpec {
    /// Index of the request's images in [`serve_catalogue`]. Priority
    /// changes scheduling, never pixels.
    pub fn shape(&self) -> usize {
        let kind = usize::from(self.frames > 1);
        (self.scene * SERVE_AZIMUTHS.len() + self.view) * 2 + kind
    }
}

/// Every distinct (scene, view, kind) a serving request can ask for, in
/// [`RequestSpec::shape`] order.
pub fn serve_catalogue() -> Vec<RequestSpec> {
    let mut all = Vec::new();
    for scene in 0..SERVE_SCENES.len() {
        for view in 0..SERVE_AZIMUTHS.len() {
            for frames in [1, SEQUENCE_FRAMES] {
                all.push(RequestSpec { scene, view, frames, high_priority: false });
            }
        }
    }
    all
}

/// Splits `total` over `weights` in proportion, by largest remainder, so
/// the parts are whole and sum to `total`.
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut parts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - parts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        parts[i] += 1;
    }
    parts
}

/// Requests in a block of the serving workloads: the closed loop drains
/// between blocks, so a block is a small experiment of its own.
pub const BLOCK: usize = 8;

/// One epoch's requests as (scene, frames, high priority), in blocks of
/// [`BLOCK`]: scenes in exact Zipf([`ZIPF_S`]) proportion,
/// [`SEQUENCE_SHARE`] of each scene's requests sequences,
/// [`HIGH_PRIORITY_SHARE`] high priority, dealt into blocks once, from a
/// constant, and the same on every run.
fn epoch_layout() -> Vec<Vec<(usize, usize, bool)>> {
    let weights: Vec<f64> =
        (1..=SERVE_SCENES.len()).map(|rank| (rank as f64).powf(-ZIPF_S)).collect();
    let per_scene = apportion(EPOCH, &weights);
    let sequences = (EPOCH as f64 * SEQUENCE_SHARE).round() as usize;
    let weights: Vec<f64> = per_scene.iter().map(|&n| n as f64).collect();
    let sequences_per_scene = apportion(sequences, &weights);
    let high = (EPOCH as f64 * HIGH_PRIORITY_SHARE).round() as usize;
    let mut rng = Rng::new(0x4C41_594F_5554);
    let mut priorities: Vec<bool> = (0..EPOCH).map(|i| i < high).collect();
    rng.shuffle(&mut priorities);
    let mut requests = Vec::with_capacity(EPOCH);
    for (scene, (&n, &seq)) in per_scene.iter().zip(&sequences_per_scene).enumerate() {
        requests.extend((0..n).map(|i| (scene, if i < seq { SEQUENCE_FRAMES } else { 1 })));
    }
    rng.shuffle(&mut requests);
    let requests: Vec<(usize, usize, bool)> =
        requests.into_iter().zip(priorities).map(|((s, f), h)| (s, f, h)).collect();
    requests.chunks(BLOCK).map(<[_]>::to_vec).collect()
}

/// The serving workloads' endless request stream, dealt in epochs of
/// [`EPOCH`] requests. Every epoch holds the same blocks
/// ([`epoch_layout`]); the seed chooses the order the blocks come in and
/// the views they look from.
///
/// Why so little is left to the seed: a request's latency in a closed loop
/// is set by what it queues behind, so the latency distribution is broad
/// (p25 40 ms, p50 62 ms, p75 95 ms) and the median of 600 independent
/// draws from it wanders ±4 % between seeds — more than the 6 % bound can
/// carry. With the blocks fixed, every run measures the same queueing
/// situations the same number of times, and what differs between runs is
/// the host and the program. The order of blocks still changes which
/// scenes the store has just evicted, which is the part of the input the
/// scheduler and the store are sensitive to.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: Rng,
    layout: Vec<Vec<(usize, usize, bool)>>,
    /// The rest of the current epoch, last first.
    dealt: Vec<RequestSpec>,
}

impl RequestStream {
    pub fn new(seed: u64) -> Self {
        RequestStream {
            rng: Rng::new(seed ^ 0x5345_5256),
            layout: epoch_layout(),
            dealt: Vec::new(),
        }
    }

    fn deal(&mut self) {
        let mut order: Vec<usize> = (0..self.layout.len()).collect();
        self.rng.shuffle(&mut order);
        let first_view = self.rng.below(SERVE_AZIMUTHS.len());
        self.dealt = order
            .iter()
            .flat_map(|&b| &self.layout[b])
            .enumerate()
            .map(|(i, &(scene, frames, high_priority))| RequestSpec {
                scene,
                view: (first_view + i) % SERVE_AZIMUTHS.len(),
                frames,
                high_priority,
            })
            .collect();
        self.dealt.reverse();
    }
}

impl Iterator for RequestStream {
    type Item = RequestSpec;

    fn next(&mut self) -> Option<RequestSpec> {
        if self.dealt.is_empty() {
            self.deal();
        }
        self.dealt.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a: Vec<_> = RequestStream::new(7).take(500).collect();
        let b: Vec<_> = RequestStream::new(7).take(500).collect();
        let c: Vec<_> = RequestStream::new(8).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(render_cycle(3), render_cycle(3));
        assert_ne!(render_cycle(3), render_cycle(4));
    }

    #[test]
    fn the_stream_is_frozen() {
        // a change to the generator silently changes every later result
        let first: Vec<_> =
            RequestStream::new(1).take(4).map(|r| (r.scene, r.view, r.frames)).collect();
        assert_eq!(first, FROZEN_HEAD);
        assert_eq!(Rng::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }
    const FROZEN_HEAD: [(usize, usize, usize); 4] = [(0, 2, 1), (1, 0, 4), (4, 1, 1), (2, 2, 1)];

    #[test]
    fn every_epoch_holds_the_stated_mix_exactly() {
        let mut stream = RequestStream::new(11);
        let mut first: Option<Vec<RequestSpec>> = None;
        for _ in 0..5 {
            let epoch: Vec<_> = stream.by_ref().take(EPOCH).collect();
            let count = |f: &dyn Fn(&RequestSpec) -> bool| epoch.iter().filter(|r| f(r)).count();
            assert_eq!(count(&|r| r.frames > 1), 24);
            assert_eq!(count(&|r| r.high_priority), 16);
            // Zipf(1.1) over six ranks of 80: 34.9, 16.3, 10.4, 7.6, 5.9, 4.9
            let per_scene: Vec<usize> =
                (0..SERVE_SCENES.len()).map(|s| count(&|r| r.scene == s)).collect();
            assert_eq!(per_scene, [35, 16, 10, 8, 6, 5]);
            let sequences: Vec<usize> =
                (0..SERVE_SCENES.len()).map(|s| count(&|r| r.scene == s && r.frames > 1)).collect();
            assert_eq!(sequences, [11, 5, 3, 2, 2, 1]);
            for view in 0..SERVE_AZIMUTHS.len() {
                assert!((26..=27).contains(&count(&|r| r.view == view)));
            }
            // the same blocks, in another order
            let mut blocks: Vec<Vec<_>> = epoch
                .chunks(BLOCK)
                .map(|b| b.iter().map(|r| (r.scene, r.frames, r.high_priority)).collect())
                .collect();
            assert_ne!(blocks, epoch_layout());
            blocks.sort_unstable();
            let mut layout = epoch_layout();
            layout.sort_unstable();
            assert_eq!(blocks, layout);
            match &first {
                None => first = Some(epoch),
                Some(f) => assert_ne!(&epoch, f),
            }
        }
    }

    #[test]
    fn apportion_gives_whole_parts_that_sum() {
        assert_eq!(apportion(10, &[1.0, 1.0, 1.0]), [4, 3, 3]);
        assert_eq!(apportion(0, &[2.0, 1.0]), [0, 0]);
        assert_eq!(apportion(7, &[0.5, 0.25, 0.25]).iter().sum::<usize>(), 7);
    }

    #[test]
    fn the_catalogue_is_indexed_by_shape() {
        for (i, spec) in serve_catalogue().iter().enumerate() {
            assert_eq!(spec.shape(), i);
        }
    }

    #[test]
    fn a_render_cycle_visits_every_view_once_and_alternates_scenes() {
        let cycle = render_cycle(5);
        assert_eq!(cycle.len(), 24);
        let mut sorted = cycle.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 24);
        for (i, v) in cycle.iter().enumerate() {
            assert_eq!(v.scene, i % RENDER_SCENES.len());
        }
    }
}
