//! The online render-cost model, which only reports.
//!
//! A shard's bounded queue treats a 16×16 single frame and a 96×96
//! six-frame orbit as the same unit of work. The [`CostModel`] predicts
//! each request's service time in milliseconds, keyed by **(scene name,
//! resolution)**, and `ClusterStats` reports how far off it was:
//!
//! * **Seeding.** An unseen key is predicted from its nominal probe-point
//!   count — `resolution² rays × base_ns samples` — times the nanoseconds
//!   per nominal sample this process has observed so far (an EWMA over
//!   every completion of every key; a measured constant stands in until
//!   the first one), so a new scene or resolution starts from what this
//!   machine and build actually cost, not from a number in the source.
//! * **Learning.** Every completion feeds the observed per-frame service
//!   time (latency minus queue wait) into an exponentially-weighted moving
//!   average for its key, so the model tracks the real machine, warm
//!   caches, and scene-specific sampling behavior.
//! * **Honesty.** Each observation first scores the *current* prediction
//!   against the actual; [`CostStats::mean_abs_pct_error`] reports the
//!   running mean absolute percentage error, the number `ClusterStats`
//!   surfaces as predicted-vs-actual.

use asdr_serve::RenderProfile;
use std::collections::HashMap;
use std::sync::Mutex;

/// EWMA smoothing factor: heavy enough to converge in a few observations,
/// light enough not to chase one noisy outlier.
const ALPHA: f64 = 0.3;

/// Nanoseconds per nominal probe sample assumed until the first
/// completion is observed: the median over six scenes (Lego, Mic, Ship,
/// Chair, Hotdog, Cloud) at 16², 24² and 48² of a sequential tiny-profile
/// frame, fastest of seven, on the 2-vCPU recording host (Xeon 2.10 GHz,
/// `mlp_kernel` = avx2), 2026-10-05: 74 (Mic) – 247 (Ship) ns. Adaptive
/// sampling renders fewer samples than nominal and the march skips the
/// empty ones, so the spread between scenes is 3×, not noise. The same
/// host now runs the MLP layers as `mlp_kernel` = avx512, a sample about a
/// tenth cheaper: well inside that spread, and the first completion
/// replaces the seed anyway, so it was not measured again.
const SEED_NS_PER_SAMPLE: f64 = 145.0;

/// One key's running estimate.
#[derive(Debug, Clone, Copy)]
struct Ewma {
    per_frame_ms: f64,
    samples: u64,
}

#[derive(Debug, Default)]
struct CostInner {
    keys: HashMap<(String, u32), Ewma>,
    /// EWMA of observed ns per nominal sample over all keys: the seed of
    /// keys not seen yet.
    ns_per_sample: Option<f64>,
    observations: u64,
    seeded_predictions: u64,
    abs_pct_err_sum: f64,
}

/// A point-in-time snapshot of model accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostStats {
    /// Distinct (scene, resolution) keys with at least one observation.
    pub tracked_keys: usize,
    /// Completed requests folded into the model.
    pub observations: u64,
    /// Predictions served from the probe-count seed (no observation yet).
    pub seeded_predictions: u64,
    /// Mean absolute percentage error of predictions at observation time
    /// (0 when nothing has been observed).
    pub mean_abs_pct_error: f64,
}

/// Learns per-(scene, resolution) render cost online; see the module docs.
#[derive(Debug)]
pub struct CostModel {
    base_ns: usize,
    inner: Mutex<CostInner>,
}

impl CostModel {
    /// A model seeded from `profile`'s sample budget.
    pub fn new(profile: &RenderProfile) -> Self {
        CostModel { base_ns: profile.base_ns, inner: Mutex::new(CostInner::default()) }
    }

    fn nominal_samples(&self, resolution: u32) -> f64 {
        (resolution as f64).powi(2) * self.base_ns as f64
    }

    /// The probe-count seed: what a frame at `resolution` should cost
    /// when its key has no observation yet.
    pub fn seed_ms(&self, resolution: u32) -> f64 {
        self.seed_with(&self.inner.lock().unwrap(), resolution)
    }

    fn seed_with(&self, inner: &CostInner, resolution: u32) -> f64 {
        let ns_per_sample = inner.ns_per_sample.unwrap_or(SEED_NS_PER_SAMPLE);
        self.nominal_samples(resolution) * ns_per_sample / 1e6
    }

    /// Predicted service time for a `frames`-frame request, milliseconds.
    pub fn predict(&self, scene: &str, resolution: u32, frames: usize) -> f64 {
        let mut inner = self.inner.lock().unwrap();
        let per_frame = match inner.keys.get(&(scene.to_string(), resolution)) {
            Some(e) => e.per_frame_ms,
            None => {
                inner.seeded_predictions += 1;
                self.seed_with(&inner, resolution)
            }
        };
        per_frame * frames.max(1) as f64
    }

    /// Folds one completed request into the model. `service_ms` is the
    /// request's latency minus its queue wait (what the render itself
    /// cost, which is what admission needs to predict).
    pub fn observe(&self, scene: &str, resolution: u32, frames: usize, service_ms: f64) {
        if !service_ms.is_finite() || service_ms < 0.0 {
            return;
        }
        let frames = frames.max(1) as f64;
        let actual_per_frame = service_ms / frames;
        let mut inner = self.inner.lock().unwrap();
        let key = (scene.to_string(), resolution);
        let predicted_per_frame = inner
            .keys
            .get(&key)
            .map(|e| e.per_frame_ms)
            .unwrap_or_else(|| self.seed_with(&inner, resolution));
        if actual_per_frame > 0.0 {
            inner.abs_pct_err_sum +=
                (predicted_per_frame - actual_per_frame).abs() / actual_per_frame;
        }
        let ns_per_sample = actual_per_frame * 1e6 / self.nominal_samples(resolution);
        inner.ns_per_sample = Some(match inner.ns_per_sample {
            Some(prev) => ALPHA * ns_per_sample + (1.0 - ALPHA) * prev,
            None => ns_per_sample,
        });
        inner.observations += 1;
        inner
            .keys
            .entry(key)
            .and_modify(|e| {
                e.per_frame_ms = ALPHA * actual_per_frame + (1.0 - ALPHA) * e.per_frame_ms;
                e.samples += 1;
            })
            .or_insert(Ewma { per_frame_ms: actual_per_frame, samples: 1 });
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> CostStats {
        let inner = self.inner.lock().unwrap();
        CostStats {
            tracked_keys: inner.keys.len(),
            observations: inner.observations,
            seeded_predictions: inner.seeded_predictions,
            mean_abs_pct_error: if inner.observations > 0 {
                inner.abs_pct_err_sum / inner.observations as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(&RenderProfile::tiny())
    }

    #[test]
    fn seeds_scale_with_resolution() {
        let m = model();
        assert!(m.seed_ms(96) > m.seed_ms(48), "bigger frames must seed more expensive");
        assert!((m.seed_ms(96) / m.seed_ms(48) - 4.0).abs() < 1e-9, "seed is quadratic in res");
        // an unseen key predicts from the seed, proportional to frames
        let one = m.predict("Mic", 48, 1);
        assert!((m.predict("Mic", 48, 3) / one - 3.0).abs() < 1e-9);
        assert_eq!(m.stats().seeded_predictions, 2);
        assert_eq!(m.stats().tracked_keys, 0);
    }

    #[test]
    fn observations_converge_and_score_error() {
        let m = model();
        // the real machine is much cheaper than the seed; the EWMA converges
        for _ in 0..24 {
            m.observe("Mic", 48, 2, 40.0); // 20 ms/frame
        }
        let pred = m.predict("Mic", 48, 1);
        assert!((pred - 20.0).abs() < 1.0, "EWMA must converge to ~20 ms/frame, got {pred}");
        let stats = m.stats();
        assert_eq!(stats.tracked_keys, 1);
        assert_eq!(stats.observations, 24);
        assert!(stats.mean_abs_pct_error > 0.0, "seed-vs-actual error must be recorded");
        // a second key does not inherit the first's estimate
        assert!(m.predict("Mic", 96, 1) > pred * 2.0);
    }

    #[test]
    fn unseen_keys_seed_from_what_other_keys_cost() {
        let m = model();
        let constant_seed = m.seed_ms(32);
        // this machine turns out 4x cheaper per sample than the constant
        let actual_16 = m.seed_ms(16) / 4.0;
        for _ in 0..24 {
            m.observe("Mic", 16, 1, actual_16);
        }
        let learned_seed = m.predict("Lego", 32, 1);
        assert!(
            (learned_seed / (constant_seed / 4.0) - 1.0).abs() < 0.05,
            "an unseen key must seed from the observed ns/sample: {learned_seed} vs {constant_seed}"
        );
        // still quadratic in resolution, and a seen key keeps its own estimate
        assert!((m.seed_ms(64) / m.seed_ms(32) - 4.0).abs() < 1e-9);
        m.observe("Lego", 32, 1, 1.0);
        assert!((m.predict("Lego", 32, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn error_shrinks_once_the_model_learns() {
        let m = model();
        m.observe("Lego", 32, 1, 10.0);
        let early = m.stats().mean_abs_pct_error;
        for _ in 0..40 {
            m.observe("Lego", 32, 1, 10.0);
        }
        assert!(
            m.stats().mean_abs_pct_error < early,
            "steady traffic must drive the mean error down"
        );
    }

    #[test]
    fn garbage_observations_are_ignored() {
        let m = model();
        m.observe("Mic", 48, 1, f64::NAN);
        m.observe("Mic", 48, 1, -5.0);
        assert_eq!(m.stats().observations, 0);
    }
}
