//! The autoscaling control loop: worker counts chase deadline-miss rate.
//!
//! Each shard gets a [`ShardController`] fed one tick per sampling
//! interval with the shard's *cumulative* deadline counters; the
//! controller differences them into a per-window miss rate and decides:
//!
//! * predicted backlog above [`AutoscalerConfig::forecast_grow_ms`] per
//!   worker → one more worker **before** any deadline is missed (the
//!   predictive path: the cost model's outstanding-predicted-ms is a
//!   forecast of the queue the reactive path would only see as misses one
//!   or two windows later);
//! * rate above [`AutoscalerConfig::grow_above`] → one more worker (up to
//!   `workers_max`);
//! * rate below [`AutoscalerConfig::shrink_below`] with deadlined traffic
//!   in the window, or a **genuinely idle** window (no completions *and*
//!   no admitted work in flight), → one fewer (down to `workers_min`);
//! * anything between the watermarks — or an empty window while requests
//!   are still in flight, which carries no information — → hold.
//!
//! Flap resistance is two-fold: the watermark **gap** means a shard
//! hovering near one threshold cannot oscillate across both, and every
//! scale step starts a **cooldown** of
//! [`AutoscalerConfig::cooldown_intervals`] ticks during which the
//! controller only accumulates counters. The decision logic is a pure
//! function of the fed counters (no clocks, no threads), so the unit
//! tests below pin grow/shrink/hysteresis deterministically; the live
//! loop in [`crate::fleet`] merely feeds it real [`ServeStats`] and
//! applies the verdicts via [`Shard::set_workers`](crate::Shard::set_workers).
//!
//! [`ServeStats`]: asdr_serve::ServeStats

use std::time::Duration;

/// Bounds and cadence of the control loop.
#[derive(Debug, Clone)]
pub struct AutoscalerConfig {
    /// Lower worker bound per shard (also each shard's starting size).
    pub workers_min: usize,
    /// Upper worker bound per shard.
    pub workers_max: usize,
    /// Sampling period of the control loop.
    pub interval: Duration,
    /// Grow when the window miss rate exceeds this.
    pub grow_above: f64,
    /// Shrink when the window miss rate (with traffic) falls below this.
    pub shrink_below: f64,
    /// Ticks to hold after any scale step (hysteresis).
    pub cooldown_intervals: u32,
    /// Grow when the predicted outstanding work **per worker** exceeds
    /// this many milliseconds, even with zero misses so far (the
    /// predictive path). `f64::INFINITY` disables forecast growth.
    pub forecast_grow_ms: f64,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            workers_min: 1,
            workers_max: 4,
            interval: Duration::from_millis(200),
            grow_above: 0.10,
            shrink_below: 0.02,
            cooldown_intervals: 2,
            forecast_grow_ms: 250.0,
        }
    }
}

impl AutoscalerConfig {
    /// Checks the bounds and watermarks are coherent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers_min == 0 {
            return Err("workers_min must be >= 1".into());
        }
        if self.workers_max < self.workers_min {
            return Err(format!(
                "workers_max ({}) must be >= workers_min ({})",
                self.workers_max, self.workers_min
            ));
        }
        if self.grow_above <= self.shrink_below {
            return Err(format!(
                "grow_above ({}) must exceed shrink_below ({}) — the gap is the hysteresis",
                self.grow_above, self.shrink_below
            ));
        }
        if self.interval.is_zero() {
            return Err("interval must be non-zero".into());
        }
        if self.forecast_grow_ms <= 0.0 || self.forecast_grow_ms.is_nan() {
            return Err("forecast_grow_ms must be positive (INFINITY disables forecasting)".into());
        }
        Ok(())
    }
}

/// Which signal drove a scaling step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleReason {
    /// Reactive: the window's deadline-miss rate crossed `grow_above`.
    Miss,
    /// Predictive: forecast backlog per worker crossed `forecast_grow_ms`
    /// before any miss materialized.
    Forecast,
    /// Quiet or idle traffic drifted the pool back down.
    Shrink,
}

impl ScaleReason {
    /// The stable lowercase spelling used in the JSON artifact.
    pub fn as_str(self) -> &'static str {
        match self {
            ScaleReason::Miss => "miss",
            ScaleReason::Forecast => "forecast",
            ScaleReason::Shrink => "shrink",
        }
    }
}

/// One scaling decision, as recorded in `ClusterStats`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// Milliseconds since the cluster started.
    pub at_ms: u64,
    /// Which shard scaled.
    pub shard: usize,
    /// Worker target before.
    pub from: usize,
    /// Worker target after.
    pub to: usize,
    /// The window miss rate that triggered the step.
    pub miss_rate: f64,
    /// Which signal drove the step.
    pub reason: ScaleReason,
}

/// What one tick decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The new worker target.
    pub target: usize,
    /// The window miss rate behind the decision.
    pub miss_rate: f64,
    /// Which signal drove the decision.
    pub reason: ScaleReason,
}

/// Per-shard controller state between ticks (see the module docs).
#[derive(Debug)]
pub struct ShardController {
    workers: usize,
    cooldown: u32,
    seen_deadlined: u64,
    seen_misses: u64,
}

impl ShardController {
    /// A controller for a shard currently running `workers` workers.
    pub fn new(workers: usize) -> Self {
        ShardController { workers, cooldown: 0, seen_deadlined: 0, seen_misses: 0 }
    }

    /// The worker target this controller last decided.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Feeds one sampling tick with the shard's **cumulative** deadline
    /// counters, whether the shard still has admitted work in flight, and
    /// the cost model's predicted outstanding work (`forecast_ms`);
    /// returns a verdict when the controller scales. An empty window on a
    /// busy shard (renders running, nothing completed yet) carries no
    /// information and holds — without that, every long render would read
    /// as "idle" and flap the pool mid-burst. The forecast bypasses that
    /// hold: a deep predicted backlog *is* information, and acting on it
    /// grows the pool before the first deadline miss instead of one
    /// window after.
    pub fn tick(
        &mut self,
        cfg: &AutoscalerConfig,
        deadlined: u64,
        misses: u64,
        busy: bool,
        forecast_ms: f64,
    ) -> Option<Verdict> {
        let window_deadlined = deadlined.saturating_sub(self.seen_deadlined);
        let window_misses = misses.saturating_sub(self.seen_misses);
        self.seen_deadlined = deadlined;
        self.seen_misses = misses;
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let rate = if window_deadlined == 0 {
            0.0
        } else {
            window_misses as f64 / window_deadlined as f64
        };
        // predictive path first: backlog per worker over the threshold
        // grows even in a window with zero completions and zero misses
        if forecast_ms > cfg.forecast_grow_ms * self.workers as f64
            && self.workers < cfg.workers_max
        {
            self.workers += 1;
            self.cooldown = cfg.cooldown_intervals;
            return Some(Verdict {
                target: self.workers,
                miss_rate: rate,
                reason: ScaleReason::Forecast,
            });
        }
        if window_deadlined == 0 && busy {
            return None;
        }
        // a genuinely idle window reads as rate 0: quiet shards drift back
        // to min
        let (target, reason) = if rate > cfg.grow_above && self.workers < cfg.workers_max {
            (self.workers + 1, ScaleReason::Miss)
        } else if rate < cfg.shrink_below && self.workers > cfg.workers_min {
            (self.workers - 1, ScaleReason::Shrink)
        } else {
            return None;
        };
        self.workers = target;
        self.cooldown = cfg.cooldown_intervals;
        Some(Verdict { target, miss_rate: rate, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscalerConfig {
        AutoscalerConfig { workers_min: 1, workers_max: 4, ..AutoscalerConfig::default() }
    }

    #[test]
    fn config_validates_bounds_and_watermarks() {
        assert!(cfg().validate().is_ok());
        assert!(AutoscalerConfig { workers_min: 0, ..cfg() }.validate().is_err());
        assert!(AutoscalerConfig { workers_max: 0, workers_min: 1, ..cfg() }.validate().is_err());
        assert!(AutoscalerConfig { grow_above: 0.01, shrink_below: 0.05, ..cfg() }
            .validate()
            .is_err());
        assert!(AutoscalerConfig { interval: Duration::ZERO, ..cfg() }.validate().is_err());
        assert!(AutoscalerConfig { forecast_grow_ms: 0.0, ..cfg() }.validate().is_err());
        assert!(AutoscalerConfig { forecast_grow_ms: -1.0, ..cfg() }.validate().is_err());
        assert!(AutoscalerConfig { forecast_grow_ms: f64::INFINITY, ..cfg() }.validate().is_ok());
    }

    #[test]
    fn misses_grow_the_pool_up_to_the_bound() {
        let cfg = AutoscalerConfig { cooldown_intervals: 0, ..cfg() };
        let mut c = ShardController::new(1);
        // 50% window miss rate, fed as cumulative counters
        let v = c.tick(&cfg, 10, 5, true, 0.0).expect("must grow");
        assert_eq!((v.target, c.workers()), (2, 2));
        assert!((v.miss_rate - 0.5).abs() < 1e-12);
        assert_eq!(v.reason, ScaleReason::Miss);
        c.tick(&cfg, 20, 10, true, 0.0).expect("grows again");
        c.tick(&cfg, 30, 15, true, 0.0).expect("grows to the bound");
        assert_eq!(c.workers(), 4);
        assert!(c.tick(&cfg, 40, 20, true, 0.0).is_none(), "never exceeds workers_max");
    }

    #[test]
    fn quiet_traffic_shrinks_back_to_min() {
        let cfg = AutoscalerConfig { cooldown_intervals: 0, ..cfg() };
        let mut c = ShardController::new(3);
        // deadlined traffic, zero misses
        let v = c.tick(&cfg, 10, 0, true, 0.0).expect("shrink");
        assert_eq!((v.target, v.reason), (2, ScaleReason::Shrink));
        // a genuinely idle window shrinks too
        assert_eq!(c.tick(&cfg, 10, 0, false, 0.0).expect("shrink").target, 1);
        assert!(c.tick(&cfg, 10, 0, false, 0.0).is_none(), "never goes below workers_min");
    }

    #[test]
    fn busy_empty_windows_hold_instead_of_flapping() {
        // requests in flight, none completed this window: no information,
        // the pool must hold — otherwise every long render shrinks it
        let cfg = AutoscalerConfig { cooldown_intervals: 0, ..cfg() };
        let mut c = ShardController::new(2);
        c.tick(&cfg, 10, 5, true, 0.0).expect("the overloaded window grows");
        assert_eq!(c.workers(), 3);
        // same cumulative counters, still busy: empty windows, hold
        for _ in 0..10 {
            assert!(c.tick(&cfg, 10, 5, true, 0.0).is_none(), "busy empty window must hold");
        }
        assert_eq!(c.workers(), 3);
        // the moment the shard is genuinely idle, it shrinks
        assert_eq!(c.tick(&cfg, 10, 5, false, 0.0).expect("idle shrinks").target, 2);
    }

    #[test]
    fn cooldown_and_watermark_gap_stop_flapping() {
        let cfg = AutoscalerConfig { cooldown_intervals: 2, ..cfg() };
        let mut c = ShardController::new(1);
        assert!(c.tick(&cfg, 4, 4, true, 0.0).is_some(), "first overload grows");
        // two cooldown ticks ignore even a 100% miss window
        assert!(c.tick(&cfg, 8, 8, true, 0.0).is_none());
        assert!(c.tick(&cfg, 12, 12, true, 0.0).is_none());
        assert!(c.tick(&cfg, 16, 16, true, 0.0).is_some(), "cooldown over, grows again");
        assert_eq!(c.workers(), 3);
        // a rate inside the watermark gap holds forever (no oscillation)
        let mut c = ShardController::new(2);
        let cfg = AutoscalerConfig { cooldown_intervals: 0, ..cfg };
        for i in 1..=10u64 {
            // 5% misses: above shrink_below (2%), below grow_above (10%)
            assert!(c.tick(&cfg, 100 * i, 5 * i, true, 0.0).is_none(), "gap must hold");
        }
        assert_eq!(c.workers(), 2);
    }

    #[test]
    fn forecast_grows_before_the_first_miss() {
        // the predictive path: a deep predicted backlog grows the pool in
        // a window with zero deadlined requests and zero misses — the
        // reactive path (same counters, no forecast) would hold
        let cfg = AutoscalerConfig { cooldown_intervals: 0, forecast_grow_ms: 250.0, ..cfg() };
        let mut reactive = ShardController::new(1);
        assert!(
            reactive.tick(&cfg, 0, 0, true, 0.0).is_none(),
            "no misses and no forecast: the reactive path holds"
        );
        let mut predictive = ShardController::new(1);
        let v = predictive.tick(&cfg, 0, 0, true, 600.0).expect("forecast must grow");
        assert_eq!((v.target, v.reason, v.miss_rate), (2, ScaleReason::Forecast, 0.0));
        // the threshold is per worker: 2 workers now absorb that backlog
        assert!(predictive.tick(&cfg, 0, 0, true, 480.0).is_none(), "480 <= 250*2 holds");
        let v = predictive.tick(&cfg, 0, 0, true, 900.0).expect("900 > 250*2 grows");
        assert_eq!(v.target, 3);
    }

    #[test]
    fn forecast_growth_respects_cooldown_bound_and_disable() {
        let base = AutoscalerConfig { cooldown_intervals: 1, forecast_grow_ms: 100.0, ..cfg() };
        let mut c = ShardController::new(1);
        assert!(c.tick(&base, 0, 0, true, 1e6).is_some(), "first forecast grows");
        assert!(c.tick(&base, 0, 0, true, 1e6).is_none(), "cooldown holds the next tick");
        assert!(c.tick(&base, 0, 0, true, 1e6).is_some(), "then grows again");
        assert!(c.tick(&base, 0, 0, true, 1e6).is_none(), "cooldown");
        assert!(c.tick(&base, 0, 0, true, 1e6).is_some(), "grows to workers_max");
        assert_eq!(c.workers(), base.workers_max);
        assert!(c.tick(&base, 0, 0, true, 1e6).is_none(), "cooldown");
        assert!(c.tick(&base, 0, 0, true, 1e6).is_none(), "never exceeds workers_max");
        // INFINITY disables the predictive path outright
        let off = AutoscalerConfig { forecast_grow_ms: f64::INFINITY, ..base };
        let mut c = ShardController::new(1);
        assert!(c.tick(&off, 0, 0, true, 1e12).is_none(), "disabled forecast never grows");
    }

    #[test]
    fn counters_are_differenced_not_accumulated() {
        let cfg = AutoscalerConfig { cooldown_intervals: 0, ..cfg() };
        let mut c = ShardController::new(1);
        assert_eq!(c.tick(&cfg, 100, 100, true, 0.0).expect("overload grows").target, 2);
        // the same cumulative counters again on an idle shard: the old
        // misses must not leak in — a clean window reads rate 0 and shrinks
        let v = c.tick(&cfg, 100, 100, false, 0.0).expect("clean window shrinks");
        assert_eq!(v.target, 1);
        assert_eq!(v.miss_rate, 0.0);
    }
}
