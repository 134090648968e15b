//! Cluster-wide statistics: per-shard serving snapshots, routing and
//! refusal counters, and cost-model accuracy — plus the hand-rolled
//! JSON artifact the `asdr-cluster` binary writes (no serde in this
//! environment, same trade as the criterion shim).

use crate::cost::CostStats;
use asdr_obs::JsonWriter;
use asdr_serve::ServeStats;

/// One shard's slice of the cluster snapshot.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index (the consistent-hash ring id).
    pub shard: usize,
    /// Worker-pool size, fixed when the shard was built.
    pub workers: usize,
    /// Requests the fleet submitted to this shard that have not yet ended.
    pub in_flight: usize,
    /// Requests this shard took from another home: that home was busy
    /// and this shard idle and warm, or that home was full.
    pub spilled_in: u64,
    /// Scenes the fleet holds this shard warm for: it answered a prewarm
    /// or a request for them since it last joined.
    pub warm_scenes: usize,
    /// The shard service's own aggregate statistics.
    pub serve: ServeStats,
}

/// Failure-handling counters (all zero while no shard was lost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Shards currently off the ring (evicted and not yet rejoined).
    pub shards_lost: u64,
    /// Shards removed from the ring after consecutive health misses or a
    /// connection failure.
    pub evictions: u64,
    /// Evicted shards returned to the ring by a later successful probe.
    pub rejoins: u64,
    /// Always 0: the fleet sends no duplicate requests. Kept only because
    /// the frozen benchmark reads it for its `cluster.hedges` row.
    pub hedges: u64,
    /// In-flight requests resubmitted after their shard died.
    pub failovers: u64,
    /// Scene models pre-fetched on an idle shard because a request queued
    /// at its busy home (the replica the next overlap spills to).
    pub replications: u64,
}

/// A point-in-time snapshot of the whole cluster; serialize with
/// [`ClusterStats::to_json`].
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Per-shard snapshots, indexed by ring id.
    pub shards: Vec<ShardStats>,
    /// Requests admitted to their consistent-hash home shard.
    pub routed_home: u64,
    /// Requests served off their home shard: the home was busy beside an
    /// idle shard warm for the scene, or it was full.
    pub spilled: u64,
    /// Routings every live shard refused, each full or draining: a refused
    /// submit, or a ticket's re-route that then waited for a release.
    pub rejected: u64,
    /// Cost-model accuracy (predicted vs. actual).
    pub cost: CostStats,
    /// Failure-handling counters.
    pub fleet: FleetStats,
}

impl ClusterStats {
    /// Requests completed across all shards.
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.serve.requests).sum()
    }

    /// Frames rendered across all shards.
    pub fn frames(&self) -> u64 {
        self.shards.iter().map(|s| s.serve.frames).sum()
    }

    /// Fresh fits across all shards — equals the distinct (scene, grid)
    /// count of the workload when cross-process/shard single-flight held
    /// (zero duplicate fits, the quantity the cluster smoke pins).
    pub fn total_fits(&self) -> u64 {
        self.shards.iter().map(|s| s.serve.store.fits).sum()
    }

    /// Checkpoint loads across all shards.
    pub fn total_disk_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.serve.store.disk_hits).sum()
    }

    /// Cold fits that waited on another process's (or shard's) lock file
    /// instead of duplicating work.
    pub fn lock_waits(&self) -> u64 {
        self.shards.iter().map(|s| s.serve.store.lock_waits).sum()
    }

    /// Stale lock files broken.
    pub fn lock_steals(&self) -> u64 {
        self.shards.iter().map(|s| s.serve.store.lock_steals).sum()
    }

    /// Deadlined requests across all shards.
    pub fn deadlined_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.serve.deadlined_requests).sum()
    }

    /// Deadline misses across all shards.
    pub fn deadline_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.serve.deadline_misses).sum()
    }

    /// Cluster-wide deadline-miss rate (0 when nothing carried a deadline).
    pub fn miss_rate(&self) -> f64 {
        let deadlined = self.deadlined_requests();
        if deadlined == 0 {
            return 0.0;
        }
        self.deadline_misses() as f64 / deadlined as f64
    }

    /// Serializes the snapshot as the `asdr-cluster` JSON artifact,
    /// through the shared [`JsonWriter`] — the layout (and the float
    /// precisions) is pinned by `json_is_shape_stable` because
    /// `scripts/fleet_smoke.sh` greps these exact substrings.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj();
        w.gap("\n  ").key("shards").usize(self.shards.len());
        w.gap("\n  ").key("requests").u64(self.requests());
        w.key("frames").u64(self.frames());
        w.gap("\n  ").key("deadlined_requests").u64(self.deadlined_requests());
        w.key("deadline_misses").u64(self.deadline_misses());
        w.key("miss_rate").f64(self.miss_rate(), 4);
        w.gap("\n  ").key("routed_home").u64(self.routed_home);
        w.key("spilled").u64(self.spilled);
        w.key("rejected").u64(self.rejected);
        w.gap("\n  ").key("total_fits").u64(self.total_fits());
        w.key("total_disk_hits").u64(self.total_disk_hits());
        w.key("lock_waits").u64(self.lock_waits());
        w.key("lock_steals").u64(self.lock_steals());
        // counted work beside what the shards' renderers skipped as empty
        // space: why equal planned work costs scenes differently
        let total = |f: fn(&ServeStats) -> u64| self.shards.iter().map(|s| f(&s.serve)).sum();
        w.gap("\n  ").key("density_evals").u64(total(|v| v.density_evals));
        w.key("skipped_density").u64(total(|v| v.skipped_density));
        w.key("color_evals").u64(total(|v| v.color_evals));
        w.key("skipped_color").u64(total(|v| v.skipped_color));
        w.gap("\n  ").key("cost").obj();
        w.key("tracked_keys").usize(self.cost.tracked_keys);
        w.key("observations").u64(self.cost.observations);
        w.key("seeded_predictions").u64(self.cost.seeded_predictions);
        w.key("mean_abs_pct_error").f64(self.cost.mean_abs_pct_error, 4);
        w.close_obj();
        let fl = &self.fleet;
        w.gap("\n  ").key("fleet").obj();
        w.key("shards_lost").u64(fl.shards_lost);
        w.key("evictions").u64(fl.evictions);
        w.key("rejoins").u64(fl.rejoins);
        w.key("failovers").u64(fl.failovers);
        w.key("replications").u64(fl.replications);
        w.close_obj();
        w.gap("\n  ").key("per_shard").arr();
        for s in &self.shards {
            let v = &s.serve;
            w.gap("\n    ").obj();
            w.key("shard").usize(s.shard);
            w.key("workers").usize(s.workers);
            w.key("in_flight").usize(s.in_flight);
            w.key("spilled_in").u64(s.spilled_in);
            w.key("warm_scenes").usize(s.warm_scenes);
            w.key("requests").u64(v.requests);
            w.key("frames").u64(v.frames);
            w.key("reused_frames").u64(v.reused_frames);
            w.key("throughput_fps").f64(v.throughput_fps, 3);
            w.key("p50_latency_ms").f64(v.p50_latency_ms, 3);
            w.key("p95_latency_ms").f64(v.p95_latency_ms, 3);
            w.key("mean_queue_wait_ms").f64(v.mean_queue_wait_ms, 3);
            w.key("deadlined_requests").u64(v.deadlined_requests);
            w.key("deadline_misses").u64(v.deadline_misses);
            w.key("memory_hits").u64(v.store.memory_hits);
            w.key("fits").u64(v.store.fits);
            w.key("disk_hits").u64(v.store.disk_hits);
            w.key("store_evictions").u64(v.store.evictions);
            w.key("disk_errors").u64(v.store.disk_errors);
            w.key("lock_waits").u64(v.store.lock_waits);
            w.close_obj();
        }
        w.raw("\n  ").close_arr();
        w.raw("\n").close_obj();
        w.raw("\n");
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_serve::StoreStats;

    fn serve_stats(requests: u64, deadlined: u64, misses: u64, fits: u64) -> ServeStats {
        ServeStats {
            requests,
            frames: requests * 2,
            reused_frames: requests,
            deadlined_requests: deadlined,
            deadline_misses: misses,
            p50_latency_ms: 10.0,
            p95_latency_ms: 25.0,
            mean_queue_wait_ms: 2.0,
            throughput_fps: 12.0,
            probe_points: 100,
            probe_points_avoided_est: 50.0,
            density_evals: 900 * requests,
            color_evals: 500 * requests,
            skipped_density: 700 * requests,
            skipped_color: 300 * requests,
            store: StoreStats { fits, memory_hits: 5, evictions: 1, ..StoreStats::default() },
        }
    }

    fn sample() -> ClusterStats {
        ClusterStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    workers: 2,
                    in_flight: 3,
                    spilled_in: 1,
                    warm_scenes: 3,
                    serve: serve_stats(4, 2, 1, 2),
                },
                ShardStats {
                    shard: 1,
                    workers: 1,
                    in_flight: 0,
                    spilled_in: 0,
                    warm_scenes: 1,
                    serve: serve_stats(2, 2, 0, 1),
                },
            ],
            routed_home: 5,
            spilled: 1,
            rejected: 0,
            cost: CostStats {
                tracked_keys: 2,
                observations: 6,
                seeded_predictions: 3,
                mean_abs_pct_error: 0.25,
            },
            fleet: FleetStats { evictions: 1, failovers: 2, ..FleetStats::default() },
        }
    }

    #[test]
    fn aggregates_sum_over_shards() {
        let s = sample();
        assert_eq!(s.requests(), 6);
        assert_eq!(s.frames(), 12);
        assert_eq!(s.total_fits(), 3);
        assert_eq!(s.deadlined_requests(), 4);
        assert_eq!(s.deadline_misses(), 1);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn json_is_shape_stable() {
        let json = sample().to_json();
        for key in [
            "\"shards\": 2",
            "\"total_fits\": 3",
            "\"miss_rate\": 0.2500",
            "\"routed_home\": 5",
            "\"density_evals\": 5400, \"skipped_density\": 4200",
            "\"color_evals\": 3000, \"skipped_color\": 1800",
            "\"per_shard\": [",
            "\"cost\": {\"tracked_keys\": 2",
            "\"mean_abs_pct_error\": 0.2500",
            "\"fleet\": {\"shards_lost\": 0, \"evictions\": 1",
            "\"rejoins\": 0, \"failovers\": 2, \"replications\": 0}",
            "\"requests\": 4, \"frames\": 8, \"reused_frames\": 4, \"throughput_fps\"",
            "\"mean_queue_wait_ms\": 2.000, \"deadlined_requests\"",
            "\"memory_hits\": 5, \"fits\": 2, \"disk_hits\": 0, \"store_evictions\": 1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
