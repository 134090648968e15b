//! The committed tables: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` is printed from these (`asdr-benchmark
//! manifest`) and a unit test keeps the two equal.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadId {
    RenderFixed,
    RenderAdaptive,
    ServeMix,
    FleetMix,
}

use WorkloadId::{FleetMix, RenderAdaptive, RenderFixed, ServeMix};

pub struct WorkloadDef {
    pub id: WorkloadId,
    pub name: &'static str,
    pub why: &'static str,
    /// Latency limit of `goodput_rps`, normalised milliseconds: three times
    /// the workload's baseline p50 at the commit that added the benchmark,
    /// moved out on the serving workloads until under 1 % of samples lay
    /// within ±10 % of it.
    pub limit_ms: f64,
    /// `psnr_db` below this fails the run.
    pub psnr_floor_db: f64,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        id: RenderFixed,
        name: "render_fixed",
        why: "fixed 48 samples on every ray: kernels are >90% of the time, adaptive sampling, serve and cluster do nothing",
        limit_ms: 300.0,
        psnr_floor_db: 22.0,
    },
    WorkloadDef {
        id: RenderAdaptive,
        name: "render_adaptive",
        why: "the paper's path: probe, plan, uneven tiles on 2 threads, colour interpolation; Mic and Cloud pull the plan opposite ways",
        limit_ms: 56.0,
        psnr_floor_db: 22.0,
    },
    WorkloadDef {
        id: ServeMix,
        name: "serve_mix",
        why: "small frames through queue, batching and an over-subscribed store: the serving tax at its largest realistic share",
        limit_ms: 210.0,
        psnr_floor_db: 20.0,
    },
    WorkloadDef {
        id: FleetMix,
        name: "fleet_mix",
        why: "the same requests through 2 asdr-shardd over Unix sockets: adds ring, cost book, wire and pool on top of serve_mix",
        limit_ms: 280.0,
        psnr_floor_db: 20.0,
    },
];

impl WorkloadId {
    pub fn def(self) -> &'static WorkloadDef {
        WORKLOADS.iter().find(|w| w.id == self).expect("every id is in the table")
    }
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WORKLOADS.iter().find(|w| w.name == name).map(|w| w.id)
    }
    pub fn is_serving(self) -> bool {
        matches!(self, ServeMix | FleetMix)
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_ms_p50", unit: "ms", better: Better::Lower, bound: 0.2 },
    EndToEnd { name: "latency_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "frames_per_s", unit: "1/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "goodput_rps", unit: "1/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "cpu_ms_per_frame", unit: "ms", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.2 },
    EndToEnd { name: "psnr_db", unit: "dB", better: Better::Higher, bound: 0.002 },
    EndToEnd { name: "sim_chip_fps", unit: "1/s", better: Better::Higher, bound: 0.001 },
    EndToEnd { name: "sim_energy_mj_per_frame", unit: "mJ", better: Better::Lower, bound: 0.001 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The workloads whose traced run measures it. On the others the layer
    /// does nothing: the listing says `absent` and the result line, which
    /// must carry every per-layer name, carries 0.
    pub on: &'static [WorkloadId],
}

const RENDER: &[WorkloadId] = &[RenderFixed, RenderAdaptive];
const ADAPTIVE: &[WorkloadId] = &[RenderAdaptive];
const ALL: &[WorkloadId] = &[RenderFixed, RenderAdaptive, ServeMix, FleetMix];
const SERVING: &[WorkloadId] = &[ServeMix, FleetMix];
const SERVE: &[WorkloadId] = &[ServeMix];
const FLEET: &[WorkloadId] = &[FleetMix];
const FITTING: &[WorkloadId] = &[RenderFixed, RenderAdaptive, ServeMix];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [WorkloadId],
) -> PerLayer {
    PerLayer { name, unit, better, on }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 70] = [
    // nerf: kernels, then the set-up path
    layer("nerf.encode_point_ns", "ns", Lower, RENDER),
    layer("nerf.density_query_ns", "ns", Lower, RENDER),
    layer("nerf.color_query_ns", "ns", Lower, RENDER),
    layer("nerf.density_mlp_forward_ns", "ns", Lower, RENDER),
    layer("nerf.encode_point_ns.small", "ns", Lower, RENDER),
    layer("nerf.density_query_ns.small", "ns", Lower, RENDER),
    layer("nerf.fit_ms", "ms", Lower, FITTING),
    layer("nerf.ckpt_save_ms", "ms", Lower, FITTING),
    layer("nerf.ckpt_load_ms", "ms", Lower, ALL),
    layer("nerf.ckpt_bytes", "count", Lower, ALL),
    // core: frame phases, exact counts, ratios
    layer("core.probe_ms", "ms", Lower, RENDER),
    layer("core.render_ms", "ms", Lower, RENDER),
    layer("core.probe_share", "%", Lower, RENDER),
    layer("core.plan_from_probes_us", "us", Lower, ADAPTIVE),
    layer("core.composite_ns", "ns", Lower, RENDER),
    layer("core.probe_points", "count", Lower, ALL),
    layer("core.density_evals", "count", Lower, ALL),
    layer("core.color_evals", "count", Lower, ALL),
    layer("core.interpolated", "count", Higher, ALL),
    layer("core.planned_points", "count", Lower, ALL),
    layer("core.base_points", "count", Lower, ALL),
    layer("core.et_rays", "count", Higher, ALL),
    layer("core.samples_per_pixel", "count", Lower, ALL),
    layer("core.asdr_speedup_x", "x", Higher, ADAPTIVE),
    layer("core.mt2_speedup_x", "x", Higher, ADAPTIVE),
    layer("core.sequence_reuse_speedup_x", "x", Higher, &[RenderAdaptive, ServeMix]),
    // arch: the chip simulator
    layer("arch.sim_host_ms_per_frame", "ms", Lower, ALL),
    layer("arch.regcache_hit_rate", "%", Higher, ALL),
    layer("arch.encoding_cycles", "count", Lower, ALL),
    layer("arch.mlp_cycles", "count", Lower, ALL),
    layer("arch.render_cycles", "count", Lower, ALL),
    layer("arch.energy_encoding_mj", "mJ", Lower, ALL),
    layer("arch.energy_mlp_mj", "mJ", Lower, ALL),
    layer("arch.energy_dram_mj", "mJ", Lower, ALL),
    // serve: queue, batching, store
    layer("serve.tax_ms_p50", "ms", Lower, SERVING),
    layer("serve.submit_us", "us", Lower, SERVING),
    layer("serve.queue_wait_ms_p50", "ms", Lower, SERVING),
    layer("serve.queue_wait_ms_p90", "ms", Lower, SERVING),
    layer("serve.reused_frames_share", "%", Higher, SERVING),
    layer("serve.store.memory_hit_ns", "ns", Lower, SERVE),
    layer("serve.store.disk_hit_ms", "ms", Lower, SERVE),
    layer("serve.store.memory_hits", "count", Higher, SERVING),
    layer("serve.store.disk_hits", "count", Lower, SERVING),
    layer("serve.store.fits", "count", Lower, SERVING),
    layer("serve.store.evictions", "count", Lower, SERVING),
    layer("serve.store.disk_hit_share", "%", Lower, SERVING),
    layer("serve.refused", "count", Lower, SERVING),
    layer("serve.failed", "count", Lower, SERVING),
    // cluster: ring, cost book, wire, pool
    layer("cluster.tax_ms_p50", "ms", Lower, FLEET),
    layer("cluster.wire_encode_us", "us", Lower, FLEET),
    layer("cluster.wire_decode_us", "us", Lower, FLEET),
    layer("cluster.wire_bytes_per_result", "count", Lower, FLEET),
    layer("cluster.route_ns", "ns", Lower, FLEET),
    layer("cluster.cost_predict_observe_ns", "ns", Lower, FLEET),
    layer("cluster.cost_mape", "%", Lower, FLEET),
    layer("cluster.shard_imbalance", "x", Lower, FLEET),
    layer("cluster.spawn_connect_ms", "ms", Lower, FLEET),
    layer("cluster.prewarm_ms", "ms", Lower, FLEET),
    layer("cluster.hedges", "count", Lower, FLEET),
    layer("cluster.failovers", "count", Lower, FLEET),
    layer("cluster.evictions", "count", Lower, FLEET),
    // obs and the benchmark itself
    layer("obs.span_overhead_pct", "%", Lower, SERVE),
    layer("obs.spans_per_request", "count", Lower, SERVE),
    layer("bench.trace_overhead_pct", "%", Lower, ALL),
    layer("bench.host_factor_p50", "x", Lower, ALL),
    layer("bench.host_factor_spread", "%", Lower, ALL),
    layer("bench.blocks", "count", Higher, ALL),
    layer("bench.blocks_dropped", "count", Lower, ALL),
    layer("bench.raw_latency_ms_p50", "ms", Lower, ALL),
    layer("bench.limit_edge_share", "%", Lower, ALL),
];

/// Seconds one run measures, as committed in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name,
            crate::json::escape(w.why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_manifest_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let valid_unit = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit) && !m.on.is_empty()));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest().len() < 64 * 1024);
        // 4 + 22 runs per workload, each `RUN_SECONDS` plus set-up and
        // checks (3–12 s, 10 allowed for), and two builds, inside the 3420 s
        // cap with room for a host that runs everything a third slower
        assert!((4 + 22 * WORKLOADS.len() as u64) * (RUN_SECONDS + 10) * 4 / 3 + 120 < 3420);
    }

    #[test]
    fn the_committed_manifest_is_the_one_the_tables_print() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(), "run `asdr-benchmark manifest > BENCHMARK.json`");
        let v = json::parse(committed).expect("BENCHMARK.json parses");
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert_eq!(v.get("run_seconds"), Some(&Value::Num(RUN_SECONDS as f64)));
    }
}
