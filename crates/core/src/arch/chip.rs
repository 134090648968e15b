//! Chip-level performance/energy simulation (§5.5 dataflow).
//!
//! The three engines (encoding, MLP, volume rendering) form a pipeline over
//! sample points, so frame latency is governed by the bottleneck stage. The
//! encoding stage's per-point cost comes from the trace-driven simulation in
//! [`crate::arch::encoding`]; the MLP and render stages are throughput
//! models over the exact execution counts the functional renderer measured.

use crate::algo::renderer::RenderOutput;
use crate::arch::addrgen::MappingMode;
use crate::arch::config::AsdrConfig;
use crate::arch::encoding::{simulate_encoding_with_span, EncodingProfile};
use crate::arch::mlp_engine::MlpEngineModel;
use crate::arch::render_engine::RenderEngineWork;
use asdr_cim::device::{MemTech, CLOCK_HZ};
use asdr_cim::energy::{pj_to_j, EnergyTable};
use asdr_cim::XbarGeometry;
use asdr_math::Camera;
use asdr_nerf::NgpModel;

/// Options controlling one chip simulation.
#[derive(Debug, Clone)]
pub struct ChipOptions {
    /// Component sizing (Table 2 instance).
    pub config: AsdrConfig,
    /// Memory/compute technology (§6.9 variants).
    pub tech: MemTech,
    /// Address-mapping scheme (hybrid vs naive, for the HW ablation).
    pub mapping: MappingMode,
    /// Register-cache entries per table; `None` uses the config's sizing.
    pub cache_entries_per_table: Option<usize>,
    /// Pixel stride for the encoding trace subset (larger = faster, less
    /// precise).
    pub trace_ray_stride: u32,
    /// Energy constants.
    pub energy: EnergyTable,
    /// Override for the number of parallel lookup lanes; the strawman CIM
    /// lacks ASDR's address-generator array and issues from a near-serial
    /// front end.
    pub lane_override: Option<u32>,
}

impl ChipOptions {
    /// ASDR-Server with the native ReRAM implementation.
    pub fn server() -> Self {
        ChipOptions {
            config: AsdrConfig::server(),
            tech: MemTech::Reram,
            mapping: MappingMode::Hybrid,
            cache_entries_per_table: None,
            trace_ray_stride: 5,
            energy: EnergyTable::default(),
            lane_override: None,
        }
    }

    /// ASDR-Edge with the native ReRAM implementation.
    pub fn edge() -> Self {
        ChipOptions { config: AsdrConfig::edge(), ..ChipOptions::server() }
    }

    /// Disables the ASDR hardware optimizations — the "strawman CIM" of
    /// Fig. 20: naive all-hash mapping, no register cache, and no parallel
    /// address-generator array (lookups issue from two basic front-end
    /// ports).
    pub fn strawman(mut self) -> Self {
        self.mapping = MappingMode::AllHash;
        self.cache_entries_per_table = Some(0);
        self.lane_override = Some(1);
        self
    }
}

/// Simulated per-frame performance and energy.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Encoding-stage cycles (lookup + fusion, whichever dominates).
    pub encoding_cycles: f64,
    /// MLP-stage cycles (density/color sub-engines, whichever dominates).
    pub mlp_cycles: f64,
    /// Volume-rendering-engine cycles.
    pub render_cycles: f64,
    /// Frame cycles (pipeline bottleneck).
    pub total_cycles: f64,
    /// Frame time in seconds at 1 GHz.
    pub time_s: f64,
    /// Frames per second.
    pub fps: f64,
    /// Encoding energy (J): cache + Mem-Xbar reads + fusion.
    pub encoding_energy_j: f64,
    /// MLP energy (J).
    pub mlp_energy_j: f64,
    /// Render-engine energy (J).
    pub render_energy_j: f64,
    /// Buffer-traffic energy (J).
    pub buffer_energy_j: f64,
    /// Off-chip DRAM energy (J) for spilled tables.
    pub dram_energy_j: f64,
    /// Total frame energy (J).
    pub total_energy_j: f64,
    /// Measured register-cache hit rate.
    pub cache_hit_rate: f64,
    /// Average same-xbar conflict cycles per point.
    pub conflicts_per_point: f64,
}

/// Simulates one rendered frame on the ASDR chip.
///
/// `out` must be the [`RenderOutput`] of the same model/camera (its plan
/// drives the encoding trace and its stats drive the throughput models).
pub fn simulate_chip(
    model: &NgpModel,
    cam: &Camera,
    out: &RenderOutput,
    opts: &ChipOptions,
) -> PerfReport {
    opts.config.validate().expect("invalid chip config");
    let cfg = model.encoder().config();
    let profile = encoding_profile(model, cam, out, opts);
    let stats = &out.stats;
    let total_points = stats.total_encoded() as f64;

    // ---- encoding stage ---------------------------------------------
    // the profile's cycles are already amortized over the parallel lanes
    let lookup_cycles = profile.cycles_per_point() * total_points;
    // fusion: one level blend (8 corner MACs × F) per unit per cycle
    let fusion_ops = total_points * cfg.levels as f64;
    let fusion_cycles = fusion_ops / opts.config.fusion_units as f64;
    // DRAM spill when the tables exceed Mem-Xbar capacity (8-bit features)
    let table_bytes = cfg.total_params() as f64; // 1 byte per stored feature
    let spill_fraction = (1.0 - opts.config.mem_xbar_bytes as f64 / table_bytes).max(0.0);
    let spilled_reads = profile.misses_per_point() * total_points * spill_fraction;
    let feat_bytes = cfg.feat_dim as f64;
    // amortized extra cycles per spilled read (DRAM burst pipelining)
    let dram_cycles = spilled_reads * 4.0 / opts.config.addr_generators as f64;
    let encoding_cycles = lookup_cycles.max(fusion_cycles) + dram_cycles;

    // ---- MLP stage ----------------------------------------------------
    let xbar = XbarGeometry::paper();
    let density_model = MlpEngineModel::new(model.density_mlp(), xbar, opts.tech);
    let color_model = MlpEngineModel::new(model.color_mlp(), xbar, opts.tech);
    let pipes = opts.config.mlp_pipelines;
    let density_cycles =
        density_model.total_cycles(stats.total_density(), opts.config.density_engines * pipes);
    let color_cycles =
        color_model.total_cycles(stats.total_color(), opts.config.color_engines * pipes);
    let mlp_cycles = density_cycles.max(color_cycles);

    // ---- volume rendering engine ---------------------------------------
    let work = RenderEngineWork::from_stats(stats, 4);
    let render_cycles =
        work.cycles(opts.config.approx_units, opts.config.rgb_units, opts.config.adaptive_units);

    let total_cycles = encoding_cycles.max(mlp_cycles).max(render_cycles);
    let time_s = total_cycles / CLOCK_HZ;

    // ---- energy ---------------------------------------------------------
    let e = &opts.energy;
    let total_accesses =
        (profile.hits + profile.misses) as f64 / profile.points.max(1) as f64 * total_points;
    let misses = profile.misses_per_point() * total_points;
    let encoding_energy_pj = misses * e.mem_row_read_pj
        + total_accesses * e.reg_cache_access_pj
        + fusion_ops * 8.0 * feat_bytes * e.digital_mac_pj;
    let mlp_energy_pj = stats.total_density() as f64 * density_model.energy_per_exec_pj(e)
        + stats.total_color() as f64 * color_model.energy_per_exec_pj(e);
    let render_energy_pj = work.energy_pj(e);
    // buffer traffic: encoded features in, σ/color out per point
    let buffer_bytes_per_point = (cfg.encoded_dim() + 16 + 4) as f64;
    let buffer_energy_pj =
        total_points * buffer_bytes_per_point * opts.config.buffer().access_energy_pj() / 32.0; // energy model is per 32-byte access width
    let dram_energy_pj = spilled_reads * feat_bytes * e.dram_access_pj_per_byte;
    // static / background power of the whole chip (Table 2 published total)
    let static_energy_pj = opts.config.total_power_w() * time_s * 1e12;
    let total_energy_pj = encoding_energy_pj
        + mlp_energy_pj
        + render_energy_pj
        + buffer_energy_pj
        + dram_energy_pj
        + static_energy_pj;

    PerfReport {
        encoding_cycles,
        mlp_cycles,
        render_cycles,
        total_cycles,
        time_s,
        fps: 1.0 / time_s.max(1e-12),
        encoding_energy_j: pj_to_j(encoding_energy_pj),
        mlp_energy_j: pj_to_j(mlp_energy_pj),
        render_energy_j: pj_to_j(render_energy_pj),
        buffer_energy_j: pj_to_j(buffer_energy_pj),
        dram_energy_j: pj_to_j(dram_energy_pj),
        total_energy_j: pj_to_j(total_energy_pj),
        cache_hit_rate: profile.hit_rate(),
        conflicts_per_point: profile.conflicts_per_point(),
    }
}

/// Returns the raw encoding profile for a render (exposed for the cache-size
/// and mapping DSE experiments).
pub fn encoding_profile(
    model: &NgpModel,
    cam: &Camera,
    out: &RenderOutput,
    opts: &ChipOptions,
) -> EncodingProfile {
    let cfg = model.encoder().config();
    let cache_entries = opts
        .cache_entries_per_table
        .unwrap_or_else(|| opts.config.cache_entries_per_table(cfg.levels));
    // each level's region spans its share of the chip's Mem-Xbar pool
    // (2 bytes per entry: feat_dim 8-bit features)
    let span = (opts.config.mem_xbar_bytes / cfg.feat_dim as u64 / cfg.levels as u64)
        .max(cfg.table_size as u64);
    simulate_encoding_with_span(
        model,
        cam,
        &out.plan,
        opts.mapping,
        cache_entries,
        opts.lane_override.unwrap_or(opts.config.addr_generators),
        opts.trace_ray_stride,
        span,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::engine::{ExecPolicy, FrameEngine};
    use crate::algo::renderer::RenderOptions;
    use asdr_nerf::fit::fit_ngp;
    use asdr_nerf::grid::GridConfig;
    use asdr_scenes::registry;

    fn setup() -> (NgpModel, asdr_math::Camera) {
        let model = fit_ngp(registry::handle("Lego").build().as_ref(), &GridConfig::tiny());
        let cam = registry::handle("Lego").camera(24, 24);
        (model, cam)
    }

    fn render(model: &NgpModel, cam: &asdr_math::Camera, opts: &RenderOptions) -> RenderOutput {
        FrameEngine::new(opts.clone(), ExecPolicy::TileStealing { tile_size: 8 })
            .expect("options are valid")
            .render_frame(model, cam)
    }

    #[test]
    fn report_is_positive_and_consistent() {
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let r = simulate_chip(&model, &cam, &out, &ChipOptions::server());
        assert!(r.total_cycles > 0.0);
        assert!(r.fps > 0.0);
        assert!(r.total_energy_j > 0.0);
        assert!(r.total_cycles >= r.encoding_cycles.max(r.mlp_cycles).max(r.render_cycles) - 1.0);
        assert!(r.cache_hit_rate > 0.0 && r.cache_hit_rate < 1.0);
    }

    #[test]
    fn asdr_optimizations_speed_up_the_chip() {
        let (model, cam) = setup();
        let base = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let asdr = render(&model, &cam, &RenderOptions::asdr_default(32));
        let opts = ChipOptions::server();
        let r_base = simulate_chip(&model, &cam, &base, &opts);
        let r_asdr = simulate_chip(&model, &cam, &asdr, &opts);
        assert!(
            r_asdr.total_cycles < r_base.total_cycles,
            "ASDR {} vs baseline {}",
            r_asdr.total_cycles,
            r_base.total_cycles
        );
        assert!(r_asdr.total_energy_j < r_base.total_energy_j);
    }

    #[test]
    fn strawman_is_slower_than_optimized_hw() {
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::instant_ngp(32));
        let opt = simulate_chip(&model, &cam, &out, &ChipOptions::server());
        let straw = simulate_chip(&model, &cam, &out, &ChipOptions::server().strawman());
        assert!(straw.encoding_cycles > opt.encoding_cycles);
        assert_eq!(straw.cache_hit_rate, 0.0);
    }

    #[test]
    fn edge_is_slower_than_server() {
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::asdr_default(32));
        let s = simulate_chip(&model, &cam, &out, &ChipOptions::server());
        let e = simulate_chip(&model, &cam, &out, &ChipOptions::edge());
        assert!(e.total_cycles > s.total_cycles);
    }

    #[test]
    fn tech_variants_order_as_in_fig26() {
        let (model, cam) = setup();
        let out = render(&model, &cam, &RenderOptions::asdr_default(32));
        let mk = |tech| {
            let opts = ChipOptions { tech, ..ChipOptions::server() };
            simulate_chip(&model, &cam, &out, &opts)
        };
        let reram = mk(MemTech::Reram);
        let sram = mk(MemTech::SramCim);
        let sa = mk(MemTech::SramDigital);
        assert!(reram.mlp_cycles <= sram.mlp_cycles);
        assert!(sram.mlp_cycles < sa.mlp_cycles);
        assert!(reram.mlp_energy_j < sram.mlp_energy_j);
        assert!(sram.mlp_energy_j < sa.mlp_energy_j);
    }
}
