//! Regenerates the ASDR paper's tables and figures.
//!
//! ```text
//! experiments <id>... [--scale tiny|small|paper] [--scene NAME]...
//!             [--store-dir DIR] [--list]
//! ```
//!
//! Every experiment lives in one row of [`EXPERIMENTS`]; id validation,
//! dispatch, the `all` subset, and `--list` output are all derived from that
//! single table. `--scene` (repeatable, comma-separable) restricts the
//! scene-driven experiments to the named registry scenes — any registered
//! scene works, including custom ones such as the zoo families. A few
//! analyses are scene-fixed (marked in `--list`); they print a note and
//! ignore the flag rather than silently dropping it. `--store-dir` keeps NGP
//! fits as checkpoints in `DIR` for later runs to reload; else fits stay in memory.

use asdr_bench::experiments::*;
use asdr_bench::{Harness, Scale};
use asdr_core::algo::RenderOptions;
use asdr_core::arch::chip::{simulate_chip, ChipOptions};
use asdr_scenes::{registry, SceneHandle};
use asdr_serve::ModelStore;
use std::sync::Arc;

/// The scene selection an invocation runs on: either the paper defaults of
/// each experiment or the `--scene` override.
struct SceneSel {
    chosen: Option<Vec<SceneHandle>>,
}

impl SceneSel {
    /// The scenes a "full table" experiment iterates (default: all ten
    /// paper scenes).
    fn paper(&self) -> Vec<SceneHandle> {
        self.chosen.clone().unwrap_or_else(registry::paper_scenes)
    }

    /// The scenes a performance experiment iterates (default: the perf
    /// five).
    fn perf(&self) -> Vec<SceneHandle> {
        self.chosen.clone().unwrap_or_else(registry::perf_scenes)
    }

    /// The scenes a whole-registry experiment iterates (default: every
    /// registered scene, paper and zoo).
    fn registered(&self) -> Vec<SceneHandle> {
        self.chosen.clone().unwrap_or_else(registry::all)
    }

    /// The scenes an experiment with a bespoke default subset iterates.
    fn subset(&self, defaults: &[&str]) -> Vec<SceneHandle> {
        self.chosen
            .clone()
            .unwrap_or_else(|| defaults.iter().map(|n| registry::handle(n)).collect())
    }

    /// The scenes a one-scene-at-a-time experiment iterates: every
    /// `--scene` name, or just `default`.
    fn each(&self, default: &str) -> Vec<SceneHandle> {
        self.chosen.clone().unwrap_or_else(|| vec![registry::handle(default)])
    }
}

/// One experiment the CLI can run.
struct Experiment {
    /// Subcommand id.
    id: &'static str,
    /// One-line description for `--list` / `--help`.
    describe: &'static str,
    /// Whether `all` includes this id (aliases and `debug` are excluded).
    in_all: bool,
    /// Whether the experiment honors `--scene` (scene-fixed analyses and
    /// pure-hardware tables do not; they announce that instead of silently
    /// ignoring the flag).
    scene_aware: bool,
    /// Runner.
    run: fn(&mut Harness, &SceneSel),
}

/// Dispatches one experiment, announcing when `--scene` does not apply.
fn run_experiment(e: &Experiment, h: &mut Harness, sel: &SceneSel) {
    if !e.scene_aware && sel.chosen.is_some() {
        eprintln!("note: `{}` is scene-fixed and ignores --scene", e.id);
    }
    (e.run)(h, sel);
}

/// The single source of truth: validation, dispatch, `--list`, and the
/// `all` subset all derive from this table.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        describe: "dataset statistics (scene metadata + occupancy)",
        in_all: true,
        scene_aware: true,
        run: |h, sel| tables::print_table1(&tables::run_table1_on(h, &sel.paper())),
    },
    Experiment {
        id: "table2",
        describe: "ASDR-Server / ASDR-Edge hardware configurations",
        in_all: true,
        scene_aware: false,
        run: |_h, _sel| tables::print_table2(&tables::run_table2()),
    },
    Experiment {
        id: "fig4",
        describe: "hash address trace visualization (Lego)",
        in_all: true,
        scene_aware: false,
        run: |h, _sel| motivation::print_fig4(&motivation::run_fig4(h)),
    },
    Experiment {
        id: "fig5",
        describe: "FLOPs breakdown across pipeline stages",
        in_all: true,
        scene_aware: false,
        run: |h, _sel| motivation::print_fig5(&motivation::run_fig5(h)),
    },
    Experiment {
        id: "fig7",
        describe: "adaptive sample-count heatmaps",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            let out = std::env::temp_dir().join("asdr_figures");
            for id in sel.subset(&["Lego", "Mic"]) {
                visuals::print_fig7(&visuals::run_fig7(h, &id), Some(&out));
            }
        },
    },
    Experiment {
        id: "fig8",
        describe: "adjacent-sample color similarity",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            motivation::print_fig8(&motivation::run_fig8_on(
                h,
                &sel.subset(&["Mic", "Lego", "Palace"]),
            ))
        },
    },
    Experiment {
        id: "fig9",
        describe: "rendering approximation vs naive reduction",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            for id in sel.each("Lego") {
                visuals::print_fig9(&visuals::run_fig9(h, &id));
            }
        },
    },
    Experiment {
        id: "fig13",
        describe: "storage utilization under hybrid mapping",
        in_all: true,
        scene_aware: false,
        run: |h, _sel| motivation::print_fig13(&motivation::run_fig13(h)),
    },
    Experiment {
        id: "fig15",
        describe: "inter/intra-ray point repetition rates",
        in_all: true,
        scene_aware: false,
        run: |h, _sel| motivation::print_fig15(&motivation::run_fig15(h)),
    },
    Experiment {
        id: "quality",
        describe: "rendering quality: Fig. 16 PSNR + Table 3 SSIM/LPIPS",
        in_all: true,
        scene_aware: true,
        run: run_quality,
    },
    Experiment {
        id: "fig16",
        describe: "alias of `quality`",
        in_all: false,
        scene_aware: true,
        run: run_quality,
    },
    Experiment {
        id: "table3",
        describe: "alias of `quality`",
        in_all: false,
        scene_aware: true,
        run: run_quality,
    },
    Experiment {
        id: "perf",
        describe: "end-to-end speedup + energy: Figs. 17-19",
        in_all: true,
        scene_aware: true,
        run: run_perf,
    },
    Experiment {
        id: "fig17",
        describe: "alias of `perf`",
        in_all: false,
        scene_aware: true,
        run: run_perf,
    },
    Experiment {
        id: "fig18",
        describe: "alias of `perf`",
        in_all: false,
        scene_aware: true,
        run: run_perf,
    },
    Experiment {
        id: "fig19",
        describe: "alias of `perf`",
        in_all: false,
        scene_aware: true,
        run: run_perf,
    },
    Experiment {
        id: "fig20",
        describe: "SW/HW contribution ablation",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            ablation::print_fig20(&ablation::run_fig20(
                h,
                &sel.subset(&["Palace", "Fountain", "Family"]),
            ))
        },
    },
    Experiment {
        id: "fig21",
        describe: "design-space sweeps: delta threshold + group size",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            for id in sel.subset(&["Palace", "Fountain", "Family"]) {
                let pts = dse::run_fig21a(h, &id, &[0.0, 1.0 / 2048.0, 1.0 / 256.0]);
                dse::print_fig21a(&id, &pts);
            }
            for id in sel.subset(&["Lego", "Chair", "Mic"]) {
                let pts = dse::run_fig21b(h, &id, &[2, 3, 4]);
                dse::print_fig21b(&id, &pts);
            }
        },
    },
    Experiment {
        id: "fig22",
        describe: "register-cache size sweep",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            for id in sel.perf() {
                let pts = dse::run_fig22(h, &id, &[0, 2, 4, 8, 16]);
                dse::print_fig22(&id, &pts);
            }
        },
    },
    Experiment {
        id: "fig23",
        describe: "early termination x adaptive sampling ablation",
        in_all: true,
        scene_aware: true,
        run: |h, sel| ablation::print_fig23(&ablation::run_fig23(h, &sel.perf())),
    },
    Experiment {
        id: "empty_space",
        describe: "samples the host skips as empty, and fixed / ASDR counted vs wall-clock",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            empty_space::print_empty_space(&empty_space::run_empty_space(h, &sel.registered()))
        },
    },
    Experiment {
        id: "fig24",
        describe: "ASDR algorithms on the GPU (software only)",
        in_all: true,
        scene_aware: true,
        run: |h, sel| gpu_sw::print_fig24(&gpu_sw::run_fig24(h, &sel.paper())),
    },
    Experiment {
        id: "fig25",
        describe: "TensoRF generalization: performance",
        in_all: true,
        scene_aware: true,
        run: |h, sel| tensorf_exp::print_fig25(&tensorf_exp::run_fig25(h, &sel.perf())),
    },
    Experiment {
        id: "table4",
        describe: "TensoRF generalization: quality",
        in_all: true,
        scene_aware: true,
        run: |h, sel| tensorf_exp::print_table4(&tensorf_exp::run_table4(h, &sel.paper())),
    },
    Experiment {
        id: "table5",
        describe: "model families (DVGO / TensoRF / NGP) under ASDR",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            for id in sel.subset(&["Mic", "Lego"]) {
                models_cmp::print_table5(&id, &models_cmp::run_table5(h, &id));
            }
        },
    },
    Experiment {
        id: "fig26",
        describe: "hardware configurations: speedup + energy (Figs. 26-27)",
        in_all: true,
        scene_aware: true,
        run: run_hwconfig,
    },
    Experiment {
        id: "fig27",
        describe: "alias of `fig26`",
        in_all: false,
        scene_aware: true,
        run: run_hwconfig,
    },
    Experiment {
        id: "precision",
        describe: "feature-bit, 8-bit MLP and ADC/noise precision sweeps",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            let dev = precision::run_device_accuracy(&[3, 4, 5, 6, 7, 8], &[0.0, 0.05, 0.1]);
            let scenes = sel.each("Lego");
            for scene in &scenes {
                let feat = precision::run_feature_bits(h, scene, &[3, 4, 5, 6, 8, 10]);
                precision::print_precision(scene, &feat, &dev);
            }
            let rows: Vec<_> = scenes
                .into_iter()
                .map(|s| (s.clone(), precision::run_mlp_precision(h, &s)))
                .collect();
            precision::print_mlp_precision(&rows);
        },
    },
    Experiment {
        id: "sequence",
        describe: "multi-frame sequences: plan reuse vs per-frame re-probing",
        in_all: true,
        scene_aware: true,
        run: |h, sel| {
            for id in sel.each("Pulse") {
                sequence::print_sequence(&sequence::run_sequence(h, &id, 6, 3));
            }
        },
    },
    Experiment {
        id: "debug",
        describe: "raw per-stage cycle breakdown (simulator calibration)",
        in_all: false,
        scene_aware: true,
        run: debug_stage_cycles,
    },
    Experiment {
        id: "all",
        describe: "every experiment marked for the full run",
        in_all: false,
        scene_aware: true,
        run: |h, sel| {
            for e in EXPERIMENTS.iter().filter(|e| e.in_all) {
                run_experiment(e, h, sel);
            }
        },
    },
];

fn run_quality(h: &mut Harness, sel: &SceneSel) {
    let rows = quality::run_fig16(h, &sel.paper());
    quality::print_fig16(&rows);
    let t3_set = quality::table3_scenes();
    let t3: Vec<_> = rows.iter().filter(|r| t3_set.contains(&r.id)).cloned().collect();
    if !t3.is_empty() {
        quality::print_table3(&t3);
    }
}

fn run_perf(h: &mut Harness, sel: &SceneSel) {
    let rows = performance::run_perf(h, &sel.perf());
    performance::print_fig17(&rows);
    performance::print_fig18(&rows);
    performance::print_fig19(&rows);
}

fn run_hwconfig(h: &mut Harness, sel: &SceneSel) {
    for server in [true, false] {
        let rows = hwconfig::run_hwconfig(h, &sel.perf(), server);
        hwconfig::print_fig26(&rows, server);
        hwconfig::print_fig27(&rows, server);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut ids: Vec<String> = Vec::new();
    let mut scene_names: Vec<String> = Vec::new();
    let mut store_dir = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale needs tiny|small|paper"));
            }
            "--tiny" => scale = Scale::Tiny,
            "--scene" => {
                i += 1;
                let arg = args.get(i).unwrap_or_else(|| die("--scene needs a scene name"));
                scene_names.extend(arg.split(',').map(str::to_string));
            }
            "--store-dir" => {
                i += 1;
                store_dir = Some(args.get(i).unwrap_or_else(|| die("--store-dir needs a dir")));
            }
            "--list" => {
                print_list();
                return;
            }
            "-h" | "--help" => {
                print_usage();
                return;
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    // validate everything up front: a typo must not abort a multi-hour run
    // halfway through
    if let Some(bad) = ids.iter().find(|id| find_experiment(id).is_none()) {
        die(&format!("unknown experiment id: {bad} (see --list)"));
    }
    let chosen = if scene_names.is_empty() {
        None
    } else {
        Some(
            scene_names
                .iter()
                .map(|n| {
                    registry::get(n).unwrap_or_else(|| {
                        die(&format!(
                            "unknown scene: {n} (registered: {})",
                            registry::all().iter().map(|s| s.name()).collect::<Vec<_>>().join(", ")
                        ))
                    })
                })
                .collect(),
        )
    };
    let sel = SceneSel { chosen };
    let mut h = match store_dir {
        Some(dir) => Harness::with_store(scale, Arc::new(ModelStore::builder().dir(dir).build())),
        None => Harness::new(scale),
    };
    println!("# ASDR experiments (scale: {scale:?}, kernel: {})", asdr_nerf::kernel::kernel_name());
    for id in &ids {
        let e = find_experiment(id).expect("ids validated above");
        run_experiment(e, &mut h, &sel);
    }
}

fn find_experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn print_usage() {
    println!(
        "usage: experiments <id>... [--scale tiny|small|paper] [--scene NAME]... \
         [--store-dir DIR] [--list]"
    );
    println!("ids:");
    let all_ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    for chunk in all_ids.chunks(12) {
        println!("    {}", chunk.join(" "));
    }
    println!("run `experiments --list` for per-id descriptions");
}

fn print_list() {
    println!("experiments:");
    for e in EXPERIMENTS {
        let tag = if e.in_all { "*" } else { " " };
        let fixed = if e.scene_aware { "" } else { " [scene-fixed]" };
        println!("  {tag} {:<10} {}{fixed}", e.id, e.describe);
    }
    println!("(* = included in `all`; [scene-fixed] ignores --scene)");
    println!("scenes:");
    for s in registry::all() {
        println!(
            "    {:<10} {} ({}x{})",
            s.name(),
            s.dataset(),
            s.resolution().0,
            s.resolution().1
        );
    }
}

/// Prints the raw per-stage cycle breakdown used when calibrating the
/// simulator (not a paper figure).
fn debug_stage_cycles(h: &mut Harness, sel: &SceneSel) {
    let base_ns = h.scale().base_ns();
    for id in sel.subset(&["Palace", "Mic"]) {
        let model = h.model(&id);
        let cam = h.camera(&id);
        let fixed = h.render(&*model, &cam, &RenderOptions::instant_ngp(base_ns));
        let asdr = h.render(&*model, &cam, &RenderOptions::asdr_default(base_ns));
        for (label, out) in [("fixed", &fixed), ("asdr", &asdr)] {
            for (cfg_label, opts) in [
                ("server", ChipOptions::server()),
                ("edge", ChipOptions::edge()),
                ("edge-strawman", ChipOptions::edge().strawman()),
            ] {
                let r = simulate_chip(&model, &cam, out, &opts);
                let pts = out.stats.total_encoded() as f64;
                println!(
                    "{id} {label:>5} {cfg_label:<13} enc {:>9.0} ({:.2}/pt) mlp {:>9.0} ({:.2}/pt) rnd {:>9.0} total {:>9.0} hit {:.2} conf/pt {:.2}",
                    r.encoding_cycles,
                    r.encoding_cycles / pts,
                    r.mlp_cycles,
                    r.mlp_cycles / pts,
                    r.render_cycles,
                    r.total_cycles,
                    r.cache_hit_rate,
                    r.conflicts_per_point,
                );
            }
        }
    }
}
