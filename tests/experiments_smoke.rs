//! Smoke test of the full experiment harness at tiny scale: every table and
//! figure generator must run and produce shape-correct output.

use asdr::scenes::registry;
use asdr_bench::experiments::*;
use asdr_bench::{Harness, Scale};

#[test]
fn every_experiment_runs_at_tiny_scale() {
    let mut h = Harness::new(Scale::Tiny);
    let mic = registry::handle("Mic");

    let t1 = tables::run_table1(&mut h);
    assert_eq!(t1.len(), 10);
    let t2 = tables::run_table2();
    assert_eq!(t2.len(), 2);

    let f4 = motivation::run_fig4(&mut h);
    assert!(f4.mean_stride > 0.0);
    let f5 = motivation::run_fig5(&mut h);
    assert!(f5.color > 50.0);
    let f13 = motivation::run_fig13(&mut h);
    assert!(f13.hybrid_avg > f13.naive_avg);

    let q = quality::run_fig16(&mut h, std::slice::from_ref(&mic));
    assert_eq!(q.len(), 1);
    assert!(q[0].instant_ngp.psnr.is_finite());

    let perf = performance::run_perf(&mut h, std::slice::from_ref(&mic));
    assert!(perf[0].asdr_server.fps > 0.0);

    let f20 = ablation::run_fig20(&mut h, std::slice::from_ref(&mic));
    assert!(f20[0].full >= f20[0].strawman);

    let empty = empty_space::run_empty_space(&mut h, std::slice::from_ref(&mic));
    assert!(empty[0].fixed_skipped > 0.5, "Mic is mostly empty space: {:?}", empty[0]);
    assert!(empty[0].counted_ratio > 1.0 && empty[0].host_ratio() > 0.0, "{:?}", empty[0]);

    let f21a = dse::run_fig21a(&mut h, &mic, &[1.0 / 2048.0]);
    assert_eq!(f21a.len(), 2);
    let f22 = dse::run_fig22(&mut h, &mic, &[0, 8]);
    assert!(f22[1].speedup >= 1.0);

    let f24 = gpu_sw::run_fig24(&mut h, std::slice::from_ref(&mic));
    assert!(f24[0].as_ra >= 1.0);

    let f25 = tensorf_exp::run_fig25(&mut h, std::slice::from_ref(&mic));
    assert!(f25[0].asdr_arch_speedup > 1.0);

    let hw = hwconfig::run_hwconfig(&mut h, std::slice::from_ref(&mic), false);
    assert!(hw[0].reram_speedup > 1.0);

    let seq = sequence::run_sequence(&mut h, &registry::handle("Pulse"), 3, 3);
    assert_eq!(seq.frames, 3);
    assert!(seq.probe_savings() > 0.5, "plan reuse saved too little probe work");
    assert!(seq.min_psnr() > 20.0, "plan reuse diverged: {:?}", seq.psnr_vs_per_frame);
}

#[test]
fn printers_do_not_panic() {
    let mut h = Harness::new(Scale::Tiny);
    tables::print_table1(&tables::run_table1(&mut h));
    tables::print_table2(&tables::run_table2());
    motivation::print_fig5(&motivation::run_fig5(&mut h));
    motivation::print_fig13(&motivation::run_fig13(&mut h));
    let q = quality::run_fig16(&mut h, &[registry::handle("Mic")]);
    quality::print_fig16(&q);
    quality::print_table3(&q);
    let empty = empty_space::run_empty_space(&mut h, &[registry::handle("Mic")]);
    empty_space::print_empty_space(&empty);
}

#[test]
fn experiments_run_on_registered_zoo_scenes() {
    // the experiment harness is scene-agnostic: the animated, CSG, and
    // volumetric families run through the same quality + perf paths as the
    // paper scenes, with zero special-casing
    let mut h = Harness::new(Scale::Tiny);
    let zoo: Vec<_> = ["Pulse", "Carved", "Cloud"].map(registry::handle).into();
    let q = quality::run_fig16(&mut h, &zoo);
    assert_eq!(q.len(), 3);
    for r in &q {
        assert!(r.instant_ngp.psnr.is_finite(), "{}: non-finite PSNR", r.id);
        assert!(r.asdr_avg_samples > 0.0, "{}: empty sample plan", r.id);
    }
    let perf = performance::run_perf(&mut h, &zoo[..1]);
    assert!(perf[0].asdr_server.fps > 0.0);
    let t1 = tables::run_table1_on(&mut h, &zoo);
    assert!(t1.iter().all(|r| r.dataset == "ASDR-Zoo" && r.occupancy > 0.0));
}

/// Slow tier: the default-evaluation-scale sweep over the performance scene
/// subset. Run with `cargo test -- --ignored` or
/// `cargo test --features slow-tests`.
#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "Scale::Small sweep over 5 scenes takes minutes; tier-1 runs Scale::Tiny above"
)]
fn quality_and_perf_at_evaluation_scale() {
    let mut h = Harness::new(Scale::Small);
    let perf_set = registry::perf_scenes();
    let q = quality::run_fig16(&mut h, &perf_set);
    assert_eq!(q.len(), perf_set.len());
    for row in &q {
        assert!(row.instant_ngp.psnr.is_finite());
    }
    let perf = performance::run_perf(&mut h, &perf_set);
    for row in &perf {
        assert!(row.asdr_server.fps > 0.0);
    }
}
