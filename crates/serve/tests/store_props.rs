//! Model-store contracts: single-flight deduplication, LRU eviction that
//! never touches in-flight fits, and disk-layer degradation (corrupt or
//! stale checkpoints refit instead of panicking).
//!
//! Fits are injected through `get_or_fit_with` so the tests can count,
//! stall, and tag them without paying for real scene fits.

use asdr_nerf::grid::GridConfig;
use asdr_nerf::NgpModel;
use asdr_scenes::procedural::SdfScene;
use asdr_scenes::registry::{self, SceneDef};
use asdr_scenes::{SceneHandle, SceneRegistry};
use asdr_serve::ModelStore;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

mod common;
use common::{blank_model, test_grid};

fn model_tag(m: &NgpModel) -> f32 {
    m.color_mlp().layers()[0].bias()[0]
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_store_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_requests_fit_exactly_once() {
    let store = Arc::new(ModelStore::builder().in_memory_only().build());
    let scene = registry::handle("Mic");
    let grid = test_grid();
    let fits = Arc::new(AtomicUsize::new(0));
    let n = 8;
    let gate = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let (store, scene, grid, fits, gate) =
                (store.clone(), scene.clone(), grid.clone(), fits.clone(), gate.clone());
            std::thread::spawn(move || {
                gate.wait();
                let m = store.get_or_fit_with(&scene, &grid, || {
                    fits.fetch_add(1, Ordering::SeqCst);
                    // stay in flight long enough that every peer arrives
                    std::thread::sleep(Duration::from_millis(100));
                    blank_model(&grid, 7.0)
                });
                model_tag(&m)
            })
        })
        .collect();
    let tags: Vec<f32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(fits.load(Ordering::SeqCst), 1, "single-flight must deduplicate the fit");
    assert!(tags.iter().all(|&t| t == 7.0), "all callers see the one fitted model");
    let stats = store.stats();
    assert_eq!(stats.fits, 1);
    assert_eq!(stats.memory_hits, (n - 1) as u64, "waiters resolve to memory hits");
    assert!(stats.single_flight_waits >= 1, "someone must have blocked: {stats:?}");
}

#[test]
fn lru_eviction_drops_the_least_recent_ready_entry() {
    let store = ModelStore::builder().capacity(2).in_memory_only().build();
    let grid = test_grid();
    let (a, b, c) = (registry::handle("Mic"), registry::handle("Lego"), registry::handle("Chair"));
    store.get_or_fit_with(&a, &grid, || blank_model(&grid, 1.0));
    store.get_or_fit_with(&b, &grid, || blank_model(&grid, 2.0));
    // touch A so B becomes least-recently-used
    store.get_or_fit_with(&a, &grid, || unreachable!("A is resident"));
    store.get_or_fit_with(&c, &grid, || blank_model(&grid, 3.0));
    assert!(store.contains("Mic", &grid), "recently-touched entry survives");
    assert!(store.contains("Chair", &grid), "the newest entry survives");
    assert!(!store.contains("Lego", &grid), "the LRU entry is evicted");
    let stats = store.stats();
    assert_eq!((stats.evictions, stats.resident), (1, 2));
    // an evicted entry refits on revisit (no disk layer here)
    store.get_or_fit_with(&b, &grid, || blank_model(&grid, 4.0));
    assert_eq!(store.stats().fits, 4);
}

#[test]
fn eviction_never_drops_an_in_flight_entry() {
    let store = Arc::new(ModelStore::builder().capacity(1).in_memory_only().build());
    let grid = test_grid();
    let slow = registry::handle("Mic");
    let gate = Arc::new(Barrier::new(2));
    let fitter = {
        let (store, slow, grid, gate) = (store.clone(), slow.clone(), grid.clone(), gate.clone());
        std::thread::spawn(move || {
            store.get_or_fit_with(&slow, &grid, || {
                gate.wait(); // fit has started
                gate.wait(); // hold in flight until the main thread says so
                blank_model(&grid, 9.0)
            })
        })
    };
    gate.wait(); // Mic is now in flight
                 // churn the store well past capacity while the fit is in flight
    for name in ["Lego", "Chair", "Hotdog"] {
        store.get_or_fit_with(&registry::handle(name), &grid, || blank_model(&grid, 0.0));
    }
    assert!(store.stats().evictions >= 2, "churn must actually evict");
    gate.wait(); // release the fitter
    assert_eq!(model_tag(&fitter.join().unwrap()), 9.0);
    // the in-flight entry survived the churn and published normally
    let fits_before = store.stats().fits;
    let m = store.get_or_fit_with(&slow, &grid, || unreachable!("Mic must be resident"));
    assert_eq!(model_tag(&m), 9.0);
    assert_eq!(store.stats().fits, fits_before, "no refit after the churn");
}

#[test]
fn a_panicking_fit_unwinds_cleanly() {
    let store = Arc::new(ModelStore::builder().in_memory_only().build());
    let scene = registry::handle("Mic");
    let grid = test_grid();
    let crashed = {
        let (store, scene, grid) = (store.clone(), scene.clone(), grid.clone());
        std::thread::spawn(move || {
            store.get_or_fit_with(&scene, &grid, || panic!("fit exploded"));
        })
    };
    assert!(crashed.join().is_err(), "the fit panic propagates to its caller");
    // the in-flight marker was unwound: the key is fittable again, not wedged
    let m = store.get_or_fit_with(&scene, &grid, || blank_model(&grid, 5.0));
    assert_eq!(model_tag(&m), 5.0);
    assert_eq!(store.stats().fits, 2, "the panicked attempt counted as a fit too");
}

#[test]
fn checkpoints_survive_across_store_instances() {
    let dir = fresh_dir("warm");
    let grid = test_grid();
    let scene = registry::handle("Mic");
    {
        let cold = ModelStore::builder().dir(&dir).build();
        cold.get_or_fit_with(&scene, &grid, || blank_model(&grid, 42.0));
        assert_eq!(cold.stats().fits, 1);
    }
    // a new store (new process, in spirit) loads the checkpoint instead of
    // fitting
    let warm = ModelStore::builder().dir(&dir).build();
    let m = warm.get_or_fit_with(&scene, &grid, || unreachable!("warm store must not fit"));
    assert_eq!(model_tag(&m), 42.0, "the loaded model is the one that was fitted");
    let stats = warm.stats();
    assert_eq!((stats.fits, stats.disk_hits), (0, 1));
    // different fit config: same scene, separate entry, fresh fit
    let other_grid = GridConfig { levels: 3, ..test_grid() };
    warm.get_or_fit_with(&scene, &other_grid, || blank_model(&other_grid, 1.0));
    assert_eq!(warm.stats().fits, 1, "a new fingerprint must not alias the old checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoints_degrade_to_a_refit() {
    let dir = fresh_dir("corrupt");
    let grid = test_grid();
    let scene = registry::handle("Lego");
    {
        let store = ModelStore::builder().dir(&dir).build();
        store.get_or_fit_with(&scene, &grid, || blank_model(&grid, 6.0));
    }
    let ckpt = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    // truncate mid-file: the load must fail structurally, not panic
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    let store = ModelStore::builder().dir(&dir).build();
    let m = store.get_or_fit_with(&scene, &grid, || blank_model(&grid, 8.0));
    assert_eq!(model_tag(&m), 8.0, "corrupt checkpoint must refit");
    let stats = store.stats();
    assert_eq!((stats.fits, stats.disk_hits, stats.disk_errors), (1, 0, 1));
    // the refit rewrote a valid checkpoint
    let healed = ModelStore::builder().dir(&dir).build();
    let m = healed.get_or_fit_with(&scene, &grid, || unreachable!("checkpoint was healed"));
    assert_eq!(model_tag(&m), 8.0);
    assert_eq!(healed.stats().disk_hits, 1);
    // outright garbage (bad magic) degrades the same way
    std::fs::write(&ckpt, b"not a checkpoint at all").unwrap();
    let store = ModelStore::builder().dir(&dir).build();
    store.get_or_fit_with(&scene, &grid, || blank_model(&grid, 9.0));
    assert_eq!(store.stats().disk_errors, 1);
    // and so does a well-formed file of the retired version 1 (the word
    // after the 8-byte magic): an unreadable format, not a crash
    let mut bytes = std::fs::read(&ckpt).unwrap();
    bytes[8] = 1;
    std::fs::write(&ckpt, &bytes).unwrap();
    let store = ModelStore::builder().dir(&dir).build();
    let m = store.get_or_fit_with(&scene, &grid, || blank_model(&grid, 10.0));
    assert_eq!(model_tag(&m), 10.0, "a v1 checkpoint must refit");
    let stats = store.stats();
    assert_eq!((stats.fits, stats.disk_hits, stats.disk_errors), (1, 0, 1));
    // and so does a file that is whole but for one flipped float: the tag
    // the refit just wrote (the only 10.0 in a blank model) turned NaN
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let tag = bytes.windows(4).rposition(|w| w == 10.0f32.to_le_bytes()).unwrap();
    bytes[tag..tag + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    std::fs::write(&ckpt, &bytes).unwrap();
    let store = ModelStore::builder().dir(&dir).build();
    let m = store.get_or_fit_with(&scene, &grid, || blank_model(&grid, 11.0));
    assert_eq!(model_tag(&m), 11.0, "a checkpoint with a NaN parameter must refit");
    let stats = store.stats();
    assert_eq!((stats.fits, stats.disk_hits, stats.disk_errors), (1, 0, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_name_different_def_refits_instead_of_aliasing() {
    let store = ModelStore::builder().in_memory_only().build();
    let grid = test_grid();
    let real = registry::handle("Mic");
    let from_real = store.get_or_fit_with(&real, &grid, || blank_model(&grid, 1.0));
    // an isolated registry reusing the name with a different definition
    let mut isolated = SceneRegistry::empty();
    let impostor: SceneHandle = isolated
        .register(SceneDef::new("Mic", || {
            Box::new(SdfScene::new(
                "impostor",
                |p| (p.norm() - 0.2, asdr_math::Rgb::WHITE),
                50.0,
                0.03,
            ))
        }))
        .unwrap();
    let from_impostor = store.get_or_fit_with(&impostor, &grid, || blank_model(&grid, 2.0));
    assert!(!Arc::ptr_eq(&from_real, &from_impostor), "alias must refit, not share");
    assert_eq!(model_tag(&from_impostor), 2.0);
    assert_eq!(store.stats().fits, 2);
    // the impostor's entry replaced the original under that key
    let again = store.get_or_fit_with(&impostor, &grid, || unreachable!("impostor resident"));
    assert!(Arc::ptr_eq(&from_impostor, &again));
}

#[test]
fn alias_refits_never_touch_the_named_checkpoint() {
    let dir = fresh_dir("alias");
    let grid = test_grid();
    let real = registry::handle("Chair");
    {
        let store = ModelStore::builder().dir(&dir).build();
        store.get_or_fit_with(&real, &grid, || blank_model(&grid, 11.0));
        // same-name handle from a different def: memory-layer refit only
        let mut isolated = SceneRegistry::empty();
        let impostor: SceneHandle = isolated
            .register(SceneDef::new("Chair", || {
                Box::new(SdfScene::new(
                    "impostor",
                    |p| (p.norm() - 0.2, asdr_math::Rgb::WHITE),
                    50.0,
                    0.03,
                ))
            }))
            .unwrap();
        let m = store.get_or_fit_with(&impostor, &grid, || blank_model(&grid, 66.0));
        assert_eq!(model_tag(&m), 66.0);
    }
    // the checkpoint on disk still holds the *real* scene's model — a later
    // process asking for Chair must not be served the impostor's fit
    let next_process = ModelStore::builder().dir(&dir).build();
    let m = next_process.get_or_fit_with(&real, &grid, || unreachable!("checkpoint intact"));
    assert_eq!(model_tag(&m), 11.0, "alias refit must not overwrite the named checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
