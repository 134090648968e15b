//! The cross-process cold-fit lock protocol, exercised in-process with
//! separate [`ModelStore`] instances over one directory (each store is a
//! process in spirit — they share no memory state, only the filesystem).
//! The genuinely multi-process analogue is `store_lock_multiproc.rs`.

use asdr_nerf::NgpModel;
use asdr_scenes::registry;
use asdr_serve::ModelStore;
use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, SystemTime};

mod common;
use common::{blank_model, test_grid};

fn model_tag(m: &NgpModel) -> f32 {
    m.color_mlp().layers()[0].bias()[0]
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asdr_lock_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_cold_stores_fit_once_through_the_lock_file() {
    let dir = fresh_dir("dedup");
    let grid = test_grid();
    let scene = registry::handle("Mic");
    let fits = Arc::new(AtomicUsize::new(0));
    let n = 4;
    let gate = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let (dir, grid, scene, fits, gate) =
                (dir.clone(), grid.clone(), scene.clone(), fits.clone(), gate.clone());
            std::thread::spawn(move || {
                // each thread its own store over the shared directory: the
                // in-memory single-flight cannot help, only the lock file
                let store = ModelStore::builder().dir(&dir).build();
                gate.wait();
                let m = store.get_or_fit_with(&scene, &grid, || {
                    fits.fetch_add(1, Ordering::SeqCst);
                    // stay under the lock long enough that every peer
                    // arrives at it
                    std::thread::sleep(Duration::from_millis(150));
                    blank_model(&grid, 21.0)
                });
                (model_tag(&m), store.stats())
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(fits.load(Ordering::SeqCst), 1, "the lock file must single-flight the fit");
    assert!(results.iter().all(|(tag, _)| *tag == 21.0), "all stores see the one fitted model");
    let total_fits: u64 = results.iter().map(|(_, s)| s.fits).sum();
    let total_disk_hits: u64 = results.iter().map(|(_, s)| s.disk_hits).sum();
    let total_lock_waits: u64 = results.iter().map(|(_, s)| s.lock_waits).sum();
    assert_eq!(total_fits, 1);
    assert_eq!(total_disk_hits, (n - 1) as u64, "waiters load the published checkpoint");
    assert!(total_lock_waits >= 1, "someone must have blocked on the lock: {results:?}");
    assert!(
        !dir.read_dir()
            .unwrap()
            .any(|e| { e.unwrap().path().extension().is_some_and(|x| x == "lock") }),
        "no lock file survives the protocol"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_lock_from_a_dead_process_is_broken() {
    let dir = fresh_dir("stale");
    let grid = test_grid();
    let scene = registry::handle("Lego");
    std::fs::create_dir_all(&dir).unwrap();
    // a dead process's leftover: a lock file nobody will ever remove
    let survivor = ModelStore::builder().dir(&dir).build();
    let lock: Vec<_> = {
        // fit once just to learn the checkpoint file name, then reset
        survivor.get_or_fit_with(&scene, &grid, || blank_model(&grid, 1.0));
        let names: Vec<_> = dir.read_dir().unwrap().map(|e| e.unwrap().path()).collect();
        for p in &names {
            std::fs::remove_file(p).unwrap();
        }
        names.iter().map(|p| p.with_extension("ckpt.lock")).collect()
    };
    std::fs::write(&lock[0], b"pid 999999\n").unwrap();
    // left there longer ago than the stale timeout
    let past = SystemTime::now() - ModelStore::LOCK_STALE_AFTER - Duration::from_secs(60);
    File::options().write(true).open(&lock[0]).unwrap().set_modified(past).unwrap();
    // a second store (the survivor process, in spirit) must see the lock is
    // stale, break it, and refit rather than hang
    let store = ModelStore::builder().dir(&dir).build();
    let m = store.get_or_fit_with(&scene, &grid, || blank_model(&grid, 33.0));
    assert_eq!(model_tag(&m), 33.0, "the survivor refits after breaking the stale lock");
    let stats = store.stats();
    assert_eq!(stats.fits, 1);
    assert!(stats.lock_steals >= 1, "the stale lock must be counted as stolen: {stats:?}");
    assert!(!lock[0].exists(), "the broken lock is gone");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_waiter_loads_the_checkpoint_the_lock_holder_publishes() {
    let dir = fresh_dir("handoff");
    let grid = test_grid();
    let scene = registry::handle("Chair");
    let gate = Arc::new(Barrier::new(2));
    let fitter = {
        let (dir, grid, scene, gate) = (dir.clone(), grid.clone(), scene.clone(), gate.clone());
        std::thread::spawn(move || {
            let store = ModelStore::builder().dir(&dir).build();
            store.get_or_fit_with(&scene, &grid, || {
                gate.wait(); // the lock is held; let the waiter go
                std::thread::sleep(Duration::from_millis(120));
                blank_model(&grid, 55.0)
            });
            store.stats()
        })
    };
    gate.wait();
    let waiter = ModelStore::builder().dir(&dir).build();
    let m = waiter.get_or_fit_with(&scene, &grid, || unreachable!("the waiter must never fit"));
    assert_eq!(model_tag(&m), 55.0, "the waiter gets the holder's model, bit for bit");
    let fitter_stats = fitter.join().unwrap();
    let waiter_stats = waiter.stats();
    assert_eq!(fitter_stats.fits, 1);
    assert_eq!((waiter_stats.fits, waiter_stats.disk_hits), (0, 1));
    assert_eq!(waiter_stats.lock_waits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
