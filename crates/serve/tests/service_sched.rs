//! Scheduler contracts: deadline-aware priority ordering, one request per
//! claim, bounded admission, and schedule-independent output.
//!
//! The services here run over stores pre-populated with cheap blank models
//! (the scheduler does not care what the model predicts), a paused worker
//! pool so whole bursts are staged before anything runs, and
//! `completed_seq` on each result as the observable execution order.

use asdr_scenes::registry::{self, OrbitCamera};
use asdr_serve::workload::{MAX_FRAMES, MAX_RESOLUTION};
use asdr_serve::{ModelStore, Priority, RenderProfile, RenderRequest, RenderService, ServeError};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{blank_model, test_grid};

fn test_profile() -> RenderProfile {
    RenderProfile { grid: test_grid(), base_ns: 16, default_resolution: 16 }
}

/// A store where every named scene is already resident, so no test pays
/// for a real fit.
fn warm_store(scenes: &[&str]) -> Arc<ModelStore> {
    let store = ModelStore::builder().build();
    let grid = test_grid();
    for name in scenes {
        store.get_or_fit_with(&registry::handle(name), &grid, || blank_model(&grid, 0.0));
    }
    Arc::new(store)
}

#[test]
fn queue_pops_priority_then_deadline_then_fifo() {
    let service = RenderService::builder(test_profile())
        .store(warm_store(&["Mic"]))
        .workers(1)
        .paused()
        .build()
        .unwrap();
    let mic = registry::handle("Mic");
    let low =
        service.submit(RenderRequest::frame(mic.clone(), 16).with_priority(Priority::Low)).unwrap();
    let late = service
        .submit(RenderRequest::frame(mic.clone(), 16).with_deadline(Duration::from_secs(60)))
        .unwrap();
    let early = service
        .submit(RenderRequest::frame(mic.clone(), 16).with_deadline(Duration::from_secs(1)))
        .unwrap();
    let plain = service.submit(RenderRequest::frame(mic.clone(), 16)).unwrap();
    let high = service.submit(RenderRequest::frame(mic, 16).with_priority(Priority::High)).unwrap();
    service.start();
    service.shutdown();
    assert_eq!(high.wait().unwrap().completed_seq, 0, "priority first");
    assert_eq!(early.wait().unwrap().completed_seq, 1, "earliest deadline within a priority");
    assert_eq!(late.wait().unwrap().completed_seq, 2, "deadlined before best-effort");
    assert_eq!(plain.wait().unwrap().completed_seq, 3, "FIFO among equals");
    assert_eq!(low.wait().unwrap().completed_seq, 4, "background last");
}

#[test]
fn a_same_scene_request_never_overtakes_a_better_ranked_one() {
    let service = RenderService::builder(test_profile())
        .store(warm_store(&["Mic", "Lego"]))
        .workers(1)
        .paused()
        .build()
        .unwrap();
    let (mic, lego) = (registry::handle("Mic"), registry::handle("Lego"));
    let a1 = service.submit(RenderRequest::frame(mic.clone(), 16)).unwrap();
    let b1 = service.submit(RenderRequest::frame(lego, 16)).unwrap();
    let a2 = service.submit(RenderRequest::frame(mic, 16)).unwrap();
    service.start();
    let stats = service.shutdown();
    // a2 shares a1's scene and resolution but ranks behind b1 (FIFO)
    assert_eq!(a1.wait().unwrap().completed_seq, 0);
    assert_eq!(b1.wait().unwrap().completed_seq, 1, "the other scene keeps its place");
    assert_eq!(a2.wait().unwrap().completed_seq, 2);
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.store.memory_hits, 3, "one lookup per request");
    assert_eq!(stats.store.fits, 2, "only the pre-warm fits");
}

/// Counters are fields of the instance that counts: two services in one
/// process, each over its own store, see only their own work.
#[test]
fn instances_count_only_their_own_work() {
    let build = || {
        RenderService::builder(test_profile())
            .store(warm_store(&["Mic"]))
            .workers(1)
            .paused()
            .build()
            .unwrap()
    };
    let (a, b) = (build(), build());
    let mic = registry::handle("Mic");
    let tickets = [
        a.submit(RenderRequest::sequence(mic.clone(), 16, 2)).unwrap(),
        b.submit(RenderRequest::frame(mic.clone(), 16)).unwrap(),
        a.submit(RenderRequest::frame(mic, 16)).unwrap(),
    ];
    a.start();
    b.start();
    for t in &tickets {
        t.wait().unwrap();
    }
    let (a, b) = (a.shutdown(), b.shutdown());
    // each store's one pre-warm fit, then one memory hit per request
    assert_eq!((a.requests, a.frames, a.store.fits + a.store.memory_hits), (2, 3, 3), "{a:?}");
    assert_eq!((b.requests, b.frames, b.store.fits + b.store.memory_hits), (1, 1, 2), "{b:?}");
}

#[test]
fn admission_queue_is_bounded() {
    let service = RenderService::builder(test_profile())
        .store(warm_store(&["Mic"]))
        .workers(1)
        .queue_capacity(2)
        .paused()
        .build()
        .unwrap();
    let mic = registry::handle("Mic");
    let _t1 = service.submit(RenderRequest::frame(mic.clone(), 16)).unwrap();
    let _t2 = service.submit(RenderRequest::frame(mic.clone(), 16)).unwrap();
    let err = service.submit(RenderRequest::frame(mic.clone(), 16)).unwrap_err();
    assert_eq!(err, ServeError::QueueFull { capacity: 2 });
    // draining the queue reopens admission
    service.start();
    let t3 = loop {
        match service.submit(RenderRequest::frame(mic.clone(), 16)) {
            Ok(t) => break t,
            Err(ServeError::QueueFull { .. }) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => panic!("unexpected {e}"),
        }
    };
    t3.wait().unwrap();
}

#[test]
fn invalid_requests_are_rejected_at_submit() {
    let service = RenderService::builder(test_profile())
        .store(warm_store(&["Mic"]))
        .workers(1)
        .build()
        .unwrap();
    let mic = registry::handle("Mic");
    let mut zero_frames = RenderRequest::frame(mic.clone(), 16);
    zero_frames.frames = 0;
    assert!(matches!(service.submit(zero_frames), Err(ServeError::InvalidRequest(_))));
    let zero_res = RenderRequest::frame(mic.clone(), 0);
    assert!(matches!(service.submit(zero_res), Err(ServeError::InvalidRequest(_))));
    // one past the bounds the workload reader and the fleet wire enforce:
    // refused before a worker allocates the image or starts the frames
    let mut too_many = RenderRequest::frame(mic.clone(), 16);
    too_many.frames = MAX_FRAMES as usize + 1;
    match service.submit(too_many) {
        Err(ServeError::InvalidRequest(why)) => assert!(why.contains("frames"), "{why}"),
        other => panic!("frames > MAX_FRAMES must be refused, got {other:?}"),
    }
    let too_wide = RenderRequest::frame(mic.clone(), MAX_RESOLUTION as u32 + 1);
    match service.submit(too_wide) {
        Err(ServeError::InvalidRequest(why)) => assert!(why.contains("resolution"), "{why}"),
        other => panic!("resolution > MAX_RESOLUTION must be refused, got {other:?}"),
    }
    // one past MAX_PIXELS, each bound alone kept: one frame a pixel wider
    // than 4096², and two frames of 4096²
    let one_wider = RenderRequest::frame(mic.clone(), 4097);
    let two_widest = RenderRequest::sequence(mic.clone(), 4096, 2);
    for (req, pixels) in [(one_wider, "16785409 pixels"), (two_widest, "33554432 pixels")] {
        match service.submit(req) {
            Err(ServeError::InvalidRequest(why)) => assert!(why.contains(pixels), "{why}"),
            other => panic!("more than MAX_PIXELS must be refused, got {other:?}"),
        }
    }
    // orbit steps that leave some frame without a camera (inf and NaN
    // poison frame 0's azimuth, 2 x 3e38 overflows f32) or pass a full turn
    for step in [f32::INFINITY, f32::NAN, 361.0, 3e38] {
        let mut orbit = RenderRequest::sequence(mic.clone(), 16, 2);
        orbit.azimuth_step_deg = step;
        assert!(
            matches!(service.submit(orbit), Err(ServeError::InvalidRequest(_))),
            "azimuth_step_deg {step} must be refused at submit"
        );
    }
    // a camera override the wire could not carry: each field alone
    let fields: [fn(&mut OrbitCamera, f32); 3] =
        [|c, v| c.azimuth_deg = v, |c, v| c.elevation_deg = v, |c, v| c.radius = v];
    for (field, set) in ["azimuth_deg", "elevation_deg", "radius"].into_iter().zip(fields) {
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut camera = OrbitCamera::default();
            set(&mut camera, v);
            match service.submit(RenderRequest::frame(mic.clone(), 16).with_camera(camera)) {
                Err(ServeError::InvalidRequest(why)) => assert!(why.contains(field), "{why}"),
                other => panic!("camera {field} = {v} must be refused at submit, got {other:?}"),
            }
        }
    }
}

#[test]
fn multi_frame_requests_reuse_their_sample_plan() {
    let service = RenderService::builder(test_profile())
        .store(warm_store(&["Mic"]))
        .workers(1)
        .build()
        .unwrap();
    let r = service
        .submit(RenderRequest::sequence(registry::handle("Mic"), 16, 4))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r.images.len(), 4);
    // a plan is re-probed every 3 frames: 1 and 2 reuse frame 0's, 3 probes again
    assert_eq!(r.reused_frames, 2, "frames 1 and 2 reuse frame 0's plan");
    let stats = service.shutdown();
    assert_eq!(stats.frames, 4);
    assert_eq!(stats.reused_frames, 2);
    assert!(stats.probe_points_avoided_est > 0.0);
}

#[test]
fn output_is_independent_of_workers_and_arrival_order() {
    // the determinism contract behind the cold/warm acceptance test: the
    // same request renders byte-identically no matter how it is scheduled
    let render = |workers: usize, shuffle: bool| {
        let service = RenderService::builder(test_profile())
            .store(warm_store(&["Mic", "Lego"]))
            .workers(workers)
            .paused()
            .build()
            .unwrap();
        let mut reqs = vec![
            RenderRequest::sequence(registry::handle("Mic"), 16, 2),
            RenderRequest::frame(registry::handle("Lego"), 16).with_priority(Priority::High),
            RenderRequest::frame(registry::handle("Mic"), 16),
        ];
        if shuffle {
            reqs.reverse();
        }
        let mut tickets: Vec<_> = reqs.into_iter().map(|r| service.submit(r).unwrap()).collect();
        if shuffle {
            tickets.reverse(); // compare in canonical order
        }
        service.start();
        let images: Vec<_> = tickets.iter().map(|t| t.wait().unwrap().images.clone()).collect();
        service.shutdown();
        images
    };
    let reference = render(1, false);
    for workers in 1..=3 {
        for shuffle in [false, true] {
            assert_eq!(
                render(workers, shuffle),
                reference,
                "{workers} workers, reversed arrival {shuffle}: pixels changed"
            );
        }
    }
}

#[test]
fn a_panicking_scene_fails_its_ticket_not_the_service() {
    // the registry is open, so a scene whose builder panics is reachable
    // user code; it must surface as RenderFailed on that ticket while the
    // worker survives and keeps serving other scenes
    use asdr_scenes::registry::SceneDef;
    if registry::get("sched-panics").is_none() {
        registry::register(SceneDef::new("sched-panics", || panic!("builder exploded"))).unwrap();
    }
    let service = RenderService::builder(test_profile())
        .store(warm_store(&["Mic"]))
        .workers(1)
        .build()
        .unwrap();
    let doomed =
        service.submit(RenderRequest::frame(registry::handle("sched-panics"), 16)).unwrap();
    match doomed.wait() {
        Err(ServeError::RenderFailed(why)) => {
            assert!(why.contains("builder exploded"), "panic payload survives: {why}")
        }
        other => panic!("expected RenderFailed, got {other:?}"),
    }
    // the same worker still serves healthy requests
    let ok = service.submit(RenderRequest::frame(registry::handle("Mic"), 16)).unwrap();
    assert!(ok.wait().is_ok(), "worker must survive a panicked request");
    let stats = service.shutdown();
    assert_eq!(stats.requests, 1, "only the healthy request counts as completed");
}

#[test]
fn deadline_misses_are_counted() {
    let service = RenderService::builder(test_profile())
        .store(warm_store(&["Mic"]))
        .workers(1)
        .build()
        .unwrap();
    let hopeless = service
        .submit(
            RenderRequest::frame(registry::handle("Mic"), 16)
                .with_deadline(Duration::from_nanos(1)),
        )
        .unwrap();
    assert_eq!(hopeless.wait().unwrap().deadline_met, Some(false));
    let relaxed = service
        .submit(
            RenderRequest::frame(registry::handle("Mic"), 16)
                .with_deadline(Duration::from_secs(120)),
        )
        .unwrap();
    assert_eq!(relaxed.wait().unwrap().deadline_met, Some(true));
    // a sentinel "no deadline, really" duration must not overflow the
    // absolute-deadline computation (which would poison the queue lock)
    let forever = service
        .submit(RenderRequest::frame(registry::handle("Mic"), 16).with_deadline(Duration::MAX))
        .unwrap();
    assert_eq!(forever.wait().unwrap().deadline_met, Some(true));
    let stats = service.shutdown();
    assert_eq!((stats.deadlined_requests, stats.deadline_misses), (3, 1));
}

#[test]
fn every_end_arrives_once_and_a_panicking_end_costs_only_itself() {
    use asdr_serve::RenderResult;
    use std::sync::mpsc;
    if registry::get("hook-panics").is_none() {
        use asdr_scenes::registry::SceneDef;
        registry::register(SceneDef::new("hook-panics", || panic!("builder exploded"))).unwrap();
    }
    let (tx, ends) = mpsc::channel();
    let end = |tag: &'static str| {
        let tx = tx.clone();
        move |outcome: Result<RenderResult, ServeError>| tx.send((tag, outcome)).unwrap()
    };
    let service = RenderService::builder(test_profile())
        .store(warm_store(&["Mic"]))
        .workers(1)
        .build()
        .unwrap();
    let mic = RenderRequest::sequence(registry::handle("Mic"), 16, 2);
    service.submit_with(mic.clone(), end("ok")).unwrap();
    let doomed = RenderRequest::frame(registry::handle("hook-panics"), 16);
    service.submit_with(doomed, end("doomed")).unwrap();
    // an end that panics, then one more request on the same single worker
    service.submit_with(mic.clone(), |_| panic!("end exploded")).unwrap();
    service.submit_with(mic, end("after")).unwrap();
    let timeout = Duration::from_secs(60);
    let (tag, ok) = ends.recv_timeout(timeout).expect("the result's end arrives");
    let r = ok.expect("Mic renders");
    assert_eq!((tag, r.scene.as_str(), r.resolution, r.images.len()), ("ok", "Mic", 16, 2));
    assert!(r.latency >= r.queue_wait, "the end sees a coherent latency split");
    let (tag, failed) = ends.recv_timeout(timeout).expect("the failure's end arrives");
    assert!(matches!((tag, failed), ("doomed", Err(ServeError::RenderFailed(_)))));
    let (tag, after) = ends.recv_timeout(timeout).expect("the worker survived the panicking end");
    assert_eq!(tag, "after");
    assert!(after.is_ok());
    assert_eq!(service.shutdown().requests, 3);
    drop(tx);
    assert!(ends.try_recv().is_err(), "each end arrives once");
}
