//! Property tests for the fleet wire codec: arbitrary messages of every
//! kind round-trip exactly (down to pixel bit patterns), every proper
//! prefix of a frame or payload is a named error, and byte corruption
//! anywhere in a stream degrades to a named error — never a panic.

use asdr_cluster::wire::{self, Message, WireRequest, WireResult, WireStats};
use asdr_cluster::{Listener, LocalShards, Server, ShardAddr};
use asdr_math::Image;
use asdr_obs::TraceId;
use asdr_scenes::registry::OrbitCamera;
use asdr_serve::{Priority, RenderProfile, ServeError, ServeStats, StoreStats};
use proptest::{array, collection, prelude::*};
use std::time::Duration;

const SCENES: [&str; 4] = ["Mic", "Lego", "Pulse", "Palace"];

/// Every tag no message has now: `Submitted` (3) until wire version 3
/// stopped acknowledging a submit, the pool resize pair (16 and 17) until
/// version 4 fixed each shard's pool at build, and `Refused` (4) until
/// version 5 ended every request without a result with one `Failed`.
const RETIRED_TAGS: [u8; 4] = [3, 4, 16, 17];

/// The tags messages have now, one per kind [`build_message`] makes.
const LIVE_TAGS: [u8; 14] = [0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// (scene, resolution, frames, azimuth, priority, deadline_us, camera?,
/// trace seed — even seeds give the unset id, which must encode as the
/// pre-trace wire shape; odd seeds spread over the full 64-bit space)
type ReqTuple = (usize, u64, u64, f32, u8, u64, u8, u64);

/// (kind, id, counter, flag, request fields) — everything one arbitrary
/// message is built from. `Result` and `Stats` payloads derive their
/// fields from the same numbers so the whole message is generated.
type MsgTuple = (u8, u64, u64, u8, ReqTuple);

fn build_request(
    (scene, resolution, frames, az, prio, deadline, cam, trace_seed): ReqTuple,
) -> WireRequest {
    let trace = match trace_seed % 2 {
        0 => 0,
        _ => trace_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    };
    WireRequest {
        trace: TraceId::from_u64(trace),
        scene: SCENES[scene].to_string(),
        resolution: resolution as u32,
        frames,
        azimuth_step_deg: az,
        priority: match prio {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        },
        deadline_us: (deadline > 0).then_some(deadline),
        camera: (cam > 0)
            .then_some(OrbitCamera { azimuth_deg: az * 3.0, ..OrbitCamera::default() }),
    }
}

/// A deterministic image whose channels sweep float bit patterns
/// (negatives, subnormals, huge magnitudes) — NaN excluded only because
/// `PartialEq` can't witness it; the codec itself is bit-transparent.
fn build_image(w: u32, h: u32, seed: u32) -> Image {
    let mut img = Image::new(w, h);
    for (i, px) in img.pixels_mut().iter_mut().enumerate() {
        let channel = |salt: u32| {
            let bits =
                seed.wrapping_mul(0x9e37_79b9).wrapping_add((i as u32) << 8).wrapping_add(salt);
            let v = f32::from_bits(bits);
            if v.is_nan() {
                f32::from_bits(bits & 0x803f_ffff) // clear NaN exponent, keep sign+mantissa
            } else {
                v
            }
        };
        px.r = channel(1);
        px.g = channel(2);
        px.b = channel(3);
    }
    img
}

fn build_stats(seed: u64) -> WireStats {
    let n = |k: u64| seed.wrapping_mul(k) % 100_000;
    let f = |k: u64| (seed.wrapping_mul(k) % 10_000) as f64 / 16.0;
    WireStats {
        workers: n(3),
        serve: ServeStats {
            requests: n(7),
            frames: n(11),
            reused_frames: n(13),
            deadlined_requests: n(17),
            deadline_misses: n(19),
            probe_points: n(23),
            p50_latency_ms: f(29),
            p95_latency_ms: f(31),
            mean_queue_wait_ms: f(37),
            throughput_fps: f(41),
            probe_points_avoided_est: f(43),
            density_evals: n(83),
            color_evals: n(89),
            skipped_density: n(97),
            skipped_color: n(101),
            store: StoreStats {
                memory_hits: n(47),
                disk_hits: n(53),
                fits: n(59),
                evictions: n(61),
                disk_errors: n(67),
                single_flight_waits: n(71),
                lock_waits: n(73),
                lock_steals: n(79),
                resident: (n(83) % 64) as usize,
            },
        },
    }
}

fn build_message((kind, id, n, flag, req): MsgTuple) -> Message {
    let flag = flag > 0;
    let req = build_request(req);
    let why = format!("shard said: {n}");
    match LIVE_TAGS[kind as usize] {
        0 => Message::Hello { version: (id % 256) as u8 },
        1 => Message::HelloOk { shard: n },
        2 => Message::Submit { id, req },
        5 => Message::Result {
            id,
            result: WireResult {
                trace: req.trace,
                scene: req.scene,
                resolution: req.resolution,
                reused_frames: n % 8,
                queue_wait_us: n,
                latency_us: n.wrapping_mul(3),
                deadline_met: [None, Some(true), Some(false)][(n % 3) as usize],
                completed_seq: id,
                images: (0..n % 3)
                    .map(|i| build_image(1 + (n % 3) as u32, 1 + (id % 3) as u32, i as u32))
                    .collect(),
            },
        },
        6 => Message::Failed {
            id,
            error: match n % 6 {
                0 => ServeError::QueueFull { capacity: id as usize },
                1 => ServeError::ShuttingDown,
                2 => ServeError::InvalidRequest(why),
                3 => ServeError::RenderFailed(why),
                4 => ServeError::Connection(why),
                _ => ServeError::Protocol(why),
            },
        },
        7 => Message::Cancel { id },
        8 => Message::StatsPoll { id },
        9 => Message::Stats { id, stats: build_stats(n) },
        10 => Message::Health { id },
        11 => Message::HealthOk { id },
        12 => Message::Prewarm { id, scene: req.scene },
        13 => Message::Warmed { id, ok: flag },
        14 => Message::Drain { id },
        _ => Message::Draining { id },
    }
}

fn arb_msg_tuple() -> impl Strategy<Value = MsgTuple> {
    (
        0u8..LIVE_TAGS.len() as u8,
        0u64..1_000_000_000,
        0u64..100_000,
        0u8..2,
        (
            0usize..SCENES.len(),
            1u64..=128,
            1u64..=16,
            -30.0f32..30.0,
            0u8..3,
            0u64..5_000_000,
            0u8..2,
            // half the seeds give no trace id, so both wire shapes
            // (pre-trace and trace-carrying) stay under the properties
            0u64..1_000_000_000,
        ),
    )
}

proptest! {
    #[test]
    fn every_message_kind_round_trips_and_streams(
        raw in collection::vec(arb_msg_tuple(), 1..10),
    ) {
        let msgs: Vec<Message> = raw.clone().into_iter().map(build_message).collect();
        // payload round trip, one message at a time
        for msg in &msgs {
            let bytes = msg.encode();
            let back = match Message::decode(&bytes) {
                Ok(m) => m,
                Err(e) => return Err(TestCaseError::Fail(format!("{msg:?}: {e}"))),
            };
            prop_assert_eq!(&back, msg);
            prop_assert_eq!(back.encode(), bytes); // re-encoding is byte-stable
        }
        // framed stream round trip, ending cleanly at EOF
        let mut buf = Vec::new();
        for msg in &msgs {
            wire::write_frame(&mut buf, msg).unwrap();
        }
        let mut cursor = &buf[..];
        let mut back = Vec::new();
        while let Some(msg) = wire::read_frame(&mut cursor).map_err(TestCaseError::Fail)? {
            back.push(msg);
        }
        prop_assert_eq!(back, msgs);
    }

    #[test]
    fn result_frames_survive_bit_exactly(
        dims in (1u32..=4, 1u32..=4),
        seeds in collection::vec(0u32..=0xffff_fffe, 1..4),
        id in 0u64..10_000,
    ) {
        let msg = Message::Result {
            id,
            result: WireResult {
                trace: TraceId::UNSET,
                scene: "Mic".into(),
                resolution: dims.0,
                reused_frames: 0,
                queue_wait_us: id,
                latency_us: id * 2,
                deadline_met: None,
                completed_seq: id,
                images: seeds.iter().map(|&s| build_image(dims.0, dims.1, s)).collect(),
            },
        };
        let bytes = msg.encode();
        let back = Message::decode(&bytes).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(&back, &msg);
        let (Message::Result { result: a, .. }, Message::Result { result: b, .. }) = (&msg, &back)
        else {
            return Err(TestCaseError::Fail("decoded to a different kind".into()));
        };
        for (ia, ib) in a.images.iter().zip(&b.images) {
            for (pa, pb) in ia.pixels().iter().zip(ib.pixels()) {
                prop_assert_eq!(pa.r.to_bits(), pb.r.to_bits());
                prop_assert_eq!(pa.g.to_bits(), pb.g.to_bits());
                prop_assert_eq!(pa.b.to_bits(), pb.b.to_bits());
            }
        }
    }

    #[test]
    fn trace_ids_round_trip_both_wire_directions(
        trace in 1u64..=u64::MAX,
        req in arb_msg_tuple(),
    ) {
        // Submit direction
        let mut wire_req = build_request(req.4);
        wire_req.trace = TraceId::from_u64(trace);
        let msg = Message::Submit { id: req.1, req: wire_req };
        let Message::Submit { req: back, .. } = Message::decode(&msg.encode()).unwrap() else {
            return Err(TestCaseError::Fail("Submit decoded to a different kind".into()));
        };
        prop_assert_eq!(back.trace.as_u64(), trace);
        // Result direction
        let result = WireResult {
            trace: TraceId::from_u64(trace),
            scene: "Mic".into(),
            resolution: 2,
            reused_frames: 0,
            queue_wait_us: 1,
            latency_us: 2,
            deadline_met: Some(trace % 2 == 0),
            completed_seq: 3,
            images: vec![],
        };
        let msg = Message::Result { id: req.1, result };
        let Message::Result { result: back, .. } = Message::decode(&msg.encode()).unwrap() else {
            return Err(TestCaseError::Fail("Result decoded to a different kind".into()));
        };
        prop_assert_eq!(back.trace.as_u64(), trace);
        prop_assert_eq!(back.deadline_met, Some(trace % 2 == 0));
    }

    #[test]
    fn every_truncation_is_a_named_error(raw in arb_msg_tuple()) {
        let msg = build_message(raw);
        // every proper prefix of the bare payload
        let payload = msg.encode();
        for cut in 0..payload.len() {
            let e = match Message::decode(&payload[..cut]) {
                Ok(m) => return Err(TestCaseError::Fail(format!(
                    "a {cut}-byte prefix of a {}-byte payload decoded to {m:?}", payload.len()
                ))),
                Err(e) => e,
            };
            prop_assert!(e.starts_with("wire message: "), "cut {}: {}", cut, e);
        }
        // every proper prefix of the framed form (cut 0 is a clean EOF)
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &msg).unwrap();
        prop_assert_eq!(wire::read_frame(&mut &buf[..0]).map_err(TestCaseError::Fail)?, None);
        for cut in 1..buf.len() {
            let e = match wire::read_frame(&mut &buf[..cut]) {
                Ok(m) => return Err(TestCaseError::Fail(format!(
                    "a {cut}-byte prefix of a {}-byte frame read as {m:?}", buf.len()
                ))),
                Err(e) => e,
            };
            prop_assert!(
                e.starts_with("wire frame: ") || e.starts_with("wire message: "),
                "cut {}: {}", cut, e
            );
        }
    }

    #[test]
    fn corrupted_streams_never_panic(
        raw in collection::vec(arb_msg_tuple(), 1..4),
        flips in array::uniform4((0usize..100_000, 1u8..=255)),
    ) {
        let mut buf = Vec::new();
        for t in &raw {
            wire::write_frame(&mut buf, &build_message(*t)).unwrap();
        }
        for (pos, mask) in flips {
            let at = pos % buf.len();
            buf[at] ^= mask;
        }
        // The stream may still parse (a flipped id is a valid id) or fail;
        // the property is that failures are named and nothing panics.
        let mut cursor = &buf[..];
        loop {
            match wire::read_frame(&mut cursor) {
                Ok(None) => break,
                Ok(Some(_)) => {}
                Err(e) => {
                    prop_assert!(
                        e.starts_with("wire frame: ") || e.starts_with("wire message: "),
                        "unnamed error: {}", e
                    );
                    break;
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn the_retired_tags_decode_as_named_errors(
        tail in collection::vec(0u8..=255, 0..24),
    ) {
        for tag in RETIRED_TAGS {
            let mut payload = vec![tag];
            payload.extend_from_slice(&tail);
            let e = Message::decode(&payload).unwrap_err();
            prop_assert!(e.contains(&format!("unknown message tag {tag}")), "{}", e);
            let mut frame = Vec::new();
            wire::push_varint(&mut frame, payload.len() as u64);
            frame.extend_from_slice(&payload);
            let e = wire::read_frame(&mut &frame[..]).unwrap_err();
            prop_assert!(e.starts_with("wire message: "), "{}", e);
        }
    }
}

/// A version-2 client waits for a `Submitted` no shard sends any more, a
/// version-3 one may ask for a pool resize no shard answers, and a
/// version-4 one expects a longer `HealthOk` than a shard sends: the
/// handshake turns all three away, and a current client on the same server
/// is answered.
#[test]
fn a_hello_at_version_2_is_turned_away() {
    let sock = std::env::temp_dir().join(format!("asdr-wire-v2-{}.sock", std::process::id()));
    let (listener, addr) = Listener::bind(&ShardAddr::Unix(sock.clone())).unwrap();
    let shards = LocalShards { shards: 1, ..LocalShards::new(RenderProfile::tiny()) };
    let server = Server::new(shards.build().unwrap().remove(0), 0);
    let running = server.clone();
    let run = std::thread::spawn(move || running.run(&listener));
    let hello = |version| {
        let mut stream = addr.connect().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        wire::write_frame(&mut stream, &Message::Hello { version }).unwrap();
        wire::read_frame(&mut stream).unwrap()
    };
    assert_eq!(wire::VERSION, 5);
    assert_eq!(hello(2), None, "a version-2 peer was let in");
    assert_eq!(hello(3), None, "a version-3 peer was let in");
    assert_eq!(hello(4), None, "a version-4 peer was let in");
    assert_eq!(hello(wire::VERSION), Some(Message::HelloOk { shard: 0 }));
    server.stop();
    run.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn empty_and_garbage_inputs_error_cleanly() {
    assert!(Message::decode(&[]).unwrap_err().starts_with("wire message: "));
    assert!(Message::decode(&[250, 1, 2, 3]).unwrap_err().contains("unknown message tag"));
    assert_eq!(wire::read_frame(&mut &[][..]).unwrap(), None);
    assert!(wire::read_frame(&mut &b"\x7fgarbage"[..]).unwrap_err().starts_with("wire frame: "));
}
