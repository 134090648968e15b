//! Property tests for the binary trace codec: arbitrary entry vectors
//! round-trip exactly (including arrival ordering and re-numbered
//! origins), and no truncation or header corruption can make `decode`
//! panic — every mutilation degrades to a named error.

use asdr_serve::trace::format;
use asdr_serve::{Priority, TimedRequest};
use proptest::collection;
use proptest::prelude::*;

const SCENES: [&str; 4] = ["Mic", "Lego", "Pulse", "Palace"];

proptest! {
    #[test]
    fn codec_round_trips_arbitrary_traces(
        raw in collection::vec(
            (
                0u64..120_000,
                0usize..SCENES.len(),
                1usize..=64,
                0u32..4,
                0u8..3,
                0u64..4000,
                0u32..3,
            ),
            0..40,
        )
    ) {
        let entries: Vec<TimedRequest> = raw
            .clone()
            .into_iter()
            .map(|(at_ms, scene, frames, res, prio, deadline, az)| TimedRequest {
                at_ms,
                scene: SCENES[scene].to_string(),
                frames,
                resolution: (res > 0).then_some(res * 16),
                priority: match prio {
                    0 => Priority::Low,
                    1 => Priority::Normal,
                    _ => Priority::High,
                },
                deadline_ms: (deadline > 0).then_some(deadline),
                azimuth_step_deg: (az > 0).then_some(az as f32 * 0.75),
                origin: 0,
            })
            .collect();

        // The encoder sorts by arrival (stable) and the decoder numbers
        // records 1-based — that, and nothing else, may change.
        let mut expect = entries.clone();
        expect.sort_by_key(|e| e.at_ms);
        for (i, e) in expect.iter_mut().enumerate() {
            e.origin = i + 1;
        }

        let bytes = format::encode(&entries);
        let decoded = match format::decode(&bytes) {
            Ok(d) => d,
            Err(e) => return Err(TestCaseError::Fail(format!("decode failed: {e}"))),
        };
        prop_assert_eq!(decoded, expect);
    }

    #[test]
    fn truncated_traces_error_instead_of_panicking(
        n in 1usize..12,
        cut_seed in 0usize..10_000,
    ) {
        let entries: Vec<TimedRequest> = (0..n)
            .map(|i| TimedRequest {
                at_ms: i as u64 * 17,
                scene: SCENES[i % SCENES.len()].to_string(),
                frames: 1 + i % 3,
                resolution: Some(32),
                priority: Priority::Normal,
                deadline_ms: Some(100 + i as u64),
                azimuth_step_deg: None,
                origin: 0,
            })
            .collect();
        let bytes = format::encode(&entries);
        let cut = cut_seed % bytes.len();
        let err = match format::decode(&bytes[..cut]) {
            Ok(_) => return Err(TestCaseError::Fail(format!(
                "a {cut}-byte prefix of a {}-byte trace decoded", bytes.len()
            ))),
            Err(e) => e,
        };
        prop_assert!(err.starts_with("trace "), "error names the trace layer: {}", err);
    }

    #[test]
    fn corrupt_headers_are_named(flip in 0usize..8, mask in 1u8..=255) {
        let entries = vec![TimedRequest {
            at_ms: 5,
            scene: "Mic".to_string(),
            frames: 1,
            resolution: None,
            priority: Priority::Normal,
            deadline_ms: None,
            azimuth_step_deg: None,
            origin: 0,
        }];
        let mut bytes = format::encode(&entries);
        bytes[flip] ^= mask;
        let err = match format::decode(&bytes) {
            Ok(_) => return Err(TestCaseError::Fail(
                "decoded a trace with a corrupted magic/version byte".to_string()
            )),
            Err(e) => e,
        };
        prop_assert!(err.starts_with("trace header: "), "{}", err);
    }
}

#[test]
fn empty_and_garbage_inputs_error_cleanly() {
    assert!(format::decode(&[]).unwrap_err().starts_with("trace header: "));
    assert!(format::decode(b"not a trace at all").unwrap_err().starts_with("trace header: "));
}
