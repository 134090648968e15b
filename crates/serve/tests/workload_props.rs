//! Property tests for the one workload format: any request inside the
//! parser's bounds, written by `write_workload`, parses back equal (an
//! orbit step bit for bit, `origin` the line it was written on), and no
//! cut of a written file makes `parse_workload` panic — a prefix either
//! parses or fails naming the line the cut fell in.

use asdr_serve::workload::{
    parse_workload, write_workload, MAX_AT_MS, MAX_DEADLINE_MS, MAX_FRAMES, MAX_PIXELS,
};
use asdr_serve::{Priority, TimedRequest};
use proptest::collection;
use proptest::prelude::*;

/// What scene names are spelled from: the characters JSON must escape
/// (`"`, `\`, controls), a space, and multi-byte UTF-8.
const NAME_CHARS: [char; 10] = ['M', 'i', 'c', '"', '\\', ' ', '\t', '\u{1}', 'é', '雪'];

fn arb_request() -> impl Strategy<Value = TimedRequest> {
    (
        collection::vec(0..NAME_CHARS.len(), 1..12),
        (0u64..=MAX_AT_MS, 1u64..=MAX_FRAMES, 0u8..3),
        // the widest side one frame may have: MAX_PIXELS, not MAX_RESOLUTION, binds
        (0u8..2, 1u64..=MAX_PIXELS.isqrt()),
        (0u8..2, 1u64..=MAX_DEADLINE_MS),
        // every f32 bit pattern from +0 to 360 (positive floats order by
        // their bits), so subnormals and long decimals are drawn too
        (0u8..2, 0u32..=360f32.to_bits()),
    )
        .prop_map(|(name, (at_ms, frames, prio), res, deadline, step)| TimedRequest {
            at_ms,
            scene: name.into_iter().map(|c| NAME_CHARS[c]).collect(),
            // frames and resolution are drawn apart, then held to the bound
            // on their product, so its edge is drawn too (a line without a
            // resolution meets that bound only at submit)
            frames: match res {
                (1, side) => frames.min(MAX_PIXELS / (side * side)),
                _ => frames,
            } as usize,
            resolution: (res.0 == 1).then_some(res.1 as u32),
            priority: match prio {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            },
            deadline_ms: (deadline.0 == 1).then_some(deadline.1),
            azimuth_step_deg: (step.0 == 1).then_some(f32::from_bits(step.1)),
            origin: 0,
        })
}

proptest! {
    #[test]
    fn written_requests_parse_back_equal(entries in collection::vec(arb_request(), 0..8)) {
        let text = write_workload(&entries);
        let back = match parse_workload(&text) {
            Ok(back) => back,
            Err(e) => return Err(TestCaseError::Fail(format!("{e} in\n{text}"))),
        };
        prop_assert_eq!(back.len(), entries.len());
        for (i, (got, want)) in back.iter().zip(&entries).enumerate() {
            prop_assert_eq!(got, &TimedRequest { origin: i + 1, ..want.clone() });
            prop_assert_eq!(
                got.azimuth_step_deg.map(f32::to_bits),
                want.azimuth_step_deg.map(f32::to_bits)
            );
        }
    }

    #[test]
    fn every_prefix_parses_or_names_its_line(entries in collection::vec(arb_request(), 1..4)) {
        let text = write_workload(&entries);
        let cuts = text.char_indices().map(|(i, _)| i).chain([text.len()]);
        for cut in cuts {
            let prefix = &text[..cut];
            let lines = prefix.lines().count();
            match parse_workload(prefix) {
                Ok(parsed) => prop_assert!(parsed.len() == lines, "{:?} parsed short", prefix),
                Err(e) => prop_assert!(
                    e.starts_with(&format!("line {lines}: ")),
                    "a cut in line {} failed as {:?}",
                    lines,
                    e
                ),
            }
        }
    }
}
