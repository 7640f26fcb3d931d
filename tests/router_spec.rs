//! The border router's executable spec, and the engine held to it.
//!
//! The spec itself, `spec_step`, and the harness live in `tests/spec/`.
//! The router's one engine, `BorderRouter::process_frame_at`, rewrites the
//! frame in place and must equal the spec on every frame — valid, corrupted,
//! SCMP, one-hop, trailing-byte, reserved-bit, traced, peering, shortcut or
//! garbage — in verdict, bytes, `processed`/`dropped` and the
//! `router.{forwarded,delivered,drop.*}` counters. Every forward advances
//! the hop pointer, a replay walks as the first pass did, a batch is the
//! frame loop, and every frame in a batch verifies its hop field. The
//! severity floor changes none of it: the properties run with every per-hop
//! span emitted and with events off.

use proptest::prelude::*;

use sciera::dataplane::router::FrameDecision;
use sciera::telemetry::{work, Severity, Telemetry};

mod spec;
use spec::*;

/// Telemetry at the two ends of the runtime floor: every event recorded,
/// and none.
const FLOORS: [fn() -> Telemetry; 2] = [
    || Telemetry::with_severity(Severity::Trace),
    Telemetry::quiet,
];

// -------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame, at every router it reaches, fresh or near hop expiry:
    /// the engine is the spec, and the counters add up. The same frames
    /// again, through the same routers, walk alike. Both floors walk alike
    /// too.
    #[test]
    fn every_frame_walks_as_the_spec_says(
        elements in prop::collection::vec((0usize..10, any::<u16>(), 1u8..=255), 1..12),
        now_off in 0u64..40_000,
    ) {
        let frames: Vec<_> = elements.iter().map(build_frame).collect();
        let now = TS as u64 + now_off;
        let mut runs = Vec::new();
        for floor in FLOORS {
            let mut net = Net::with_telemetry(floor());
            let cold: Vec<_> = frames.iter().map(|f| net.walk(f.clone(), now)).collect();
            let warm: Vec<_> = frames.iter().map(|f| net.walk(f.clone(), now)).collect();
            prop_assert_eq!(&cold, &warm);
            net.check_counters();
            runs.push((cold, net.telemetry.snapshot().counters));
        }
        prop_assert_eq!(&runs[0], &runs[1], "the severity floor changed a walk");
    }

    /// `process_batch` is `process_frame` on every frame in order, and so
    /// the spec: verdicts, bytes, tallies, counters and events, station by
    /// station, at either floor.
    #[test]
    fn a_batch_is_the_frame_loop(
        elements in prop::collection::vec((0usize..10, any::<u16>(), 1u8..=255), 1..16),
        now_off in 0u64..40_000,
    ) {
        let now = TS as u64 + now_off;
        let mut runs = Vec::new();
        for floor in FLOORS {
            let (mut net, mut batched) = (Net::with_telemetry(floor()), Net::with_telemetry(floor()));
            let mut frames: Vec<_> = elements.iter().map(build_frame).collect();
            let (mut submitted, mut outcomes) = (0, Vec::new());
            for (at, ingress) in TRANSIT {
                let mut batch = frames.clone();
                let verdicts = batched.routers.get_mut(at).unwrap().process_batch(&mut batch, ingress, now);
                let want: Vec<_> = frames.iter_mut().map(|f| net.step(at, f, ingress, now)).collect();
                let got: Vec<_> = verdicts.into_iter().zip(&batch).map(|(v, f)| outcome(v, f)).collect();
                prop_assert_eq!(&got, &want, "{}", at);
                prop_assert_eq!(&batch, &frames);
                submitted += frames.len() as u64;
                let mut forwarded = want.iter().map(|o| matches!(o, Outcome::Forward(..)));
                frames.retain(|_| forwarded.next().unwrap());
                outcomes.push(got);
            }
            (batched.expect, batched.tally, batched.events) = (net.expect.clone(), net.tally, net.events);
            batched.check_counters();
            let snap = batched.telemetry.snapshot();
            prop_assert_eq!(snap.counter("router.batch.calls"), Some(TRANSIT.len() as u64));
            prop_assert_eq!(snap.counter("router.batch.frames"), Some(submitted));
            runs.push((outcomes, snap.counters));
        }
        prop_assert_eq!(&runs[0], &runs[1], "the severity floor changed a batch");
    }
}

/// The hand-picked cases, each one more input: every byte of a transit
/// frame flipped, every path kind, fresh and expired, a wrong ingress, the
/// frames only canonicalisation or `Malformed` can take — and one batch of
/// identical frames.
#[test]
fn fixed_cases_equal_the_spec() {
    let mut net = Net::new();
    let mut inputs = vec![vec![0xde, 0xad, 0xbe, 0xef], nested_extension()];
    inputs.extend(["71-100", "71-200"].map(empty_path));
    for trace in [None, Some(42)] {
        // Flipping 0x40 sets a reserved bit at byte 10 and corrupts the
        // last hop's MAC at `len - 8`, among the rest.
        let template = transit(trace);
        for pos in 0..template.len() {
            inputs.push(template.clone());
            inputs.last_mut().unwrap()[pos] ^= 0x40;
        }
        inputs.push([template, vec![0xcc]].concat()); // a trailing byte
        inputs.extend((0..3).map(|which| wire(over(which, trace))));
        inputs.push(one_hop(trace));
    }
    for f in inputs {
        net.walk(f.clone(), NOW);
        net.walk(f, TS as u64 + 22_000); // expired
    }
    let mut f = transit(Some(3));
    net.step("71-100", &mut f, 0, NOW);
    let o = net.step("71-10", &mut f, 27, NOW);
    assert_eq!(counter(&o), Some("router.drop.ingress_mismatch"));
    net.check_counters();

    // N identical frames in one batch verify N hop fields, an AES block each.
    let mut r = Net::new().routers["71-100"].clone();
    let mut frames = vec![transit(None); 24];
    let (verdicts, done) = work::counted(|| r.process_batch(&mut frames, 0, NOW));
    let forwarded = Ok(FrameDecision::Forward { ifid: 31 });
    assert!(verdicts.iter().all(|v| *v == forwarded));
    assert_eq!(done.aes_blocks, 24);
}
