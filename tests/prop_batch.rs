//! Differential property tests for the batched router pipeline:
//! [`BorderRouter::process_batch`] against the sequential per-frame fast
//! path over the same six-AS core-transit walk `prop_fastpath.rs` uses,
//! with proptest-composed batches mixing valid frames, single-byte
//! corruptions, SCMP payloads, one-hop paths, trailing-byte frames,
//! traced frames, raw garbage and duplicates. The two engines must agree
//! on every verdict, every output byte, the `processed`/`dropped` tallies
//! and every shared `router.*` counter — only the observability-only
//! `router.maccache.*` / `router.batch.*` families may differ.

use proptest::prelude::*;

use sciera::control::fullpath::{Direction, FullPath, PathKind, SegmentUse};
use sciera::control::segment::{AsSecrets, CowSegment, PathSegment, SegmentType};
use sciera::dataplane::router::BorderRouter;
use sciera::proto::addr::{ia, HostAddr, ScionAddr, ServiceAddr};
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use sciera::proto::path::{HopField, InfoField};
use sciera::proto::scmp::ScmpMessage;
use sciera::proto::trace::TraceContext;
use sciera::telemetry::Telemetry;

const TS: u32 = 1_700_000_000;

fn secrets(s: &str) -> AsSecrets {
    AsSecrets::derive(ia(s))
}

fn router(s: &str, telemetry: &Telemetry) -> BorderRouter {
    let sec = secrets(s);
    let mut r = BorderRouter::new(sec.ia, sec.hop_key);
    r.set_telemetry(telemetry.clone());
    r
}

fn up_segment() -> PathSegment {
    CowSegment::originate(SegmentType::UpDown, TS, 0x1001)
        .extend(&secrets("71-1"), 0, 11, &[])
        .extend(&secrets("71-10"), 21, 22, &[])
        .extend(&secrets("71-100"), 31, 0, &[])
        .materialize()
}

fn down_segment() -> PathSegment {
    CowSegment::originate(SegmentType::UpDown, TS, 0x2002)
        .extend(&secrets("71-2"), 0, 12, &[])
        .extend(&secrets("71-20"), 23, 24, &[])
        .extend(&secrets("71-200"), 33, 0, &[])
        .materialize()
}

fn core_segment() -> PathSegment {
    CowSegment::originate(SegmentType::Core, TS, 0x3003)
        .extend(&secrets("71-2"), 0, 41, &[])
        .extend(&secrets("71-1"), 42, 0, &[])
        .materialize()
}

/// The walk: 71-100 (host ingress) → 71-10 (in 22) → 71-1 (in 11)
/// → 71-2 (in 41, segment crossing) → 71-20 (in 23) → 71-200 (in 33).
const STATIONS: [(&str, u16); 6] = [
    ("71-100", 0),
    ("71-10", 22),
    ("71-1", 11),
    ("71-2", 41),
    ("71-20", 23),
    ("71-200", 33),
];

fn transit_packet(l4: L4Protocol, payload: Vec<u8>, traced: bool) -> ScionPacket {
    let path = FullPath::assemble(
        ia("71-100"),
        ia("71-200"),
        PathKind::CoreTransit,
        vec![
            SegmentUse::whole(up_segment(), Direction::AgainstCons),
            SegmentUse::whole(core_segment(), Direction::AgainstCons),
            SegmentUse::whole(down_segment(), Direction::Cons),
        ],
    )
    .unwrap();
    let mut pkt = ScionPacket::new(
        ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
        ScionAddr::new(ia("71-200"), HostAddr::v4(10, 0, 0, 2)),
        l4,
        DataPlanePath::Scion(path.to_dataplane().unwrap()),
        payload,
    );
    if traced {
        pkt.trace = Some(TraceContext::root(0x5c1e_7a02));
    }
    pkt
}

fn one_hop_frame(seed: u16) -> Vec<u8> {
    ScionPacket::new(
        ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
        ScionAddr::new(ia("71-10"), HostAddr::v4(10, 0, 0, 2)),
        L4Protocol::Udp,
        DataPlanePath::OneHop {
            info: InfoField {
                peering: false,
                cons_dir: true,
                seg_id: seed,
                timestamp: TS,
            },
            first_hop: HopField {
                ingress_alert: false,
                egress_alert: false,
                exp_time: 63,
                cons_ingress: 0,
                cons_egress: 7,
                mac: [1, 2, 3, 4, 5, 6],
            },
            second_hop: HopField {
                ingress_alert: false,
                egress_alert: false,
                exp_time: 0,
                cons_ingress: 0,
                cons_egress: 0,
                mac: [0; 6],
            },
        },
        vec![],
    )
    .encode()
    .unwrap()
}

/// One batch element: `(kind, seed, mask)` from the proptest strategy.
fn build_frame(kind: usize, seed: u16, mask: u8) -> Vec<u8> {
    match kind % 8 {
        // Valid UDP frame, payload length and content varied by seed.
        0 => transit_packet(L4Protocol::Udp, vec![mask; seed as usize % 200], false)
            .encode()
            .unwrap(),
        // Valid frame addressed to a service anycast destination.
        1 => {
            let mut pkt = transit_packet(L4Protocol::Udp, b"svc".to_vec(), false);
            pkt.dst.host = HostAddr::Svc(ServiceAddr::ControlService);
            pkt.encode().unwrap()
        }
        // Single-byte corruption anywhere in an otherwise valid frame.
        2 => {
            let mut f = transit_packet(L4Protocol::Udp, b"corrupt me".to_vec(), false)
                .encode()
                .unwrap();
            let pos = seed as usize % f.len();
            f[pos] ^= mask;
            f
        }
        // SCMP echo request riding the same transit path.
        3 => transit_packet(
            L4Protocol::Scmp,
            ScmpMessage::EchoRequest {
                id: seed,
                seq: seed.wrapping_add(1),
                data: vec![0x5c; 8],
            }
            .encode(),
            false,
        )
        .encode()
        .unwrap(),
        // One-hop path: dropped as UnsupportedPath via the peeled fallback.
        4 => one_hop_frame(seed),
        // Trailing byte: not exact-length, peels to the fallback.
        5 => {
            let mut f = transit_packet(L4Protocol::Udp, b"tail".to_vec(), false)
                .encode()
                .unwrap();
            f.push(mask);
            f
        }
        // Traced frame: carries an extension header, peels to the fallback.
        6 => transit_packet(L4Protocol::Udp, b"traced".to_vec(), true)
            .encode()
            .unwrap(),
        // Raw garbage: almost always undecodable.
        _ => vec![mask; seed as usize % 64],
    }
}

/// The `router.*` counters both engines must agree on.
fn shared_router_counters(telemetry: &Telemetry) -> Vec<(String, u64)> {
    telemetry
        .snapshot()
        .counters
        .into_iter()
        .filter(|(n, _)| {
            n.starts_with("router.")
                && !n.starts_with("router.maccache.")
                && !n.starts_with("router.batch.")
        })
        .collect()
}

/// Walks a whole batch through every station on both engines, asserting
/// verdict + output-byte parity per station, retaining only forwarded
/// frames between stations, then counter parity at the end.
fn differential_batch_walk(frames: Vec<Vec<u8>>, now: u64) -> Result<(), TestCaseError> {
    let tele_seq = Telemetry::quiet();
    let tele_batch = Telemetry::quiet();
    let mut frames_seq = frames.clone();
    let mut frames_batch = frames;

    for (station, (as_str, ingress)) in STATIONS.iter().enumerate() {
        if frames_seq.is_empty() {
            break;
        }
        let mut r_seq = router(as_str, &tele_seq);
        let mut r_batch = router(as_str, &tele_batch);

        let want: Vec<_> = frames_seq
            .iter_mut()
            .map(|f| r_seq.process_frame(f, *ingress, now))
            .collect();
        let got = r_batch.process_batch(&mut frames_batch, *ingress, now);

        prop_assert_eq!(
            &got,
            &want,
            "verdicts diverged at station {} ({})",
            station,
            as_str
        );
        prop_assert_eq!(
            &frames_batch,
            &frames_seq,
            "output bytes diverged at station {} ({})",
            station,
            as_str
        );
        prop_assert_eq!(r_batch.processed, r_seq.processed);
        prop_assert_eq!(r_batch.dropped, r_seq.dropped);

        // Only forwarded frames continue to the next station.
        let keep: Vec<bool> = got
            .iter()
            .map(|v| {
                matches!(
                    v,
                    Ok(sciera::dataplane::router::FrameDecision::Forward { .. })
                )
            })
            .collect();
        let mut it = keep.iter();
        frames_seq.retain(|_| *it.next().unwrap());
        let mut it = keep.iter();
        frames_batch.retain(|_| *it.next().unwrap());
    }

    prop_assert_eq!(
        shared_router_counters(&tele_seq),
        shared_router_counters(&tele_batch),
        "router counter parity"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random batches mixing every frame class — including duplicates,
    /// since the strategy freely repeats kinds — walk all six stations
    /// with verdict, byte and counter parity, fresh or near hop expiry.
    #[test]
    fn mixed_batches_walk_identically(
        elements in prop::collection::vec((0usize..8, any::<u16>(), 1u8..=255), 1..16),
        now_off in 0u64..40_000,
    ) {
        let frames: Vec<Vec<u8>> = elements
            .iter()
            .map(|(kind, seed, mask)| build_frame(*kind, *seed, *mask))
            .collect();
        differential_batch_walk(frames, TS as u64 + now_off)?;
    }

    /// A batch of identical valid frames against a cold MAC cache: the
    /// in-batch dedup must settle all of them with a single batched CMAC,
    /// and the verdicts must still match the per-frame engine exactly.
    #[test]
    fn duplicate_batches_dedup_to_one_cmac(
        copies in 2usize..24,
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let tele = Telemetry::quiet();
        let template = transit_packet(L4Protocol::Udp, payload, false)
            .encode()
            .unwrap();
        let mut r = router("71-100", &tele);
        let mut frames: Vec<Vec<u8>> = vec![template.clone(); copies];
        let got = r.process_batch(&mut frames, 0, TS as u64 + 100);
        for (i, v) in got.iter().enumerate() {
            prop_assert!(
                matches!(v, Ok(sciera::dataplane::router::FrameDecision::Forward { .. })),
                "frame {} not forwarded: {:?}", i, v
            );
        }
        for f in &frames[1..] {
            prop_assert_eq!(f, &frames[0], "duplicate frames rewrote differently");
        }
        let snap = tele.snapshot();
        prop_assert_eq!(snap.counter("router.batch.mac_batched"), Some(1));
        prop_assert_eq!(
            snap.counter("router.batch.mac_dedup"),
            Some(copies as u64 - 1)
        );
    }

    /// Batch processing is cache-state invariant: a warm MAC cache changes
    /// which pass settles the verdict, never the verdict or the bytes.
    #[test]
    fn warm_batches_match_cold_batches(
        elements in prop::collection::vec((0usize..8, any::<u16>(), 1u8..=255), 1..10),
    ) {
        let now = TS as u64 + 100;
        let frames: Vec<Vec<u8>> = elements
            .iter()
            .map(|(kind, seed, mask)| build_frame(*kind, *seed, *mask))
            .collect();
        let tele = Telemetry::quiet();
        let mut r = router("71-100", &tele);
        let mut cold = frames.clone();
        let cold_verdicts = r.process_batch(&mut cold, 0, now);
        let mut warm = frames;
        let warm_verdicts = r.process_batch(&mut warm, 0, now);
        prop_assert_eq!(cold_verdicts, warm_verdicts, "cache state changed verdicts");
        prop_assert_eq!(cold, warm, "cache state changed output bytes");
    }
}
