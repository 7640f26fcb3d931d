//! Differential property tests: the zero-copy forwarding fast path
//! (`BorderRouter::process_frame`) against the reference
//! decode → process → encode path, over a fixed six-AS core-transit
//! topology with proptest-varied packets, single-byte corruptions and
//! random-byte fuzz. The two paths must agree on output bytes, drop
//! verdicts and every `router.*` counter (excluding the fast-path-only
//! `router.fastpath.*` / `router.maccache.*` families) — on every frame.

use proptest::prelude::*;

use sciera::control::fullpath::{Direction, FullPath, PathKind, SegmentUse};
use sciera::control::segment::{AsSecrets, CowSegment, PathSegment, SegmentType};
use sciera::dataplane::router::{BorderRouter, Decision, FrameDecision, FrameError};
use sciera::proto::addr::{ia, HostAddr, ScionAddr, ServiceAddr};
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
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
/// → 71-2 (in 41) → 71-20 (in 23) → 71-200 (in 33, delivers).
const STATIONS: [(&str, u16); 6] = [
    ("71-100", 0),
    ("71-10", 22),
    ("71-1", 11),
    ("71-2", 41),
    ("71-20", 23),
    ("71-200", 33),
];

fn transit_packet(dst_host: HostAddr, payload: Vec<u8>, traced: bool) -> ScionPacket {
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
        ScionAddr::new(ia("71-200"), dst_host),
        L4Protocol::Udp,
        DataPlanePath::Scion(path.to_dataplane().unwrap()),
        payload,
    );
    if traced {
        pkt.trace = Some(TraceContext::root(0x5c1e_7a00));
    }
    pkt
}

/// What one router did to one frame, output bytes included.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Deliver(Vec<u8>),
    Forward(u16, Vec<u8>),
    Drop(String),
    Malformed,
}

fn reference_step(r: &mut BorderRouter, frame: &[u8], ingress: u16, now: u64) -> Outcome {
    match ScionPacket::decode(frame) {
        Err(_) => Outcome::Malformed,
        Ok(pkt) => match r.process(pkt, ingress, now) {
            Ok(Decision::Deliver(p)) => Outcome::Deliver(p.encode().unwrap()),
            Ok(Decision::Forward { ifid, packet }) => {
                Outcome::Forward(ifid, packet.encode().unwrap())
            }
            Err(e) => Outcome::Drop(format!("{e:?}")),
        },
    }
}

fn fast_step(r: &mut BorderRouter, frame: &mut Vec<u8>, ingress: u16, now: u64) -> Outcome {
    match r.process_frame(frame, ingress, now) {
        Ok(FrameDecision::Deliver) => Outcome::Deliver(frame.clone()),
        Ok(FrameDecision::Forward { ifid }) => Outcome::Forward(ifid, frame.clone()),
        Err(FrameError::Drop(e)) => Outcome::Drop(format!("{e:?}")),
        Err(FrameError::Malformed(_)) => Outcome::Malformed,
    }
}

/// The `router.*` counters both paths must agree on — the fast-path-only
/// observability families are excluded by design.
fn shared_router_counters(telemetry: &Telemetry) -> Vec<(String, u64)> {
    telemetry
        .snapshot()
        .counters
        .into_iter()
        .filter(|(n, _)| {
            n.starts_with("router.")
                && !n.starts_with("router.fastpath.")
                && !n.starts_with("router.maccache.")
        })
        .collect()
}

/// Walks `frame` through every station on both paths simultaneously,
/// asserting agreement (verdict and bytes) at each step, then counter
/// parity at the end. Returns the final shared outcome.
fn differential_walk(mut frame: Vec<u8>, now: u64) -> Result<Outcome, TestCaseError> {
    let tele_ref = Telemetry::quiet();
    let tele_fast = Telemetry::quiet();
    let mut last = Outcome::Malformed;
    for (station, (as_str, ingress)) in STATIONS.iter().enumerate() {
        let mut r_ref = router(as_str, &tele_ref);
        let mut r_fast = router(as_str, &tele_fast);
        let want = reference_step(&mut r_ref, &frame, *ingress, now);
        let got = fast_step(&mut r_fast, &mut frame, *ingress, now);
        prop_assert_eq!(&got, &want, "station {} ({})", station, as_str);
        last = got;
        match &last {
            Outcome::Forward(_, bytes) => frame = bytes.clone(),
            _ => break,
        }
    }
    prop_assert_eq!(
        shared_router_counters(&tele_ref),
        shared_router_counters(&tele_fast),
        "router counter parity"
    );
    Ok(last)
}

fn dst_host(kind: usize) -> HostAddr {
    match kind % 3 {
        0 => HostAddr::v4(10, 0, 0, 2),
        1 => HostAddr::V6([0x2a; 16]),
        _ => HostAddr::Svc(ServiceAddr::ControlService),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Valid frames — any payload, any destination host kind, traced or
    /// not, fresh or near expiry — walk the whole path byte-identically.
    #[test]
    fn valid_frames_walk_identically(
        payload in prop::collection::vec(any::<u8>(), 0..400),
        host_kind in 0usize..3,
        traced in any::<bool>(),
        now_off in 0u64..30_000,
    ) {
        let pkt = transit_packet(dst_host(host_kind), payload, traced);
        let frame = pkt.encode().unwrap();
        let now = TS as u64 + now_off;
        let last = differential_walk(frame, now)?;
        if now_off < 20_000 {
            // Well within the hop expiry window: the walk must deliver.
            prop_assert!(
                matches!(last, Outcome::Deliver(_)),
                "fresh packet not delivered: {:?}", last
            );
        }
    }

    /// Single-byte corruption anywhere in the frame: both paths agree on
    /// the verdict (accept / drop reason / malformed), the output bytes
    /// and the router counters at every station.
    #[test]
    fn corrupted_frames_agree(
        pos in 0usize..4096,
        mask in 1u8..=255,
        host_kind in 0usize..3,
    ) {
        let pkt = transit_packet(dst_host(host_kind), b"corrupt me".to_vec(), false);
        let mut frame = pkt.encode().unwrap();
        let pos = pos % frame.len();
        frame[pos] ^= mask;
        differential_walk(frame, TS as u64 + 100)?;
    }

    /// Random bytes (not necessarily a SCION frame at all): both paths
    /// agree — almost always `Malformed` — and neither touches the shared
    /// router counters on undecodable input.
    #[test]
    fn random_bytes_agree(frame in prop::collection::vec(any::<u8>(), 0..200)) {
        differential_walk(frame, TS as u64 + 100)?;
    }

    /// Warm MAC cache changes performance, never behaviour: replaying the
    /// same frame through the same routers twice gives identical outputs.
    #[test]
    fn warm_cache_is_behaviour_invariant(
        payload in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let tele = Telemetry::quiet();
        let pkt = transit_packet(HostAddr::v4(10, 0, 0, 2), payload, false);
        let template = pkt.encode().unwrap();
        let now = TS as u64 + 100;
        let mut routers: Vec<BorderRouter> =
            STATIONS.iter().map(|(s, _)| router(s, &tele)).collect();
        let walk = |routers: &mut Vec<BorderRouter>| -> Vec<u8> {
            let mut frame = template.clone();
            for (r, (_, ingress)) in routers.iter_mut().zip(STATIONS.iter()) {
                match r.process_frame(&mut frame, *ingress, now) {
                    Ok(FrameDecision::Forward { .. }) => {}
                    Ok(FrameDecision::Deliver) => break,
                    Err(e) => panic!("valid frame dropped: {e:?}"),
                }
            }
            frame
        };
        let cold = walk(&mut routers);
        let warm = walk(&mut routers);
        prop_assert_eq!(cold, warm, "cache hit changed the output frame");
        let snap = tele.snapshot();
        prop_assert!(snap.counter("router.maccache.hit").unwrap_or(0) >= 5);
    }
}
