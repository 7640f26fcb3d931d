//! Executable spec of the in-place turn-around (`wire::turn_around`), the
//! responder's half of every SCMP echo. On every packet the encoder makes —
//! one to three segments, random peering / `cons_dir` / alert flags,
//! `seg_id`s, timestamps and pointers, IPv4, IPv6 and service hosts of
//! differing lengths, and the empty path — it must give byte for byte what
//! the decode path gives (`decode`, `reply_template`, `encode`), and leave a
//! frame the forwarding fast path takes as it is (`HeaderOffsets::locate`,
//! `is_canonical`). One-hop paths, frames carrying a trace extension and
//! arbitrary bytes are refused without a panic and left as they were, or,
//! where the bytes happen to form a frame it takes, answered as the decode
//! path answers them.

use proptest::prelude::*;

use sciera::proto::addr::{HostAddr, IsdAsn, ScionAddr, ServiceAddr};
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use sciera::proto::path::{HopField, InfoField, PathMeta, ScionPath};
use sciera::proto::trace::{TraceContext, HBH_EXT_PROTOCOL};
use sciera::proto::wire::{turn_around, HeaderOffsets};

/// What the decode path makes of `wire` as its reply: `None` where it
/// refuses the frame.
fn decode_path_reply(wire: &[u8]) -> Option<Vec<u8>> {
    let mut pkt = ScionPacket::decode(wire).ok()?;
    (pkt.src, pkt.dst, pkt.path) = pkt.reply_template()?;
    pkt.encode().ok()
}

/// A host address of the kind `kind` picks, filled from `bytes`.
fn host(kind: u8, bytes: [u8; 16]) -> HostAddr {
    match kind % 3 {
        0 => HostAddr::V4([bytes[0], bytes[1], bytes[2], bytes[3]]),
        1 => HostAddr::V6(bytes),
        _ => HostAddr::Svc(
            [
                ServiceAddr::ControlService,
                ServiceAddr::Discovery,
                ServiceAddr::None,
            ][usize::from(bytes[0]) % 3],
        ),
    }
}

/// A standard path of one to three segments with random info and hop
/// fields (every flag bit the format has), and pointers anywhere in range.
fn scion_path(segments: Vec<([u8; 8], Vec<[u8; 12]>)>, pointers: (u8, u8)) -> ScionPath {
    let segments = segments
        .into_iter()
        .map(|(info, hops)| {
            let info = InfoField::parse(&info).unwrap();
            let hops = hops.iter().map(|h| HopField::parse(h).unwrap()).collect();
            (info, hops)
        })
        .collect();
    let mut path = ScionPath::from_segments(segments).unwrap();
    path.meta.curr_inf = pointers.0 % path.info.len() as u8;
    path.meta.curr_hf = pointers.1 % path.hops.len() as u8;
    path
}

prop_compose! {
    /// A packet as the encoder makes it: random addresses, QoS, flow, L4
    /// protocol and payload, and a standard path or (one time in eight) the
    /// empty path.
    fn packet()(
        ias in any::<[u64; 2]>(),
        kinds in any::<[u8; 2]>(),
        hosts in any::<[[u8; 16]; 2]>(),
        qos in any::<u8>(),
        flow_id in any::<u32>(),
        next_hdr in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..48),
        empty in 0u8..8,
        segments in prop::collection::vec(
            (any::<[u8; 8]>(), prop::collection::vec(any::<[u8; 12]>(), 1..9)),
            1..4,
        ),
        pointers in (any::<u8>(), any::<u8>()),
    ) -> ScionPacket {
        let path = if empty == 0 {
            DataPlanePath::Empty
        } else {
            DataPlanePath::Scion(scion_path(segments, pointers))
        };
        // The extension number would make the payload a trace extension.
        let next_hdr = if next_hdr == HBH_EXT_PROTOCOL { 17 } else { next_hdr };
        let mut pkt = ScionPacket::new(
            ScionAddr::new(IsdAsn::from_u64(ias[0]), host(kinds[0], hosts[0])),
            ScionAddr::new(IsdAsn::from_u64(ias[1]), host(kinds[1], hosts[1])),
            L4Protocol::from_u8(next_hdr),
            path,
            payload,
        );
        pkt.qos = qos;
        pkt.flow_id = flow_id & 0xf_ffff;
        pkt
    }
}

/// Refused and untouched, or taken and answered as the decode path answers.
fn agrees_or_refuses(wire: &[u8]) {
    let mut turned = wire.to_vec();
    match turn_around(&mut turned) {
        Ok(off) => {
            prop_assert_eq!(Some(&turned), decode_path_reply(wire).as_ref());
            prop_assert_eq!(HeaderOffsets::locate(&turned), Ok(off));
            prop_assert!(off.is_canonical(&turned));
        }
        Err(_) => prop_assert_eq!(&turned[..], wire),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn turned_frames_equal_the_decode_path(pkt in packet()) {
        let wire = pkt.encode().unwrap();
        let mut turned = wire.clone();
        let off = turn_around(&mut turned).unwrap();
        prop_assert_eq!(Some(&turned), decode_path_reply(&wire).as_ref());
        prop_assert_eq!(HeaderOffsets::locate(&turned), Ok(off));
        prop_assert!(off.is_canonical(&turned));
        // Twice is once with the pointers reset.
        turn_around(&mut turned).unwrap();
        let mut reset = pkt;
        if let DataPlanePath::Scion(p) = &mut reset.path {
            (p.meta.curr_inf, p.meta.curr_hf) = (0, 0);
        }
        prop_assert_eq!(turned, reset.encode().unwrap());
    }

    #[test]
    fn one_hop_and_traced_frames_are_refused(pkt in packet(), hops in any::<[[u8; 12]; 2]>()) {
        let mut traced = pkt.clone();
        traced.trace = Some(TraceContext::root(u64::from(hops[0][0]) + 1));
        let mut one_hop = pkt.clone();
        one_hop.path = DataPlanePath::OneHop {
            info: InfoField::parse(&hops[0][..8]).unwrap(),
            first_hop: HopField::parse(&hops[0]).unwrap(),
            second_hop: HopField::parse(&hops[1]).unwrap(),
        };
        for refused in [traced, one_hop] {
            let wire = refused.encode().unwrap();
            let mut turned = wire.clone();
            prop_assert!(turn_around(&mut turned).is_err());
            prop_assert_eq!(turned, wire);
        }
    }

    #[test]
    fn corrupted_frames_agree_or_are_refused(
        pkt in packet(),
        at in any::<usize>(),
        value in any::<u8>(),
    ) {
        let mut wire = pkt.encode().unwrap();
        let at = at % wire.len();
        wire[at] = value;
        agrees_or_refuses(&wire);
    }

    #[test]
    fn arbitrary_bytes_agree_or_are_refused(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        header in any::<[u8; 12]>(),
    ) {
        agrees_or_refuses(&bytes);
        // Past the common header's own checks, into the address and path
        // parsing: version 0, a standard path, lengths that fit.
        let mut wire = header.to_vec();
        wire.extend_from_slice(&bytes);
        wire[0] &= 0x0f;
        let words = (wire.len() / 4).min(usize::from(header[5] % 40));
        let payload_len = (wire.len() - 4 * words) as u16;
        wire[5] = words as u8;
        wire[6..8].copy_from_slice(&payload_len.to_be_bytes());
        wire[8] = 1;
        agrees_or_refuses(&wire);
    }
}

/// A header may declare more hop fields than a `ScionPath` holds; the
/// decode path cannot reverse such a path, and the turn-around refuses it.
#[test]
fn more_hops_than_a_path_holds_are_refused() {
    let hop = HopField::parse(&[0; 12]).unwrap();
    let info = InfoField::parse(&[0; 8]).unwrap();
    let path = ScionPath {
        meta: PathMeta {
            curr_inf: 0,
            curr_hf: 0,
            seg_len: [22, 22, 22],
        },
        info: vec![info; 3],
        hops: vec![hop; 66],
    };
    let pkt = ScionPacket::new(
        ScionAddr::new(IsdAsn::from_u64(1), HostAddr::V4([1; 4])),
        ScionAddr::new(IsdAsn::from_u64(2), HostAddr::V4([2; 4])),
        L4Protocol::Udp,
        DataPlanePath::Scion(path),
        Vec::new(),
    );
    let wire = pkt.encode().unwrap();
    assert!(HeaderOffsets::locate(&wire).is_ok());
    let mut turned = wire.clone();
    assert!(turn_around(&mut turned).is_err());
    assert_eq!(turned, wire);
}
