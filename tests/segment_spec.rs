//! Executable spec of path-segment bytes. `flat_segment` builds a segment
//! from the definition in one flat pass: hop MACs chained through `beta`,
//! peer hops MACed over `beta_{i+1}`, each entry signed over the SHA-256 of
//! the signable stream up to and including it, and the content id over
//! `(ia, ingress, egress)` per hop. The copy-on-extend builder must produce
//! the same segment, bit for bit, on random hop sequences.

use proptest::prelude::*;

use sciera::control::segment::{
    AsEntry, AsSecrets, CowSegment, PathSegment, PeerEntry, SegmentType, DEFAULT_EXP_TIME,
};
use sciera::crypto::mac::HopMacInput;
use sciera::crypto::sha256::Sha256;
use sciera::prelude::*;
use sciera::proto::path::HopField;

const TS: u32 = 1_700_000_000;

/// One entry: the AS, its construction-direction ingress and egress, and
/// the `(peer, local ifid, remote ifid)` peering links it advertises.
type Hop = (IsdAsn, u16, u16, Vec<(IsdAsn, u16, u16)>);

fn hop_field(s: &AsSecrets, beta: u16, cons_ingress: u16, cons_egress: u16) -> HopField {
    let input = HopMacInput {
        beta,
        timestamp: TS,
        exp_time: DEFAULT_EXP_TIME,
        cons_ingress,
        cons_egress,
    };
    HopField {
        ingress_alert: false,
        egress_alert: false,
        exp_time: DEFAULT_EXP_TIME,
        cons_ingress,
        cons_egress,
        mac: s.hop_key.mac(&input),
    }
}

/// The segment and its content id, built from the definition.
fn flat_segment(seg_type: SegmentType, beta0: u16, hops: &[Hop]) -> (PathSegment, [u8; 32]) {
    let (mut sig, mut id, mut beta) = (Sha256::new(), Sha256::new(), beta0);
    sig.update(b"scion-pcb-v1");
    sig.update(&[(seg_type == SegmentType::UpDown) as u8]);
    for st in [&mut sig, &mut id] {
        st.update(&TS.to_be_bytes());
        st.update(&beta0.to_be_bytes());
    }
    let mut entries = Vec::new();
    for (ia, ingress, egress, links) in hops {
        let s = AsSecrets::derive(*ia);
        let hop = hop_field(&s, beta, *ingress, *egress);
        beta ^= u16::from_be_bytes([hop.mac[0], hop.mac[1]]);
        sig.update(&ia.to_u64().to_be_bytes());
        sig.update(&hop.to_bytes());
        let mut peers = Vec::new();
        for &(peer, peer_ifid, peer_remote_ifid) in links {
            let hop = hop_field(&s, beta, peer_ifid, *egress);
            sig.update(&peer.to_u64().to_be_bytes());
            sig.update(&hop.to_bytes());
            peers.push(PeerEntry {
                peer,
                peer_ifid,
                peer_remote_ifid,
                hop,
            });
        }
        id.update(&ia.to_u64().to_be_bytes());
        id.update(&ingress.to_be_bytes());
        id.update(&egress.to_be_bytes());
        entries.push(AsEntry {
            ia: *ia,
            hop,
            peers,
            signature: s.signing.sign(&sig.clone().finalize()),
        });
    }
    let seg = PathSegment {
        seg_type,
        timestamp: TS,
        beta0,
        entries,
    };
    (seg, id.finalize())
}

fn arb_hop() -> impl Strategy<Value = Hop> {
    let asn = || (1u64..40).prop_map(|n| IsdAsn::from_u64((71 << 48) | n));
    let peers = prop::collection::vec((asn(), any::<u16>(), any::<u16>()), 0..=2);
    (asn(), any::<u16>(), any::<u16>(), peers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cow_segment_equals_the_flat_spec(
        core: bool,
        beta0: u16,
        hops in prop::collection::vec(arb_hop(), 1..=8),
    ) {
        let seg_type = if core { SegmentType::Core } else { SegmentType::UpDown };
        let (spec, spec_id) = flat_segment(seg_type, beta0, &hops);
        let mut cow = CowSegment::originate(seg_type, TS, beta0);
        for (ia, ingress, egress, peers) in &hops {
            cow = cow.extend(&AsSecrets::derive(*ia), *ingress, *egress, peers);
        }
        prop_assert_eq!(cow.id(), spec_id);
        prop_assert_eq!(spec.id(), spec_id);
        prop_assert_eq!(cow.materialize(), spec);
    }
}
