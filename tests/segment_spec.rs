//! Executable spec of path-segment bytes. `flat_segment` builds a segment
//! from the definition in one flat pass: hop MACs chained through `beta`,
//! peer hops MACed over `beta_{i+1}`, each entry signed over the SHA-256 of
//! the signable stream up to and including it, and the content id over
//! `(ia, ingress, egress)` per hop. The copy-on-extend builder must produce
//! the same segment, bit for bit, on random hop sequences.
//!
//! The same definition judges verification: the O(1) receipt check of one
//! new entry (`CowSegment::verify_extension`) must give the verdict the
//! definition gives, and the one the full `PathSegment::verify` gives, on
//! any single-byte corruption of that entry. And every segment the engine
//! registers passes the full verification against the keys the trust store
//! holds from verified chains: the receipt checks are its only product-side
//! check.

use proptest::prelude::*;

use sciera::control::segment::{
    AsEntry, AsSecrets, CowSegment, PathSegment, PeerEntry, SegmentType, DEFAULT_EXP_TIME,
};
use sciera::crypto::mac::HopMacInput;
use sciera::crypto::sha256::Sha256;
use sciera::crypto::sign::Signature;
use sciera::prelude::*;
use sciera::proto::path::HopField;
use sciera::topology::synth::{synthesize, SynthConfig};

const TS: u32 = 1_700_000_000;

/// One entry: the AS, its construction-direction ingress and egress, and
/// the `(peer, local ifid, remote ifid)` peering links it advertises.
type Hop = (IsdAsn, u16, u16, Vec<(IsdAsn, u16, u16)>);

/// The hop-MAC input of `hop` at chain value `beta`.
fn mac_input(beta: u16, hop: &HopField) -> HopMacInput {
    HopMacInput {
        beta,
        timestamp: TS,
        exp_time: hop.exp_time,
        cons_ingress: hop.cons_ingress,
        cons_egress: hop.cons_egress,
    }
}

fn hop_field(s: &AsSecrets, beta: u16, cons_ingress: u16, cons_egress: u16) -> HopField {
    let mut hop = HopField {
        ingress_alert: false,
        egress_alert: false,
        exp_time: DEFAULT_EXP_TIME,
        cons_ingress,
        cons_egress,
        mac: [0; 6],
    };
    hop.mac = s.hop_key.mac(&mac_input(beta, &hop));
    hop
}

/// `beta` after `mac`: the chain value the next hop's MAC covers.
fn chain(beta: u16, mac: &[u8; 6]) -> u16 {
    beta ^ u16::from_be_bytes([mac[0], mac[1]])
}

/// SHA-256 of the signable stream up to and including the last of
/// `entries`: domain tag, type, timestamp, `beta0`, then per entry its AS
/// and hop bytes and per peer the peer AS and peer hop bytes.
fn signable_digest(seg_type: SegmentType, beta0: u16, entries: &[AsEntry]) -> [u8; 32] {
    let mut sig = Sha256::new();
    sig.update(b"scion-pcb-v1");
    sig.update(&[(seg_type == SegmentType::UpDown) as u8]);
    sig.update(&TS.to_be_bytes());
    sig.update(&beta0.to_be_bytes());
    for e in entries {
        sig.update(&e.ia.to_u64().to_be_bytes());
        sig.update(&e.hop.to_bytes());
        for p in &e.peers {
            sig.update(&p.peer.to_u64().to_be_bytes());
            sig.update(&p.hop.to_bytes());
        }
    }
    sig.finalize()
}

/// The segment and its content id, built from the definition.
fn flat_segment(seg_type: SegmentType, beta0: u16, hops: &[Hop]) -> (PathSegment, [u8; 32]) {
    let (mut id, mut beta) = (Sha256::new(), beta0);
    id.update(&TS.to_be_bytes());
    id.update(&beta0.to_be_bytes());
    let mut entries = Vec::new();
    for (ia, ingress, egress, links) in hops {
        let s = AsSecrets::derive(*ia);
        let hop = hop_field(&s, beta, *ingress, *egress);
        beta = chain(beta, &hop.mac);
        let peers = links
            .iter()
            .map(|&(peer, peer_ifid, peer_remote_ifid)| PeerEntry {
                peer,
                peer_ifid,
                peer_remote_ifid,
                hop: hop_field(&s, beta, peer_ifid, *egress),
            })
            .collect();
        id.update(&ia.to_u64().to_be_bytes());
        id.update(&ingress.to_be_bytes());
        id.update(&egress.to_be_bytes());
        entries.push(AsEntry {
            ia: *ia,
            hop,
            peers,
            signature: Signature([0; 32]),
        });
        let digest = signable_digest(seg_type, beta0, &entries);
        entries.last_mut().unwrap().signature = s.signing.sign(&digest);
    }
    let seg = PathSegment {
        seg_type,
        timestamp: TS,
        beta0,
        entries,
    };
    (seg, id.finalize())
}

/// Whether `e`'s hop MAC is `s`'s over `beta` and each peer MAC is `s`'s
/// over the chain value after `e`.
fn macs_ok(s: &AsSecrets, beta: u16, e: &AsEntry) -> bool {
    let next = chain(beta, &e.hop.mac);
    e.hop.mac == s.hop_key.mac(&mac_input(beta, &e.hop))
        && e.peers
            .iter()
            .all(|p| p.hop.mac == s.hop_key.mac(&mac_input(next, &p.hop)))
}

/// XORs `mask` into byte `pos` (mod the entry's length) of `e`'s bytes:
/// the 12 hop-field bytes, then per peer its AS (8), its two interface
/// ids (2 + 2) and its 12 hop-field bytes, then the 32 signature bytes.
fn flip(e: &mut AsEntry, pos: usize, mask: u8) {
    let flip_hop = |hop: &mut HopField, i: usize| {
        let mut b = hop.to_bytes();
        b[i] ^= mask;
        *hop = HopField::parse(&b).unwrap();
    };
    let mut pos = pos % (12 + 24 * e.peers.len() + 32);
    if pos < 12 {
        return flip_hop(&mut e.hop, pos);
    }
    pos -= 12;
    for p in &mut e.peers {
        if pos >= 24 {
            pos -= 24;
        } else if pos >= 12 {
            return flip_hop(&mut p.hop, pos - 12);
        } else {
            let mut b = [0u8; 12];
            b[..8].copy_from_slice(&p.peer.to_u64().to_be_bytes());
            b[8..10].copy_from_slice(&p.peer_ifid.to_be_bytes());
            b[10..].copy_from_slice(&p.peer_remote_ifid.to_be_bytes());
            b[pos] ^= mask;
            p.peer = IsdAsn::from_u64(u64::from_be_bytes(b[..8].try_into().unwrap()));
            p.peer_ifid = u16::from_be_bytes([b[8], b[9]]);
            p.peer_remote_ifid = u16::from_be_bytes([b[10], b[11]]);
            return;
        }
    }
    e.signature.0[pos] ^= mask;
}

fn arb_hop() -> impl Strategy<Value = Hop> {
    let asn = || (1u64..40).prop_map(|n| IsdAsn::from_u64((71 << 48) | n));
    let peers = prop::collection::vec((asn(), any::<u16>(), any::<u16>()), 0..=2);
    (asn(), any::<u16>(), any::<u16>(), peers)
}

/// Every segment `net` registers passes the full verification, each AS's
/// signatures checked against the key its verified chain certifies in the
/// network's trust store, and hop keys derived here, not the engine's.
fn assert_all_verify(net: &SciEraNetwork) -> usize {
    let trust = net.trust();
    let keys = |ia: IsdAsn| trust.key_of(ia);
    let hops = |ia: IsdAsn| Some(AsSecrets::derive(ia).hop_key);
    let mut n = 0;
    for seg in net.pathdb().snapshot().store().all_segments() {
        seg.verify(&keys, &hops)
            .expect("registered segment verifies");
        n += 1;
    }
    n
}

#[test]
fn every_segment_the_sciera_build_registers_verifies() {
    let net = SciEraNetwork::build(NetworkConfig::default());
    assert_eq!(assert_all_verify(&net), 712);
}

#[test]
fn every_segment_registered_at_400_ases_verifies() {
    let topo = synthesize(&SynthConfig::sized(400));
    let net = SciEraNetwork::build_from_topology(topo, NetworkConfig::default());
    for (ia, secrets) in &net.secrets {
        let certified = net.trust().key_of(*ia);
        assert!(certified == Some(secrets.signing.verifying_key()), "{ia}");
    }
    assert_eq!(assert_all_verify(&net), 3_316);
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

    /// A corrupted newest entry, optionally re-signed with its AS's real
    /// signing key (a signer without the AS's hop key), is accepted by the
    /// receipt check exactly when the definition accepts it, and exactly
    /// when the full verification of the whole corrupted segment does.
    #[test]
    fn verify_extension_agrees_with_full_verification(
        core: bool,
        beta0: u16,
        hops in prop::collection::vec(arb_hop(), 1..=8),
        pos: u16,
        mask in 1u8..=255,
        resign: bool,
    ) {
        let seg_type = if core { SegmentType::Core } else { SegmentType::UpDown };
        let (spec, _) = flat_segment(seg_type, beta0, &hops);
        let mut prefix = CowSegment::originate(seg_type, TS, beta0);
        for (ia, ingress, egress, peers) in &hops[..hops.len() - 1] {
            prefix = prefix.extend(&AsSecrets::derive(*ia), *ingress, *egress, peers);
        }
        let mut entries = spec.entries.clone();
        let n = entries.len();
        let signer = AsSecrets::derive(entries[n - 1].ia);
        flip(&mut entries[n - 1], pos as usize, mask);
        if resign {
            entries[n - 1].signature = signer.signing.sign(&signable_digest(seg_type, beta0, &entries));
        }
        let beta = entries[..n - 1].iter().fold(beta0, |b, e| chain(b, &e.hop.mac));
        let newest = entries[n - 1].clone();
        let expected = newest.signature == signer.signing.sign(&signable_digest(seg_type, beta0, &entries))
            && macs_ok(&signer, beta, &newest);

        let receipt = prefix
            .verify_extension(&newest, Some(&signer.signing.verifying_key()), Some(&signer.hop_key))
            .is_ok();
        let keys = |ia: IsdAsn| Some(AsSecrets::derive(ia).signing.verifying_key());
        let hop_keys = |ia: IsdAsn| Some(AsSecrets::derive(ia).hop_key);
        let full = PathSegment { entries, ..spec }.verify(&keys, &hop_keys).is_ok();
        prop_assert_eq!(receipt, expected);
        prop_assert_eq!(full, expected);
    }
}
