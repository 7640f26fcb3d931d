//! Path segments.
//!
//! A [`PathSegment`] records one beacon's journey: an ordered list of
//! [`AsEntry`]s in *construction direction* (origin core AS first). Each
//! entry carries a hop field authorised by the AS's secret hop key; the
//! MACs are chained through the segment identifier `beta`:
//!
//! ```text
//! beta_0   = random at origination
//! mac_i    = CMAC(hopkey_i, beta_i ∥ ts ∥ exp ∥ in ∥ eg)[..6]
//! beta_i+1 = beta_i XOR mac_i[0..2]
//! ```
//!
//! Peer entries (used for peering-link shortcuts) are MACed over
//! `beta_{i+1}`, matching the SCION specification, so a peer hop can be
//! verified without disturbing the chain.
//!
//! Each AS also signs the segment-so-far with its AS key
//! ([`AsSecrets::signing`]), the key its CP-PKI AS certificate certifies.

use serde::{Deserialize, Serialize};

use scion_crypto::mac::{HopKey, HopMacInput};
use scion_crypto::sha256::Sha256;
use scion_crypto::sign::{Signature, SigningKey, VerifyingKey};
use scion_proto::addr::IsdAsn;
use scion_proto::chain::Chain;
use scion_proto::path::HopField;

use crate::ControlError;

/// What a segment connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentType {
    /// Between core ASes.
    Core,
    /// Core AS down to a non-core AS; used as an *up* segment by the leaf
    /// (traversed against construction) and as a *down* segment by remote
    /// senders (traversed along construction).
    UpDown,
}

/// A peering hop attached to an AS entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerEntry {
    /// The peer AS on the far side of the peering link.
    pub peer: IsdAsn,
    /// This AS's interface toward the peer.
    pub peer_ifid: u16,
    /// The peer AS's interface on the link.
    pub peer_remote_ifid: u16,
    /// Hop field for entering/leaving via the peering link. Its
    /// `cons_ingress` is the peering interface; `cons_egress` matches the
    /// regular hop's egress.
    pub hop: HopField,
}

/// One AS's contribution to a segment, in construction direction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsEntry {
    /// The AS.
    pub ia: IsdAsn,
    /// The regular hop field (cons_ingress from parent/previous core,
    /// cons_egress toward child/next core; 0 at the ends).
    pub hop: HopField,
    /// Peering hops this AS offers at this position.
    pub peers: Vec<PeerEntry>,
    /// Signature over the segment up to and including this entry.
    pub signature: Signature,
}

/// A complete path segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSegment {
    /// Core or up/down.
    pub seg_type: SegmentType,
    /// Origination timestamp (Unix seconds) — also the MAC timestamp.
    pub timestamp: u32,
    /// Initial segment identifier `beta_0`.
    pub beta0: u16,
    /// AS entries in construction direction; first is the origin core AS.
    pub entries: Vec<AsEntry>,
}

impl PathSegment {
    /// The origin core AS.
    pub fn origin(&self) -> IsdAsn {
        self.entries
            .first()
            .expect("segment has at least one entry")
            .ia
    }

    /// The final AS (registering AS for up/down segments).
    pub fn terminus(&self) -> IsdAsn {
        self.entries
            .last()
            .expect("segment has at least one entry")
            .ia
    }

    /// Number of AS-level hops.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the segment has no entries (never true for built segments).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ordered list of ASes.
    pub fn ases(&self) -> Vec<IsdAsn> {
        self.entries.iter().map(|e| e.ia).collect()
    }

    /// Whether `ia` appears in this segment.
    pub fn contains(&self, ia: IsdAsn) -> bool {
        self.entries.iter().any(|e| e.ia == ia)
    }

    /// Approximate resident size of the segment in bytes: the struct plus
    /// the heap behind its entry and peer vectors. An estimate for the
    /// segment-store memory gauge, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<PathSegment>()
            + self.entries.capacity() * std::mem::size_of::<AsEntry>()
            + self
                .entries
                .iter()
                .map(|e| e.peers.capacity() * std::mem::size_of::<PeerEntry>())
                .sum::<usize>()
    }

    /// Position of `ia` in the segment.
    pub fn position_of(&self, ia: IsdAsn) -> Option<usize> {
        self.entries.iter().position(|e| e.ia == ia)
    }

    /// `beta_i` for entry index `i` (0 = `beta0`).
    pub fn beta_at(&self, i: usize) -> u16 {
        let mut beta = self.beta0;
        for e in self.entries.iter().take(i) {
            beta ^= u16::from_be_bytes([e.hop.mac[0], e.hop.mac[1]]);
        }
        beta
    }

    /// A stable content identifier (used for dedup in stores and beacons).
    pub fn id(&self) -> [u8; 32] {
        let mut st = id_state(self.timestamp, self.beta0);
        for e in &self.entries {
            absorb_id_entry(&mut st, e);
        }
        st.finalize()
    }

    /// Verifies all per-AS signatures against `keys` (verified AS keys from
    /// the CP-PKI) and the hop-MAC chain against `hop_keys` when available:
    /// [`verify_entry`] folded over the entries, O(len).
    ///
    /// In the real system, a validator only holds *its own* hop key and the
    /// public certificate chain of every on-path AS; passing the full hop-key
    /// table here is a test/simulation convenience to check chain integrity
    /// end-to-end.
    pub fn verify(
        &self,
        keys: &dyn Fn(IsdAsn) -> Option<VerifyingKey>,
        hop_keys: &dyn Fn(IsdAsn) -> Option<HopKey>,
    ) -> Result<(), ControlError> {
        if self.entries.is_empty() {
            return Err(ControlError::BadSegment("empty segment".into()));
        }
        let start = (
            signable_state(self.seg_type, self.timestamp, self.beta0),
            self.beta0,
        );
        self.entries
            .iter()
            .try_fold(start, |(sig_state, beta), e| {
                verify_entry(
                    sig_state,
                    beta,
                    self.timestamp,
                    e,
                    keys(e.ia).as_ref(),
                    hop_keys(e.ia).as_ref(),
                )
            })
            .map(|_| ())
    }

    /// Earliest hop expiry (Unix seconds): the segment is unusable after
    /// this instant.
    pub fn expiry(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.hop.expiry_unix(self.timestamp))
            .min()
            .unwrap_or(self.timestamp as u64)
    }
}

/// Fresh SHA-256 state of the id preimage: timestamp then `beta0`
/// absorbed.
///
/// The id preimage and signable byte streams are *strictly append-only*
/// — an extension absorbs new bytes but never rewrites earlier ones — so
/// both are maintained as running [`Sha256`] states: flat segments
/// ([`PathSegment`]) replay the stream per call, copy-on-extend chains
/// ([`CowSegment`]) carry the state forward and extend in O(1). Funneling
/// both representations through these helpers keeps the streams
/// bit-identical by construction rather than by convention.
fn id_state(timestamp: u32, beta0: u16) -> Sha256 {
    let mut st = Sha256::new();
    st.update(&timestamp.to_be_bytes());
    st.update(&beta0.to_be_bytes());
    st
}

/// Absorbs one entry's contribution to the id preimage.
fn absorb_id_entry(st: &mut Sha256, e: &AsEntry) {
    st.update(&e.ia.to_u64().to_be_bytes());
    st.update(&e.hop.cons_ingress.to_be_bytes());
    st.update(&e.hop.cons_egress.to_be_bytes());
}

/// Fresh SHA-256 state of the signable byte stream: domain tag, type,
/// timestamp, `beta0` absorbed.
fn signable_state(seg_type: SegmentType, timestamp: u32, beta0: u16) -> Sha256 {
    let mut st = Sha256::new();
    st.update(b"scion-pcb-v1");
    st.update(&[match seg_type {
        SegmentType::Core => 0,
        SegmentType::UpDown => 1,
    }]);
    st.update(&timestamp.to_be_bytes());
    st.update(&beta0.to_be_bytes());
    st
}

/// Absorbs one entry's contribution to the signable byte stream.
/// Signatures are never part of it — each AS signs the history *below*
/// its own signature slot.
fn absorb_signable_entry(st: &mut Sha256, e: &AsEntry) {
    st.update(&e.ia.to_u64().to_be_bytes());
    st.update(&e.hop.to_bytes());
    for p in &e.peers {
        st.update(&p.peer.to_u64().to_be_bytes());
        st.update(&p.hop.to_bytes());
    }
}

/// Checks one entry `e` against the already-verified prefix before it:
/// `sig_state` is the prefix's signable stream, `beta` the chain value
/// `e`'s hop MAC covers. The entry's signable digest is recomputed from
/// that state and `e`'s own bytes, then the signature is checked against
/// `key`, and — when `hop_key` is given — the hop MAC over `beta` and
/// each peer MAC over `beta ^ mac[0..2]`. Returns the signable state and
/// `beta` after `e`, the prefix its successor is checked against.
fn verify_entry(
    mut sig_state: Sha256,
    beta: u16,
    timestamp: u32,
    e: &AsEntry,
    key: Option<&VerifyingKey>,
    hop_key: Option<&HopKey>,
) -> Result<(Sha256, u16), ControlError> {
    let key = key.ok_or_else(|| ControlError::BadSegment(format!("no key for {}", e.ia)))?;
    absorb_signable_entry(&mut sig_state, e);
    key.verify(&sig_state.clone().finalize(), &e.signature)
        .map_err(|_| ControlError::BadSegment(format!("signature of {} invalid", e.ia)))?;
    let beta_next = beta ^ u16::from_be_bytes([e.hop.mac[0], e.hop.mac[1]]);
    if let Some(hk) = hop_key {
        let input = HopMacInput {
            beta,
            timestamp,
            exp_time: e.hop.exp_time,
            cons_ingress: e.hop.cons_ingress,
            cons_egress: e.hop.cons_egress,
        };
        if !hk.verify(&input, &e.hop.mac) {
            return Err(ControlError::BadSegment(format!(
                "hop MAC of {} invalid",
                e.ia
            )));
        }
        for p in &e.peers {
            let pinput = HopMacInput {
                beta: beta_next,
                timestamp,
                exp_time: p.hop.exp_time,
                cons_ingress: p.hop.cons_ingress,
                cons_egress: p.hop.cons_egress,
            };
            if !hk.verify(&pinput, &p.hop.mac) {
                return Err(ControlError::BadSegment(format!(
                    "peer hop MAC of {} toward {} invalid",
                    e.ia, p.peer
                )));
            }
        }
    }
    Ok((sig_state, beta_next))
}

/// Builds the [`AsEntry`] an AS contributes when extending a segment: the
/// hop field MACed over `beta`, plus one MACed peer hop per advertised
/// peering link. The signature is left zeroed — the caller signs the
/// segment-so-far bytes. Returns the entry and `beta_next` (`beta` XOR
/// the hop MAC prefix), the chain value the *next* extension MACs over.
fn authorized_entry(
    secrets: &AsSecrets,
    timestamp: u32,
    beta: u16,
    cons_ingress: u16,
    cons_egress: u16,
    peer_links: &[(IsdAsn, u16, u16)],
) -> (AsEntry, u16) {
    let input = HopMacInput {
        beta,
        timestamp,
        exp_time: DEFAULT_EXP_TIME,
        cons_ingress,
        cons_egress,
    };
    let mac = secrets.hop_key.mac(&input);
    let hop = HopField {
        ingress_alert: false,
        egress_alert: false,
        exp_time: DEFAULT_EXP_TIME,
        cons_ingress,
        cons_egress,
        mac,
    };
    // beta_{i+1} for peer hops.
    let beta_next = beta ^ u16::from_be_bytes([mac[0], mac[1]]);
    let peers = peer_links
        .iter()
        .map(|&(peer, local_if, remote_if)| {
            let pinput = HopMacInput {
                beta: beta_next,
                timestamp,
                exp_time: DEFAULT_EXP_TIME,
                cons_ingress: local_if,
                cons_egress,
            };
            PeerEntry {
                peer,
                peer_ifid: local_if,
                peer_remote_ifid: remote_if,
                hop: HopField {
                    ingress_alert: false,
                    egress_alert: false,
                    exp_time: DEFAULT_EXP_TIME,
                    cons_ingress: local_if,
                    cons_egress,
                    mac: secrets.hop_key.mac(&pinput),
                },
            }
        })
        .collect();
    (
        AsEntry {
            ia: secrets.ia,
            hop,
            peers,
            signature: Signature([0u8; 32]),
        },
        beta_next,
    )
}

/// Per-AS secrets used while extending beacons.
#[derive(Clone)]
pub struct AsSecrets {
    /// The AS these secrets belong to.
    pub ia: IsdAsn,
    /// Data-plane hop key.
    pub hop_key: HopKey,
    /// The AS key: it signs the AS's PCB entries and its topology, and the
    /// ISD CA certifies its public half in the AS certificate.
    pub signing: SigningKey,
}

impl AsSecrets {
    /// Derives deterministic secrets for simulation from the AS number:
    /// the one place an AS's keys come from.
    pub fn derive(ia: IsdAsn) -> Self {
        let seed = ia.to_string();
        AsSecrets {
            ia,
            hop_key: HopKey::derive(seed.as_bytes(), 1),
            signing: SigningKey::from_seed(seed.as_bytes()),
        }
    }
}

/// Default hop-field expiry encoding: 63 ≈ 6 hours.
pub const DEFAULT_EXP_TIME: u8 = 63;

/// A copy-on-extend path segment: the one way a [`PathSegment`] is
/// built, AS by AS, from origination to registration.
///
/// Entries live in a structurally-shared [`Chain`], so extending the
/// segment by one AS appends a single node and shares the whole prefix
/// with every sibling extension, instead of the O(len) deep entry copy
/// (with nested peer vectors) a flat `Vec` costs per neighbor offer.
/// Alongside the chain it carries everything an extension needs in O(1):
/// the content id (the beacon engine's retain-sort and dedup key), the
/// running `beta`, and the running SHA-256 states of the id preimage and
/// the signable byte stream — both streams are append-only, so one
/// extension absorbs only the *new* entry's bytes instead of re-hashing
/// the whole prefix.
///
/// The same running signable state and `beta` make a receipt check O(1):
/// [`Self::verify_extension`] checks one new entry against this segment
/// as its already-verified prefix. A flat [`PathSegment`] is materialized
/// only for registration into the store. The flat segment's `id` and
/// `verify` replay the same id/signable streams through the same
/// state/absorb/check helpers; `tests/segment_spec.rs` checks the bytes
/// against an independent flat construction.
#[derive(Clone)]
pub struct CowSegment {
    seg_type: SegmentType,
    timestamp: u32,
    beta0: u16,
    entries: Chain<AsEntry>,
    /// Cached [`PathSegment::id`] of the materialized segment.
    id: [u8; 32],
    /// Cached `beta_{len}` — the beta the *next* extension MACs over.
    beta_next: u16,
    /// Running id-preimage hash state over all current entries.
    id_state: Sha256,
    /// Running signable-stream hash state over all current entries.
    sig_state: Sha256,
    /// 64-bit membership filter over the entry ASes: a clear bit proves
    /// absence, a set bit means "walk the chain". Loop-prevention checks
    /// miss almost always, so [`Self::contains`] is O(1) in the common
    /// case.
    ia_bloom: u64,
}

/// The bloom bit for `ia`: Fibonacci-hash its packed form into one of 64
/// buckets. Collisions only cost a confirming chain walk, never a wrong
/// answer.
fn bloom_bit(ia: IsdAsn) -> u64 {
    1u64 << (ia.to_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

impl core::fmt::Debug for CowSegment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CowSegment")
            .field("seg_type", &self.seg_type)
            .field("timestamp", &self.timestamp)
            .field("beta0", &self.beta0)
            .field("len", &self.entries.len())
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl CowSegment {
    /// Originates an empty segment; the origin core AS's entry is the
    /// first [`Self::extend`].
    pub fn originate(seg_type: SegmentType, timestamp: u32, beta0: u16) -> Self {
        let id_state = id_state(timestamp, beta0);
        CowSegment {
            seg_type,
            timestamp,
            beta0,
            entries: Chain::new(),
            id: id_state.clone().finalize(),
            beta_next: beta0,
            id_state,
            sig_state: signable_state(seg_type, timestamp, beta0),
            ia_bloom: 0,
        }
    }

    /// Core or up/down.
    pub fn seg_type(&self) -> SegmentType {
        self.seg_type
    }

    /// Origination timestamp (Unix seconds).
    pub fn timestamp(&self) -> u32 {
        self.timestamp
    }

    /// Number of AS-level hops.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the segment has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached content identifier — equal to the materialized
    /// segment's [`PathSegment::id`], without the hash walk.
    pub fn id(&self) -> [u8; 32] {
        self.id
    }

    /// Whether `ia` appears in this segment: the loop-prevention check of
    /// beacon extension. The bloom filter answers the common miss in
    /// O(1); only a set bit pays the confirming O(len) chain walk.
    pub fn contains(&self, ia: IsdAsn) -> bool {
        self.ia_bloom & bloom_bit(ia) != 0 && self.entries.iter_rev().any(|e| e.ia == ia)
    }

    /// The content id this segment *would* have after an extension by
    /// `ia` over `(cons_ingress, cons_egress)` — a clone of the running
    /// id state plus twelve absorbed bytes, no MAC, no signature, no
    /// allocation. The id preimage covers exactly `(AS, ingress, egress)`
    /// per hop, so the beacon engine can settle a retain competition
    /// *before* paying for the losing extension; [`Self::extend`] with
    /// the same arguments yields a segment with exactly this id.
    pub fn extended_id(&self, ia: IsdAsn, cons_ingress: u16, cons_egress: u16) -> [u8; 32] {
        let mut st = self.id_state.clone();
        st.update(&ia.to_u64().to_be_bytes());
        st.update(&cons_ingress.to_be_bytes());
        st.update(&cons_egress.to_be_bytes());
        st.finalize()
    }

    /// Extends the segment by this AS without touching the prefix: one
    /// chain-node allocation, one hop MAC (plus peers), one signature
    /// over the running signable digest, a few absorbed bytes per hash
    /// state. O(1) in segment length — no prefix walk, no prefix
    /// re-hash. `cons_ingress` is 0 at the origin, `cons_egress` 0 when
    /// terminating; `peer_links` lists `(peer, local ifid, remote ifid)`
    /// peering links to advertise at this entry.
    pub fn extend(
        &self,
        secrets: &AsSecrets,
        cons_ingress: u16,
        cons_egress: u16,
        peer_links: &[(IsdAsn, u16, u16)],
    ) -> CowSegment {
        let (mut entry, beta_next) = authorized_entry(
            secrets,
            self.timestamp,
            self.beta_next,
            cons_ingress,
            cons_egress,
            peer_links,
        );
        // The new entry commits to everything before it via the running
        // states; absorbing its own bytes yields this entry's signable
        // digest and the extended segment's id.
        let mut sig_state = self.sig_state.clone();
        absorb_signable_entry(&mut sig_state, &entry);
        entry.signature = secrets.signing.sign(&sig_state.clone().finalize());
        let mut id_state = self.id_state.clone();
        absorb_id_entry(&mut id_state, &entry);
        CowSegment {
            seg_type: self.seg_type,
            timestamp: self.timestamp,
            beta0: self.beta0,
            ia_bloom: self.ia_bloom | bloom_bit(entry.ia),
            entries: self.entries.push(entry),
            id: id_state.clone().finalize(),
            beta_next,
            id_state,
            sig_state,
        }
    }

    /// The newest entry: the one the last [`Self::extend`] appended.
    pub fn last(&self) -> Option<&AsEntry> {
        self.entries.last()
    }

    /// Checks `entry` as the extension of this segment, whose entries are
    /// taken as already verified: the entry's signature against `key` over
    /// this segment's signable state plus the entry's own bytes, and — with
    /// `hop_key` — its hop MAC over `beta_next` and its peer MACs. O(1) in
    /// segment length. Nothing is read from a carried digest, so `entry`
    /// may be any bytes, not only what [`Self::extend`] produced.
    pub fn verify_extension(
        &self,
        entry: &AsEntry,
        key: Option<&VerifyingKey>,
        hop_key: Option<&HopKey>,
    ) -> Result<(), ControlError> {
        verify_entry(
            self.sig_state.clone(),
            self.beta_next,
            self.timestamp,
            entry,
            key,
            hop_key,
        )
        .map(|_| ())
    }

    /// Materializes the flat [`PathSegment`] (for registration): one
    /// O(len) chain walk and entry clone.
    pub fn materialize(&self) -> PathSegment {
        PathSegment {
            seg_type: self.seg_type,
            timestamp: self.timestamp,
            beta0: self.beta0,
            entries: self.entries.collect_refs().into_iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_proto::addr::ia;

    fn secrets(s: &str) -> AsSecrets {
        AsSecrets::derive(ia(s))
    }

    fn build_chain() -> (PathSegment, Vec<AsSecrets>) {
        let all = vec![secrets("71-1"), secrets("71-10"), secrets("71-100")];
        let seg = CowSegment::originate(SegmentType::UpDown, 1_700_000_000, 0x5a5a)
            .extend(&all[0], 0, 2, &[])
            .extend(&all[1], 7, 3, &[(ia("71-999"), 9, 4)])
            .extend(&all[2], 1, 0, &[])
            .materialize();
        (seg, all)
    }

    fn key_fn(all: &[AsSecrets]) -> impl Fn(IsdAsn) -> Option<VerifyingKey> + '_ {
        move |ia| {
            all.iter()
                .find(|s| s.ia == ia)
                .map(|s| s.signing.verifying_key())
        }
    }

    fn hop_fn(all: &[AsSecrets]) -> impl Fn(IsdAsn) -> Option<HopKey> + '_ {
        move |ia| all.iter().find(|s| s.ia == ia).map(|s| s.hop_key.clone())
    }

    #[test]
    fn built_segment_verifies() {
        let (seg, all) = build_chain();
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.origin(), ia("71-1"));
        assert_eq!(seg.terminus(), ia("71-100"));
        seg.verify(&key_fn(&all), &hop_fn(&all)).unwrap();
    }

    #[test]
    fn beta_chain_changes_per_hop() {
        let (seg, _) = build_chain();
        let b0 = seg.beta_at(0);
        let b1 = seg.beta_at(1);
        let b2 = seg.beta_at(2);
        assert_eq!(b0, 0x5a5a);
        assert_ne!(b0, b1);
        assert_ne!(b1, b2);
    }

    #[test]
    fn tampered_hop_interface_fails_mac() {
        let (mut seg, all) = build_chain();
        seg.entries[1].hop.cons_egress = 42;
        assert!(matches!(
            seg.verify(&key_fn(&all), &hop_fn(&all)),
            Err(ControlError::BadSegment(_))
        ));
    }

    #[test]
    fn tampered_mac_breaks_downstream_chain() {
        let (mut seg, all) = build_chain();
        // Flip a bit in hop 0's MAC: hop 0 fails; even if it passed, beta_1
        // would change and hop 1 would fail.
        seg.entries[0].hop.mac[5] ^= 1;
        assert!(seg.verify(&key_fn(&all), &hop_fn(&all)).is_err());
    }

    #[test]
    fn spliced_segments_rejected() {
        // Take hop 1 from a different segment (different beta0) — MAC chain
        // must reject the splice even though the hop is individually valid.
        let (seg_a, all) = build_chain();
        let seg_b = CowSegment::originate(SegmentType::UpDown, 1_700_000_000, 0x1111)
            .extend(&all[0], 0, 2, &[])
            .extend(&all[1], 7, 3, &[])
            .extend(&all[2], 1, 0, &[])
            .materialize();
        let mut spliced = seg_a;
        spliced.entries[1] = seg_b.entries[1].clone();
        assert!(spliced.verify(&key_fn(&all), &hop_fn(&all)).is_err());
    }

    #[test]
    fn signature_covers_history() {
        let (mut seg, all) = build_chain();
        // Mutating entry 0 after the fact invalidates entry 0's signature
        // (and the MAC); check the signature path by giving no hop keys.
        seg.entries[0].hop.exp_time ^= 1;
        let no_hops = |_: IsdAsn| None;
        assert!(seg.verify(&key_fn(&all), &no_hops).is_err());
    }

    #[test]
    fn peer_entry_verifies_and_is_bound() {
        let (seg, all) = build_chain();
        seg.verify(&key_fn(&all), &hop_fn(&all)).unwrap();
        let mut tampered = seg;
        tampered.entries[1].peers[0].hop.cons_ingress = 13;
        assert!(tampered.verify(&key_fn(&all), &hop_fn(&all)).is_err());
    }

    #[test]
    fn segment_id_stable_and_content_sensitive() {
        let (seg, _) = build_chain();
        assert_eq!(seg.id(), seg.id());
        let mut other = seg.clone();
        other.beta0 ^= 1;
        assert_ne!(seg.id(), other.id());
    }

    #[test]
    fn expiry_is_min_over_hops() {
        let (seg, _) = build_chain();
        // All hops share DEFAULT_EXP_TIME -> expiry = ts + (63+1)*337.5s.
        assert_eq!(seg.expiry(), 1_700_000_000 + 21_600);
    }

    #[test]
    fn ases_and_positions() {
        let (seg, _) = build_chain();
        assert_eq!(seg.ases(), vec![ia("71-1"), ia("71-10"), ia("71-100")]);
        assert!(seg.contains(ia("71-10")));
        assert_eq!(seg.position_of(ia("71-100")), Some(2));
        assert_eq!(seg.position_of(ia("71-404")), None);
    }

    #[test]
    fn cow_caches_agree_with_the_materialized_segment() {
        let empty = CowSegment::originate(SegmentType::Core, 1_700_000_000, 0x5a5a);
        assert!(empty.is_empty());
        let cow = empty
            .extend(&secrets("71-1"), 0, 2, &[])
            .extend(&secrets("71-10"), 7, 0, &[]);
        let seg = cow.materialize();
        assert_eq!(cow.id(), seg.id());
        assert_eq!(cow.len(), seg.len());
        assert_eq!(cow.seg_type(), seg.seg_type);
        assert_eq!(cow.timestamp(), seg.timestamp);
        assert!(cow.contains(ia("71-10")));
        assert!(!cow.contains(ia("71-404")));
    }

    #[test]
    fn cow_sibling_extensions_share_prefix_and_diverge() {
        let all = vec![secrets("71-1"), secrets("71-10"), secrets("71-100")];
        let base = CowSegment::originate(SegmentType::Core, 1_700_000_000, 0x0f0f).extend(
            &all[0],
            0,
            2,
            &[],
        );
        let ext1 = base.extend(&all[1], 7, 3, &[]);
        let ext2 = base.extend(&all[2], 8, 0, &[]);
        assert_ne!(ext1.id(), ext2.id());
        // The base is untouched by either sibling extension.
        assert_eq!(base.len(), 1);
        ext1.materialize()
            .verify(&key_fn(&all), &hop_fn(&all))
            .unwrap();
        ext2.materialize()
            .verify(&key_fn(&all), &hop_fn(&all))
            .unwrap();
        // The shared prefix entry is bit-identical in both materializations.
        assert_eq!(ext1.materialize().entries[0], ext2.materialize().entries[0]);
    }
}
