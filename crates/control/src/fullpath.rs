//! Combined end-to-end paths.
//!
//! A [`FullPath`] is the product of the combinator: an ordered list of
//! segment uses (which segment, which entry range, which traversal
//! direction, whether a peer hop substitutes the junction hop) plus derived
//! AS-level hops for analysis. [`FullPath::to_dataplane`] assembles the
//! verifiable wire path: per-segment info fields with the correct
//! construction-direction flag, peering flag and segment-identifier
//! initialisation, and the hop fields exactly as MACed during beaconing.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use scion_proto::addr::IsdAsn;
use scion_proto::path::{HopField, InfoField, ScionPath};

use crate::store::SegmentHandle;
use crate::ControlError;

/// Traversal direction of a segment use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Along construction direction (down segments, peering down parts).
    Cons,
    /// Against construction direction (up and core segments).
    AgainstCons,
}

/// How one segment contributes to a full path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentUse {
    /// The segment (shared interned handle; segments are immutable once
    /// registered, so every path assembled from a store aliases the same
    /// allocation instead of deep-copying entry lists).
    pub segment: SegmentHandle,
    /// Traversal direction.
    pub dir: Direction,
    /// First used entry (construction-order index, inclusive).
    pub from_idx: usize,
    /// Last used entry (construction-order index, inclusive).
    pub to_idx: usize,
    /// If set, the entry at the *junction end* is replaced by its peer hop
    /// toward this peer AS: for `AgainstCons` the entry at `from_idx`
    /// (traversed last), for `Cons` the entry at `from_idx` (traversed
    /// first).
    pub peer_with: Option<IsdAsn>,
}

impl SegmentUse {
    /// A full-segment use with no truncation or peering. Accepts either an
    /// interned [`SegmentHandle`] (cheap, the hot path) or an owned
    /// [`crate::segment::PathSegment`] (interned here).
    pub fn whole(segment: impl Into<SegmentHandle>, dir: Direction) -> Self {
        let segment = segment.into();
        let to_idx = segment.len() - 1;
        SegmentUse {
            segment,
            dir,
            from_idx: 0,
            to_idx,
            peer_with: None,
        }
    }

    /// Number of hop fields this use contributes.
    pub fn hop_count(&self) -> usize {
        self.to_idx - self.from_idx + 1
    }

    /// Entry indices in traversal order.
    fn traversal_indices(&self) -> impl Iterator<Item = usize> {
        let (from, to) = (self.from_idx, self.to_idx);
        let against = self.dir == Direction::AgainstCons;
        (from..=to).map(move |i| if against { to - (i - from) } else { i })
    }

    /// This use with its segment handle borrowed.
    pub(crate) fn as_ref(&self) -> UseRef<'_> {
        UseRef {
            segment: &self.segment,
            dir: self.dir,
            from_idx: self.from_idx,
            to_idx: self.to_idx,
            peer_with: self.peer_with,
        }
    }

    /// The hop field for entry `idx`, honouring peer substitution.
    fn hop_field_at(&self, idx: usize) -> Result<HopField, ControlError> {
        let entry = &self.segment.entries[idx];
        if idx == self.from_idx {
            if let Some(peer) = self.peer_with {
                let pe = entry.peers.iter().find(|p| p.peer == peer).ok_or_else(|| {
                    ControlError::BadSegment(format!(
                        "{} has no peer entry toward {}",
                        entry.ia, peer
                    ))
                })?;
                return Ok(pe.hop);
            }
        }
        Ok(entry.hop)
    }

    /// The initial segment identifier for the info field.
    ///
    /// * `Cons` without peering: `beta_{from_idx}` — hops verify then chain.
    /// * `Cons` with a peer first hop: `beta_{from_idx+1}` — the peer hop's
    ///   MAC is computed over the *next* beta and does not chain.
    /// * `AgainstCons`: `beta_{to_idx+1}` — each hop un-chains its own MAC
    ///   before verifying.
    fn seg_id_init(&self) -> u16 {
        match (self.dir, self.peer_with.is_some()) {
            (Direction::Cons, false) => self.segment.beta_at(self.from_idx),
            (Direction::Cons, true) => self.segment.beta_at(self.from_idx + 1),
            (Direction::AgainstCons, _) => self.segment.beta_at(self.to_idx + 1),
        }
    }

    /// Builds the info field for this use.
    fn info_field(&self) -> InfoField {
        InfoField {
            peering: self.peer_with.is_some(),
            cons_dir: self.dir == Direction::Cons,
            seg_id: self.seg_id_init(),
            timestamp: self.segment.timestamp,
        }
    }
}

/// A [`SegmentUse`] that borrows its segment handle: what the combinator
/// enumerates before it knows which candidates an answer reaches. Copying one
/// touches no reference count; [`UseRef::to_use`] takes the handle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UseRef<'a> {
    pub segment: &'a SegmentHandle,
    pub dir: Direction,
    pub from_idx: usize,
    pub to_idx: usize,
    pub peer_with: Option<IsdAsn>,
}

impl<'a> UseRef<'a> {
    /// The whole of `segment`, no truncation or peering.
    pub fn whole(segment: &'a SegmentHandle, dir: Direction) -> Self {
        UseRef {
            segment,
            dir,
            from_idx: 0,
            to_idx: segment.len() - 1,
            peer_with: None,
        }
    }

    /// The use itself, sharing the segment.
    pub fn to_use(self) -> SegmentUse {
        SegmentUse {
            segment: self.segment.clone(),
            dir: self.dir,
            from_idx: self.from_idx,
            to_idx: self.to_idx,
            peer_with: self.peer_with,
        }
    }

    /// The AS of the entry traversed first (`last == false`) or last.
    fn end_ia(&self, last: bool) -> IsdAsn {
        let at_to = last == (self.dir == Direction::Cons);
        self.segment.entries[if at_to { self.to_idx } else { self.from_idx }].ia
    }
}

/// Number of AS-level hops a path over `uses` (in traversal order, entry
/// ranges in bounds) has: every listed entry, less one for each two adjacent
/// uses that meet at the same AS. The packet crosses such a junction AS
/// internally, so its two hop fields make one hop; a peering junction joins
/// two *different* ASes and merges nothing.
///
/// [`FullPath::assemble`] sizes its hop list by this count and merges by the
/// same comparison, and the combinator orders its candidates by it before
/// assembling any: a candidate that assembles has exactly this many hops.
pub(crate) fn joined_hop_count<'a>(uses: impl IntoIterator<Item = UseRef<'a>>) -> usize {
    let mut hops = 0;
    let mut reached: Option<IsdAsn> = None;
    for u in uses {
        hops += u.to_idx - u.from_idx + 1;
        if reached == Some(u.end_ia(false)) {
            hops -= 1;
        }
        reached = Some(u.end_ia(true));
    }
    hops
}

/// How the path was combined (for analysis and policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathKind {
    /// up + core + down.
    CoreTransit,
    /// up + down joined at a shared core AS.
    SameCore,
    /// Truncated up + down joined at a shared non-core AS.
    Shortcut,
    /// up + down joined over a peering link.
    Peering,
    /// A single segment (src or dst is a core AS, or core-to-core).
    SingleSegment,
    /// up + core (destination is a core AS) or core + down.
    CoreEnd,
}

/// One AS-level hop of a combined path, in traversal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathHop {
    /// The AS.
    pub ia: IsdAsn,
    /// Interface the packet enters through (0 at the source AS).
    pub ingress: u16,
    /// Interface the packet leaves through (0 at the destination AS).
    pub egress: u16,
}

/// What a combined path *is*: end points, shape, the segment uses it is made
/// of and the AS-level hops derived from them. Plain data; a [`FullPath`] is a
/// shared, immutable handle to one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathBody {
    /// Source AS.
    pub src: IsdAsn,
    /// Destination AS.
    pub dst: IsdAsn,
    /// Combination shape.
    pub kind: PathKind,
    /// Segment uses in traversal order.
    pub uses: Vec<SegmentUse>,
    /// Derived AS-level hops in traversal order (junction ASes merged).
    pub hops: Vec<PathHop>,
}

/// The allocation behind a [`FullPath`]: the body and, beside it, the
/// fingerprint key of its hops once somebody has asked for it.
struct Shared {
    key: OnceLock<[u8; 8]>,
    body: PathBody,
}

/// A combined end-to-end path: a cheap-to-clone handle to an immutable
/// [`PathBody`], read through `Deref` (`p.hops`, `p.src`, …).
///
/// A clone shares the body (one reference-count bump), so a cached answer of
/// 200 paths is handed out without copying a hop. There is no mutable access
/// to a body, which is what lets [`FullPath::fingerprint_key`] be computed
/// once per body and kept: nothing can change the hops it was taken over.
///
/// ```compile_fail
/// use scion_control::fullpath::{FullPath, PathHop};
/// fn grow(path: &mut FullPath, hop: PathHop) {
///     path.hops.push(hop); // no `DerefMut`: a body is never mutated
/// }
/// ```
#[derive(Clone)]
pub struct FullPath(Arc<Shared>);

impl std::ops::Deref for FullPath {
    type Target = PathBody;

    fn deref(&self) -> &PathBody {
        &self.0.body
    }
}

/// By value: two handles are equal when their bodies are, wherever those
/// live. The memoised key is a function of the body and takes no part.
impl PartialEq for FullPath {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.body == other.0.body
    }
}

impl Eq for FullPath {}

impl std::fmt::Debug for FullPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.body.fmt(f)
    }
}

/// A path serialises as its body, so the JSON form is the one it had as a
/// plain struct.
impl Serialize for FullPath {
    fn serialize(&self) -> serde::Value {
        self.0.body.serialize()
    }
}

impl Deserialize for FullPath {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        PathBody::deserialize(v).map(FullPath::from_body)
    }
}

/// SHA-256 over the hops' `(ISD-AS, ingress, egress)` triples, first 8 bytes.
fn hash_hops(hops: &[PathHop]) -> [u8; 8] {
    // The combinator takes one fingerprint per candidate it reaches: the
    // triples of any path of up to 21 hops are laid out on the stack.
    const HOP_BYTES: usize = 12;
    let mut on_stack = [0u8; 21 * HOP_BYTES];
    let mut on_heap = Vec::new();
    let bytes = match on_stack.get_mut(..hops.len() * HOP_BYTES) {
        Some(buf) => buf,
        None => {
            on_heap.resize(hops.len() * HOP_BYTES, 0);
            &mut on_heap[..]
        }
    };
    for (h, triple) in hops.iter().zip(bytes.chunks_exact_mut(HOP_BYTES)) {
        triple[..8].copy_from_slice(&h.ia.to_u64().to_be_bytes());
        triple[8..10].copy_from_slice(&h.ingress.to_be_bytes());
        triple[10..].copy_from_slice(&h.egress.to_be_bytes());
    }
    let d = scion_crypto::sha256::sha256(bytes);
    let mut key = [0u8; 8];
    key.copy_from_slice(&d[..8]);
    key
}

impl FullPath {
    /// Wraps `body` as it is, without deriving or checking anything:
    /// [`FullPath::assemble`] is the constructor that validates. For tests
    /// and tools that need a path of given hops without real segments.
    pub fn from_body(body: PathBody) -> Self {
        FullPath(Arc::new(Shared {
            key: OnceLock::new(),
            body,
        }))
    }

    /// Whether this body's key has been taken yet (tests of who pays for
    /// the hash).
    #[cfg(test)]
    pub(crate) fn key_is_memoised(&self) -> bool {
        self.0.key.get().is_some()
    }

    /// Approximate resident size of the body this handle points at, in
    /// bytes: the shared header (reference counts and the memoised key), the
    /// body, and the heap behind its use and hop vectors. A further handle
    /// to the same body costs a pointer, not this. Segment bodies are shared
    /// interned handles and intentionally not counted — the store owns them
    /// (see `SegmentStore::approx_bytes`).
    pub fn approx_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Shared>()
            + self.uses.capacity() * std::mem::size_of::<SegmentUse>()
            + self.hops.capacity() * std::mem::size_of::<PathHop>()
    }

    /// Builds a path from segment uses, deriving and validating the AS-level
    /// hop sequence (adjacent uses must join at the same AS).
    pub fn assemble(
        src: IsdAsn,
        dst: IsdAsn,
        kind: PathKind,
        uses: Vec<SegmentUse>,
    ) -> Result<Self, ControlError> {
        if uses.is_empty() || uses.len() > 3 {
            return Err(ControlError::BadSegment(format!(
                "a path uses 1..=3 segments, got {}",
                uses.len()
            )));
        }
        for u in &uses {
            if u.from_idx > u.to_idx || u.to_idx >= u.segment.len() {
                return Err(ControlError::BadSegment(format!(
                    "entry range {}..={} out of bounds for segment of {} entries",
                    u.from_idx,
                    u.to_idx,
                    u.segment.len()
                )));
            }
        }
        // Merge at segment boundaries: when two adjacent uses join at the
        // same AS, the packet crosses that AS internally — it enters via the
        // previous use's ingress and leaves via the next use's egress; the
        // boundary-facing interfaces of the two hop fields are not used for
        // forwarding. Peering junctions cross a link between two *different*
        // ASes and are not merged.
        //
        // No scratch lists: the hops are sized exactly and written once, in
        // traversal order.
        let mut hops: Vec<PathHop> =
            Vec::with_capacity(joined_hop_count(uses.iter().map(SegmentUse::as_ref)));
        for u in &uses {
            for (step, idx) in u.traversal_indices().enumerate() {
                let hf = u.hop_field_at(idx)?;
                let (ingress, egress) = match u.dir {
                    Direction::Cons => (hf.cons_ingress, hf.cons_egress),
                    Direction::AgainstCons => (hf.cons_egress, hf.cons_ingress),
                };
                let ia = u.segment.entries[idx].ia;
                match hops.last_mut() {
                    Some(last) if step == 0 && last.ia == ia => last.egress = egress,
                    _ => hops.push(PathHop {
                        ia,
                        ingress,
                        egress,
                    }),
                }
            }
        }
        // The path's end points never use their outward-facing interfaces.
        if let Some(first) = hops.first_mut() {
            first.ingress = 0;
        }
        if let Some(last) = hops.last_mut() {
            last.egress = 0;
        }
        if hops.first().map(|h| h.ia) != Some(src) {
            return Err(ControlError::BadSegment(format!(
                "path does not start at {src}"
            )));
        }
        if hops.last().map(|h| h.ia) != Some(dst) {
            return Err(ControlError::BadSegment(format!(
                "path does not end at {dst}"
            )));
        }
        // No AS may appear twice (loop freedom).
        let revisits = |(i, h): (usize, &PathHop)| hops[..i].iter().any(|g| g.ia == h.ia);
        if hops.iter().enumerate().any(revisits) {
            return Err(ControlError::BadSegment("path visits an AS twice".into()));
        }
        Ok(FullPath::from_body(PathBody {
            src,
            dst,
            kind,
            uses,
            hops,
        }))
    }

    /// Number of AS-level hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the path is empty (never true for assembled paths).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// All globally-unique interface identifiers `(ISD-AS, ifid)` touched by
    /// the path — the §5.4 disjointness universe.
    pub fn interfaces(&self) -> Vec<(IsdAsn, u16)> {
        let mut out = Vec::with_capacity(self.hops.len() * 2);
        for h in &self.hops {
            if h.ingress != 0 {
                out.push((h.ia, h.ingress));
            }
            if h.egress != 0 {
                out.push((h.ia, h.egress));
            }
        }
        out
    }

    /// Whether the path enters or leaves `ia` through interface `ifid`: the
    /// membership test of [`Self::interfaces`] without building the list.
    pub fn crosses(&self, ia: IsdAsn, ifid: u16) -> bool {
        ifid != 0
            && self
                .hops
                .iter()
                .any(|h| h.ia == ia && (h.ingress == ifid || h.egress == ifid))
    }

    /// A short stable fingerprint (hex) identifying the path by its
    /// interface sequence — the paper's "path identifier".
    pub fn fingerprint(&self) -> String {
        fingerprint_hex(&self.fingerprint_key())
    }

    /// The raw 8-byte digest behind [`Self::fingerprint`]: hashed on the
    /// first call, a load on every later one, from any handle to this body.
    /// Fixed-width lowercase hex is order-preserving, so sorting by this key
    /// equals sorting by the hex string without allocating it — the
    /// combinator's sort/dedup step and the selector's ranking lean on that.
    pub fn fingerprint_key(&self) -> [u8; 8] {
        *self.0.key.get_or_init(|| hash_hops(&self.0.body.hops))
    }

    /// Earliest expiry over all used segments (Unix seconds).
    pub fn expiry(&self) -> u64 {
        self.uses
            .iter()
            .map(|u| u.segment.expiry())
            .min()
            .unwrap_or(0)
    }

    /// Assembles the data-plane path header. Hop fields appear in traversal
    /// order per segment; info fields carry direction, peering flag and the
    /// correct initial segment identifier, so border routers can verify
    /// every hop MAC.
    pub fn to_dataplane(&self) -> Result<ScionPath, ControlError> {
        let mut segments = Vec::with_capacity(self.uses.len());
        for u in &self.uses {
            let mut hops = Vec::with_capacity(u.hop_count());
            for idx in u.traversal_indices() {
                hops.push(u.hop_field_at(idx)?);
            }
            segments.push((u.info_field(), hops));
        }
        ScionPath::from_segments(segments)
            .map_err(|e| ControlError::BadSegment(format!("assembly failed: {e}")))
    }

    /// The ordered list of on-path ASes.
    pub fn ases(&self) -> Vec<IsdAsn> {
        self.hops.iter().map(|h| h.ia).collect()
    }
}

/// Approximate resident bytes behind a collection of path handles: a pointer
/// per handle, and each distinct body ([`FullPath::approx_bytes`]) once,
/// however many of the handles share it.
pub(crate) fn approx_shared_bytes<'a>(handles: impl IntoIterator<Item = &'a FullPath>) -> usize {
    let mut counted: HashSet<*const Shared> = HashSet::new();
    handles
        .into_iter()
        .map(|p| {
            let body = if counted.insert(Arc::as_ptr(&p.0)) {
                p.approx_bytes()
            } else {
                0
            };
            std::mem::size_of::<FullPath>() + body
        })
        .sum()
}

/// The hex [`FullPath::fingerprint`] of a [`FullPath::fingerprint_key`], for
/// callers that keep keys and render them only at a string boundary.
pub fn fingerprint_hex(key: &[u8; 8]) -> String {
    scion_crypto::sha256::to_hex(key)
}

/// Symmetric-difference disjointness: `1 − 2·|A∩B| / (|A|+|B|)` over the
/// two paths' globally-unique interface sets — 1.0 for fully disjoint
/// paths, 0.0 for identical ones ("having only 30 % of links in common"
/// reads as 0.7 under this metric). Used for path *selection*.
pub fn disjointness(a: &FullPath, b: &FullPath) -> f64 {
    let ia = a.interfaces();
    let ib = b.interfaces();
    if ia.is_empty() && ib.is_empty() {
        return 0.0;
    }
    let shared =
        ia.iter().filter(|x| ib.contains(x)).count() + ib.iter().filter(|x| ia.contains(x)).count();
    1.0 - shared as f64 / (ia.len() + ib.len()) as f64
}

/// The paper's Fig. 10b formula taken literally: "dividing the number of
/// distinct interfaces by the total number of interfaces for both paths",
/// i.e. `|A∪B| / (|A|+|B|)` — 1.0 for fully disjoint paths, 0.5 for
/// identical ones. (§5.5's parenthetical gloss matches
/// [`disjointness`] instead; EXPERIMENTS.md discusses the ambiguity.)
pub fn paper_disjointness(a: &FullPath, b: &FullPath) -> f64 {
    let ia = a.interfaces();
    let ib = b.interfaces();
    let total = ia.len() + ib.len();
    if total == 0 {
        return 0.5;
    }
    let mut distinct: Vec<(IsdAsn, u16)> = ia.iter().chain(ib.iter()).copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len() as f64 / total as f64
}

/// Number of interfaces `a` shares with `b` (the §5.4 most-disjoint-path
/// selection metric).
pub fn shared_interfaces(a: &FullPath, b: &FullPath) -> usize {
    let ib = b.interfaces();
    a.interfaces().iter().filter(|x| ib.contains(x)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{AsSecrets, PathSegment, SegmentBuilder, SegmentType};
    use scion_proto::addr::ia;

    /// Up segment: core 71-1 -> mid 71-10 -> leaf 71-100.
    fn up_segment() -> PathSegment {
        let mut b = SegmentBuilder::originate(SegmentType::UpDown, 1_700_000_000, 0xaaaa);
        b.extend(&AsSecrets::derive(ia("71-1")), 0, 11, &[]);
        b.extend(
            &AsSecrets::derive(ia("71-10")),
            21,
            22,
            &[(ia("71-20"), 29, 39)],
        );
        b.extend(&AsSecrets::derive(ia("71-100")), 31, 0, &[]);
        b.finish()
    }

    /// Down segment: core 71-2 -> mid 71-20 -> leaf 71-200.
    fn down_segment() -> PathSegment {
        let mut b = SegmentBuilder::originate(SegmentType::UpDown, 1_700_000_000, 0xbbbb);
        b.extend(&AsSecrets::derive(ia("71-2")), 0, 12, &[]);
        b.extend(
            &AsSecrets::derive(ia("71-20")),
            23,
            24,
            &[(ia("71-10"), 39, 29)],
        );
        b.extend(&AsSecrets::derive(ia("71-200")), 33, 0, &[]);
        b.finish()
    }

    /// Core segment constructed 71-2 -> 71-1 (usable from 71-1 to 71-2).
    fn core_segment() -> PathSegment {
        let mut b = SegmentBuilder::originate(SegmentType::Core, 1_700_000_000, 0xcccc);
        b.extend(&AsSecrets::derive(ia("71-2")), 0, 41, &[]);
        b.extend(&AsSecrets::derive(ia("71-1")), 42, 0, &[]);
        b.finish()
    }

    fn core_transit() -> FullPath {
        FullPath::assemble(
            ia("71-100"),
            ia("71-200"),
            PathKind::CoreTransit,
            vec![
                SegmentUse::whole(up_segment(), Direction::AgainstCons),
                SegmentUse::whole(core_segment(), Direction::AgainstCons),
                SegmentUse::whole(down_segment(), Direction::Cons),
            ],
        )
        .unwrap()
    }

    /// Three hops and no segments: what `from_body` is for.
    fn bare_path() -> FullPath {
        let hop = |s: &str, ingress, egress| PathHop {
            ia: ia(s),
            ingress,
            egress,
        };
        FullPath::from_body(PathBody {
            src: ia("71-100"),
            dst: ia("71-2:0:3b"),
            kind: PathKind::SameCore,
            uses: Vec::new(),
            hops: vec![
                hop("71-100", 0, 31),
                hop("71-1", 11, 12),
                hop("71-2:0:3b", 7, 0),
            ],
        })
    }

    #[test]
    fn equality_is_by_value_and_a_clone_shares_its_body() {
        let (a, b) = (core_transit(), core_transit());
        assert!(!Arc::ptr_eq(&a.0, &b.0), "assembled separately");
        assert_eq!(a, b);
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.0, &c.0), "a clone is a second handle");
        assert_eq!(a, c);
        assert_ne!(a, bare_path());
        // The key is derived state: taking it on one side changes nothing.
        a.fingerprint_key();
        assert!(a.key_is_memoised() && !b.key_is_memoised());
        assert_eq!(a, b);
    }

    #[test]
    fn the_memoised_key_is_the_plain_hash_of_the_hops() {
        for p in [core_transit(), bare_path()] {
            // Assembled, never finalised: nobody has hashed it yet.
            assert!(!p.key_is_memoised());
            let handle = p.clone();
            let first = p.fingerprint_key();
            assert_eq!(first, hash_hops(&p.hops));
            // Kept beside the body, so every handle sees it.
            assert!(handle.key_is_memoised());
            assert_eq!(handle.fingerprint_key(), first);
            assert_eq!(p.fingerprint(), fingerprint_hex(&first));
            // An equal body elsewhere hashes to the same key on its own.
            let twin = FullPath::from_body(PathBody::clone(&p));
            assert!(!twin.key_is_memoised());
            assert_eq!(twin.fingerprint_key(), first);
        }
        // The fingerprints themselves are part of the dataset format.
        assert_eq!(bare_path().fingerprint(), "20b7c2d6a87773e4");
    }

    #[test]
    fn the_hash_reads_the_same_bytes_from_stack_or_heap() {
        // The triples in one `Vec`, as they were laid out before.
        let plain = |hops: &[PathHop]| {
            let mut bytes = Vec::new();
            for h in hops {
                bytes.extend_from_slice(&h.ia.to_u64().to_be_bytes());
                bytes.extend_from_slice(&h.ingress.to_be_bytes());
                bytes.extend_from_slice(&h.egress.to_be_bytes());
            }
            scion_crypto::sha256::sha256(&bytes)
        };
        let hops: Vec<PathHop> = (0..40u16)
            .map(|i| PathHop {
                ia: ia(&format!("71-2:0:{i:x}")),
                ingress: i,
                egress: 1000 + i,
            })
            .collect();
        // Empty, short, the last length on the stack, the first beyond it.
        for n in [0, 1, 6, 20, 21, 22, 40] {
            assert_eq!(
                hash_hops(&hops[..n])[..],
                plain(&hops[..n])[..8],
                "{n} hops"
            );
        }
    }

    #[test]
    fn crosses_is_membership_in_the_interface_list() {
        let peering = FullPath::assemble(
            ia("71-100"),
            ia("71-200"),
            PathKind::Peering,
            vec![
                SegmentUse {
                    peer_with: Some(ia("71-20")),
                    from_idx: 1,
                    ..SegmentUse::whole(up_segment(), Direction::AgainstCons)
                },
                SegmentUse {
                    peer_with: Some(ia("71-10")),
                    from_idx: 1,
                    ..SegmentUse::whole(down_segment(), Direction::Cons)
                },
            ],
        )
        .unwrap();
        for p in [core_transit(), peering, bare_path()] {
            let listed = p.interfaces();
            let mut crossed = 0;
            // Every on-path AS and one that is not; interface 0 is "none",
            // which the end points carry and nothing crosses.
            for at in p.ases().into_iter().chain([ia("71-404")]) {
                for ifid in 0..=50 {
                    assert_eq!(
                        p.crosses(at, ifid),
                        listed.contains(&(at, ifid)),
                        "{at} {ifid}"
                    );
                    crossed += usize::from(p.crosses(at, ifid));
                }
            }
            assert_eq!(crossed, listed.len());
        }
    }

    #[test]
    fn a_path_serialises_as_its_body() {
        let golden = concat!(
            r#"{"src":{"isd":71,"asn":100},"dst":{"isd":71,"asn":8589934651},"#,
            r#""kind":"SameCore","uses":[],"hops":["#,
            r#"{"ia":{"isd":71,"asn":100},"ingress":0,"egress":31},"#,
            r#"{"ia":{"isd":71,"asn":1},"ingress":11,"egress":12},"#,
            r#"{"ia":{"isd":71,"asn":8589934651},"ingress":7,"egress":0}]}"#
        );
        let p = bare_path();
        assert_eq!(serde_json::to_string(&p).unwrap(), golden);
        let back: FullPath = serde_json::from_str(golden).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.fingerprint_key(), p.fingerprint_key());
        // With real segments behind it, and with the key already taken.
        let p = core_transit();
        p.fingerprint_key();
        let text = serde_json::to_string(&p).unwrap();
        assert_eq!(text, serde_json::to_string(&PathBody::clone(&p)).unwrap());
        let back: FullPath = serde_json::from_str(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_dataplane().unwrap(), p.to_dataplane().unwrap());
    }

    #[test]
    fn shared_bodies_are_counted_once() {
        let (a, b) = (core_transit(), bare_path());
        let handle = std::mem::size_of::<FullPath>();
        assert_eq!(handle, std::mem::size_of::<usize>());
        assert!(a.approx_bytes() > std::mem::size_of::<PathBody>() + 8);
        let one = approx_shared_bytes([&a]);
        assert_eq!(one, handle + a.approx_bytes());
        let copies = [a.clone(), a.clone(), b.clone()];
        assert_eq!(
            approx_shared_bytes(copies.iter().chain([&a, &b])),
            5 * handle + a.approx_bytes() + b.approx_bytes()
        );
        // An equal body in its own allocation is its own memory.
        assert_eq!(approx_shared_bytes([&a, &core_transit()]), 2 * one);
    }

    #[test]
    fn core_transit_hops() {
        let p = core_transit();
        assert_eq!(
            p.ases(),
            vec![
                ia("71-100"),
                ia("71-10"),
                ia("71-1"),
                ia("71-2"),
                ia("71-20"),
                ia("71-200")
            ]
        );
        // Source has no ingress; destination has no egress.
        assert_eq!(p.hops.first().unwrap().ingress, 0);
        assert_eq!(p.hops.last().unwrap().egress, 0);
        // Junction core ASes merged: 71-1 enters from child link, leaves on core.
        let h1 = p.hops[2];
        assert_eq!(h1.ia, ia("71-1"));
        assert_eq!(h1.ingress, 11);
        assert_eq!(h1.egress, 42);
    }

    #[test]
    fn dataplane_assembly_counts() {
        let p = core_transit();
        let dp = p.to_dataplane().unwrap();
        assert_eq!(dp.meta.seg_len, [3, 2, 3]);
        assert_eq!(dp.info.len(), 3);
        assert!(!dp.info[0].cons_dir);
        assert!(!dp.info[1].cons_dir);
        assert!(dp.info[2].cons_dir);
        // Against-cons segments init seg_id to beta_{end+1}; cons to beta_0.
        let up = up_segment();
        assert_eq!(dp.info[0].seg_id, up.beta_at(3));
        let down = down_segment();
        assert_eq!(dp.info[2].seg_id, down.beta_at(0));
    }

    #[test]
    fn shortcut_truncates_segments() {
        // Join at common mid AS: pretend 71-10 appears in both segments.
        let up = up_segment();
        let mut b = SegmentBuilder::originate(SegmentType::UpDown, 1_700_000_000, 0xdddd);
        b.extend(&AsSecrets::derive(ia("71-1")), 0, 11, &[]);
        b.extend(&AsSecrets::derive(ia("71-10")), 21, 25, &[]);
        b.extend(&AsSecrets::derive(ia("71-300")), 35, 0, &[]);
        let down = b.finish();
        let p = FullPath::assemble(
            ia("71-100"),
            ia("71-300"),
            PathKind::Shortcut,
            vec![
                SegmentUse {
                    segment: up.into(),
                    dir: Direction::AgainstCons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: None,
                },
                SegmentUse {
                    segment: down.into(),
                    dir: Direction::Cons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: None,
                },
            ],
        )
        .unwrap();
        assert_eq!(p.ases(), vec![ia("71-100"), ia("71-10"), ia("71-300")]);
        let dp = p.to_dataplane().unwrap();
        assert_eq!(dp.meta.seg_len, [2, 2, 0]);
    }

    #[test]
    fn peering_path_uses_peer_hops() {
        let p = FullPath::assemble(
            ia("71-100"),
            ia("71-200"),
            PathKind::Peering,
            vec![
                SegmentUse {
                    segment: up_segment().into(),
                    dir: Direction::AgainstCons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: Some(ia("71-20")),
                },
                SegmentUse {
                    segment: down_segment().into(),
                    dir: Direction::Cons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: Some(ia("71-10")),
                },
            ],
        )
        .unwrap();
        assert_eq!(
            p.ases(),
            vec![ia("71-100"), ia("71-10"), ia("71-20"), ia("71-200")]
        );
        // Peering junction crosses 71-10 ifid 29 <-> 71-20 ifid 39.
        assert_eq!(p.hops[1].egress, 29);
        assert_eq!(p.hops[2].ingress, 39);
        let dp = p.to_dataplane().unwrap();
        assert!(dp.info[0].peering);
        assert!(dp.info[1].peering);
        // Peering info fields init seg_id with beta_{idx+1} semantics.
        let up = up_segment();
        assert_eq!(dp.info[1].seg_id, down_segment().beta_at(2));
        assert_eq!(dp.info[0].seg_id, up.beta_at(3));
    }

    #[test]
    fn missing_peer_entry_rejected() {
        let r = FullPath::assemble(
            ia("71-100"),
            ia("71-200"),
            PathKind::Peering,
            vec![
                SegmentUse {
                    segment: up_segment().into(),
                    dir: Direction::AgainstCons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: Some(ia("71-404")),
                },
                SegmentUse::whole(down_segment(), Direction::Cons),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn wrong_endpoints_rejected() {
        let r = FullPath::assemble(
            ia("71-999"),
            ia("71-200"),
            PathKind::CoreTransit,
            vec![SegmentUse::whole(up_segment(), Direction::AgainstCons)],
        );
        assert!(r.is_err());
    }

    #[test]
    fn loops_rejected() {
        // up then the same segment down again would visit ASes twice.
        let r = FullPath::assemble(
            ia("71-100"),
            ia("71-100"),
            PathKind::SameCore,
            vec![
                SegmentUse::whole(up_segment(), Direction::AgainstCons),
                SegmentUse::whole(up_segment(), Direction::Cons),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn interfaces_and_fingerprint() {
        let p = core_transit();
        let ifs = p.interfaces();
        // 6 hops, ends have one interface each, middles two.
        assert_eq!(ifs.len(), 10);
        assert!(ifs.contains(&(ia("71-1"), 11)));
        assert_eq!(p.fingerprint(), p.fingerprint());
        assert_eq!(p.fingerprint().len(), 16);
    }

    #[test]
    fn paper_disjointness_bounds() {
        let p = core_transit();
        assert_eq!(paper_disjointness(&p, &p), 0.5);
        let other = FullPath::assemble(
            ia("71-100"),
            ia("71-1"),
            PathKind::SingleSegment,
            vec![SegmentUse::whole(up_segment(), Direction::AgainstCons)],
        )
        .unwrap();
        let d = paper_disjointness(&p, &other);
        assert!(d > 0.5 && d < 1.0, "partial overlap: {d}");
    }

    #[test]
    fn disjointness_metric() {
        let p = core_transit();
        assert_eq!(disjointness(&p, &p), 0.0);
        // A path sharing nothing: single-segment path elsewhere.
        let other = FullPath::assemble(
            ia("71-100"),
            ia("71-1"),
            PathKind::SingleSegment,
            vec![SegmentUse::whole(up_segment(), Direction::AgainstCons)],
        )
        .unwrap();
        let d = disjointness(&p, &other);
        assert!(d > 0.0 && d < 1.0, "partially overlapping: {d}");
        assert_eq!(shared_interfaces(&p, &p), p.interfaces().len());
    }

    #[test]
    fn single_segment_path() {
        let p = FullPath::assemble(
            ia("71-100"),
            ia("71-1"),
            PathKind::SingleSegment,
            vec![SegmentUse::whole(up_segment(), Direction::AgainstCons)],
        )
        .unwrap();
        assert_eq!(p.ases(), vec![ia("71-100"), ia("71-10"), ia("71-1")]);
        let dp = p.to_dataplane().unwrap();
        assert_eq!(dp.meta.seg_len, [3, 0, 0]);
        assert_eq!(p.expiry(), 1_700_000_000 + 21_600);
    }
}
