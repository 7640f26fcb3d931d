//! Combined end-to-end paths.
//!
//! A [`FullPath`] is the product of the combinator: an ordered list of
//! segment uses (which segment, which entry range, which traversal
//! direction, whether a peer hop substitutes the junction hop) plus derived
//! AS-level hops for analysis. [`FullPath::to_dataplane`] assembles the
//! verifiable wire path: per-segment info fields with the correct
//! construction-direction flag, peering flag and segment-identifier
//! initialisation, and the hop fields exactly as MACed during beaconing.
//!
//! A lookup's paths of one length share one path group: a small record
//! per path (key, shape, packed segment uses) and all their hops in one flat
//! array. What a lookup, a connect, a probe or an invalidation sweep reads of
//! a path — its key, length, hops, interfaces, expiry, wire form — comes
//! from the group; a path's [`PathBody`] is built only when something
//! derefs the handle.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use sciera_telemetry::work::{self, Work};
use scion_proto::addr::IsdAsn;
use scion_proto::path::{HopField, InfoField, ScionPath};

use crate::segment::AsEntry;
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
}

/// A [`SegmentUse`] that borrows its segment handle: how the hop rule, the
/// wire assembly and path equality read a use, wherever it is stored.
/// Copying one touches no reference count; [`UseRef::to_use`] takes the
/// handle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct UseRef<'a> {
    pub segment: &'a SegmentHandle,
    pub dir: Direction,
    pub from_idx: usize,
    pub to_idx: usize,
    pub peer_with: Option<IsdAsn>,
}

impl UseRef<'_> {
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

    /// Calls `visit` with each used entry's AS and hop field, in traversal
    /// order: at the junction end of a peering use (entry `from_idx`) the
    /// peer hop toward `peer_with`. The entry range must be in bounds.
    fn traverse(self, mut visit: impl FnMut(IsdAsn, HopField)) -> Result<(), Rejected> {
        let used = &self.segment.entries[self.from_idx..=self.to_idx];
        let mut step = |(at, entry): (usize, &AsEntry)| {
            let hop = match self.peer_with {
                Some(peer) if at == 0 => entry
                    .peers
                    .iter()
                    .find(|p| p.peer == peer)
                    .map(|pe| pe.hop)
                    .ok_or(Rejected::NoPeer { at: entry.ia, peer })?,
                _ => entry.hop,
            };
            visit(entry.ia, hop);
            Ok(())
        };
        match self.dir {
            Direction::Cons => used.iter().enumerate().try_for_each(&mut step),
            Direction::AgainstCons => used.iter().enumerate().rev().try_for_each(&mut step),
        }
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

/// A segment use as the combinator plans it and a [`PathGroup`] stores it, in
/// 10 bytes: the index of the segment in the lookup's segment table (every
/// segment the lookup read, [`PathGroup`]'s `segments`), the used entry range
/// as two `u8`s (SCION's path header carries fewer than 64 hop fields a
/// segment) and, for a peering use, the *index* of the peer entry at the
/// junction. A kept path's uses hold no reference count of their own: the
/// table does, once per segment per lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedUse {
    pub segment: u16,
    pub dir: Direction,
    pub from: u8,
    pub to: u8,
    /// Index into the junction entry's `peers` of the first entry toward
    /// the peer AS, which is the one [`UseRef::traverse`] takes.
    pub peer: Option<u16>,
}

impl PackedUse {
    /// The whole of `segment`, entry `index` of the segment table, no
    /// truncation or peering.
    pub fn whole(index: usize, segment: &SegmentHandle, dir: Direction) -> Self {
        PackedUse {
            segment: u16::try_from(index).expect("a lookup reads fewer than 2^16 segments"),
            dir,
            from: 0,
            to: u8::try_from(segment.len() - 1).expect("a segment of at most 256 entries"),
            peer: None,
        }
    }

    /// The use as the hop rule reads it, its segment looked up in `table`.
    pub fn view<'a, S: Borrow<SegmentHandle>>(&self, table: &'a [S]) -> UseRef<'a> {
        let segment = table[usize::from(self.segment)].borrow();
        let (from_idx, to_idx) = (usize::from(self.from), usize::from(self.to));
        UseRef {
            segment,
            dir: self.dir,
            from_idx,
            to_idx,
            peer_with: self
                .peer
                .map(|i| segment.entries[from_idx].peers[usize::from(i)].peer),
        }
    }
}

/// Why segment uses make no path from `src` to `dst`: what [`derive_hops`]
/// checks, kept as plain values so that a candidate the combinator rejects
/// costs no allocation. A [`ControlError`] renders it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rejected {
    Uses(usize),
    Range {
        from: usize,
        to: usize,
        entries: usize,
    },
    NoPeer {
        at: IsdAsn,
        peer: IsdAsn,
    },
    Start(IsdAsn),
    End(IsdAsn),
    Loop,
}

impl From<Rejected> for ControlError {
    fn from(r: Rejected) -> Self {
        ControlError::BadSegment(match r {
            Rejected::Uses(n) => format!("a path uses 1..=3 segments, got {n}"),
            Rejected::Range { from, to, entries } => {
                format!("entry range {from}..={to} out of bounds for segment of {entries} entries")
            }
            Rejected::NoPeer { at, peer } => format!("{at} has no peer entry toward {peer}"),
            Rejected::Start(src) => format!("path does not start at {src}"),
            Rejected::End(dst) => format!("path does not end at {dst}"),
            Rejected::Loop => "path visits an AS twice".into(),
        })
    }
}

/// The hop rule and every check a path passes: appends to `hops` the
/// AS-level hops of the path from `src` to `dst` over `uses` (in traversal
/// order), or leaves `hops` as it was and says why there is none. Checked:
/// one to three uses, entry ranges in bounds, peer entries present, the end
/// points, loop freedom. [`FullPath::assemble`] is this, a hash and a body;
/// the combinator derives every candidate it reaches into one buffer per
/// lookup, sized from the planned lengths ([`joined_hop_count`]), and copies
/// into its [`PathGroup`]s only the hops of the paths it keeps.
///
/// Adjacent uses that join at the same AS are merged: the packet crosses
/// that AS internally — it enters via the previous use's ingress and leaves
/// via the next use's egress; the boundary-facing interfaces of the two hop
/// fields are not used for forwarding. Peering junctions cross a link
/// between two *different* ASes and are not merged.
pub(crate) fn derive_hops<'a, I>(
    src: IsdAsn,
    dst: IsdAsn,
    uses: I,
    hops: &mut Vec<PathHop>,
) -> Result<(), Rejected>
where
    I: IntoIterator<Item = UseRef<'a>>,
    I::IntoIter: Clone,
{
    let uses = uses.into_iter();
    let mut count = 0;
    for u in uses.clone() {
        count += 1;
        if u.from_idx > u.to_idx || u.to_idx >= u.segment.len() {
            let entries = u.segment.len();
            let (from, to) = (u.from_idx, u.to_idx);
            return Err(Rejected::Range { from, to, entries });
        }
    }
    if !(1..=3).contains(&count) {
        return Err(Rejected::Uses(count));
    }
    let start = hops.len();
    let derived = push_hops(src, dst, uses, hops, start);
    if derived.is_err() {
        hops.truncate(start);
    }
    derived
}

/// [`derive_hops`] past its range checks, appending from `start`; on an
/// error it leaves what it pushed for the caller to drop.
fn push_hops<'a>(
    src: IsdAsn,
    dst: IsdAsn,
    uses: impl Iterator<Item = UseRef<'a>>,
    hops: &mut Vec<PathHop>,
    start: usize,
) -> Result<(), Rejected> {
    for u in uses {
        // A use's first hop meets the path so far, if there is one.
        let mut joining = hops.len() > start;
        u.traverse(|ia, hf| {
            let (ingress, egress) = match u.dir {
                Direction::Cons => (hf.cons_ingress, hf.cons_egress),
                Direction::AgainstCons => (hf.cons_egress, hf.cons_ingress),
            };
            match hops.last_mut() {
                Some(last) if joining && last.ia == ia => last.egress = egress,
                _ => hops.push(PathHop {
                    ia,
                    ingress,
                    egress,
                }),
            }
            joining = false;
        })?;
    }
    let path = &mut hops[start..];
    // The path's end points never use their outward-facing interfaces.
    if let Some(first) = path.first_mut() {
        first.ingress = 0;
    }
    if let Some(last) = path.last_mut() {
        last.egress = 0;
    }
    if path.first().map(|h| h.ia) != Some(src) {
        return Err(Rejected::Start(src));
    }
    if path.last().map(|h| h.ia) != Some(dst) {
        return Err(Rejected::End(dst));
    }
    // No AS may appear twice (loop freedom). One pass sets each AS's bit in
    // a 64-bit filter (equal ASes, equal bits); only a hop whose bit is
    // already set is compared with the hops before it.
    let mut seen = 0u64;
    for (i, h) in path.iter().enumerate() {
        let bit = 1u64 << (h.ia.to_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58);
        if seen & bit != 0 && path[..i].iter().any(|g| g.ia == h.ia) {
            return Err(Rejected::Loop);
        }
        seen |= bit;
    }
    Ok(())
}

/// Number of AS-level hops a path over `uses` (in traversal order, entry
/// ranges in bounds) has: every listed entry, less one for each two adjacent
/// uses that meet at the same AS. The packet crosses such a junction AS
/// internally, so its two hop fields make one hop; a peering junction joins
/// two *different* ASes and merges nothing.
///
/// [`derive_hops`] merges by the same comparison, and the combinator orders
/// its candidates by this count and sizes its hop buffer by it before
/// deriving any: a candidate whose hops derive has exactly this many.
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
/// of and the AS-level hops derived from them. Plain data; a [`FullPath`]
/// derefs to one, built from its group the first time it is read.
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

/// One path of a [`PathGroup`]: its key, shape and segment uses, and its
/// body once something has read it.
struct GroupPath {
    key: [u8; 8],
    kind: PathKind,
    uses: [Option<PackedUse>; 3],
    body: OnceLock<Box<PathBody>>,
}

/// The kept paths of one hop count of one lookup's answer, shared by every
/// handle to them: a record per path and all their hops in one flat array,
/// `len` hops a path, and the lookup's segment table, which the records'
/// uses index. A lookup's answer is one group per length it keeps, three
/// allocations each (the shared header and its two lists) whatever the
/// group's size, plus the one table all its groups share; taking a handle
/// to a path is a reference-count bump. A handle kept after its answer is
/// dropped — a caller holding the shortest path of many answers, a prober
/// holding a pair's first few — keeps only the paths of its own length
/// alive, and the table, not the whole answer.
///
/// A path wrapped from a body ([`FullPath::from_body`],
/// [`FullPath::assemble`]) is a group of one whose body is given and whose
/// flat array and table are empty: such a path is read through its body,
/// every other through its group.
pub(crate) struct PathGroup {
    src: IsdAsn,
    dst: IsdAsn,
    len: usize,
    segments: Arc<[SegmentHandle]>,
    paths: Vec<GroupPath>,
    hops: Vec<PathHop>,
}

impl PathGroup {
    /// An empty group of paths of `len` hops from `src` to `dst` over the
    /// segment table `segments`, with room for `paths` of them.
    pub fn with_capacity(
        src: IsdAsn,
        dst: IsdAsn,
        len: usize,
        segments: &Arc<[SegmentHandle]>,
        paths: usize,
    ) -> Self {
        PathGroup {
            src,
            dst,
            len,
            segments: Arc::clone(segments),
            paths: Vec::with_capacity(paths),
            hops: Vec::with_capacity(paths * len),
        }
    }

    /// Appends a path of `kind` over `hops` (the group's `len` of them) and
    /// `uses` (indices into the group's table), keyed `key` ([`hash_hops`]
    /// of `hops`).
    pub fn push<'a>(
        &mut self,
        key: [u8; 8],
        kind: PathKind,
        hops: &[PathHop],
        uses: impl IntoIterator<Item = &'a PackedUse>,
    ) {
        debug_assert_eq!(hops.len(), self.len, "a group's paths have its length");
        debug_assert_eq!(key, hash_hops(hops), "a key is its hops' hash");
        self.hops.extend_from_slice(hops);
        let mut slots = [None, None, None];
        for (slot, u) in slots.iter_mut().zip(uses) {
            *slot = Some(*u);
        }
        self.paths.push(GroupPath {
            key,
            kind,
            uses: slots,
            body: OnceLock::new(),
        });
    }

    /// The group shared, as one handle per path in the order pushed,
    /// appended to `handles`.
    pub fn share(self, handles: &mut Vec<FullPath>) {
        let group = Arc::new(self);
        handles.extend((0..group.paths.len()).map(|i| FullPath::in_group(&group, i)));
    }

    /// Approximate resident bytes: the shared header (reference counts and
    /// the group), its two lists, the segment table it shares with the
    /// answer's other groups (counted with each) and every body built from
    /// it. Segment bodies are the store's and intentionally not counted (see
    /// `SegmentStore::approx_bytes`).
    fn approx_bytes(&self) -> usize {
        let body = |b: &PathBody| {
            std::mem::size_of::<PathBody>()
                + b.uses.capacity() * std::mem::size_of::<SegmentUse>()
                + b.hops.capacity() * std::mem::size_of::<PathHop>()
        };
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<PathGroup>()
            + self.paths.capacity() * std::mem::size_of::<GroupPath>()
            + self.hops.capacity() * std::mem::size_of::<PathHop>()
            + self.segments.len() * std::mem::size_of::<SegmentHandle>()
            + self
                .paths
                .iter()
                .filter_map(|p| p.body.get())
                .map(|b| body(b))
                .sum::<usize>()
    }
}

/// A combined end-to-end path: a 24-byte handle to one path of a shared
/// group (the kept paths of one length of one lookup, hops in a flat
/// array), carrying inline the two things a selector ranks by — the
/// fingerprint key and the hop count. It reads as a [`PathBody`] through
/// `Deref` (`p.hops`, `p.src`, …); the body is built on the first deref, at
/// most once however many threads race to it, and kept with the group.
/// Everything else — [`Self::len`], [`Self::fingerprint_key`],
/// [`Self::hop_slice`], [`Self::crosses`], [`Self::interfaces`],
/// [`Self::expiry`], [`Self::to_dataplane`], [`Self::ases`] and equality —
/// reads the group and builds nothing.
///
/// A clone shares the group (one reference-count bump), so a cached answer
/// of 200 paths is handed out without copying a hop. There is no mutable
/// access to a group, which is what lets the key and hop count be taken
/// once, when the answer is assembled, and kept beside the pointer: nothing
/// can change the hops they were taken over. Ranking a list of handles
/// reads the list and no group.
///
/// ```compile_fail
/// use scion_control::fullpath::{FullPath, PathHop};
/// fn grow(path: &mut FullPath, hop: PathHop) {
///     path.hops.push(hop); // no `DerefMut`: a body is never mutated
/// }
/// ```
#[derive(Clone)]
pub struct FullPath {
    group: Arc<PathGroup>,
    index: u32,
    len: u32,
    key: [u8; 8],
}

impl std::ops::Deref for FullPath {
    type Target = PathBody;

    fn deref(&self) -> &PathBody {
        let group = &*self.group;
        let path = self.record();
        path.body.get_or_init(|| {
            work::add(Work::BodiesBuilt, 1);
            // Sized exactly: the body is kept for as long as the group.
            let mut uses = Vec::with_capacity(self.use_refs().count());
            uses.extend(self.use_refs().map(UseRef::to_use));
            Box::new(PathBody {
                src: group.src,
                dst: group.dst,
                kind: path.kind,
                uses,
                hops: self.hop_slice().to_vec(),
            })
        })
    }
}

/// By value: two handles are equal when their paths are, wherever those
/// live, compared over their groups without building a body. The key
/// is a function of the hops, so differing keys mean differing paths
/// without reading either.
impl PartialEq for FullPath {
    fn eq(&self, other: &Self) -> bool {
        let same = Arc::ptr_eq(&self.group, &other.group) && self.index == other.index;
        same || (self.key == other.key
            && self.group.src == other.group.src
            && self.group.dst == other.group.dst
            && self.record().kind == other.record().kind
            && self.hop_slice() == other.hop_slice()
            && self.use_refs().eq(other.use_refs()))
    }
}

impl Eq for FullPath {}

impl std::fmt::Debug for FullPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        <PathBody as std::fmt::Debug>::fmt(self, f)
    }
}

/// A path serialises as its body, so the JSON form is the one it had as a
/// plain struct.
impl Serialize for FullPath {
    fn serialize(&self) -> serde::Value {
        <PathBody as Serialize>::serialize(self)
    }
}

impl Deserialize for FullPath {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        PathBody::deserialize(v).map(FullPath::from_body)
    }
}

/// SHA-256 over the hops' `(ISD-AS, ingress, egress)` triples, first 8 bytes.
pub(crate) fn hash_hops(hops: &[PathHop]) -> [u8; 8] {
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
    /// Wraps `body` as it is, taking its key and hop count but checking
    /// nothing: [`FullPath::assemble`] is the constructor that validates. For
    /// tests and tools that need a path of given hops without real segments,
    /// and for deserialisation.
    pub fn from_body(body: PathBody) -> Self {
        let (src, dst, len) = (body.src, body.dst, body.hops.len());
        let path = GroupPath {
            key: hash_hops(&body.hops),
            kind: body.kind,
            uses: [None, None, None],
            body: OnceLock::from(Box::new(body)),
        };
        let group = PathGroup {
            src,
            dst,
            len,
            segments: Arc::default(),
            paths: vec![path],
            hops: Vec::new(),
        };
        FullPath::in_group(&Arc::new(group), 0)
    }

    /// The handle to path `index` of `group`.
    fn in_group(group: &Arc<PathGroup>, index: usize) -> Self {
        FullPath {
            index: u32::try_from(index).expect("a group of fewer than 2^32 paths"),
            len: u32::try_from(group.len).expect("a path of fewer than 2^32 hops"),
            key: group.paths[index].key,
            group: Arc::clone(group),
        }
    }

    fn record(&self) -> &GroupPath {
        &self.group.paths[self.index as usize]
    }

    /// The given body of a path wrapped from one, whose group holds no hops
    /// of its own; `None` for a combined path, which is read from its group
    /// whether or not its body has been built (the group's arrays are
    /// contiguous, the bodies are not).
    fn wrapped(&self) -> Option<&PathBody> {
        if self.group.hops.is_empty() {
            self.record().body.get().map(|body| &**body)
        } else {
            None
        }
    }

    /// Approximate resident size of the group this handle shares, in bytes
    /// ([`PathGroup`]): a further handle to it costs a handle, not this.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.group.approx_bytes()
    }

    /// Builds a path from segment uses, deriving and validating the AS-level
    /// hop sequence by the combinator's hop rule: one to three uses, entry
    /// ranges in bounds, peer entries present, the end points, no AS twice;
    /// adjacent uses must join at the same AS.
    pub fn assemble(
        src: IsdAsn,
        dst: IsdAsn,
        kind: PathKind,
        uses: Vec<SegmentUse>,
    ) -> Result<Self, ControlError> {
        let mut hops = Vec::new();
        derive_hops(src, dst, uses.iter().map(SegmentUse::as_ref), &mut hops)?;
        // A kept path holds no spare capacity.
        hops.shrink_to_fit();
        Ok(FullPath::from_body(PathBody {
            src,
            dst,
            kind,
            uses,
            hops,
        }))
    }

    /// Number of AS-level hops, read from the handle.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the path is empty (never true for assembled paths).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The AS-level hops in traversal order: what `p.hops` derefs to, read
    /// from the group without building a body.
    pub fn hop_slice(&self) -> &[PathHop] {
        match self.wrapped() {
            Some(body) => &body.hops,
            None => {
                let first = self.index as usize * self.len();
                &self.group.hops[first..first + self.len()]
            }
        }
    }

    /// The segment uses in traversal order, read from the group, or from
    /// the body of a wrapped path.
    fn use_refs(&self) -> impl Iterator<Item = UseRef<'_>> + Clone {
        let path = self.record();
        let (given, packed) = match self.wrapped() {
            Some(body) => (&body.uses[..], &[][..]),
            None => (&[][..], &path.uses[..]),
        };
        let given = given.iter().map(SegmentUse::as_ref);
        let table = &self.group.segments;
        given.chain(packed.iter().flatten().map(|u| u.view(table)))
    }

    /// All globally-unique interface identifiers `(ISD-AS, ifid)` touched by
    /// the path — the §5.4 disjointness universe.
    pub fn interfaces(&self) -> Vec<(IsdAsn, u16)> {
        let hops = self.hop_slice();
        let mut out = Vec::with_capacity(hops.len() * 2);
        for h in hops {
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
                .hop_slice()
                .iter()
                .any(|h| h.ia == ia && (h.ingress == ifid || h.egress == ifid))
    }

    /// A short stable fingerprint (hex) identifying the path by its
    /// interface sequence — the paper's "path identifier".
    pub fn fingerprint(&self) -> String {
        fingerprint_hex(&self.fingerprint_key())
    }

    /// The raw 8-byte digest behind [`Self::fingerprint`], hashed when the
    /// answer was assembled and read from the handle. Fixed-width lowercase
    /// hex is order-preserving, so sorting by this key equals sorting by the
    /// hex string without allocating it — the combinator's sort/dedup step
    /// and the selector's ranking lean on that.
    pub fn fingerprint_key(&self) -> [u8; 8] {
        self.key
    }

    /// Earliest expiry over all used segments (Unix seconds).
    pub fn expiry(&self) -> u64 {
        self.use_refs()
            .map(|u| u.segment.expiry())
            .min()
            .unwrap_or(0)
    }

    /// Assembles the data-plane path header. Hop fields appear in traversal
    /// order per segment; info fields carry direction, peering flag and the
    /// correct initial segment identifier, so border routers can verify
    /// every hop MAC.
    pub fn to_dataplane(&self) -> Result<ScionPath, ControlError> {
        let uses = self.use_refs();
        let mut segments = Vec::with_capacity(uses.clone().count());
        for u in uses {
            let mut hops = Vec::with_capacity(u.to_idx - u.from_idx + 1);
            u.traverse(|_, hop| hops.push(hop))?;
            segments.push((u.info_field(), hops));
        }
        ScionPath::from_segments(segments)
            .map_err(|e| ControlError::BadSegment(format!("assembly failed: {e}")))
    }

    /// The ordered list of on-path ASes.
    pub fn ases(&self) -> Vec<IsdAsn> {
        self.hop_slice().iter().map(|h| h.ia).collect()
    }
}

/// Approximate resident bytes behind a collection of path handles: a handle
/// (pointer, index, hop count and key) per handle, and each distinct group
/// ([`FullPath::approx_bytes`]) once, however many of the handles share it.
pub(crate) fn approx_shared_bytes<'a>(handles: impl IntoIterator<Item = &'a FullPath>) -> usize {
    let mut counted: HashSet<*const PathGroup> = HashSet::new();
    handles
        .into_iter()
        .map(|p| {
            let group = if counted.insert(Arc::as_ptr(&p.group)) {
                p.approx_bytes()
            } else {
                0
            };
            std::mem::size_of::<FullPath>() + group
        })
        .sum()
}

/// The hex [`FullPath::fingerprint`] of a [`FullPath::fingerprint_key`], for
/// callers that keep keys and render them only at a string boundary.
pub fn fingerprint_hex(key: &[u8; 8]) -> String {
    scion_crypto::sha256::to_hex(key)
}

/// The [`FullPath::fingerprint_key`] a fingerprint renders, if `fingerprint`
/// is one: exactly 16 lowercase hex digits. The inverse of
/// [`fingerprint_hex`], for callers that take strings in and keep keys.
pub fn fingerprint_key_of(fingerprint: &str) -> Option<[u8; 8]> {
    let digits = fingerprint.as_bytes();
    if digits.len() != 16 {
        return None;
    }
    let nibble = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    };
    let mut key = [0u8; 8];
    for (byte, pair) in key.iter_mut().zip(digits.chunks_exact(2)) {
        *byte = nibble(pair[0])? << 4 | nibble(pair[1])?;
    }
    Some(key)
}

/// Symmetric-difference disjointness: `1 − 2·|A∩B| / (|A|+|B|)` over the
/// two paths' globally-unique interface sets — 1.0 for fully disjoint
/// paths, 0.0 for identical ones ("having only 30 % of links in common"
/// reads as 0.7 under this metric). Used for path *selection*.
pub fn disjointness(a: &FullPath, b: &FullPath) -> f64 {
    interface_disjointness(&a.interfaces(), &b.interfaces())
}

/// [`disjointness`] over two paths' [`FullPath::interfaces`] lists, for a
/// caller that compares each path with many others and lists its interfaces
/// once.
pub fn interface_disjointness(ia: &[(IsdAsn, u16)], ib: &[(IsdAsn, u16)]) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{AsSecrets, CowSegment, PathSegment, SegmentType};
    use scion_proto::addr::ia;

    fn sec(s: &str) -> AsSecrets {
        AsSecrets::derive(ia(s))
    }

    /// Up segment: core 71-1 -> mid 71-10 -> leaf 71-100.
    fn up_segment() -> PathSegment {
        CowSegment::originate(SegmentType::UpDown, 1_700_000_000, 0xaaaa)
            .extend(&sec("71-1"), 0, 11, &[])
            .extend(&sec("71-10"), 21, 22, &[(ia("71-20"), 29, 39)])
            .extend(&sec("71-100"), 31, 0, &[])
            .materialize()
    }

    /// Down segment: core 71-2 -> mid 71-20 -> leaf 71-200.
    fn down_segment() -> PathSegment {
        CowSegment::originate(SegmentType::UpDown, 1_700_000_000, 0xbbbb)
            .extend(&sec("71-2"), 0, 12, &[])
            .extend(&sec("71-20"), 23, 24, &[(ia("71-10"), 39, 29)])
            .extend(&sec("71-200"), 33, 0, &[])
            .materialize()
    }

    /// Core segment constructed 71-2 -> 71-1 (usable from 71-1 to 71-2).
    fn core_segment() -> PathSegment {
        CowSegment::originate(SegmentType::Core, 1_700_000_000, 0xcccc)
            .extend(&sec("71-2"), 0, 41, &[])
            .extend(&sec("71-1"), 42, 0, &[])
            .materialize()
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
        assert!(!Arc::ptr_eq(&a.group, &b.group), "assembled separately");
        assert_eq!(a, b);
        let c = a.clone();
        assert!(
            Arc::ptr_eq(&a.group, &c.group),
            "a clone is a second handle"
        );
        assert_eq!(a, c);
        assert_ne!(a, bare_path());
        // Equal hops, different uses: equal keys do not make equal paths.
        let stripped = FullPath::from_body(PathBody {
            uses: Vec::new(),
            ..PathBody::clone(&a)
        });
        assert_eq!(stripped.fingerprint_key(), a.fingerprint_key());
        assert_ne!(stripped, a);
    }

    #[test]
    fn the_key_is_the_plain_hash_of_the_hops() {
        for p in [core_transit(), bare_path()] {
            let key = hash_hops(&p.hops);
            let text = serde_json::to_string(&p).unwrap();
            let parsed: FullPath = serde_json::from_str(&text).unwrap();
            // Assembled or wrapped, cloned, an equal body elsewhere, read
            // back from JSON: the key and the hop count are the hops'.
            for handle in [p.clone(), FullPath::from_body(PathBody::clone(&p)), parsed] {
                assert_eq!(handle.fingerprint_key(), key);
                assert_eq!(handle.len(), handle.hops.len());
                assert_eq!(handle.fingerprint(), fingerprint_hex(&key));
            }
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
        // With real segments behind it.
        let p = core_transit();
        let text = serde_json::to_string(&p).unwrap();
        assert_eq!(text, serde_json::to_string(&PathBody::clone(&p)).unwrap());
        let back: FullPath = serde_json::from_str(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_dataplane().unwrap(), p.to_dataplane().unwrap());
    }

    #[test]
    fn shared_groups_are_counted_once() {
        let (a, b) = (core_transit(), bare_path());
        // Pointer, index, hop count and key: three words, so a ranking reads
        // each candidate's key and length from the list without touching a
        // group.
        let handle = std::mem::size_of::<FullPath>();
        assert_eq!(handle, 3 * std::mem::size_of::<usize>());
        assert!(a.approx_bytes() > std::mem::size_of::<PathBody>() + 8);
        let one = approx_shared_bytes([&a]);
        assert_eq!(one, handle + a.approx_bytes());
        let copies = [a.clone(), a.clone(), b.clone()];
        assert_eq!(
            approx_shared_bytes(copies.iter().chain([&a, &b])),
            5 * handle + a.approx_bytes() + b.approx_bytes()
        );
        // An equal path in its own group is its own memory.
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
        let down = CowSegment::originate(SegmentType::UpDown, 1_700_000_000, 0xdddd)
            .extend(&sec("71-1"), 0, 11, &[])
            .extend(&sec("71-10"), 21, 25, &[])
            .extend(&sec("71-300"), 35, 0, &[])
            .materialize();
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
        assert_eq!(
            fingerprint_key_of(&p.fingerprint()),
            Some(p.fingerprint_key())
        );
        assert_eq!(
            fingerprint_key_of("0123456789abcdef"),
            Some([0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef])
        );
        for not_one in [
            &p.fingerprint()[1..],
            "0123456789abcdeg",
            "0123456789ABCDEF",
        ] {
            assert_eq!(fingerprint_key_of(not_one), None, "{not_one}");
        }
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
