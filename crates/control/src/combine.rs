//! End-to-end path combination.
//!
//! Given the segments a daemon fetched (up segments of the source, down
//! segments of the destination, core segments between the relevant core
//! ASes), the combinator enumerates every valid composition (§2):
//!
//! * **up + core + down** across different core ASes,
//! * **up + down** joined at a shared core AS,
//! * **shortcuts** joining truncated up/down segments at a shared non-core
//!   AS,
//! * **peering shortcuts** crossing a peering link advertised on both
//!   segments.
//!
//! The multiplicative effect of this enumeration over SCIERA's segment mix
//! is exactly what yields the large path counts of Fig. 8.

use std::collections::BTreeSet;

use sciera_telemetry::work::{self, Work};
use sciera_telemetry::Telemetry;
use scion_proto::addr::IsdAsn;

use crate::fullpath::{
    derive_hops, hash_hops, joined_hop_count, Direction, FullPath, PackedUse, PathGroup, PathHop,
    PathKind,
};
use crate::segment::AsEntry;
use crate::store::{BucketDep, SegmentHandle, SegmentStore};

/// [`combine_paths`] wrapped with telemetry: wall-clock duration of the
/// combination lands in the `control.combine_ns` histogram and the result
/// count in `control.paths_combined`, the signals behind Fig. 8's path-count
/// matrix and the daemon's path-lookup latency.
pub fn combine_paths_traced(
    store: &SegmentStore,
    src: IsdAsn,
    dst: IsdAsn,
    max_paths: usize,
    telemetry: &Telemetry,
) -> Vec<FullPath> {
    let start = std::time::Instant::now();
    let paths = combine_paths(store, src, dst, max_paths);
    telemetry
        .histogram("control.combine_ns")
        .record(start.elapsed().as_nanos() as f64);
    telemetry
        .counter("control.paths_combined")
        .add(paths.len() as u64);
    paths
}

/// Upper bound on combined paths returned per pair, mirroring a daemon's
/// response-size cap. Fig. 8 tops out at 113 observed active paths.
pub const DEFAULT_MAX_PATHS: usize = 200;

/// Enumerates all valid end-to-end paths from `src` to `dst` using the
/// segments in `store`, deduplicated by interface fingerprint and sorted by
/// AS-hop length (shortest first, the paper's "shortest path" criterion).
pub fn combine_paths(
    store: &SegmentStore,
    src: IsdAsn,
    dst: IsdAsn,
    max_paths: usize,
) -> Vec<FullPath> {
    combine_paths_recorded(store, src, dst, max_paths).paths
}

/// A combination result plus what the memoizer needs to revalidate it: the
/// exact set of store buckets consulted.
#[derive(Debug, Clone)]
pub(crate) struct CombineRecord {
    pub paths: Vec<FullPath>,
    /// Every bucket whose contents influenced `paths`, including empty
    /// buckets (their emptiness decided the combination shape).
    pub deps: Vec<BucketDep>,
}

/// A candidate path, planned but not built: its shape, the segment ranges it
/// would use, borrowed from the store and packed to 16 bytes each, and the
/// number of hops it will have if its hops derive ([`joined_hop_count`], the
/// rule [`derive_hops`] merges by). Whether they *do* derive — end points,
/// peer entries, loop freedom — is [`Plan::key`]'s to say, once an answer
/// reaches this length. A plan is 56 bytes.
#[derive(Clone, Copy)]
struct Plan<'a> {
    uses: [Option<PackedUse<&'a SegmentHandle>>; 3],
    len: u32,
    kind: PathKind,
}

impl<'a> Plan<'a> {
    fn new<const N: usize>(kind: PathKind, uses: [PackedUse<&'a SegmentHandle>; N]) -> Self {
        let mut slots = [None; 3];
        for (slot, u) in slots.iter_mut().zip(uses) {
            *slot = Some(u);
        }
        let len = joined_hop_count(uses.iter().map(PackedUse::view));
        Plan {
            kind,
            uses: slots,
            len: u32::try_from(len).expect("a path of fewer than 2^32 hops"),
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn packed(&self) -> impl Iterator<Item = &PackedUse<&'a SegmentHandle>> + Clone {
        self.uses.iter().flatten()
    }

    /// Appends the path's `len` hops to `hops` and returns their key, or
    /// leaves `hops` as it was if the plan makes no path: no allocation
    /// beyond the buffer's, no reference count.
    fn key(&self, src: IsdAsn, dst: IsdAsn, hops: &mut Vec<PathHop>) -> Option<[u8; 8]> {
        work::add(Work::PlansKeyed, 1);
        let at = hops.len();
        derive_hops(src, dst, self.packed().map(PackedUse::view), hops).ok()?;
        Some(hash_hops(&hops[at..]))
    }
}

/// Every composition of the store's segments that could be a path from `src`
/// to `dst`, in the order the answer breaks ties by, and the buckets that
/// were read to list them. All four shapes (each end core or not) come
/// through here. The list is allocated once, at [`plan_bound`].
fn enumerate(store: &SegmentStore, src: IsdAsn, dst: IsdAsn) -> (Vec<Plan<'_>>, Vec<BucketDep>) {
    use Direction::{AgainstCons, Cons};
    let src_ups = store.up_segment_handles(src);
    let dst_downs = store.up_segment_handles(dst);
    let bound = plan_bound(store, src, dst);
    let mut plans: Vec<Plan> = Vec::with_capacity(bound);
    // The combination shape is decided by bucket emptiness, so the two
    // endpoint buckets are dependencies even when empty.
    let mut deps: BTreeSet<BucketDep> = BTreeSet::new();
    deps.insert(BucketDep::UpDown(src));
    deps.insert(BucketDep::UpDown(dst));
    let mut core_between = |from: IsdAsn, to: IsdAsn| {
        deps.insert(BucketDep::Core { from, to });
        store.core_between_handles(from, to)
    };

    match (src_ups.is_empty(), dst_downs.is_empty()) {
        (true, true) => {
            for cs in core_between(src, dst) {
                let uses = [PackedUse::whole(cs, AgainstCons)];
                plans.push(Plan::new(PathKind::SingleSegment, uses));
            }
        }
        (true, false) => {
            for d in dst_downs {
                if d.origin() == src {
                    let uses = [PackedUse::whole(d, Cons)];
                    plans.push(Plan::new(PathKind::SingleSegment, uses));
                } else {
                    for cs in core_between(src, d.origin()) {
                        let uses = [PackedUse::whole(cs, AgainstCons), PackedUse::whole(d, Cons)];
                        plans.push(Plan::new(PathKind::CoreEnd, uses));
                    }
                }
            }
        }
        (false, true) => {
            for u in src_ups {
                if u.origin() == dst {
                    let uses = [PackedUse::whole(u, AgainstCons)];
                    plans.push(Plan::new(PathKind::SingleSegment, uses));
                } else {
                    for cs in core_between(u.origin(), dst) {
                        let uses = [
                            PackedUse::whole(u, AgainstCons),
                            PackedUse::whole(cs, AgainstCons),
                        ];
                        plans.push(Plan::new(PathKind::CoreEnd, uses));
                    }
                }
            }
        }
        (false, false) => {
            for u in src_ups {
                for d in dst_downs {
                    plan_pair(u, d, &mut core_between, &mut plans);
                }
            }
        }
    }
    debug_assert!(
        plans.len() <= bound,
        "{} plans over a bound of {bound}",
        plans.len()
    );
    (plans, deps.into_iter().collect())
}

/// At most how many plans [`enumerate`] lists from `src` to `dst`, read off
/// the buckets without planning any: per core-side join one plan a core
/// segment (or the one same-core join), and per up/down pair at most one
/// shortcut per up entry past its origin and one peering per peer entry of
/// the up segment.
fn plan_bound(store: &SegmentStore, src: IsdAsn, dst: IsdAsn) -> usize {
    let cores = |from, to| store.core_between_handles(from, to).len();
    let joins = |from: IsdAsn, to: IsdAsn| if from == to { 1 } else { cores(from, to) };
    let (ups, downs) = (store.up_segment_handles(src), store.up_segment_handles(dst));
    match (ups.is_empty(), downs.is_empty()) {
        (true, true) => cores(src, dst),
        (true, false) => downs.iter().map(|d| joins(src, d.origin())).sum(),
        (false, true) => ups.iter().map(|u| joins(u.origin(), dst)).sum(),
        (false, false) => ups
            .iter()
            .map(|u| {
                let peers: usize = u.entries.iter().map(|e| e.peers.len()).sum();
                let cuts = u.len() - 1 + peers;
                downs
                    .iter()
                    .map(|d| cuts + joins(u.origin(), d.origin()))
                    .sum::<usize>()
            })
            .sum(),
    }
}

/// All combinations of one up and one down segment.
fn plan_pair<'a>(
    up: &'a SegmentHandle,
    down: &'a SegmentHandle,
    core_between: &mut impl FnMut(IsdAsn, IsdAsn) -> &'a [SegmentHandle],
    plans: &mut Vec<Plan<'a>>,
) {
    use Direction::{AgainstCons, Cons};
    let whole_up = PackedUse::whole(up, AgainstCons);
    let whole_down = PackedUse::whole(down, Cons);
    // Entry indices of a segment fit the packed use's `u8`s (`whole`).
    let at = |i: usize| i as u8;

    if up.origin() == down.origin() {
        // Same-core join.
        plans.push(Plan::new(PathKind::SameCore, [whole_up, whole_down]));
    } else {
        // Core transit.
        for cs in core_between(up.origin(), down.origin()) {
            let uses = [whole_up, PackedUse::whole(cs, AgainstCons), whole_down];
            plans.push(Plan::new(PathKind::CoreTransit, uses));
        }
    }

    // Non-core shortcut: join at any shared non-core AS.
    for (i, ue) in up.entries.iter().enumerate().skip(1) {
        if let Some(j) = down.position_of(ue.ia) {
            if j == 0 {
                continue; // shared core handled above
            }
            let uses = [
                PackedUse {
                    from: at(i),
                    ..whole_up
                },
                PackedUse {
                    from: at(j),
                    ..whole_down
                },
            ];
            plans.push(Plan::new(PathKind::Shortcut, uses));
        }
    }

    // Peering shortcut: an up-segment AS peers with a down-segment AS, and
    // both sides advertised the link. Each side names the first of its
    // junction entry's peer entries toward the other AS.
    let first_toward = |entry: &AsEntry, peer: IsdAsn| {
        let k = entry.peers.iter().position(|p| p.peer == peer);
        k.map(|k| u16::try_from(k).expect("fewer than 2^16 peer entries"))
    };
    for (i, ue) in up.entries.iter().enumerate() {
        for pe in &ue.peers {
            if let Some(j) = down.position_of(pe.peer) {
                let de = &down.entries[j];
                if !de
                    .peers
                    .iter()
                    .any(|p| p.peer == ue.ia && p.peer_ifid == pe.peer_remote_ifid)
                {
                    continue;
                }
                let uses = [
                    PackedUse {
                        from: at(i),
                        peer: first_toward(ue, pe.peer),
                        ..whole_up
                    },
                    PackedUse {
                        from: at(j),
                        peer: first_toward(de, ue.ia),
                        ..whole_down
                    },
                ];
                plans.push(Plan::new(PathKind::Peering, uses));
            }
        }
    }
}

/// Picks the answer out of the plans, given in push order: shortest first,
/// equal lengths by fingerprint (the "lowest path identifier" rule of §5.4,
/// reproducibly), one path per fingerprint, at most `max_paths`.
///
/// Paths that share a fingerprint share their hops and so their length, which
/// lets each length be keyed, ordered and deduplicated on its own, and the
/// walk stop at the one that fills the answer. The plans of a reached length
/// are derived into one hop buffer and keyed from it ([`Plan::key`]); the
/// paths kept of that length are copied into one shared [`PathGroup`] — a
/// record per path and their hops in one flat array — and no
/// [`crate::fullpath::PathBody`] is built. A plan that fails a check,
/// repeats a path or falls past the cap costs no allocation, and one of a
/// length the answer never reaches costs its place in the length sort and
/// nothing else. Every list is sized once: the hop buffer and the key list
/// by the largest length group, each group by what it keeps.
fn pick(plans: &[Plan<'_>], max_paths: usize, src: IsdAsn, dst: IsdAsn) -> Vec<FullPath> {
    let mut by_len: Vec<&Plan> = plans.iter().collect();
    by_len.sort_by_key(|p| p.len);
    let groups = || by_len.chunk_by(|a, b| a.len == b.len);
    let widest = groups().map(<[_]>::len).max().unwrap_or(0);
    let most_hops = groups().map(|g| g.len() * g[0].len()).max().unwrap_or(0);
    let mut picked: Vec<FullPath> = Vec::with_capacity(max_paths.min(plans.len()));
    // One hop buffer and one key list per lookup, refilled length by length:
    // a key, its plan and where its hops start.
    let mut hops: Vec<PathHop> = Vec::with_capacity(most_hops);
    let mut keyed: Vec<([u8; 8], &Plan, usize)> = Vec::with_capacity(widest);
    for same_len in groups() {
        if picked.len() >= max_paths {
            break;
        }
        let len = same_len[0].len();
        hops.clear();
        keyed.clear();
        for &plan in same_len {
            let at = hops.len();
            if let Some(k) = plan.key(src, dst, &mut hops) {
                debug_assert_eq!(hops.len(), at + len, "hops derive to the planned length");
                keyed.push((k, plan, at));
            }
        }
        // Both steps are stable, so of equal paths the first pushed survives.
        keyed.sort_by_key(|&(k, ..)| k);
        keyed.dedup_by_key(|&mut (k, ..)| k);
        let kept = &keyed[..keyed.len().min(max_paths - picked.len())];
        if kept.is_empty() {
            continue;
        }
        let mut group = PathGroup::with_capacity(src, dst, len, kept.len());
        for &(k, plan, at) in kept {
            group.push(k, plan.kind, &hops[at..at + len], plan.packed());
        }
        group.share(&mut picked);
    }
    picked
}

/// [`combine_paths`] with dependency recording. The plain entry point runs
/// this and drops the record, so there is exactly one combination code path.
pub(crate) fn combine_paths_recorded(
    store: &SegmentStore,
    src: IsdAsn,
    dst: IsdAsn,
    max_paths: usize,
) -> CombineRecord {
    if src == dst {
        return CombineRecord {
            paths: Vec::new(),
            deps: Vec::new(),
        };
    }
    let (plans, deps) = enumerate(store, src, dst);
    CombineRecord {
        paths: pick(&plans, max_paths, src, dst),
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{BeaconConfig, BeaconEngine};
    use crate::fullpath::{PathBody, SegmentUse};
    use crate::graph::{ControlGraph, LinkType};
    use scion_proto::addr::ia;

    impl Plan<'_> {
        /// The plan's path on its own, in an answer of one.
        fn assemble(&self, src: IsdAsn, dst: IsdAsn) -> Option<FullPath> {
            pick(std::slice::from_ref(self), 1, src, dst).pop()
        }
    }

    #[test]
    fn a_plan_is_at_most_64_bytes() {
        assert_eq!(std::mem::size_of::<PackedUse<&SegmentHandle>>(), 16);
        assert!(std::mem::size_of::<Plan>() <= 64);
    }

    /// Two cores, two leaves, leaves peered — the canonical diamond.
    fn diamond_store() -> SegmentStore {
        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-2"), true);
        g.add_as(ia("71-10"), false);
        g.add_as(ia("71-11"), false);
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        g.connect(ia("71-1"), ia("71-10"), LinkType::Child).unwrap();
        g.connect(ia("71-2"), ia("71-11"), LinkType::Child).unwrap();
        g.connect(ia("71-10"), ia("71-11"), LinkType::Peer).unwrap();
        BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap()
    }

    #[test]
    fn leaf_to_leaf_has_core_and_peering_paths() {
        let store = diamond_store();
        let paths = combine_paths(&store, ia("71-10"), ia("71-11"), 100);
        assert!(!paths.is_empty());
        let kinds: Vec<PathKind> = paths.iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&PathKind::CoreTransit), "kinds: {kinds:?}");
        assert!(kinds.contains(&PathKind::Peering), "kinds: {kinds:?}");
        // The peering path is the shortest (2 ASes) and sorts first.
        assert_eq!(paths[0].kind, PathKind::Peering);
        assert_eq!(paths[0].ases(), vec![ia("71-10"), ia("71-11")]);
    }

    #[test]
    fn leaf_to_core_paths() {
        let store = diamond_store();
        let paths = combine_paths(&store, ia("71-10"), ia("71-1"), 100);
        assert!(!paths.is_empty());
        assert_eq!(paths[0].kind, PathKind::SingleSegment);
        assert_eq!(paths[0].ases(), vec![ia("71-10"), ia("71-1")]);
        let far = combine_paths(&store, ia("71-10"), ia("71-2"), 100);
        assert!(far.iter().any(|p| p.kind == PathKind::CoreEnd));
    }

    #[test]
    fn core_to_leaf_paths() {
        let store = diamond_store();
        let paths = combine_paths(&store, ia("71-2"), ia("71-10"), 100);
        assert!(!paths.is_empty());
        assert!(paths
            .iter()
            .all(|p| p.hops.first().unwrap().ia == ia("71-2")));
        assert!(paths
            .iter()
            .all(|p| p.hops.last().unwrap().ia == ia("71-10")));
    }

    #[test]
    fn core_to_core_paths() {
        let store = diamond_store();
        let paths = combine_paths(&store, ia("71-1"), ia("71-2"), 100);
        assert!(!paths.is_empty());
        assert!(paths.iter().all(|p| p.kind == PathKind::SingleSegment));
    }

    #[test]
    fn same_as_yields_nothing() {
        let store = diamond_store();
        assert!(combine_paths(&store, ia("71-10"), ia("71-10"), 100).is_empty());
    }

    #[test]
    fn paths_deduplicated_and_sorted() {
        let store = diamond_store();
        let paths = combine_paths(&store, ia("71-10"), ia("71-11"), 100);
        let mut fps: Vec<String> = paths.iter().map(|p| p.fingerprint()).collect();
        let n = fps.len();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), n, "duplicated fingerprints");
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len(), "not sorted by length");
        }
    }

    #[test]
    fn max_paths_respected() {
        let store = diamond_store();
        let paths = combine_paths(&store, ia("71-10"), ia("71-11"), 1);
        assert_eq!(paths.len(), 1);
    }

    /// The combinator as first written, kept as the oracle: every candidate
    /// of every shape assembled on the spot, failures dropped, push order.
    fn eager_candidates(store: &SegmentStore, src: IsdAsn, dst: IsdAsn) -> Vec<FullPath> {
        use Direction::{AgainstCons, Cons};
        use PathKind::*;
        let mut out = Vec::new();
        if src == dst {
            return out;
        }
        let mut push = |kind, uses| out.extend(FullPath::assemble(src, dst, kind, uses));
        let whole = |s: &SegmentHandle, dir| SegmentUse::whole(s.clone(), dir);
        let cut = |s: &SegmentHandle, dir, from_idx, peer_with| SegmentUse {
            segment: s.clone(),
            dir,
            from_idx,
            to_idx: s.len() - 1,
            peer_with,
        };
        let core = |from, to| store.core_between_handles(from, to);
        let ups = store.up_segment_handles(src);
        let downs = store.up_segment_handles(dst);
        match (ups.is_empty(), downs.is_empty()) {
            (true, true) => {
                for cs in core(src, dst) {
                    push(SingleSegment, vec![whole(cs, AgainstCons)]);
                }
            }
            (true, false) => {
                for d in downs {
                    if d.origin() == src {
                        push(SingleSegment, vec![whole(d, Cons)]);
                        continue;
                    }
                    for cs in core(src, d.origin()) {
                        push(CoreEnd, vec![whole(cs, AgainstCons), whole(d, Cons)]);
                    }
                }
            }
            (false, true) => {
                for u in ups {
                    if u.origin() == dst {
                        push(SingleSegment, vec![whole(u, AgainstCons)]);
                        continue;
                    }
                    for cs in core(u.origin(), dst) {
                        push(CoreEnd, vec![whole(u, AgainstCons), whole(cs, AgainstCons)]);
                    }
                }
            }
            (false, false) => {
                for (u, d) in ups.iter().flat_map(|u| downs.iter().map(move |d| (u, d))) {
                    if u.origin() == d.origin() {
                        push(SameCore, vec![whole(u, AgainstCons), whole(d, Cons)]);
                    } else {
                        for cs in core(u.origin(), d.origin()) {
                            let uses = vec![
                                whole(u, AgainstCons),
                                whole(cs, AgainstCons),
                                whole(d, Cons),
                            ];
                            push(CoreTransit, uses);
                        }
                    }
                    for (i, ue) in u.entries.iter().enumerate().skip(1) {
                        if let Some(j) = d.position_of(ue.ia).filter(|j| *j > 0) {
                            let uses = vec![cut(u, AgainstCons, i, None), cut(d, Cons, j, None)];
                            push(Shortcut, uses);
                        }
                    }
                    for (i, ue) in u.entries.iter().enumerate() {
                        for pe in &ue.peers {
                            let Some(j) = d.position_of(pe.peer) else {
                                continue;
                            };
                            let back = |p: &&crate::segment::PeerEntry| {
                                p.peer == ue.ia && p.peer_ifid == pe.peer_remote_ifid
                            };
                            if d.entries[j].peers.iter().any(|p| back(&p)) {
                                let uses = vec![
                                    cut(u, AgainstCons, i, Some(pe.peer)),
                                    cut(d, Cons, j, Some(ue.ia)),
                                ];
                                push(Peering, uses);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The answer as first picked: every candidate keyed and cloned, one
    /// sort of the whole list.
    fn whole_list_finalize(raw: &[FullPath], max_paths: usize) -> Vec<FullPath> {
        let mut keyed: Vec<((usize, [u8; 8]), FullPath)> = raw
            .iter()
            .map(|p| ((p.len(), p.fingerprint_key()), p.clone()))
            .collect();
        keyed.sort_by_key(|a| a.0);
        keyed.dedup_by(|a, b| a.0 .1 == b.0 .1);
        keyed.truncate(max_paths);
        keyed.into_iter().map(|(_, p)| p).collect()
    }

    /// Checks one pair against the oracle. Every plan that assembles has the
    /// length it was planned with, and the plans that assemble are the
    /// oracle's candidates, in its order (so a plan that fails is one the
    /// oracle dropped too); at every cap of `caps`, `combine_paths` answers
    /// what the whole-list sort of those candidates does ([`lazy_is_eager`]).
    /// Returns how many plans there were and how many assembled.
    fn check_against_oracle(
        store: &SegmentStore,
        src: IsdAsn,
        dst: IsdAsn,
        caps: impl IntoIterator<Item = usize>,
    ) -> (usize, usize) {
        let eager = eager_candidates(store, src, dst);
        let plans = if src == dst {
            Vec::new()
        } else {
            enumerate(store, src, dst).0
        };
        let mut built = Vec::new();
        for plan in &plans {
            if let Some(p) = plan.assemble(src, dst) {
                assert_eq!(p.len(), plan.len(), "{src}->{dst}: {p:?}");
                // A built body holds no spare capacity.
                assert_eq!(p.uses.capacity(), p.uses.len());
                assert_eq!(p.hops.capacity(), p.hops.len());
                built.push(p);
            }
        }
        assert_eq!(built, eager, "{src}->{dst}");
        for cap in caps {
            let answer = combine_paths(store, src, dst, cap);
            lazy_is_eager(&answer, &whole_list_finalize(&eager, cap));
        }
        (plans.len(), eager.len())
    }

    /// `lazy`, a combination's answer, against `eager`, the same paths
    /// assembled one by one: everything read without a body agrees and builds
    /// none; then every body built on demand equals the assembled one, and
    /// a second read builds nothing more.
    fn lazy_is_eager(lazy: &[FullPath], eager: &[FullPath]) {
        let ((), read) = work::counted(|| {
            assert_eq!(lazy, eager);
            for (l, e) in lazy.iter().zip(eager) {
                assert_eq!(l.len(), e.len());
                assert_eq!(l.fingerprint_key(), e.fingerprint_key());
                assert_eq!(l.hop_slice(), e.hop_slice());
                assert_eq!(l.interfaces(), e.interfaces());
                assert_eq!(l.ases(), e.ases());
                assert_eq!(l.expiry(), e.expiry());
                assert_eq!(l.to_dataplane().unwrap(), e.to_dataplane().unwrap());
                for &(at, ifid) in e.interfaces().iter().take(2) {
                    assert!(l.crosses(at, ifid));
                }
            }
        });
        assert_eq!(read.bodies_built, 0, "read without a body");
        let (_, built) = work::counted(|| {
            for (l, e) in lazy.iter().zip(eager) {
                assert_eq!(**l, **e, "a body built on demand is the assembled one");
            }
        });
        assert_eq!(built.bodies_built, lazy.len() as u64);
        let (_, again) = work::counted(|| lazy.iter().map(|p| p.hops.len()).sum::<usize>());
        assert_eq!(again.bodies_built, 0, "a body is built at most once");
    }

    fn ases_of(store: &SegmentStore) -> BTreeSet<IsdAsn> {
        store
            .all_segments()
            .flat_map(|s| s.entries.iter().map(|e| e.ia))
            .collect()
    }

    /// Three meshed cores and two doubly-homed leaves under a shared mid AS:
    /// core-transit, same-core and shortcut candidates of several lengths
    /// between 71-100 and 71-101, many of them reaching the same hops by
    /// different segments.
    fn layered_store() -> SegmentStore {
        let mut g = ControlGraph::new();
        for core in ["71-1", "71-2", "71-3"] {
            g.add_as(ia(core), true);
        }
        for leaf in ["71-10", "71-100", "71-101", "71-20"] {
            g.add_as(ia(leaf), false);
        }
        for (a, b) in [("71-1", "71-2"), ("71-2", "71-3"), ("71-1", "71-3")] {
            g.connect(ia(a), ia(b), LinkType::Core).unwrap();
        }
        for (parent, child) in [
            ("71-1", "71-10"),
            ("71-2", "71-10"),
            ("71-10", "71-100"),
            ("71-10", "71-101"),
            ("71-2", "71-20"),
            ("71-3", "71-20"),
            ("71-20", "71-101"),
        ] {
            g.connect(ia(parent), ia(child), LinkType::Child).unwrap();
        }
        BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap()
    }

    #[test]
    fn plan_first_equals_the_eager_oracle_at_every_cap() {
        for store in [diamond_store(), layered_store()] {
            let ases = ases_of(&store);
            let mut shapes = BTreeSet::new();
            let (mut planned, mut assembled) = (0, 0);
            for &s in &ases {
                for &d in &ases {
                    // Every cap up to one past the whole answer.
                    let whole = combine_paths(&store, s, d, usize::MAX).len();
                    let caps = (0..=whole + 1).chain([usize::MAX]);
                    let (plans, built) = check_against_oracle(&store, s, d, caps);
                    if built > 0 {
                        let is_core = |a| store.up_segment_handles(a).is_empty();
                        shapes.insert((is_core(s), is_core(d)));
                    }
                    planned += plans;
                    assembled += built;
                }
            }
            assert_eq!(
                shapes.len(),
                4,
                "core/core, core/leaf, leaf/core, leaf/leaf"
            );
            assert!(assembled > 0);
            if ases.contains(&ia("71-100")) {
                assert!(assembled < planned, "no plan fails on the layered store");
            }
        }
    }

    #[test]
    fn of_equal_paths_the_first_pushed_survives() {
        let store = layered_store();
        let (src, dst) = (ia("71-100"), ia("71-101"));
        let (plans, _) = enumerate(&store, src, dst);
        let lengths: BTreeSet<usize> = plans.iter().map(Plan::len).collect();
        assert!(lengths.len() >= 3, "lengths {lengths:?}");
        // Every plan once more, last first.
        let twice: Vec<Plan> = plans.iter().chain(plans.iter().rev()).copied().collect();
        let built: Vec<FullPath> = twice.iter().filter_map(|p| p.assemble(src, dst)).collect();
        let answer = combine_paths(&store, src, dst, usize::MAX);
        assert!(
            2 * answer.len() < built.len(),
            "no duplicate to choose among"
        );
        for cap in (0..=answer.len() + 1).chain([usize::MAX]) {
            assert_eq!(
                pick(&twice, cap, src, dst),
                whole_list_finalize(&built, cap),
                "cap {cap}"
            );
        }
        assert_eq!(pick(&twice, usize::MAX, src, dst), answer);
    }

    #[test]
    fn a_lookup_builds_only_the_paths_it_answers_with() {
        let store = layered_store();
        let (src, dst) = (ia("71-100"), ia("71-101"));
        let (plans, _) = enumerate(&store, src, dst);
        let whole = combine_paths(&store, src, dst, usize::MAX).len();
        let winner_len = combine_paths(&store, src, dst, 1)[0].len();
        assert!(
            plans.iter().any(|p| p.len() > winner_len),
            "one length only"
        );
        for cap in [0, 1, whole - 1, whole, usize::MAX] {
            let (answer, done) = work::counted(|| pick(&plans, cap, src, dst));
            assert_eq!(answer, combine_paths(&store, src, dst, cap), "cap {cap}");
            // The answer is assembled in place: its paths get no body.
            assert_eq!(done.bodies_built, 0, "cap {cap}: bodies built");
            // The lengths walked: all of them while the answer has room,
            // else those up to the one that filled it.
            let reached =
                |len: usize| answer.len() < cap || answer.last().is_some_and(|p| len <= p.len());
            let expected = plans.iter().filter(|p| reached(p.len())).count();
            assert_eq!(done.plans_keyed, expected as u64, "cap {cap}: plans keyed");
        }
    }

    #[test]
    fn two_threads_reading_one_path_share_one_body() {
        let store = layered_store();
        let answer = combine_paths(&store, ia("71-100"), ia("71-101"), usize::MAX);
        let path = &answer[answer.len() / 2];
        let read = || work::counted(|| std::ptr::from_ref::<PathBody>(path) as usize);
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(read), s.spawn(read));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.0, b.0, "one body");
        assert_eq!(a.1.bodies_built + b.1.bodies_built, 1, "built once");
        assert_eq!(read(), (a.0, work::WorkCounts::default()));
        // A clone is a handle to the same body; the rest of the answer has
        // none.
        assert_eq!(
            read().0,
            std::ptr::from_ref::<PathBody>(&path.clone()) as usize
        );
        let (_, rest) = work::counted(|| answer.iter().map(|p| p.hops.len()).sum::<usize>());
        assert_eq!(rest.bodies_built, answer.len() as u64 - 1);
    }

    /// Same-core and shortcut combinations in a deeper hierarchy:
    /// one core, one mid AS with two children.
    #[test]
    fn shortcut_through_common_mid_as() {
        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-10"), false);
        g.add_as(ia("71-100"), false);
        g.add_as(ia("71-101"), false);
        g.connect(ia("71-1"), ia("71-10"), LinkType::Child).unwrap();
        g.connect(ia("71-10"), ia("71-100"), LinkType::Child)
            .unwrap();
        g.connect(ia("71-10"), ia("71-101"), LinkType::Child)
            .unwrap();
        let store = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap();
        let paths = combine_paths(&store, ia("71-100"), ia("71-101"), 100);
        let kinds: Vec<PathKind> = paths.iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&PathKind::Shortcut), "kinds: {kinds:?}");
        // The same-core join (100-10-1-10-101) would visit 71-10 twice and
        // is rejected by the loop check, so the shortcut is the only path.
        assert!(!kinds.contains(&PathKind::SameCore));
        assert_eq!(paths[0].kind, PathKind::Shortcut);
        assert_eq!(
            paths[0].ases(),
            vec![ia("71-100"), ia("71-10"), ia("71-101")]
        );
    }

    #[test]
    fn all_combined_paths_are_loop_free() {
        let store = diamond_store();
        for (s, d) in [("71-10", "71-11"), ("71-10", "71-2"), ("71-1", "71-11")] {
            for p in combine_paths(&store, ia(s), ia(d), 100) {
                let mut ases = p.ases();
                let n = ases.len();
                ases.sort_unstable();
                ases.dedup();
                assert_eq!(ases.len(), n, "loop in path {s}->{d}");
            }
        }
    }

    /// A random three-tier graph in the manner of `tests/prop_control.rs`,
    /// denser so that the larger caps bite: a core ring plus extra core links,
    /// mids under one to three cores, leaves under one to three mids, up to
    /// three peerings between non-core ASes. `picks` supplies every choice.
    fn random_graph(n_core: usize, n_mid: usize, n_leaf: usize, picks: &[u8; 64]) -> ControlGraph {
        let mut picks = picks.iter().map(|p| *p as usize);
        let mut pick = move |n: usize| picks.next().expect("64 picks are enough") % n;
        let core = |i: usize| ia(&format!("71-{}", 100 + i));
        let mid = |i: usize| ia(&format!("71-{}", 200 + i));
        let leaf = |i: usize| ia(&format!("71-{}", 300 + i));
        let noncore = |i: usize| if i < n_mid { mid(i) } else { leaf(i - n_mid) };
        let mut g = ControlGraph::new();
        (0..n_core).for_each(|i| g.add_as(core(i), true));
        (0..n_mid + n_leaf).for_each(|i| g.add_as(noncore(i), false));
        let mut link = |a: IsdAsn, b: IsdAsn, lt| {
            if a != b {
                g.connect(a, b, lt).unwrap();
            }
        };
        for i in 1..n_core {
            link(core(i - 1), core(i), LinkType::Core);
        }
        for _ in 0..2 * n_core {
            link(core(pick(n_core)), core(pick(n_core)), LinkType::Core);
        }
        for m in 0..n_mid {
            for _ in 0..=pick(3) {
                link(core(pick(n_core)), mid(m), LinkType::Child);
            }
        }
        for l in 0..n_leaf {
            for _ in 0..=pick(3) {
                link(mid(pick(n_mid)), leaf(l), LinkType::Child);
            }
        }
        for _ in 0..pick(4) {
            let (a, b) = (pick(n_mid + n_leaf), pick(n_mid + n_leaf));
            link(noncore(a), noncore(b), LinkType::Peer);
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn plan_first_equals_the_eager_oracle_on_random_topologies(
            n_core in 2usize..6,
            n_mid in 2usize..5,
            n_leaf in 2usize..6,
            picks: [u8; 64],
            src_pick: u8,
            dst_pick: u8,
        ) {
            let g = random_graph(n_core, n_mid, n_leaf, &picks);
            let store = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
                .run()
                .expect("beaconing converges on any valid graph");
            // One pair among all ASes, for the shapes with a core end, and one
            // among the leaves, where the candidates multiply.
            let all: Vec<IsdAsn> = g.ases().map(|a| a.ia).collect();
            let leaves = &all[all.len() - n_leaf..];
            for pool in [&all[..], leaves] {
                let s = pool[src_pick as usize % pool.len()];
                let d = pool[dst_pick as usize % pool.len()];
                check_against_oracle(&store, s, d, [1, 7, 50, 200, usize::MAX]);
            }
        }
    }
}
