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

use sciera_telemetry::Telemetry;
use scion_proto::addr::IsdAsn;

use crate::fullpath::{
    derive_hops, hash_hops, joined_hop_count, Direction, FullPath, PathBody, PathHop, PathKind,
    UseRef,
};
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
/// would use, borrowed from the store, and the number of hops it will have
/// if its hops derive ([`joined_hop_count`], the rule [`derive_hops`] merges
/// by). Whether they *do* derive — end points, peer entries, loop freedom —
/// is [`Plan::key`]'s to say, once an answer reaches this length.
#[derive(Clone, Copy)]
struct Plan<'a> {
    kind: PathKind,
    uses: [Option<UseRef<'a>>; 3],
    len: usize,
}

impl<'a> Plan<'a> {
    fn new<const N: usize>(kind: PathKind, uses: [UseRef<'a>; N]) -> Self {
        let mut slots = [None; 3];
        for (slot, u) in slots.iter_mut().zip(uses) {
            *slot = Some(u);
        }
        Plan {
            kind,
            uses: slots,
            len: joined_hop_count(uses),
        }
    }

    fn uses(&self) -> impl Iterator<Item = UseRef<'a>> + Clone + '_ {
        self.uses.iter().flatten().copied()
    }

    /// Appends the path's `len` hops to `hops` and returns their key, or
    /// leaves `hops` as it was if the plan makes no path: no allocation
    /// beyond the buffer's, no reference count.
    fn key(&self, src: IsdAsn, dst: IsdAsn, hops: &mut Vec<PathHop>) -> Option<[u8; 8]> {
        let at = hops.len();
        derive_hops(src, dst, self.uses(), hops).ok()?;
        Some(hash_hops(&hops[at..]))
    }

    /// The path whose hops [`Plan::key`] derived as `hops` and keyed as `key`.
    fn build(&self, src: IsdAsn, dst: IsdAsn, hops: &[PathHop], key: [u8; 8]) -> FullPath {
        // Sized exactly: the cache keeps these lists for as long as the path.
        let mut uses = Vec::with_capacity(self.uses().count());
        uses.extend(self.uses().map(UseRef::to_use));
        let body = PathBody {
            src,
            dst,
            kind: self.kind,
            uses,
            hops: hops.to_vec(),
        };
        FullPath::keyed(key, body)
    }
}

/// Every composition of the store's segments that could be a path from `src`
/// to `dst`, in the order the answer breaks ties by, and the buckets that
/// were read to list them. All four shapes (each end core or not) come
/// through here.
fn enumerate(store: &SegmentStore, src: IsdAsn, dst: IsdAsn) -> (Vec<Plan<'_>>, Vec<BucketDep>) {
    use Direction::{AgainstCons, Cons};
    let mut plans: Vec<Plan> = Vec::new();
    // The combination shape is decided by bucket emptiness, so the two
    // endpoint buckets are dependencies even when empty.
    let mut deps: BTreeSet<BucketDep> = BTreeSet::new();
    deps.insert(BucketDep::UpDown(src));
    deps.insert(BucketDep::UpDown(dst));
    let mut core_between = |from: IsdAsn, to: IsdAsn| {
        deps.insert(BucketDep::Core { from, to });
        store.core_between_handles(from, to)
    };

    let src_ups = store.up_segment_handles(src);
    let dst_downs = store.up_segment_handles(dst);
    match (src_ups.is_empty(), dst_downs.is_empty()) {
        (true, true) => {
            for cs in core_between(src, dst) {
                let uses = [UseRef::whole(cs, AgainstCons)];
                plans.push(Plan::new(PathKind::SingleSegment, uses));
            }
        }
        (true, false) => {
            for d in dst_downs {
                if d.origin() == src {
                    let uses = [UseRef::whole(d, Cons)];
                    plans.push(Plan::new(PathKind::SingleSegment, uses));
                } else {
                    for cs in core_between(src, d.origin()) {
                        let uses = [UseRef::whole(cs, AgainstCons), UseRef::whole(d, Cons)];
                        plans.push(Plan::new(PathKind::CoreEnd, uses));
                    }
                }
            }
        }
        (false, true) => {
            for u in src_ups {
                if u.origin() == dst {
                    let uses = [UseRef::whole(u, AgainstCons)];
                    plans.push(Plan::new(PathKind::SingleSegment, uses));
                } else {
                    for cs in core_between(u.origin(), dst) {
                        let uses = [
                            UseRef::whole(u, AgainstCons),
                            UseRef::whole(cs, AgainstCons),
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
    (plans, deps.into_iter().collect())
}

/// All combinations of one up and one down segment.
fn plan_pair<'a>(
    up: &'a SegmentHandle,
    down: &'a SegmentHandle,
    core_between: &mut impl FnMut(IsdAsn, IsdAsn) -> &'a [SegmentHandle],
    plans: &mut Vec<Plan<'a>>,
) {
    use Direction::{AgainstCons, Cons};
    let whole_up = UseRef::whole(up, AgainstCons);
    let whole_down = UseRef::whole(down, Cons);

    if up.origin() == down.origin() {
        // Same-core join.
        plans.push(Plan::new(PathKind::SameCore, [whole_up, whole_down]));
    } else {
        // Core transit.
        for cs in core_between(up.origin(), down.origin()) {
            let uses = [whole_up, UseRef::whole(cs, AgainstCons), whole_down];
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
                UseRef {
                    from_idx: i,
                    ..whole_up
                },
                UseRef {
                    from_idx: j,
                    ..whole_down
                },
            ];
            plans.push(Plan::new(PathKind::Shortcut, uses));
        }
    }

    // Peering shortcut: an up-segment AS peers with a down-segment AS, and
    // both sides advertised the link.
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
                    UseRef {
                        from_idx: i,
                        peer_with: Some(pe.peer),
                        ..whole_up
                    },
                    UseRef {
                        from_idx: j,
                        peer_with: Some(ue.ia),
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
/// are derived into one hop buffer and keyed from it ([`Plan::key`]); a body
/// is built ([`Plan::build`]) only for a key the answer keeps, so a plan that
/// fails a check, repeats a path or falls past the cap costs no allocation.
/// A plan of a length the answer never reaches costs its place in the length
/// sort and nothing else. `key` and `build` are parameters so a test can
/// count both steps.
fn pick<'p, 'a>(
    plans: &'p [Plan<'a>],
    max_paths: usize,
    mut key: impl FnMut(&Plan<'a>, &mut Vec<PathHop>) -> Option<[u8; 8]>,
    mut build: impl FnMut(&Plan<'a>, &[PathHop], [u8; 8]) -> FullPath,
) -> Vec<FullPath> {
    let mut by_len: Vec<&Plan> = plans.iter().collect();
    by_len.sort_by_key(|p| p.len);
    let mut picked: Vec<FullPath> = Vec::with_capacity(max_paths.min(by_len.len()));
    // One hop buffer and one key list per lookup, refilled length by length:
    // a key, its plan and where its hops start.
    let mut hops: Vec<PathHop> = Vec::new();
    let mut keyed: Vec<([u8; 8], &'p Plan<'a>, usize)> = Vec::new();
    for same_len in by_len.chunk_by(|a, b| a.len == b.len) {
        if picked.len() >= max_paths {
            break;
        }
        let len = same_len[0].len;
        hops.clear();
        hops.reserve(same_len.len() * len);
        keyed.clear();
        keyed.reserve(same_len.len());
        for &plan in same_len {
            let at = hops.len();
            if let Some(k) = key(plan, &mut hops) {
                debug_assert_eq!(hops.len(), at + len, "hops derive to the planned length");
                keyed.push((k, plan, at));
            }
        }
        // Both steps are stable, so of equal paths the first pushed survives.
        keyed.sort_by_key(|&(k, ..)| k);
        keyed.dedup_by_key(|&mut (k, ..)| k);
        let room = max_paths - picked.len();
        let kept = keyed.iter().take(room);
        picked.extend(kept.map(|&(k, plan, at)| build(plan, &hops[at..at + len], k)));
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
    let key = |plan: &Plan, hops: &mut Vec<PathHop>| plan.key(src, dst, hops);
    let build = |plan: &Plan, hops: &[PathHop], k| plan.build(src, dst, hops, k);
    CombineRecord {
        paths: pick(&plans, max_paths, key, build),
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{BeaconConfig, BeaconEngine};
    use crate::fullpath::SegmentUse;
    use crate::graph::{ControlGraph, LinkType};
    use scion_proto::addr::ia;

    impl Plan<'_> {
        /// The plan keyed and built on its own, as `pick` treats a plan whose
        /// path it keeps.
        fn assemble(&self, src: IsdAsn, dst: IsdAsn) -> Option<FullPath> {
            let mut hops = Vec::new();
            let key = self.key(src, dst, &mut hops)?;
            Some(self.build(src, dst, &hops, key))
        }
    }

    /// `pick` as `combine_paths_recorded` calls it.
    fn pick_between(plans: &[Plan], cap: usize, src: IsdAsn, dst: IsdAsn) -> Vec<FullPath> {
        let key = |plan: &Plan, hops: &mut Vec<PathHop>| plan.key(src, dst, hops);
        pick(plans, cap, key, |plan, hops, k| {
            plan.build(src, dst, hops, k)
        })
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
    /// what the whole-list sort of those candidates does. Returns how many
    /// plans there were and how many assembled.
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
                assert_eq!(p.len(), plan.len, "{src}->{dst}: {p:?}");
                // A cached path holds no spare capacity.
                assert_eq!(p.uses.capacity(), p.uses.len());
                assert_eq!(p.hops.capacity(), p.hops.len());
                built.push(p);
            }
        }
        assert_eq!(built, eager, "{src}->{dst}");
        for cap in caps {
            assert_eq!(
                combine_paths(store, src, dst, cap),
                whole_list_finalize(&eager, cap),
                "{src}->{dst} cap {cap}"
            );
        }
        (plans.len(), eager.len())
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
        let lengths: BTreeSet<usize> = plans.iter().map(|p| p.len).collect();
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
                pick_between(&twice, cap, src, dst),
                whole_list_finalize(&built, cap),
                "cap {cap}"
            );
        }
        assert_eq!(pick_between(&twice, usize::MAX, src, dst), answer);
    }

    #[test]
    fn a_lookup_builds_only_the_paths_it_answers_with() {
        let store = layered_store();
        let (src, dst) = (ia("71-100"), ia("71-101"));
        let (plans, _) = enumerate(&store, src, dst);
        let whole = combine_paths(&store, src, dst, usize::MAX).len();
        let winner_len = combine_paths(&store, src, dst, 1)[0].len();
        assert!(plans.iter().any(|p| p.len > winner_len), "one length only");
        for cap in [0, 1, whole - 1, whole, usize::MAX] {
            let (mut keyed, mut built) = (Vec::new(), 0);
            let answer = pick(
                &plans,
                cap,
                |plan, hops| {
                    keyed.push(plan.len);
                    plan.key(src, dst, hops)
                },
                |plan, hops, k| {
                    built += 1;
                    plan.build(src, dst, hops, k)
                },
            );
            assert_eq!(answer, combine_paths(&store, src, dst, cap), "cap {cap}");
            assert_eq!(built, answer.len(), "cap {cap}: bodies built");
            // The lengths walked: all of them while the answer has room,
            // else those up to the one that filled it.
            let reached =
                |len: usize| answer.len() < cap || answer.last().is_some_and(|p| len <= p.len());
            let mut expected: Vec<usize> = plans
                .iter()
                .map(|p| p.len)
                .filter(|&l| reached(l))
                .collect();
            expected.sort_unstable();
            assert_eq!(keyed, expected, "cap {cap}: plans keyed");
        }
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
