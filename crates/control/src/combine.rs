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
use std::sync::Arc;

use sciera_telemetry::Telemetry;
use scion_proto::addr::IsdAsn;

use crate::fullpath::{Direction, FullPath, PathKind, SegmentUse};
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
    combine_paths_recorded(store, src, dst, max_paths, false).paths
}

/// Raw (pre-finalization) combination output of one (up, down) segment
/// pair, kept by the memoizer so a core-bucket change recombines only the
/// pairs that consulted that bucket.
#[derive(Debug, Clone)]
pub(crate) struct PairRaw {
    pub up_id: [u8; 32],
    pub down_id: [u8; 32],
    /// The core bucket this pair consulted (`None` for a same-core join,
    /// which depends only on the two segments themselves).
    pub core_dep: Option<BucketDep>,
    /// Shared so incremental recombination can carry an untouched pair
    /// into the next record with an `Arc` bump instead of a deep clone.
    pub paths: Arc<Vec<FullPath>>,
}

/// A combination result plus everything the memoizer needs to revalidate
/// it: the exact set of store buckets consulted and, for the leaf-to-leaf
/// shape, the per-pair raw output.
#[derive(Debug, Clone)]
pub(crate) struct CombineRecord {
    pub paths: Vec<FullPath>,
    /// Every bucket whose contents influenced `paths`, including empty
    /// buckets (their emptiness decided the combination shape).
    pub deps: Vec<BucketDep>,
    /// Per-pair raw results, in (up-index, down-index) push order; `Some`
    /// only for the leaf-to-leaf shape when `record_raw` was requested.
    pub raw: Option<Vec<PairRaw>>,
}

/// Picks the answer out of the raw candidates, given in push order: shortest
/// first, equal lengths by fingerprint (the "lowest path identifier" rule of
/// §5.4, reproducibly), one path per fingerprint, at most `max_paths`. The
/// final step every combination (fresh or incremental) shares, so results
/// are byte-for-byte identical.
///
/// The winners are handles to the candidates' own bodies, not copies, and
/// leave here with their fingerprint key memoised. Only the lengths that
/// reach the answer are fingerprinted: paths that share a fingerprint share
/// their hops and so their length, which lets each length be ordered and
/// deduplicated on its own, and the walk stop at the one that fills the
/// answer. A candidate beyond it costs its place in the length sort and
/// nothing else; one hashed here keeps its key, so a pair carried into the
/// next recombination is not hashed again.
pub(crate) fn finalize<'a>(
    raw: impl IntoIterator<Item = &'a FullPath>,
    max_paths: usize,
) -> Vec<FullPath> {
    let mut by_len: Vec<&FullPath> = raw.into_iter().collect();
    by_len.sort_by_key(|p| p.len());
    let mut picked: Vec<&FullPath> = Vec::with_capacity(max_paths.min(by_len.len()));
    for same_len in by_len.chunk_by(|a, b| a.len() == b.len()) {
        if picked.len() >= max_paths {
            break;
        }
        // The fingerprint hashes every hop: decorate once per path rather
        // than once per comparison. Both sorts are stable, so of equal
        // paths the first pushed survives.
        let mut keyed: Vec<([u8; 8], &FullPath)> =
            same_len.iter().map(|p| (p.fingerprint_key(), *p)).collect();
        keyed.sort_by_key(|k| k.0);
        keyed.dedup_by_key(|k| k.0);
        let room = max_paths - picked.len();
        picked.extend(keyed.into_iter().map(|(_, p)| p).take(room));
    }
    picked.into_iter().cloned().collect()
}

/// [`combine_paths`] with dependency (and optionally raw per-pair)
/// recording. The plain entry point runs this with recording off, so there
/// is exactly one combination code path.
pub(crate) fn combine_paths_recorded(
    store: &SegmentStore,
    src: IsdAsn,
    dst: IsdAsn,
    max_paths: usize,
    record_raw: bool,
) -> CombineRecord {
    if src == dst {
        return CombineRecord {
            paths: Vec::new(),
            deps: Vec::new(),
            raw: None,
        };
    }
    let mut out: Vec<FullPath> = Vec::new();
    // The combination shape is decided by bucket emptiness, so the two
    // endpoint buckets are dependencies even when empty.
    let mut deps: BTreeSet<BucketDep> = BTreeSet::new();
    deps.insert(BucketDep::UpDown(src));
    deps.insert(BucketDep::UpDown(dst));

    let src_ups = store.up_segment_handles(src);
    let dst_downs = store.up_segment_handles(dst);
    let src_is_core = src_ups.is_empty();
    let dst_is_core = dst_downs.is_empty();

    fn push_ok(out: &mut Vec<FullPath>, p: Result<FullPath, crate::ControlError>) {
        if let Ok(p) = p {
            out.push(p);
        }
    }

    match (src_is_core, dst_is_core) {
        (true, true) => {
            deps.insert(BucketDep::Core { from: src, to: dst });
            for cs in store.core_between_handles(src, dst) {
                push_ok(
                    &mut out,
                    FullPath::assemble(
                        src,
                        dst,
                        PathKind::SingleSegment,
                        vec![SegmentUse::whole(cs.clone(), Direction::AgainstCons)],
                    ),
                );
            }
        }
        (true, false) => {
            for d in dst_downs {
                if d.origin() == src {
                    push_ok(
                        &mut out,
                        FullPath::assemble(
                            src,
                            dst,
                            PathKind::SingleSegment,
                            vec![SegmentUse::whole(d.clone(), Direction::Cons)],
                        ),
                    );
                } else {
                    deps.insert(BucketDep::Core {
                        from: src,
                        to: d.origin(),
                    });
                    for cs in store.core_between_handles(src, d.origin()) {
                        push_ok(
                            &mut out,
                            FullPath::assemble(
                                src,
                                dst,
                                PathKind::CoreEnd,
                                vec![
                                    SegmentUse::whole(cs.clone(), Direction::AgainstCons),
                                    SegmentUse::whole(d.clone(), Direction::Cons),
                                ],
                            ),
                        );
                    }
                }
            }
        }
        (false, true) => {
            for u in src_ups {
                if u.origin() == dst {
                    push_ok(
                        &mut out,
                        FullPath::assemble(
                            src,
                            dst,
                            PathKind::SingleSegment,
                            vec![SegmentUse::whole(u.clone(), Direction::AgainstCons)],
                        ),
                    );
                } else {
                    deps.insert(BucketDep::Core {
                        from: u.origin(),
                        to: dst,
                    });
                    for cs in store.core_between_handles(u.origin(), dst) {
                        push_ok(
                            &mut out,
                            FullPath::assemble(
                                src,
                                dst,
                                PathKind::CoreEnd,
                                vec![
                                    SegmentUse::whole(u.clone(), Direction::AgainstCons),
                                    SegmentUse::whole(cs.clone(), Direction::AgainstCons),
                                ],
                            ),
                        );
                    }
                }
            }
        }
        (false, false) => {
            // Each pair's output is built where the record keeps it; the
            // answer is picked from there.
            let mut pairs: Vec<PairRaw> = Vec::with_capacity(src_ups.len() * dst_downs.len());
            for u in src_ups {
                for d in dst_downs {
                    let mut paths = Vec::new();
                    let core_dep =
                        combine_pair(store, src, dst, u, d, &mut |p| push_ok(&mut paths, p));
                    if let Some(dep) = core_dep {
                        deps.insert(dep);
                    }
                    paths.shrink_to_fit();
                    pairs.push(PairRaw {
                        up_id: u.id(),
                        down_id: d.id(),
                        core_dep,
                        paths: Arc::new(paths),
                    });
                }
            }
            return CombineRecord {
                paths: finalize(pairs.iter().flat_map(|pr| pr.paths.iter()), max_paths),
                deps: deps.into_iter().collect(),
                raw: record_raw.then_some(pairs),
            };
        }
    }

    CombineRecord {
        paths: finalize(&out, max_paths),
        deps: deps.into_iter().collect(),
        raw: None,
    }
}

/// All combinations of one up and one down segment. Returns the core
/// bucket consulted for transit, if any.
pub(crate) fn combine_pair(
    store: &SegmentStore,
    src: IsdAsn,
    dst: IsdAsn,
    up: &SegmentHandle,
    down: &SegmentHandle,
    push: &mut impl FnMut(Result<FullPath, crate::ControlError>),
) -> Option<BucketDep> {
    let cu = up.origin();
    let cd = down.origin();
    let mut core_dep = None;

    // Same-core join.
    if cu == cd {
        push(FullPath::assemble(
            src,
            dst,
            PathKind::SameCore,
            vec![
                SegmentUse::whole(up.clone(), Direction::AgainstCons),
                SegmentUse::whole(down.clone(), Direction::Cons),
            ],
        ));
    } else {
        // Core transit.
        core_dep = Some(BucketDep::Core { from: cu, to: cd });
        for cs in store.core_between_handles(cu, cd) {
            push(FullPath::assemble(
                src,
                dst,
                PathKind::CoreTransit,
                vec![
                    SegmentUse::whole(up.clone(), Direction::AgainstCons),
                    SegmentUse::whole(cs.clone(), Direction::AgainstCons),
                    SegmentUse::whole(down.clone(), Direction::Cons),
                ],
            ));
        }
    }

    // Non-core shortcut: join at any shared non-core AS.
    for (i, ue) in up.entries.iter().enumerate().skip(1) {
        if let Some(j) = down.position_of(ue.ia) {
            if j == 0 {
                continue; // shared core handled above
            }
            push(FullPath::assemble(
                src,
                dst,
                PathKind::Shortcut,
                vec![
                    SegmentUse {
                        segment: up.clone(),
                        dir: Direction::AgainstCons,
                        from_idx: i,
                        to_idx: up.len() - 1,
                        peer_with: None,
                    },
                    SegmentUse {
                        segment: down.clone(),
                        dir: Direction::Cons,
                        from_idx: j,
                        to_idx: down.len() - 1,
                        peer_with: None,
                    },
                ],
            ));
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
                push(FullPath::assemble(
                    src,
                    dst,
                    PathKind::Peering,
                    vec![
                        SegmentUse {
                            segment: up.clone(),
                            dir: Direction::AgainstCons,
                            from_idx: i,
                            to_idx: up.len() - 1,
                            peer_with: Some(pe.peer),
                        },
                        SegmentUse {
                            segment: down.clone(),
                            dir: Direction::Cons,
                            from_idx: j,
                            to_idx: down.len() - 1,
                            peer_with: Some(ue.ia),
                        },
                    ],
                ));
            }
        }
    }
    core_dep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{BeaconConfig, BeaconEngine};
    use crate::fullpath::PathKind;
    use crate::graph::{ControlGraph, LinkType};
    use scion_proto::addr::ia;

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

    /// `finalize` as first written: every candidate keyed and cloned, one
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
    fn finalize_by_length_equals_the_whole_list_sort_at_every_cap() {
        let store = layered_store();
        let record = combine_paths_recorded(&store, ia("71-100"), ia("71-101"), usize::MAX, true);
        let mut raw: Vec<FullPath> = record
            .raw
            .expect("leaf to leaf records its pairs")
            .iter()
            .flat_map(|pr| pr.paths.iter().cloned())
            .collect();
        let lengths: BTreeSet<usize> = raw.iter().map(FullPath::len).collect();
        assert!(lengths.len() >= 3, "lengths {lengths:?}");
        assert!(record.paths.len() < raw.len(), "no duplicate among the raw");
        // Every candidate once more, last first: of equal paths the one
        // pushed first must still be the one kept.
        let again: Vec<FullPath> = raw.iter().rev().cloned().collect();
        raw.extend(again);
        for cap in (0..=record.paths.len() + 1).chain([usize::MAX]) {
            assert_eq!(
                finalize(&raw, cap),
                whole_list_finalize(&raw, cap),
                "cap {cap}"
            );
        }
        assert_eq!(finalize(&raw, usize::MAX), record.paths);
    }

    #[test]
    fn winners_are_the_candidates_themselves_and_only_reached_lengths_are_hashed() {
        use crate::fullpath::approx_shared_bytes;
        let store = layered_store();
        let record = combine_paths_recorded(&store, ia("71-100"), ia("71-101"), 1, true);
        let raw: Vec<&FullPath> = record
            .raw
            .as_ref()
            .expect("leaf to leaf records its pairs")
            .iter()
            .flat_map(|pr| pr.paths.iter())
            .collect();
        let [winner] = &record.paths[..] else {
            panic!("cap 1 answers with one path");
        };
        // The winner adds a handle to the record, not a body.
        assert_eq!(
            approx_shared_bytes(raw.iter().copied().chain([winner])),
            approx_shared_bytes(raw.iter().copied()) + std::mem::size_of::<FullPath>()
        );
        // It leaves with its key; a candidate of a length the answer never
        // reached was not hashed.
        assert!(winner.key_is_memoised());
        assert!(raw.iter().any(|p| p.len() > winner.len()));
        for p in raw {
            assert_eq!(p.key_is_memoised(), p.len() == winner.len(), "{p:?}");
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
}
