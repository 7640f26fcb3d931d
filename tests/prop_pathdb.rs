//! Differential property test for the path database: under any
//! interleaving of segment registrations, link-kill invalidations, and
//! path queries on a random topology, [`EpochPathDb`] must return
//! byte-for-byte what the reference combinator computes fresh from the
//! published snapshot. This pins the generation-invalidation scheme: a
//! stale cache hit would show up as a divergence immediately after a
//! mutation.

use proptest::prelude::*;

use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::control::combine::combine_paths;
use sciera::control::epoch::EpochPathDb;
use sciera::control::fullpath::{FullPath, PathBody};
use sciera::control::graph::{ControlGraph, LinkType};
use sciera::control::segment::{PathSegment, SegmentType};
use sciera::control::store::SegmentStore;
use sciera::prelude::*;

/// A random two-tier topology: cores in a ring plus random extra core
/// links, leaves each multi-homed to 1–2 cores, optional peerings.
#[derive(Debug, Clone)]
struct RandomTopo {
    n_core: usize,
    n_leaf: usize,
    core_edges: Vec<(usize, usize)>,
    leaf_parents: Vec<Vec<usize>>,
    peerings: Vec<(usize, usize)>,
}

/// One step of the interleaved mutation/query schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Register the i-th segment of the rich pool into the store.
    Register(u8),
    /// Kill one interface (AS pick, interface pick) — removes every
    /// segment crossing it and bumps the generation.
    Kill(u8, u8),
    /// Query one ordered pair and compare against the reference.
    Query(u8, u8),
}

fn arb_topo() -> impl Strategy<Value = RandomTopo> {
    (2usize..5, 2usize..6).prop_flat_map(|(n_core, n_leaf)| {
        let core_edges = prop::collection::vec((0..n_core, 0..n_core), 0..n_core * 2);
        let leaf_parents =
            prop::collection::vec(prop::collection::vec(0..n_core, 1..3), n_leaf..=n_leaf);
        let peerings = prop::collection::vec((0..n_leaf, 0..n_leaf), 0..3);
        (Just((n_core, n_leaf)), core_edges, leaf_parents, peerings).prop_map(
            |((n_core, n_leaf), core_edges, leaf_parents, peerings)| RandomTopo {
                n_core,
                n_leaf,
                core_edges,
                leaf_parents,
                peerings,
            },
        )
    })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(Op::Register),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Kill(a, b)),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Query(a, b)),
        ],
        1..32,
    )
}

fn core_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 100 + i))
}
fn leaf_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 300 + i))
}

fn build(t: &RandomTopo) -> Option<ControlGraph> {
    let mut g = ControlGraph::new();
    for i in 0..t.n_core {
        g.add_as(core_ia(i), true);
    }
    for i in 0..t.n_leaf {
        g.add_as(leaf_ia(i), false);
    }
    for i in 0..t.n_core.saturating_sub(1) {
        g.connect(core_ia(i), core_ia(i + 1), LinkType::Core).ok()?;
    }
    for &(a, b) in &t.core_edges {
        if a != b {
            g.connect(core_ia(a), core_ia(b), LinkType::Core).ok()?;
        }
    }
    for (l, parents) in t.leaf_parents.iter().enumerate() {
        for &p in parents {
            g.connect(core_ia(p), leaf_ia(l), LinkType::Child).ok()?;
        }
    }
    for &(a, b) in &t.peerings {
        if a != b {
            g.connect(leaf_ia(a), leaf_ia(b), LinkType::Peer).ok()?;
        }
    }
    g.validate().ok()?;
    Some(g)
}

/// Registers one pooled segment into a store.
fn register_into(store: &mut SegmentStore, seg: &PathSegment) {
    match seg.seg_type {
        SegmentType::Core => {
            store.register_core(seg.clone());
        }
        SegmentType::UpDown => {
            store.register_up_down(seg.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The core differential property: memoized == fresh, always. Under any
    /// interleaving of registrations, kills and queries, every query equals
    /// the fresh combinator against the published snapshot byte-for-byte,
    /// and so does every pair warmed by `prefetch`, asked for twice.
    #[test]
    fn epoch_pathdb_matches_fresh_combine_under_mutation(
        topo in arb_topo(),
        ops in arb_ops(),
        final_picks in prop::collection::vec((any::<u8>(), any::<u8>()), 4),
    ) {
        let Some(graph) = build(&topo) else {
            return Ok(()); // degenerate spec: nothing to check
        };
        // Sparse starting store; a richer beacon run provides the pool of
        // segments the Register ops add incrementally.
        let sparse = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig {
            candidates_per_origin: 2,
            ..Default::default()
        })
        .run()
        .expect("sparse beaconing converges");
        let rich = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig {
            candidates_per_origin: 8,
            ..Default::default()
        })
        .run()
        .expect("rich beaconing converges");
        let pool: Vec<PathSegment> = rich.all_segments().cloned().collect();
        prop_assume!(!pool.is_empty());

        let edb = EpochPathDb::new(sparse);
        let all: Vec<IsdAsn> = graph.ases().map(|a| a.ia).collect();

        for op in &ops {
            match *op {
                Op::Register(i) => {
                    let seg = &pool[i as usize % pool.len()];
                    edb.mutate_store(|s| register_into(s, seg));
                }
                Op::Kill(a, b) => {
                    let node = graph.as_node(all[a as usize % all.len()]).unwrap();
                    if !node.interfaces.is_empty() {
                        let ifid = node.interfaces[b as usize % node.interfaces.len()].id;
                        edb.mutate_store(|s| s.invalidate_interface(node.ia, ifid));
                    }
                }
                Op::Query(s, d) => {
                    let (s, d) = (all[s as usize % all.len()], all[d as usize % all.len()]);
                    if s == d {
                        continue;
                    }
                    let memoized = edb.paths(s, d, 64);
                    let snap = edb.snapshot();
                    let fresh = combine_paths(snap.store(), s, d, 64);
                    prop_assert_eq!(memoized, fresh, "divergence for {}->{}", s, d);
                }
            }
        }
        // Final prefetch sweep: warm the remaining pairs in one batch;
        // repeated queries (cache hits) are stable and still match.
        let pairs: Vec<(IsdAsn, IsdAsn)> = final_picks
            .iter()
            .map(|&(s, d)| (all[s as usize % all.len()], all[d as usize % all.len()]))
            .filter(|(s, d)| s != d)
            .collect();
        edb.prefetch(&pairs, 64);
        for &(s, d) in &pairs {
            let memoized = edb.paths(s, d, 64);
            let again = edb.paths(s, d, 64);
            prop_assert_eq!(&memoized, &again, "warm hit unstable for {}->{}", s, d);
            let snap = edb.snapshot();
            prop_assert_eq!(
                memoized,
                combine_paths(snap.store(), s, d, 64),
                "prefetched != fresh for {}->{}", s, d
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An answer is a list of handles to bodies the cache also holds, not a
    /// copy. What the copy gave for free has to hold all the same: asking
    /// twice gives equal answers, both equal to a fresh combination, at caps
    /// below, at and above what a pair has; and an answer a caller keeps is
    /// still the answer it was given after the store has changed under the
    /// cache, been republished, and every entry recombined.
    #[test]
    fn shared_answers_behave_as_values(
        topo in arb_topo(),
        picks in prop::collection::vec((any::<u8>(), any::<u8>()), 6),
    ) {
        let Some(graph) = build(&topo) else {
            return Ok(()); // degenerate spec: nothing to check
        };
        let store = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig {
            candidates_per_origin: 8,
            ..Default::default()
        })
        .run()
        .expect("beaconing converges");
        let edb = EpochPathDb::new(store);
        let all: Vec<IsdAsn> = graph.ases().map(|a| a.ia).collect();
        let queries: Vec<(IsdAsn, IsdAsn, usize)> = picks
            .iter()
            .map(|&(s, d)| (all[s as usize % all.len()], all[d as usize % all.len()]))
            .filter(|(s, d)| s != d)
            .flat_map(|(s, d)| [1, 7, 50, 200, usize::MAX].map(|cap| (s, d, cap)))
            .collect();

        // What a caller holds, and beside it a copy that shares nothing.
        let mut held: Vec<(Vec<FullPath>, Vec<FullPath>, Vec<String>)> = Vec::new();
        for &(s, d, cap) in &queries {
            let first = edb.paths(s, d, cap);
            let second = edb.paths(s, d, cap);
            prop_assert_eq!(&first, &second, "warm hit differs, {}->{} cap {}", s, d, cap);
            let fresh = combine_paths(edb.snapshot().store(), s, d, cap);
            prop_assert_eq!(&first, &fresh, "answer != fresh, {}->{} cap {}", s, d, cap);
            prop_assert!(first.len() <= cap);
            let copy = first
                .iter()
                .map(|p| FullPath::from_body(PathBody::clone(p)))
                .collect();
            let fingerprints = fresh.iter().map(FullPath::fingerprint).collect();
            held.push((first, copy, fingerprints));
        }

        // Cut an interface some held path crosses, so at least one entry is
        // recombined rather than revalidated, and ask for everything again.
        let crossed = held
            .iter()
            .find_map(|(answer, ..)| answer.first()?.interfaces().first().copied());
        if let Some((at, ifid)) = crossed {
            let gen = edb.generation();
            edb.mutate_store(|s| s.invalidate_interface(at, ifid));
            prop_assert!(edb.generation() > gen, "the cut must republish");
        }
        for &(s, d, cap) in &queries {
            let after = edb.paths(s, d, cap);
            let fresh = combine_paths(edb.snapshot().store(), s, d, cap);
            prop_assert_eq!(after, fresh, "after the cut, {}->{} cap {}", s, d, cap);
        }

        for (answer, copy, fingerprints) in &held {
            prop_assert_eq!(answer, copy, "a held answer changed");
            let now: Vec<String> = answer.iter().map(FullPath::fingerprint).collect();
            prop_assert_eq!(&now, fingerprints);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `invalidate_paths_crossing` tests hops in place; the interface list it
    /// used to build per path is the oracle. For any interface — of an AS on
    /// the paths, off them or unknown, number 0 included — the database
    /// drops exactly the entries with a path listing it, and asking again
    /// drops nothing.
    #[test]
    fn crossing_sweeps_equal_the_interface_list_oracle(
        topo in arb_topo(),
        picks in prop::collection::vec((any::<u8>(), any::<u8>()), 6),
        sweeps in prop::collection::vec((any::<u8>(), any::<u8>()), 8),
    ) {
        let Some(graph) = build(&topo) else {
            return Ok(()); // degenerate spec: nothing to check
        };
        let store = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig::default())
            .run()
            .expect("beaconing converges");
        let edb = EpochPathDb::new(store);
        let all: Vec<IsdAsn> = graph.ases().map(|a| a.ia).collect();

        // The model: which pairs are cached, and the answer each holds.
        let mut cached: Vec<(IsdAsn, IsdAsn, Vec<FullPath>)> = Vec::new();
        for &(s, d) in &picks {
            let (s, d) = (all[s as usize % all.len()], all[d as usize % all.len()]);
            if s == d || cached.iter().any(|(cs, cd, _)| (*cs, *cd) == (s, d)) {
                continue;
            }
            cached.push((s, d, edb.paths(s, d, 64)));
        }

        for &(at, ifid) in &sweeps {
            // One pick in `len + 1` is an AS the topology does not have.
            let at = all.get(at as usize % (all.len() + 1)).copied().unwrap_or(ia("71-999"));
            let ifid = u16::from(ifid % 6);
            let before = cached.len();
            cached.retain(|(_, _, answer)| {
                !answer.iter().any(|p| p.interfaces().contains(&(at, ifid)))
            });
            let expect = before - cached.len();
            prop_assert_eq!(edb.invalidate_paths_crossing(at, ifid), expect, "{} {}", at, ifid);
            prop_assert_eq!(edb.cached_entries(), cached.len());
            prop_assert_eq!(edb.invalidate_paths_crossing(at, ifid), 0);
        }
        // The store never moved: what survived is served as it was.
        for (s, d, answer) in &cached {
            prop_assert_eq!(&edb.paths(*s, *d, 64), answer);
        }
    }
}

/// A store mutation must flush affected cached entries: after killing an
/// interface every path of a cached pair crosses, the next query reflects
/// the removal (and still matches the reference).
#[test]
fn store_mutation_flushes_affected_entries() {
    let mut g = ControlGraph::new();
    g.add_as(ia("71-100"), true);
    g.add_as(ia("71-101"), true);
    g.add_as(ia("71-300"), false);
    g.add_as(ia("71-301"), false);
    g.connect(ia("71-100"), ia("71-101"), LinkType::Core)
        .unwrap();
    // 71-300 is dual-homed; 71-301 hangs off 71-101 only.
    let (up_if, _) = g
        .connect(ia("71-100"), ia("71-300"), LinkType::Child)
        .unwrap();
    g.connect(ia("71-101"), ia("71-300"), LinkType::Child)
        .unwrap();
    g.connect(ia("71-101"), ia("71-301"), LinkType::Child)
        .unwrap();
    g.validate().unwrap();

    let store = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
        .run()
        .unwrap();
    let db = EpochPathDb::new(store);

    let before = db.paths(ia("71-300"), ia("71-301"), 64);
    assert!(!before.is_empty(), "pair starts connected");
    let via_100: Vec<_> = before
        .iter()
        .filter(|p| p.interfaces().contains(&(ia("71-100"), up_if)))
        .collect();
    assert!(!via_100.is_empty(), "some path uses the 71-100 homing");

    // Kill 71-100's child interface toward 71-300: up segments through it
    // vanish from the store; the cached entry is generation-stale.
    let removed = db.mutate_store(|s| s.invalidate_interface(ia("71-100"), up_if));
    assert!(
        removed > 0,
        "segments crossing the killed interface removed"
    );

    let after = db.paths(ia("71-300"), ia("71-301"), 64);
    assert_eq!(
        after,
        combine_paths(db.snapshot().store(), ia("71-300"), ia("71-301"), 64),
        "post-mutation query must match the reference"
    );
    assert!(
        after
            .iter()
            .all(|p| !p.interfaces().contains(&(ia("71-100"), up_if))),
        "no surviving path crosses the killed interface"
    );
    assert!(
        !after.is_empty(),
        "the 71-101 homing keeps the pair connected"
    );
    assert_ne!(before, after, "the flushed entry was recombined");
}
