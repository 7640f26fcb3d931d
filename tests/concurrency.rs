//! Concurrency stress test for the path database.
//!
//! N reader threads hammer lookups while one writer interleaves segment
//! registrations (store mutations that publish new generations) with
//! SCMP-style `invalidate_paths_crossing` sweeps (cache-only, generation
//! unchanged). The writer retains every snapshot it publishes in a
//! generation-indexed log; each reader validates every result it is
//! served — byte-for-byte against a fresh `combine_paths` over the store
//! *at the generation the result was served from*. A reader racing a
//! publish may briefly observe a generation the writer has not logged
//! yet; it spins until the log catches up (bounded: the single writer
//! logs each generation before publishing the next).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::control::combine::combine_paths;
use sciera::control::epoch::{EpochPathDb, PathSnapshot};
use sciera::control::graph::{ControlGraph, LinkType};
use sciera::control::segment::{PathSegment, SegmentType};
use sciera::prelude::*;

/// Three cores in a triangle, three leaves per core (each dual-homed to
/// the next core around the ring), one peering — small enough that the
/// per-lookup reference combine stays cheap, rich enough that kills and
/// registrations actually change results.
fn stress_graph() -> ControlGraph {
    let mut g = ControlGraph::new();
    let core = |c: usize| ia(&format!("71-{c}"));
    let leaf = |c: usize, k: usize| ia(&format!("71-{}", 100 * c + k));
    for c in 1..=3 {
        g.add_as(core(c), true);
    }
    for c in 1..=3 {
        for d in c + 1..=3 {
            g.connect(core(c), core(d), LinkType::Core).unwrap();
        }
    }
    for c in 1..=3 {
        for k in 1..=3 {
            g.add_as(leaf(c, k), false);
            g.connect(core(c), leaf(c, k), LinkType::Child).unwrap();
            g.connect(core(c % 3 + 1), leaf(c, k), LinkType::Child)
                .unwrap();
        }
    }
    g.connect(leaf(1, 1), leaf(2, 1), LinkType::Peer).unwrap();
    g.validate().unwrap();
    g
}

/// Tiny deterministic PRNG (xorshift64*) so each thread's schedule is
/// reproducible; only the cross-thread interleaving varies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

type SnapshotLog = Mutex<HashMap<u64, Arc<PathSnapshot>>>;

/// Waits until the writer has logged `generation`, then returns its
/// snapshot. Terminates because generations only exist once published by
/// the single writer, which logs each one right after publishing.
fn snapshot_at(log: &SnapshotLog, generation: u64) -> Arc<PathSnapshot> {
    loop {
        if let Some(s) = log.lock().unwrap().get(&generation) {
            return s.clone();
        }
        std::thread::yield_now();
    }
}

#[test]
fn concurrent_readers_always_see_generation_consistent_paths() {
    let graph = stress_graph();
    let sparse = BeaconEngine::new(
        &graph,
        1_700_000_000,
        BeaconConfig {
            candidates_per_origin: 2,
            ..Default::default()
        },
    )
    .run()
    .unwrap();
    let rich = BeaconEngine::new(
        &graph,
        1_700_000_000,
        BeaconConfig {
            candidates_per_origin: 8,
            ..Default::default()
        },
    )
    .run()
    .unwrap();
    let pool: Vec<PathSegment> = rich.all_segments().cloned().collect();
    assert!(!pool.is_empty());

    let db = EpochPathDb::new(sparse);
    let ases: Vec<IsdAsn> = graph.ases().map(|a| a.ia).collect();
    // Interfaces the crossing sweeps target: every (AS, ifid) in the graph.
    let interfaces: Vec<(IsdAsn, u16)> = graph
        .ases()
        .flat_map(|a| a.interfaces.iter().map(move |i| (a.ia, i.id)))
        .collect();

    let log: SnapshotLog = Mutex::new(HashMap::new());
    {
        let snap = db.snapshot();
        log.lock().unwrap().insert(snap.generation(), snap);
    }
    const READERS: usize = 8;
    const LOOKUPS: usize = 250;
    const WRITER_OPS: usize = 400;

    std::thread::scope(|scope| {
        let writer = {
            let db = db.clone();
            let (log, pool, interfaces) = (&log, &pool, &interfaces);
            scope.spawn(move || {
                let mut rng = Rng::new(0xD0_5EED);
                for i in 0..WRITER_OPS {
                    match i % 4 {
                        // Registration: mutate + publish, then log the
                        // fresh snapshot under its generation.
                        0 | 1 => {
                            let seg = &pool[rng.below(pool.len())];
                            db.mutate_store(|s| match seg.seg_type {
                                SegmentType::Core => {
                                    s.register_core(seg.clone());
                                }
                                SegmentType::UpDown => {
                                    s.register_up_down(seg.clone());
                                }
                            });
                            let snap = db.snapshot();
                            log.lock().unwrap().insert(snap.generation(), snap);
                        }
                        // Interface kill: also a store mutation + publish.
                        2 => {
                            let (ia, ifid) = interfaces[rng.below(interfaces.len())];
                            db.mutate_store(|s| s.invalidate_interface(ia, ifid));
                            let snap = db.snapshot();
                            log.lock().unwrap().insert(snap.generation(), snap);
                        }
                        // SCMP crossing sweep: cache-only, generation and
                        // published snapshot unchanged — nothing to log.
                        _ => {
                            let (ia, ifid) = interfaces[rng.below(interfaces.len())];
                            db.invalidate_paths_crossing(ia, ifid);
                        }
                    }
                    std::thread::yield_now();
                }
            })
        };

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let db = db.clone();
                let (log, ases) = (&log, &ases);
                scope.spawn(move || {
                    let mut rng = Rng::new((r as u64 + 1).rotate_left(19) ^ 0xC0FFEE);
                    let mut validated = 0usize;
                    for _ in 0..LOOKUPS {
                        let s = ases[rng.below(ases.len())];
                        let d = ases[rng.below(ases.len())];
                        if s == d {
                            continue;
                        }
                        let (paths, generation) = db.paths_with_generation(s, d, 64);
                        let snap = snapshot_at(log, generation);
                        assert_eq!(snap.generation(), generation);
                        assert_eq!(
                            *paths,
                            combine_paths(snap.store(), s, d, 64),
                            "reader {r}: {s}->{d} diverged from the store at \
                             generation {generation}"
                        );
                        validated += 1;
                    }
                    validated
                })
            })
            .collect();

        let mut total = 0usize;
        for r in readers {
            total += r.join().expect("reader panicked");
        }
        writer.join().expect("writer panicked");
        assert!(
            total >= READERS * LOOKUPS / 2,
            "too few validated lookups: {total}"
        );
    });

    // Post-quiescence: the final published state still matches fresh
    // combination for a sweep of pairs.
    let snap = db.snapshot();
    for (i, &s) in ases.iter().enumerate() {
        let d = ases[(i + 5) % ases.len()];
        if s == d {
            continue;
        }
        assert_eq!(db.paths(s, d, 64), combine_paths(snap.store(), s, d, 64));
    }
}
