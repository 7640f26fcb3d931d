//! Model test for beacon propagation. The engine offers only the slots
//! that changed since they were last offered; `model` below is the
//! exhaustive synchronous walk written from the protocol, over the public
//! graph and segment API, that re-offers every retained beacon every
//! round. On any random multi-tier topology and beacon configuration the
//! two must agree on the registered segments, the retained slot contents
//! and order, the convergence round count, and the counters of what was
//! originated, retained and registered.
//!
//! The schedule deliberately churns the dirty sets: tight round budgets
//! that stop mid-churn, and small retain windows
//! (`candidates_per_origin`) that force slot evictions, so the
//! snapshot-at-round-start semantics is exercised under contention for
//! slots, not just on quiescent graphs.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use common::{arb_topo, build};
use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::control::graph::ControlGraph;
use sciera::control::graph::LinkType::{self, Child, Core, Peer};
use sciera::control::segment::{AsSecrets, CowSegment, SegmentType};
use sciera::prelude::*;
use sciera::telemetry::Telemetry;

const TS: u32 = 1_700_000_000;

/// Beacon configurations that stress the round from different angles:
/// tiny retain windows force evictions, short round budgets stop with a
/// non-empty dirty set.
fn arb_config() -> impl Strategy<Value = BeaconConfig> {
    (1usize..6, 3usize..12, 2usize..12).prop_map(|(candidates, max_len, rounds)| BeaconConfig {
        candidates_per_origin: candidates,
        max_len,
        rounds,
    })
}

/// What a beaconing run leaves: registered segment ids (sorted), the
/// retained-slot digest (in order), rounds to the fixed point, and the
/// `beacon.{originated,propagated,segments_registered}` counters. Other
/// counters count offers, which the engine's dirty set exists to reduce.
struct RunOutcome {
    segment_ids: Vec<[u8; 32]>,
    slots: Vec<(bool, IsdAsn, IsdAsn, Vec<[u8; 32]>)>,
    rounds: usize,
    counters: [u64; 3],
}

fn engine_run(graph: &ControlGraph, cfg: &BeaconConfig) -> RunOutcome {
    let tele = Telemetry::quiet();
    let mut engine = BeaconEngine::new(graph, TS, *cfg);
    engine.set_telemetry(tele.clone());
    let store = engine.run().expect("beaconing converges");
    let mut segment_ids: Vec<[u8; 32]> = store.all_segments().map(|s| s.id()).collect();
    segment_ids.sort();
    let snap = tele.snapshot();
    let counters = ["originated", "propagated", "segments_registered"]
        .map(|n| snap.counter(&format!("beacon.{n}")).unwrap_or(0));
    RunOutcome {
        segment_ids,
        slots: engine.slot_digest(),
        rounds: engine.last_rounds(),
        counters,
    }
}

/// Retained beacons per (holder, origin), each with the holder's ingress.
type Slots = BTreeMap<(IsdAsn, IsdAsn), Vec<(CowSegment, u16)>>;

/// Offers a beacon to a slot that keeps the top `k` by `(len, id)` without
/// duplicates. Returns whether the beacon was retained.
fn offer(slot: &mut Vec<(CowSegment, u16)>, seg: CowSegment, ingress: u16, k: usize) -> bool {
    let id = seg.id();
    let fresh = slot.iter().all(|(s, _)| s.id() != id);
    slot.push((seg, ingress));
    slot.sort_by_key(|(s, _)| (s.len(), s.id()));
    slot.dedup_by_key(|(s, _)| s.id());
    slot.truncate(k);
    fresh && slot.iter().any(|(s, _)| s.id() == id)
}

/// `(neighbor, local ifid, neighbor ifid)` of `ia`'s links of type `t`.
fn links(g: &ControlGraph, ia: IsdAsn, t: LinkType) -> Vec<(IsdAsn, u16, u16)> {
    let intfs = g.as_node(ia).unwrap().interfaces_of_type(t);
    intfs.map(|i| (i.neighbor, i.id, i.neighbor_ifid)).collect()
}

/// Per beacon kind, the links it travels and the links its entries
/// advertise: core beacons (kind 0) advertise none, down beacons (kind 1)
/// the extending AS's peering links.
const KINDS: [(LinkType, Option<LinkType>); 2] = [(Core, None), (Child, Some(Peer))];

/// The exhaustive synchronous walk to a fixed point, then registration.
fn model(g: &ControlGraph, cfg: &BeaconConfig) -> RunOutcome {
    let sec: BTreeMap<_, _> = g.ases().map(|a| (a.ia, AsSecrets::derive(a.ia))).collect();
    let peers = |kind: usize, ia| KINDS[kind].1.map_or(vec![], |t| links(g, ia, t));
    let (k, mut slots) = (cfg.candidates_per_origin, [Slots::new(), Slots::new()]);
    let (mut originated, mut propagated, mut rounds) = (0, 0, 0);
    for core in g.core_ases() {
        let intfs = g.as_node(core).unwrap().interfaces.iter();
        let beaconed = intfs.filter(|i| matches!(i.link_type, Core | Child));
        for (seq, i) in beaconed.enumerate() {
            let (kind, seg_type) = match i.link_type {
                Core => (0, SegmentType::Core),
                _ => (1, SegmentType::UpDown),
            };
            let beta0 = (31 * (core.to_u64() & 0xffff) + seq as u64) as u16;
            let seg = CowSegment::originate(seg_type, TS, beta0);
            let seg = seg.extend(&sec[&core], 0, i.id, &peers(kind, core));
            let slot = slots[kind].entry((i.neighbor, core)).or_default();
            offer(slot, seg, i.neighbor_ifid, k);
            originated += 1;
        }
    }
    // Stop after the first round that changes nothing, counting it.
    let mut changed = true;
    while changed && rounds < cfg.rounds {
        (rounds, changed) = (rounds + 1, false);
        let snapshot = slots.clone();
        for (kind, (out, _)) in KINDS.into_iter().enumerate() {
            // Only core ASes extend core beacons.
            for h in g.ases().filter(|a| kind == 1 || a.core).map(|a| a.ia) {
                let peers = peers(kind, h);
                for (n, out_if, n_if) in links(g, h, out) {
                    for ((_, origin), slot) in snapshot[kind].iter().filter(|s| s.0 .0 == h) {
                        for (seg, ingress) in slot {
                            if seg.len() >= cfg.max_len || seg.contains(h) || seg.contains(n) {
                                continue;
                            }
                            let ext = seg.extend(&sec[&h], *ingress, out_if, &peers);
                            if offer(slots[kind].entry((n, *origin)).or_default(), ext, n_if, k) {
                                (propagated, changed) = (propagated + 1, true);
                            }
                        }
                    }
                }
            }
        }
    }
    // Core holders terminate core beacons, non-core holders down beacons.
    let mut segment_ids = Vec::new();
    for h in g.ases() {
        let kind = usize::from(!h.core);
        let held = slots[kind].iter().filter(|s| s.0 .0 == h.ia);
        for (seg, ingress) in held.flat_map(|s| s.1).filter(|b| !b.0.contains(h.ia)) {
            let seg = seg.extend(&sec[&h.ia], *ingress, 0, &peers(kind, h.ia));
            segment_ids.push(seg.id());
        }
    }
    segment_ids.sort();
    let mut digest = Vec::new();
    for (core, map) in [true, false].into_iter().zip(&slots) {
        for (s, b) in map {
            digest.push((core, s.0, s.1, b.iter().map(|b| b.0.id()).collect()));
        }
    }
    RunOutcome {
        counters: [originated, propagated, segment_ids.len() as u64],
        segment_ids,
        slots: digest,
        rounds,
    }
}

/// Asserts that the engine reaches the model's state; returns the number
/// of registered segments.
fn check(graph: &ControlGraph, cfg: &BeaconConfig) -> usize {
    let (engine, model) = (engine_run(graph, cfg), model(graph, cfg));
    assert_eq!(engine.segment_ids, model.segment_ids, "registered segments");
    assert_eq!(engine.slots, model.slots, "retained slots");
    assert_eq!(engine.rounds, model.rounds, "convergence rounds");
    assert_eq!(engine.counters, model.counters, "beacon counters");
    model.segment_ids.len()
}

#[test]
fn dirty_slot_walk_matches_the_model_on_small_shapes() {
    // A diamond (two cores, a leaf each, the leaves peering), a core
    // triangle, and a core → mid → leaf chain. The core ASes are 71-1..3.
    let shapes: [&[(&str, &str, LinkType)]; 3] = [
        &[
            ("1", "2", Core),
            ("1", "10", Child),
            ("2", "11", Child),
            ("10", "11", Peer),
        ],
        &[("1", "2", Core), ("2", "3", Core), ("1", "3", Core)],
        &[("1", "10", Child), ("10", "100", Child)],
    ];
    let at = |x: &str| ia(&format!("71-{x}"));
    for shape in shapes {
        let mut g = ControlGraph::new();
        for &(a, b, t) in shape {
            g.add_as(at(a), a.len() == 1);
            g.add_as(at(b), b.len() == 1);
            g.connect(at(a), at(b), t).unwrap();
        }
        assert!(check(&g, &BeaconConfig::default()) > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dirty_slot_walk_reaches_the_models_fixed_point(
        topo in arb_topo(|_| 0),
        cfg in arb_config(),
    ) {
        let Some(graph) = build(&topo) else {
            return Ok(()); // degenerate spec: nothing to check
        };
        check(&graph, &cfg);
    }
}
