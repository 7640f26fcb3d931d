//! Differential property test for delta beacon propagation: on any random
//! multi-tier topology and any beacon configuration, offering only the
//! slots that changed since they were last offered must reach exactly the
//! state of the exhaustive walk that re-offers every slot every round —
//! registered segments, retained slot contents and order, convergence
//! round count, and the counters of what was originated, retained and
//! registered. The exhaustive walk is the reference; the delta walk is
//! only allowed to do less work (fewer offers, verifications and filters).
//!
//! The schedule deliberately churns the dirty sets: tight round budgets
//! that stop mid-churn, and small retain windows
//! (`candidates_per_origin`) that force slot evictions, so the
//! snapshot-at-round-start semantics is exercised under contention for
//! slots, not just on quiescent graphs.

use proptest::prelude::*;

use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::control::graph::{ControlGraph, LinkType};
use sciera::prelude::*;
use sciera::telemetry::Telemetry;

/// A random three-tier topology: cores in a ring plus random extra core
/// links, mids homed to 1–2 cores, leaves homed to 1–2 mids, optional
/// peerings between non-core ASes.
#[derive(Debug, Clone)]
struct RandomTopo {
    n_core: usize,
    n_mid: usize,
    n_leaf: usize,
    core_edges: Vec<(usize, usize)>,
    mid_parents: Vec<Vec<usize>>,
    leaf_parents: Vec<Vec<usize>>,
    peerings: Vec<(usize, usize)>,
}

fn arb_topo() -> impl Strategy<Value = RandomTopo> {
    (2usize..5, 1usize..4, 1usize..5).prop_flat_map(|(n_core, n_mid, n_leaf)| {
        let core_edges = prop::collection::vec((0..n_core, 0..n_core), 0..n_core * 2);
        let mid_parents =
            prop::collection::vec(prop::collection::vec(0..n_core, 1..3), n_mid..=n_mid);
        let leaf_parents =
            prop::collection::vec(prop::collection::vec(0..n_mid, 1..3), n_leaf..=n_leaf);
        let peerings = prop::collection::vec((0..n_mid + n_leaf, 0..n_mid + n_leaf), 0..3);
        (
            Just((n_core, n_mid, n_leaf)),
            core_edges,
            mid_parents,
            leaf_parents,
            peerings,
        )
            .prop_map(
                |((n_core, n_mid, n_leaf), core_edges, mid_parents, leaf_parents, peerings)| {
                    RandomTopo {
                        n_core,
                        n_mid,
                        n_leaf,
                        core_edges,
                        mid_parents,
                        leaf_parents,
                        peerings,
                    }
                },
            )
    })
}

/// Beacon configurations that stress the round from different angles:
/// tiny retain windows force evictions, short round budgets stop with a
/// non-empty dirty set.
fn arb_config() -> impl Strategy<Value = BeaconConfig> {
    (1usize..6, 3usize..12, 2usize..12).prop_map(|(candidates, max_len, rounds)| BeaconConfig {
        candidates_per_origin: candidates,
        max_len,
        rounds,
        delta_propagation: false, // set per run below
    })
}

fn core_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 100 + i))
}
fn mid_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 200 + i))
}
fn leaf_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 300 + i))
}

/// Builds the graph; None when the random spec is degenerate.
fn build(t: &RandomTopo) -> Option<ControlGraph> {
    let mut g = ControlGraph::new();
    for i in 0..t.n_core {
        g.add_as(core_ia(i), true);
    }
    for i in 0..t.n_mid {
        g.add_as(mid_ia(i), false);
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
    for (m, parents) in t.mid_parents.iter().enumerate() {
        for &p in parents {
            g.connect(core_ia(p), mid_ia(m), LinkType::Child).ok()?;
        }
    }
    for (l, parents) in t.leaf_parents.iter().enumerate() {
        for &p in parents {
            g.connect(mid_ia(p % t.n_mid.max(1)), leaf_ia(l), LinkType::Child)
                .ok()?;
        }
    }
    let noncore = |i: usize| {
        if i < t.n_mid {
            mid_ia(i)
        } else {
            leaf_ia(i - t.n_mid)
        }
    };
    for &(a, b) in &t.peerings {
        let (x, y) = (
            noncore(a % (t.n_mid + t.n_leaf)),
            noncore(b % (t.n_mid + t.n_leaf)),
        );
        if x != y {
            g.connect(x, y, LinkType::Peer).ok()?;
        }
    }
    g.validate().ok()?;
    Some(g)
}

/// The observable outcome of one full beaconing run: registered segment
/// ids (sorted — registration order is not part of the contract), the
/// retained-slot digest (order *is* part of the contract), rounds to the
/// fixed point, and the beacon counters both walks share.
struct RunOutcome {
    segment_ids: Vec<[u8; 32]>,
    slots: Vec<(bool, IsdAsn, IsdAsn, Vec<[u8; 32]>)>,
    rounds: usize,
    counters: Vec<(String, u64)>,
}

/// Beacon counters both walks must agree on: what was originated, retained
/// and registered. The rest (`beacon.filtered`, `beacon.batch.*`) count
/// offers made, which is what the delta walk exists to reduce.
fn shared_beacon_counters(tele: &Telemetry) -> Vec<(String, u64)> {
    const SHARED: [&str; 3] = [
        "beacon.originated",
        "beacon.propagated",
        "beacon.segments_registered",
    ];
    tele.snapshot()
        .counters
        .into_iter()
        .filter(|(n, _)| SHARED.contains(&n.as_str()))
        .collect()
}

fn run_mode(graph: &ControlGraph, cfg: &BeaconConfig, delta: bool) -> RunOutcome {
    let tele = Telemetry::quiet();
    let mut engine = BeaconEngine::new(
        graph,
        1_700_000_000,
        BeaconConfig {
            delta_propagation: delta,
            ..*cfg
        },
    );
    engine.set_telemetry(tele.clone());
    let store = engine
        .run()
        .expect("beaconing converges on any valid graph");
    let mut segment_ids: Vec<[u8; 32]> = store.all_segments().map(|s| s.id()).collect();
    segment_ids.sort();
    RunOutcome {
        segment_ids,
        slots: engine.slot_digest(),
        rounds: engine.last_rounds(),
        counters: shared_beacon_counters(&tele),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_propagation_reaches_the_exhaustive_walks_state(
        topo in arb_topo(),
        cfg in arb_config(),
    ) {
        let Some(graph) = build(&topo) else {
            return Ok(()); // degenerate spec: nothing to check
        };
        let exhaustive = run_mode(&graph, &cfg, false);
        let delta = run_mode(&graph, &cfg, true);

        prop_assert_eq!(
            exhaustive.segment_ids,
            delta.segment_ids,
            "registered segments diverged"
        );
        prop_assert_eq!(exhaustive.slots, delta.slots, "retained slots diverged");
        prop_assert_eq!(exhaustive.rounds, delta.rounds, "convergence rounds diverged");
        prop_assert_eq!(exhaustive.counters, delta.counters, "beacon counter parity");
    }
}
