//! Property tests over *random* SCION topologies: for any valid AS graph,
//! beaconing must converge, every combined path must satisfy the structural
//! invariants, and every combined path must forward through MAC-verifying
//! routers along exactly its declared AS sequence. This is the control
//! plane's strongest correctness net — it is not tied to the SCIERA
//! deployment shape.

mod common;

use proptest::prelude::*;

use common::{arb_topo, build, core_ia, leaf_ia};
use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::control::combine::combine_paths;
use sciera::control::graph::ControlGraph;
use sciera::control::segment::AsSecrets;
use sciera::dataplane::router::{BorderRouter, FrameDecision};
use sciera::prelude::*;
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};

/// Walks a packet's frame along its path through per-AS routers built from
/// the beacon engine's secrets; returns the AS route taken.
fn walk(
    graph: &ControlGraph,
    secrets: &std::collections::BTreeMap<IsdAsn, std::sync::Arc<AsSecrets>>,
    pkt: ScionPacket,
) -> Result<Vec<IsdAsn>, String> {
    let mut current = pkt.src.ia;
    let mut ingress = 0u16;
    let mut route = vec![current];
    let mut frame = pkt.encode().map_err(|e| e.to_string())?;
    for _ in 0..64 {
        let sec = secrets
            .get(&current)
            .ok_or_else(|| format!("no secrets for {current}"))?;
        let mut router = BorderRouter::new(current, sec.hop_key.clone());
        match router
            .process_frame(&mut frame, ingress, 1_700_000_100)
            .map_err(|e| format!("{current}: {e:?}"))?
        {
            FrameDecision::Deliver => return Ok(route),
            FrameDecision::Forward { ifid } => {
                let (next, next_if) = graph
                    .neighbor_of(current, ifid)
                    .ok_or_else(|| format!("{current} has no interface {ifid}"))?;
                route.push(next);
                current = next;
                ingress = next_if;
            }
        }
    }
    Err("hop budget exceeded".into())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn beacon_combine_forward_on_random_graphs(topo in arb_topo(|n| n - 1), src_pick: u8, dst_pick: u8) {
        let Some(graph) = build(&topo) else {
            return Ok(()); // degenerate spec: nothing to check
        };
        let mut engine = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig::default());
        let store = engine.run().expect("beaconing converges on any valid graph");
        let secrets = engine.secrets().clone();

        // Every registered segment verifies.
        let keys = |ia: IsdAsn| secrets.get(&ia).map(|s| s.signing.verifying_key());
        let hops = |ia: IsdAsn| secrets.get(&ia).map(|s| s.hop_key.clone());
        for seg in store.all_segments() {
            seg.verify(&keys, &hops).expect("registered segment verifies");
        }

        // Pick a random ordered pair of ASes and check all combined paths.
        let all: Vec<IsdAsn> = graph.ases().map(|a| a.ia).collect();
        let s = all[src_pick as usize % all.len()];
        let d = all[dst_pick as usize % all.len()];
        prop_assume!(s != d);
        let paths = combine_paths(&store, s, d, 64);
        for p in &paths {
            // Structural invariants.
            prop_assert_eq!(p.hops.first().unwrap().ia, s);
            prop_assert_eq!(p.hops.last().unwrap().ia, d);
            let mut ases = p.ases();
            let n = ases.len();
            ases.sort();
            ases.dedup();
            prop_assert_eq!(ases.len(), n, "loop in combined path");

            // Data-plane check: the packet follows the declared route.
            let pkt = ScionPacket::new(
                ScionAddr::new(s, HostAddr::v4(10, 0, 0, 1)),
                ScionAddr::new(d, HostAddr::v4(10, 0, 0, 2)),
                L4Protocol::Udp,
                DataPlanePath::Scion(p.to_dataplane().expect("assembles")),
                b"prop".to_vec(),
            );
            let route = walk(&graph, &secrets, pkt)
                .map_err(|e| TestCaseError::fail(format!("walk failed: {e}")))?;
            prop_assert_eq!(route, p.ases());
        }
    }

    #[test]
    fn connected_noncore_pairs_get_paths(topo in arb_topo(|n| n - 1)) {
        let Some(graph) = build(&topo) else { return Ok(()) };
        let store = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap();
        // Every leaf can reach every core (the graph is connected by
        // construction: core ring + every non-core has a parent chain).
        for l in 0..topo.n_leaf {
            for c in 0..topo.n_core {
                let paths = combine_paths(&store, leaf_ia(l), core_ia(c), 32);
                prop_assert!(
                    !paths.is_empty(),
                    "leaf {} cannot reach core {}",
                    leaf_ia(l),
                    core_ia(c)
                );
            }
        }
    }
}
