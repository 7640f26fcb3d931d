//! The SCIERA link inventory and control-graph construction.
//!
//! Links follow §3.2 and Fig. 1: the KREONET ring circumnavigating the
//! Northern Hemisphere, the four parallel Singapore–Amsterdam circuits
//! (KREONET, CAE-1, KAUST I & II), GEANT's transatlantic and Asian
//! reaches, RNP's VLANs to both GEANT and Internet2/BRIDGES, two VLANs to
//! WACREN@London, the "range of VLANs" to UVa, the two UFMS–RNP links and
//! the inter-ISD core link to the Swiss production network via SWITCH.

use serde::{Deserialize, Serialize};

use scion_control::fullpath::FullPath;
use scion_control::graph::{ControlGraph, LinkType};
use scion_proto::addr::{ia, IsdAsn};

use crate::ases::{all_ases, as_info};
use crate::geo::{self, fiber_latency_ms};

/// One physical/L2 link of the deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: IsdAsn,
    /// The other endpoint.
    pub b: IsdAsn,
    /// SCION link type as seen from `a`.
    pub link_type: LinkType,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
    /// Human label ("SG-AMS via KAUST I").
    pub label: String,
}

fn lat(a: IsdAsn, b: IsdAsn, indirectness: f64) -> f64 {
    let pa = as_info(a).expect("known AS").pop;
    let pb = as_info(b).expect("known AS").pop;
    fiber_latency_ms(pa, pb, indirectness)
}

fn core(a: &str, b: &str, indirectness: f64, label: &str) -> LinkSpec {
    // Core circuits are long-haul waves procured for the backbone; they
    // track the geodesic more closely than access circuits.
    let (a, b) = (ia(a), ia(b));
    LinkSpec {
        a,
        b,
        link_type: LinkType::Core,
        latency_ms: lat(a, b, (indirectness - 0.12).max(1.05)),
        label: label.into(),
    }
}

fn child(parent: &str, child_as: &str, indirectness: f64, label: &str) -> LinkSpec {
    let (a, b) = (ia(parent), ia(child_as));
    // Access circuits ride NREN infrastructure through intermediate PoPs
    // rather than the geodesic — systematically more indirect than core
    // circuits (and than commercial last miles), which is why §5.4 sees
    // RTT inflation on most pairs.
    LinkSpec {
        a,
        b,
        link_type: LinkType::Child,
        latency_ms: lat(a, b, indirectness + 0.55) + 1.2,
        label: label.into(),
    }
}

/// Per-AS data-plane cost in milliseconds (one way): border-router
/// processing plus the intra-AS IP-underlay crossing of §4.3.1.
pub const PER_AS_OVERHEAD_MS: f64 = 0.75;

/// The full link inventory (parallel circuits appear as separate entries).
pub fn link_inventory() -> Vec<LinkSpec> {
    let mut links = vec![
        // ---- Core mesh --------------------------------------------------
        core("71-20965", "71-2:0:35", 1.35, "GEANT-BRIDGES transatlantic"),
        // Second EU-US circuit; activated late January during the
        // measurement campaign ("several new links between EU and US
        // became available", Fig. 7).
        core("71-20965", "71-2:0:35", 1.5, "GEANT-BRIDGES via Paris"),
        core("71-20965", "71-2:0:3e", 1.4, "GEANT-KISTI Amsterdam"),
        core(
            "71-20965",
            "71-2:0:3d",
            1.35,
            "GEANT-KISTI Singapore (CAE-1 extension)",
        ),
        // RNP reaches Europe via the Lisbon and Madrid RedCLARA PoPs
        // (Table 1) and North America via Internet2/AtlanticWave in
        // Jacksonville.
        core("71-20965", "71-1916", 1.4, "GEANT-RNP via Lisbon"),
        core("71-20965", "71-1916", 1.48, "GEANT-RNP via Madrid"),
        core(
            "71-2:0:35",
            "71-1916",
            1.4,
            "BRIDGES-RNP (Internet2/AtlanticWave)",
        ),
        core("71-2:0:35", "71-1916", 1.5, "BRIDGES-RNP via Jacksonville"),
        core(
            "71-2:0:35",
            "71-2:0:3f",
            1.4,
            "BRIDGES-KISTI Chicago (Internet2)",
        ),
        // KREONET ring: Seattle - Chicago - Amsterdam - Singapore -
        // Hong Kong - Daejeon - Seattle.
        core("71-2:0:40", "71-2:0:3f", 1.4, "KISTI Seattle-Chicago"),
        core("71-2:0:3f", "71-2:0:3e", 1.35, "KISTI Chicago-Amsterdam"),
        core("71-2:0:3d", "71-2:0:3c", 1.3, "KISTI Singapore-Hong Kong"),
        core("71-2:0:3c", "71-2:0:3b", 1.3, "KISTI Hong Kong-Daejeon"),
        core(
            "71-2:0:3b",
            "71-2:0:40",
            1.35,
            "KISTI Daejeon-Seattle transpacific",
        ),
        // The direct Daejeon-Singapore circuit (the submarine cable cut of
        // §5.5 affected this link).
        core(
            "71-2:0:3b",
            "71-2:0:3d",
            1.3,
            "KISTI Daejeon-Singapore direct",
        ),
        // Inter-ISD core link to the commercial production network.
        core("71-20965", "64-559", 1.4, "GEANT-SWITCH (ISD 64)"),
        // ---- GEANT children --------------------------------------------
        child("71-20965", "71-559", 1.4, "GEANT-SWITCH (SCIERA AS)"),
        child("71-20965", "71-1140", 1.4, "GEANT-SIDN Labs"),
        child("71-20965", "71-2546", 1.4, "GEANT-Demokritos (GRNet)"),
        child("71-20965", "71-2:0:42", 1.4, "GEANT-OVGU"),
        child("71-20965", "71-2:0:49", 1.4, "GEANT-CybExer (EENet)"),
        child(
            "71-20965",
            "71-203311",
            1.4,
            "GEANT-CCDCoE (EENet, reused VLANs)",
        ),
        // ---- BRIDGES children -------------------------------------------
        child(
            "71-2:0:35",
            "71-88",
            1.4,
            "BRIDGES-Princeton (4-party VLAN)",
        ),
        child("71-2:0:35", "71-398900", 1.2, "BRIDGES-FABRIC"),
        child(
            "71-2:0:35",
            "71-2:0:48",
            1.1,
            "BRIDGES-Equinix cross-connect A",
        ),
        child(
            "71-2:0:35",
            "71-2:0:48",
            1.2,
            "BRIDGES-Equinix cross-connect B",
        ),
        // ---- KREONET children -------------------------------------------
        child(
            "71-2:0:3b",
            "71-2:0:4d",
            1.4,
            "KISTI Daejeon-Korea University",
        ),
        child("71-2:0:3c", "71-4158", 1.2, "KISTI HK-CityU (HARNET)"),
        child(
            "71-2:0:3d",
            "71-2:0:18",
            1.2,
            "KISTI SG-SEC (VXLAN over SingAREN)",
        ),
        child(
            "71-2:0:3d",
            "71-2:0:61",
            1.2,
            "KISTI SG-NUS (SingAREN Open Exchange)",
        ),
        // App. B recommends at least two physical links per customer AS.
        child(
            "71-2:0:3d",
            "71-2:0:4a",
            1.2,
            "KISTI SG-measurement AS link 1",
        ),
        child(
            "71-2:0:3d",
            "71-2:0:4a",
            1.3,
            "KISTI SG-measurement AS link 2",
        ),
        child("71-2:0:3d", "71-50999", 1.35, "KISTI SG-KAUST"),
        child("71-2:0:3e", "71-50999", 1.35, "KISTI AMS-KAUST"),
        // ---- ISD 64 -----------------------------------------------------
        child("64-559", "64-2:0:9", 1.2, "SWITCH-ETH Zurich"),
    ];
    // Parallel circuits.
    // Four distinct SG-AMS circuits (§3.2): the ring already provides the
    // KREONET one indirectly via Chicago; the direct circuits:
    links.push(core("71-2:0:3d", "71-2:0:3e", 1.3, "SG-AMS via KREONET"));
    links.push(core("71-2:0:3d", "71-2:0:3e", 1.45, "SG-AMS via CAE-1"));
    for (i, label) in ["SG-AMS via KAUST I", "SG-AMS via KAUST II"]
        .iter()
        .enumerate()
    {
        // KAUST circuits detour via Jeddah.
        let via = fiber_latency_ms(geo::SINGAPORE, geo::JEDDAH, 1.3)
            + fiber_latency_ms(geo::JEDDAH, geo::AMSTERDAM, 1.3)
            + i as f64 * 1.5;
        links.push(LinkSpec {
            a: ia("71-2:0:3d"),
            b: ia("71-2:0:3e"),
            link_type: LinkType::Core,
            latency_ms: via,
            label: (*label).into(),
        });
    }
    // Two VLANs to WACREN@London.
    for i in 0..2 {
        links.push(LinkSpec {
            a: ia("71-20965"),
            b: ia("71-37288"),
            link_type: LinkType::Child,
            latency_ms: lat(ia("71-20965"), ia("71-37288"), 1.4) + i as f64 * 0.8,
            label: format!("GEANT-WACREN VLAN {}", i + 1),
        });
    }
    // A "range of VLANs" between BRIDGES and UVa (App. C): model three.
    for i in 0..3 {
        links.push(LinkSpec {
            a: ia("71-2:0:35"),
            b: ia("71-225"),
            link_type: LinkType::Child,
            latency_ms: lat(ia("71-2:0:35"), ia("71-225"), 1.3) + i as f64 * 0.4,
            label: format!("BRIDGES-UVa VLAN {}", i + 1),
        });
    }
    // Two disjoint RNP PoP paths to UFMS (§3.2 South America).
    for i in 0..2 {
        links.push(LinkSpec {
            a: ia("71-1916"),
            b: ia("71-2:0:5c"),
            link_type: LinkType::Child,
            latency_ms: lat(ia("71-1916"), ia("71-2:0:5c"), 1.4 + i as f64 * 0.3),
            label: format!("RNP-UFMS path {}", i + 1),
        });
    }
    links
}

/// A link as realised in the control graph, with its interface IDs.
#[derive(Debug, Clone)]
pub struct BuiltLink {
    /// The specification.
    pub spec: LinkSpec,
    /// Interface ID at `spec.a`.
    pub ifid_a: u16,
    /// Interface ID at `spec.b`.
    pub ifid_b: u16,
}

impl BuiltLink {
    /// Both `(AS, interface)` ends of the link, `spec.a`'s first.
    pub fn ends(&self) -> [(IsdAsn, u16); 2] {
        [(self.spec.a, self.ifid_a), (self.spec.b, self.ifid_b)]
    }
}

/// The realised topology: control graph plus interface-to-link mapping.
///
/// Build one with [`BuiltTopology::new`]. Which ASes and interfaces a link
/// joins is fixed from then on — the node table is derived from it once —
/// while a link's latency and label may be rewritten in place.
pub struct BuiltTopology {
    /// The control graph (input to beaconing).
    pub graph: ControlGraph,
    /// All links with assigned interface IDs.
    pub links: Vec<BuiltLink>,
    nodes: NodeTable,
}

/// What lies across one interface of a node: the link attached there and
/// where it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index of the link in [`BuiltTopology::links`].
    pub link: usize,
    /// Node number of the AS at the far end.
    pub node: usize,
    /// The interface the link enters that AS through.
    pub ifid: u16,
}

/// The ASes numbered densely in ascending order, and per AS one table of
/// what each interface leads to, indexed by interface ID.
/// `ControlGraph::connect` hands out interface IDs densely from 1, so the
/// tables have no holes beyond slot 0 and the whole table is a few bytes
/// per interface.
struct NodeTable {
    /// Every AS (as `IsdAsn::to_u64`, ascending: position = node number)
    /// and the start and end of its table in `slots`.
    tables: Vec<(u64, u32, u32)>,
    slots: Vec<Slot>,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Link index plus one; 0 marks an interface no link is attached at.
    link: u32,
    far_node: u32,
    far_ifid: u16,
}

impl NodeTable {
    fn build(graph: &ControlGraph, links: &[BuiltLink]) -> Self {
        // Every AS of the graph is a node, linked or not.
        let mut ases: Vec<u64> = graph.ases().map(|n| n.ia.to_u64()).collect();
        ases.sort_unstable();
        let node_of = |ia: IsdAsn| {
            ases.binary_search(&ia.to_u64())
                .expect("links join ASes of the graph, as `ControlGraph::connect` requires")
        };
        // One slot per interface, up to the highest a link attaches at.
        let mut sizes = vec![0u32; ases.len()];
        for (ia, ifid) in links.iter().flat_map(BuiltLink::ends) {
            let size = &mut sizes[node_of(ia)];
            *size = (*size).max(u32::from(ifid) + 1);
        }
        let mut tables = Vec::with_capacity(ases.len());
        let mut end = 0u32;
        for (&ia, size) in ases.iter().zip(sizes) {
            tables.push((ia, end, end + size));
            end += size;
        }
        let mut slots = vec![Slot::default(); end as usize];
        // Last link first, so the lowest wins a doubly-claimed interface.
        for (i, l) in links.iter().enumerate().rev() {
            let [a, b] = l.ends();
            for ((ia, ifid), (far, far_ifid)) in [(a, b), (b, a)] {
                let (_, start, _) = tables[node_of(ia)];
                slots[start as usize + ifid as usize] = Slot {
                    link: i as u32 + 1,
                    far_node: node_of(far) as u32,
                    far_ifid,
                };
            }
        }
        NodeTable { tables, slots }
    }
}

impl BuiltTopology {
    /// Wraps a validated graph and its links, numbering the graph's ASes
    /// and indexing the links by the interfaces they attach at. Panics if a
    /// link names an AS the graph does not have.
    pub fn new(graph: ControlGraph, links: Vec<BuiltLink>) -> Self {
        let nodes = NodeTable::build(&graph, &links);
        BuiltTopology {
            graph,
            links,
            nodes,
        }
    }

    /// The ASes in node order: the `n`-th is node `n`. Ascending, and
    /// fixed for the topology's life.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = IsdAsn> + '_ {
        self.nodes
            .tables
            .iter()
            .map(|&(ia, _, _)| IsdAsn::from_u64(ia))
    }

    /// Node number of `ia`: the one search a walk needs, after which
    /// [`BuiltTopology::step`] carries it from node to node. A node number
    /// means something only to the topology that gave it.
    pub fn node_of(&self, ia: IsdAsn) -> Option<usize> {
        let tables = &self.nodes.tables;
        tables
            .binary_search_by_key(&ia.to_u64(), |&(ia, _, _)| ia)
            .ok()
    }

    /// What lies across interface `ifid` of `node`, found without a search.
    /// `None` for interface 0, an interface no link is attached at, and a
    /// number that is not a node's.
    pub fn step(&self, node: usize, ifid: u16) -> Option<Step> {
        let &(_, start, end) = self.nodes.tables.get(node)?;
        let slot = self.nodes.slots[start as usize..end as usize].get(ifid as usize)?;
        (ifid != 0 && slot.link != 0).then(|| Step {
            link: slot.link as usize - 1,
            node: slot.far_node as usize,
            ifid: slot.far_ifid,
        })
    }

    /// Index of the link attached at `(ia, ifid)`.
    pub fn link_index_of(&self, ia: IsdAsn, ifid: u16) -> Option<usize> {
        Some(self.step(self.node_of(ia)?, ifid)?.link)
    }

    /// One-way latency of the link attached at `(ia, ifid)`.
    pub fn latency_of(&self, ia: IsdAsn, ifid: u16) -> Option<f64> {
        self.link_index_of(ia, ifid)
            .map(|i| self.links[i].spec.latency_ms)
    }

    /// Round-trip time along a combined path, in milliseconds: the sum of
    /// the one-way latencies of every crossed link (taken at each hop's
    /// egress), both directions, plus a small per-AS processing cost.
    ///
    /// `link_down` lets callers exclude links (fault injection); returns
    /// `None` if the path crosses a downed or unknown link.
    pub fn path_rtt_ms(&self, path: &FullPath, link_down: &dyn Fn(usize) -> bool) -> Option<f64> {
        let mut one_way = 0.0;
        for h in &path.hops {
            if h.egress != 0 {
                let idx = self.link_index_of(h.ia, h.egress)?;
                if link_down(idx) {
                    return None;
                }
                one_way += self.links[idx].spec.latency_ms;
            }
        }
        // Per-AS cost: border-router processing plus the intra-AS IP
        // underlay crossing of §4.3.1 (SCION packets traverse AS-internal
        // IP segments between border routers and services).
        Some(2.0 * (one_way + path.hops.len() as f64 * PER_AS_OVERHEAD_MS))
    }

    /// Whether every link on `path` is up.
    pub fn path_alive(&self, path: &FullPath, link_down: &dyn Fn(usize) -> bool) -> bool {
        self.path_rtt_ms(path, link_down).is_some()
    }
}

/// Builds the control graph for the whole deployment.
pub fn build_control_graph() -> BuiltTopology {
    let mut graph = ControlGraph::new();
    for a in all_ases() {
        graph.add_as(a.ia, a.core);
    }
    let mut links = Vec::new();
    for spec in link_inventory() {
        let (ifid_a, ifid_b) = graph
            .connect(spec.a, spec.b, spec.link_type)
            .expect("inventory references known ASes");
        links.push(BuiltLink {
            spec,
            ifid_a,
            ifid_b,
        });
    }
    graph
        .validate()
        .expect("SCIERA topology is structurally valid");
    BuiltTopology::new(graph, links)
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use crate::synth::{synthesize, SynthConfig};
    use proptest::prelude::*;

    /// The scan the index replaced, kept as its oracle.
    fn scan(topo: &BuiltTopology, ia: IsdAsn, ifid: u16) -> Option<usize> {
        topo.links.iter().position(|l| {
            (l.spec.a == ia && l.ifid_a == ifid) || (l.spec.b == ia && l.ifid_b == ifid)
        })
    }

    fn assert_index_matches_scan(topo: &BuiltTopology) {
        // Every AS of the graph is a node, in ascending order, linked or not.
        let nodes: Vec<IsdAsn> = topo.nodes().collect();
        let mut ases: Vec<IsdAsn> = topo.graph.ases().map(|n| n.ia).collect();
        ases.sort_unstable();
        assert_eq!(nodes, ases);
        for (n, &ia) in nodes.iter().enumerate() {
            assert_eq!(topo.node_of(ia), Some(n));
        }
        for (i, l) in topo.links.iter().enumerate() {
            let [a, b] = l.ends();
            for ((ia, ifid), (far, far_ifid)) in [(a, b), (b, a)] {
                let node = topo.node_of(ia).unwrap();
                let want = Step {
                    link: i,
                    node: topo.node_of(far).unwrap(),
                    ifid: far_ifid,
                };
                assert_eq!(topo.step(node, ifid), Some(want));
                assert_eq!(topo.link_index_of(ia, ifid), Some(i));
                assert_eq!(topo.link_index_of(ia, ifid), scan(topo, ia, ifid));
                assert_eq!(topo.step(node, 0), None, "{ia} has no interface 0");
                assert_eq!(topo.link_index_of(ia, 0), None);
            }
        }
        for node in topo.graph.ases() {
            // Dense interface IDs: the first unassigned one, and far past it.
            let next = node.interfaces.len() as u16 + 1;
            let n = topo.node_of(node.ia).unwrap();
            for ifid in [next, next + 1, u16::MAX] {
                assert_eq!(scan(topo, node.ia, ifid), None);
                assert_eq!(topo.step(n, ifid), None);
                assert_eq!(topo.link_index_of(node.ia, ifid), None);
            }
        }
        // ASes the topology does not contain, sorting before and after it,
        // and numbers that are no node's.
        for stranger in [IsdAsn::from_u64(0), IsdAsn::from_u64(u64::MAX)] {
            assert_eq!(topo.node_of(stranger), None);
            for ifid in [0, 1, u16::MAX] {
                assert_eq!(topo.link_index_of(stranger, ifid), None);
            }
        }
        for no_node in [nodes.len(), usize::MAX] {
            assert_eq!(topo.step(no_node, 1), None);
        }
    }

    #[test]
    fn index_matches_scan_on_the_sciera_topology() {
        assert_index_matches_scan(&build_control_graph());
    }

    #[test]
    fn an_empty_topology_has_no_links_to_find() {
        let topo = BuiltTopology::new(ControlGraph::new(), Vec::new());
        assert_eq!(topo.nodes().len(), 0);
        assert_eq!(topo.node_of(ia("71-20965")), None);
        assert_eq!(topo.step(0, 1), None);
        assert_eq!(topo.link_index_of(ia("71-20965"), 1), None);
    }

    /// An AS nothing is connected to is a node all the same, and an
    /// interface two links claim resolves — for `step` as for
    /// `link_index_of` and the scan — to the first of them.
    #[test]
    fn linkless_ases_and_doubly_claimed_interfaces() {
        let mut graph = ControlGraph::new();
        let (hub, left, right, alone) = (ia("71-1"), ia("71-2"), ia("71-3"), ia("71-9"));
        for a in [hub, left, right] {
            graph.add_as(a, true);
        }
        graph.add_as(alone, false);
        let link = |a, b, ifid_a, ifid_b| BuiltLink {
            spec: LinkSpec {
                a,
                b,
                link_type: LinkType::Core,
                latency_ms: 1.0,
                label: String::new(),
            },
            ifid_a,
            ifid_b,
        };
        // Both links claim interface 1 of the hub.
        let links = vec![link(hub, left, 1, 4), link(right, hub, 2, 1)];
        let topo = BuiltTopology::new(graph, links);
        let node = |a| topo.node_of(a).unwrap();
        assert_eq!(topo.nodes().collect::<Vec<_>>(), [hub, left, right, alone]);
        assert_eq!(topo.step(node(alone), 1), None);

        let first = Step {
            link: 0,
            node: node(left),
            ifid: 4,
        };
        assert_eq!(topo.step(node(hub), 1), Some(first));
        assert_eq!(topo.link_index_of(hub, 1), scan(&topo, hub, 1));
        assert_eq!(topo.link_index_of(hub, 1), Some(0));
        // The losing link is still found from its other end, and leads back
        // to the hub.
        let back = Step {
            link: 1,
            node: node(hub),
            ifid: 1,
        };
        assert_eq!(topo.step(node(right), 2), Some(back));
        // Interfaces 1..=3 of `left` exist in its table and lead nowhere.
        for ifid in 1..=3 {
            assert_eq!(topo.step(node(left), ifid), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn index_matches_scan_on_synthetic_topologies(n in 12usize..400, seed in any::<u64>()) {
            let topo = synthesize(&SynthConfig { seed, ..SynthConfig::sized(n) });
            assert_index_matches_scan(&topo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_control::beacon::{BeaconConfig, BeaconEngine};
    use scion_control::combine::combine_paths;

    #[test]
    fn inventory_is_valid_topology() {
        let built = build_control_graph();
        assert!(built.graph.as_count() >= 28);
        assert!(built.graph.link_count() >= 35);
    }

    #[test]
    fn four_parallel_sg_ams_circuits() {
        let inv = link_inventory();
        let sg_ams = inv
            .iter()
            .filter(|l| {
                (l.a == ia("71-2:0:3d") && l.b == ia("71-2:0:3e"))
                    || (l.a == ia("71-2:0:3e") && l.b == ia("71-2:0:3d"))
            })
            .count();
        assert_eq!(sg_ams, 4, "§3.2: four distinct SG-AMS paths");
    }

    #[test]
    fn latencies_reflect_geography() {
        let built = build_control_graph();
        let find = |label: &str| {
            built
                .links
                .iter()
                .find(|l| l.spec.label == label)
                .unwrap_or_else(|| panic!("no link {label}"))
                .spec
                .latency_ms
        };
        let regional = find("GEANT-KISTI Amsterdam");
        let transatlantic = find("GEANT-BRIDGES transatlantic");
        let transpacific = find("KISTI Daejeon-Seattle transpacific");
        assert!(regional < 5.0, "regional {regional} ms");
        assert!(
            transatlantic > 25.0 && transatlantic < 60.0,
            "transatlantic {transatlantic} ms"
        );
        assert!(transpacific > 40.0, "transpacific {transpacific} ms");
        // The KAUST detour circuits are slower than the direct ones.
        assert!(find("SG-AMS via KAUST I") > find("SG-AMS via KREONET"));
    }

    #[test]
    fn beaconing_connects_the_world() {
        let built = build_control_graph();
        let store = BeaconEngine::new(&built.graph, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap();
        // Every Fig. 8 vantage pair has at least 2 paths (the paper's
        // minimum observation).
        let vantages = crate::ases::fig8_vantages();
        for &s in &vantages {
            for &d in &vantages {
                if s == d {
                    continue;
                }
                let paths = combine_paths(&store, s, d, 300);
                assert!(paths.len() >= 2, "{s}->{d}: only {} paths", paths.len());
            }
        }
    }

    #[test]
    fn uva_ufms_has_rich_path_choice() {
        // The Fig. 8 extreme: >100 active paths between UVa and UFMS.
        let built = build_control_graph();
        let config = BeaconConfig {
            candidates_per_origin: 32,
            ..Default::default()
        };
        let store = BeaconEngine::new(&built.graph, 1_700_000_000, config)
            .run()
            .unwrap();
        let paths = combine_paths(&store, ia("71-225"), ia("71-2:0:5c"), 500);
        assert!(paths.len() > 100, "UVa->UFMS: {} paths", paths.len());
    }

    #[test]
    fn path_rtt_computation() {
        let built = build_control_graph();
        let store = BeaconEngine::new(&built.graph, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap();
        let paths = combine_paths(&store, ia("71-2:0:42"), ia("71-1140"), 50);
        assert!(!paths.is_empty());
        let up = |_: usize| false;
        let rtt = built.path_rtt_ms(&paths[0], &up).unwrap();
        // OVGU -> GEANT(FRA) -> SIDN(Delft): a few ms each way.
        assert!(rtt > 1.0 && rtt < 40.0, "intra-EU rtt {rtt} ms");
        // Downing every link kills the path.
        let down = |_: usize| true;
        assert!(built.path_rtt_ms(&paths[0], &down).is_none());
        assert!(!built.path_alive(&paths[0], &down));
    }

    #[test]
    fn link_index_lookup_consistent() {
        let built = build_control_graph();
        for (i, l) in built.links.iter().enumerate() {
            assert_eq!(built.link_index_of(l.spec.a, l.ifid_a), Some(i));
            assert_eq!(built.link_index_of(l.spec.b, l.ifid_b), Some(i));
            assert_eq!(
                built.latency_of(l.spec.a, l.ifid_a),
                Some(l.spec.latency_ms)
            );
        }
    }
}

/// Average grid carbon intensity by longitude band, gCO₂eq/kWh — coarse
/// public figures (EU ~250, US ~380, Middle East ~550, Asia ~480,
/// Brazil ~100 thanks to hydro, West Africa ~450). Used for the §4.7
/// "green paths based on energy or carbon metrics".
fn grid_carbon_g_per_kwh(pop: crate::geo::Pop) -> f64 {
    if pop.lon < -30.0 {
        if pop.lat < 10.0 {
            100.0 // Brazil: hydro-heavy
        } else {
            380.0 // North America
        }
    } else if pop.lon < 35.0 {
        if pop.lat > 35.0 {
            250.0 // Europe
        } else {
            450.0 // West Africa
        }
    } else if pop.lon < 60.0 {
        550.0 // Middle East
    } else {
        480.0 // East/South-East Asia
    }
}

/// Transport energy per traffic volume and distance, kWh/(GB·1000 km) —
/// long-haul optical transport plus amplifier/regeneration sites.
const KWH_PER_GB_PER_1000KM: f64 = 0.02;
/// Fixed per-AS handling energy (routers, switching fabric), kWh/GB.
const KWH_PER_GB_PER_AS: f64 = 0.004;

impl BuiltTopology {
    /// Estimated carbon intensity of carrying one GB over `path`,
    /// gCO₂eq/GB: per-link transport energy priced at the mean of the two
    /// endpoints' grid intensities, plus per-AS handling energy priced at
    /// the hop's local grid.
    pub fn carbon_g_per_gb(&self, path: &FullPath) -> Option<f64> {
        let mut total = 0.0f64;
        for h in &path.hops {
            let local = as_info(h.ia)?.pop;
            total += KWH_PER_GB_PER_AS * grid_carbon_g_per_kwh(local);
            if h.egress != 0 {
                let idx = self.link_index_of(h.ia, h.egress)?;
                let l = &self.links[idx];
                let pa = as_info(l.spec.a)?.pop;
                let pb = as_info(l.spec.b)?.pop;
                let km = crate::geo::great_circle_km(pa, pb);
                let grid = (grid_carbon_g_per_kwh(pa) + grid_carbon_g_per_kwh(pb)) / 2.0;
                total += KWH_PER_GB_PER_1000KM * km / 1000.0 * grid;
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod carbon_tests {
    use super::*;
    use scion_control::beacon::{BeaconConfig, BeaconEngine};
    use scion_control::combine::combine_paths;

    #[test]
    fn longer_paths_emit_more() {
        let built = build_control_graph();
        let store = BeaconEngine::new(&built.graph, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap();
        let paths = combine_paths(&store, ia("71-2:0:42"), ia("71-2:0:3b"), 50);
        assert!(paths.len() >= 2);
        let carbons: Vec<f64> = paths
            .iter()
            .map(|p| built.carbon_g_per_gb(p).unwrap())
            .collect();
        // All positive, and not all identical (there is something to
        // optimise).
        assert!(carbons.iter().all(|&c| c > 0.0));
        let min = carbons.iter().cloned().fold(f64::MAX, f64::min);
        let max = carbons.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min * 1.05, "carbon spread {min}..{max}");
    }

    #[test]
    fn hydro_powered_brazil_route_beats_middle_east_detour() {
        let built = build_control_graph();
        let store = BeaconEngine::new(
            &built.graph,
            1_700_000_000,
            BeaconConfig {
                candidates_per_origin: 16,
                ..Default::default()
            },
        )
        .run()
        .unwrap();
        // EU -> Singapore: routes exist via the Jeddah (KAUST) circuits
        // and via other circuits; the green metric must separate them.
        let paths = combine_paths(&store, ia("71-20965"), ia("71-2:0:3d"), 100);
        let via_jeddah: Vec<f64> = paths
            .iter()
            .filter(|p| {
                p.hops.iter().any(|h| {
                    h.egress != 0
                        && built
                            .link_index_of(h.ia, h.egress)
                            .map(|i| built.links[i].spec.label.contains("KAUST"))
                            .unwrap_or(false)
                })
            })
            .filter_map(|p| built.carbon_g_per_gb(p))
            .collect();
        let not_jeddah: Vec<f64> = paths
            .iter()
            .filter(|p| {
                !p.hops.iter().any(|h| {
                    h.egress != 0
                        && built
                            .link_index_of(h.ia, h.egress)
                            .map(|i| built.links[i].spec.label.contains("KAUST"))
                            .unwrap_or(false)
                })
            })
            .filter_map(|p| built.carbon_g_per_gb(p))
            .collect();
        assert!(!via_jeddah.is_empty() && !not_jeddah.is_empty());
        let min_j = via_jeddah.iter().cloned().fold(f64::MAX, f64::min);
        let min_n = not_jeddah.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            min_n < min_j,
            "greenest non-Jeddah route ({min_n:.1}) should undercut the Jeddah detour ({min_j:.1})"
        );
    }
}
