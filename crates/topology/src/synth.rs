//! Parameterized synthetic topology generation for the scale observatory.
//!
//! The fixed SCIERA inventory ([`crate::links`]) tops out at a few dozen
//! ASes — enough to reproduce the paper's figures, far too small to ask
//! *where the implementation melts first* as the network grows. This
//! module grows structurally similar topologies to any size:
//!
//! * A configurable number of **ISDs**, each with a small core (the
//!   NREN-backbone analogue) meshed by preferential attachment, so core
//!   degree is skewed the way real transit cores are.
//! * An **inter-ISD core ring plus random chords**, mirroring how the
//!   SCIERA ISD reaches the production ISD over a handful of core links.
//! * Non-core ASes attached **preferentially** (Barabási–Albert style) to
//!   existing intra-ISD nodes over parent–child links, producing the
//!   heavy-tailed customer-cone distribution of the real Internet while
//!   staying a DAG (new ASes only attach to older ones).
//! * A **depth cap** on the customer hierarchy so up-segment length — and
//!   with it beacon size and combination cost — stays bounded as N grows,
//!   like real SCION deployments (ISSUE: provider chains rarely exceed
//!   five or six ASes).
//! * Intra-ISD **peering sprinkles** between non-core ASes, exercising the
//!   shortcut/peering machinery of the combiner at scale.
//!
//! Latencies come from the same fiber model as the real inventory: every
//! ISD gets a synthetic geographic center, every AS a PoP scattered around
//! it, and link latency follows the great-circle distance through fiber.
//! Generation is fully deterministic in the seed (SplitMix64), so a sweep
//! at N = 5000 is reproducible bit-for-bit.

use scion_control::graph::{ControlGraph, LinkType};
use scion_proto::addr::{Asn, IsdAsn};

use crate::geo::{fiber_latency_ms, Pop};
use crate::links::{BuiltLink, BuiltTopology, LinkSpec};

/// Parameters of the synthetic topology generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Total number of ASes across all ISDs (minimum: one core per ISD).
    pub n_ases: usize,
    /// Number of isolation domains.
    pub n_isds: usize,
    /// Core ASes per ISD (the per-ISD backbone).
    pub cores_per_isd: usize,
    /// Barabási–Albert attachment parameter: parent links each new
    /// non-core AS tries to establish (clamped to what exists).
    pub ba_m: usize,
    /// Fraction of ASes that get one extra intra-ISD peering link.
    pub peer_fraction: f64,
    /// Maximum depth of the customer hierarchy below the core (a node at
    /// `max_depth` accepts no children). Bounds up-segment length.
    pub max_depth: usize,
    /// PRNG seed; equal seeds yield identical topologies.
    pub seed: u64,
}

impl SynthConfig {
    /// A preset scaled for `n` ASes: more ISDs and cores as the network
    /// grows, attachment and peering parameters held constant so the
    /// degree distribution stays comparable across sweep points.
    pub fn sized(n: usize) -> SynthConfig {
        let n_isds = match n {
            0..=199 => 2,
            200..=599 => 3,
            600..=1499 => 4,
            _ => 5,
        };
        SynthConfig {
            n_ases: n,
            n_isds,
            cores_per_isd: if n < 600 { 3 } else { 4 },
            ba_m: 2,
            peer_fraction: 0.05,
            max_depth: 5,
            seed: 0x5C1E_12A0 ^ n as u64,
        }
    }
}

/// SplitMix64: tiny, fast, full-period deterministic PRNG. The vendored
/// `rand` stand-in is not a dependency of this crate; the generator only
/// needs reproducible uniform draws, which SplitMix64 provides in ten
/// lines.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct SynthNode {
    ia: IsdAsn,
    core: bool,
    depth: usize,
    pop: Pop,
}

/// Builds a synthetic topology per `cfg`. The returned [`BuiltTopology`]
/// is interchangeable with [`crate::links::build_control_graph`]'s: a
/// validated [`ControlGraph`] plus the link inventory with assigned
/// interface IDs, ready for beaconing and data-plane simulation.
///
/// Panics if `cfg` is degenerate (zero ISDs or zero cores per ISD).
pub fn synthesize(cfg: &SynthConfig) -> BuiltTopology {
    assert!(cfg.n_isds > 0 && cfg.cores_per_isd > 0, "degenerate config");
    let mut rng = SplitMix64::new(cfg.seed);
    let n = cfg.n_ases.max(cfg.n_isds * cfg.cores_per_isd);

    // ---- Nodes: round-robin ISD assignment, cores first per ISD -------
    // Each ISD gets a geographic center; member PoPs scatter around it so
    // intra-ISD links are short and inter-ISD core links are long-haul,
    // like the real deployment.
    let centers: Vec<(f64, f64)> = (0..cfg.n_isds)
        .map(|_| (rng.f64() * 110.0 - 50.0, rng.f64() * 360.0 - 180.0))
        .collect();
    let mut nodes: Vec<SynthNode> = Vec::with_capacity(n);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_isds];
    for i in 0..n {
        let isd_block = i % cfg.n_isds;
        let rank = i / cfg.n_isds; // position within its ISD
        let (clat, clon) = centers[isd_block];
        let pop = Pop {
            city: "synthetic",
            lat: (clat + rng.f64() * 16.0 - 8.0).clamp(-80.0, 80.0),
            lon: clon + rng.f64() * 16.0 - 8.0,
        };
        let ia = IsdAsn::new(
            10 + isd_block as u16,
            Asn::new(0x2_0001_0000 + i as u64).expect("synthetic ASN in range"),
        );
        members[isd_block].push(nodes.len());
        nodes.push(SynthNode {
            ia,
            core: rank < cfg.cores_per_isd,
            depth: 0,
            pop,
        });
    }

    let mut graph = ControlGraph::new();
    for node in &nodes {
        graph.add_as(node.ia, node.core);
    }

    let mut specs: Vec<LinkSpec> = Vec::new();
    fn link(
        nodes: &[SynthNode],
        specs: &mut Vec<LinkSpec>,
        a: usize,
        b: usize,
        lt: LinkType,
        label: String,
    ) {
        let ind = if lt == LinkType::Core { 1.25 } else { 1.6 };
        specs.push(LinkSpec {
            a: nodes[a].ia,
            b: nodes[b].ia,
            link_type: lt,
            latency_ms: fiber_latency_ms(nodes[a].pop, nodes[b].pop, ind),
            label,
        });
    }

    // ---- Per-ISD core mesh (preferential attachment over cores) -------
    // `targets` repeats a node once per incident core link, so drawing
    // uniformly from it is degree-proportional — the BA trick.
    for (isd, isd_members) in members.iter().enumerate().take(cfg.n_isds) {
        let cores: Vec<usize> = isd_members
            .iter()
            .copied()
            .filter(|&i| nodes[i].core)
            .collect();
        let mut targets: Vec<usize> = vec![cores[0]];
        for (k, &c) in cores.iter().enumerate().skip(1) {
            let want = k.min(cfg.ba_m.max(1));
            let mut picked: Vec<usize> = Vec::new();
            let mut tries = 0;
            while picked.len() < want && tries < 32 {
                tries += 1;
                let t = targets[rng.below(targets.len())];
                if t != c && !picked.contains(&t) {
                    picked.push(t);
                }
            }
            if picked.is_empty() {
                picked.push(cores[k - 1]);
            }
            for t in picked {
                link(
                    &nodes,
                    &mut specs,
                    c,
                    t,
                    LinkType::Core,
                    format!("synth core isd{isd}"),
                );
                targets.push(t);
                targets.push(c);
            }
        }
    }

    // ---- Inter-ISD core ring + chords ----------------------------------
    if cfg.n_isds > 1 {
        let first_core = |isd: usize| -> usize {
            members[isd]
                .iter()
                .copied()
                .find(|&i| nodes[i].core)
                .unwrap()
        };
        for isd in 0..cfg.n_isds {
            let next = (isd + 1) % cfg.n_isds;
            if cfg.n_isds == 2 && isd == 1 {
                break; // avoid doubling the single ring edge
            }
            link(
                &nodes,
                &mut specs,
                first_core(isd),
                first_core(next),
                LinkType::Core,
                format!("synth inter-isd ring {isd}-{next}"),
            );
        }
        // Chords make the inter-ISD core 2-connected beyond the ring.
        for _ in 0..cfg.n_isds / 2 {
            let a = rng.below(cfg.n_isds);
            let b = rng.below(cfg.n_isds);
            if a == b {
                continue;
            }
            let ca = members[a][rng.below(cfg.cores_per_isd)];
            let cb = members[b][rng.below(cfg.cores_per_isd)];
            if nodes[ca].core && nodes[cb].core {
                link(
                    &nodes,
                    &mut specs,
                    ca,
                    cb,
                    LinkType::Core,
                    format!("synth chord {a}-{b}"),
                );
            }
        }
    }

    // ---- Customer hierarchy: preferential child attachment -------------
    // Per-ISD degree-weighted target lists again; parents must sit above
    // the depth cap so the provider chain below the core stays short.
    // Children only attach to already-wired nodes (old → new), so the
    // customer hierarchy is acyclic by construction.
    for (isd, isd_members) in members.iter().enumerate().take(cfg.n_isds) {
        let mut targets: Vec<usize> = isd_members
            .iter()
            .copied()
            .filter(|&i| nodes[i].core)
            .collect();
        let leaves: Vec<usize> = isd_members
            .iter()
            .copied()
            .filter(|&i| !nodes[i].core)
            .collect();
        for &c in &leaves {
            let want = cfg.ba_m.max(1);
            let mut parents: Vec<usize> = Vec::new();
            let mut tries = 0;
            while parents.len() < want && tries < 64 {
                tries += 1;
                let t = targets[rng.below(targets.len())];
                if t != c && !parents.contains(&t) && nodes[t].depth < cfg.max_depth {
                    parents.push(t);
                }
            }
            if parents.is_empty() {
                // Degenerate draw streak: fall back to a core, depth 1.
                parents.push(*isd_members.iter().find(|&&i| nodes[i].core).unwrap());
            }
            // Depth is the max over parents: every upward walk strictly
            // decreases it, so no provider chain exceeds max_depth.
            nodes[c].depth = parents.iter().map(|&p| nodes[p].depth).max().unwrap() + 1;
            for p in parents {
                link(
                    &nodes,
                    &mut specs,
                    p,
                    c,
                    LinkType::Child,
                    format!("synth child isd{isd}"),
                );
                targets.push(p);
                targets.push(c);
            }
        }
        // Peering sprinkles between non-core members.
        let n_peers = (leaves.len() as f64 * cfg.peer_fraction) as usize;
        for _ in 0..n_peers {
            let a = leaves[rng.below(leaves.len())];
            let b = leaves[rng.below(leaves.len())];
            if a != b && nodes[a].ia != nodes[b].ia {
                link(
                    &nodes,
                    &mut specs,
                    a,
                    b,
                    LinkType::Peer,
                    format!("synth peer isd{isd}"),
                );
            }
        }
    }

    let mut links = Vec::with_capacity(specs.len());
    for spec in specs {
        let (ifid_a, ifid_b) = graph
            .connect(spec.a, spec.b, spec.link_type)
            .expect("generator references known ASes");
        links.push(BuiltLink {
            spec,
            ifid_a,
            ifid_b,
        });
    }
    graph
        .validate()
        .expect("synthetic topology is structurally valid");
    BuiltTopology::new(graph, links)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_presets_scale_isds() {
        assert_eq!(SynthConfig::sized(100).n_isds, 2);
        assert_eq!(SynthConfig::sized(1000).n_isds, 4);
        assert_eq!(SynthConfig::sized(5000).n_isds, 5);
    }

    #[test]
    fn generator_is_deterministic_in_seed() {
        let cfg = SynthConfig::sized(120);
        let a = synthesize(&cfg);
        let b = synthesize(&cfg);
        assert_eq!(a.graph.as_count(), b.graph.as_count());
        assert_eq!(a.links.len(), b.links.len());
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!(la.spec, lb.spec);
        }
        let mut cfg2 = cfg;
        cfg2.seed ^= 1;
        let c = synthesize(&cfg2);
        assert!(
            a.links.iter().zip(&c.links).any(|(x, y)| x.spec != y.spec),
            "different seeds should produce different wiring"
        );
    }

    #[test]
    fn generated_topology_validates_at_several_sizes() {
        for n in [30, 100, 400] {
            let built = synthesize(&SynthConfig::sized(n));
            assert_eq!(built.graph.as_count(), n);
            // validate() already ran inside synthesize; spot-check shape.
            let cores = built.graph.core_ases().len();
            let cfg = SynthConfig::sized(n);
            assert_eq!(cores, cfg.n_isds * cfg.cores_per_isd);
            assert!(built.links.len() >= n - 1, "must at least span the nodes");
        }
    }

    #[test]
    fn depth_cap_bounds_customer_chains() {
        let cfg = SynthConfig::sized(300);
        let built = synthesize(&cfg);
        // Walk parent links upward from every leaf; chain length must not
        // exceed max_depth.
        let g = &built.graph;
        for node in g.ases() {
            let mut depth = 0;
            let mut cur = node.ia;
            loop {
                let Some(up) = g
                    .as_node(cur)
                    .unwrap()
                    .interfaces_of_type(LinkType::Parent)
                    .next()
                else {
                    break;
                };
                cur = up.neighbor;
                depth += 1;
                assert!(
                    depth <= cfg.max_depth,
                    "customer chain exceeds max_depth at {}",
                    node.ia
                );
            }
        }
    }

    #[test]
    fn beaconing_converges_on_synthetic_topology() {
        use scion_control::beacon::{BeaconConfig, BeaconEngine};
        let built = synthesize(&SynthConfig::sized(60));
        let mut engine = BeaconEngine::new(&built.graph, 1_700_000_000, BeaconConfig::default());
        let store = engine.run().expect("beaconing succeeds");
        for node in built.graph.ases() {
            if !node.core {
                assert!(
                    !store.up_segments(node.ia).is_empty(),
                    "{} never learned an up-segment",
                    node.ia
                );
            }
        }
    }
}
