//! Random multi-tier topologies shared by the control-plane property tests.

use proptest::prelude::*;

use sciera::control::graph::{ControlGraph, LinkType};
use sciera::prelude::*;

/// A random three-tier topology: `n_core` core ASes in a ring plus random
/// extra core links, `n_mid` mid-tier ASes each homed to 1–2 cores,
/// `n_leaf` leaves each homed to 1–2 mids, plus optional peering links
/// between non-core ASes.
#[derive(Debug, Clone)]
pub struct RandomTopo {
    pub n_core: usize,
    pub n_mid: usize,
    pub n_leaf: usize,
    pub core_edges: Vec<(usize, usize)>,
    pub mid_parents: Vec<Vec<usize>>,  // indices into cores
    pub leaf_parents: Vec<Vec<usize>>, // indices into mids
    pub peerings: Vec<(usize, usize)>, // indices into non-core space
}

/// Random topologies with at least `min_core_edges(n_core)` extra core
/// links.
pub fn arb_topo(min_core_edges: fn(usize) -> usize) -> impl Strategy<Value = RandomTopo> {
    (2usize..5, 1usize..4, 1usize..5).prop_flat_map(move |(n_core, n_mid, n_leaf)| {
        let core_edges =
            prop::collection::vec((0..n_core, 0..n_core), min_core_edges(n_core)..n_core * 2);
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

pub fn core_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 100 + i))
}
pub fn mid_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 200 + i))
}
pub fn leaf_ia(i: usize) -> IsdAsn {
    ia(&format!("71-{}", 300 + i))
}

/// Builds the graph; None when the random spec is degenerate.
pub fn build(t: &RandomTopo) -> Option<ControlGraph> {
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
    // Core ring to guarantee connectivity, plus the random extra edges.
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
