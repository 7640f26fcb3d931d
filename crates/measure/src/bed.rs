//! What the observatories share: one workload RNG, and the synthetic bed the
//! scale and SLO sweeps stand on (the beacon configuration at a size and the
//! seeded pool of query pairs).

use sciera_topology::links::BuiltTopology;
use scion_control::beacon::BeaconConfig;
use scion_proto::addr::IsdAsn;

/// Tiny deterministic PRNG for workload and event draws (xorshift64*).
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub(crate) fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Beaconing over a synthetic network of `n` ASes.
pub(crate) fn beacon_config_for(n: usize) -> BeaconConfig {
    BeaconConfig {
        // Richer candidate sets explode combination work superlinearly;
        // scale them down as the network grows, as an operator would.
        candidates_per_origin: if n >= 1000 { 3 } else { 6 },
        max_len: 16,
        rounds: 24,
    }
}

/// Up to `target` distinct `(src, dst)` pairs of the topology's leaf ASes
/// (its core ASes when it has no leaves), drawn with `rng` in at most
/// `8 × target` tries. Never empty: with no distinct pair drawn, the first
/// and last endpoint make one.
pub(crate) fn pair_pool(
    topo: &BuiltTopology,
    target: usize,
    rng: &mut Rng,
) -> Vec<(IsdAsn, IsdAsn)> {
    let leaves: Vec<IsdAsn> = topo
        .graph
        .ases()
        .filter(|a| !a.core)
        .map(|a| a.ia)
        .collect();
    let endpoints = if leaves.is_empty() {
        topo.graph.core_ases()
    } else {
        leaves
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut pool = Vec::new();
    let mut draws = 0usize;
    while pool.len() < target && draws < target.saturating_mul(8) {
        draws += 1;
        let a = endpoints[rng.below(endpoints.len())];
        let b = endpoints[rng.below(endpoints.len())];
        if a != b && seen.insert((a, b)) {
            pool.push((a, b));
        }
    }
    if pool.is_empty() {
        pool.push((endpoints[0], endpoints[endpoints.len() - 1]));
    }
    pool
}
