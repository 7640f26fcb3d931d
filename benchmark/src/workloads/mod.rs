//! The five workloads. Each is closed loop, one thread, one client: the
//! next operation starts when the previous one has completed and been
//! checked.

use sciera::control::fullpath::FullPath;
use sciera::telemetry::Telemetry;

use crate::deploy::{Deployment, Wire};

pub mod connect;
pub mod datagram;
pub mod frame_load;
pub mod link_churn;

/// One timed sample: `Workload::BATCH` operations.
pub struct Sample {
    /// Nanoseconds spent inside the product calls of the sample.
    pub ns: u64,
    /// Operations of the sample whose output check failed.
    pub failed: u32,
}

pub trait Workload<W: Wire>: Sized {
    /// Operations per timed sample: 1 where an operation is long enough to
    /// time alone, otherwise large enough that a sample lasts about 1 ms.
    const BATCH: usize;

    /// Workload preparation, the part of set-up after the network is built.
    fn prepare(dep: Deployment, seed: u64, wire: W) -> Self;

    /// Runs and checks the next `BATCH` operations.
    fn sample(&mut self) -> Sample;

    fn deployment(&self) -> &Deployment;

    /// Paths this workload's traffic takes: the inputs of the layer probes.
    /// May query the path database; the caller flushes it afterwards.
    fn probe_paths(&self) -> Vec<FullPath>;

    /// Exact-count checks over the counter movement of a phase of `ops`
    /// operations; returns one message per violated expectation.
    fn check_counts(&self, moved: &Counts, ops: u64) -> Vec<String>;

    /// Seconds spent generating a traffic schedule during `prepare`.
    fn schedule_s(&self) -> f64 {
        0.0
    }
}

/// The telemetry counters the benchmark reads, by product metric name.
const COUNTERS: [&str; 19] = [
    "pathdb.cache.hit",
    "pathdb.cache.miss",
    "pathdb.cache.invalidate",
    "pathdb.cache.revalidate",
    "pathdb.cache.partial",
    "control.paths_combined",
    "router.fastpath.hit",
    "router.fastpath.fallback",
    "router.maccache.hit",
    "router.maccache.miss",
    "router.batch.frames",
    "router.batch.mac_dedup",
    "router.forwarded",
    "router.delivered",
    "dispatcher.shard.dropped",
    "pool.frame.hit",
    "pool.frame.miss",
    "prober.echo_sent",
    "prober.ext_if_down",
];

/// Counter values at one instant, or their movement between two.
#[derive(Clone)]
pub struct Counts([u64; COUNTERS.len()]);

impl Counts {
    pub fn read(telemetry: &Telemetry) -> Self {
        let mut v = [0u64; COUNTERS.len()];
        for (slot, name) in v.iter_mut().zip(COUNTERS) {
            *slot = telemetry.counter(name).get();
        }
        Counts(v)
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut v = self.0;
        for (now, then) in v.iter_mut().zip(earlier.0) {
            *now -= then;
        }
        Counts(v)
    }

    /// Value of counter `name`. Panics on a name missing from `COUNTERS`:
    /// a typo in this crate, not a run-time condition.
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("counter {name} is not in COUNTERS"));
        self.0[i]
    }

    /// `part ÷ (part + rest)`, 0 when neither moved.
    pub fn share(&self, part: &str, rest: &str) -> f64 {
        let (p, r) = (self.get(part), self.get(rest));
        if p + r == 0 {
            0.0
        } else {
            p as f64 / (p + r) as f64
        }
    }
}

/// Pairs from the seeded pool, as indices into `dep.leaves`, whose answer
/// (every path between them, shortest first) satisfies `keep`: the workloads
/// draw from a stratum in which the work per operation does not depend on
/// the seed. The path database holds at most the latest candidate's answer
/// at any time (noise rule 1: bounded memory), so a caller's follow-up
/// lookup for the pair it was just handed is a hit.
fn pairs_where<'a>(
    dep: &'a Deployment,
    pool: &'a [(u16, u16)],
    keep: impl Fn(&[FullPath]) -> bool + 'a,
) -> impl Iterator<Item = (usize, usize, Vec<FullPath>)> + 'a {
    let db = dep.net.pathdb();
    pool.iter().filter_map(move |&(s, d)| {
        let (s, d) = (s as usize, d as usize);
        db.flush();
        let answer = dep.net.paths(dep.leaves[s], dep.leaves[d]);
        keep(&answer).then_some((s, d, answer))
    })
}

/// Whether an answer's shortest path has exactly `hops` AS-level hops.
fn shortest_is(answer: &[FullPath], hops: usize) -> bool {
    answer.first().is_some_and(|p| p.len() == hops)
}
