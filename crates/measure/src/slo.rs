//! Concurrency SLO observatory: lookup latency under concurrent clients.
//!
//! The epoch-snapshot [`EpochPathDb`] exists so that path lookups keep
//! their latency SLO while the control plane is busy — beacon batches
//! registering, SCMP interface-down storms sweeping the cache. This
//! module measures exactly that: for each client count K it pins one
//! *writer* thread in a link-kill storm loop (store mutation + publish,
//! then crossing-interface cache sweeps — the worst-case write mix) and
//! drives K *reader* threads through a warm query pool, recording every
//! lookup's wall latency. The p50/p99/max per K quantify how lookup
//! latency degrades with concurrency; with the snapshot design the p99
//! at K=64 should stay within an order of magnitude of K=1, because
//! readers only ever contend on a shard-map lock and the brief published
//! pointer read — never on the writer's combine work.
//!
//! The harness is deterministic apart from the scheduler: topology,
//! pools and per-thread query schedules derive from the seed; only the
//! interleaving (and therefore the measured latencies and storm count)
//! varies run to run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use sciera_topology::synth::{synthesize, SynthConfig};
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::epoch::{EpochConfig, EpochPathDb};
use scion_control::store::SegmentHandle;
use scion_proto::addr::IsdAsn;

/// Parameters of one SLO run.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Synthetic topology size (AS count).
    pub n_ases: usize,
    /// Distinct (src, dst) pairs the clients cycle over.
    pub pair_pool: usize,
    /// Client counts to measure, in order (one [`SloPoint`] each).
    pub clients: Vec<usize>,
    /// Minimum lookups each client performs per point. Clients keep
    /// looking up past this floor until the writer has completed
    /// [`min_storms`](Self::min_storms) cycles, so every K point
    /// experiences comparable churn regardless of how fast the lookups
    /// themselves are.
    pub lookups_per_client: usize,
    /// Minimum writer storm cycles per point.
    pub min_storms: u64,
    /// Per-query path cap.
    pub max_paths: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            n_ases: 200,
            pair_pool: 100,
            clients: vec![1, 8, 64],
            lookups_per_client: 2_000,
            min_storms: 50,
            max_paths: 32,
            seed: 0x510e_5c10,
        }
    }
}

/// Measured latencies for one client count.
#[derive(Debug, Clone)]
pub struct SloPoint {
    /// Concurrent reader threads.
    pub clients: usize,
    /// Total lookups across all readers.
    pub lookups: u64,
    /// Median lookup latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile lookup latency, nanoseconds.
    pub p99_ns: u64,
    /// Worst observed lookup latency, nanoseconds.
    pub max_ns: u64,
    /// Link-kill storm cycles the writer completed while readers ran.
    pub storms: u64,
    /// Store generations published during the measurement window.
    pub publishes: u64,
}

/// Tiny deterministic PRNG for workload draws (xorshift64*).
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

/// One writer storm iteration's ammunition: a core interface to kill and
/// re-register (a store mutation that publishes a new generation) plus a
/// set of path-crossing interfaces to sweep from the cache (the SCMP
/// reaction, which leaves the generation alone).
struct Storm {
    kill_ia: IsdAsn,
    kill_ifid: u16,
    core_snapshot: Vec<SegmentHandle>,
    crossing: Vec<(IsdAsn, u16)>,
}

impl Storm {
    fn capture(db: &EpochPathDb, pool: &[(IsdAsn, IsdAsn)], max_paths: usize) -> Storm {
        let snap = db.snapshot();
        let cores = snap.store().known_cores();
        let mut core_snapshot = Vec::new();
        for &a in &cores {
            for &b in &cores {
                core_snapshot.extend(snap.store().core_between_handles(a, b).iter().cloned());
            }
        }
        let seg = core_snapshot
            .iter()
            .find(|s| s.len() >= 2)
            .expect("synthetic topology yields multi-hop core segments");
        let (kill_ia, kill_ifid) = (seg.entries[0].ia, seg.entries[0].hop.cons_egress);
        // Crossing sweeps target interfaces real cached paths traverse, so
        // the storm actually evicts entries rather than no-oping.
        let mut crossing = Vec::new();
        for &(src, dst) in pool.iter().take(8) {
            if let Some(p) = db.paths(src, dst, max_paths).first() {
                crossing.extend(p.interfaces().iter().take(2).copied());
            }
        }
        crossing.dedup();
        Storm {
            kill_ia,
            kill_ifid,
            core_snapshot,
            crossing,
        }
    }

    /// One full storm cycle; returns how many generations were published.
    fn fire(&self, db: &EpochPathDb) -> u64 {
        db.mutate_store(|s| {
            s.invalidate_interface(self.kill_ia, self.kill_ifid);
            for h in &self.core_snapshot {
                s.register_core_handle(h.clone());
            }
        });
        for &(ia, ifid) in &self.crossing {
            db.invalidate_paths_crossing(ia, ifid);
        }
        1
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the full SLO sweep: one shared store, a fresh warm database per
/// client count.
pub fn run_slo(cfg: &SloConfig) -> Vec<SloPoint> {
    let topo = synthesize(&SynthConfig::sized(cfg.n_ases));
    let store = BeaconEngine::new(
        &topo.graph,
        1_700_000_000,
        BeaconConfig {
            candidates_per_origin: 6,
            max_len: 16,
            rounds: 24,
            delta_propagation: true,
        },
    )
    .run()
    .expect("synthetic topology beacons cleanly");

    let mut rng = Rng::new(cfg.seed);
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
    let mut pool: Vec<(IsdAsn, IsdAsn)> = Vec::new();
    let mut draws = 0usize;
    while pool.len() < cfg.pair_pool && draws < cfg.pair_pool.saturating_mul(8) {
        draws += 1;
        let a = endpoints[rng.below(endpoints.len())];
        let b = endpoints[rng.below(endpoints.len())];
        if a != b && seen.insert((a, b)) {
            pool.push((a, b));
        }
    }
    assert!(!pool.is_empty(), "no queryable pairs at N={}", cfg.n_ases);

    cfg.clients
        .iter()
        .map(|&k| run_point(cfg, &store, &pool, k))
        .collect()
}

fn run_point(
    cfg: &SloConfig,
    store: &scion_control::store::SegmentStore,
    pool: &[(IsdAsn, IsdAsn)],
    clients: usize,
) -> SloPoint {
    let db = EpochPathDb::with_config(store.clone(), EpochConfig::for_topology(cfg.n_ases));
    db.prefetch(pool, cfg.max_paths);
    let storm = Storm::capture(&db, pool, cfg.max_paths);

    let stop = AtomicBool::new(false);
    let storms = AtomicU64::new(0);
    let publishes = AtomicU64::new(0);

    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let writer = {
            let db = db.clone();
            let (stop, storms, publishes, storm) = (&stop, &storms, &publishes, &storm);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    publishes.fetch_add(storm.fire(&db), Ordering::Relaxed);
                    storms.fetch_add(1, Ordering::Relaxed);
                    // Leave readers room on small machines; a real beacon
                    // cadence is far sparser than back-to-back storms.
                    std::thread::yield_now();
                }
            })
        };

        let readers: Vec<_> = (0..clients)
            .map(|c| {
                let db = db.clone();
                let storms = &storms;
                scope.spawn(move || {
                    let mut rng = Rng::new(cfg.seed ^ (c as u64 + 1).rotate_left(23));
                    let mut lat = Vec::with_capacity(cfg.lookups_per_client);
                    // Run to the lookup floor, then keep going until the
                    // writer has delivered the storm quota, so fast
                    // lookups can't starve the point of churn.
                    while lat.len() < cfg.lookups_per_client
                        || storms.load(Ordering::Relaxed) < cfg.min_storms
                    {
                        let (src, dst) = pool[rng.below(pool.len())];
                        let t = Instant::now();
                        let (paths, generation) = db.paths_with_generation(src, dst, cfg.max_paths);
                        lat.push(t.elapsed().as_nanos() as u64);
                        // The served generation can trail the published one
                        // (a racing publish), never lead it.
                        debug_assert!(generation <= db.generation());
                        std::hint::black_box(paths);
                    }
                    lat
                })
            })
            .collect();

        let mut all: Vec<u64> = Vec::with_capacity(clients * cfg.lookups_per_client);
        for r in readers {
            all.extend(r.join().expect("reader panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer panicked");
        all
    });

    latencies.sort_unstable();
    SloPoint {
        clients,
        lookups: latencies.len() as u64,
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        max_ns: latencies.last().copied().unwrap_or(0),
        storms: storms.load(Ordering::Relaxed),
        publishes: publishes.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_points_measure_under_writer_storms() {
        let cfg = SloConfig {
            n_ases: 60,
            pair_pool: 24,
            clients: vec![1, 4],
            lookups_per_client: 300,
            min_storms: 5,
            max_paths: 16,
            seed: 7,
        };
        let points = run_slo(&cfg);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.lookups >= p.clients as u64 * 300);
            assert!(p.p50_ns > 0, "lookups must take measurable time");
            assert!(p.p99_ns >= p.p50_ns);
            assert!(p.max_ns >= p.p99_ns);
            assert!(p.storms >= 5, "writer must deliver the storm quota");
            assert!(p.publishes >= p.storms);
        }
    }
}
