//! The 100 → 5000-AS scale campaign (the "scale observatory").
//!
//! The paper's deployment tops out at a few dozen ASes; the interesting
//! engineering question it leaves open is *which subsystem melts first*
//! as a SCIERA-like network grows by two orders of magnitude. This module
//! answers it empirically: for each sweep size N it
//!
//! 1. generates a synthetic ISD/Barabási–Albert topology
//!    ([`sciera_topology::synth`]),
//! 2. runs full beaconing to convergence and records wall time, rounds
//!    and segment-store footprint,
//! 3. drives a query workload through the shared epoch-snapshot
//!    [`EpochPathDb`](scion_control::epoch::EpochPathDb) with a
//!    topology-proportional sharded cache (the production concurrency
//!    discipline, including publish-latency accounting), recording hit
//!    rate and throughput,
//! 4. pushes a frame workload through real border routers over the
//!    generated links, every link up: the deployment's frame-load loop
//!    ([`scion_dataplane::load::run_frame_load`]), with routers in the
//!    topology's node order and one `step` per forward,
//!
//! and then reads the scoped profiler back: ranked per-subsystem self
//! time and the named bottleneck at that N. With the `profile` feature
//! off every step still runs — the self-time table is simply empty —
//! so the harness doubles as a scaling smoke test in CI.

use std::time::Instant;

use sciera_telemetry::Telemetry;
use sciera_topology::synth::{synthesize, SynthConfig};
use scion_control::beacon::BeaconEngine;
use scion_control::epoch::{EpochConfig, EpochPathDb};
use scion_dataplane::load::{run_frame_load, FrameLoadReport};
use scion_dataplane::router::BorderRouter;
use scion_proto::addr::{HostAddr, ScionAddr};
use scion_proto::packet::{DataPlanePath, L4Protocol, ScionPacket};

use crate::bed::{beacon_config_for, pair_pool, Rng};

/// Parameters of one sweep run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Network sizes (AS counts) to measure, in order.
    pub sizes: Vec<usize>,
    /// Path-database queries issued per point.
    pub queries: usize,
    /// Distinct (src, dst) pairs the queries cycle over — smaller pools
    /// mean warmer caches.
    pub pair_pool: usize,
    /// Frames injected into the router stage per point.
    pub frames: usize,
    /// Router batch size (frames per `process_batch` call).
    pub batch: usize,
    /// Seed for the workload generator (topology seeds derive from N).
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            sizes: vec![100, 300, 1000, 3000, 5000],
            queries: 1500,
            pair_pool: 48,
            frames: 3000,
            batch: 32,
            seed: 0x5CA1_E0B5_0B5E_47A7,
        }
    }
}

/// Everything measured at one sweep size.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Network size (AS count).
    pub n_ases: usize,
    /// Links in the generated topology.
    pub links: usize,
    /// Topology generation wall time, milliseconds.
    pub gen_ms: f64,
    /// Beaconing wall time to the propagation fixed point, milliseconds.
    pub convergence_ms: f64,
    /// Propagation rounds beaconing needed.
    pub beacon_rounds: usize,
    /// Segments registered across all path servers.
    pub segments: usize,
    /// Approximate resident bytes of the segment store.
    pub store_bytes: usize,
    /// Approximate resident bytes of the path-database cache after the workload.
    pub pathdb_bytes: usize,
    /// Path-database queries issued (warm phase; the cold phase adds one query
    /// per pool pair on top).
    pub queries: usize,
    /// Distinct (src, dst) pairs in the query pool — scales with N, so
    /// the cache-pressure regime changes across the sweep.
    pub query_pairs: usize,
    /// Path-database cache hit rate over the whole workload (0..=1).
    pub hit_rate: f64,
    /// Hit rate of the cold pass (every pool pair queried once, first
    /// touch). Near zero by construction; above it only when distinct
    /// pairs share combination work.
    pub hit_rate_cold: f64,
    /// Hit rate of the warm pass (random re-queries over the pool). Falls
    /// away from 1.0 once the pool outgrows the LRU capacity and the
    /// cache starts churning — the regime change the sweep looks for.
    pub hit_rate_warm: f64,
    /// Path-database queries per second (wall clock, one reader).
    pub queries_per_sec: f64,
    /// Router operations (frames × hops) processed.
    pub router_ops: u64,
    /// Frames delivered end-to-end.
    pub delivered: u64,
    /// Frames dropped (queue overflow, dead ends, errors).
    pub dropped: u64,
    /// Router stage wall nanoseconds per router operation.
    pub router_ns_per_op: f64,
    /// Per-subsystem self time in milliseconds, descending. Empty when
    /// the `profile` feature is off.
    pub self_time_ms: Vec<(String, f64)>,
    /// The top self-time scope — where this N spends its time.
    pub bottleneck: Option<String>,
}

/// Runs one sweep point at `n` ASes.
pub fn run_point(n: usize, cfg: &ScaleConfig) -> ScalePoint {
    let telemetry = Telemetry::quiet();
    telemetry.reset_profile();
    let mut rng = Rng::new(cfg.seed ^ (n as u64).rotate_left(17));

    // ---- Stage 1: topology -------------------------------------------
    let t0 = Instant::now();
    let topo = synthesize(&SynthConfig::sized(n));
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

    // ---- Stage 2: beaconing to convergence ---------------------------
    let mut engine = BeaconEngine::new(&topo.graph, 1_700_000_000, beacon_config_for(n));
    engine.set_telemetry(telemetry.clone());
    let t0 = Instant::now();
    let store = engine.run().expect("synthetic topology beacons cleanly");
    let convergence_ms = t0.elapsed().as_secs_f64() * 1e3;
    let beacon_rounds = engine.last_rounds();
    let segments = store.all_segments().count();
    let store_bytes = store.approx_bytes();
    let secrets = engine.secrets().clone();

    // ---- Stage 3: path-database query workload over the shared snapshot -----
    // Topology-proportional capacity: the old fixed 2048-entry LRU
    // thrashed once the pair pool (≥ N/2) outgrew it, collapsing N=5000
    // to three-digit q/s. `for_topology` sizes the sharded cache so the
    // warm working set actually fits at every sweep point.
    let db = EpochPathDb::with_config(store, EpochConfig::for_topology(n));
    db.set_telemetry(telemetry.clone());

    // The pool of distinct pairs scales with the topology (at least half
    // the AS count), so the combine workload actually grows across the
    // sweep; the cache capacity grows with it (`for_topology`), so the
    // warm pass measures steady-state lookup throughput rather than LRU
    // churn. A fixed pool would make the hit rate a constant arithmetic
    // artefact of (queries, pair_pool) — the same number at every N.
    let pool = pair_pool(&topo, cfg.pair_pool.max(n / 2), &mut rng);

    let cache_counts = || {
        let snap = telemetry.snapshot();
        (
            snap.counter("pathdb.cache.hit").unwrap_or(0),
            snap.counter("pathdb.cache.miss").unwrap_or(0),
        )
    };
    let rate = |(h0, m0): (u64, u64), (h1, m1): (u64, u64)| {
        let (dh, dm) = (h1 - h0, m1 - m0);
        if dh + dm > 0 {
            dh as f64 / (dh + dm) as f64
        } else {
            0.0
        }
    };

    // Cold pass: every pool pair once, first touch.
    let before = cache_counts();
    db.prefetch(&pool, 32);
    let after_cold = cache_counts();

    // Warm pass: random re-queries over the pool (the measured workload).
    let t0 = Instant::now();
    for _ in 0..cfg.queries {
        let (src, dst) = pool[rng.below(pool.len())];
        let _ = db.paths(src, dst, 32);
    }
    let query_secs = t0.elapsed().as_secs_f64();
    let after_warm = cache_counts();

    let hit_rate_cold = rate(before, after_cold);
    let hit_rate_warm = rate(after_cold, after_warm);
    let hit_rate = rate(before, after_warm);
    let queries_per_sec = if query_secs > 0.0 {
        cfg.queries as f64 / query_secs
    } else {
        0.0
    };

    // ---- Stage 4: router frame workload ------------------------------
    // Templates: encoded UDP frames over the first path of a handful of
    // reachable pairs, each with its source node, injected round-robin.
    let mut templates: Vec<(usize, Vec<u8>)> = Vec::new();
    for (src, dst) in pool.iter().take(32) {
        let paths = db.paths(*src, *dst, 4);
        let Some(dp) = paths.first().and_then(|p| p.to_dataplane().ok()) else {
            continue;
        };
        let pkt = ScionPacket::new(
            ScionAddr::new(*src, HostAddr::v4(10, 250, 0, 1)),
            ScionAddr::new(*dst, HostAddr::v4(10, 250, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Scion(dp),
            scion_proto::udp::UdpDatagram::new(7, 7, b"scale".to_vec()).encode(),
        );
        if let (Ok(bytes), Some(at)) = (pkt.encode(), topo.node_of(*src)) {
            templates.push((at, bytes));
        }
    }

    let mut load = FrameLoadReport::default();
    let mut router_ns_per_op = 0.0;
    if !templates.is_empty() {
        // One router per AS, in the topology's node order.
        let mut routers: Vec<BorderRouter> = topo
            .nodes()
            .map(|ia| {
                let mut r = BorderRouter::new(ia, secrets[&ia].hop_key.clone());
                r.set_telemetry(telemetry.clone());
                r
            })
            .collect();
        let frames = (0..cfg.frames).map(|i| {
            let (at, bytes) = &templates[i % templates.len()];
            (*at, bytes.as_slice())
        });
        let step = |at, ifid| topo.step(at, ifid).map(|s| (s.node, s.ifid));
        let t0 = Instant::now();
        load = run_frame_load(
            &mut routers,
            step,
            frames,
            cfg.batch,
            true,
            1_700_000_000,
            &telemetry,
        );
        let wall_ns = t0.elapsed().as_nanos() as f64;
        if load.router_ops > 0 {
            router_ns_per_op = wall_ns / load.router_ops as f64;
        }
    }

    // ---- Read the observatory back -----------------------------------
    let pathdb_bytes = {
        db.record_resource_gauges();
        db.approx_cache_bytes()
    };
    telemetry.publish_profile();
    let report = telemetry.profile_report();
    let self_time_ms: Vec<(String, f64)> = report
        .ranked_self_time()
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns as f64 / 1e6))
        .collect();
    let bottleneck = report.top_bottleneck().map(|(name, _)| name.to_string());

    ScalePoint {
        n_ases: n,
        links: topo.links.len(),
        gen_ms,
        convergence_ms,
        beacon_rounds,
        segments,
        store_bytes,
        pathdb_bytes,
        queries: cfg.queries,
        query_pairs: pool.len(),
        hit_rate,
        hit_rate_cold,
        hit_rate_warm,
        queries_per_sec,
        router_ops: load.router_ops,
        delivered: load.delivered,
        dropped: load.dropped,
        router_ns_per_op,
        self_time_ms,
        bottleneck,
    }
}

/// Runs the whole sweep, one point per configured size.
pub fn run_sweep(cfg: &ScaleConfig) -> Vec<ScalePoint> {
    cfg.sizes.iter().map(|&n| run_point(n, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ScaleConfig {
        ScaleConfig {
            sizes: vec![40],
            queries: 120,
            pair_pool: 12,
            frames: 200,
            batch: 8,
            seed: 7,
        }
    }

    #[test]
    fn one_small_point_produces_consistent_metrics() {
        let cfg = small_cfg();
        let p = run_point(40, &cfg);
        assert_eq!(p.n_ases, 40);
        assert!(p.links >= 39, "links: {}", p.links);
        assert!(p.beacon_rounds >= 1);
        assert!(p.segments > 0);
        assert!(p.store_bytes > 0);
        assert!(p.convergence_ms > 0.0);
        assert!(p.queries_per_sec > 0.0);
        assert!(
            p.hit_rate > 0.0 && p.hit_rate < 1.0,
            "cold misses + warm hits must mix: {}",
            p.hit_rate
        );
        assert!(p.query_pairs >= 12, "pool scales with N: {}", p.query_pairs);
        assert!(
            p.hit_rate_cold < p.hit_rate_warm,
            "first touches miss, re-queries hit: cold {} vs warm {}",
            p.hit_rate_cold,
            p.hit_rate_warm
        );
        assert!(
            p.hit_rate_cold < 0.5,
            "cold pass is first-touch dominated: {}",
            p.hit_rate_cold
        );
        assert!(
            p.hit_rate_warm > 0.9,
            "a pool the LRU holds entirely stays warm: {}",
            p.hit_rate_warm
        );
        assert!(p.delivered > 0, "some frames must arrive end-to-end");
        assert_eq!(
            p.delivered + p.dropped,
            cfg.frames as u64,
            "every frame is delivered or dropped"
        );
        assert!(p.router_ns_per_op > 0.0);
    }

    #[test]
    fn profiler_attribution_matches_feature_state() {
        let cfg = small_cfg();
        let p = run_point(40, &cfg);
        if Telemetry::quiet().profiling_enabled() {
            assert!(
                !p.self_time_ms.is_empty(),
                "profiled build must attribute self time"
            );
            assert!(p.bottleneck.is_some());
        } else {
            assert!(p.self_time_ms.is_empty());
            assert!(p.bottleneck.is_none());
        }
    }
}
