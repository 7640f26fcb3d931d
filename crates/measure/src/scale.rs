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
//!    generated links — the same inject/drain/process-batch/forward loop
//!    the deployment simulation uses,
//! 5. runs a bounded discrete-event stage so the simulator's dispatch
//!    loop shows up in the profile alongside everything else,
//!
//! and then reads the scoped profiler back: ranked per-subsystem self
//! time and the named bottleneck at that N. With the `profile` feature
//! off every step still runs — the self-time table is simply empty —
//! so the harness doubles as a scaling smoke test in CI.

use std::time::Instant;

use netsim::{FramePool, LinkId, LinkQuality, Node, NodeCtx, SimDuration, World};
use sciera_telemetry::Telemetry;
use sciera_topology::synth::{synthesize, SynthConfig};
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::epoch::{EpochConfig, EpochPathDb};
use scion_dataplane::dispatcher::{IngressShards, DEFAULT_SHARD_CAPACITY};
use scion_dataplane::router::{BorderRouter, FrameDecision};
use scion_proto::addr::{HostAddr, IsdAsn, ScionAddr};
use scion_proto::packet::{DataPlanePath, L4Protocol, ScionPacket};

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
    /// Nodes in the bounded discrete-event stage (0 skips it).
    pub sim_nodes: usize,
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
            sim_nodes: 48,
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
    /// Events the discrete-event stage dispatched.
    pub sim_events: u64,
    /// Per-subsystem self time in milliseconds, descending. Empty when
    /// the `profile` feature is off.
    pub self_time_ms: Vec<(String, f64)>,
    /// The top self-time scope — where this N spends its time.
    pub bottleneck: Option<String>,
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

/// A relay for the discrete-event stage: forwards a TTL-stamped probe
/// around the ring until the TTL dies, so the event loop dispatches a
/// bounded, size-independent amount of work.
struct Relay;

impl Node for Relay {
    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, mut frame: Vec<u8>) {
        let ttl = frame.first().copied().unwrap_or(0);
        if ttl == 0 {
            return;
        }
        frame[0] = ttl - 1;
        let out = ctx
            .links()
            .iter()
            .copied()
            .find(|&l| l != link)
            .unwrap_or(link);
        ctx.send(out, frame);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        if let Some(&link) = ctx.links().first() {
            ctx.send(link, vec![16u8]);
        }
    }
}

fn beacon_config_for(n: usize) -> BeaconConfig {
    BeaconConfig {
        // Richer candidate sets explode combination work superlinearly;
        // scale them down as the network grows, as an operator would.
        candidates_per_origin: if n >= 1000 { 3 } else { 6 },
        max_len: 16,
        rounds: 24,
        delta_propagation: true,
    }
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
    // The pool of distinct pairs scales with the topology (at least half
    // the AS count), so the combine workload actually grows across the
    // sweep; the cache capacity grows with it (`for_topology`), so the
    // warm pass measures steady-state lookup throughput rather than LRU
    // churn. A fixed pool would make the hit rate a constant arithmetic
    // artefact of (queries, pair_pool) — the same number at every N.
    let pool_target = cfg.pair_pool.max(n / 2);
    let mut seen_pairs = std::collections::BTreeSet::new();
    let mut pool: Vec<(IsdAsn, IsdAsn)> = Vec::new();
    let mut draws = 0usize;
    while pool.len() < pool_target && draws < pool_target.saturating_mul(8) {
        draws += 1;
        let a = endpoints[rng.below(endpoints.len())];
        let b = endpoints[rng.below(endpoints.len())];
        if a != b && seen_pairs.insert((a, b)) {
            pool.push((a, b));
        }
    }
    if pool.is_empty() {
        pool.push((endpoints[0], endpoints[endpoints.len() - 1]));
    }

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
    // reachable pairs; the loop below is the deployment simulation's
    // inject/drain/batch/forward engine over the generated links.
    let mut templates: Vec<(IsdAsn, Vec<u8>)> = Vec::new();
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
        if let Ok(bytes) = pkt.encode() {
            templates.push((*src, bytes));
        }
    }

    let mut router_ops = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut router_ns_per_op = 0.0;
    if !templates.is_empty() {
        let mut routers: std::collections::BTreeMap<IsdAsn, BorderRouter> = secrets
            .iter()
            .map(|(ia, s)| {
                let mut r = BorderRouter::new(*ia, s.hop_key.clone());
                r.set_telemetry(telemetry.clone());
                (*ia, r)
            })
            .collect();
        let mut shards: IngressShards<(IsdAsn, u16)> = IngressShards::new(DEFAULT_SHARD_CAPACITY);
        shards.set_telemetry(&telemetry);
        let mut pool_frames = FramePool::new(cfg.batch.saturating_mul(8));
        pool_frames.set_telemetry(&telemetry);
        let mut wave: Vec<Vec<u8>> = Vec::with_capacity(cfg.batch);
        let target_in_flight = cfg.batch.saturating_mul(4).min(DEFAULT_SHARD_CAPACITY / 2);
        let max_ops = (cfg.frames as u64).saturating_mul(64).max(64);
        let now_unix = 1_700_000_000u64;
        let mut next = 0usize;
        let t0 = Instant::now();
        loop {
            while next < cfg.frames && shards.queued() < target_in_flight {
                let (src, bytes) = &templates[next % templates.len()];
                next += 1;
                let mut buf = pool_frames.alloc(bytes.len());
                buf.extend_from_slice(bytes);
                if !shards.enqueue((*src, 0u16), buf) {
                    dropped += 1;
                }
            }
            let Some((ia, ingress)) = shards.drain_next(cfg.batch, &mut wave) else {
                break;
            };
            router_ops += wave.len() as u64;
            let Some(router) = routers.get_mut(&ia) else {
                dropped += wave.len() as u64;
                pool_frames.recycle_batch(wave.drain(..));
                continue;
            };
            let results = router.process_batch(&mut wave, ingress, now_unix);
            for (frame, res) in wave.drain(..).zip(results) {
                match res {
                    Ok(FrameDecision::Deliver) => {
                        delivered += 1;
                        pool_frames.recycle(frame);
                    }
                    Ok(FrameDecision::Forward { ifid }) => match topo.link_index_of(ia, ifid) {
                        Some(li) => {
                            let l = &topo.links[li];
                            let (next_ia, next_if) = if l.spec.a == ia {
                                (l.spec.b, l.ifid_b)
                            } else {
                                (l.spec.a, l.ifid_a)
                            };
                            if !shards.enqueue((next_ia, next_if), frame) {
                                dropped += 1;
                            }
                        }
                        None => {
                            dropped += 1;
                            pool_frames.recycle(frame);
                        }
                    },
                    Err(_) => {
                        dropped += 1;
                        pool_frames.recycle(frame);
                    }
                }
            }
            if router_ops >= max_ops {
                break;
            }
        }
        let wall_ns = t0.elapsed().as_nanos() as f64;
        if router_ops > 0 {
            router_ns_per_op = wall_ns / router_ops as f64;
        }
    }

    // ---- Stage 5: bounded discrete-event stage -----------------------
    let mut sim_events = 0u64;
    if cfg.sim_nodes >= 2 {
        let mut world: World<Relay> = World::new(cfg.seed ^ n as u64);
        world.set_telemetry(telemetry.clone());
        let ids: Vec<_> = (0..cfg.sim_nodes).map(|_| world.add_node(Relay)).collect();
        for w in ids.windows(2) {
            world.add_link(
                w[0],
                w[1],
                LinkQuality::with_latency(SimDuration::from_millis(1)),
            );
        }
        world.schedule_timer(world.now() + SimDuration::from_millis(1), ids[0], 1);
        sim_events = world.run_to_completion();
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
        router_ops,
        delivered,
        dropped,
        router_ns_per_op,
        sim_events,
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
            sim_nodes: 8,
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
        assert!(p.router_ns_per_op > 0.0);
        assert!(p.sim_events > 0);
    }

    #[test]
    fn profiler_attribution_matches_feature_state() {
        let cfg = small_cfg();
        let p = run_point(40, &cfg);
        if cfg!(feature = "profile") {
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
