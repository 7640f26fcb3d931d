//! Control-plane macrobenchmarks: beaconing the SCIERA graph, combining
//! paths for the richest pair, and the memoized path database.
//!
//! Besides the criterion groups, this target runs an *interleaved* A/B/C
//! comparison over a ≥64-AS synthetic topology: (A) the reference
//! `combine_paths` per query, (B) the path database ([`EpochPathDb`]) with
//! a warm cache, and (C) the database immediately after a store
//! invalidation (segments crossing one core interface removed and
//! re-registered, so every cached entry is generation-stale and must be
//! triaged against the bucket content fingerprints). Interleaving the
//! batches (A,B,C,A,B,C,…) rather than running each variant in one block
//! keeps frequency scaling and cache pollution from biasing one side.
//! Results land in `BENCH_control.json` at the repo root.
//!
//! The same run also executes the concurrency SLO sweep
//! ([`sciera_measure::slo`]): p50/p99 lookup latency through the database
//! at K ∈ {1, 8, 64} concurrent clients while a writer thread runs
//! link-kill storms. Those lines land in `BENCH_control.json` too.

use std::time::Instant;

use criterion::{criterion_group, BatchSize, Criterion};
use sciera_measure::slo::{run_slo, SloConfig, SloPoint};
use sciera_topology::links::build_control_graph;
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::combine::combine_paths;
use scion_control::epoch::EpochPathDb;
use scion_control::graph::{ControlGraph, LinkType};
use scion_control::store::SegmentHandle;
use scion_proto::addr::{ia, IsdAsn};

/// Per-query path cap in the A/B/C comparison.
const CAP: usize = 64;

/// A synthetic topology of 68 ASes: 4 fully meshed cores, 4 multi-homed
/// children per core, 3 multi-homed grandchildren per child, plus a ring
/// of peering links between first children of adjacent cores.
fn synthetic_graph() -> (ControlGraph, Vec<IsdAsn>) {
    let mut g = ControlGraph::new();
    let core = |c: usize| ia(&format!("71-{c}"));
    let child = |c: usize, k: usize| ia(&format!("71-{}", 100 * c + k));
    let grand = |c: usize, k: usize, m: usize| ia(&format!("71-{}", 1000 * c + 10 * k + m));

    for c in 1..=4 {
        g.add_as(core(c), true);
    }
    for c in 1..=4 {
        for d in c + 1..=4 {
            g.connect(core(c), core(d), LinkType::Core).unwrap();
        }
    }
    let mut leaves = Vec::new();
    for c in 1..=4 {
        for k in 1..=4 {
            g.add_as(child(c, k), false);
            // Multi-homed: own core plus the next core around the ring.
            g.connect(core(c), child(c, k), LinkType::Child).unwrap();
            g.connect(core(c % 4 + 1), child(c, k), LinkType::Child)
                .unwrap();
        }
    }
    for c in 1..=4 {
        for k in 1..=4 {
            for m in 1..=3 {
                let gc = grand(c, k, m);
                g.add_as(gc, false);
                g.connect(child(c, k), gc, LinkType::Child).unwrap();
                // Second parent: the next child of the same core.
                g.connect(child(c, k % 4 + 1), gc, LinkType::Child).unwrap();
                leaves.push(gc);
            }
        }
    }
    for c in 1..=4 {
        g.connect(child(c, 1), child(c % 4 + 1, 1), LinkType::Peer)
            .unwrap();
    }
    g.validate().unwrap();
    assert!(g.as_count() >= 64, "topology has {} ASes", g.as_count());
    (g, leaves)
}

/// Beacons the synthetic graph and picks a deterministic cross-core query
/// mix over the grandchild leaves.
fn setup() -> (EpochPathDb, Vec<(IsdAsn, IsdAsn)>) {
    let (graph, leaves) = synthetic_graph();
    let store = BeaconEngine::new(&graph, 1_700_000_000, BeaconConfig::default())
        .run()
        .expect("beaconing succeeds");
    let db = EpochPathDb::new(store);
    let pairs: Vec<(IsdAsn, IsdAsn)> = (0..12)
        .map(|i| {
            let s = leaves[(i * 7) % leaves.len()];
            let d = leaves[(i * 7 + 19) % leaves.len()];
            (s, d)
        })
        .filter(|(s, d)| s != d)
        .collect();
    (db, pairs)
}

/// The invalidation the cold variant applies each iteration: kill one core
/// interface (removing every segment crossing it), then re-register the
/// setup-time segment set. Contents end up identical but the store carries
/// a new generation, so every cached entry is stale and must be triaged.
/// The per-bucket content fingerprints detect the restore — each touched
/// bucket's fingerprint returns to its pre-kill value — so entries
/// revalidate in place instead of recombining; the cold figure measures
/// the store mutation plus that triage sweep. (A mutation that genuinely
/// changes bucket contents still recombines — the differential tests and
/// proptests pin that path.)
struct Invalidation {
    ia: IsdAsn,
    ifid: u16,
    core_snapshot: Vec<SegmentHandle>,
}

impl Invalidation {
    fn capture(db: &EpochPathDb) -> Self {
        let snap = db.snapshot();
        let cores = snap.store().known_cores();
        let mut core_snapshot = Vec::new();
        for &a in &cores {
            for &b in &cores {
                core_snapshot.extend(snap.store().core_between_handles(a, b).iter().cloned());
            }
        }
        // A multi-hop core segment's first egress: killing it removes that
        // segment (and any other crossing the same link) without touching
        // up/down buckets.
        let seg = core_snapshot
            .iter()
            .find(|s| s.len() >= 2)
            .expect("mesh yields multi-hop core segments");
        let (ia, ifid) = (seg.entries[0].ia, seg.entries[0].hop.cons_egress);
        Invalidation {
            ia,
            ifid,
            core_snapshot,
        }
    }

    fn apply(&self, db: &EpochPathDb) {
        db.mutate_store(|store| {
            let removed = store.invalidate_interface(self.ia, self.ifid);
            assert!(removed > 0, "invalidation must remove segments");
            for h in &self.core_snapshot {
                store.register_core_handle(h.clone());
            }
        });
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Interleaved A/B/C comparison; returns median ns/query for
/// (reference combine, database warm, database cold-after-invalidation).
fn ab_compare(rounds: usize, iters: usize) -> (f64, f64, f64, usize) {
    let (db, pairs) = setup();
    let inval = Invalidation::capture(&db);

    // Differential sanity: the memoized DB must reproduce the reference
    // combinator byte-for-byte, both fresh and right after an
    // invalidate-and-restore cycle.
    for &(s, d) in &pairs {
        assert_eq!(
            db.paths(s, d, CAP),
            combine_paths(db.snapshot().store(), s, d, CAP),
            "memoized paths diverged for {s}->{d}"
        );
    }
    inval.apply(&db);
    for &(s, d) in &pairs {
        assert_eq!(
            db.paths(s, d, CAP),
            combine_paths(db.snapshot().store(), s, d, CAP),
            "memoized paths diverged after invalidation for {s}->{d}"
        );
    }

    let queries = iters * pairs.len();
    let (mut ref_ns, mut warm_ns, mut cold_ns) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..=rounds {
        let snap = db.snapshot();
        let t = Instant::now();
        for _ in 0..iters {
            for &(s, d) in &pairs {
                std::hint::black_box(combine_paths(snap.store(), s, d, CAP));
            }
        }
        let a = t.elapsed().as_nanos() as f64 / queries as f64;

        // Cache warmed by the sanity check / previous rounds.
        let t = Instant::now();
        for _ in 0..iters {
            for &(s, d) in &pairs {
                std::hint::black_box(db.paths(s, d, CAP));
            }
        }
        let b = t.elapsed().as_nanos() as f64 / queries as f64;

        // One invalidation per sweep over the pair set — every entry goes
        // generation-stale, then each query revalidates or recombines.
        let t = Instant::now();
        for _ in 0..iters {
            inval.apply(&db);
            for &(s, d) in &pairs {
                std::hint::black_box(db.paths(s, d, CAP));
            }
        }
        let c = t.elapsed().as_nanos() as f64 / queries as f64;

        if round > 0 {
            // Round 0 is warm-up for all three variants.
            ref_ns.push(a);
            warm_ns.push(b);
            cold_ns.push(c);
        }
    }
    (median(ref_ns), median(warm_ns), median(cold_ns), queries)
}

fn emit_json(reference: f64, warm: f64, cold: f64, rounds: usize, batch: usize, slo: &[SloPoint]) {
    let slo_lines: Vec<String> = slo
        .iter()
        .map(|p| {
            format!(
                "    {{\"clients\": {}, \"lookups\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"max_ns\": {}, \"storms\": {}, \"publishes\": {}}}",
                p.clients, p.lookups, p.p50_ns, p.p99_ns, p.max_ns, p.storms, p.publishes
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"control_pathdb\",\n  \"reference_ns_per_query\": {reference:.1},\n  \"pathdb_warm_ns_per_query\": {warm:.1},\n  \"pathdb_cold_ns_per_query\": {cold:.1},\n  \"speedup_warm\": {:.2},\n  \"speedup_cold\": {:.2},\n  \"rounds\": {rounds},\n  \"batch\": {batch},\n  \"slo\": [\n{}\n  ]\n}}\n",
        reference / warm,
        reference / cold,
        slo_lines.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_control.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("[pathops] could not write {path}: {e}");
    }
    eprintln!("[pathops] interleaved A/B over {rounds}x{batch} queries (68-AS synthetic):");
    eprintln!("  reference    {reference:>9.1} ns/query");
    eprintln!(
        "  pathdb warm  {warm:>9.1} ns/query  ({:.2}x)",
        reference / warm
    );
    eprintln!(
        "  pathdb cold  {cold:>9.1} ns/query  ({:.2}x)",
        reference / cold
    );
    eprintln!("[pathops] concurrency SLO (link-kill storm writer):");
    for p in slo {
        eprintln!(
            "  K={:<3} p50 {:>8} ns  p99 {:>9} ns  max {:>10} ns  ({} storms, {} publishes)",
            p.clients, p.p50_ns, p.p99_ns, p.max_ns, p.storms, p.publishes
        );
    }
}

fn bench_pathops(c: &mut Criterion) {
    let built = build_control_graph();
    let mut g = c.benchmark_group("control_plane");
    g.sample_size(20);
    g.bench_function("beacon_sciera_k8", |b| {
        b.iter_batched(
            || (),
            |_| {
                BeaconEngine::new(&built.graph, 1_700_000_000, BeaconConfig::default())
                    .run()
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    let store = BeaconEngine::new(
        &built.graph,
        1_700_000_000,
        BeaconConfig {
            candidates_per_origin: 32,
            ..Default::default()
        },
    )
    .run()
    .unwrap();
    g.bench_function("combine_uva_ufms", |b| {
        b.iter(|| combine_paths(&store, ia("71-225"), ia("71-2:0:5c"), 300))
    });
    let db = EpochPathDb::new(store.clone());
    g.bench_function("pathdb_warm_uva_ufms", |b| {
        b.iter(|| db.paths(ia("71-225"), ia("71-2:0:5c"), 300))
    });
    g.finish();
}

criterion_group!(benches, bench_pathops);

fn main() {
    let (reference, warm, cold, batch) = ab_compare(15, 4);
    let slo = run_slo(&SloConfig::default());
    emit_json(reference, warm, cold, 15, batch, &slo);
    benches();
}
