//! The path database: memoized path combination with concurrent lookups
//! and no global lock.
//!
//! [`EpochPathDb`] answers `(src, dst)` queries from a [`SegmentStore`],
//! keeping a bounded cache of answers keyed on `(src, dst, max_paths)`. It
//! is three independently-locked parts:
//!
//! * **The published snapshot** — an `Arc<PathSnapshot>` holding an
//!   immutable [`SegmentStore`] plus the generation it was published at.
//!   Readers acquire it with one brief `RwLock` read (a pointer clone, no
//!   allocation) and then combine paths against it with **no locks held**:
//!   the snapshot can never change under them, so a reader can never
//!   observe a half-applied registration or invalidation — it sees the
//!   store exactly as generation *G* published it, or exactly as *G+1*
//!   did, never in between.
//! * **The writer master** — a `Mutex<SegmentStore>` only writers touch.
//!   [`mutate_store`](EpochPathDb::mutate_store) applies a batch of
//!   registrations/expiries/interface kills to the master and then
//!   *publishes*: clones the master (cheap — buckets hold `Arc` segment
//!   handles, so a clone copies pointers, not segment bodies) into a
//!   fresh snapshot and swaps the published pointer. Publish latency and
//!   count land in `pathdb.publish_ns` / `pathdb.publish.count`.
//! * **The sharded result cache** — warm lookups hash their key to one of
//!   16 independently-locked maps, so concurrent readers contend
//!   only on key collisions within a shard, never on the writer and never
//!   on each other across shards. A hit is: snapshot read-clone, one
//!   shard lock, one `Arc` path-list clone. An entry holds one shared
//!   answer ([`FullPath`]): its paths' hops and uses in two flat arrays, no
//!   path body built.
//!
//! Soundness rests on the store's generation counter:
//!
//! * Every store mutation (registration, expiry, interface invalidation)
//!   bumps [`SegmentStore::generation`], so a cached entry stamped with
//!   another generation than the snapshot's is *known possibly-stale* —
//!   there is no code path that changes store contents without moving the
//!   counter.
//! * A stale entry is not necessarily wrong: each entry also records the
//!   content fingerprint ([`SegmentStore::bucket_fingerprint`]) of every
//!   bucket its combination consulted (including empty buckets, whose
//!   emptiness decided the combination shape). If none of those
//!   fingerprints differ, the consulted contents are identical and the
//!   entry is revalidated in place — an unrelated mutation, or one that
//!   removed and then restored the same segments, costs a handful of map
//!   probes, not a recombination.
//! * Otherwise the entry is recombined, whole — through the single
//!   `combine_paths_recorded` code path, so memoized and fresh results
//!   are byte-for-byte identical by construction. The cache keeps answers,
//!   not the candidates they were picked from: a miss assembles only what
//!   its answer reaches, which is cheaper than carrying every candidate of
//!   every entry for the rare change that touches core buckets alone.
//! * A cache entry always records the generation of the snapshot its
//!   paths were combined from, and install never lets an entry go
//!   backwards — a reader racing on an older snapshot cannot overwrite a
//!   newer entry.
//!
//! A served result therefore always equals a fresh `combine_paths` against
//! the snapshot generation returned alongside it, which is exactly what
//! the concurrency stress test asserts.
//!
//! Counters: `pathdb.cache.{hit,miss,evict,invalidate,revalidate}` plus
//! the `store.generation` gauge, surfaced on the operator console's
//! `pathdb:` line and in the Prometheus exposition.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use sciera_telemetry::work::{self, Work};
use sciera_telemetry::{Counter, Gauge, Histogram, Telemetry};
use scion_proto::addr::IsdAsn;

use crate::combine::{combine_paths_recorded, CombineRecord};
use crate::fullpath::{approx_shared_bytes, FullPath};
use crate::store::{BucketDep, SegmentStore};

/// Number of independently-locked cache shards.
const SHARDS: usize = 16;

/// Sizing of the epoch database's sharded cache.
#[derive(Debug, Clone, Copy)]
pub struct EpochConfig {
    /// Total cached entries across all shards (per-shard capacity is
    /// `capacity / SHARDS`, at least 1).
    pub capacity: usize,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig { capacity: 4096 }
    }
}

impl EpochConfig {
    /// Topology-proportional sizing: the warm working set of the scale
    /// observatory is one entry per queried (src, dst) pair and the pair
    /// pool grows linearly with the AS count, so the cache must too — the
    /// fixed 2048-entry cache is exactly what collapsed N=5000 to 946
    /// queries/sec. Eight entries per AS keeps the hit rate flat through
    /// the 100→5000 sweep while staying bounded.
    pub fn for_topology(n_ases: usize) -> Self {
        EpochConfig {
            capacity: (8 * n_ases).max(4096),
        }
    }
}

/// An immutable store snapshot published at one generation. Readers hold
/// it by `Arc`; everything reachable from it is frozen.
pub struct PathSnapshot {
    store: SegmentStore,
    generation: u64,
    published_at: Instant,
}

impl PathSnapshot {
    /// The frozen store contents.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// The store generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Time since this snapshot was published — the reader-visible
    /// staleness bound (a new publish replaces the pointer immediately;
    /// age only accrues on snapshots a reader is still holding).
    pub fn age(&self) -> std::time::Duration {
        self.published_at.elapsed()
    }
}

type CacheKey = (IsdAsn, IsdAsn, usize);

#[derive(Clone)]
struct Entry {
    /// Snapshot generation the paths were combined at (or last revalidated
    /// against). Monotone per key: install never moves it backwards.
    generation: u64,
    deps: Vec<(BucketDep, u64)>,
    paths: Arc<Vec<FullPath>>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// Metric handles, swapped atomically as a bundle by `set_telemetry` so
/// no lock is held while recording (every handle is an `Arc` of atomics).
struct Metrics {
    telemetry: Telemetry,
    hits: Counter,
    misses: Counter,
    evicts: Counter,
    invalidates: Counter,
    revalidates: Counter,
    publishes: Counter,
    publish_ns: Histogram,
    generation_gauge: Gauge,
    combine_ns: Histogram,
    paths_combined: Counter,
    entries_gauge: Gauge,
    cache_bytes_gauge: Gauge,
    store_segments_gauge: Gauge,
    store_bytes_gauge: Gauge,
}

impl Metrics {
    fn new(telemetry: Telemetry) -> Self {
        Metrics {
            hits: telemetry.counter("pathdb.cache.hit"),
            misses: telemetry.counter("pathdb.cache.miss"),
            evicts: telemetry.counter("pathdb.cache.evict"),
            invalidates: telemetry.counter("pathdb.cache.invalidate"),
            revalidates: telemetry.counter("pathdb.cache.revalidate"),
            publishes: telemetry.counter("pathdb.publish.count"),
            publish_ns: telemetry.histogram("pathdb.publish_ns"),
            generation_gauge: telemetry.gauge("store.generation"),
            combine_ns: telemetry.histogram("control.combine_ns"),
            paths_combined: telemetry.counter("control.paths_combined"),
            entries_gauge: telemetry.gauge("pathdb.cache.entries"),
            cache_bytes_gauge: telemetry.gauge("pathdb.cache.bytes"),
            store_segments_gauge: telemetry.gauge("store.segments"),
            store_bytes_gauge: telemetry.gauge("store.interned_bytes"),
            telemetry,
        }
    }
}

struct Inner {
    cfg: EpochConfig,
    published: RwLock<Arc<PathSnapshot>>,
    /// The writer's master store. Lock order (when nested): `master`
    /// before shard locks before `published`; metrics are never held
    /// across another lock (the `Arc<Metrics>` is cloned out first).
    master: Mutex<SegmentStore>,
    shards: Vec<Mutex<Shard>>,
    metrics: RwLock<Arc<Metrics>>,
}

/// The epoch-snapshot path database. `Clone` is an `Arc` bump — clones
/// share the store, the cache and the metrics, so the handle itself is
/// what components pass around (no outer `Arc<Mutex<_>>`).
#[derive(Clone)]
pub struct EpochPathDb {
    inner: Arc<Inner>,
}

impl EpochPathDb {
    /// Wraps `store` with a default-sized cache.
    pub fn new(store: SegmentStore) -> Self {
        Self::with_config(store, EpochConfig::default())
    }

    /// Wraps `store` with explicit sizing.
    pub fn with_config(store: SegmentStore, cfg: EpochConfig) -> Self {
        let cfg = EpochConfig {
            capacity: cfg.capacity.max(1),
        };
        let metrics = Metrics::new(Telemetry::quiet());
        metrics.generation_gauge.set(store.generation());
        let snapshot = Arc::new(PathSnapshot {
            generation: store.generation(),
            store: store.clone(),
            published_at: Instant::now(),
        });
        EpochPathDb {
            inner: Arc::new(Inner {
                published: RwLock::new(snapshot),
                master: Mutex::new(store),
                shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
                metrics: RwLock::new(Arc::new(metrics)),
                cfg,
            }),
        }
    }

    /// Re-registers the database's metrics on a shared telemetry handle.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        let metrics = Metrics::new(telemetry);
        metrics
            .generation_gauge
            .set(self.inner.published.read().generation);
        *self.inner.metrics.write() = Arc::new(metrics);
    }

    /// The telemetry handle this database records into.
    pub fn telemetry(&self) -> Telemetry {
        self.m().telemetry.clone()
    }

    fn m(&self) -> Arc<Metrics> {
        self.inner.metrics.read().clone()
    }

    /// The currently-published snapshot: one brief read-lock, one `Arc`
    /// clone. Everything reachable from it is immutable.
    pub fn snapshot(&self) -> Arc<PathSnapshot> {
        self.inner.published.read().clone()
    }

    /// The published store generation.
    pub fn generation(&self) -> u64 {
        self.inner.published.read().generation
    }

    /// Applies a batch of mutations to the writer's master store, then
    /// publishes the result as a fresh snapshot. Returns the closure's
    /// result. Writers serialize on the master lock; readers are never
    /// blocked (they keep combining against the previous snapshot until
    /// the pointer swap).
    pub fn mutate_store<R>(&self, f: impl FnOnce(&mut SegmentStore) -> R) -> R {
        let m = self.m();
        let mut master = self.inner.master.lock();
        let r = f(&mut master);
        let start = Instant::now();
        let snapshot = Arc::new(PathSnapshot {
            generation: master.generation(),
            store: master.clone(),
            published_at: Instant::now(),
        });
        *self.inner.published.write() = snapshot;
        m.publishes.inc();
        m.publish_ns.record(start.elapsed().as_nanos() as f64);
        m.generation_gauge.set(master.generation());
        r
    }

    /// Drops every cached entry containing a path crossing interface
    /// `ifid` of `ia` — the SCMP `ExternalInterfaceDown` reaction. The
    /// store (and its generation) is untouched: the segments are still
    /// validly signed (liveness is the data plane's concern), so the next
    /// query recombines from current contents. The sweep holds
    /// the master lock so it serializes with publishes, and visits every
    /// shard before returning — a lookup issued after this returns can
    /// only see swept shards. Returns how many entries were dropped.
    pub fn invalidate_paths_crossing(&self, ia: IsdAsn, ifid: u16) -> usize {
        let m = self.m();
        let _writer = self.inner.master.lock();
        let mut dropped = 0usize;
        for shard in &self.inner.shards {
            let mut s = shard.lock();
            let before = s.entries.len();
            s.entries
                .retain(|_, e| !e.paths.iter().any(|p| p.crosses(ia, ifid)));
            dropped += before - s.entries.len();
        }
        m.invalidates.add(dropped as u64);
        dropped
    }

    /// Memoized equivalent of
    /// [`combine_paths`](crate::combine::combine_paths) against the
    /// currently-published snapshot: byte-for-byte the same result. The
    /// answer is the caller's own list of handles to the cached paths — a
    /// reference-count bump per path, no copy — and paths being immutable,
    /// nothing the cache does later changes what the caller holds.
    pub fn paths(&self, src: IsdAsn, dst: IsdAsn, max_paths: usize) -> Vec<FullPath> {
        self.query(src, dst, max_paths).0.to_vec()
    }

    /// [`paths`](Self::paths) without the caller's own list: the shared
    /// one straight from the cache (the warm fast path of the SLO
    /// harness), plus the snapshot generation it was served from.
    pub fn paths_with_generation(
        &self,
        src: IsdAsn,
        dst: IsdAsn,
        max_paths: usize,
    ) -> (Arc<Vec<FullPath>>, u64) {
        self.query(src, dst, max_paths)
    }

    /// Pre-warms the cache for a batch of (src, dst) pairs against one
    /// snapshot, skipping pairs already warm at its generation. Returns
    /// how many pairs were combined.
    pub fn prefetch(&self, pairs: &[(IsdAsn, IsdAsn)], max_paths: usize) -> usize {
        let m = self.m();
        let snap = self.snapshot();
        let todo: Vec<(IsdAsn, IsdAsn)> = pairs
            .iter()
            .copied()
            .filter(|&(src, dst)| {
                let key = (src, dst, max_paths);
                work::add(Work::CacheProbes, 1);
                let shard = self.inner.shards[self.shard_of(&key)].lock();
                shard
                    .entries
                    .get(&key)
                    .is_none_or(|e| e.generation != snap.generation)
            })
            .collect();
        if todo.is_empty() {
            return 0;
        }
        let _prof = m.telemetry.prof_scope("pathdb.combine");
        for &(src, dst) in &todo {
            let record = combine(&m, &snap, src, dst, max_paths);
            m.misses.inc();
            let paths = self.install(&m, &snap, (src, dst, max_paths), record);
            m.paths_combined.add(paths.len() as u64);
        }
        todo.len()
    }

    /// Number of cached entries across all shards.
    pub fn cached_entries(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().entries.len())
            .sum()
    }

    /// Drops every cached entry (the big hammer; normal operation never
    /// needs it — generation checks handle staleness).
    pub fn flush(&self) {
        for shard in &self.inner.shards {
            shard.lock().entries.clear();
        }
    }

    /// Approximate resident bytes of the cache itself: each entry and the
    /// paths of its answer. Interned segment bodies are the store's (see
    /// [`SegmentStore::approx_bytes`]).
    pub fn approx_cache_bytes(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| {
                let s = shard.lock();
                s.entries
                    .values()
                    .map(|e| std::mem::size_of::<Entry>() + approx_shared_bytes(&*e.paths))
                    .sum::<usize>()
            })
            .sum()
    }

    /// Refreshes the resource gauges (`pathdb.cache.entries/bytes`,
    /// `store.segments/interned_bytes`). O(cache + store) — meant for
    /// console renders and sweep snapshots, not the per-query hot path.
    pub fn record_resource_gauges(&self) {
        let m = self.m();
        let snap = self.snapshot();
        m.entries_gauge.set(self.cached_entries() as u64);
        m.cache_bytes_gauge.set(self.approx_cache_bytes() as u64);
        m.store_segments_gauge.set(snap.store.len() as u64);
        m.store_bytes_gauge.set(snap.store.approx_bytes() as u64);
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    fn query(&self, src: IsdAsn, dst: IsdAsn, max_paths: usize) -> (Arc<Vec<FullPath>>, u64) {
        let m = self.m();
        let _prof = m.telemetry.prof_scope("pathdb.query");
        let snap = self.snapshot();
        let gen = snap.generation;
        let key = (src, dst, max_paths);
        let idx = self.shard_of(&key);

        // Warm fast path plus staleness triage, all under one shard lock.
        {
            work::add(Work::CacheProbes, 1);
            let mut shard = self.inner.shards[idx].lock();
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(e) = shard.entries.get_mut(&key) {
                e.last_used = tick;
                if e.generation == gen {
                    m.hits.inc();
                    let paths = e.paths.clone();
                    drop(shard);
                    m.paths_combined.add(paths.len() as u64);
                    return (paths, gen);
                }
                // Entry and snapshot are at different generations: if no
                // consulted bucket's content fingerprint differs between
                // them, the combination is identical at both — serve it,
                // and fast-forward the entry when the snapshot is the
                // newer side.
                let unchanged = e
                    .deps
                    .iter()
                    .all(|(dep, f)| snap.store.bucket_fingerprint(*dep) == *f);
                if unchanged {
                    if gen > e.generation {
                        e.generation = gen;
                    }
                    m.hits.inc();
                    m.revalidates.inc();
                    let paths = e.paths.clone();
                    drop(shard);
                    m.paths_combined.add(paths.len() as u64);
                    return (paths, gen);
                }
                // A consulted bucket changed: the entry is recombined, whole.
                m.invalidates.inc();
            } else {
                m.misses.inc();
            }
        }

        // Combine against the snapshot with no locks held.
        let record = {
            let _c = m.telemetry.prof_scope("pathdb.combine");
            combine(&m, &snap, src, dst, max_paths)
        };
        let paths = self.install(&m, &snap, key, record);
        m.paths_combined.add(paths.len() as u64);
        (paths, gen)
    }

    /// Installs a combination record produced against `snap`. Never moves
    /// an entry backwards: if a concurrent reader already installed a result
    /// from a newer snapshot, that entry is kept and our (older, still
    /// internally-consistent) paths are only returned to the caller.
    fn install(
        &self,
        m: &Metrics,
        snap: &PathSnapshot,
        key: CacheKey,
        record: CombineRecord,
    ) -> Arc<Vec<FullPath>> {
        let CombineRecord { paths, deps } = record;
        let paths = Arc::new(paths);
        let per_shard = (self.inner.cfg.capacity / SHARDS).max(1);
        work::add(Work::CacheProbes, 1);
        let mut shard = self.inner.shards[self.shard_of(&key)].lock();
        shard.tick += 1;
        let tick = shard.tick;
        if shard
            .entries
            .get(&key)
            .is_some_and(|e| e.generation > snap.generation)
        {
            return paths;
        }
        if !shard.entries.contains_key(&key) && shard.entries.len() >= per_shard {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.entries.remove(&oldest);
                m.evicts.inc();
            }
        }
        shard.entries.insert(
            key,
            Entry {
                generation: snap.generation,
                deps,
                paths: paths.clone(),
                last_used: tick,
            },
        );
        paths
    }
}

/// One combination against `snap`, timed into `control.combine_ns`: the
/// histogram holds combinations, a query miss's or a prefetch's, and never a
/// cache hit. (`control.paths_combined` counts paths served per lookup.)
fn combine(
    m: &Metrics,
    snap: &PathSnapshot,
    src: IsdAsn,
    dst: IsdAsn,
    max_paths: usize,
) -> CombineRecord {
    let start = Instant::now();
    let record = combine_paths_recorded(&snap.store, src, dst, max_paths);
    m.combine_ns.record(start.elapsed().as_nanos() as f64);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{BeaconConfig, BeaconEngine};
    use crate::combine::combine_paths;
    use crate::graph::{ControlGraph, LinkType};
    use scion_proto::addr::ia;

    /// Three cores and four leaves, plus a leaf peering link.
    fn mesh() -> SegmentStore {
        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-2"), true);
        g.add_as(ia("71-3"), true);
        for (core, leaf) in [
            ("71-1", "71-10"),
            ("71-1", "71-11"),
            ("71-2", "71-20"),
            ("71-3", "71-30"),
        ] {
            g.add_as(ia(leaf), false);
            g.connect(ia(core), ia(leaf), LinkType::Child).unwrap();
        }
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        g.connect(ia("71-2"), ia("71-3"), LinkType::Core).unwrap();
        g.connect(ia("71-1"), ia("71-3"), LinkType::Core).unwrap();
        g.connect(ia("71-10"), ia("71-20"), LinkType::Peer).unwrap();
        BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap()
    }

    fn assert_matches_fresh(db: &EpochPathDb, src: &str, dst: &str) {
        let memo = db.paths(ia(src), ia(dst), 100);
        let snap = db.snapshot();
        let fresh = combine_paths(snap.store(), ia(src), ia(dst), 100);
        assert_eq!(memo, fresh, "{src}->{dst} memoized != fresh");
    }

    #[test]
    fn warm_queries_hit_and_match_fresh() {
        let db = EpochPathDb::new(mesh());
        for _ in 0..3 {
            assert_matches_fresh(&db, "71-10", "71-20");
            assert_matches_fresh(&db, "71-10", "71-2");
            assert_matches_fresh(&db, "71-1", "71-3");
        }
        assert_eq!(db.cached_entries(), 3);
        let m = db.m();
        assert_eq!(m.misses.get(), 3);
        assert_eq!(m.hits.get(), 6);
        assert_eq!(m.invalidates.get(), 0);
    }

    #[test]
    fn store_mutation_republishes_and_changes_results() {
        let db = EpochPathDb::new(mesh());
        let before = db.paths(ia("71-10"), ia("71-20"), 100);
        assert!(!before.is_empty());
        let gen_before = db.generation();
        // Kill the interface core 71-2 uses toward leaf 71-20.
        let down = db.snapshot().store().up_segment_handles(ia("71-20"))[0].clone();
        let ifid = down.entries[0].hop.cons_egress;
        let killed = db.mutate_store(|s| s.invalidate_interface(ia("71-2"), ifid));
        assert!(killed > 0);
        assert!(db.generation() > gen_before, "mutation must publish");
        let after = db.paths(ia("71-10"), ia("71-20"), 100);
        let fresh = combine_paths(db.snapshot().store(), ia("71-10"), ia("71-20"), 100);
        assert_eq!(after, fresh);
        assert_ne!(before, after, "mutation must change the result");
        assert_eq!(db.m().invalidates.get(), 1);
    }

    #[test]
    fn old_snapshot_stays_readable_after_publish() {
        let db = EpochPathDb::new(mesh());
        let old = db.snapshot();
        let old_fresh = combine_paths(old.store(), ia("71-10"), ia("71-20"), 100);
        let down = db.snapshot().store().up_segment_handles(ia("71-20"))[0].clone();
        let ifid = down.entries[0].hop.cons_egress;
        db.mutate_store(|s| s.invalidate_interface(ia("71-2"), ifid));
        // The retained snapshot is frozen: same generation, same result.
        assert_eq!(
            combine_paths(old.store(), ia("71-10"), ia("71-20"), 100),
            old_fresh
        );
        assert!(db.generation() > old.generation());
    }

    #[test]
    fn install_never_moves_an_entry_backwards() {
        let db = EpochPathDb::new(mesh());
        let old = db.snapshot();
        // Publish a newer generation and warm the cache at it.
        let down = db.snapshot().store().up_segment_handles(ia("71-20"))[0].clone();
        let ifid = down.entries[0].hop.cons_egress;
        db.mutate_store(|s| s.invalidate_interface(ia("71-2"), ifid));
        let new_paths = db.paths(ia("71-10"), ia("71-20"), 100);
        // Simulate a straggler reader installing from the old snapshot.
        let record = combine_paths_recorded(old.store(), ia("71-10"), ia("71-20"), 100);
        let m = db.m();
        let served = db.install(&m, &old, (ia("71-10"), ia("71-20"), 100), record);
        // The straggler gets its own (old-snapshot-consistent) result…
        assert_eq!(
            *served,
            combine_paths(old.store(), ia("71-10"), ia("71-20"), 100)
        );
        // …but the cache still serves the newer generation's paths.
        assert_eq!(db.paths(ia("71-10"), ia("71-20"), 100), new_paths);
    }

    #[test]
    fn crossing_invalidation_drops_only_affected_entries() {
        let db = EpochPathDb::new(mesh());
        let p1020 = db.paths(ia("71-10"), ia("71-20"), 100);
        db.paths(ia("71-10"), ia("71-30"), 100);
        assert_eq!(db.cached_entries(), 2);
        let (ia_down, ifid) = *p1020[0]
            .interfaces()
            .iter()
            .find(|(a, _)| *a == ia("71-20"))
            .unwrap();
        assert_eq!(db.invalidate_paths_crossing(ia_down, ifid), 1);
        assert_eq!(db.cached_entries(), 1);
        assert_eq!(db.invalidate_paths_crossing(ia("71-2"), 999), 0);
        assert_matches_fresh(&db, "71-10", "71-20");
    }

    #[test]
    fn eviction_bounds_each_shard() {
        // Two entries a shard; three answer caps of one pair whose keys
        // land in one shard.
        let db = EpochPathDb::with_config(
            mesh(),
            EpochConfig {
                capacity: 2 * SHARDS,
            },
        );
        let (src, dst) = (ia("71-10"), ia("71-20"));
        let caps: Vec<usize> = {
            let shard = db.shard_of(&(src, dst, 100));
            (100..)
                .filter(|&cap| db.shard_of(&(src, dst, cap)) == shard)
                .take(3)
                .collect()
        };
        for &cap in &caps {
            db.paths(src, dst, cap);
        }
        assert_eq!(db.cached_entries(), 2);
        assert_eq!(db.m().evicts.get(), 1);
        // The least recently used key was evicted: it recombines and still
        // matches fresh.
        let misses = db.m().misses.get();
        let memo = db.paths(src, dst, caps[0]);
        assert_eq!(db.m().misses.get(), misses + 1);
        assert_eq!(
            memo,
            combine_paths(db.snapshot().store(), src, dst, caps[0])
        );
    }

    #[test]
    fn prefetch_warms_the_cache_identically_to_queries() {
        let db = EpochPathDb::new(mesh());
        let pairs = [
            (ia("71-10"), ia("71-20")),
            (ia("71-10"), ia("71-30")),
            (ia("71-11"), ia("71-20")),
        ];
        assert_eq!(db.prefetch(&pairs, 100), 3);
        assert_eq!(db.cached_entries(), 3);
        // Re-prefetch at the same generation is a no-op.
        assert_eq!(db.prefetch(&pairs, 100), 0);
        for (src, dst) in pairs {
            let snap = db.snapshot();
            assert_eq!(
                db.paths(src, dst, 100),
                combine_paths(snap.store(), src, dst, 100)
            );
        }
    }

    #[test]
    fn only_a_combination_is_timed() {
        let db = EpochPathDb::new(mesh());
        let telemetry = Telemetry::new();
        db.set_telemetry(telemetry.clone());
        let (src, dst) = (ia("71-10"), ia("71-20"));
        let answer = db.paths(src, dst, 100).len();
        for _ in 0..5 {
            assert_eq!(db.paths(src, dst, 100).len(), answer);
        }
        let snap = telemetry.snapshot();
        let timed = |snap: &sciera_telemetry::TelemetrySnapshot| {
            snap.histogram("control.combine_ns").map(|h| h.count)
        };
        assert_eq!(timed(&snap), Some(1), "one miss, five hits");
        assert_eq!(
            snap.counter("control.paths_combined"),
            Some(6 * answer as u64)
        );
        // A prefetch combines, so it is timed too, once per pair.
        assert_eq!(db.prefetch(&[(src, ia("71-30")), (dst, src)], 100), 2);
        assert_eq!(timed(&telemetry.snapshot()), Some(3));
    }

    #[test]
    fn unrelated_mutation_revalidates_without_recombination() {
        let db = EpochPathDb::new(mesh());
        db.paths(ia("71-10"), ia("71-20"), 100);
        // Mutate a bucket the 10->20 combination never consults.
        let seg30 = db.snapshot().store().up_segment_handles(ia("71-30"))[0].clone();
        let ifid = seg30.entries[0].hop.cons_egress;
        assert!(db.mutate_store(|s| s.invalidate_interface(ia("71-3"), ifid)) > 0);
        assert_matches_fresh(&db, "71-10", "71-20");
        let m = db.m();
        assert_eq!(m.revalidates.get(), 1);
        assert_eq!(m.invalidates.get(), 0);
    }

    #[test]
    fn cache_accounting_counts_a_shared_group_once() {
        let db = EpochPathDb::new(mesh());
        let handle = std::mem::size_of::<FullPath>();
        let mut expect = 0;
        // Leaf to leaf and core to leaf alike: an entry is its answer, a
        // handle per path and each length's shared group once, and nothing
        // is kept beside it.
        for (src, dst) in [("71-10", "71-30"), ("71-1", "71-30")] {
            let answer = db.paths(ia(src), ia(dst), 100);
            assert!(answer.len() > 1);
            expect += std::mem::size_of::<Entry>() + answer.len() * handle;
            let groups = answer.chunk_by(|a, b| a.len() == b.len());
            expect += groups.map(|g| g[0].approx_bytes()).sum::<usize>();
            // The caller's handles are to the cached answer, not copies: the
            // cache's bytes are the same while `answer` is alive and after.
            assert_eq!(db.approx_cache_bytes(), expect);
        }
        assert_eq!(db.approx_cache_bytes(), expect);
    }

    #[test]
    fn core_only_change_recombines_and_matches_fresh() {
        let db = EpochPathDb::new(mesh());
        db.paths(ia("71-10"), ia("71-30"), 100);
        let seg = {
            use crate::segment::{AsSecrets, CowSegment, SegmentType};
            CowSegment::originate(SegmentType::Core, 1_700_000_123, 7)
                .extend(&AsSecrets::derive(ia("71-3")), 0, 91, &[])
                .extend(&AsSecrets::derive(ia("71-1")), 92, 0, &[])
                .materialize()
        };
        db.mutate_store(|s| {
            s.register_core(seg);
        });
        let memo = db.paths(ia("71-10"), ia("71-30"), 100);
        assert_eq!(
            memo,
            combine_paths(db.snapshot().store(), ia("71-10"), ia("71-30"), 100)
        );
        let m = db.m();
        assert_eq!(m.invalidates.get(), 1);
        assert_eq!(m.revalidates.get(), 0);
        assert_eq!(m.misses.get(), 1);
    }
}
