//! Memoized path combination: the control-plane fast path.
//!
//! [`PathDb`] owns a [`SegmentStore`] and a bounded LRU of combined
//! [`FullPath`] lists keyed on `(src, dst, policy fingerprint, max_paths)`.
//! Soundness rests entirely on the store's generation counter:
//!
//! * Every store mutation (registration, expiry, interface invalidation)
//!   bumps [`SegmentStore::generation`], so a cached entry stamped with an
//!   older generation is *known possibly-stale* — there is no code path
//!   that changes store contents without moving the counter.
//! * A stale entry is not necessarily wrong: each entry also records the
//!   content fingerprint ([`SegmentStore::bucket_fingerprint`]) of every
//!   bucket its combination consulted (including empty buckets, whose
//!   emptiness decided the combination shape). If none of those
//!   fingerprints differ, the consulted contents are identical and the
//!   entry is revalidated in place — an unrelated mutation, or one that
//!   removed and then restored the same segments, costs a handful of map
//!   probes, not a recombination.
//! * Otherwise the entry is recombined, whole — through the single
//!   [`combine_paths_recorded`] code path, so memoized and fresh results
//!   are byte-for-byte identical by construction. The cache keeps answers,
//!   not the candidates they were picked from: a miss assembles only what
//!   its answer reaches, which is cheaper than carrying every candidate of
//!   every entry for the rare change that touches core buckets alone.
//!
//! Counters: `pathdb.cache.{hit,miss,evict,invalidate,revalidate}`
//! plus the `store.generation` gauge, surfaced on the operator console's
//! `pathdb:` line and in the Prometheus exposition.

use std::collections::HashMap;

use sciera_telemetry::{Counter, Gauge, Histogram, Telemetry};
use scion_proto::addr::IsdAsn;

use crate::combine::{combine_paths_recorded, CombineRecord};
use crate::fullpath::{approx_shared_bytes, FullPath};
use crate::policy::PathPolicy;
use crate::store::{BucketDep, SegmentStore};

/// A stable fingerprint of a path policy, used in cache keys so queries
/// under different policies never alias. The empty/default policy (and
/// "no policy") fingerprint to 0.
pub fn policy_fingerprint(policy: &PathPolicy) -> u64 {
    if policy.sequence.is_none()
        && policy.acl.rules.is_empty()
        && policy.transit.commercial.is_empty()
    {
        return 0;
    }
    let encoded = serde_json::to_string(policy).unwrap_or_default();
    let digest = scion_crypto::sha256::sha256(encoded.as_bytes());
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
}

/// Sizing knobs for the memoizer.
#[derive(Debug, Clone, Copy)]
pub struct PathDbConfig {
    /// Maximum cached (src, dst, policy, cap) entries; least recently used
    /// entries are evicted beyond this.
    pub capacity: usize,
}

impl Default for PathDbConfig {
    fn default() -> Self {
        PathDbConfig { capacity: 512 }
    }
}

type CacheKey = (IsdAsn, IsdAsn, u64, usize);

#[derive(Debug, Clone)]
struct Entry {
    /// Store generation at which this entry was last (re)validated.
    generation: u64,
    /// Bucket content fingerprints observed when the combination ran.
    deps: Vec<(BucketDep, u64)>,
    /// Finalized (and policy-filtered, if keyed with a policy) paths.
    paths: Vec<FullPath>,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// The memoized path database.
pub struct PathDb {
    store: SegmentStore,
    cfg: PathDbConfig,
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
    telemetry: Telemetry,
    hits: Counter,
    misses: Counter,
    evicts: Counter,
    invalidates: Counter,
    revalidates: Counter,
    generation_gauge: Gauge,
    combine_ns: Histogram,
    paths_combined: Counter,
    entries_gauge: Gauge,
    cache_bytes_gauge: Gauge,
    store_segments_gauge: Gauge,
    store_bytes_gauge: Gauge,
}

impl PathDb {
    /// Wraps `store` with a default-sized cache.
    pub fn new(store: SegmentStore) -> Self {
        Self::with_config(store, PathDbConfig::default())
    }

    /// Wraps `store` with explicit sizing.
    pub fn with_config(store: SegmentStore, cfg: PathDbConfig) -> Self {
        let telemetry = Telemetry::quiet();
        let db = PathDb {
            store,
            cfg,
            entries: HashMap::new(),
            tick: 0,
            hits: telemetry.counter("pathdb.cache.hit"),
            misses: telemetry.counter("pathdb.cache.miss"),
            evicts: telemetry.counter("pathdb.cache.evict"),
            invalidates: telemetry.counter("pathdb.cache.invalidate"),
            revalidates: telemetry.counter("pathdb.cache.revalidate"),
            generation_gauge: telemetry.gauge("store.generation"),
            combine_ns: telemetry.histogram("control.combine_ns"),
            paths_combined: telemetry.counter("control.paths_combined"),
            entries_gauge: telemetry.gauge("pathdb.cache.entries"),
            cache_bytes_gauge: telemetry.gauge("pathdb.cache.bytes"),
            store_segments_gauge: telemetry.gauge("store.segments"),
            store_bytes_gauge: telemetry.gauge("store.interned_bytes"),
            telemetry,
        };
        db.generation_gauge.set(db.store.generation());
        db
    }

    /// Re-registers the database's metrics on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.hits = telemetry.counter("pathdb.cache.hit");
        self.misses = telemetry.counter("pathdb.cache.miss");
        self.evicts = telemetry.counter("pathdb.cache.evict");
        self.invalidates = telemetry.counter("pathdb.cache.invalidate");
        self.revalidates = telemetry.counter("pathdb.cache.revalidate");
        self.generation_gauge = telemetry.gauge("store.generation");
        self.combine_ns = telemetry.histogram("control.combine_ns");
        self.paths_combined = telemetry.counter("control.paths_combined");
        self.entries_gauge = telemetry.gauge("pathdb.cache.entries");
        self.cache_bytes_gauge = telemetry.gauge("pathdb.cache.bytes");
        self.store_segments_gauge = telemetry.gauge("store.segments");
        self.store_bytes_gauge = telemetry.gauge("store.interned_bytes");
        self.generation_gauge.set(self.store.generation());
        self.telemetry = telemetry;
    }

    /// The telemetry handle this database records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Approximate resident bytes of the cache itself: each entry and the
    /// paths of its answer. Interned segment bodies are the store's (see
    /// [`SegmentStore::approx_bytes`]).
    pub fn approx_cache_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|e| std::mem::size_of::<Entry>() + approx_shared_bytes(&e.paths))
            .sum()
    }

    /// Refreshes the resource gauges (`pathdb.cache.entries/bytes`,
    /// `store.segments/interned_bytes`). O(cache + store) — meant for
    /// console renders and sweep snapshots, not the per-query hot path.
    pub fn record_resource_gauges(&self) {
        self.entries_gauge.set(self.entries.len() as u64);
        self.cache_bytes_gauge.set(self.approx_cache_bytes() as u64);
        self.store_segments_gauge.set(self.store.len() as u64);
        self.store_bytes_gauge.set(self.store.approx_bytes() as u64);
    }

    /// Read access to the wrapped store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Mutable access to the wrapped store. Safe by construction: every
    /// content mutation bumps the store's generation, which is the only
    /// validity signal cached entries rely on.
    pub fn store_mut(&mut self) -> &mut SegmentStore {
        &mut self.store
    }

    /// The wrapped store's current generation.
    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    /// Number of cached entries.
    pub fn cached_entries(&self) -> usize {
        self.entries.len()
    }

    /// Drops every cached entry (the big hammer; normal operation never
    /// needs it — generation checks handle staleness).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Drops every cached entry containing a path that crosses interface
    /// `ifid` of `ia` — the reaction to an SCMP `ExternalInterfaceDown`
    /// observed by the prober. The store is untouched (the segments are
    /// still validly signed; liveness is the data plane's concern), so the
    /// next query recombines from current contents. Returns how many
    /// entries were dropped.
    pub fn invalidate_paths_crossing(&mut self, ia: IsdAsn, ifid: u16) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|_, e| !e.paths.iter().any(|p| p.crosses(ia, ifid)));
        let dropped = before - self.entries.len();
        self.invalidates.add(dropped as u64);
        dropped
    }

    /// Memoized equivalent of
    /// [`combine_paths`](crate::combine::combine_paths): byte-for-byte the
    /// same result, served from cache when the store generation allows.
    pub fn paths(&mut self, src: IsdAsn, dst: IsdAsn, max_paths: usize) -> Vec<FullPath> {
        self.query(src, dst, max_paths, None)
    }

    /// Memoized combination followed by policy filtering; cached per
    /// policy fingerprint, so distinct policies never alias. Equivalent to
    /// `combine_paths(..)` + `policy.filter(..)`.
    pub fn paths_filtered(
        &mut self,
        src: IsdAsn,
        dst: IsdAsn,
        max_paths: usize,
        policy: &PathPolicy,
    ) -> Vec<FullPath> {
        self.query(src, dst, max_paths, Some(policy))
    }

    fn query(
        &mut self,
        src: IsdAsn,
        dst: IsdAsn,
        max_paths: usize,
        policy: Option<&PathPolicy>,
    ) -> Vec<FullPath> {
        let _prof = self.telemetry.prof_scope("pathdb.query");
        let start = std::time::Instant::now();
        let gen = self.store.generation();
        self.generation_gauge.set(gen);
        let fp = policy.map(policy_fingerprint).unwrap_or(0);
        let key = (src, dst, fp, max_paths);
        self.tick += 1;
        let tick = self.tick;

        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used = tick;
            if e.generation == gen {
                self.hits.inc();
                let paths = e.paths.clone();
                self.finish_query(start, &paths);
                return paths;
            }
            // Stale generation: did the contents of any bucket we depend
            // on actually change?
            let unchanged = e
                .deps
                .iter()
                .all(|(dep, f)| self.store.bucket_fingerprint(*dep) == *f);
            if unchanged {
                e.generation = gen;
                self.hits.inc();
                self.revalidates.inc();
                let paths = e.paths.clone();
                self.finish_query(start, &paths);
                return paths;
            }
            // A consulted bucket changed: the entry is recombined, whole.
            self.invalidates.inc();
        } else {
            self.misses.inc();
            self.evict_for(tick);
        }

        let record = {
            let _c = self.telemetry.prof_scope("pathdb.combine");
            combine_paths_recorded(&self.store, src, dst, max_paths)
        };
        let paths = self.install(key, gen, tick, record, policy);
        self.finish_query(start, &paths);
        paths
    }

    /// Stores a fresh combination record as the entry for `key`, applying
    /// the policy filter. Returns the (cloned) path list to hand to the
    /// caller.
    fn install(
        &mut self,
        key: CacheKey,
        gen: u64,
        tick: u64,
        record: CombineRecord,
        policy: Option<&PathPolicy>,
    ) -> Vec<FullPath> {
        let CombineRecord { mut paths, deps } = record;
        if let Some(p) = policy {
            p.filter(&mut paths);
        }
        let deps = deps
            .into_iter()
            .map(|dep| (dep, self.store.bucket_fingerprint(dep)))
            .collect();
        self.entries.insert(
            key,
            Entry {
                generation: gen,
                deps,
                paths: paths.clone(),
                last_used: tick,
            },
        );
        paths
    }

    /// Evicts the least-recently-used entry if the cache is full. O(n)
    /// scan; n is the (small, bounded) cache capacity and eviction only
    /// runs on insertion of a new key.
    fn evict_for(&mut self, _tick: u64) {
        if self.entries.len() < self.cfg.capacity {
            return;
        }
        if let Some(oldest) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        {
            self.entries.remove(&oldest);
            self.evicts.inc();
        }
    }

    fn finish_query(&self, start: std::time::Instant, paths: &[FullPath]) {
        self.combine_ns.record(start.elapsed().as_nanos() as f64);
        self.paths_combined.add(paths.len() as u64);
    }
}

/// Acquires the shared `Arc<Mutex<PathDb>>` hot lock with wait accounting.
///
/// Every component that shares the path database behind a mutex (the
/// network's `paths()`, the daemon's `PathProvider`, host transports, probe
/// sinks) should acquire it through this helper. With the `profile` feature
/// on, an uncontended acquisition costs one `try_lock`; a contended one
/// records the wait into the `pathdb.lock.wait_ns` histogram, bumps
/// `pathdb.lock.contended`, and attributes the wait to the profiler as a
/// `pathdb.lock_wait` leaf — so lock pressure shows up by name in the ranked
/// self-time table instead of silently inflating its callers. With the
/// feature off this is exactly `m.lock()`.
pub fn lock_pathdb(m: &parking_lot::Mutex<PathDb>) -> parking_lot::MutexGuard<'_, PathDb> {
    #[cfg(feature = "profile")]
    {
        if let Some(guard) = m.try_lock() {
            guard.telemetry.counter("pathdb.lock.acquired").inc();
            return guard;
        }
        let start = std::time::Instant::now();
        let guard = m.lock();
        let wait_ns = start.elapsed().as_nanos() as u64;
        let tele = &guard.telemetry;
        tele.counter("pathdb.lock.acquired").inc();
        tele.counter("pathdb.lock.contended").inc();
        tele.histogram("pathdb.lock.wait_ns").record(wait_ns as f64);
        tele.prof_leaf_ns("pathdb.lock_wait", wait_ns);
        guard
    }
    #[cfg(not(feature = "profile"))]
    m.lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{BeaconConfig, BeaconEngine};
    use crate::combine::combine_paths;
    use crate::graph::{ControlGraph, LinkType};
    use crate::policy::{Acl, HopPredicate};
    use scion_proto::addr::ia;

    /// Two cores, two leaves each, plus a leaf peering link.
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

    fn assert_matches_fresh(db: &mut PathDb, src: &str, dst: &str) {
        let memo = db.paths(ia(src), ia(dst), 100);
        let fresh = combine_paths(db.store(), ia(src), ia(dst), 100);
        assert_eq!(memo, fresh, "{src}->{dst} memoized != fresh");
    }

    #[test]
    fn warm_queries_hit_and_match_fresh() {
        let mut db = PathDb::new(mesh());
        for _ in 0..3 {
            assert_matches_fresh(&mut db, "71-10", "71-20");
            assert_matches_fresh(&mut db, "71-10", "71-2");
            assert_matches_fresh(&mut db, "71-1", "71-3");
        }
        assert_eq!(db.misses.get(), 3);
        assert!(db.hits.get() >= 6, "hits: {}", db.hits.get());
        assert_eq!(db.invalidates.get(), 0);
    }

    #[test]
    fn store_mutation_flushes_affected_entries() {
        let mut db = PathDb::new(mesh());
        let before = db.paths(ia("71-10"), ia("71-20"), 100);
        assert!(!before.is_empty());
        // Kill the interface the core 71-2 uses toward leaf 71-20: every
        // path via that child link dies.
        let down = db.store().up_segment_handles(ia("71-20"))[0].clone();
        let ifid = down.entries[0].hop.cons_egress;
        assert!(db.store_mut().invalidate_interface(ia("71-2"), ifid) > 0);
        let after = db.paths(ia("71-10"), ia("71-20"), 100);
        let fresh = combine_paths(db.store(), ia("71-10"), ia("71-20"), 100);
        assert_eq!(after, fresh);
        assert_ne!(before, after, "mutation must change the result");
        assert!(db.invalidates.get() >= 1);
    }

    #[test]
    fn unrelated_mutation_revalidates_without_recombination() {
        let mut db = PathDb::new(mesh());
        db.paths(ia("71-10"), ia("71-20"), 100);
        // Mutate a bucket the 10->20 combination never consults.
        let seg30 = db.store().up_segment_handles(ia("71-30"))[0].clone();
        let ifid = seg30.entries[0].hop.cons_egress;
        assert!(db.store_mut().invalidate_interface(ia("71-3"), ifid) > 0);
        let memo = db.paths(ia("71-10"), ia("71-20"), 100);
        assert_eq!(
            memo,
            combine_paths(db.store(), ia("71-10"), ia("71-20"), 100)
        );
        assert_eq!(db.revalidates.get(), 1);
        assert_eq!(db.invalidates.get(), 0);
    }

    #[test]
    fn core_only_change_recombines_and_matches_fresh() {
        let mut db = PathDb::new(mesh());
        db.paths(ia("71-10"), ia("71-30"), 100);
        // Registering a fresh core segment touches only core buckets; the
        // 10->30 entry must recombine, not revalidate.
        let seg = {
            use crate::segment::{AsSecrets, SegmentBuilder, SegmentType};
            let mut b = SegmentBuilder::originate(SegmentType::Core, 1_700_000_123, 7);
            b.extend(&AsSecrets::derive(ia("71-3")), 0, 91, &[]);
            b.extend(&AsSecrets::derive(ia("71-1")), 92, 0, &[]);
            b.finish()
        };
        db.store_mut().register_core(seg);
        let memo = db.paths(ia("71-10"), ia("71-30"), 100);
        assert_eq!(
            memo,
            combine_paths(db.store(), ia("71-10"), ia("71-30"), 100)
        );
        assert_eq!(db.invalidates.get(), 1);
        assert_eq!(db.revalidates.get(), 0);
        assert_eq!(db.misses.get(), 1);
    }

    #[test]
    fn policy_keys_do_not_alias() {
        let mut db = PathDb::new(mesh());
        let deny_core2 = PathPolicy {
            acl: Acl::default().deny("71-2".parse::<HopPredicate>().unwrap()),
            ..Default::default()
        };
        let unfiltered = db.paths(ia("71-10"), ia("71-20"), 100);
        let filtered = db.paths_filtered(ia("71-10"), ia("71-20"), 100, &deny_core2);
        assert!(filtered.len() < unfiltered.len());
        let mut expect = combine_paths(db.store(), ia("71-10"), ia("71-20"), 100);
        deny_core2.filter(&mut expect);
        assert_eq!(filtered, expect);
        // Warm repeat of both keys.
        assert_eq!(db.paths(ia("71-10"), ia("71-20"), 100), unfiltered);
        assert_eq!(
            db.paths_filtered(ia("71-10"), ia("71-20"), 100, &deny_core2),
            filtered
        );
    }

    #[test]
    fn scmp_crossing_invalidation_drops_only_affected_entries() {
        let mut db = PathDb::new(mesh());
        let p1020 = db.paths(ia("71-10"), ia("71-20"), 100);
        db.paths(ia("71-10"), ia("71-30"), 100);
        assert_eq!(db.cached_entries(), 2);
        // A dead interface at leaf 71-20 can only affect the 10->20 entry.
        let (ia_down, ifid) = *p1020[0]
            .interfaces()
            .iter()
            .find(|(a, _)| *a == ia("71-20"))
            .unwrap();
        assert_eq!(db.invalidate_paths_crossing(ia_down, ifid), 1);
        assert_eq!(db.cached_entries(), 1);
        // Unknown interfaces drop nothing; results still match fresh.
        assert_eq!(db.invalidate_paths_crossing(ia("71-2"), 999), 0);
        assert_matches_fresh(&mut db, "71-10", "71-20");
    }

    #[test]
    fn cache_accounting_counts_a_shared_body_once() {
        let mut db = PathDb::new(mesh());
        let handle = std::mem::size_of::<FullPath>();
        let mut expect = 0;
        // Leaf to leaf and core to leaf alike: an entry is its answer, a
        // pointer and a body per path, and nothing is kept beside it.
        for (src, dst) in [("71-10", "71-30"), ("71-1", "71-30")] {
            let answer = db.paths(ia(src), ia(dst), 100);
            assert!(!answer.is_empty());
            let bodies: usize = answer.iter().map(FullPath::approx_bytes).sum();
            expect += std::mem::size_of::<Entry>() + answer.len() * handle + bodies;
            // The caller's handles are to the cached bodies, not copies: the
            // cache's bytes are the same while `answer` is alive and after.
            assert_eq!(db.approx_cache_bytes(), expect);
        }
        assert_eq!(db.approx_cache_bytes(), expect);
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let mut db = PathDb::with_config(mesh(), PathDbConfig { capacity: 2 });
        db.paths(ia("71-10"), ia("71-20"), 100);
        db.paths(ia("71-10"), ia("71-30"), 100);
        db.paths(ia("71-20"), ia("71-30"), 100);
        assert_eq!(db.cached_entries(), 2);
        assert_eq!(db.evicts.get(), 1);
        // Evicted key recombines and still matches fresh.
        assert_matches_fresh(&mut db, "71-10", "71-20");
    }
}
