//! The path-server segment database.
//!
//! Path segments are registered and looked up by `<ISD-AS>` tuples exactly
//! as §2 describes: up segments at the leaf's local path server, down
//! segments and core segments at core path servers. This store models the
//! merged view a resolver assembles after querying local and core servers.
//!
//! Segments are interned once on registration and handed out as
//! [`SegmentHandle`]s (`Arc<PathSegment>`): registration never clones the
//! segment body, dedup is an O(1) hash-set probe on the segment ID, and
//! every downstream consumer (the combinator, the daemon, benches) shares
//! the same allocation. Every mutation bumps a monotonic generation
//! counter — the staleness signal the path database
//! ([`crate::epoch::EpochPathDb`]) relies on — plus, per bucket, a generation
//! (when it last changed) and a content *fingerprint* (an
//! order-insensitive hash of the member segment IDs). The fingerprint is
//! what cached entries are validated against: unlike the generation it
//! returns to its old value when contents are restored, so a
//! kill-and-re-register cycle revalidates in place instead of forcing a
//! recombination.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use scion_proto::addr::IsdAsn;

use crate::segment::{PathSegment, SegmentType};

/// A shared, immutable handle to a registered segment.
pub type SegmentHandle = Arc<PathSegment>;

/// Folds a 32-byte segment ID into its contribution to the bucket content
/// fingerprint: XOR the four words together, then run a splitmix64-style
/// finalizer so structurally-similar IDs decorrelate. Contributions are
/// combined with wrapping addition, so the bucket fingerprint is
/// order-insensitive and removing a segment subtracts exactly what
/// registering it added.
fn id_mix(id: &[u8; 32]) -> u64 {
    let mut x = 0u64;
    for c in id.chunks_exact(8) {
        x ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    }
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Identifies one segment bucket a combination consulted, in *traversal*
/// orientation (the arguments of the accessor that was called, not the
/// internal map key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BucketDep {
    /// The up/down bucket of a non-core AS
    /// ([`SegmentStore::up_segments`] / [`SegmentStore::down_segments`]).
    UpDown(IsdAsn),
    /// The core bucket consulted by `core_between(from, to)`.
    Core {
        /// Travel origin (the `from` argument of `core_between`).
        from: IsdAsn,
        /// Travel destination (the `to` argument of `core_between`).
        to: IsdAsn,
    },
}

/// A database of registered path segments.
#[derive(Debug, Clone, Default)]
pub struct SegmentStore {
    /// Core segments keyed by (origin, terminus).
    core: BTreeMap<(IsdAsn, IsdAsn), Vec<SegmentHandle>>,
    /// Up/down segments keyed by the non-core terminus.
    up_down: BTreeMap<IsdAsn, Vec<SegmentHandle>>,
    /// IDs of registered core segments (O(1) dedup on insert).
    core_ids: HashSet<[u8; 32]>,
    /// IDs of registered up/down segments.
    up_down_ids: HashSet<[u8; 32]>,
    /// Bumped on every mutation that changes store contents.
    generation: u64,
    /// Generation at which each core bucket last changed (absent = 0,
    /// i.e. never touched — an empty bucket that was never written).
    core_gen: BTreeMap<(IsdAsn, IsdAsn), u64>,
    /// Generation at which each up/down bucket last changed.
    up_down_gen: BTreeMap<IsdAsn, u64>,
    /// Content fingerprint of each core bucket: the wrapping sum of its
    /// members' [`id_mix`] contributions (0 = empty). Unlike the
    /// generation, a fingerprint returns to its old value when contents
    /// are restored — a kill-and-re-register cycle is *detectably* a
    /// content no-op.
    core_fp: BTreeMap<(IsdAsn, IsdAsn), u64>,
    /// Content fingerprint of each up/down bucket.
    up_down_fp: BTreeMap<IsdAsn, u64>,
}

impl SegmentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store's mutation counter. Any change to the registered segment
    /// set — registration, expiry, interface invalidation — bumps it, so a
    /// cached artefact stamped with an older generation is known stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation at which the bucket behind `dep` last changed
    /// (0 if it was never written).
    pub fn bucket_generation(&self, dep: BucketDep) -> u64 {
        match dep {
            BucketDep::UpDown(leaf) => self.up_down_gen.get(&leaf).copied().unwrap_or(0),
            // core_between(from, to) reads the (to, from) construction key.
            BucketDep::Core { from, to } => self.core_gen.get(&(to, from)).copied().unwrap_or(0),
        }
    }

    /// The content fingerprint of the bucket behind `dep`: an
    /// order-insensitive hash of the member segment IDs (0 when empty or
    /// never written). Equal fingerprints mean equal contents (up to a
    /// negligible 64-bit collision), even across mutations that moved the
    /// generation and back — the signal the memoized databases use to
    /// revalidate entries whose consulted buckets were restored rather
    /// than changed. Order-insensitivity is sound because the combiner
    /// orders its answer by a content key, so equal bucket *sets* produce
    /// byte-identical results regardless of bucket order.
    pub fn bucket_fingerprint(&self, dep: BucketDep) -> u64 {
        match dep {
            BucketDep::UpDown(leaf) => self.up_down_fp.get(&leaf).copied().unwrap_or(0),
            // core_between(from, to) reads the (to, from) construction key.
            BucketDep::Core { from, to } => self.core_fp.get(&(to, from)).copied().unwrap_or(0),
        }
    }

    /// Registers a core segment, interning it once. Returns the stored
    /// handle — the existing one if the segment was already registered.
    pub fn register_core(&mut self, seg: PathSegment) -> SegmentHandle {
        self.register_core_handle(Arc::new(seg))
    }

    /// Registers an already-interned core segment handle.
    pub fn register_core_handle(&mut self, seg: SegmentHandle) -> SegmentHandle {
        debug_assert_eq!(seg.seg_type, SegmentType::Core);
        let id = seg.id();
        let key = (seg.origin(), seg.terminus());
        if !self.core_ids.insert(id) {
            // Already registered: the slot for this (origin, terminus) must
            // hold it (the key is derived from segment content).
            let slot = self.core.get(&key).expect("indexed segment has a slot");
            return slot
                .iter()
                .find(|s| s.id() == id)
                .expect("indexed segment present in slot")
                .clone();
        }
        self.generation += 1;
        self.core_gen.insert(key, self.generation);
        let fp = self.core_fp.entry(key).or_default();
        *fp = fp.wrapping_add(id_mix(&id));
        self.core.entry(key).or_default().push(seg.clone());
        seg
    }

    /// Registers an up/down segment (terminating at a non-core AS),
    /// interning it once. Returns the stored handle.
    pub fn register_up_down(&mut self, seg: PathSegment) -> SegmentHandle {
        self.register_up_down_handle(Arc::new(seg))
    }

    /// Registers an already-interned up/down segment handle.
    pub fn register_up_down_handle(&mut self, seg: SegmentHandle) -> SegmentHandle {
        debug_assert_eq!(seg.seg_type, SegmentType::UpDown);
        let id = seg.id();
        let key = seg.terminus();
        if !self.up_down_ids.insert(id) {
            let slot = self.up_down.get(&key).expect("indexed segment has a slot");
            return slot
                .iter()
                .find(|s| s.id() == id)
                .expect("indexed segment present in slot")
                .clone();
        }
        self.generation += 1;
        self.up_down_gen.insert(key, self.generation);
        let fp = self.up_down_fp.entry(key).or_default();
        *fp = fp.wrapping_add(id_mix(&id));
        self.up_down.entry(key).or_default().push(seg.clone());
        seg
    }

    /// Core segments usable to travel *from* `from` *to* `to`.
    ///
    /// A core segment is constructed origin→terminus and traversed against
    /// construction direction, so travelling from `from` to `to` uses
    /// segments with origin `to` and terminus `from`.
    pub fn core_between(&self, from: IsdAsn, to: IsdAsn) -> Vec<&PathSegment> {
        self.core
            .get(&(to, from))
            .map(|v| v.iter().map(|a| a.as_ref()).collect())
            .unwrap_or_default()
    }

    /// Interned handles behind [`SegmentStore::core_between`].
    pub fn core_between_handles(&self, from: IsdAsn, to: IsdAsn) -> &[SegmentHandle] {
        self.core
            .get(&(to, from))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Up segments of a non-core AS (traversed leaf→core).
    pub fn up_segments(&self, leaf: IsdAsn) -> Vec<&PathSegment> {
        self.up_down
            .get(&leaf)
            .map(|v| v.iter().map(|a| a.as_ref()).collect())
            .unwrap_or_default()
    }

    /// Interned handles behind [`SegmentStore::up_segments`] (and, read in
    /// the opposite direction, [`SegmentStore::down_segments`]).
    pub fn up_segment_handles(&self, leaf: IsdAsn) -> &[SegmentHandle] {
        self.up_down.get(&leaf).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Down segments toward a non-core AS (traversed core→leaf). The same
    /// registered segments as [`SegmentStore::up_segments`], used in the
    /// opposite direction.
    pub fn down_segments(&self, leaf: IsdAsn) -> Vec<&PathSegment> {
        self.up_segments(leaf)
    }

    /// All registered segments.
    pub fn all_segments(&self) -> impl Iterator<Item = &PathSegment> {
        self.core
            .values()
            .flatten()
            .map(|a| a.as_ref())
            .chain(self.up_down.values().flatten().map(|a| a.as_ref()))
    }

    /// Total number of registered segments.
    pub fn len(&self) -> usize {
        self.core_ids.len() + self.up_down_ids.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of interned segment data resident in the store:
    /// the sum of every registered segment's [`PathSegment::approx_bytes`].
    /// Each segment is interned once, so handles held elsewhere share the
    /// same allocation and are not double counted. O(segments) — call it
    /// from snapshot/console paths, not per query.
    pub fn approx_bytes(&self) -> usize {
        self.all_segments().map(|s| s.approx_bytes()).sum()
    }

    /// Drops segments whose hop fields have expired by `now` (Unix secs).
    pub fn expire(&mut self, now: u64) -> usize {
        self.remove_where(|s| s.expiry() <= now)
    }

    /// Removes every segment that crosses interface `ifid` of AS `ia`
    /// (regular or peer hop) — the store-mutation half of handling an SCMP
    /// external-interface-down or an operator link kill. Returns the number
    /// of segments removed; the generation is bumped iff any were.
    pub fn invalidate_interface(&mut self, ia: IsdAsn, ifid: u16) -> usize {
        self.remove_where(|s| {
            s.entries.iter().any(|e| {
                e.ia == ia
                    && (e.hop.cons_ingress == ifid
                        || e.hop.cons_egress == ifid
                        || e.peers
                            .iter()
                            .any(|p| p.hop.cons_ingress == ifid || p.hop.cons_egress == ifid))
            })
        })
    }

    /// Removes all segments matching `pred`, maintaining the ID index and
    /// per-bucket generations. One generation bump covers the whole sweep.
    fn remove_where(&mut self, pred: impl Fn(&PathSegment) -> bool) -> usize {
        let mut removed = 0usize;
        let next_gen = self.generation + 1;
        for (key, v) in self.core.iter_mut() {
            let before = v.len();
            let mut removed_mix = 0u64;
            v.retain(|s| {
                let drop = pred(s);
                if drop {
                    let id = s.id();
                    self.core_ids.remove(&id);
                    removed_mix = removed_mix.wrapping_add(id_mix(&id));
                }
                !drop
            });
            if v.len() != before {
                removed += before - v.len();
                self.core_gen.insert(*key, next_gen);
                let fp = self.core_fp.entry(*key).or_default();
                *fp = fp.wrapping_sub(removed_mix);
            }
        }
        for (key, v) in self.up_down.iter_mut() {
            let before = v.len();
            let mut removed_mix = 0u64;
            v.retain(|s| {
                let drop = pred(s);
                if drop {
                    let id = s.id();
                    self.up_down_ids.remove(&id);
                    removed_mix = removed_mix.wrapping_add(id_mix(&id));
                }
                !drop
            });
            if v.len() != before {
                removed += before - v.len();
                self.up_down_gen.insert(*key, next_gen);
                let fp = self.up_down_fp.entry(*key).or_default();
                *fp = fp.wrapping_sub(removed_mix);
            }
        }
        if removed > 0 {
            self.generation = next_gen;
        }
        removed
    }

    /// The core ASes that appear as an origin or terminus of any core
    /// segment (a proxy for "known core ASes").
    pub fn known_cores(&self) -> Vec<IsdAsn> {
        let mut out: Vec<IsdAsn> = self.core.keys().flat_map(|(a, b)| [*a, *b]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{AsSecrets, SegmentBuilder};
    use scion_proto::addr::ia;

    fn core_seg(from: &str, to: &str, ts: u32) -> PathSegment {
        let mut b = SegmentBuilder::originate(SegmentType::Core, ts, 1);
        b.extend(&AsSecrets::derive(ia(from)), 0, 1, &[]);
        b.extend(&AsSecrets::derive(ia(to)), 2, 0, &[]);
        b.finish()
    }

    fn up_seg(core: &str, leaf: &str, ts: u32) -> PathSegment {
        let mut b = SegmentBuilder::originate(SegmentType::UpDown, ts, 1);
        b.extend(&AsSecrets::derive(ia(core)), 0, 1, &[]);
        b.extend(&AsSecrets::derive(ia(leaf)), 2, 0, &[]);
        b.finish()
    }

    #[test]
    fn core_lookup_is_reverse_of_construction() {
        let mut store = SegmentStore::new();
        store.register_core(core_seg("71-2", "71-1", 100));
        // Constructed 2 -> 1 means usable from 1 to 2.
        assert_eq!(store.core_between(ia("71-1"), ia("71-2")).len(), 1);
        assert!(store.core_between(ia("71-2"), ia("71-1")).is_empty());
    }

    #[test]
    fn duplicate_registration_ignored() {
        let mut store = SegmentStore::new();
        let s = core_seg("71-2", "71-1", 100);
        let h1 = store.register_core(s.clone());
        let gen_after_first = store.generation();
        let h2 = store.register_core(s);
        assert_eq!(store.len(), 1);
        // The duplicate hands back the originally interned allocation and
        // does not bump the generation.
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(store.generation(), gen_after_first);
    }

    #[test]
    fn up_and_down_views_agree() {
        let mut store = SegmentStore::new();
        store.register_up_down(up_seg("71-1", "71-10", 100));
        assert_eq!(store.up_segments(ia("71-10")).len(), 1);
        assert_eq!(store.down_segments(ia("71-10")).len(), 1);
        assert!(store.up_segments(ia("71-11")).is_empty());
    }

    #[test]
    fn expiry_removes_old_segments() {
        let mut store = SegmentStore::new();
        store.register_core(core_seg("71-2", "71-1", 100));
        store.register_up_down(up_seg("71-1", "71-10", 100));
        // Segments expire at ts + 21600 (DEFAULT_EXP_TIME).
        assert_eq!(store.expire(100 + 21_000), 0);
        assert_eq!(store.len(), 2);
        assert_eq!(store.expire(100 + 22_000), 2);
        assert!(store.is_empty());
    }

    #[test]
    fn known_cores() {
        let mut store = SegmentStore::new();
        store.register_core(core_seg("71-2", "71-1", 100));
        store.register_core(core_seg("71-3", "71-1", 100));
        assert_eq!(
            store.known_cores(),
            vec![ia("71-1"), ia("71-2"), ia("71-3")]
        );
    }

    #[test]
    fn every_mutation_bumps_the_generation() {
        let mut store = SegmentStore::new();
        assert_eq!(store.generation(), 0);
        store.register_core(core_seg("71-2", "71-1", 100));
        assert_eq!(store.generation(), 1);
        store.register_up_down(up_seg("71-1", "71-10", 100));
        assert_eq!(store.generation(), 2);
        // A no-op expiry leaves the generation alone.
        assert_eq!(store.expire(100), 0);
        assert_eq!(store.generation(), 2);
        // A real expiry bumps it once, however many segments it removes.
        assert_eq!(store.expire(100 + 30_000), 2);
        assert_eq!(store.generation(), 3);
    }

    #[test]
    fn bucket_generations_track_only_touched_buckets() {
        let mut store = SegmentStore::new();
        store.register_up_down(up_seg("71-1", "71-10", 100));
        store.register_up_down(up_seg("71-1", "71-11", 100));
        let g10 = store.bucket_generation(BucketDep::UpDown(ia("71-10")));
        let g11 = store.bucket_generation(BucketDep::UpDown(ia("71-11")));
        assert_eq!((g10, g11), (1, 2));
        // Registering into one bucket leaves the other's generation alone.
        store.register_up_down(up_seg("71-1", "71-11", 200));
        assert_eq!(store.bucket_generation(BucketDep::UpDown(ia("71-10"))), 1);
        assert_eq!(store.bucket_generation(BucketDep::UpDown(ia("71-11"))), 3);
        // An untouched bucket reads generation 0.
        assert_eq!(store.bucket_generation(BucketDep::UpDown(ia("71-99"))), 0);
        // Core bucket deps are oriented like core_between's arguments.
        store.register_core(core_seg("71-2", "71-1", 100));
        assert!(
            store.bucket_generation(BucketDep::Core {
                from: ia("71-1"),
                to: ia("71-2"),
            }) > 0
        );
        assert_eq!(
            store.bucket_generation(BucketDep::Core {
                from: ia("71-2"),
                to: ia("71-1"),
            }),
            0
        );
    }

    #[test]
    fn bucket_fingerprints_track_content_not_history() {
        let mut store = SegmentStore::new();
        let dep = BucketDep::UpDown(ia("71-10"));
        assert_eq!(store.bucket_fingerprint(dep), 0);
        let h = store.register_up_down(up_seg("71-1", "71-10", 100));
        let one = store.bucket_fingerprint(dep);
        assert_ne!(one, 0);
        store.register_up_down(up_seg("71-1", "71-10", 200));
        let two = store.bucket_fingerprint(dep);
        assert_ne!(two, one, "adding a segment must change the fingerprint");
        // Remove then restore the first segment: the generation keeps
        // moving but the fingerprint returns to the two-segment value.
        let gen = store.generation();
        let ifid = h.entries[0].hop.cons_egress;
        assert_eq!(store.invalidate_interface(ia("71-1"), ifid), 2);
        assert_eq!(store.bucket_fingerprint(dep), 0);
        store.register_up_down_handle(h);
        store.register_up_down(up_seg("71-1", "71-10", 200));
        assert!(store.generation() > gen);
        assert_eq!(store.bucket_fingerprint(dep), two);
        // Core buckets are oriented like core_between's arguments.
        store.register_core(core_seg("71-2", "71-1", 100));
        assert_ne!(
            store.bucket_fingerprint(BucketDep::Core {
                from: ia("71-1"),
                to: ia("71-2"),
            }),
            0
        );
        assert_eq!(
            store.bucket_fingerprint(BucketDep::Core {
                from: ia("71-2"),
                to: ia("71-1"),
            }),
            0
        );
    }

    /// Like `up_seg` but with an explicit core egress interface, so tests
    /// can kill one child link without hitting the other.
    fn up_seg_via(core: &str, leaf: &str, egress: u16) -> PathSegment {
        let mut b = SegmentBuilder::originate(SegmentType::UpDown, 100, 1);
        b.extend(&AsSecrets::derive(ia(core)), 0, egress, &[]);
        b.extend(&AsSecrets::derive(ia(leaf)), 2, 0, &[]);
        b.finish()
    }

    #[test]
    fn invalidate_interface_removes_crossing_segments() {
        let mut store = SegmentStore::new();
        let h = store.register_up_down(up_seg_via("71-1", "71-10", 7));
        store.register_up_down(up_seg_via("71-1", "71-11", 8));
        let gen = store.generation();
        // The core 71-1 egresses toward 71-10 on interface 7; kill it.
        let ifid = h.entries[0].hop.cons_egress;
        assert_eq!(store.invalidate_interface(ia("71-1"), ifid), 1);
        assert!(store.up_segments(ia("71-10")).is_empty());
        assert_eq!(store.up_segments(ia("71-11")).len(), 1);
        assert_eq!(store.generation(), gen + 1);
        // Killing an interface nothing crosses is a generation no-op.
        assert_eq!(store.invalidate_interface(ia("71-1"), 999), 0);
        assert_eq!(store.generation(), gen + 1);
        // The removed segment can be re-registered from its handle without
        // cloning the body.
        store.register_up_down_handle(h);
        assert_eq!(store.up_segments(ia("71-10")).len(), 1);
        assert_eq!(store.generation(), gen + 2);
    }
}
