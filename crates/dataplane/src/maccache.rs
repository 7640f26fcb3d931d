//! A bounded LRU cache over successful hop-field MAC verifications.
//!
//! AES-CMAC is the single most expensive operation on the forwarding hot
//! path. Packets of one flow carry the *same* hop field past the same
//! router for the lifetime of the path, so after one successful
//! verification the router can prove subsequent packets authentic with a
//! lookup instead of a block cipher.
//!
//! **Cache-key soundness.** The MAC is a deterministic function of the hop
//! key and the 16-byte input block `(beta, timestamp, exp_time,
//! cons_ingress, cons_egress)`. The cache key is that entire input *plus*
//! the 6-byte MAC being checked *plus* the key epoch. A hit therefore
//! replays a previous `MAC_epoch(input) == mac` result exactly:
//!
//! * `beta` is the *post-un-chaining* segment identifier, so the chained
//!   `seg_id ^= mac[0..2]` evolution along a segment is captured — a hop
//!   field spliced under a different accumulated beta misses the cache and
//!   fails the real verification.
//! * Including the claimed MAC itself means a tampered MAC over an
//!   otherwise-identical input can never alias a previous success.
//! * Including the epoch makes key rotation invalidate all entries without
//!   a flush.
//!
//! Expiry is deliberately *not* cached: it depends on `now` and stays a
//! cheap comparison in the router, performed before the cache is consulted.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sciera_telemetry::{Counter, Telemetry};
use scion_crypto::mac::HopMacInput;

/// An FNV/Fx-style multiply-xor hasher for [`MacCacheKey`] lookups.
///
/// SipHash's flooding resistance buys nothing here: the only keys that ever
/// *enter* the map carry MACs that passed AES-CMAC verification, so an
/// attacker cannot choose colliding residents, and lookups with garbage keys
/// just miss — costing exactly the verification the router would do without
/// a cache. A two-instruction mix per word keeps the key hash off the
/// warm-path profile.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; shared with the router's per-batch
/// MAC-deduplication map.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Default number of verification results a router remembers.
pub const DEFAULT_MAC_CACHE_CAPACITY: usize = 4096;

/// Sentinel index for the intrusive LRU list.
const NONE: usize = usize::MAX;

/// Everything a cached verification result depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacCacheKey {
    /// Segment identifier the MAC was verified against (post un-chaining).
    pub beta: u16,
    /// Info-field timestamp.
    pub timestamp: u32,
    /// Hop-field expiry encoding.
    pub exp_time: u8,
    /// Construction-direction ingress interface.
    pub cons_ingress: u16,
    /// Construction-direction egress interface.
    pub cons_egress: u16,
    /// The 6-byte MAC that verified.
    pub mac: [u8; 6],
    /// Key epoch of the hop key that verified it.
    pub epoch: u32,
}

impl MacCacheKey {
    /// Assembles the key for one verification attempt.
    pub fn new(input: &HopMacInput, mac: [u8; 6], epoch: u32) -> Self {
        MacCacheKey {
            beta: input.beta,
            timestamp: input.timestamp,
            exp_time: input.exp_time,
            cons_ingress: input.cons_ingress,
            cons_egress: input.cons_egress,
            mac,
            epoch,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    key: MacCacheKey,
    prev: usize,
    next: usize,
}

/// A bounded LRU set of successful hop-MAC verifications.
///
/// Only *successful* verifications are cached — negative caching would let
/// an attacker evict useful entries with garbage, and failed MACs are not
/// on any legitimate hot path.
#[derive(Debug, Clone)]
pub struct MacCache {
    map: HashMap<MacCacheKey, usize, FxBuildHasher>,
    /// Slab of list nodes; indices are stable once allocated.
    entries: Vec<Entry>,
    /// Most-recently-used entry, or `NONE` when empty.
    head: usize,
    /// Least-recently-used entry, or `NONE` when empty.
    tail: usize,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl MacCache {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    /// Nothing is allocated until the first entry, and the map and slab
    /// grow with what is held: a deployment runs hundreds of routers, most
    /// of which see a few dozen hop fields. Counters start on a quiet
    /// telemetry handle; attach a shared one with
    /// [`MacCache::set_telemetry`].
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let quiet = Telemetry::quiet();
        MacCache {
            map: HashMap::default(),
            entries: Vec::new(),
            head: NONE,
            tail: NONE,
            capacity,
            hits: quiet.counter("router.maccache.hit"),
            misses: quiet.counter("router.maccache.miss"),
            evictions: quiet.counter("router.maccache.evict"),
        }
    }

    /// Re-registers the cache counters on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.hits = telemetry.counter("router.maccache.hit");
        self.misses = telemetry.counter("router.maccache.miss");
        self.evictions = telemetry.counter("router.maccache.evict");
    }

    /// Whether `key` has verified before. A hit refreshes the entry's LRU
    /// position; hit or miss, the corresponding counter moves.
    pub fn check(&mut self, key: &MacCacheKey) -> bool {
        if let Some(&idx) = self.map.get(key) {
            self.detach(idx);
            self.push_front(idx);
            self.hits.inc();
            true
        } else {
            self.misses.inc();
            false
        }
    }

    /// Records a successful verification, evicting the least-recently-used
    /// entry when full.
    pub fn remember(&mut self, key: MacCacheKey) {
        if let Some(&idx) = self.map.get(&key) {
            self.detach(idx);
            self.push_front(idx);
            return;
        }
        self.remember_missed(key);
    }

    /// [`MacCache::remember`] for a key the caller has just seen
    /// [`MacCache::check`] miss on.
    ///
    /// The miss path used to hash the key three times — the failed lookup,
    /// `remember`'s own duplicate probe, and the insert. The router always
    /// calls `remember` immediately after a miss-then-verify, so the
    /// duplicate probe re-proves what the miss already established; this
    /// entry point skips it, leaving one hash for the insert.
    pub fn remember_missed(&mut self, key: MacCacheKey) {
        debug_assert!(
            !self.map.contains_key(&key),
            "remember_missed on a resident key"
        );
        let idx = if self.entries.len() < self.capacity {
            self.entries.push(Entry {
                key,
                prev: NONE,
                next: NONE,
            });
            self.entries.len() - 1
        } else {
            // Reuse the LRU slot.
            let idx = self.tail;
            self.detach(idx);
            self.map.remove(&self.entries[idx].key);
            self.evictions.inc();
            self.entries[idx].key = key;
            idx
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops all entries (counters are left untouched; so is the room
    /// already grown).
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.head = NONE;
        self.tail = NONE;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NONE {
            self.entries[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NONE {
            self.entries[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.entries[idx].prev = NONE;
        self.entries[idx].next = NONE;
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NONE;
        self.entries[idx].next = self.head;
        if self.head != NONE {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u16) -> MacCacheKey {
        MacCacheKey {
            beta: n,
            timestamp: 1_700_000_000,
            exp_time: 63,
            cons_ingress: 1,
            cons_egress: 2,
            mac: [n as u8; 6],
            epoch: 1,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = MacCache::new(8);
        assert!(!c.check(&key(1)));
        c.remember(key(1));
        assert!(c.check(&key(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn any_field_changes_the_key() {
        let base = key(1);
        let mut c = MacCache::new(8);
        c.remember(base);
        let variants = [
            MacCacheKey {
                beta: base.beta ^ 1,
                ..base
            },
            MacCacheKey {
                timestamp: base.timestamp + 1,
                ..base
            },
            MacCacheKey {
                exp_time: base.exp_time + 1,
                ..base
            },
            MacCacheKey {
                cons_ingress: 9,
                ..base
            },
            MacCacheKey {
                cons_egress: 9,
                ..base
            },
            MacCacheKey {
                mac: [0xff; 6],
                ..base
            },
            MacCacheKey {
                epoch: base.epoch + 1,
                ..base
            },
        ];
        for v in variants {
            assert!(!c.check(&v), "{v:?} aliased the cached key");
        }
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = MacCache::new(3);
        c.remember(key(1));
        c.remember(key(2));
        c.remember(key(3));
        // Touch 1 so 2 becomes the LRU.
        assert!(c.check(&key(1)));
        c.remember(key(4)); // evicts 2
        assert_eq!(c.len(), 3);
        assert!(c.check(&key(1)));
        assert!(!c.check(&key(2)));
        assert!(c.check(&key(3)));
        assert!(c.check(&key(4)));
    }

    #[test]
    fn eviction_counter_moves() {
        let tele = Telemetry::quiet();
        let mut c = MacCache::new(2);
        c.set_telemetry(&tele);
        for n in 0..5 {
            c.remember(key(n));
        }
        let snap = tele.snapshot();
        assert_eq!(snap.counter("router.maccache.evict"), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remember_is_idempotent_and_refreshes() {
        let mut c = MacCache::new(2);
        c.remember(key(1));
        c.remember(key(2));
        c.remember(key(1)); // refresh, no growth
        assert_eq!(c.len(), 2);
        c.remember(key(3)); // evicts 2 (LRU), not 1
        assert!(c.check(&key(1)));
        assert!(!c.check(&key(2)));
    }

    #[test]
    fn remember_missed_matches_remember() {
        let mut a = MacCache::new(3);
        let mut b = MacCache::new(3);
        for n in 0..6 {
            assert!(!a.check(&key(n)));
            a.remember_missed(key(n));
            assert!(!b.check(&key(n)));
            b.remember(key(n));
        }
        for n in 0..6 {
            assert_eq!(a.check(&key(n)), b.check(&key(n)), "key {n}");
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn clear_resets() {
        let mut c = MacCache::new(4);
        c.remember(key(1));
        c.clear();
        assert!(c.is_empty());
        assert!(!c.check(&key(1)));
        c.remember(key(1));
        assert!(c.check(&key(1)));
    }

    /// A router pays for the verifications it holds, not for its bound: no
    /// allocation before the first entry, growth up to `capacity` entries,
    /// LRU eviction beyond, and `clear` keeps the room.
    #[test]
    fn allocates_on_demand_up_to_capacity() {
        let mut c = MacCache::new(DEFAULT_MAC_CACHE_CAPACITY);
        assert_eq!((c.map.capacity(), c.entries.capacity()), (0, 0));
        assert!(!c.check(&key(0)), "a lookup allocates nothing either");
        assert_eq!((c.map.capacity(), c.entries.capacity()), (0, 0));
        for n in 0..24 {
            c.remember(key(n));
        }
        assert_eq!(c.len(), 24);
        assert!(c.entries.capacity() < 64, "{}", c.entries.capacity());
        assert!(c.map.capacity() < 64, "{}", c.map.capacity());

        let mut small = MacCache::new(24);
        for n in 0..30 {
            small.remember(key(n));
        }
        assert_eq!((small.len(), small.entries.len()), (24, 24));
        for n in 0..30 {
            assert_eq!(small.check(&key(n)), n >= 6, "key {n}: the oldest six left");
        }
        small.clear();
        assert!(small.is_empty());
        assert!(small.map.capacity() >= 24 && small.entries.capacity() >= 24);
    }

    #[test]
    fn stress_against_reference_model() {
        // Pseudo-random op stream checked against a vector-based LRU model.
        let mut c = MacCache::new(16);
        let mut model: Vec<MacCacheKey> = Vec::new(); // MRU at end
        let mut x = 0x1234_5678u32;
        for _ in 0..10_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let k = key((x >> 16) as u16 % 48);
            if x & 1 == 0 {
                let expect = model.iter().any(|m| *m == k);
                let got = c.check(&k);
                assert_eq!(got, expect, "check({k:?})");
                if expect {
                    model.retain(|m| *m != k);
                    model.push(k);
                }
            } else {
                model.retain(|m| *m != k);
                model.push(k);
                if model.len() > 16 {
                    model.remove(0);
                }
                c.remember(k);
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
