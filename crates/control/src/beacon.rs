//! Path exploration: beaconing.
//!
//! Core ASes originate path-construction beacons (PCBs). Core beacons flood
//! over core links to build core segments; intra-ISD beacons travel down
//! parent→child links to build up/down segments (§2). Each AS extends a
//! beacon by appending its signed, MACed [`AsEntry`] and re-propagates a
//! bounded, diverse subset per origin.
//!
//! The engine runs the process round-by-round over a [`ControlGraph`] until
//! a fixed point, which converges in (diameter + 1) rounds — this is the
//! synchronous formulation of the asynchronous protocol, standard for
//! control-plane simulation. The resulting segments are registered into a
//! [`SegmentStore`], mirroring the path-server infrastructure.
//!
//! Propagation is **batched**: each round offers only the beacon slots
//! that changed since they were last offered (the dirty set), one pass per
//! neighbor, instead of rescanning and re-offering every slot every round.
//! This reaches the identical fixed point because slot contents improve
//! monotonically under [`retain`](BeaconEngine) (top-k by (length, id) of
//! everything ever offered): a beacon rejected once can never be accepted
//! by a later re-offer, so re-offering unchanged slots is pure waste. The
//! reference exhaustive mode is kept behind
//! [`BeaconConfig::delta_propagation`] for differential testing. Each
//! received beacon's signature chain is verified once per unique beacon
//! via a bounded verified-beacon cache keyed on (beacon ID, key epoch) —
//! the control-plane analogue of the data plane's MAC-verification cache.
//!
//! A propagation round **snapshots, then commits**: it first captures
//! every offering holder's immutable inputs (retained candidate beacons,
//! secrets handle, peer links, outbound interfaces) before any slot is
//! mutated, then commits extensions against that snapshot in
//! deterministic holder order, so an earlier holder's offers of this round
//! are never visible to a later holder — the synchronous formulation above.
//! Beacons themselves use the copy-on-extend [`CowSegment`]
//! representation: offering a beacon to a neighbor appends one hop node
//! and shares the entire prefix, instead of deep-copying the segment per
//! offer, and the retain sort reads cached ids instead of re-hashing.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use sciera_telemetry::{Counter, Event, Severity, Telemetry};
use scion_proto::addr::IsdAsn;

use crate::graph::{ControlGraph, LinkType};
use crate::segment::{AsSecrets, CowSegment, SegmentBuilder, SegmentType};
use crate::store::SegmentStore;
use crate::ControlError;

/// A beacon as received by an AS: the segment so far (ending with the
/// sender's entry) plus the local ingress interface it arrived on. Clone
/// is cheap — the copy-on-extend segment shares its entry chain.
#[derive(Debug, Clone)]
struct ReceivedBeacon {
    segment: CowSegment,
    ingress_ifid: u16,
}

/// One outbound interface of a propagation batch's holder.
struct OutIntf {
    id: u16,
    neighbor: IsdAsn,
    neighbor_ifid: u16,
}

/// One candidate beacon of a propagation batch: a retained slot entry of
/// the batch's holder, snapshotted at round start.
struct Candidate {
    origin: IsdAsn,
    rb: ReceivedBeacon,
    /// Survived the length/loop pre-filter (verification still pending).
    pre_ok: bool,
}

/// Everything one holder contributes to a propagation round: immutable
/// inputs, consumed in deterministic order by the commit loop.
struct HolderBatch {
    secrets: Arc<AsSecrets>,
    peers: Vec<(IsdAsn, u16, u16)>,
    out_ifs: Vec<OutIntf>,
    cands: Vec<Candidate>,
}

/// Beaconing configuration.
#[derive(Debug, Clone, Copy)]
pub struct BeaconConfig {
    /// Candidate beacons retained per (AS, origin) pair. More candidates
    /// mean more registered segments and a richer path mix (Fig. 8).
    pub candidates_per_origin: usize,
    /// Maximum AS-level beacon length.
    pub max_len: usize,
    /// Rounds to run; the SCIERA graph converges well within the default.
    pub rounds: usize,
    /// Propagate only dirty (changed-since-last-offer) slots per round.
    /// The exhaustive reference mode (`false`) re-offers every slot every
    /// round and reaches the same fixed point; it exists for differential
    /// testing.
    pub delta_propagation: bool,
}

impl Default for BeaconConfig {
    fn default() -> Self {
        BeaconConfig {
            candidates_per_origin: 8,
            max_len: 12,
            rounds: 12,
            delta_propagation: true,
        }
    }
}

/// Bound on the verified-beacon cache (beacon ID + key epoch entries).
const VERIFIED_CACHE_CAP: usize = 4096;

/// Bounded LRU over verified beacon ids: a hash map for O(1) probes plus
/// a tick-ordered index so eviction pops the oldest entry in O(log n).
/// Ticks are unique per probe, so the evicted entry is exactly the one a
/// full min-scan would choose — this replaced an O(cache) scan per
/// insert that dominated propagation once the cache saturated.
#[derive(Default)]
struct VerifiedCache {
    map: HashMap<([u8; 32], u32), u64>,
    order: BTreeMap<u64, ([u8; 32], u32)>,
    tick: u64,
}

impl VerifiedCache {
    /// Probes for `key`, refreshing its recency on a hit. Consumes a tick
    /// either way: a miss's [`insert`](Self::insert) lands at this tick.
    fn touch(&mut self, key: &([u8; 32], u32)) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let Some(t) = self.map.get_mut(key) else {
            return false;
        };
        let old = std::mem::replace(t, tick);
        self.order.remove(&old);
        self.order.insert(tick, *key);
        true
    }

    /// Inserts `key` at the current tick, evicting the oldest entry when
    /// the cache is at capacity. Callers only insert absent keys (they
    /// probe first), so map and order stay 1:1.
    fn insert(&mut self, key: ([u8; 32], u32)) {
        if self.map.len() >= VERIFIED_CACHE_CAP {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, self.tick);
        self.order.insert(self.tick, key);
    }
}

/// The beaconing engine.
pub struct BeaconEngine<'g> {
    graph: &'g ControlGraph,
    /// Per-AS secrets behind `Arc`: a propagation batch holds a refcount
    /// bump instead of a deep key copy per holder per round.
    secrets: BTreeMap<IsdAsn, Arc<AsSecrets>>,
    config: BeaconConfig,
    timestamp: u32,
    /// Core beacons held at each core AS, keyed by origin.
    core_beacons: BTreeMap<(IsdAsn, IsdAsn), Vec<ReceivedBeacon>>,
    /// Intra-ISD (down) beacons held at each AS, keyed by origin core AS.
    down_beacons: BTreeMap<(IsdAsn, IsdAsn), Vec<ReceivedBeacon>>,
    /// Core slots changed since they were last offered to neighbors.
    dirty_core: BTreeSet<(IsdAsn, IsdAsn)>,
    /// Down slots changed since they were last offered to neighbors.
    dirty_down: BTreeSet<(IsdAsn, IsdAsn)>,
    /// Verified-beacon cache: (beacon ID, key epoch) → LRU entry. One
    /// signature-chain verification per unique beacon per epoch.
    verified: VerifiedCache,
    /// Propagation rounds the last [`BeaconEngine::run`] needed to converge.
    last_rounds: usize,
    /// Epoch of the hop keys behind `secrets` (cache key component; a key
    /// rotation would bump it and naturally invalidate the cache).
    key_epoch: u32,
    telemetry: Telemetry,
    originated: Counter,
    propagated: Counter,
    filtered: Counter,
    registered: Counter,
    batches: Counter,
    batch_beacons: Counter,
    verify_hits: Counter,
    verify_misses: Counter,
}

impl<'g> BeaconEngine<'g> {
    /// Creates an engine over `graph`, deriving per-AS secrets
    /// deterministically (the simulation stand-in for each AS holding its
    /// own keys).
    pub fn new(graph: &'g ControlGraph, timestamp: u32, config: BeaconConfig) -> Self {
        let secrets: BTreeMap<IsdAsn, Arc<AsSecrets>> = graph
            .ases()
            .map(|a| (a.ia, Arc::new(AsSecrets::derive(a.ia))))
            .collect();
        let telemetry = Telemetry::quiet();
        let key_epoch = secrets
            .values()
            .next()
            .map(|s| s.hop_key.epoch())
            .unwrap_or(1);
        BeaconEngine {
            graph,
            secrets,
            config,
            timestamp,
            core_beacons: BTreeMap::new(),
            down_beacons: BTreeMap::new(),
            dirty_core: BTreeSet::new(),
            dirty_down: BTreeSet::new(),
            verified: VerifiedCache::default(),
            last_rounds: 0,
            key_epoch,
            originated: telemetry.counter("beacon.originated"),
            propagated: telemetry.counter("beacon.propagated"),
            filtered: telemetry.counter("beacon.filtered"),
            registered: telemetry.counter("beacon.segments_registered"),
            batches: telemetry.counter("beacon.batch.count"),
            batch_beacons: telemetry.counter("beacon.batch.beacons"),
            verify_hits: telemetry.counter("beacon.batch.verify_hit"),
            verify_misses: telemetry.counter("beacon.batch.verify_miss"),
            telemetry,
        }
    }

    /// Re-registers the engine's counters on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.originated = telemetry.counter("beacon.originated");
        self.propagated = telemetry.counter("beacon.propagated");
        self.filtered = telemetry.counter("beacon.filtered");
        self.registered = telemetry.counter("beacon.segments_registered");
        self.batches = telemetry.counter("beacon.batch.count");
        self.batch_beacons = telemetry.counter("beacon.batch.beacons");
        self.verify_hits = telemetry.counter("beacon.batch.verify_hit");
        self.verify_misses = telemetry.counter("beacon.batch.verify_miss");
        self.telemetry = telemetry;
    }

    /// Verifies a received beacon's signature chain and hop MACs, at most
    /// once per unique (beacon ID, key epoch) — repeat offers of the same
    /// beacon hit the cache. The cache probe reads the beacon's cached id
    /// (O(1)); the segment is materialized only on a miss.
    fn verify_cached(&mut self, seg: &CowSegment) -> bool {
        let _prof = self.telemetry.prof_scope("beacon.verify");
        let key = (seg.id(), self.key_epoch);
        if self.verified.touch(&key) {
            self.verify_hits.inc();
            return true;
        }
        self.verify_misses.inc();
        let secrets = &self.secrets;
        let keys = |ia: IsdAsn| secrets.get(&ia).map(|s| s.signing.verifying_key());
        let hops = |ia: IsdAsn| secrets.get(&ia).map(|s| s.hop_key.clone());
        let ok = seg.materialize().verify(&keys, &hops).is_ok();
        if ok {
            self.verified.insert(key);
        }
        ok
    }

    /// Access to the derived secrets (the data plane needs the hop keys).
    /// Cloning the map bumps refcounts; the keys themselves are shared.
    pub fn secrets(&self) -> &BTreeMap<IsdAsn, Arc<AsSecrets>> {
        &self.secrets
    }

    /// Test/diagnostic access to the retained beacon state: every
    /// (core?, holder, origin) slot with its beacon ids in retained
    /// order. Differential harnesses compare this across propagation
    /// modes.
    #[doc(hidden)]
    pub fn slot_digest(&self) -> Vec<(bool, IsdAsn, IsdAsn, Vec<[u8; 32]>)> {
        let mut out = Vec::new();
        for (core_kind, map) in [(true, &self.core_beacons), (false, &self.down_beacons)] {
            for ((holder, origin), slot) in map {
                out.push((
                    core_kind,
                    *holder,
                    *origin,
                    slot.iter().map(|b| b.segment.id()).collect(),
                ));
            }
        }
        out
    }

    fn beta_for(origin: IsdAsn, seq: u16) -> u16 {
        // Deterministic per-origin beta keeps runs reproducible.
        (origin.to_u64() as u16).wrapping_mul(31).wrapping_add(seq)
    }

    /// Peering links advertised by `ia` in PCB entries.
    fn peer_links_of(&self, ia: IsdAsn) -> Vec<(IsdAsn, u16, u16)> {
        self.graph
            .as_node(ia)
            .map(|n| {
                n.interfaces_of_type(LinkType::Peer)
                    .map(|i| (i.neighbor, i.id, i.neighbor_ifid))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Inserts `rb` into `slot`, keeping at most `k` beacons preferring
    /// shorter segments and, among equals, distinct ingress interfaces
    /// (a simple diversity policy).
    fn retain(slot: &mut Vec<ReceivedBeacon>, rb: ReceivedBeacon, k: usize) -> bool {
        if slot.iter().any(|b| b.segment.id() == rb.segment.id()) {
            return false;
        }
        slot.push(rb);
        slot.sort_by_key(|b| (b.segment.len(), b.segment.id()));
        if slot.len() > k {
            slot.truncate(k);
        }
        true
    }

    /// Whether a beacon with `(len, id)` would survive [`Self::retain`]
    /// into `slot`. Every insert goes through `retain`, so the slot is
    /// always sorted by `(len, id)` and the competition is a duplicate
    /// probe plus one comparison against the current worst — which lets
    /// the engine skip the MAC, signature and chain node of an extension
    /// that would lose the slot anyway. Exact, not heuristic: `retain`
    /// of a non-duplicate beacon strictly better than the worst of a
    /// full slot always succeeds, and slots only ever improve.
    fn would_retain(slot: &[ReceivedBeacon], len: usize, id: [u8; 32], k: usize) -> bool {
        if slot.iter().any(|b| b.segment.id() == id) {
            return false;
        }
        if slot.len() < k {
            return true;
        }
        let worst = &slot[slot.len() - 1];
        (len, id) < (worst.segment.len(), worst.segment.id())
    }

    /// Runs origination and propagation to a fixed point, then registers
    /// all segments into a fresh [`SegmentStore`].
    pub fn run(&mut self) -> Result<SegmentStore, ControlError> {
        let _prof = self.telemetry.prof_scope("beacon.run");
        self.graph.validate()?;
        self.originate();
        let mut rounds_run = 0usize;
        for _ in 0..self.config.rounds {
            rounds_run += 1;
            let changed = self.propagate_round();
            if !changed {
                break;
            }
        }
        self.last_rounds = rounds_run;
        let store = self.register();
        if self.telemetry.enabled(Severity::Info) {
            self.telemetry.emit(
                Event::new(
                    (self.timestamp as u64).saturating_mul(1_000_000_000),
                    "control",
                    "beacon",
                    Severity::Info,
                    "beaconing converged",
                )
                .field("rounds", rounds_run)
                .field("segments", self.registered.get()),
            );
        }
        Ok(store)
    }

    /// Propagation rounds the last [`BeaconEngine::run`] took to reach its
    /// fixed point (0 before any run).
    pub fn last_rounds(&self) -> usize {
        self.last_rounds
    }

    /// Core ASes originate beacons to all core and child neighbours.
    fn originate(&mut self) {
        let _prof = self.telemetry.prof_scope("beacon.originate");
        let cores = self.graph.core_ases();
        for core in cores {
            let node = self.graph.as_node(core).unwrap();
            let secrets = self.secrets.get(&core).unwrap().clone();
            let mut seq = 0u16;
            for intf in &node.interfaces {
                let (seg_type, store) = match intf.link_type {
                    LinkType::Core => (SegmentType::Core, &mut self.core_beacons),
                    LinkType::Child => (SegmentType::UpDown, &mut self.down_beacons),
                    _ => continue,
                };
                let mut b =
                    SegmentBuilder::originate(seg_type, self.timestamp, Self::beta_for(core, seq));
                seq += 1;
                let peers = if seg_type == SegmentType::UpDown {
                    self.graph
                        .as_node(core)
                        .unwrap()
                        .interfaces_of_type(LinkType::Peer)
                        .map(|i| (i.neighbor, i.id, i.neighbor_ifid))
                        .collect()
                } else {
                    Vec::new()
                };
                b.extend(&secrets, 0, intf.id, &peers);
                let rb = ReceivedBeacon {
                    segment: CowSegment::from_segment(&b.finish()),
                    ingress_ifid: intf.neighbor_ifid,
                };
                let slot = store.entry((intf.neighbor, core)).or_default();
                if Self::retain(slot, rb, self.config.candidates_per_origin) {
                    let dirty = match seg_type {
                        SegmentType::Core => &mut self.dirty_core,
                        SegmentType::UpDown => &mut self.dirty_down,
                    };
                    dirty.insert((intf.neighbor, core));
                }
                self.originated.inc();
            }
        }
    }

    /// One synchronous propagation round. Returns whether anything changed.
    fn propagate_round(&mut self) -> bool {
        let _prof = self.telemetry.prof_scope("beacon.propagate");
        let mut changed = false;
        changed |= self.propagate_kind(true);
        changed |= self.propagate_kind(false);
        changed
    }

    fn propagate_kind(&mut self, core_kind: bool) -> bool {
        // Slots to offer this round: with delta propagation, only those
        // that changed since they were last offered; in the exhaustive
        // reference mode, every slot every round. The fixed point is
        // identical — retain keeps the top-k of everything ever offered,
        // and neighbor slots only improve, so re-offering a beacon that
        // was rejected once can never succeed later.
        let dirty: Vec<(IsdAsn, IsdAsn)> = if self.config.delta_propagation {
            let set = if core_kind {
                &mut self.dirty_core
            } else {
                &mut self.dirty_down
            };
            std::mem::take(set).into_iter().collect()
        } else {
            let map = if core_kind {
                &self.core_beacons
            } else {
                &self.down_beacons
            };
            map.keys().copied().collect()
        };
        let out_type = if core_kind {
            LinkType::Core
        } else {
            LinkType::Child
        };
        // Snapshot. Group dirty slots by holder and capture each holder's
        // immutable round inputs (secrets handle, peer links, outbound
        // interfaces, retained candidate beacons) *before* any slot is
        // mutated. The commit below works against this snapshot, so an
        // earlier holder's same-round offers are never visible to a later
        // holder — the synchronous formulation of the module doc. Candidate
        // clones are refcount bumps (copy-on-extend chains), not entry
        // copies.
        let mut by_holder: BTreeMap<IsdAsn, Vec<IsdAsn>> = BTreeMap::new();
        for (holder, origin) in dirty {
            by_holder.entry(holder).or_default().push(origin);
        }
        let mut batches: Vec<HolderBatch> = Vec::new();
        for (holder, origins) in by_holder {
            let Some(node) = self.graph.as_node(holder) else {
                continue;
            };
            // Core beacons are extended only by core ASes over core links;
            // down beacons only travel over child links (any AS extends).
            if core_kind && !node.core {
                continue;
            }
            let secrets = Arc::clone(self.secrets.get(&holder).unwrap());
            let peers = if core_kind {
                Vec::new()
            } else {
                self.peer_links_of(holder)
            };
            let out_ifs: Vec<OutIntf> = node
                .interfaces_of_type(out_type)
                .map(|i| OutIntf {
                    id: i.id,
                    neighbor: i.neighbor,
                    neighbor_ifid: i.neighbor_ifid,
                })
                .collect();
            let map = if core_kind {
                &self.core_beacons
            } else {
                &self.down_beacons
            };
            let mut cands: Vec<Candidate> = Vec::new();
            for origin in origins {
                let Some(slot) = map.get(&(holder, origin)) else {
                    continue;
                };
                for rb in slot {
                    let pre_ok =
                        rb.segment.len() < self.config.max_len && !rb.segment.contains(holder); // loop prevention
                    cands.push(Candidate {
                        origin,
                        rb: rb.clone(),
                        pre_ok,
                    });
                }
            }
            if cands.is_empty() {
                continue;
            }
            batches.push(HolderBatch {
                secrets,
                peers,
                out_ifs,
                cands,
            });
        }
        // Commit in deterministic holder order: verification, retain,
        // dirty-set inserts and counters.
        let mut changed = false;
        for batch in &batches {
            let mut ok_flags: Vec<bool> = Vec::with_capacity(batch.cands.len());
            for c in &batch.cands {
                if !c.pre_ok {
                    self.filtered.inc();
                    ok_flags.push(false);
                    continue;
                }
                let ok = self.verify_cached(&c.rb.segment);
                if !ok {
                    self.filtered.inc();
                }
                ok_flags.push(ok);
            }
            if !ok_flags.iter().any(|&v| v) {
                continue;
            }
            // One pass per neighbor: every offerable beacon of this
            // holder crosses the interface in a single batch.
            for intf in &batch.out_ifs {
                let mut offered = 0u64;
                for (ci, c) in batch.cands.iter().enumerate() {
                    if !ok_flags[ci] {
                        continue;
                    }
                    if c.rb.segment.contains(intf.neighbor) {
                        self.filtered.inc();
                        continue;
                    }
                    offered += 1;
                    let (store, dirty) = if core_kind {
                        (&mut self.core_beacons, &mut self.dirty_core)
                    } else {
                        (&mut self.down_beacons, &mut self.dirty_down)
                    };
                    let k = self.config.candidates_per_origin;
                    let slot = store.entry((intf.neighbor, c.origin)).or_default();
                    // Settle the retain competition from the extension's
                    // id alone, predicted via `extended_id`, so a losing
                    // offer never pays for a MAC, signature or chain node.
                    let ext_id =
                        c.rb.segment
                            .extended_id(batch.secrets.ia, c.rb.ingress_ifid, intf.id);
                    if !Self::would_retain(slot, c.rb.segment.len() + 1, ext_id, k) {
                        self.filtered.inc();
                        continue;
                    }
                    let extended = c.rb.segment.extend(
                        &batch.secrets,
                        c.rb.ingress_ifid,
                        intf.id,
                        &batch.peers,
                    );
                    debug_assert_eq!(extended.id(), ext_id);
                    let new_rb = ReceivedBeacon {
                        segment: extended,
                        ingress_ifid: intf.neighbor_ifid,
                    };
                    let retained = Self::retain(slot, new_rb, k);
                    debug_assert!(retained, "would_retain admitted a losing beacon");
                    if retained {
                        dirty.insert((intf.neighbor, c.origin));
                        self.propagated.inc();
                        changed = true;
                    } else {
                        self.filtered.inc();
                    }
                }
                if offered > 0 {
                    self.batches.inc();
                    self.batch_beacons.add(offered);
                }
            }
        }
        changed
    }

    /// Terminates retained beacons and registers segments.
    fn register(&self) -> SegmentStore {
        let _prof = self.telemetry.prof_scope("beacon.register");
        let mut store = SegmentStore::new();
        // Core segments: every core AS terminates its retained core beacons.
        for ((holder, _origin), beacons) in &self.core_beacons {
            let Some(node) = self.graph.as_node(*holder) else {
                continue;
            };
            if !node.core {
                continue;
            }
            let secrets = self.secrets.get(holder).unwrap();
            for rb in beacons {
                if rb.segment.contains(*holder) {
                    continue;
                }
                // Materialize the chain into the flat form the store
                // holds, then append the terminal entry.
                let mut b = SegmentBuilder::from_segment(rb.segment.materialize());
                b.extend(secrets, rb.ingress_ifid, 0, &[]);
                store.register_core(b.finish());
                self.registered.inc();
            }
        }
        // Up/down segments: every non-core AS terminates its down beacons.
        for ((holder, _origin), beacons) in &self.down_beacons {
            let Some(node) = self.graph.as_node(*holder) else {
                continue;
            };
            if node.core {
                continue;
            }
            let secrets = self.secrets.get(holder).unwrap();
            let peers = self.peer_links_of(*holder);
            for rb in beacons {
                if rb.segment.contains(*holder) {
                    continue;
                }
                let mut b = SegmentBuilder::from_segment(rb.segment.materialize());
                b.extend(secrets, rb.ingress_ifid, 0, &peers);
                store.register_up_down(b.finish());
                self.registered.inc();
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SegmentStore;
    use scion_proto::addr::ia;

    /// Core 1 — Core 2 in a line, each with a leaf; leaves peer.
    fn diamond() -> ControlGraph {
        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-2"), true);
        g.add_as(ia("71-10"), false);
        g.add_as(ia("71-11"), false);
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        g.connect(ia("71-1"), ia("71-10"), LinkType::Child).unwrap();
        g.connect(ia("71-2"), ia("71-11"), LinkType::Child).unwrap();
        g.connect(ia("71-10"), ia("71-11"), LinkType::Peer).unwrap();
        g
    }

    fn run(g: &ControlGraph) -> (SegmentStore, BTreeMap<IsdAsn, Arc<AsSecrets>>) {
        let mut engine = BeaconEngine::new(g, 1_700_000_000, BeaconConfig::default());
        let store = engine.run().unwrap();
        (store, engine.secrets().clone())
    }

    #[test]
    fn core_segments_exist_both_directions() {
        let g = diamond();
        let (store, _) = run(&g);
        assert!(!store.core_between(ia("71-1"), ia("71-2")).is_empty());
        assert!(!store.core_between(ia("71-2"), ia("71-1")).is_empty());
    }

    #[test]
    fn up_down_segments_registered() {
        let g = diamond();
        let (store, _) = run(&g);
        let ups = store.up_segments(ia("71-10"));
        assert!(!ups.is_empty());
        assert!(ups.iter().all(|s| s.terminus() == ia("71-10")));
        assert!(ups.iter().any(|s| s.origin() == ia("71-1")));
        let downs = store.down_segments(ia("71-11"));
        assert!(downs.iter().any(|s| s.origin() == ia("71-2")));
    }

    #[test]
    fn leaf_reachable_from_both_cores() {
        // 71-10 hangs off core 1 only, but a down beacon from core 2 travels
        // 2 -> 1 -> 10? No: down beacons only travel child links, and core 2
        // has no child link to 71-10, so 71-10's up segments all originate
        // at core 1. This asserts the hierarchy is respected.
        let g = diamond();
        let (store, _) = run(&g);
        let ups = store.up_segments(ia("71-10"));
        assert!(ups.iter().all(|s| s.origin() == ia("71-1")));
    }

    #[test]
    fn all_segments_verify() {
        let g = diamond();
        let (store, secrets) = run(&g);
        let keys = |ia: IsdAsn| secrets.get(&ia).map(|s| s.signing.verifying_key());
        let hops = |ia: IsdAsn| secrets.get(&ia).map(|s| s.hop_key.clone());
        let mut count = 0;
        for seg in store.all_segments() {
            seg.verify(&keys, &hops).unwrap();
            count += 1;
        }
        assert!(count >= 4, "expected several segments, got {count}");
    }

    #[test]
    fn peer_entries_present_on_leaf_segments() {
        let g = diamond();
        let (store, _) = run(&g);
        let ups = store.up_segments(ia("71-10"));
        let has_peer = ups.iter().any(|s| {
            s.entries
                .last()
                .unwrap()
                .peers
                .iter()
                .any(|p| p.peer == ia("71-11"))
        });
        assert!(
            has_peer,
            "leaf's own entry should advertise its peering link"
        );
    }

    #[test]
    fn multipath_core_mesh_yields_multiple_core_segments() {
        // A core triangle: two distinct segments between any pair (direct +
        // via the third).
        let mut g = ControlGraph::new();
        for a in ["71-1", "71-2", "71-3"] {
            g.add_as(ia(a), true);
        }
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        g.connect(ia("71-2"), ia("71-3"), LinkType::Core).unwrap();
        g.connect(ia("71-1"), ia("71-3"), LinkType::Core).unwrap();
        let (store, _) = run(&g);
        let segs = store.core_between(ia("71-1"), ia("71-3"));
        assert!(
            segs.len() >= 2,
            "triangle should give direct + indirect, got {}",
            segs.len()
        );
        // Direct segment is 2 hops; indirect is 3.
        let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        assert!(lens.contains(&2));
        assert!(lens.contains(&3));
    }

    #[test]
    fn parallel_links_produce_distinct_segments() {
        // Two parallel core links between the same pair (like KREONET's
        // multiple SG-AMS circuits) must yield two distinct core segments.
        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-2"), true);
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        let (store, _) = run(&g);
        let segs = store.core_between(ia("71-1"), ia("71-2"));
        assert_eq!(segs.len(), 2);
        let egresses: Vec<u16> = segs.iter().map(|s| s.entries[0].hop.cons_egress).collect();
        assert_ne!(egresses[0], egresses[1]);
    }

    #[test]
    fn deep_hierarchy_builds_long_segments() {
        // core - mid - leaf chain: up segment of leaf has 3 entries.
        let mut g = ControlGraph::new();
        g.add_as(ia("71-1"), true);
        g.add_as(ia("71-10"), false);
        g.add_as(ia("71-100"), false);
        g.connect(ia("71-1"), ia("71-10"), LinkType::Child).unwrap();
        g.connect(ia("71-10"), ia("71-100"), LinkType::Child)
            .unwrap();
        let (store, _) = run(&g);
        let ups = store.up_segments(ia("71-100"));
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].ases(), vec![ia("71-1"), ia("71-10"), ia("71-100")]);
        // Interior hop has both ingress and egress set; ends have zeros.
        assert_eq!(ups[0].entries[0].hop.cons_ingress, 0);
        assert_ne!(ups[0].entries[1].hop.cons_ingress, 0);
        assert_ne!(ups[0].entries[1].hop.cons_egress, 0);
        assert_eq!(ups[0].entries[2].hop.cons_egress, 0);
    }

    /// Every registered segment ID under the given config, sorted.
    fn segment_ids(g: &ControlGraph, config: BeaconConfig) -> Vec<[u8; 32]> {
        let mut engine = BeaconEngine::new(g, 1_700_000_000, config);
        let store = engine.run().unwrap();
        let mut ids: Vec<[u8; 32]> = store.all_segments().map(|s| s.id()).collect();
        ids.sort();
        ids
    }

    #[test]
    fn delta_propagation_matches_exhaustive_reference() {
        // The batched dirty-slot propagation must register exactly the
        // same segment set as the exhaustive re-offer-everything mode, on
        // every topology shape we exercise elsewhere.
        let mut shapes: Vec<ControlGraph> = vec![diamond()];
        let mut triangle = ControlGraph::new();
        for a in ["71-1", "71-2", "71-3"] {
            triangle.add_as(ia(a), true);
        }
        triangle
            .connect(ia("71-1"), ia("71-2"), LinkType::Core)
            .unwrap();
        triangle
            .connect(ia("71-2"), ia("71-3"), LinkType::Core)
            .unwrap();
        triangle
            .connect(ia("71-1"), ia("71-3"), LinkType::Core)
            .unwrap();
        shapes.push(triangle);
        let mut deep = ControlGraph::new();
        deep.add_as(ia("71-1"), true);
        deep.add_as(ia("71-10"), false);
        deep.add_as(ia("71-100"), false);
        deep.connect(ia("71-1"), ia("71-10"), LinkType::Child)
            .unwrap();
        deep.connect(ia("71-10"), ia("71-100"), LinkType::Child)
            .unwrap();
        shapes.push(deep);
        for (i, g) in shapes.iter().enumerate() {
            let delta = segment_ids(
                g,
                BeaconConfig {
                    delta_propagation: true,
                    ..Default::default()
                },
            );
            let exhaustive = segment_ids(
                g,
                BeaconConfig {
                    delta_propagation: false,
                    ..Default::default()
                },
            );
            assert!(!delta.is_empty());
            assert_eq!(delta, exhaustive, "shape {i} diverged");
        }
    }

    #[test]
    fn batching_verifies_each_beacon_once_and_counts_batches() {
        // A core triangle with a two-level child chain: both core and
        // down beacons actually propagate (the diamond has no grandchild
        // or third core, so nothing would batch there).
        let mut g = ControlGraph::new();
        for a in ["71-1", "71-2", "71-3"] {
            g.add_as(ia(a), true);
        }
        g.connect(ia("71-1"), ia("71-2"), LinkType::Core).unwrap();
        g.connect(ia("71-2"), ia("71-3"), LinkType::Core).unwrap();
        g.connect(ia("71-1"), ia("71-3"), LinkType::Core).unwrap();
        g.add_as(ia("71-10"), false);
        g.add_as(ia("71-100"), false);
        g.connect(ia("71-1"), ia("71-10"), LinkType::Child).unwrap();
        g.connect(ia("71-10"), ia("71-100"), LinkType::Child)
            .unwrap();
        let telemetry = Telemetry::new();
        let mut engine = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default());
        engine.set_telemetry(telemetry.clone());
        engine.run().unwrap();
        let snap = telemetry.snapshot();
        let hits = snap.counter("beacon.batch.verify_hit").unwrap_or(0);
        let misses = snap.counter("beacon.batch.verify_miss").unwrap_or(0);
        let batches = snap.counter("beacon.batch.count").unwrap_or(0);
        let beacons = snap.counter("beacon.batch.beacons").unwrap_or(0);
        assert!(batches > 0, "batched passes must be counted");
        assert!(beacons >= batches, "each batch offers at least one beacon");
        // Each unique beacon's signature chain is verified exactly once;
        // the dirty-slot delta mode re-offers a slot only when it changed,
        // so repeat verifications (cache hits) stay bounded by misses.
        assert!(misses > 0);
        assert!(
            hits <= misses * 2,
            "verify cache defeated: {hits} hits vs {misses} misses"
        );
    }
}
