//! Path exploration: beaconing.
//!
//! Core ASes originate path-construction beacons (PCBs). Core beacons flood
//! over core links to build core segments; intra-ISD beacons travel down
//! parent→child links to build up/down segments (§2). Each AS extends a
//! beacon by appending its signed, MACed [`crate::segment::AsEntry`] and
//! re-propagates a bounded, diverse subset per origin.
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
//! by a later re-offer, so re-offering unchanged slots is pure waste.
//! `tests/prop_propagate.rs` checks this walk against a model of the
//! exhaustive one.
//!
//! Verification is an invariant, not a cache: every beacon held in a slot
//! has had each of its entries checked exactly once, at the hop that
//! received it from its signer. So a receipt — origination, propagation or
//! registration — checks only the one new entry against the beacon it
//! extends ([`CowSegment::verify_extension`]), O(1) in beacon length, and
//! a beacon whose new entry fails is never held. DESIGN §4 (item 7)
//! states what this economy substitutes for a control service that
//! re-checks the whole chain; DESIGN §8 maps the engine and its oracles.
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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sciera_telemetry::{Counter, Event, Severity, Telemetry};
use scion_crypto::sign::VerifyingKey;
use scion_proto::addr::IsdAsn;

use crate::graph::{ControlGraph, LinkType};
use crate::segment::{AsSecrets, CowSegment, SegmentType};
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
/// the batch's holder that passed the length and loop filters,
/// snapshotted at round start.
struct Candidate {
    origin: IsdAsn,
    rb: ReceivedBeacon,
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
}

impl Default for BeaconConfig {
    fn default() -> Self {
        BeaconConfig {
            candidates_per_origin: 8,
            max_len: 12,
            rounds: 12,
        }
    }
}

/// The beaconing engine.
pub struct BeaconEngine<'g> {
    graph: &'g ControlGraph,
    /// Per-AS secrets behind `Arc`: a propagation batch holds a refcount
    /// bump instead of a deep key copy per holder per round.
    secrets: BTreeMap<IsdAsn, Arc<AsSecrets>>,
    /// Each AS's PCB verifying key, resolved once per engine rather than
    /// once per checked entry.
    keys: BTreeMap<IsdAsn, VerifyingKey>,
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
    /// Propagation rounds the last [`BeaconEngine::run`] needed to converge.
    last_rounds: usize,
    telemetry: Telemetry,
    originated: Counter,
    propagated: Counter,
    filtered: Counter,
    registered: Counter,
    batches: Counter,
    batch_beacons: Counter,
    /// Entries checked on receipt.
    verified: Counter,
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
        let keys = secrets
            .iter()
            .map(|(ia, s)| (*ia, s.signing.verifying_key()))
            .collect();
        let telemetry = Telemetry::quiet();
        BeaconEngine {
            graph,
            secrets,
            keys,
            config,
            timestamp,
            core_beacons: BTreeMap::new(),
            down_beacons: BTreeMap::new(),
            dirty_core: BTreeSet::new(),
            dirty_down: BTreeSet::new(),
            last_rounds: 0,
            originated: telemetry.counter("beacon.originated"),
            propagated: telemetry.counter("beacon.propagated"),
            filtered: telemetry.counter("beacon.filtered"),
            registered: telemetry.counter("beacon.segments_registered"),
            batches: telemetry.counter("beacon.batch.count"),
            batch_beacons: telemetry.counter("beacon.batch.beacons"),
            verified: telemetry.counter("beacon.verified"),
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
        self.verified = telemetry.counter("beacon.verified");
        self.telemetry = telemetry;
    }

    /// The receipt check: verifies the entry `extended` added to `prefix`
    /// — its signature and hop MACs — taking `prefix`'s entries as already
    /// checked, which holds for every held beacon. O(1) in beacon length.
    fn check_receipt(
        &self,
        prefix: &CowSegment,
        extended: &CowSegment,
    ) -> Result<(), ControlError> {
        let _prof = self.telemetry.prof_scope("beacon.verify");
        self.verified.inc();
        let entry = extended.last().expect("an extension has an entry");
        let hop_key = self.secrets.get(&entry.ia).map(|s| &s.hop_key);
        prefix.verify_extension(entry, self.keys.get(&entry.ia), hop_key)
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
    /// all segments into a fresh [`SegmentStore`]. Fails on an invalid
    /// graph or a registering entry that fails its check.
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
        let store = self.register()?;
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
            // Only up/down beacons advertise the core's peering links.
            let core_peers = self.peer_links_of(core);
            let mut seq = 0u16;
            for intf in &node.interfaces {
                let (seg_type, peers) = match intf.link_type {
                    LinkType::Core => (SegmentType::Core, &[][..]),
                    LinkType::Child => (SegmentType::UpDown, &core_peers[..]),
                    _ => continue,
                };
                let empty =
                    CowSegment::originate(seg_type, self.timestamp, Self::beta_for(core, seq));
                let segment = empty.extend(&secrets, 0, intf.id, peers);
                seq += 1;
                self.originated.inc();
                // The neighbor checks the one-entry beacon on receipt.
                if self.check_receipt(&empty, &segment).is_err() {
                    self.filtered.inc();
                    continue;
                }
                let (store, dirty) = match seg_type {
                    SegmentType::Core => (&mut self.core_beacons, &mut self.dirty_core),
                    SegmentType::UpDown => (&mut self.down_beacons, &mut self.dirty_down),
                };
                let rb = ReceivedBeacon {
                    segment,
                    ingress_ifid: intf.neighbor_ifid,
                };
                let slot = store.entry((intf.neighbor, core)).or_default();
                if Self::retain(slot, rb, self.config.candidates_per_origin) {
                    dirty.insert((intf.neighbor, core));
                }
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
        // Slots to offer this round: only those that changed since they
        // were last offered. Re-offering the others could change nothing —
        // retain keeps the top-k of everything ever offered, and neighbor
        // slots only improve, so a beacon rejected once is rejected again.
        let dirty = std::mem::take(if core_kind {
            &mut self.dirty_core
        } else {
            &mut self.dirty_down
        });
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
                    // Length cap and loop prevention.
                    if rb.segment.len() < self.config.max_len && !rb.segment.contains(holder) {
                        cands.push(Candidate {
                            origin,
                            rb: rb.clone(),
                        });
                    } else {
                        self.filtered.inc();
                    }
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
        // Commit in deterministic holder order: receipt checks, retain,
        // dirty-set inserts and counters.
        let mut changed = false;
        let k = self.config.candidates_per_origin;
        for batch in &batches {
            // One pass per neighbor: every offerable beacon of this
            // holder crosses the interface in a single batch.
            for intf in &batch.out_ifs {
                let mut offered = 0u64;
                for c in &batch.cands {
                    if c.rb.segment.contains(intf.neighbor) {
                        self.filtered.inc();
                        continue;
                    }
                    offered += 1;
                    let slot_key = (intf.neighbor, c.origin);
                    let held = if core_kind {
                        &self.core_beacons
                    } else {
                        &self.down_beacons
                    };
                    // Settle the retain competition from the extension's
                    // id alone, predicted via `extended_id`, so a losing
                    // offer never pays for a MAC, signature, chain node or
                    // receipt check. An absent slot admits anything.
                    let ext_id =
                        c.rb.segment
                            .extended_id(batch.secrets.ia, c.rb.ingress_ifid, intf.id);
                    let admitted = held.get(&slot_key).is_none_or(|slot| {
                        Self::would_retain(slot, c.rb.segment.len() + 1, ext_id, k)
                    });
                    if !admitted {
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
                    if self.check_receipt(&c.rb.segment, &extended).is_err() {
                        self.filtered.inc();
                        continue;
                    }
                    let (store, dirty) = if core_kind {
                        (&mut self.core_beacons, &mut self.dirty_core)
                    } else {
                        (&mut self.down_beacons, &mut self.dirty_down)
                    };
                    let new_rb = ReceivedBeacon {
                        segment: extended,
                        ingress_ifid: intf.neighbor_ifid,
                    };
                    let retained = Self::retain(store.entry(slot_key).or_default(), new_rb, k);
                    debug_assert!(retained, "would_retain admitted a losing beacon");
                    if retained {
                        dirty.insert(slot_key);
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

    /// Terminates retained beacons and registers segments. The path
    /// server checks each registering AS's entry over its held beacon; a
    /// failure is an error, not a skipped segment.
    fn register(&self) -> Result<SegmentStore, ControlError> {
        let _prof = self.telemetry.prof_scope("beacon.register");
        let mut store = SegmentStore::new();
        // Core beacons terminate at core holders; down beacons terminate at
        // non-core holders, whose entry advertises their peering links. Core
        // segments register first: the store order is part of the output.
        for (core_kind, map) in [(true, &self.core_beacons), (false, &self.down_beacons)] {
            for ((holder, _origin), beacons) in map {
                let Some(node) = self.graph.as_node(*holder) else {
                    continue;
                };
                if node.core != core_kind {
                    continue;
                }
                let secrets = self.secrets.get(holder).unwrap();
                let peers = if core_kind {
                    Vec::new()
                } else {
                    self.peer_links_of(*holder)
                };
                for rb in beacons {
                    if rb.segment.contains(*holder) {
                        continue;
                    }
                    let terminated = rb.segment.extend(secrets, rb.ingress_ifid, 0, &peers);
                    self.check_receipt(&rb.segment, &terminated)?;
                    let seg = terminated.materialize();
                    if core_kind {
                        store.register_core(seg);
                    } else {
                        store.register_up_down(seg);
                    }
                    self.registered.inc();
                }
            }
        }
        Ok(store)
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

    /// A core triangle with a two-level child chain: both core and down
    /// beacons propagate (the diamond has no grandchild or third core).
    fn triangle_with_chain() -> ControlGraph {
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
        g
    }

    #[test]
    fn batching_verifies_each_entry_once_and_counts_batches() {
        let g = triangle_with_chain();
        let telemetry = Telemetry::new();
        let mut engine = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default());
        engine.set_telemetry(telemetry.clone());
        engine.run().unwrap();
        let snap = telemetry.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        let batches = c("beacon.batch.count");
        assert!(batches > 0, "batched passes must be counted");
        assert!(
            c("beacon.batch.beacons") >= batches,
            "each batch offers at least one beacon"
        );
        // One check per entry, at the hop that received it: one per
        // originated beacon, one per propagated extension, one per
        // registered segment's terminating entry.
        assert!(c("beacon.verified") > 0);
        assert_eq!(
            c("beacon.verified"),
            c("beacon.originated") + c("beacon.propagated") + c("beacon.segments_registered")
        );
    }

    #[test]
    fn receipt_rejects_forged_twins_of_a_held_beacon() {
        use scion_crypto::mac::HopKey;
        use scion_crypto::sign::SigningKey;
        let g = triangle_with_chain();
        let mut engine = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default());
        engine.run().unwrap();
        // P, held at X = 71-10, extended toward its child 71-100.
        let x = ia("71-10");
        let p = engine.down_beacons[&(x, ia("71-1"))][0].clone();
        let out_if = g
            .as_node(x)
            .unwrap()
            .interfaces_of_type(LinkType::Child)
            .next()
            .unwrap()
            .id;
        let real = engine.secrets[&x].clone();
        let forged = SigningKey::from_seed(b"not 71-10");
        let signature_twin = AsSecrets {
            signing: forged,
            ..(*real).clone()
        };
        let mac_twin = AsSecrets {
            hop_key: HopKey::derive(b"not 71-10", 1),
            ..(*real).clone()
        };
        let extend = |s: &AsSecrets| p.segment.extend(s, p.ingress_ifid, out_if, &[]);
        let (legit, sig_twin, hop_twin) =
            (extend(&real), extend(&signature_twin), extend(&mac_twin));
        // The content id hashes no signature and no MAC: all three collide.
        assert_eq!(legit.id(), sig_twin.id());
        assert_eq!(legit.id(), hop_twin.id());
        engine.check_receipt(&p.segment, &legit).unwrap();
        assert!(engine.check_receipt(&p.segment, &sig_twin).is_err());
        assert!(engine.check_receipt(&p.segment, &hop_twin).is_err());
    }

    #[test]
    fn a_registering_entry_that_fails_its_check_is_an_error() {
        // 71-10's signing key no longer matches the public key the engine
        // resolved for it, so its registration entry fails the check.
        let g = diamond();
        let mut engine = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default());
        let leaf = ia("71-10");
        let mut impostor = (*engine.secrets[&leaf]).clone();
        impostor.signing = scion_crypto::sign::SigningKey::from_seed(b"impostor");
        engine.secrets.insert(leaf, Arc::new(impostor));
        assert!(matches!(engine.run(), Err(ControlError::BadSegment(_))));
    }
}
