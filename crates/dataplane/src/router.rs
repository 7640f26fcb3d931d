//! The border router.
//!
//! Processing follows the SCION specification's data-plane algorithm:
//!
//! * **Construction direction** (`cons_dir = 1`): verify the current hop
//!   field's MAC against the info field's segment identifier, then chain
//!   `seg_id ^= mac[0..2]` when leaving the hop. If the segment has the
//!   peering flag and the hop is the segment's construction-order first,
//!   the MAC was computed over the *next* beta, so it verifies against the
//!   unmodified `seg_id` and does not chain.
//! * **Against construction direction**: first un-chain
//!   `seg_id ^= mac[0..2]`, verify against the result, and leave the
//!   un-chained value in place; the peering-flagged construction-first hop
//!   verifies against the current `seg_id` without un-chaining.
//!
//! A failed MAC, an interface mismatch, or an expired hop drops the packet
//! — this is what makes path authorisation enforceable hop by hop.

use sciera_telemetry::{Counter, Event, Severity, Telemetry};
use scion_crypto::mac::{HopKey, HopMacInput};
use scion_proto::addr::IsdAsn;
use scion_proto::packet::{DataPlanePath, L4Protocol, PathType, ScionPacket};
use scion_proto::path::ScionPath;
use scion_proto::scmp::ScmpMessage;
use scion_proto::trace::TraceContext;
use scion_proto::wire::{HeaderOffsets, WireCursor};

use std::collections::HashMap;

use crate::maccache::{FxBuildHasher, MacCache, MacCacheKey, DEFAULT_MAC_CACHE_CAPACITY};

/// Why a packet was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// The hop-field MAC did not verify.
    BadMac,
    /// The packet arrived on a different interface than the hop field says.
    IngressMismatch {
        /// Interface in the hop field.
        expected: u16,
        /// Interface the packet actually arrived on.
        actual: u16,
    },
    /// The current hop field has expired.
    Expired,
    /// The destination AS of a delivered packet isn't this AS.
    WrongDestination,
    /// Structural problem with the path (pointers, segments).
    MalformedPath(String),
    /// The packet carries a path type this router cannot process.
    UnsupportedPath,
}

/// The router's verdict on a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Deliver the (possibly rewritten) packet to the local destination host.
    Deliver(ScionPacket),
    /// Forward the rewritten packet out of the given local interface.
    Forward {
        /// Egress interface identifier.
        ifid: u16,
        /// The rewritten packet.
        packet: ScionPacket,
    },
}

/// The router's verdict on a raw frame processed in place (the frame buffer
/// itself *is* the rewritten packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDecision {
    /// Deliver the frame to the local destination host.
    Deliver,
    /// Forward the frame out of the given local interface.
    Forward {
        /// Egress interface identifier.
        ifid: u16,
    },
}

/// Why a raw frame was not forwarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame failed to parse as a SCION packet. Matches exactly the
    /// frames `ScionPacket::decode` rejects; such frames never reach the
    /// router's processing counters.
    Malformed(String),
    /// The frame parsed but the router dropped it.
    Drop(DropReason),
}

/// Pre-registered router counters: the forwarding hot path only ever does
/// relaxed atomic increments, never a registry name lookup.
#[derive(Debug, Clone)]
struct RouterMetrics {
    telemetry: Telemetry,
    forwarded: Counter,
    delivered: Counter,
    drop_bad_mac: Counter,
    drop_ingress_mismatch: Counter,
    drop_expired: Counter,
    drop_wrong_destination: Counter,
    drop_malformed_path: Counter,
    drop_unsupported_path: Counter,
    /// Frames fully handled in place, without a decode/encode cycle.
    fastpath_hit: Counter,
    /// Frames handed to the reference decode path (trace extension,
    /// one-hop path, trailing bytes, or malformed input).
    fastpath_fallback: Counter,
    /// `process_batch` invocations.
    batch_calls: Counter,
    /// Frames submitted across all `process_batch` invocations.
    batch_frames: Counter,
    /// Frames peeled out of a batch onto the fallback path.
    batch_peeled: Counter,
    /// Hop MACs verified through the batched CMAC entry point.
    batch_mac_batched: Counter,
    /// First-hop MAC checks satisfied by another frame of the same batch.
    batch_mac_dedup: Counter,
}

impl RouterMetrics {
    fn register(telemetry: Telemetry) -> Self {
        RouterMetrics {
            forwarded: telemetry.counter("router.forwarded"),
            delivered: telemetry.counter("router.delivered"),
            drop_bad_mac: telemetry.counter("router.drop.bad_mac"),
            drop_ingress_mismatch: telemetry.counter("router.drop.ingress_mismatch"),
            drop_expired: telemetry.counter("router.drop.expired"),
            drop_wrong_destination: telemetry.counter("router.drop.wrong_destination"),
            drop_malformed_path: telemetry.counter("router.drop.malformed_path"),
            drop_unsupported_path: telemetry.counter("router.drop.unsupported_path"),
            fastpath_hit: telemetry.counter("router.fastpath.hit"),
            fastpath_fallback: telemetry.counter("router.fastpath.fallback"),
            batch_calls: telemetry.counter("router.batch.calls"),
            batch_frames: telemetry.counter("router.batch.frames"),
            batch_peeled: telemetry.counter("router.batch.peeled"),
            batch_mac_batched: telemetry.counter("router.batch.mac_batched"),
            batch_mac_dedup: telemetry.counter("router.batch.mac_dedup"),
            telemetry,
        }
    }

    fn drop_counter(&self, reason: &DropReason) -> &Counter {
        match reason {
            DropReason::BadMac => &self.drop_bad_mac,
            DropReason::IngressMismatch { .. } => &self.drop_ingress_mismatch,
            DropReason::Expired => &self.drop_expired,
            DropReason::WrongDestination => &self.drop_wrong_destination,
            DropReason::MalformedPath(_) => &self.drop_malformed_path,
            DropReason::UnsupportedPath => &self.drop_unsupported_path,
        }
    }
}

/// How the classification pass of [`BorderRouter::process_batch`] routed
/// one frame.
#[derive(Debug, Clone, Copy)]
enum BatchClass {
    /// Peeled out of the batch: hop-by-hop extension, unlocatable header,
    /// trailing bytes, non-canonical encoding or one-hop path — exactly the
    /// frames `process_frame_at` hands to the reference fallback.
    Peeled,
    /// Canonical frame committed to in-place processing, with the MAC
    /// pass's verdict for its current hop (`None` when the MAC pass did not
    /// settle it — empty paths, expired hops).
    Inline(HeaderOffsets, Option<bool>),
}

/// Scratch storage reused across [`BorderRouter::process_batch`] calls so
/// steady-state batches allocate nothing.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    classes: Vec<BatchClass>,
    /// Index into `uniq` for each frame whose current hop entered the MAC
    /// pass (parallel to `classes`).
    uniq_ref: Vec<Option<usize>>,
    /// One entry per *distinct* cache key in the batch: the key, its MAC
    /// input, the claimed MAC and the verdict once known.
    uniq: Vec<(MacCacheKey, HopMacInput, [u8; 6], Option<bool>)>,
    /// cache key → index into `uniq`, cleared per batch.
    dedup: HashMap<MacCacheKey, usize, FxBuildHasher>,
    pending_inputs: Vec<HopMacInput>,
    pending_macs: Vec<[u8; 6]>,
    pending_uniq: Vec<usize>,
    verdicts: Vec<bool>,
}

/// Per-AS border router state.
#[derive(Clone)]
pub struct BorderRouter {
    /// The AS this router serves.
    pub ia: IsdAsn,
    hop_key: HopKey,
    /// Packets processed (for the forwarding throughput bench).
    pub processed: u64,
    /// Packets dropped.
    pub dropped: u64,
    metrics: RouterMetrics,
    mac_cache: MacCache,
    batch: BatchScratch,
}

impl BorderRouter {
    /// Creates a router with the AS's hop key. Telemetry starts on a quiet
    /// private handle; share one with [`BorderRouter::set_telemetry`].
    pub fn new(ia: IsdAsn, hop_key: HopKey) -> Self {
        BorderRouter {
            ia,
            hop_key,
            processed: 0,
            dropped: 0,
            metrics: RouterMetrics::register(Telemetry::quiet()),
            mac_cache: MacCache::new(DEFAULT_MAC_CACHE_CAPACITY),
            batch: BatchScratch::default(),
        }
    }

    /// Re-registers the router's counters on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.mac_cache.set_telemetry(&telemetry);
        self.metrics = RouterMetrics::register(telemetry);
    }

    /// Drops all cached MAC verifications (for benchmarks and key events).
    pub fn reset_mac_cache(&mut self) {
        self.mac_cache.clear();
    }

    /// Number of hop-MAC verifications currently cached.
    pub fn mac_cache_len(&self) -> usize {
        self.mac_cache.len()
    }

    /// Processes a packet arriving on `ingress_ifid` (0 = from a host or
    /// service inside this AS) at Unix time `now`. Hop events are stamped
    /// at `now` on the simulation clock; use [`BorderRouter::process_at`]
    /// when a finer per-hop timestamp is known.
    pub fn process(
        &mut self,
        packet: ScionPacket,
        ingress_ifid: u16,
        now: u64,
    ) -> Result<Decision, DropReason> {
        self.process_at(packet, ingress_ifid, now, now.saturating_mul(1_000_000_000))
    }

    /// [`BorderRouter::process`] with an explicit simulation timestamp
    /// (nanoseconds) for the emitted hop/drop events. If the packet carries
    /// a trace context the router takes custody of it — advancing the span
    /// chain — before deciding the packet's fate, so forwarded, delivered
    /// *and* dropped packets all attribute to this hop.
    pub fn process_at(
        &mut self,
        mut packet: ScionPacket,
        ingress_ifid: u16,
        now: u64,
        sim_ns: u64,
    ) -> Result<Decision, DropReason> {
        self.processed += 1;
        let trace = packet.trace.map(|ctx| ctx.child());
        packet.trace = trace;
        let result = match &mut packet.path {
            DataPlanePath::Empty => {
                // AS-local packet: deliverable iff we are the destination AS.
                if packet.dst.ia == self.ia {
                    Ok(None)
                } else {
                    Err(DropReason::WrongDestination)
                }
            }
            DataPlanePath::Scion(path) => {
                Self::process_scion_path(&self.hop_key, path, ingress_ifid, now)
            }
            DataPlanePath::OneHop { .. } => Err(DropReason::UnsupportedPath),
        };
        match result {
            Ok(Some(ifid)) => {
                self.metrics.forwarded.inc();
                self.emit_hop(trace.as_ref(), "pkt.hop", ingress_ifid, ifid, sim_ns);
                Ok(Decision::Forward { ifid, packet })
            }
            Ok(None) => {
                if packet.dst.ia != self.ia {
                    self.dropped += 1;
                    self.on_drop(&DropReason::WrongDestination, trace.as_ref(), sim_ns);
                    return Err(DropReason::WrongDestination);
                }
                self.metrics.delivered.inc();
                self.emit_hop(trace.as_ref(), "pkt.deliver", ingress_ifid, 0, sim_ns);
                Ok(Decision::Deliver(packet))
            }
            Err(e) => {
                self.dropped += 1;
                self.on_drop(&e, trace.as_ref(), sim_ns);
                Err(e)
            }
        }
    }

    /// Processes a raw frame *in place* — the forwarding fast path.
    ///
    /// For the common case (untraced packet, standard SCION or empty path,
    /// exact-length frame) this verifies the hop MAC — consulting the
    /// per-router verification cache first — and rewrites only the affected
    /// header bytes (`seg_id` chaining, pointer advance) directly in
    /// `frame`, with no decode, no allocation and at most one AES call.
    ///
    /// Frames outside that envelope — carrying a hop-by-hop extension whose
    /// trace context must be advanced, using a one-hop path, carrying
    /// trailing bytes, or malformed — fall back to the reference
    /// decode/process/encode path, so the observable behaviour (output
    /// bytes, drop decisions, `router.*` counters) is identical to feeding
    /// the decoded packet through [`BorderRouter::process`].
    pub fn process_frame(
        &mut self,
        frame: &mut Vec<u8>,
        ingress_ifid: u16,
        now: u64,
    ) -> Result<FrameDecision, FrameError> {
        self.process_frame_at(frame, ingress_ifid, now, now.saturating_mul(1_000_000_000))
    }

    /// [`BorderRouter::process_frame`] with an explicit simulation
    /// timestamp for emitted events (mirror of [`BorderRouter::process_at`]).
    pub fn process_frame_at(
        &mut self,
        frame: &mut Vec<u8>,
        ingress_ifid: u16,
        now: u64,
        sim_ns: u64,
    ) -> Result<FrameDecision, FrameError> {
        // A hop-by-hop extension carries a trace context the router must
        // advance and re-serialise: reference path territory.
        if HeaderOffsets::has_hbh_ext(frame) {
            return self.process_frame_fallback(frame, ingress_ifid, now, sim_ns);
        }
        let Ok(off) = HeaderOffsets::locate(frame) else {
            return self.process_frame_fallback(frame, ingress_ifid, now, sim_ns);
        };
        // `decode` tolerates trailing bytes and non-zero reserved bits but
        // `encode` strips/zeroes both; only exact-length canonical frames
        // stay byte-identical under in-place rewriting.
        if !off.is_exact_length(frame)
            || !off.is_canonical(frame)
            || off.path_type() == PathType::OneHop
        {
            return self.process_frame_fallback(frame, ingress_ifid, now, sim_ns);
        }
        self.process_canonical_frame(frame, off, ingress_ifid, now, sim_ns, None)
    }

    /// The committed in-place path shared by [`BorderRouter::process_frame_at`]
    /// and the batch pipeline: mirror of `process_at` for a packet without a
    /// trace context. `prefetched` carries the batch MAC pass's verdict for
    /// the frame's current hop, `None` when it must be verified here.
    fn process_canonical_frame(
        &mut self,
        frame: &mut [u8],
        off: HeaderOffsets,
        ingress_ifid: u16,
        now: u64,
        sim_ns: u64,
        prefetched: Option<bool>,
    ) -> Result<FrameDecision, FrameError> {
        self.processed += 1;
        self.metrics.fastpath_hit.inc();
        let mut cursor = WireCursor::from_offsets(frame, off);
        let result = match off.path_type() {
            PathType::Empty => {
                if cursor.dst_ia() == self.ia {
                    Ok(None)
                } else {
                    Err(DropReason::WrongDestination)
                }
            }
            PathType::Scion => Self::process_scion_frame(
                &self.hop_key,
                &mut self.mac_cache,
                &mut cursor,
                ingress_ifid,
                now,
                prefetched,
            ),
            PathType::OneHop => unreachable!("one-hop frames fall back above"),
        };
        match result {
            Ok(Some(ifid)) => {
                self.metrics.forwarded.inc();
                Ok(FrameDecision::Forward { ifid })
            }
            Ok(None) => {
                if cursor.dst_ia() != self.ia {
                    self.dropped += 1;
                    self.on_drop(&DropReason::WrongDestination, None, sim_ns);
                    return Err(FrameError::Drop(DropReason::WrongDestination));
                }
                self.metrics.delivered.inc();
                Ok(FrameDecision::Deliver)
            }
            Err(e) => {
                self.dropped += 1;
                self.on_drop(&e, None, sim_ns);
                Err(FrameError::Drop(e))
            }
        }
    }

    /// Processes a batch of frames arriving on `ingress_ifid` through the
    /// staged pipeline. See [`BorderRouter::process_batch_at`].
    pub fn process_batch(
        &mut self,
        frames: &mut [Vec<u8>],
        ingress_ifid: u16,
        now: u64,
    ) -> Vec<Result<FrameDecision, FrameError>> {
        self.process_batch_at(frames, ingress_ifid, now, now.saturating_mul(1_000_000_000))
    }

    /// The batched forwarding pipeline: stages N frames through three
    /// passes instead of running each frame to completion alone.
    ///
    /// 1. **Classify** — locate and validate every header once; frames the
    ///    fast path cannot handle in place (hop-by-hop extension, one-hop
    ///    path, trailing bytes, non-canonical encoding, unlocatable header)
    ///    are peeled out for the reference fallback.
    /// 2. **MAC verify** — run the per-frame hop verification over every
    ///    remaining frame (expiry check, un-chaining `seg_id` write — each
    ///    frame's own bytes only), probe the MAC cache per frame,
    ///    deduplicate identical verification keys among the misses, and
    ///    verify the distinct misses together through the batched CMAC
    ///    entry point. All MACs checked by one router share its hop key —
    ///    hence one key epoch — which is what makes grouping them under the
    ///    same precomputed subkeys sound.
    /// 3. **Rewrite** — run each frame through the committed in-place path
    ///    (chain `seg_id`, ingress check, pointer advance); the prefetched
    ///    verdict makes the verify step a single branch. Peeled frames run
    ///    the reference fallback here, in arrival order.
    ///
    /// Per-frame observable behaviour — verdicts, output bytes, `processed`
    /// / `dropped` and every shared `router.*` counter — is identical to
    /// calling [`BorderRouter::process_frame_at`] on each frame in order;
    /// only the fast-path-internal `router.maccache.*` / `router.batch.*`
    /// families may differ (the batch pass checks each distinct key once).
    pub fn process_batch_at(
        &mut self,
        frames: &mut [Vec<u8>],
        ingress_ifid: u16,
        now: u64,
        sim_ns: u64,
    ) -> Vec<Result<FrameDecision, FrameError>> {
        let _prof = self.metrics.telemetry.prof_scope("router.batch");
        self.metrics.batch_calls.inc();
        self.metrics.batch_frames.add(frames.len() as u64);
        let mut scratch = std::mem::take(&mut self.batch);

        // Pass 1: classify / peel.
        scratch.classes.clear();
        for frame in frames.iter() {
            let class = if HeaderOffsets::has_hbh_ext(frame) {
                BatchClass::Peeled
            } else {
                match HeaderOffsets::locate(frame) {
                    Ok(off)
                        if off.is_exact_length(frame)
                            && off.is_canonical(frame)
                            && off.path_type() != PathType::OneHop =>
                    {
                        BatchClass::Inline(off, None)
                    }
                    _ => BatchClass::Peeled,
                }
            };
            scratch.classes.push(class);
        }

        // Pass 2: batched MAC verification.
        self.batch_mac_pass(frames, &mut scratch, now);

        // Pass 3: committed rewrite / fallback, in arrival order.
        let mut out = Vec::with_capacity(frames.len());
        for (frame, class) in frames.iter_mut().zip(scratch.classes.iter()) {
            out.push(match *class {
                BatchClass::Peeled => {
                    self.metrics.batch_peeled.inc();
                    self.process_frame_fallback(frame, ingress_ifid, now, sim_ns)
                }
                BatchClass::Inline(off, prefetched) => {
                    self.process_canonical_frame(frame, off, ingress_ifid, now, sim_ns, prefetched)
                }
            });
        }
        self.batch = scratch;
        out
    }

    /// Pass 2 of [`BorderRouter::process_batch_at`]: settle the MAC verdict
    /// for every inline SCION frame's current hop, performing the same
    /// per-frame verification effects (expiry gate, un-chaining `seg_id`
    /// write) in the same order the sequential path would. Cache misses are
    /// deduplicated within the batch and verified together through
    /// [`HopKey::verify_batch`] over the key's precomputed CMAC subkeys;
    /// successes are inserted with the already-built key (no re-hash, no
    /// re-probe).
    fn batch_mac_pass(&mut self, frames: &mut [Vec<u8>], scratch: &mut BatchScratch, now: u64) {
        scratch.uniq_ref.clear();
        scratch.uniq_ref.resize(frames.len(), None);
        scratch.uniq.clear();
        scratch.dedup.clear();
        for (i, frame) in frames.iter_mut().enumerate() {
            let BatchClass::Inline(off, _) = scratch.classes[i] else {
                continue;
            };
            if off.path_type() != PathType::Scion {
                continue;
            }
            let mut cursor = WireCursor::from_offsets(frame, off);
            let info = cursor.current_info();
            let hf = cursor.current_hop();
            if hf.expiry_unix(info.timestamp) < now {
                continue; // pass 3 drops it before looking at the MAC
            }
            let is_peer_hop = info.peering && Self::frame_at_segment_cons_start(&cursor);
            let mac2 = u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
            // This is the per-frame verify, relocated: the expiry check ran
            // above, and the against-construction un-chaining write happens
            // here and now (it touches only this frame's own `seg_id`, so
            // frames in the batch stay independent). A prefetched verdict
            // tells pass 3 the frame is already past verification.
            let beta = if info.cons_dir || is_peer_hop {
                info.seg_id
            } else {
                let unchained = info.seg_id ^ mac2;
                cursor.set_seg_id(cursor.curr_inf(), unchained);
                unchained
            };
            let input = HopMacInput {
                beta,
                timestamp: info.timestamp,
                exp_time: hf.exp_time,
                cons_ingress: hf.cons_ingress,
                cons_egress: hf.cons_egress,
            };
            let key = MacCacheKey::new(&input, hf.mac, self.hop_key.epoch());
            // Warm path: a cache hit settles the verdict with the same
            // single probe the per-frame path pays — the dedup map never
            // enters the picture. Only cache misses (the cold path, where
            // a CMAC is on the line) pay for in-batch deduplication.
            if self.mac_cache.check(&key) {
                if let BatchClass::Inline(_, prefetched) = &mut scratch.classes[i] {
                    *prefetched = Some(true);
                }
                continue;
            }
            let idx = match scratch.dedup.get(&key) {
                Some(&idx) => {
                    self.metrics.batch_mac_dedup.inc();
                    idx
                }
                None => {
                    let idx = scratch.uniq.len();
                    scratch.uniq.push((key, input, hf.mac, None));
                    scratch.dedup.insert(key, idx);
                    idx
                }
            };
            scratch.uniq_ref[i] = Some(idx);
        }

        // One batched CMAC run over everything the cache could not settle.
        scratch.pending_inputs.clear();
        scratch.pending_macs.clear();
        scratch.pending_uniq.clear();
        for (idx, (_, input, mac, verdict)) in scratch.uniq.iter().enumerate() {
            if verdict.is_none() {
                scratch.pending_inputs.push(*input);
                scratch.pending_macs.push(*mac);
                scratch.pending_uniq.push(idx);
            }
        }
        if !scratch.pending_inputs.is_empty() {
            self.hop_key.verify_batch(
                &scratch.pending_inputs,
                &scratch.pending_macs,
                &mut scratch.verdicts,
            );
            self.metrics
                .batch_mac_batched
                .add(scratch.pending_inputs.len() as u64);
            for (&idx, &ok) in scratch.pending_uniq.iter().zip(scratch.verdicts.iter()) {
                scratch.uniq[idx].3 = Some(ok);
                if ok {
                    self.mac_cache.remember_missed(scratch.uniq[idx].0);
                }
            }
        }

        for (i, uniq_idx) in scratch.uniq_ref.iter().enumerate() {
            let Some(idx) = uniq_idx else { continue };
            if let BatchClass::Inline(_, prefetched) = &mut scratch.classes[i] {
                *prefetched = scratch.uniq[*idx].3;
            }
        }
    }

    /// Reference-path escape hatch for frames the fast path cannot handle:
    /// decode, run the packet-level machinery, re-encode into `frame`.
    fn process_frame_fallback(
        &mut self,
        frame: &mut Vec<u8>,
        ingress_ifid: u16,
        now: u64,
        sim_ns: u64,
    ) -> Result<FrameDecision, FrameError> {
        self.metrics.fastpath_fallback.inc();
        let packet =
            ScionPacket::decode(frame).map_err(|e| FrameError::Malformed(e.to_string()))?;
        match self.process_at(packet, ingress_ifid, now, sim_ns) {
            Ok(Decision::Deliver(p)) => {
                *frame = p
                    .encode()
                    .map_err(|e| FrameError::Malformed(e.to_string()))?;
                Ok(FrameDecision::Deliver)
            }
            Ok(Decision::Forward { ifid, packet }) => {
                *frame = packet
                    .encode()
                    .map_err(|e| FrameError::Malformed(e.to_string()))?;
                Ok(FrameDecision::Forward { ifid })
            }
            Err(e) => Err(FrameError::Drop(e)),
        }
    }

    /// In-place mirror of `BorderRouter::process_scion_path`, operating
    /// on the wire cursor and consulting the MAC verification cache.
    /// `prefetched` short-circuits the *current* hop's MAC check with the
    /// batch pass's verdict; the rare segment-crossing second hop always
    /// verifies inline.
    fn process_scion_frame(
        hop_key: &HopKey,
        cache: &mut MacCache,
        cursor: &mut WireCursor<'_>,
        ingress_ifid: u16,
        now: u64,
        prefetched: Option<bool>,
    ) -> Result<Option<u16>, DropReason> {
        Self::verify_hop_in_frame_with(hop_key, cache, cursor, now, prefetched)?;

        if ingress_ifid != 0 {
            let info = cursor.current_info();
            let hf = cursor.current_hop();
            let expected = if info.cons_dir {
                hf.cons_ingress
            } else {
                hf.cons_egress
            };
            if expected != ingress_ifid {
                return Err(DropReason::IngressMismatch {
                    expected,
                    actual: ingress_ifid,
                });
            }
        }

        Self::chain_on_egress_in_frame(cursor);

        if cursor.at_last_hop() {
            return Ok(None);
        }

        if Self::frame_at_segment_traversal_end(cursor) && !cursor.current_info().peering {
            cursor
                .advance()
                .map_err(|e| DropReason::MalformedPath(e.to_string()))?;
            Self::verify_hop_in_frame(hop_key, cache, cursor, now)?;
            Self::chain_on_egress_in_frame(cursor);
            if cursor.at_last_hop() {
                return Ok(None);
            }
        }

        let info = cursor.current_info();
        let hf = cursor.current_hop();
        let egress = if info.cons_dir {
            hf.cons_egress
        } else {
            hf.cons_ingress
        };
        if egress == 0 {
            return Err(DropReason::MalformedPath(
                "interior hop without an egress interface".into(),
            ));
        }
        cursor
            .advance()
            .map_err(|e| DropReason::MalformedPath(e.to_string()))?;
        Ok(Some(egress))
    }

    /// Mirror of `BorderRouter::at_segment_traversal_end` on a cursor.
    fn frame_at_segment_traversal_end(cursor: &WireCursor<'_>) -> bool {
        let seg = cursor.curr_inf();
        let off = cursor.offsets();
        cursor.curr_hf() == off.seg_start(seg) + off.seg_len(seg) - 1
    }

    /// Mirror of `BorderRouter::at_segment_cons_start` on a cursor.
    fn frame_at_segment_cons_start(cursor: &WireCursor<'_>) -> bool {
        let seg = cursor.curr_inf();
        let off = cursor.offsets();
        let idx = cursor.curr_hf();
        if cursor.current_info().cons_dir {
            idx == off.seg_start(seg)
        } else {
            idx == off.seg_start(seg) + off.seg_len(seg) - 1
        }
    }

    /// Mirror of `BorderRouter::verify_current_hop` on a cursor, with the
    /// MAC verification cache in front of the block cipher. Expiry stays a
    /// direct comparison — it depends on `now` and must never be cached.
    fn verify_hop_in_frame(
        hop_key: &HopKey,
        cache: &mut MacCache,
        cursor: &mut WireCursor<'_>,
        now: u64,
    ) -> Result<(), DropReason> {
        Self::verify_hop_in_frame_with(hop_key, cache, cursor, now, None)
    }

    /// [`BorderRouter::verify_hop_in_frame`] with an optional verdict from
    /// the batch MAC pass. A prefetched verdict means the batch pass already
    /// performed this function's entire effect — including the un-chaining
    /// `seg_id` write — so the short-circuit must not touch the frame again.
    fn verify_hop_in_frame_with(
        hop_key: &HopKey,
        cache: &mut MacCache,
        cursor: &mut WireCursor<'_>,
        now: u64,
        prefetched: Option<bool>,
    ) -> Result<(), DropReason> {
        if let Some(ok) = prefetched {
            // The batch MAC pass already ran this whole function's work for
            // the current hop — expiry check, un-chaining `seg_id` write,
            // cache probe / batched CMAC — so the verdict is final and the
            // frame bytes are already in the post-verification state.
            return if ok { Ok(()) } else { Err(DropReason::BadMac) };
        }
        let info = cursor.current_info();
        let hf = cursor.current_hop();
        if hf.expiry_unix(info.timestamp) < now {
            return Err(DropReason::Expired);
        }
        let is_peer_hop = info.peering && Self::frame_at_segment_cons_start(cursor);
        let mac2 = u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
        let beta = if info.cons_dir || is_peer_hop {
            info.seg_id
        } else {
            // Against construction: un-chain our own MAC first, in place.
            let unchained = info.seg_id ^ mac2;
            cursor.set_seg_id(cursor.curr_inf(), unchained);
            unchained
        };
        let input = HopMacInput {
            beta,
            timestamp: info.timestamp,
            exp_time: hf.exp_time,
            cons_ingress: hf.cons_ingress,
            cons_egress: hf.cons_egress,
        };
        let key = MacCacheKey::new(&input, hf.mac, hop_key.epoch());
        if cache.check(&key) {
            return Ok(());
        }
        if !hop_key.verify(&input, &hf.mac) {
            return Err(DropReason::BadMac);
        }
        cache.remember_missed(key);
        Ok(())
    }

    /// Mirror of `BorderRouter::chain_on_egress` on a cursor.
    fn chain_on_egress_in_frame(cursor: &mut WireCursor<'_>) {
        let info = cursor.current_info();
        if !info.cons_dir {
            return; // already un-chained during verification
        }
        if info.peering && Self::frame_at_segment_cons_start(cursor) {
            return; // peer hops do not chain
        }
        let hf = cursor.current_hop();
        let mac2 = u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
        cursor.xor_seg_id(cursor.curr_inf(), mac2);
    }

    /// Emits the per-hop trace event carrying the span chain. Only packets
    /// that carry a trace context produce events, so untraced traffic pays
    /// nothing beyond the `Option` check.
    fn emit_hop(
        &self,
        trace: Option<&TraceContext>,
        message: &str,
        ingress: u16,
        egress: u16,
        sim_ns: u64,
    ) {
        let Some(ctx) = trace else { return };
        if !self.metrics.telemetry.enabled(Severity::Trace) {
            return;
        }
        self.metrics.telemetry.emit(
            Event::new(
                sim_ns,
                self.ia.to_string(),
                "router",
                Severity::Trace,
                message,
            )
            .field("trace_id", ctx.trace_id)
            .field("span_id", ctx.span_id)
            .field("parent_span_id", ctx.parent_span_id)
            .field("hop", ctx.hop)
            .field("ingress", ingress)
            .field("egress", egress),
        );
    }

    fn on_drop(&self, reason: &DropReason, trace: Option<&TraceContext>, sim_ns: u64) {
        self.metrics.drop_counter(reason).inc();
        if self.metrics.telemetry.enabled(Severity::Warn) {
            let mut event = Event::new(
                sim_ns,
                self.ia.to_string(),
                "router",
                Severity::Warn,
                "packet dropped",
            )
            .field("reason", format!("{reason:?}"));
            if let Some(ctx) = trace {
                event = event
                    .field("trace_id", ctx.trace_id)
                    .field("span_id", ctx.span_id)
                    .field("parent_span_id", ctx.parent_span_id)
                    .field("hop", ctx.hop);
            }
            self.metrics.telemetry.emit(event);
        }
    }

    /// Core path processing; returns `Some(egress ifid)` to forward or
    /// `None` to deliver locally. Rewrites `path` in place (seg_id chaining
    /// and pointer advancement).
    fn process_scion_path(
        hop_key: &HopKey,
        path: &mut ScionPath,
        ingress_ifid: u16,
        now: u64,
    ) -> Result<Option<u16>, DropReason> {
        // Verify the current hop (ours).
        Self::verify_current_hop(hop_key, path, now)?;

        // Ingress check: packets from inside the AS (ifid 0) skip it.
        if ingress_ifid != 0 {
            let expected = path.current_ingress();
            if expected != ingress_ifid {
                return Err(DropReason::IngressMismatch {
                    expected,
                    actual: ingress_ifid,
                });
            }
        }

        // Chain seg_id when leaving a cons-dir hop (not for peer hops).
        Self::chain_on_egress(path);

        if path.at_last_hop() {
            return Ok(None); // Destination AS: deliver.
        }

        // A non-peering segment end is an *internal* crossing: the next
        // segment's first hop field belongs to this same AS. A peering
        // segment end instead leaves over the peering link (the peer hop's
        // egress interface), so it falls through to normal forwarding.
        if Self::at_segment_traversal_end(path) && !path.current_info().peering {
            // Segment crossing inside this AS: the next segment's first hop
            // field also belongs to us; it determines the real egress. Its
            // own interfaces facing the junction are not used.
            path.advance()
                .map_err(|e| DropReason::MalformedPath(e.to_string()))?;
            Self::verify_current_hop(hop_key, path, now)?;
            Self::chain_on_egress(path);
            if path.at_last_hop() {
                return Ok(None);
            }
        }

        let egress = path.current_egress();
        if egress == 0 {
            return Err(DropReason::MalformedPath(
                "interior hop without an egress interface".into(),
            ));
        }
        path.advance()
            .map_err(|e| DropReason::MalformedPath(e.to_string()))?;
        Ok(Some(egress))
    }

    /// Whether the current hop is the last hop of its segment in traversal
    /// order — the point where the packet crosses to the next segment
    /// inside this AS.
    fn at_segment_traversal_end(path: &ScionPath) -> bool {
        // Hop fields are laid out in traversal order, so the traversal end
        // of a segment is its last stored hop regardless of direction.
        let seg = path.meta.curr_inf as usize;
        let seg_start: usize = path.meta.seg_len[..seg].iter().map(|&l| l as usize).sum();
        let seg_len = path.meta.seg_len[seg] as usize;
        path.meta.curr_hf as usize == seg_start + seg_len - 1
    }

    /// Whether the current hop is the construction-order first hop of its
    /// segment (where a peering-flagged hop field lives).
    fn at_segment_cons_start(path: &ScionPath) -> bool {
        let seg = path.meta.curr_inf as usize;
        let seg_start: usize = path.meta.seg_len[..seg].iter().map(|&l| l as usize).sum();
        let seg_len = path.meta.seg_len[seg] as usize;
        let idx = path.meta.curr_hf as usize;
        if path.current_info().cons_dir {
            idx == seg_start
        } else {
            idx == seg_start + seg_len - 1
        }
    }

    fn verify_current_hop(
        hop_key: &HopKey,
        path: &mut ScionPath,
        now: u64,
    ) -> Result<(), DropReason> {
        let info = *path.current_info();
        let hf = *path.current_hop();
        if hf.expiry_unix(info.timestamp) < now {
            return Err(DropReason::Expired);
        }
        let is_peer_hop = info.peering && Self::at_segment_cons_start(path);
        let mac2 = u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
        let beta = if info.cons_dir || is_peer_hop {
            info.seg_id
        } else {
            // Against construction: un-chain our own MAC first.
            let unchained = info.seg_id ^ mac2;
            path.info[path.meta.curr_inf as usize].seg_id = unchained;
            unchained
        };
        let input = HopMacInput {
            beta,
            timestamp: info.timestamp,
            exp_time: hf.exp_time,
            cons_ingress: hf.cons_ingress,
            cons_egress: hf.cons_egress,
        };
        if !hop_key.verify(&input, &hf.mac) {
            return Err(DropReason::BadMac);
        }
        Ok(())
    }

    fn chain_on_egress(path: &mut ScionPath) {
        let info = *path.current_info();
        if !info.cons_dir {
            return; // already un-chained during verification
        }
        if info.peering && Self::at_segment_cons_start(path) {
            return; // peer hops do not chain
        }
        let hf = path.current_hop();
        let mac2 = u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
        path.info[path.meta.curr_inf as usize].seg_id ^= mac2;
    }

    /// Builds the SCMP `ExternalInterfaceDown` error a router sends back to
    /// the source when asked to forward over a dead link. Returns `None`
    /// when the triggering packet's path cannot be reversed.
    pub fn external_interface_down(&self, trigger: &ScionPacket, ifid: u16) -> Option<ScionPacket> {
        let (src, dst, path) = trigger.reply_template()?;
        let msg = ScmpMessage::ExternalInterfaceDown {
            ia: self.ia,
            interface: ifid as u64,
        };
        Some(ScionPacket::new(
            src,
            dst,
            L4Protocol::Scmp,
            path,
            msg.encode(),
        ))
    }
}

impl core::fmt::Debug for BorderRouter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "BorderRouter({}, processed: {}, dropped: {})",
            self.ia, self.processed, self.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_control::fullpath::{Direction, FullPath, PathKind, SegmentUse};
    use scion_control::segment::{AsSecrets, CowSegment, SegmentType};
    use scion_proto::addr::{ia, HostAddr, ScionAddr};

    const TS: u32 = 1_700_000_000;
    const NOW: u64 = 1_700_000_100;

    pub(crate) fn secrets(s: &str) -> AsSecrets {
        AsSecrets::derive(ia(s))
    }

    pub(crate) fn router(s: &str) -> BorderRouter {
        let sec = secrets(s);
        BorderRouter::new(sec.ia, sec.hop_key)
    }

    /// Up segment: core 71-1 (eg 11) -> mid 71-10 (in 21, eg 22, peer to
    /// 71-20 via 29/39) -> leaf 71-100 (in 31).
    pub(crate) fn up_segment() -> scion_control::segment::PathSegment {
        CowSegment::originate(SegmentType::UpDown, TS, 0x1001)
            .extend(&secrets("71-1"), 0, 11, &[])
            .extend(&secrets("71-10"), 21, 22, &[(ia("71-20"), 29, 39)])
            .extend(&secrets("71-100"), 31, 0, &[])
            .materialize()
    }

    /// Down segment: core 71-2 (eg 12) -> mid 71-20 (in 23, eg 24, peer to
    /// 71-10 via 39/29) -> leaf 71-200 (in 33).
    pub(crate) fn down_segment() -> scion_control::segment::PathSegment {
        CowSegment::originate(SegmentType::UpDown, TS, 0x2002)
            .extend(&secrets("71-2"), 0, 12, &[])
            .extend(&secrets("71-20"), 23, 24, &[(ia("71-10"), 39, 29)])
            .extend(&secrets("71-200"), 33, 0, &[])
            .materialize()
    }

    /// Core segment constructed 71-2 (eg 41) -> 71-1 (in 42).
    pub(crate) fn core_segment() -> scion_control::segment::PathSegment {
        CowSegment::originate(SegmentType::Core, TS, 0x3003)
            .extend(&secrets("71-2"), 0, 41, &[])
            .extend(&secrets("71-1"), 42, 0, &[])
            .materialize()
    }

    pub(crate) fn full_transit_path() -> FullPath {
        FullPath::assemble(
            ia("71-100"),
            ia("71-200"),
            PathKind::CoreTransit,
            vec![
                SegmentUse::whole(up_segment(), Direction::AgainstCons),
                SegmentUse::whole(core_segment(), Direction::AgainstCons),
                SegmentUse::whole(down_segment(), Direction::Cons),
            ],
        )
        .unwrap()
    }

    pub(crate) fn packet_with(path: ScionPath) -> ScionPacket {
        packet_to(path, "71-200")
    }

    pub(crate) fn packet_to(path: ScionPath, dst: &str) -> ScionPacket {
        ScionPacket::new(
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(ia(dst), HostAddr::v4(10, 0, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Scion(path),
            b"payload".to_vec(),
        )
    }

    /// Walks a packet through a list of (router, ingress ifid) stations and
    /// returns the delivered packet.
    fn walk(
        mut packet: ScionPacket,
        stations: &[(&str, u16)],
        expect_egress: &[u16],
    ) -> ScionPacket {
        for (i, ((as_str, ingress), want_eg)) in
            stations.iter().zip(expect_egress.iter()).enumerate()
        {
            let mut r = router(as_str);
            match r.process(packet, *ingress, NOW) {
                Ok(Decision::Forward { ifid, packet: p }) => {
                    assert_eq!(ifid, *want_eg, "station {i} ({as_str}) egress");
                    packet = p;
                }
                Ok(Decision::Deliver(p)) => {
                    assert_eq!(*want_eg, 0, "station {i} ({as_str}) delivered early");
                    return p;
                }
                Err(e) => panic!("station {i} ({as_str}) dropped: {e:?}"),
            }
        }
        panic!("packet was never delivered");
    }

    #[test]
    fn end_to_end_core_transit_forwarding() {
        let dp = full_transit_path().to_dataplane().unwrap();
        let pkt = packet_with(dp);
        // 71-100 (host->BR, leaves via 31) -> 71-10 (in 22, out 21)
        // -> 71-1 (in 11, out 42) -> 71-2 (in 41, out 12)
        // -> 71-20 (in 23, out 24) -> 71-200 (in 33, deliver)
        let delivered = walk(
            pkt,
            &[
                ("71-100", 0),
                ("71-10", 22),
                ("71-1", 11),
                ("71-2", 41),
                ("71-20", 23),
                ("71-200", 33),
            ],
            &[31, 21, 42, 12, 24, 0],
        );
        assert_eq!(delivered.payload, b"payload");
    }

    #[test]
    fn peering_path_forwards_over_peer_link() {
        let p = FullPath::assemble(
            ia("71-100"),
            ia("71-200"),
            PathKind::Peering,
            vec![
                SegmentUse {
                    segment: up_segment().into(),
                    dir: Direction::AgainstCons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: Some(ia("71-20")),
                },
                SegmentUse {
                    segment: down_segment().into(),
                    dir: Direction::Cons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: Some(ia("71-10")),
                },
            ],
        )
        .unwrap();
        let pkt = packet_with(p.to_dataplane().unwrap());
        let delivered = walk(
            pkt,
            &[("71-100", 0), ("71-10", 22), ("71-20", 39), ("71-200", 33)],
            &[31, 29, 24, 0],
        );
        assert_eq!(delivered.dst.ia, ia("71-200"));
    }

    #[test]
    fn shortcut_path_forwards() {
        // Down segment sharing mid AS 71-10: core 71-1 -> 71-10 -> 71-300.
        let down = CowSegment::originate(SegmentType::UpDown, TS, 0x4004)
            .extend(&secrets("71-1"), 0, 11, &[])
            .extend(&secrets("71-10"), 21, 25, &[])
            .extend(&secrets("71-300"), 35, 0, &[])
            .materialize();
        let p = FullPath::assemble(
            ia("71-100"),
            ia("71-300"),
            PathKind::Shortcut,
            vec![
                SegmentUse {
                    segment: up_segment().into(),
                    dir: Direction::AgainstCons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: None,
                },
                SegmentUse {
                    segment: down.into(),
                    dir: Direction::Cons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: None,
                },
            ],
        )
        .unwrap();
        let pkt = packet_to(p.to_dataplane().unwrap(), "71-300");
        // 71-10 receives on 22 (from leaf), crosses segments, leaves via 25.
        let delivered = walk(
            pkt,
            &[("71-100", 0), ("71-10", 22), ("71-300", 35)],
            &[31, 25, 0],
        );
        assert_eq!(delivered.payload, b"payload");
    }

    #[test]
    #[cfg(feature = "trace")]
    fn trace_context_advances_and_emits_chain() {
        use sciera_telemetry::{reconstruct_trace, validate_chain, Telemetry};

        let tele = Telemetry::with_severity(Severity::Trace);
        let dp = full_transit_path().to_dataplane().unwrap();
        let mut pkt = packet_with(dp);
        let root = TraceContext::root(77);
        pkt.trace = Some(root);
        // The sending host's root span, as `core` emits it.
        tele.emit(
            Event::new(5, "host", "transport", Severity::Trace, "pkt.send")
                .field("trace_id", root.trace_id)
                .field("span_id", root.span_id)
                .field("parent_span_id", root.parent_span_id)
                .field("hop", root.hop),
        );
        let stations: [(&str, u16); 6] = [
            ("71-100", 0),
            ("71-10", 22),
            ("71-1", 11),
            ("71-2", 41),
            ("71-20", 23),
            ("71-200", 33),
        ];
        let mut cur = pkt;
        for (i, (as_str, ingress)) in stations.iter().enumerate() {
            let mut r = router(as_str);
            r.set_telemetry(tele.clone());
            match r.process_at(cur, *ingress, NOW, 10 + 10 * i as u64) {
                Ok(Decision::Forward { packet, .. }) => cur = packet,
                Ok(Decision::Deliver(p)) => cur = p,
                Err(e) => panic!("station {as_str} dropped: {e:?}"),
            }
        }
        assert_eq!(cur.trace.unwrap().hop, 6, "one span per router");
        let events = tele.flight_recorder().events();
        let chain = reconstruct_trace(&events, 77);
        assert_eq!(chain.len(), 7, "root + six router hops");
        validate_chain(&chain).unwrap();
        assert_eq!(chain.last().unwrap().message, "pkt.deliver");
        // The chain is exactly the deterministic child() derivation.
        let mut expect = root;
        for hop in &chain[1..] {
            expect = expect.child();
            assert_eq!(hop.span_id, expect.span_id);
        }
    }

    #[test]
    #[cfg(feature = "trace")]
    fn dropped_traced_packet_attributes_the_hop() {
        use sciera_telemetry::Telemetry;

        let tele = Telemetry::with_severity(Severity::Trace);
        let dp = full_transit_path().to_dataplane().unwrap();
        let mut pkt = packet_with(dp);
        pkt.trace = Some(TraceContext::root(88));
        if let DataPlanePath::Scion(p) = &mut pkt.path {
            p.hops[0].mac[3] ^= 1;
        }
        let mut r = router("71-100");
        r.set_telemetry(tele.clone());
        assert_eq!(r.process(pkt, 0, NOW), Err(DropReason::BadMac));
        let events = tele.flight_recorder().events();
        let drop = events
            .iter()
            .find(|e| e.message == "packet dropped")
            .unwrap();
        assert!(drop
            .fields
            .iter()
            .any(|(k, v)| k == "trace_id" && v == "88"));
        assert!(drop.fields.iter().any(|(k, v)| k == "hop" && v == "1"));
    }

    #[test]
    fn tampered_mac_dropped() {
        let dp = full_transit_path().to_dataplane().unwrap();
        let mut pkt = packet_with(dp);
        if let DataPlanePath::Scion(p) = &mut pkt.path {
            p.hops[0].mac[3] ^= 1;
        }
        let mut r = router("71-100");
        assert_eq!(r.process(pkt, 0, NOW), Err(DropReason::BadMac));
        assert_eq!(r.dropped, 1);
    }

    #[test]
    fn tampered_interface_dropped() {
        let dp = full_transit_path().to_dataplane().unwrap();
        let mut pkt = packet_with(dp);
        if let DataPlanePath::Scion(p) = &mut pkt.path {
            // Redirect the first hop's egress: MAC no longer matches.
            p.hops[0].cons_ingress = 99;
        }
        let mut r = router("71-100");
        assert_eq!(r.process(pkt, 0, NOW), Err(DropReason::BadMac));
    }

    #[test]
    fn wrong_ingress_interface_dropped() {
        let dp = full_transit_path().to_dataplane().unwrap();
        let pkt = packet_with(dp);
        let mut r100 = router("71-100");
        let Decision::Forward { packet, .. } = r100.process(pkt, 0, NOW).unwrap() else {
            panic!("expected forward");
        };
        // 71-10 expects ingress 22 but the packet shows up on 27.
        let mut r10 = router("71-10");
        assert_eq!(
            r10.process(packet, 27, NOW),
            Err(DropReason::IngressMismatch {
                expected: 22,
                actual: 27
            })
        );
    }

    #[test]
    fn expired_hop_dropped() {
        let dp = full_transit_path().to_dataplane().unwrap();
        let pkt = packet_with(dp);
        let mut r = router("71-100");
        // DEFAULT_EXP_TIME = 63 -> 6 h lifetime.
        let too_late = TS as u64 + 22_000;
        assert_eq!(r.process(pkt, 0, too_late), Err(DropReason::Expired));
    }

    #[test]
    fn wrong_as_key_cannot_forward() {
        let dp = full_transit_path().to_dataplane().unwrap();
        let pkt = packet_with(dp);
        // A router with some other AS's key tries to process hop 0.
        let mut r = router("71-31337");
        assert_eq!(r.process(pkt, 0, NOW), Err(DropReason::BadMac));
    }

    #[test]
    fn empty_path_local_delivery() {
        let pkt = ScionPacket::new(
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Empty,
            b"local".to_vec(),
        );
        let mut r = router("71-100");
        match r.process(pkt, 0, NOW) {
            Ok(Decision::Deliver(p)) => assert_eq!(p.payload, b"local"),
            other => panic!("expected delivery, got {other:?}"),
        }
        // And a foreign destination with an empty path is dropped.
        let pkt2 = ScionPacket::new(
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(ia("71-200"), HostAddr::v4(10, 0, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Empty,
            vec![],
        );
        assert_eq!(r.process(pkt2, 0, NOW), Err(DropReason::WrongDestination));
    }

    #[test]
    fn reverse_path_also_verifies() {
        // Deliver forward, then send the reply along the reversed path.
        let dp = full_transit_path().to_dataplane().unwrap();
        let pkt = packet_with(dp);
        let delivered = walk(
            pkt,
            &[
                ("71-100", 0),
                ("71-10", 22),
                ("71-1", 11),
                ("71-2", 41),
                ("71-20", 23),
                ("71-200", 33),
            ],
            &[31, 21, 42, 12, 24, 0],
        );
        let (src, dst, path) = delivered.reply_template().unwrap();
        let reply = ScionPacket::new(src, dst, L4Protocol::Udp, path, b"pong".to_vec());
        let back = walk(
            reply,
            &[
                ("71-200", 0),
                ("71-20", 24),
                ("71-2", 12),
                ("71-1", 42),
                ("71-10", 21),
                ("71-100", 31),
            ],
            &[33, 23, 41, 11, 22, 0],
        );
        assert_eq!(back.payload, b"pong");
        assert_eq!(back.dst.ia, ia("71-100"));
    }

    #[test]
    fn scmp_external_interface_down_reverses_path() {
        let dp = full_transit_path().to_dataplane().unwrap();
        let pkt = packet_with(dp);
        let r = router("71-10");
        let scmp = r.external_interface_down(&pkt, 21).unwrap();
        assert_eq!(scmp.dst.ia, ia("71-100"));
        assert_eq!(scmp.next_hdr, L4Protocol::Scmp);
        let msg = ScmpMessage::decode(&scmp.payload).unwrap();
        assert_eq!(
            msg,
            ScmpMessage::ExternalInterfaceDown {
                ia: ia("71-10"),
                interface: 21
            }
        );
    }
}

impl BorderRouter {
    /// SCMP traceroute handling: when the current hop field carries a
    /// router-alert flag for the interface the packet arrived on (or will
    /// leave by) and the payload is a `TracerouteRequest`, the router
    /// answers with a `TracerouteReply` naming itself and the interface,
    /// and consumes the probe.
    ///
    /// Alert flags are deliberately *outside* the hop-field MAC (as in the
    /// SCION specification), so the prober can set them on a path it
    /// received without invalidating it.
    pub fn traceroute_probe(&self, packet: &ScionPacket, ingress_ifid: u16) -> Option<ScionPacket> {
        if packet.next_hdr != L4Protocol::Scmp {
            return None;
        }
        let DataPlanePath::Scion(path) = &packet.path else {
            return None;
        };
        let hf = path.current_hop();
        // Traversal-direction mapping: the ingress alert refers to the
        // construction-direction ingress interface.
        let cons_dir = path.current_info().cons_dir;
        let (ingress_alerted, egress_alerted) = if cons_dir {
            (hf.ingress_alert, hf.egress_alert)
        } else {
            (hf.egress_alert, hf.ingress_alert)
        };
        if !(ingress_alerted || egress_alerted) {
            return None;
        }
        let msg = ScmpMessage::decode(&packet.payload).ok()?;
        let ScmpMessage::TracerouteRequest { id, seq } = msg else {
            return None;
        };
        let interface = if ingress_alerted {
            ingress_ifid
        } else {
            path.current_egress()
        };
        let (src, dst, rpath) = packet.reply_template()?;
        let reply = ScmpMessage::TracerouteReply {
            id,
            seq,
            ia: self.ia,
            interface: interface as u64,
        };
        Some(ScionPacket::new(
            src,
            dst,
            L4Protocol::Scmp,
            rpath,
            reply.encode(),
        ))
    }
}

#[cfg(test)]
mod traceroute_tests {
    use super::*;
    use scion_control::fullpath::{Direction, FullPath, PathKind, SegmentUse};
    use scion_control::segment::{AsSecrets, CowSegment, SegmentType};
    use scion_proto::addr::{ia, HostAddr, ScionAddr};

    fn probe_packet(alert_hop: usize) -> ScionPacket {
        let mk = |s: &str| AsSecrets::derive(ia(s));
        let seg = CowSegment::originate(SegmentType::UpDown, 1_700_000_000, 0x99)
            .extend(&mk("71-1"), 0, 11, &[])
            .extend(&mk("71-10"), 21, 22, &[])
            .extend(&mk("71-100"), 31, 0, &[])
            .materialize();
        let path = FullPath::assemble(
            ia("71-100"),
            ia("71-1"),
            PathKind::SingleSegment,
            vec![SegmentUse::whole(seg, Direction::AgainstCons)],
        )
        .unwrap();
        let mut dp = path.to_dataplane().unwrap();
        dp.hops[alert_hop].ingress_alert = true;
        dp.hops[alert_hop].egress_alert = true;
        ScionPacket::new(
            ScionAddr::new(ia("71-100"), HostAddr::v4(1, 1, 1, 1)),
            ScionAddr::new(ia("71-1"), HostAddr::v4(2, 2, 2, 2)),
            L4Protocol::Scmp,
            DataPlanePath::Scion(dp),
            ScmpMessage::TracerouteRequest { id: 9, seq: 3 }.encode(),
        )
    }

    #[test]
    fn alerted_hop_answers() {
        // Walk the probe to hop 1 (71-10) and let it answer.
        let sec100 = AsSecrets::derive(ia("71-100"));
        let mut r100 = BorderRouter::new(sec100.ia, sec100.hop_key);
        let pkt = probe_packet(1);
        // The source's own hop is not alerted in this probe's target.
        assert!(r100.traceroute_probe(&pkt, 0).is_none() == (1 != 0));
        let Decision::Forward { packet, .. } = r100.process(pkt, 0, 1_700_000_100).unwrap() else {
            panic!("expected forward");
        };
        let sec10 = AsSecrets::derive(ia("71-10"));
        let r10 = BorderRouter::new(sec10.ia, sec10.hop_key);
        let reply = r10
            .traceroute_probe(&packet, 22)
            .expect("alerted hop answers");
        assert_eq!(reply.dst.ia, ia("71-100"));
        let msg = ScmpMessage::decode(&reply.payload).unwrap();
        assert_eq!(
            msg,
            ScmpMessage::TracerouteReply {
                id: 9,
                seq: 3,
                ia: ia("71-10"),
                interface: 22
            }
        );
    }

    #[test]
    fn unalerted_hop_stays_silent() {
        let sec100 = AsSecrets::derive(ia("71-100"));
        let r100 = BorderRouter::new(sec100.ia, sec100.hop_key.clone());
        let pkt = probe_packet(1); // alert on hop 1, not hop 0
        assert!(r100.traceroute_probe(&pkt, 0).is_none());
        // Non-SCMP packets never trigger replies even with alerts set.
        let mut udp = probe_packet(0);
        udp.next_hdr = L4Protocol::Udp;
        assert!(r100.traceroute_probe(&udp, 0).is_none());
    }

    #[test]
    fn alert_flags_do_not_break_mac_verification() {
        // The MAC must not cover the alert bits: the probe still forwards.
        let sec100 = AsSecrets::derive(ia("71-100"));
        let mut r100 = BorderRouter::new(sec100.ia, sec100.hop_key);
        let pkt = probe_packet(0);
        assert!(r100.process(pkt, 0, 1_700_000_100).is_ok());
    }
}

#[cfg(test)]
mod fastpath_tests {
    use super::tests::{full_transit_path, packet_to, packet_with, router, secrets};
    use super::*;
    use sciera_telemetry::Telemetry;
    use scion_proto::addr::{ia, HostAddr, ScionAddr};

    const NOW: u64 = 1_700_000_100;

    /// Runs one frame through the reference path (decode → process →
    /// encode) on `r_ref` and through the fast path on `r_fast`, asserting
    /// identical verdicts and identical output bytes, and returns the
    /// shared outcome.
    fn differential_step(
        r_ref: &mut BorderRouter,
        r_fast: &mut BorderRouter,
        frame: &mut Vec<u8>,
        ingress: u16,
        now: u64,
    ) -> Result<FrameDecision, FrameError> {
        let reference: Result<(FrameDecision, Vec<u8>), FrameError> =
            match ScionPacket::decode(frame) {
                Err(e) => Err(FrameError::Malformed(e.to_string())),
                Ok(pkt) => match r_ref.process(pkt, ingress, now) {
                    Ok(Decision::Deliver(p)) => Ok((FrameDecision::Deliver, p.encode().unwrap())),
                    Ok(Decision::Forward { ifid, packet }) => {
                        Ok((FrameDecision::Forward { ifid }, packet.encode().unwrap()))
                    }
                    Err(e) => Err(FrameError::Drop(e)),
                },
            };
        let fast = r_fast.process_frame(frame, ingress, now);
        match (&reference, &fast) {
            (Ok((want, want_bytes)), Ok(got)) => {
                assert_eq!(got, want, "verdict diverged");
                assert_eq!(frame, want_bytes, "output frame bytes diverged");
            }
            (Err(we), Err(ge)) => assert_eq!(ge, we, "error diverged"),
            other => panic!("reference/fast disagree: {other:?}"),
        }
        fast
    }

    #[test]
    fn fastpath_walk_is_byte_identical_to_reference() {
        let stations: [(&str, u16); 6] = [
            ("71-100", 0),
            ("71-10", 22),
            ("71-1", 11),
            ("71-2", 41),
            ("71-20", 23),
            ("71-200", 33),
        ];
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        let mut frame = pkt.encode().unwrap();
        for (as_str, ingress) in stations {
            let mut r_ref = router(as_str);
            let mut r_fast = router(as_str);
            let step = differential_step(&mut r_ref, &mut r_fast, &mut frame, ingress, NOW);
            assert!(step.is_ok(), "station {as_str}: {step:?}");
            // The fast path really did stay in place for these frames.
            assert_eq!(r_fast.processed, 1);
        }
        let delivered = ScionPacket::decode(&frame).unwrap();
        assert_eq!(delivered.payload, b"payload");
    }

    /// A mixed batch — valid frames (with duplicates), a corrupted frame,
    /// a trailing-byte frame, garbage and a traced packet — must match the
    /// per-frame fast path frame for frame: verdicts, output bytes,
    /// `processed`/`dropped` and every shared `router.*` counter.
    #[test]
    fn process_batch_matches_per_frame_path() {
        let tele_seq = Telemetry::quiet();
        let tele_batch = Telemetry::quiet();
        let mut r_seq = router("71-100");
        r_seq.set_telemetry(tele_seq.clone());
        let mut r_batch = router("71-100");
        r_batch.set_telemetry(tele_batch.clone());

        let valid = packet_with(full_transit_path().to_dataplane().unwrap())
            .encode()
            .unwrap();
        let mut traced_pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        traced_pkt.trace = Some(TraceContext::root(7));
        let traced = traced_pkt.encode().unwrap();
        let mut trailing = valid.clone();
        trailing.push(0xaa);
        let mut corrupt = valid.clone();
        let n = corrupt.len();
        corrupt[n - 8] ^= 0x20; // inside the *last* hop's MAC: forwarded here
        let garbage = vec![0x5au8; 40];

        let mut frames_seq = vec![
            valid.clone(),
            valid.clone(),
            corrupt,
            trailing,
            garbage,
            traced,
            valid.clone(),
        ];
        let mut frames_batch = frames_seq.clone();

        let want: Vec<_> = frames_seq
            .iter_mut()
            .map(|f| r_seq.process_frame(f, 0, NOW))
            .collect();
        let got = r_batch.process_batch(&mut frames_batch, 0, NOW);
        assert_eq!(got, want, "verdicts diverged");
        assert_eq!(frames_batch, frames_seq, "output bytes diverged");
        assert_eq!(r_batch.processed, r_seq.processed);
        assert_eq!(r_batch.dropped, r_seq.dropped);

        let shared = |t: &Telemetry| {
            t.snapshot()
                .counters
                .into_iter()
                .filter(|(name, _)| {
                    name.starts_with("router.")
                        && !name.starts_with("router.maccache.")
                        && !name.starts_with("router.batch.")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shared(&tele_batch), shared(&tele_seq), "counter parity");

        let snap = tele_batch.snapshot();
        assert_eq!(snap.counter("router.batch.calls"), Some(1));
        assert_eq!(snap.counter("router.batch.frames"), Some(7));
        // Trailing-byte, garbage and traced frames peel to the fallback.
        assert_eq!(snap.counter("router.batch.peeled"), Some(3));
        // Three frames share the first valid frame's hop signature (the
        // corruption sits in a later hop), so one batched CMAC settles all.
        assert_eq!(snap.counter("router.batch.mac_dedup"), Some(3));
        assert_eq!(snap.counter("router.batch.mac_batched"), Some(1));
    }

    /// Batched BadMac and Expired verdicts match the per-frame path, and
    /// failed verifications never enter the MAC cache.
    #[test]
    fn process_batch_bad_mac_and_expired_match_per_frame() {
        // Wrong hop key: every valid frame fails its MAC.
        let wrong = secrets("71-99");
        let mut r_seq = BorderRouter::new(ia("71-100"), wrong.hop_key.clone());
        let mut r_batch = BorderRouter::new(ia("71-100"), wrong.hop_key);
        let valid = packet_with(full_transit_path().to_dataplane().unwrap())
            .encode()
            .unwrap();
        let mut frames_seq = vec![valid.clone(), valid.clone()];
        let mut frames_batch = frames_seq.clone();
        let want: Vec<_> = frames_seq
            .iter_mut()
            .map(|f| r_seq.process_frame(f, 0, NOW))
            .collect();
        let got = r_batch.process_batch(&mut frames_batch, 0, NOW);
        assert_eq!(got, want);
        assert!(matches!(got[0], Err(FrameError::Drop(DropReason::BadMac))));
        assert_eq!(frames_batch, frames_seq);
        assert_eq!(r_batch.mac_cache_len(), 0, "failed MACs must not be cached");

        // Expired hops drop in pass 3 without entering the MAC pass.
        let mut r_seq = router("71-100");
        let mut r_batch = router("71-100");
        let too_late = 1_700_000_000u64 + 60_000;
        let mut frames_seq = vec![valid.clone(), valid];
        let mut frames_batch = frames_seq.clone();
        let want: Vec<_> = frames_seq
            .iter_mut()
            .map(|f| r_seq.process_frame(f, 0, too_late))
            .collect();
        let got = r_batch.process_batch(&mut frames_batch, 0, too_late);
        assert_eq!(got, want);
        assert!(matches!(got[0], Err(FrameError::Drop(DropReason::Expired))));
        assert_eq!(frames_batch, frames_seq);
    }

    #[test]
    fn warm_cache_skips_cipher_and_agrees() {
        let tele = Telemetry::quiet();
        let mut r = router("71-100");
        r.set_telemetry(tele.clone());
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        let template = pkt.encode().unwrap();

        let mut first = template.clone();
        let d1 = r.process_frame(&mut first, 0, NOW).unwrap();
        let mut second = template.clone();
        let d2 = r.process_frame(&mut second, 0, NOW).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(first, second, "warm-cache rewrite must be identical");
        let snap = tele.snapshot();
        // First frame misses then fills; second hits for both hop checks.
        assert_eq!(snap.counter("router.maccache.hit"), Some(1));
        assert!(snap.counter("router.maccache.miss") >= Some(1));
        assert!(r.mac_cache_len() >= 1);

        // A cache reset restores the cold behaviour.
        r.reset_mac_cache();
        assert_eq!(r.mac_cache_len(), 0);
        let mut third = template.clone();
        assert_eq!(r.process_frame(&mut third, 0, NOW).unwrap(), d1);
        assert_eq!(third, first);
    }

    #[test]
    fn corrupted_frames_drop_identically() {
        // Flip every byte of the header region one at a time: fast path and
        // reference must agree on accept/drop/malformed every single time.
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        let template = pkt.encode().unwrap();
        for pos in 0..template.len() {
            let mut frame = template.clone();
            frame[pos] ^= 0x40;
            let mut r_ref = router("71-100");
            let mut r_fast = router("71-100");
            // Verdict agreement (Ok or any Err) is checked inside the helper.
            let _ = differential_step(&mut r_ref, &mut r_fast, &mut frame, 0, NOW);
            assert_eq!(r_ref.processed, r_fast.processed, "byte {pos}");
            assert_eq!(r_ref.dropped, r_fast.dropped, "byte {pos}");
        }
    }

    #[test]
    fn expired_and_wrong_ingress_drop_identically() {
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        let template = pkt.encode().unwrap();

        let mut frame = template.clone();
        let mut r = router("71-100");
        let too_late = 1_700_000_000u64 + 22_000;
        assert_eq!(
            r.process_frame(&mut frame, 0, too_late),
            Err(FrameError::Drop(DropReason::Expired))
        );

        // Forward once, then present the frame on the wrong interface.
        let mut frame = template.clone();
        router("71-100").process_frame(&mut frame, 0, NOW).unwrap();
        let mut r10 = router("71-10");
        assert_eq!(
            r10.process_frame(&mut frame, 27, NOW),
            Err(FrameError::Drop(DropReason::IngressMismatch {
                expected: 22,
                actual: 27
            }))
        );
    }

    #[test]
    fn traced_frames_fall_back_and_still_match_reference() {
        let tele = Telemetry::quiet();
        let mut pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        pkt.trace = Some(TraceContext::root(42));
        let mut frame = pkt.encode().unwrap();
        let mut r_ref = router("71-100");
        let mut r_fast = router("71-100");
        r_fast.set_telemetry(tele.clone());
        let step = differential_step(&mut r_ref, &mut r_fast, &mut frame, 0, NOW);
        assert!(matches!(step, Ok(FrameDecision::Forward { .. })));
        let snap = tele.snapshot();
        assert_eq!(snap.counter("router.fastpath.fallback"), Some(1));
        assert_eq!(snap.counter("router.fastpath.hit"), Some(0));
        // The trace context advanced exactly once.
        let out = ScionPacket::decode(&frame).unwrap();
        assert_eq!(out.trace.unwrap().hop, 1);
    }

    #[test]
    fn malformed_frames_do_not_touch_router_state() {
        let mut r = router("71-100");
        let mut garbage = vec![0xde, 0xad, 0xbe, 0xef];
        match r.process_frame(&mut garbage, 0, NOW) {
            Err(FrameError::Malformed(_)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
        assert_eq!(
            r.processed, 0,
            "undecodable frames never count as processed"
        );
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn trailing_bytes_fall_back_to_reference_semantics() {
        let tele = Telemetry::quiet();
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        let mut frame = pkt.encode().unwrap();
        frame.push(0xcc); // decode tolerates, encode strips
        let mut r_ref = router("71-100");
        let mut r_fast = router("71-100");
        r_fast.set_telemetry(tele.clone());
        let step = differential_step(&mut r_ref, &mut r_fast, &mut frame, 0, NOW);
        assert!(matches!(step, Ok(FrameDecision::Forward { .. })));
        assert_eq!(tele.snapshot().counter("router.fastpath.fallback"), Some(1));
    }

    #[test]
    fn reserved_bits_fall_back_and_are_canonicalised() {
        // decode ignores reserved bits, encode zeroes them: such frames must
        // take the reference path so both paths emit the canonical frame.
        let tele = Telemetry::quiet();
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        let mut frame = pkt.encode().unwrap();
        frame[10] |= 0x40; // common-header RSV byte
        let mut r_ref = router("71-100");
        let mut r_fast = router("71-100");
        r_fast.set_telemetry(tele.clone());
        let step = differential_step(&mut r_ref, &mut r_fast, &mut frame, 0, NOW);
        assert!(matches!(step, Ok(FrameDecision::Forward { .. })));
        assert_eq!(frame[10], 0, "output frame must be canonical");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("router.fastpath.fallback"), Some(1));
        assert_eq!(snap.counter("router.fastpath.hit"), Some(0));
    }

    #[test]
    fn empty_path_frames_processed_inline() {
        let tele = Telemetry::quiet();
        let local = ScionPacket::new(
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Empty,
            b"local".to_vec(),
        );
        let mut r = router("71-100");
        r.set_telemetry(tele.clone());
        let mut frame = local.encode().unwrap();
        let before = frame.clone();
        assert_eq!(
            r.process_frame(&mut frame, 0, NOW),
            Ok(FrameDecision::Deliver)
        );
        assert_eq!(frame, before, "delivery leaves the frame untouched");

        let mut foreign = local.clone();
        foreign.dst.ia = ia("71-200");
        let mut frame = foreign.encode().unwrap();
        assert_eq!(
            r.process_frame(&mut frame, 0, NOW),
            Err(FrameError::Drop(DropReason::WrongDestination))
        );
        let snap = tele.snapshot();
        assert_eq!(snap.counter("router.fastpath.hit"), Some(2));
        assert_eq!(snap.counter("router.fastpath.fallback"), Some(0));
    }

    #[test]
    fn one_hop_frames_fall_back_to_unsupported() {
        use scion_proto::path::{HopField, InfoField};
        let pkt = ScionPacket::new(
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(ia("71-10"), HostAddr::v4(10, 0, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::OneHop {
                info: InfoField {
                    peering: false,
                    cons_dir: true,
                    seg_id: 1,
                    timestamp: 1_700_000_000,
                },
                first_hop: HopField {
                    ingress_alert: false,
                    egress_alert: false,
                    exp_time: 63,
                    cons_ingress: 0,
                    cons_egress: 7,
                    mac: [1, 2, 3, 4, 5, 6],
                },
                second_hop: HopField {
                    ingress_alert: false,
                    egress_alert: false,
                    exp_time: 0,
                    cons_ingress: 0,
                    cons_egress: 0,
                    mac: [0; 6],
                },
            },
            vec![],
        );
        let mut frame = pkt.encode().unwrap();
        let mut r = router("71-100");
        assert_eq!(
            r.process_frame(&mut frame, 0, NOW),
            Err(FrameError::Drop(DropReason::UnsupportedPath))
        );
        assert_eq!(r.processed, 1, "fallback still processes the packet");
    }

    #[test]
    fn peering_walk_is_byte_identical() {
        use super::tests::{down_segment, up_segment};
        use scion_control::fullpath::{Direction, FullPath, PathKind, SegmentUse};

        let p = FullPath::assemble(
            ia("71-100"),
            ia("71-200"),
            PathKind::Peering,
            vec![
                SegmentUse {
                    segment: up_segment().into(),
                    dir: Direction::AgainstCons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: Some(ia("71-20")),
                },
                SegmentUse {
                    segment: down_segment().into(),
                    dir: Direction::Cons,
                    from_idx: 1,
                    to_idx: 2,
                    peer_with: Some(ia("71-10")),
                },
            ],
        )
        .unwrap();
        let pkt = packet_to(p.to_dataplane().unwrap(), "71-200");
        let mut frame = pkt.encode().unwrap();
        let stations: [(&str, u16); 4] =
            [("71-100", 0), ("71-10", 22), ("71-20", 39), ("71-200", 33)];
        for (as_str, ingress) in stations {
            let mut r_ref = router(as_str);
            let mut r_fast = router(as_str);
            let step = differential_step(&mut r_ref, &mut r_fast, &mut frame, ingress, NOW);
            assert!(step.is_ok(), "station {as_str}: {step:?}");
        }
    }
}
