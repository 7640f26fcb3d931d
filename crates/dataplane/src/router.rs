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
//!
//! There is one engine, [`BorderRouter::process_frame_at`]: it runs that
//! algorithm on the raw frame and rewrites the bytes it changes (`seg_id`,
//! the path pointers, a carried trace context) where they sit. A batch is
//! a loop over it. The same algorithm on a decoded packet is the executable
//! spec in `tests/spec/`, which the engine must equal in verdict, bytes
//! and counters (`tests/router_spec.rs`).

use sciera_telemetry::work::{self, Work};
use sciera_telemetry::{Counter, Event, Severity, Telemetry};
use scion_crypto::mac::{HopKey, HopMacInput};
use scion_proto::addr::IsdAsn;
use scion_proto::packet::{DataPlanePath, L4Protocol, PathType, ScionPacket};
use scion_proto::scmp::ScmpMessage;
use scion_proto::trace::TraceContext;
use scion_proto::wire::{HeaderOffsets, WireCursor};
use scion_proto::ProtoError;

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
    /// The frame is not a SCION packet the router can carry: exactly the
    /// frames `ScionPacket::decode` rejects or `encode` cannot re-serialise.
    /// Such frames never reach the router's processing counters.
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
    /// Frames processed as they arrived.
    fastpath_hit: Counter,
    /// Frames canonicalised (decoded and re-encoded) first: trailing
    /// bytes, non-zero reserved bits, or a header `locate` declines.
    fastpath_fallback: Counter,
    /// `process_batch` invocations.
    batch_calls: Counter,
    /// Frames submitted across all `process_batch` invocations.
    batch_frames: Counter,
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
        }
    }

    /// Re-registers the router's counters on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = RouterMetrics::register(telemetry);
    }

    /// Processes a raw frame arriving on `ingress_ifid` (0 = from a host or
    /// service inside this AS) at Unix time `now`, in place. Hop events are
    /// stamped at `now` on the simulation clock; use
    /// [`BorderRouter::process_frame_at`] when a finer per-hop timestamp is
    /// known.
    pub fn process_frame(
        &mut self,
        frame: &mut Vec<u8>,
        ingress_ifid: u16,
        now: u64,
    ) -> Result<FrameDecision, FrameError> {
        self.process_frame_at(frame, ingress_ifid, now, now.saturating_mul(1_000_000_000))
    }

    /// The forwarding engine: [`BorderRouter::process_frame`] with an
    /// explicit simulation timestamp (nanoseconds) for the emitted events.
    ///
    /// Every hop field the frame crosses here is verified — expiry, then
    /// its MAC, one AES block — and only the bytes the algorithm changes
    /// are rewritten, with no decode and no allocation. A frame carrying a
    /// trace context is taken into custody first — its extension is
    /// advanced in place — so forwarded, delivered *and* dropped frames all
    /// attribute to this hop, and a tracing telemetry handle records
    /// `pkt.hop` / `pkt.deliver` / drop events with the new span.
    ///
    /// A frame that is not canonical — trailing bytes, non-zero reserved
    /// bits, or a header [`HeaderOffsets::locate`] declines — is first
    /// rewritten into its canonical encoding, so the output is the bytes
    /// decode → process → encode would give.
    pub fn process_frame_at(
        &mut self,
        frame: &mut Vec<u8>,
        ingress_ifid: u16,
        now: u64,
        sim_ns: u64,
    ) -> Result<FrameDecision, FrameError> {
        let off = match HeaderOffsets::locate(frame) {
            Ok(off) if off.is_exact_length(frame) && off.is_canonical(frame) => {
                self.metrics.fastpath_hit.inc();
                off
            }
            _ => self.canonicalise(frame)?,
        };
        self.processed += 1;
        work::add(Work::HopSteps, 1);
        let mut cursor = WireCursor::from_offsets(frame, off);
        let trace = cursor.advance_trace();
        let result = match off.path_type() {
            PathType::Empty => Ok(None),
            PathType::Scion => {
                Self::process_scion_frame(&self.hop_key, &mut cursor, ingress_ifid, now)
            }
            PathType::OneHop => Err(DropReason::UnsupportedPath),
        };
        let result = match result {
            Ok(None) if cursor.dst_ia() != self.ia => Err(DropReason::WrongDestination),
            other => other,
        };
        match result {
            Ok(Some(ifid)) => {
                self.metrics.forwarded.inc();
                if let Some(ctx) = &trace {
                    self.emit_hop(ctx, "pkt.hop", ingress_ifid, ifid, sim_ns);
                }
                Ok(FrameDecision::Forward { ifid })
            }
            Ok(None) => {
                self.metrics.delivered.inc();
                if let Some(ctx) = &trace {
                    self.emit_hop(ctx, "pkt.deliver", ingress_ifid, 0, sim_ns);
                }
                Ok(FrameDecision::Deliver)
            }
            Err(e) => {
                self.dropped += 1;
                self.on_drop(&e, trace.as_ref(), sim_ns);
                Err(FrameError::Drop(e))
            }
        }
    }

    /// Rewrites a frame the engine cannot take as it arrived into its
    /// canonical encoding — `decode`, then `encode` — and locates it. A
    /// frame either step refuses is malformed, before any processing
    /// counter moves.
    fn canonicalise(&self, frame: &mut Vec<u8>) -> Result<HeaderOffsets, FrameError> {
        self.metrics.fastpath_fallback.inc();
        let malformed = |e: ProtoError| FrameError::Malformed(e.to_string());
        *frame = ScionPacket::decode(frame)
            .and_then(|p| p.encode())
            .map_err(malformed)?;
        HeaderOffsets::locate(frame).map_err(malformed)
    }

    /// Processes a batch of frames arriving on `ingress_ifid`:
    /// [`BorderRouter::process_frame`] on every frame, in order. The
    /// verdicts, bytes and counters are those of the per-frame calls, and
    /// every frame verifies its own hop fields. The batch adds its
    /// `router.batch` profiler scope and the `router.batch.{calls,frames}`
    /// counters.
    pub fn process_batch(
        &mut self,
        frames: &mut [Vec<u8>],
        ingress_ifid: u16,
        now: u64,
    ) -> Vec<Result<FrameDecision, FrameError>> {
        let _prof = self.metrics.telemetry.prof_scope("router.batch");
        self.metrics.batch_calls.inc();
        self.metrics.batch_frames.add(frames.len() as u64);
        frames
            .iter_mut()
            .map(|frame| self.process_frame(frame, ingress_ifid, now))
            .collect()
    }

    /// The standard-path step on the wire cursor: returns `Some(egress
    /// ifid)` to forward or `None` to deliver locally.
    fn process_scion_frame(
        hop_key: &HopKey,
        cursor: &mut WireCursor<'_>,
        ingress_ifid: u16,
        now: u64,
    ) -> Result<Option<u16>, DropReason> {
        Self::verify_hop(hop_key, cursor, now)?;

        // Ingress check: packets from inside the AS (ifid 0) skip it.
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

        Self::chain_seg_id(cursor);

        if cursor.at_last_hop() {
            return Ok(None); // Destination AS: deliver.
        }

        // A non-peering segment end is an *internal* crossing: the next
        // segment's first hop field belongs to this same AS and determines
        // the real egress. A peering segment end instead leaves over the
        // peering link (the peer hop's egress interface).
        if Self::at_traversal_end(cursor) && !cursor.current_info().peering {
            cursor
                .advance()
                .map_err(|e| DropReason::MalformedPath(e.to_string()))?;
            Self::verify_hop(hop_key, cursor, now)?;
            Self::chain_seg_id(cursor);
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

    /// Whether the current hop is the last hop of its segment in traversal
    /// order. Hop fields are laid out in traversal order, so that is the
    /// segment's last stored hop regardless of direction.
    fn at_traversal_end(cursor: &WireCursor<'_>) -> bool {
        let seg = cursor.curr_inf();
        let off = cursor.offsets();
        cursor.curr_hf() == off.seg_start(seg) + off.seg_len(seg) - 1
    }

    /// Whether the current hop is the construction-order first hop of its
    /// segment (where a peering-flagged hop field lives).
    fn at_cons_start(cursor: &WireCursor<'_>) -> bool {
        let seg = cursor.curr_inf();
        let off = cursor.offsets();
        let idx = cursor.curr_hf();
        if cursor.current_info().cons_dir {
            idx == off.seg_start(seg)
        } else {
            idx == off.seg_start(seg) + off.seg_len(seg) - 1
        }
    }

    /// Verifies the current hop: expiry, then the MAC, one AES block, every
    /// time. Against construction direction the hop's own MAC is un-chained
    /// from `seg_id` first, in place.
    fn verify_hop(
        hop_key: &HopKey,
        cursor: &mut WireCursor<'_>,
        now: u64,
    ) -> Result<(), DropReason> {
        let info = cursor.current_info();
        let hf = cursor.current_hop();
        if hf.expiry_unix(info.timestamp) < now {
            return Err(DropReason::Expired);
        }
        let is_peer_hop = info.peering && Self::at_cons_start(cursor);
        let mac2 = u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
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
        if !hop_key.verify(&input, &hf.mac) {
            return Err(DropReason::BadMac);
        }
        Ok(())
    }

    /// Chains `seg_id ^= mac[0..2]` when leaving a construction-direction
    /// hop; peer hops do not chain, and against construction the MAC was
    /// already un-chained during verification.
    fn chain_seg_id(cursor: &mut WireCursor<'_>) {
        let info = cursor.current_info();
        if !info.cons_dir || (info.peering && Self::at_cons_start(cursor)) {
            return;
        }
        let hf = cursor.current_hop();
        let mac2 = u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
        cursor.xor_seg_id(cursor.curr_inf(), mac2);
    }

    /// Emits the per-hop trace event carrying the span chain. Only frames
    /// that carry a trace context produce events, so untraced traffic pays
    /// nothing beyond the `Option` check at the call.
    fn emit_hop(&self, ctx: &TraceContext, message: &str, ingress: u16, egress: u16, sim_ns: u64) {
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
    use scion_proto::path::ScionPath;

    const TS: u32 = 1_700_000_000;
    const NOW: u64 = 1_700_000_100;

    fn secrets(s: &str) -> AsSecrets {
        AsSecrets::derive(ia(s))
    }

    fn router(s: &str) -> BorderRouter {
        let sec = secrets(s);
        BorderRouter::new(sec.ia, sec.hop_key)
    }

    /// Up segment: core 71-1 (eg 11) -> mid 71-10 (in 21, eg 22, peer to
    /// 71-20 via 29/39) -> leaf 71-100 (in 31).
    fn up_segment() -> scion_control::segment::PathSegment {
        CowSegment::originate(SegmentType::UpDown, TS, 0x1001)
            .extend(&secrets("71-1"), 0, 11, &[])
            .extend(&secrets("71-10"), 21, 22, &[(ia("71-20"), 29, 39)])
            .extend(&secrets("71-100"), 31, 0, &[])
            .materialize()
    }

    /// Down segment: core 71-2 (eg 12) -> mid 71-20 (in 23, eg 24, peer to
    /// 71-10 via 39/29) -> leaf 71-200 (in 33).
    fn down_segment() -> scion_control::segment::PathSegment {
        CowSegment::originate(SegmentType::UpDown, TS, 0x2002)
            .extend(&secrets("71-2"), 0, 12, &[])
            .extend(&secrets("71-20"), 23, 24, &[(ia("71-10"), 39, 29)])
            .extend(&secrets("71-200"), 33, 0, &[])
            .materialize()
    }

    /// Core segment constructed 71-2 (eg 41) -> 71-1 (in 42).
    fn core_segment() -> scion_control::segment::PathSegment {
        CowSegment::originate(SegmentType::Core, TS, 0x3003)
            .extend(&secrets("71-2"), 0, 41, &[])
            .extend(&secrets("71-1"), 42, 0, &[])
            .materialize()
    }

    fn full_transit_path() -> FullPath {
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

    /// The transit walk: (AS, ingress) of every router on the path.
    const TRANSIT: [(&str, u16); 6] = [
        ("71-100", 0),
        ("71-10", 22),
        ("71-1", 11),
        ("71-2", 41),
        ("71-20", 23),
        ("71-200", 33),
    ];

    fn packet_with(path: ScionPath) -> ScionPacket {
        packet_to(path, "71-200")
    }

    fn packet_to(path: ScionPath, dst: &str) -> ScionPacket {
        ScionPacket::new(
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(ia(dst), HostAddr::v4(10, 0, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Scion(path),
            b"payload".to_vec(),
        )
    }

    fn transit_frame() -> Vec<u8> {
        packet_with(full_transit_path().to_dataplane().unwrap())
            .encode()
            .unwrap()
    }

    /// Walks a packet's frame through a list of (router, ingress ifid)
    /// stations and returns the delivered packet.
    fn walk(packet: ScionPacket, stations: &[(&str, u16)], expect_egress: &[u16]) -> ScionPacket {
        let mut frame = packet.encode().unwrap();
        for (i, ((as_str, ingress), want_eg)) in
            stations.iter().zip(expect_egress.iter()).enumerate()
        {
            let mut r = router(as_str);
            match r.process_frame(&mut frame, *ingress, NOW) {
                Ok(FrameDecision::Forward { ifid }) => {
                    assert_eq!(ifid, *want_eg, "station {i} ({as_str}) egress");
                }
                Ok(FrameDecision::Deliver) => {
                    assert_eq!(*want_eg, 0, "station {i} ({as_str}) delivered early");
                    return ScionPacket::decode(&frame).unwrap();
                }
                Err(e) => panic!("station {i} ({as_str}) dropped: {e:?}"),
            }
        }
        panic!("packet was never delivered");
    }

    fn dropped(reason: DropReason) -> Result<FrameDecision, FrameError> {
        Err(FrameError::Drop(reason))
    }

    #[test]
    fn end_to_end_core_transit_forwarding() {
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        // 71-100 (host->BR, leaves via 31) -> 71-10 (in 22, out 21)
        // -> 71-1 (in 11, out 42) -> 71-2 (in 41, out 12)
        // -> 71-20 (in 23, out 24) -> 71-200 (in 33, deliver)
        let delivered = walk(pkt, &TRANSIT, &[31, 21, 42, 12, 24, 0]);
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
    fn trace_context_advances_and_emits_chain() {
        use sciera_telemetry::{reconstruct_trace, validate_chain};

        let tele = Telemetry::with_severity(Severity::Trace);
        let mut pkt = packet_with(full_transit_path().to_dataplane().unwrap());
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
        let mut frame = pkt.encode().unwrap();
        for (i, (as_str, ingress)) in TRANSIT.iter().enumerate() {
            let mut r = router(as_str);
            r.set_telemetry(tele.clone());
            let verdict = r.process_frame_at(&mut frame, *ingress, NOW, 10 + 10 * i as u64);
            assert!(verdict.is_ok(), "station {as_str}: {verdict:?}");
        }
        let delivered = ScionPacket::decode(&frame).unwrap();
        assert_eq!(delivered.trace.unwrap().hop, 6, "one span per router");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("router.fastpath.hit"), Some(6), "in place");
        assert_eq!(snap.counter("router.fastpath.fallback"), Some(0));
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
    fn dropped_traced_packet_attributes_the_hop() {
        let tele = Telemetry::with_severity(Severity::Trace);
        let mut dp = full_transit_path().to_dataplane().unwrap();
        dp.hops[0].mac[3] ^= 1;
        let mut pkt = packet_with(dp);
        pkt.trace = Some(TraceContext::root(88));
        let mut r = router("71-100");
        r.set_telemetry(tele.clone());
        let mut frame = pkt.encode().unwrap();
        assert_eq!(
            r.process_frame(&mut frame, 0, NOW),
            dropped(DropReason::BadMac)
        );
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
        let mut dp = full_transit_path().to_dataplane().unwrap();
        dp.hops[0].mac[3] ^= 1;
        let mut frame = packet_with(dp).encode().unwrap();
        let mut r = router("71-100");
        assert_eq!(
            r.process_frame(&mut frame, 0, NOW),
            dropped(DropReason::BadMac)
        );
        assert_eq!(r.dropped, 1);
    }

    #[test]
    fn tampered_interface_dropped() {
        let mut dp = full_transit_path().to_dataplane().unwrap();
        // Redirect the first hop's egress: MAC no longer matches.
        dp.hops[0].cons_ingress = 99;
        let mut frame = packet_with(dp).encode().unwrap();
        let mut r = router("71-100");
        assert_eq!(
            r.process_frame(&mut frame, 0, NOW),
            dropped(DropReason::BadMac)
        );
    }

    #[test]
    fn wrong_ingress_interface_dropped() {
        let mut frame = transit_frame();
        router("71-100").process_frame(&mut frame, 0, NOW).unwrap();
        // 71-10 expects ingress 22 but the packet shows up on 27.
        let mut r10 = router("71-10");
        assert_eq!(
            r10.process_frame(&mut frame, 27, NOW),
            dropped(DropReason::IngressMismatch {
                expected: 22,
                actual: 27
            })
        );
    }

    #[test]
    fn expired_hop_dropped() {
        let mut r = router("71-100");
        // DEFAULT_EXP_TIME = 63 -> 6 h lifetime.
        let too_late = TS as u64 + 22_000;
        assert_eq!(
            r.process_frame(&mut transit_frame(), 0, too_late),
            dropped(DropReason::Expired)
        );
    }

    #[test]
    fn wrong_as_key_cannot_forward() {
        // A router with some other AS's key tries to process hop 0.
        let mut r = router("71-31337");
        assert_eq!(
            r.process_frame(&mut transit_frame(), 0, NOW),
            dropped(DropReason::BadMac)
        );
    }

    #[test]
    fn empty_path_local_delivery() {
        let local = ScionPacket::new(
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Empty,
            b"local".to_vec(),
        );
        let mut r = router("71-100");
        let mut frame = local.encode().unwrap();
        let before = frame.clone();
        assert_eq!(
            r.process_frame(&mut frame, 0, NOW),
            Ok(FrameDecision::Deliver)
        );
        assert_eq!(frame, before, "delivery leaves the frame untouched");
        // And a foreign destination with an empty path is dropped.
        let mut foreign = local;
        foreign.dst.ia = ia("71-200");
        assert_eq!(
            r.process_frame(&mut foreign.encode().unwrap(), 0, NOW),
            dropped(DropReason::WrongDestination)
        );
    }

    #[test]
    fn good_frames_of_a_flow_do_not_vouch_for_a_forged_one() {
        let mut r = router("71-100");
        let template = transit_frame();
        let mut first = template.clone();
        let d1 = r.process_frame(&mut first, 0, NOW).unwrap();
        for _ in 0..8 {
            let mut again = template.clone();
            let (verdict, done) = work::counted(|| r.process_frame(&mut again, 0, NOW));
            assert_eq!(verdict.unwrap(), d1);
            assert_eq!(again, first, "every frame of the flow is rewritten alike");
            assert_eq!(done.aes_blocks, 1, "and verifies its hop field again");
        }
        let mut dp = full_transit_path().to_dataplane().unwrap();
        dp.hops[0].mac[5] ^= 1;
        assert_eq!(
            r.process_frame(&mut packet_with(dp).encode().unwrap(), 0, NOW),
            dropped(DropReason::BadMac)
        );
    }

    #[test]
    fn non_canonical_frames_are_canonicalised_first() {
        let tele = Telemetry::quiet();
        let mut r = router("71-100");
        r.set_telemetry(tele.clone());
        let mut canonical = transit_frame();
        r.process_frame(&mut canonical, 0, NOW).unwrap();
        let mut reserved = transit_frame();
        reserved[10] |= 0x40; // common-header RSV byte
        let mut trailing = transit_frame();
        trailing.push(0xcc); // decode tolerates, encode strips
        for mut frame in [reserved, trailing] {
            assert_eq!(
                r.process_frame(&mut frame, 0, NOW),
                Ok(FrameDecision::Forward { ifid: 31 })
            );
            assert_eq!(frame, canonical);
        }
        let snap = tele.snapshot();
        assert_eq!(snap.counter("router.fastpath.hit"), Some(1));
        assert_eq!(snap.counter("router.fastpath.fallback"), Some(2));
        assert_eq!(snap.counter("router.forwarded"), Some(3));
    }

    #[test]
    fn malformed_frames_do_not_touch_router_state() {
        let tele = Telemetry::quiet();
        let mut r = router("71-100");
        r.set_telemetry(tele.clone());
        // Garbage `decode` rejects, and a traced frame whose extension wraps
        // a second hop-by-hop extension, which `decode` takes and `encode`
        // refuses.
        let mut nested = packet_with(full_transit_path().to_dataplane().unwrap());
        nested.trace = Some(TraceContext::root(5));
        let mut nested = nested.encode().unwrap();
        let ext = HeaderOffsets::locate(&nested).unwrap().hdr_len();
        nested[ext] = scion_proto::trace::HBH_EXT_PROTOCOL;
        assert!(ScionPacket::decode(&nested).is_ok());
        for mut frame in [vec![0xde, 0xad, 0xbe, 0xef], nested] {
            match r.process_frame(&mut frame, 0, NOW) {
                Err(FrameError::Malformed(_)) => {}
                other => panic!("expected malformed, got {other:?}"),
            }
        }
        assert_eq!((r.processed, r.dropped), (0, 0));
        let moved: Vec<_> = tele
            .snapshot()
            .counters
            .into_iter()
            .filter(|(name, n)| *n > 0 && name != "router.fastpath.fallback")
            .collect();
        assert!(moved.is_empty(), "{moved:?}");
    }

    #[test]
    fn scmp_external_interface_down_reverses_path() {
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
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

    #[test]
    fn reverse_path_also_verifies() {
        // Deliver forward, then send the reply along the reversed path.
        let pkt = packet_with(full_transit_path().to_dataplane().unwrap());
        let delivered = walk(pkt, &TRANSIT, &[31, 21, 42, 12, 24, 0]);
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
        assert!(r100.traceroute_probe(&pkt, 0).is_none());
        let mut frame = pkt.encode().unwrap();
        assert!(matches!(
            r100.process_frame(&mut frame, 0, 1_700_000_100),
            Ok(FrameDecision::Forward { .. })
        ));
        let packet = ScionPacket::decode(&frame).unwrap();
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
        let r100 = BorderRouter::new(sec100.ia, sec100.hop_key);
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
        let mut frame = probe_packet(0).encode().unwrap();
        assert!(r100.process_frame(&mut frame, 0, 1_700_000_100).is_ok());
    }
}
