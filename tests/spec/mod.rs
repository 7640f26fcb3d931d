//! The border router's executable spec, and the harness that holds the
//! engine to it.
//!
//! [`spec_step`] is the SCION data-plane algorithm (§2) on a decoded packet,
//! written to be read. A frame's spec: decode it, re-encode it (a frame
//! either step refuses is malformed), step the packet, encode the result.
//! [`Net`] runs the router's one engine, `BorderRouter::process_frame_at`,
//! beside the spec at every router a frame reaches, and requires the two to
//! agree in verdict, bytes, `processed`/`dropped` and the
//! `router.{forwarded,delivered,drop.*}` counters, and emit the events its
//! telemetry floor lets through. [`build_frame`] makes a frame of every
//! class the router meets.

// Each test crate that includes this module uses a different part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::OnceLock;

use sciera::control::fullpath::{Direction, FullPath, PathKind, SegmentUse};
use sciera::control::segment::{AsSecrets, CowSegment, SegmentType};
use sciera::crypto::mac::{HopKey, HopMacInput};
use sciera::dataplane::router::{BorderRouter, DropReason, FrameDecision, FrameError};
use sciera::proto::addr::{ia, HostAddr, IsdAsn, ScionAddr, ServiceAddr};
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use sciera::proto::path::ScionPath;
use sciera::proto::scmp::ScmpMessage;
use sciera::proto::trace::{TraceContext, HBH_EXT_PROTOCOL};
use sciera::proto::wire::HeaderOffsets;
use sciera::proto::ProtoError;
use sciera::telemetry::{Severity, Telemetry};

pub const TS: u32 = 1_700_000_000;
pub const NOW: u64 = TS as u64 + 100;

// ---------------------------------------------------------------- the spec

type Step = Result<(FrameDecision, ScionPacket), DropReason>;
type HopStep = Result<Option<u16>, DropReason>;

/// One router's step on a decoded packet: the verdict, the packet after.
fn spec_step(ia: IsdAsn, key: &HopKey, mut pkt: ScionPacket, ingress: u16, now: u64) -> Step {
    // The router takes custody of a trace context before it decides.
    pkt.trace = pkt.trace.map(|ctx| ctx.child());
    let egress = match &mut pkt.path {
        DataPlanePath::Empty => None,
        DataPlanePath::OneHop { .. } => return Err(DropReason::UnsupportedPath),
        DataPlanePath::Scion(path) => scion_step(key, path, ingress, now)?,
    };
    match egress {
        Some(ifid) => Ok((FrameDecision::Forward { ifid }, pkt)),
        None if pkt.dst.ia == ia => Ok((FrameDecision::Deliver, pkt)),
        None => Err(DropReason::WrongDestination),
    }
}

/// The standard-path step: `Some(egress)` to forward, `None` to deliver.
fn scion_step(key: &HopKey, path: &mut ScionPath, ingress: u16, now: u64) -> HopStep {
    let malformed = |e: ProtoError| DropReason::MalformedPath(e.to_string());
    verify(key, path, now)?;
    // Packets from inside the AS (ifid 0) skip the ingress check.
    let expected = path.current_ingress();
    if ingress != 0 && expected != ingress {
        return Err(DropReason::IngressMismatch {
            expected,
            actual: ingress,
        });
    }
    chain(path);
    if path.at_last_hop() {
        return Ok(None);
    }
    // A non-peering segment end is a crossing inside this AS: the next
    // segment's first hop field is ours too, and names the egress.
    if at_traversal_end(path) && !path.current_info().peering {
        path.advance().map_err(malformed)?;
        verify(key, path, now)?;
        chain(path);
        if path.at_last_hop() {
            return Ok(None);
        }
    }
    let egress = path.current_egress();
    if egress == 0 {
        let interior = "interior hop without an egress interface";
        return Err(DropReason::MalformedPath(interior.into()));
    }
    path.advance().map_err(malformed)?;
    Ok(Some(egress))
}

/// (first hop, hop count) of the current segment. Hop fields are stored
/// in traversal order.
fn current_segment(path: &ScionPath) -> (usize, usize) {
    let seg = path.meta.curr_inf as usize;
    let start = path.meta.seg_len[..seg].iter().map(|&l| l as usize).sum();
    (start, path.meta.seg_len[seg] as usize)
}

fn at_traversal_end(path: &ScionPath) -> bool {
    let (start, len) = current_segment(path);
    path.meta.curr_hf as usize == start + len - 1
}

/// A peering hop is the construction-order first hop of a peering segment;
/// its MAC covers the *next* `seg_id`, so it neither un-chains nor chains.
fn is_peer_hop(path: &ScionPath) -> bool {
    let (start, len) = current_segment(path);
    let info = path.current_info();
    let cons_start = start + if info.cons_dir { 0 } else { len - 1 };
    info.peering && path.meta.curr_hf as usize == cons_start
}

/// Expiry, then the MAC. Against construction direction the hop's own MAC
/// is un-chained from `seg_id` first, and stays un-chained.
fn verify(key: &HopKey, path: &mut ScionPath, now: u64) -> Result<(), DropReason> {
    let hf = *path.current_hop();
    if hf.expiry_unix(path.current_info().timestamp) < now {
        return Err(DropReason::Expired);
    }
    if !path.current_info().cons_dir && !is_peer_hop(path) {
        path.info[path.meta.curr_inf as usize].seg_id ^= u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
    }
    let info = path.current_info();
    let input = HopMacInput {
        beta: info.seg_id,
        timestamp: info.timestamp,
        exp_time: hf.exp_time,
        cons_ingress: hf.cons_ingress,
        cons_egress: hf.cons_egress,
    };
    key.verify(&input, &hf.mac)
        .then_some(())
        .ok_or(DropReason::BadMac)
}

/// Leaving a construction-direction hop chains its MAC into `seg_id`.
fn chain(path: &mut ScionPath) {
    if path.current_info().cons_dir && !is_peer_hop(path) {
        let mac = path.current_hop().mac;
        path.info[path.meta.curr_inf as usize].seg_id ^= u16::from_be_bytes([mac[0], mac[1]]);
    }
}

// ------------------------------------------------------ engine against spec

/// What one router did to one frame, output bytes included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Forward(u16, Vec<u8>),
    Deliver(Vec<u8>),
    Drop(DropReason),
    Malformed(String),
}

pub fn spec_frame(ia: IsdAsn, key: &HopKey, frame: &[u8], ingress: u16, now: u64) -> Outcome {
    let pkt = match ScionPacket::decode(frame).and_then(|p| p.encode().map(|_| p)) {
        Ok(pkt) => pkt,
        Err(e) => return Outcome::Malformed(e.to_string()),
    };
    match spec_step(ia, key, pkt, ingress, now) {
        Ok((FrameDecision::Forward { ifid }, p)) => Outcome::Forward(ifid, wire(p)),
        Ok((FrameDecision::Deliver, p)) => Outcome::Deliver(wire(p)),
        Err(e) => Outcome::Drop(e),
    }
}

/// What the engine's verdict on `frame` says, with the bytes it left.
pub fn outcome(verdict: Result<FrameDecision, FrameError>, frame: &[u8]) -> Outcome {
    match verdict {
        Ok(FrameDecision::Forward { ifid }) => Outcome::Forward(ifid, frame.to_vec()),
        Ok(FrameDecision::Deliver) => Outcome::Deliver(frame.to_vec()),
        Err(FrameError::Drop(e)) => Outcome::Drop(e),
        Err(FrameError::Malformed(m)) => Outcome::Malformed(m),
    }
}

pub fn curr_hf(frame: &[u8]) -> u8 {
    match ScionPacket::decode(frame).unwrap().path {
        DataPlanePath::Scion(p) => p.meta.curr_hf,
        other => panic!("forwarded a {other:?}"),
    }
}

/// The `router.*` counter a verdict moves; a malformed frame moves none.
pub fn counter(outcome: &Outcome) -> Option<&'static str> {
    Some(match outcome {
        Outcome::Malformed(_) => return None,
        Outcome::Forward(..) => "router.forwarded",
        Outcome::Deliver(_) => "router.delivered",
        Outcome::Drop(DropReason::BadMac) => "router.drop.bad_mac",
        Outcome::Drop(DropReason::IngressMismatch { .. }) => "router.drop.ingress_mismatch",
        Outcome::Drop(DropReason::Expired) => "router.drop.expired",
        Outcome::Drop(DropReason::WrongDestination) => "router.drop.wrong_destination",
        Outcome::Drop(DropReason::MalformedPath(_)) => "router.drop.malformed_path",
        Outcome::Drop(DropReason::UnsupportedPath) => "router.drop.unsupported_path",
    })
}

/// The deployment's links as (AS, interface) pairs: the transit chain, the
/// 71-10/71-20 peering link and 71-10's link to 71-300.
#[rustfmt::skip]
pub const LINKS: [(&str, u16, &str, u16); 7] = [
    ("71-100", 31, "71-10", 22), ("71-10", 21, "71-1", 11), ("71-1", 42, "71-2", 41),
    ("71-2", 12, "71-20", 23), ("71-20", 24, "71-200", 33), ("71-10", 29, "71-20", 39),
    ("71-10", 25, "71-300", 35),
];

/// The transit walk: (AS, ingress) of every router on the path.
#[rustfmt::skip]
pub const TRANSIT: [(&str, u16); 6] = [
    ("71-100", 0), ("71-10", 22), ("71-1", 11), ("71-2", 41), ("71-20", 23), ("71-200", 33),
];

fn across(at: &str, ifid: u16) -> Option<(&'static str, u16)> {
    LINKS.iter().find_map(|&(a, ai, b, bi)| match (at, ifid) {
        end if end == (a, ai) => Some((b, bi)),
        end if end == (b, bi) => Some((a, ai)),
        _ => None,
    })
}

/// One engine router per AS on a shared telemetry handle, the keys the
/// spec steps with, and the tallies the spec's verdicts add up to.
#[derive(Default)]
pub struct Net {
    pub routers: BTreeMap<&'static str, BorderRouter>,
    pub keys: BTreeMap<&'static str, HopKey>,
    pub telemetry: Telemetry,
    pub expect: BTreeMap<String, u64>,
    /// Frames processed and dropped.
    pub tally: (u64, u64),
    /// Events the telemetry floor lets through: a drop's `Warn`, a traced
    /// frame's `Trace` hop span.
    pub events: u64,
}

impl Net {
    pub fn new() -> Self {
        Net::with_telemetry(Telemetry::default())
    }

    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        let mut net = Net {
            telemetry,
            ..Net::default()
        };
        for (a, _, b, _) in LINKS {
            net.set_key(a, secrets(a).hop_key);
            net.set_key(b, secrets(b).hop_key);
        }
        net
    }

    fn set_key(&mut self, at: &'static str, key: HopKey) {
        let mut r = BorderRouter::new(ia(at), key.clone());
        r.set_telemetry(self.telemetry.clone());
        self.routers.insert(at, r);
        self.keys.insert(at, key);
    }

    /// One router's step, engine and spec side by side.
    pub fn step(
        &mut self,
        at: &'static str,
        frame: &mut Vec<u8>,
        ingress: u16,
        now: u64,
    ) -> Outcome {
        let want = spec_frame(ia(at), &self.keys[at], frame, ingress, now);
        let input = frame.clone();
        let router = self.routers.get_mut(at).unwrap();
        let got = outcome(router.process_frame(frame, ingress, now), frame);
        assert_eq!(got, want, "{at} on {ingress}: {input:02x?}");
        if let Outcome::Forward(_, out) = &got {
            assert!(curr_hf(out) > curr_hf(&input), "{at}: no pointer progress");
        }
        if let Some(name) = counter(&want) {
            *self.expect.entry(name.to_string()).or_default() += 1;
            self.tally.0 += 1;
            self.tally.1 += u64::from(matches!(want, Outcome::Drop(_)));
            let traced = ScionPacket::decode(&input).is_ok_and(|p| p.trace.is_some());
            let severity = match want {
                Outcome::Drop(_) => Some(Severity::Warn),
                _ => traced.then_some(Severity::Trace),
            };
            self.events += u64::from(severity.is_some_and(|s| self.telemetry.enabled(s)));
        }
        got
    }

    /// Carries a frame from a host in 71-100 until a router stops
    /// forwarding it or it leaves the deployment; every step's outcome.
    pub fn walk(&mut self, mut frame: Vec<u8>, now: u64) -> Vec<Outcome> {
        let (mut at, mut ingress) = ("71-100", 0);
        let mut outcomes = vec![self.step(at, &mut frame, ingress, now)];
        // Every forward advances the hop pointer, so the walk ends.
        while let Some(&Outcome::Forward(ifid, _)) = outcomes.last() {
            let Some(next) = across(at, ifid) else { break };
            (at, ingress) = next;
            outcomes.push(self.step(at, &mut frame, ingress, now));
        }
        outcomes
    }

    /// The engine's counters, tallies and events read what the spec adds
    /// up to.
    pub fn check_counters(&self) {
        let named = ["router.forwarded", "router.delivered"];
        let counted = |n: &str| n.starts_with("router.drop.") || named.contains(&n);
        let snap = self.telemetry.snapshot();
        assert_eq!(snap.events_recorded, self.events, "events");
        let counters = snap.counters.into_iter();
        let got: BTreeMap<_, _> = counters.filter(|(n, v)| *v > 0 && counted(n)).collect();
        assert_eq!(got, self.expect, "router counters");
        let sum = |f: fn(&BorderRouter) -> u64| self.routers.values().map(f).sum::<u64>();
        assert_eq!((sum(|r| r.processed), sum(|r| r.dropped)), self.tally);
    }
}

// ------------------------------------------------------------------ inputs

pub fn secrets(s: &str) -> AsSecrets {
    AsSecrets::derive(ia(s))
}

pub fn wire(p: ScionPacket) -> Vec<u8> {
    p.encode().unwrap()
}

/// The three data-plane paths out of 71-100 and their destinations: core
/// transit to 71-200, peering to 71-200 (71-10 and 71-20 peer over 29/39),
/// shortcut to 71-300 through 71-10.
fn paths() -> &'static [(ScionPath, &'static str); 3] {
    static PATHS: OnceLock<[(ScionPath, &'static str); 3]> = OnceLock::new();
    PATHS.get_or_init(|| {
        let up = CowSegment::originate(SegmentType::UpDown, TS, 0x1001)
            .extend(&secrets("71-1"), 0, 11, &[])
            .extend(&secrets("71-10"), 21, 22, &[(ia("71-20"), 29, 39)])
            .extend(&secrets("71-100"), 31, 0, &[])
            .materialize();
        let down = CowSegment::originate(SegmentType::UpDown, TS, 0x2002)
            .extend(&secrets("71-2"), 0, 12, &[])
            .extend(&secrets("71-20"), 23, 24, &[(ia("71-10"), 39, 29)])
            .extend(&secrets("71-200"), 33, 0, &[])
            .materialize();
        let core = CowSegment::originate(SegmentType::Core, TS, 0x3003)
            .extend(&secrets("71-2"), 0, 41, &[])
            .extend(&secrets("71-1"), 42, 0, &[])
            .materialize();
        let shortcut = CowSegment::originate(SegmentType::UpDown, TS, 0x4004)
            .extend(&secrets("71-1"), 0, 11, &[])
            .extend(&secrets("71-10"), 21, 25, &[])
            .extend(&secrets("71-300"), 35, 0, &[])
            .materialize();
        let whole = |seg: &_, dir| SegmentUse::whole(Clone::clone(seg), dir);
        let tail = |seg: &_, dir, peer_with| SegmentUse {
            from_idx: 1,
            peer_with,
            ..whole(seg, dir)
        };
        let (a, c) = (Direction::AgainstCons, Direction::Cons);
        let (p10, p20) = (Some(ia("71-10")), Some(ia("71-20")));
        let transit = vec![whole(&up, a), whole(&core, a), whole(&down, c)];
        let peering = vec![tail(&up, a, p20), tail(&down, c, p10)];
        let short = vec![tail(&up, a, None), tail(&shortcut, c, None)];
        let kinds = [PathKind::CoreTransit, PathKind::Peering, PathKind::Shortcut];
        let dsts = ["71-200", "71-200", "71-300"];
        let mut uses = [transit, peering, short].into_iter();
        [0, 1, 2].map(|i| {
            let p = FullPath::assemble(ia("71-100"), ia(dsts[i]), kinds[i], uses.next().unwrap());
            (p.unwrap().to_dataplane().unwrap(), dsts[i])
        })
    })
}

/// A UDP packet from 71-100 over path `which` (0 transit, 1 peering, 2
/// shortcut), carrying a trace context when asked.
pub fn over(which: usize, trace: Option<u64>) -> ScionPacket {
    let (path, dst) = &paths()[which % 3];
    let src = ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1));
    let dst = ScionAddr::new(ia(dst), HostAddr::v4(10, 0, 0, 2));
    let path = DataPlanePath::Scion(path.clone());
    let mut pkt = ScionPacket::new(src, dst, L4Protocol::Udp, path, b"payload".to_vec());
    pkt.trace = trace.map(TraceContext::root);
    pkt
}

pub fn transit(trace: Option<u64>) -> Vec<u8> {
    wire(over(0, trace))
}

pub fn one_hop(trace: Option<u64>) -> Vec<u8> {
    let mut pkt = over(0, trace);
    let p = &paths()[0].0;
    let (info, first_hop, second_hop) = (p.info[0], p.hops[0], p.hops[1]);
    (pkt.path, pkt.dst.ia) = (
        DataPlanePath::OneHop {
            info,
            first_hop,
            second_hop,
        },
        ia("71-10"),
    );
    wire(pkt)
}

pub fn empty_path(dst: &str) -> Vec<u8> {
    let mut pkt = over(0, None);
    (pkt.path, pkt.dst.ia) = (DataPlanePath::Empty, ia(dst));
    wire(pkt)
}

/// A traced frame whose extension wraps a second hop-by-hop extension:
/// `decode` takes it, `encode` refuses it.
pub fn nested_extension() -> Vec<u8> {
    let mut f = transit(Some(5));
    let ext = HeaderOffsets::locate(&f).unwrap().hdr_len();
    f[ext] = HBH_EXT_PROTOCOL;
    f
}

/// One generated frame of every class the router meets.
pub fn build_frame(&(kind, seed, mask): &(usize, u16, u8)) -> Vec<u8> {
    let trace = (seed & 1 == 1).then_some(u64::from(seed));
    let (n, mut pkt) = (seed as usize, over(seed as usize, trace));
    let mut f = match kind % 10 {
        // Valid, over any of the three paths, to any kind of host.
        0 => {
            pkt.payload = vec![mask; n % 300];
            pkt.dst.host = match seed % 3 {
                0 => HostAddr::v4(10, 0, 0, 2),
                1 => HostAddr::V6([0x2a; 16]),
                _ => HostAddr::Svc(ServiceAddr::ControlService),
            };
            wire(pkt)
        }
        // A single-byte corruption anywhere, traced frames included.
        1 | 2 => {
            let mut f = wire(pkt);
            let pos = (n / 3) % f.len();
            f[pos] ^= mask;
            f
        }
        3 => {
            pkt.next_hdr = L4Protocol::Scmp;
            pkt.payload = ScmpMessage::EchoRequest {
                id: seed,
                seq: !seed,
                data: vec![mask; 8],
            }
            .encode();
            wire(pkt)
        }
        4 => one_hop(trace),
        // Trailing bytes: `decode` tolerates them, `encode` strips them.
        5 => {
            let mut f = transit(trace);
            f.resize(f.len() + 1 + n % 3, mask);
            f
        }
        // A reserved bit `decode` ignores and `encode` clears: common
        // header, path meta, info and hop flags, trace extension.
        6 => {
            let mut f = transit(trace);
            let ext = HeaderOffsets::locate(&f).unwrap().hdr_len();
            let spots = [10, 11, 37, 48, 64, ext + 3];
            f[spots[(n / 2) % (5 + usize::from(trace.is_some()))]] |= mask & 0xfc;
            f
        }
        7 => empty_path(["71-100", "71-200"][n % 2]),
        8 => nested_extension(),
        // Garbage.
        _ => (0..n % 200)
            .map(|i| (i as u8).wrapping_mul(mask) ^ (seed >> 8) as u8)
            .collect(),
    };
    if kind % 10 != 8 && mask == 0xff && f.len() > 4 {
        f[4] = HBH_EXT_PROTOCOL; // claims an extension it does not carry
    }
    f
}
