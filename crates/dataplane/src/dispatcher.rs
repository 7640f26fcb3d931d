//! The legacy shared dispatcher (§4.8).
//!
//! Early SCION end-host stacks ran a background process listening on one
//! fixed UDP underlay port (30041) and demultiplexing incoming SCION
//! traffic to applications over Unix domain sockets — "a faithful
//! recreation of what a kernel socket might do, just in user space". The
//! paper recounts how this became a bottleneck: its processing capacity is
//! shared across all SCION applications, and because all traffic arrives on
//! a single port, Receive Side Scaling cannot spread it over cores.
//!
//! This module keeps both faces of that story:
//!
//! * [`Dispatcher`] — the demultiplexing logic itself (registration table,
//!   per-packet lookup), as the daemon-era host stack ran it. Only
//!   `tests/host_modes.rs` calls it; the deployment's hosts receive through
//!   their own inboxes.
//! * [`run_dispatcher_pipeline`] — a thread-backed pipeline that measures
//!   the shared-bottleneck behaviour for the §4.8 ablation bench: however
//!   many applications exist, every packet funnels through one dispatcher
//!   thread.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::thread;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use sciera_telemetry::{Counter, Event, Gauge, Severity, Telemetry};

use scion_proto::packet::{L4Protocol, ScionPacket};
use scion_proto::udp::UdpDatagram;

/// An application registration handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub u32);

/// The demultiplexing table of the legacy dispatcher.
#[derive(Debug)]
pub struct Dispatcher {
    /// (udp port → application), guarded as the real dispatcher's table is.
    table: Mutex<Vec<(u16, AppId)>>,
    /// Packets that matched a registration.
    pub delivered: Mutex<u64>,
    /// Packets with no registered listener.
    pub no_listener: Mutex<u64>,
    lookups: Counter,
    misses: Counter,
    telemetry: Telemetry,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Dispatcher {
    /// Creates an empty dispatcher on a quiet private telemetry handle.
    pub fn new() -> Self {
        let telemetry = Telemetry::quiet();
        Dispatcher {
            table: Mutex::new(Vec::new()),
            delivered: Mutex::new(0),
            no_listener: Mutex::new(0),
            lookups: telemetry.counter("dispatcher.lookups"),
            misses: telemetry.counter("dispatcher.misses"),
            telemetry,
        }
    }

    /// Re-registers the dispatcher's counters on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.lookups = telemetry.counter("dispatcher.lookups");
        self.misses = telemetry.counter("dispatcher.misses");
        self.telemetry = telemetry;
    }

    /// Registers `app` for UDP/SCION destination port `port`. Fails if the
    /// port is taken.
    pub fn register(&self, port: u16, app: AppId) -> Result<(), String> {
        let mut t = self.table.lock();
        if t.iter().any(|(p, _)| *p == port) {
            return Err(format!("port {port} already registered"));
        }
        t.push((port, app));
        Ok(())
    }

    /// [`Dispatcher::dispatch`] with a simulation timestamp: a traced packet
    /// gets a final `pkt.dispatch` span attributed to the dispatcher — the
    /// last custody change before the application — so per-hop attribution
    /// covers the legacy host stack too.
    pub fn dispatch_at(&self, packet: &ScionPacket, node: &str, sim_ns: u64) -> Option<AppId> {
        if let Some(ctx) = packet.trace.map(|c| c.child()) {
            if self.telemetry.enabled(Severity::Trace) {
                self.telemetry.emit(
                    Event::new(sim_ns, node, "dispatcher", Severity::Trace, "pkt.dispatch")
                        .field("trace_id", ctx.trace_id)
                        .field("span_id", ctx.span_id)
                        .field("parent_span_id", ctx.parent_span_id)
                        .field("hop", ctx.hop),
                );
            }
        }
        self.dispatch(packet)
    }

    /// Demultiplexes one SCION packet to an application by UDP destination
    /// port. SCMP packets go to the app registered for the echo identifier
    /// (modelled as a port).
    pub fn dispatch(&self, packet: &ScionPacket) -> Option<AppId> {
        self.lookups.inc();
        let port = match packet.next_hdr {
            L4Protocol::Udp => UdpDatagram::decode(&packet.payload).ok()?.dst_port,
            L4Protocol::Scmp => {
                // Echo replies carry the sender's id; the real dispatcher
                // keeps an SCMP id table. Reuse the port table keyed by id.
                let msg = scion_proto::scmp::ScmpMessage::decode(&packet.payload).ok()?;
                match msg {
                    scion_proto::scmp::ScmpMessage::EchoReply { id, .. } => id,
                    scion_proto::scmp::ScmpMessage::EchoRequest { id, .. } => id,
                    _ => 0,
                }
            }
            _ => return None,
        };
        let t = self.table.lock();
        let hit = t.iter().find(|(p, _)| *p == port).map(|(_, a)| *a);
        drop(t);
        match hit {
            Some(a) => {
                *self.delivered.lock() += 1;
                Some(a)
            }
            None => {
                *self.no_listener.lock() += 1;
                self.misses.inc();
                None
            }
        }
    }
}

/// Default bound on queued frames per ingress shard.
pub const DEFAULT_SHARD_CAPACITY: usize = 4096;

/// Sharded per-interface ingress queues with round-robin batch drain.
///
/// A router batch wants its input grouped: every frame in one
/// `process_batch` call shares an ingress interface. `IngressShards`
/// provides that grouping — one bounded FIFO per key (an interface, or
/// `(AS, interface)` at the network level) — and a drain cursor that
/// rotates across non-empty shards so a single busy interface cannot
/// starve the others.
///
/// Bounded shards drop at enqueue (tail drop), mirroring a real NIC ring.
#[derive(Debug, Clone)]
pub struct IngressShards<K> {
    shards: Vec<(K, VecDeque<Vec<u8>>)>,
    index: HashMap<K, usize>,
    /// Next shard the drain cursor will inspect.
    cursor: usize,
    capacity_per_shard: usize,
    queued: usize,
    enqueued: Counter,
    dropped: Counter,
    batches: Counter,
    depth_watermark: Gauge,
    depth: Gauge,
}

impl<K: Eq + Hash + Clone> Default for IngressShards<K> {
    fn default() -> Self {
        IngressShards::new(DEFAULT_SHARD_CAPACITY)
    }
}

impl<K: Eq + Hash + Clone> IngressShards<K> {
    /// Creates an empty shard set holding at most `capacity_per_shard`
    /// frames per key (minimum 1). Counters start on a quiet telemetry
    /// handle; attach a shared one with [`IngressShards::set_telemetry`].
    pub fn new(capacity_per_shard: usize) -> Self {
        let quiet = Telemetry::quiet();
        IngressShards {
            shards: Vec::new(),
            index: HashMap::new(),
            cursor: 0,
            capacity_per_shard: capacity_per_shard.max(1),
            queued: 0,
            enqueued: quiet.counter("dispatcher.shard.enqueued"),
            dropped: quiet.counter("dispatcher.shard.dropped"),
            batches: quiet.counter("dispatcher.shard.batches"),
            depth_watermark: quiet.gauge("dispatcher.shard.depth_watermark"),
            depth: quiet.gauge("dispatcher.shard.depth"),
        }
    }

    /// Re-registers the shard counters on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.enqueued = telemetry.counter("dispatcher.shard.enqueued");
        self.dropped = telemetry.counter("dispatcher.shard.dropped");
        self.batches = telemetry.counter("dispatcher.shard.batches");
        self.depth_watermark = telemetry.gauge("dispatcher.shard.depth_watermark");
        self.depth = telemetry.gauge("dispatcher.shard.depth");
        self.depth_watermark.set_max(self.queued as u64);
        self.depth.set(self.queued as u64);
    }

    /// Queues one frame on the shard for `key`, creating the shard on first
    /// use. Returns `false` (frame dropped) when the shard is full.
    pub fn enqueue(&mut self, key: K, frame: Vec<u8>) -> bool {
        let idx = match self.index.get(&key) {
            Some(&idx) => idx,
            None => {
                let idx = self.shards.len();
                self.shards.push((key.clone(), VecDeque::with_capacity(16)));
                self.index.insert(key, idx);
                idx
            }
        };
        let queue = &mut self.shards[idx].1;
        if queue.len() >= self.capacity_per_shard {
            self.dropped.inc();
            return false;
        }
        queue.push_back(frame);
        self.queued += 1;
        self.enqueued.inc();
        self.depth_watermark.set_max(self.queued as u64);
        self.depth.set(self.queued as u64);
        true
    }

    /// Drains up to `max` frames from the next non-empty shard in
    /// round-robin order into `out` (cleared first). Returns the shard's
    /// key, or `None` when every shard is empty.
    ///
    /// The cursor always moves past the drained shard before returning, so
    /// repeated calls rotate across all backlogged shards even when one of
    /// them refills faster than it drains.
    pub fn drain_next(&mut self, max: usize, out: &mut Vec<Vec<u8>>) -> Option<K> {
        out.clear();
        if self.queued == 0 || self.shards.is_empty() || max == 0 {
            return None;
        }
        let n = self.shards.len();
        for step in 0..n {
            let idx = (self.cursor + step) % n;
            let (key, queue) = &mut self.shards[idx];
            if queue.is_empty() {
                continue;
            }
            let take = queue.len().min(max);
            out.extend(queue.drain(..take));
            self.queued -= take;
            self.depth.set(self.queued as u64);
            self.batches.inc();
            let key = key.clone();
            self.cursor = (idx + 1) % n;
            return Some(key);
        }
        None
    }

    /// Total frames currently queued across all shards.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Whether no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }
}

/// Output of a pipeline run (dispatcher or dispatcherless) for the ablation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// Packets delivered to application queues.
    pub delivered: u64,
    /// Packets dropped because a queue was full (the bottleneck signature).
    pub dropped: u64,
}

/// Runs `packets` raw frames from `producers` producer threads through ONE
/// dispatcher thread into per-app queues — the shared-bottleneck topology
/// of the legacy stack. `work_per_packet` simulates per-packet processing
/// cost (header parse + table lookup) in synthetic work units.
pub fn run_dispatcher_pipeline(
    producers: usize,
    apps: usize,
    packets_per_producer: u64,
    work_per_packet: u32,
) -> PipelineReport {
    let (ingress_tx, ingress_rx): (Sender<u16>, Receiver<u16>) = bounded(1024);
    let mut app_txs = Vec::new();
    let mut app_handles = Vec::new();
    for _ in 0..apps {
        let (tx, rx): (Sender<u16>, Receiver<u16>) = bounded(1024);
        app_txs.push(tx);
        app_handles.push(thread::spawn(move || {
            let mut n = 0u64;
            while rx.recv().is_ok() {
                n += 1;
            }
            n
        }));
    }

    // The single dispatcher thread: every packet crosses it.
    let dispatcher = thread::spawn(move || {
        let mut dropped = 0u64;
        while let Ok(port) = ingress_rx.recv() {
            synthetic_work(work_per_packet);
            let app = (port as usize) % app_txs.len();
            if app_txs[app].try_send(port).is_err() {
                dropped += 1;
            }
        }
        dropped
    });

    let mut prod_handles = Vec::new();
    for p in 0..producers {
        let tx = ingress_tx.clone();
        prod_handles.push(thread::spawn(move || {
            for i in 0..packets_per_producer {
                let port = (p as u64 * 31 + i) as u16;
                // Blocking send: producers stall behind the dispatcher,
                // which is exactly the §4.8 observation.
                if tx.send(port).is_err() {
                    break;
                }
            }
        }));
    }
    drop(ingress_tx);
    for h in prod_handles {
        h.join().expect("producer panicked");
    }
    let dropped = dispatcher.join().expect("dispatcher panicked");
    let delivered: u64 = app_handles
        .into_iter()
        .map(|h| h.join().expect("app panicked"))
        .sum();
    PipelineReport { delivered, dropped }
}

/// Burns deterministic CPU proportional to `units` (stand-in for packet
/// parsing work; kept opaque so the optimiser cannot remove it).
pub fn synthetic_work(units: u32) -> u64 {
    let mut acc = 0x9e3779b97f4a7c15u64;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
    }
    std::hint::black_box(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_proto::addr::{ia, HostAddr, ScionAddr};
    use scion_proto::packet::DataPlanePath;

    fn udp_packet(dst_port: u16) -> ScionPacket {
        ScionPacket::new(
            ScionAddr::new(ia("71-1"), HostAddr::v4(1, 1, 1, 1)),
            ScionAddr::new(ia("71-2"), HostAddr::v4(2, 2, 2, 2)),
            L4Protocol::Udp,
            DataPlanePath::Empty,
            UdpDatagram::new(5000, dst_port, b"x".to_vec()).encode(),
        )
    }

    #[test]
    fn register_and_dispatch() {
        let d = Dispatcher::new();
        d.register(8080, AppId(1)).unwrap();
        d.register(9090, AppId(2)).unwrap();
        assert_eq!(d.dispatch(&udp_packet(8080)), Some(AppId(1)));
        assert_eq!(d.dispatch(&udp_packet(9090)), Some(AppId(2)));
        assert_eq!(d.dispatch(&udp_packet(7070)), None);
        assert_eq!(*d.delivered.lock(), 2);
        assert_eq!(*d.no_listener.lock(), 1);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let d = Dispatcher::new();
        d.register(8080, AppId(1)).unwrap();
        assert!(d.register(8080, AppId(2)).is_err());
        assert_eq!(d.dispatch(&udp_packet(8080)), Some(AppId(1)));
    }

    #[test]
    fn scmp_echo_dispatched_by_id() {
        let d = Dispatcher::new();
        d.register(77, AppId(9)).unwrap();
        let msg = scion_proto::scmp::ScmpMessage::EchoReply {
            id: 77,
            seq: 1,
            data: vec![],
        };
        let pkt = ScionPacket::new(
            ScionAddr::new(ia("71-1"), HostAddr::v4(1, 1, 1, 1)),
            ScionAddr::new(ia("71-2"), HostAddr::v4(2, 2, 2, 2)),
            L4Protocol::Scmp,
            DataPlanePath::Empty,
            msg.encode(),
        );
        assert_eq!(d.dispatch(&pkt), Some(AppId(9)));
    }

    #[test]
    fn dispatch_at_emits_trace_span_for_traced_packets() {
        let tele = Telemetry::with_severity(Severity::Trace);
        let mut d = Dispatcher::new();
        d.set_telemetry(tele.clone());
        d.register(8080, AppId(1)).unwrap();
        let mut pkt = udp_packet(8080);
        pkt.trace = Some(scion_proto::trace::TraceContext::root(3));
        assert_eq!(d.dispatch_at(&pkt, "host-b", 50), Some(AppId(1)));
        // Untraced packets dispatch silently.
        assert_eq!(
            d.dispatch_at(&udp_packet(8080), "host-b", 60),
            Some(AppId(1))
        );
        let events = tele.flight_recorder().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].message, "pkt.dispatch");
        assert!(events[0].fields.iter().any(|(k, v)| k == "hop" && v == "1"));
    }

    #[test]
    fn malformed_payload_not_dispatched() {
        let d = Dispatcher::new();
        d.register(8080, AppId(1)).unwrap();
        let mut pkt = udp_packet(8080);
        pkt.payload = vec![1, 2, 3]; // truncated UDP
        assert_eq!(d.dispatch(&pkt), None);
    }

    #[test]
    fn ingress_shards_round_robin_fairness() {
        let mut shards: IngressShards<u16> = IngressShards::new(64);
        // Interface 1 is an elephant; 2 and 3 trickle.
        for i in 0..30u8 {
            shards.enqueue(1, vec![i]);
        }
        shards.enqueue(2, vec![100]);
        shards.enqueue(3, vec![200]);
        assert_eq!(shards.queued(), 32);

        let mut out = Vec::new();
        let mut order = Vec::new();
        while let Some(key) = shards.drain_next(8, &mut out) {
            order.push((key, out.len()));
        }
        // The busy shard never locks out the quiet ones: they both drain
        // within the first full rotation.
        assert_eq!(order, vec![(1, 8), (2, 1), (3, 1), (1, 8), (1, 8), (1, 6)]);
        assert!(shards.is_empty());
        assert_eq!(shards.drain_next(8, &mut out), None);
    }

    #[test]
    fn ingress_shards_bound_and_telemetry() {
        let tele = Telemetry::quiet();
        let mut shards: IngressShards<u16> = IngressShards::new(2);
        shards.set_telemetry(&tele);
        assert!(shards.enqueue(7, vec![0]));
        assert!(shards.enqueue(7, vec![1]));
        assert!(!shards.enqueue(7, vec![2]), "full shard must tail-drop");
        assert!(shards.enqueue(8, vec![3]), "other shards unaffected");
        let mut out = Vec::new();
        assert_eq!(shards.drain_next(16, &mut out), Some(7));
        assert_eq!(out, vec![vec![0], vec![1]]);
        let snap = tele.snapshot();
        assert_eq!(snap.counter("dispatcher.shard.enqueued"), Some(3));
        assert_eq!(snap.counter("dispatcher.shard.dropped"), Some(1));
        assert_eq!(snap.counter("dispatcher.shard.batches"), Some(1));
        assert_eq!(snap.gauge("dispatcher.shard.depth_watermark"), Some(3));
    }

    #[test]
    fn pipeline_delivers_everything_when_unloaded() {
        let r = run_dispatcher_pipeline(2, 2, 200, 0);
        assert_eq!(r.delivered + r.dropped, 400);
        assert_eq!(r.dropped, 0, "unloaded pipeline should not drop");
    }

    #[test]
    fn pipeline_is_single_threaded_bottleneck() {
        // With 4 producers, the dispatcher still only processes serially;
        // all packets pass through (blocking ingress), proving the funnel.
        let r = run_dispatcher_pipeline(4, 4, 100, 10);
        assert_eq!(r.delivered + r.dropped, 400);
    }

    #[test]
    fn synthetic_work_scales() {
        assert_ne!(synthetic_work(10), synthetic_work(11));
    }
}
