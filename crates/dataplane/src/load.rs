//! Frame load: the one loop that carries frames router to router in
//! ingress-shard batches.
//!
//! Frames are injected at their source routers from recycled
//! [`FramePool`] buffers and sit in per-(router, ingress-interface)
//! [`IngressShards`] queues; each round drains one shard (round-robin across
//! interfaces) and hands the whole batch to that router. Forwarded frames
//! re-enqueue at the router across the link; delivered and dropped frames
//! recycle their buffers. The deployment runs it over its routers and live
//! links, the scale sweep over a synthetic topology's.

use sciera_telemetry::Telemetry;

use crate::dispatcher::{IngressShards, DEFAULT_SHARD_CAPACITY};
use crate::pool::FramePool;
use crate::router::{BorderRouter, FrameDecision};

/// Aggregate outcome of a [`run_frame_load`] run.
///
/// `router_ops` is the load figure a throughput number divides by: every
/// frame a border router took custody of, at any hop. A packet crossing
/// five ASes contributes five router operations but only one delivery.
/// Every injected frame is counted once, delivered or dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameLoadReport {
    /// Frames injected at their source AS.
    pub injected: u64,
    /// Frames that reached their destination AS.
    pub delivered: u64,
    /// Frames lost anywhere: router drop, dead link, shard overflow, or
    /// still queued when the hop budget ran out.
    pub dropped: u64,
    /// Total router frame operations across all hops.
    pub router_ops: u64,
    /// Ingress batches drained (one per router invocation round).
    pub batches: u64,
}

/// Carries `frames`, each `(source node, bytes)` and injected in order,
/// through `routers` (indexed by node) until every frame is delivered or
/// dropped.
///
/// `next_hop(node, egress)` names the `(node, ingress)` across the link a
/// router forwards onto, or `None` when that link is dead or unattached: the
/// frame is dropped there. A source node with no router drops its frames at
/// their first drain. Each drained batch goes to
/// [`BorderRouter::process_batch`] when `batched`, to the per-frame engine
/// otherwise, so the two modes A/B the same workload. Frames are delivered to
/// the wire, not to host inboxes: this is a load plane, not a datagram
/// service.
pub fn run_frame_load<'a>(
    routers: &mut [BorderRouter],
    mut next_hop: impl FnMut(usize, u16) -> Option<(usize, u16)>,
    mut frames: impl ExactSizeIterator<Item = (usize, &'a [u8])>,
    batch: usize,
    batched: bool,
    now_unix: u64,
    telemetry: &Telemetry,
) -> FrameLoadReport {
    let mut report = FrameLoadReport::default();
    let batch = batch.max(1);
    let mut shards: IngressShards<(usize, u16)> = IngressShards::new(DEFAULT_SHARD_CAPACITY);
    shards.set_telemetry(telemetry);
    let mut pool = FramePool::new(batch.saturating_mul(8));
    pool.set_telemetry(telemetry);
    let mut wave: Vec<Vec<u8>> = Vec::with_capacity(batch);
    // Keep roughly this many frames in flight: deep enough that drained
    // batches stay full, shallow enough that shards never tail-drop.
    let target_in_flight = batch.saturating_mul(4).min(DEFAULT_SHARD_CAPACITY / 2);
    // Global hop budget across the whole run — a per-walk 64-hop valve,
    // amortised. A routing loop burns through it and terminates instead of
    // spinning forever.
    let max_ops = (frames.len() as u64).saturating_mul(64).max(64);
    loop {
        while shards.queued() < target_in_flight {
            let Some((src, bytes)) = frames.next() else {
                break;
            };
            let mut buf = pool.alloc(bytes.len());
            buf.extend_from_slice(bytes);
            report.injected += 1;
            if !shards.enqueue((src, 0u16), buf) {
                report.dropped += 1;
            }
        }
        let Some((at, ingress)) = shards.drain_next(batch, &mut wave) else {
            break;
        };
        report.batches += 1;
        report.router_ops += wave.len() as u64;
        let Some(router) = routers.get_mut(at) else {
            report.dropped += wave.len() as u64;
            pool.recycle_batch(wave.drain(..));
            continue;
        };
        let results = if batched {
            router.process_batch(&mut wave, ingress, now_unix)
        } else {
            let sim_ns = now_unix.saturating_mul(1_000_000_000);
            wave.iter_mut()
                .map(|f| router.process_frame_at(f, ingress, now_unix, sim_ns))
                .collect()
        };
        for (frame, res) in wave.drain(..).zip(results) {
            match res {
                Ok(FrameDecision::Deliver) => {
                    report.delivered += 1;
                    pool.recycle(frame);
                }
                Ok(FrameDecision::Forward { ifid }) => match next_hop(at, ifid) {
                    Some(next) => {
                        if !shards.enqueue(next, frame) {
                            report.dropped += 1;
                        }
                    }
                    None => {
                        report.dropped += 1;
                        pool.recycle(frame);
                    }
                },
                Err(_) => {
                    report.dropped += 1;
                    pool.recycle(frame);
                }
            }
        }
        if report.router_ops >= max_ops {
            report.dropped += shards.queued() as u64;
            break;
        }
    }
    report
}
