//! Interleaved A/B guard: forwarding a packet that *carries* a trace
//! context through a border router whose telemetry has tracing disabled
//! must cost the same as forwarding an untraced packet — the span
//! derivation is a few arithmetic ops and the event emission is gated off,
//! so the overhead has to stay below measurement noise.
//!
//! This is a guard, not a measurement: it exits non-zero if the traced
//! variant is more than `MAX_RATIO` slower, so a future change that
//! accidentally puts allocation or encoding on the disabled-tracing hot
//! path fails `cargo bench` instead of shipping.

use std::time::Instant;

use criterion::black_box;
use scion_control::fullpath::{Direction, FullPath, PathKind, SegmentUse};
use scion_control::segment::{AsSecrets, CowSegment, SegmentType};
use scion_dataplane::router::{BorderRouter, FrameDecision};
use scion_proto::addr::{ia, HostAddr, ScionAddr};
use scion_proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use scion_proto::trace::TraceContext;

/// Traced/untraced per-round time ratio above which the guard fails.
/// Generous: the real overhead is reading and rewriting the 28-byte
/// extension plus a gated branch, far below the run-to-run noise of a
/// shared CI machine.
const MAX_RATIO: f64 = 1.5;
const ROUNDS: usize = 21;
const ITERS_PER_ROUND: usize = 2_000;

fn setup() -> (BorderRouter, ScionPacket) {
    let mk = |s: &str| AsSecrets::derive(ia(s));
    let seg = CowSegment::originate(SegmentType::UpDown, 1_700_000_000, 0x42)
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
    let pkt = ScionPacket::new(
        ScionAddr::new(ia("71-100"), HostAddr::v4(10, 0, 0, 1)),
        ScionAddr::new(ia("71-1"), HostAddr::v4(10, 0, 0, 2)),
        L4Protocol::Udp,
        DataPlanePath::Scion(path.to_dataplane().unwrap()),
        vec![0u8; 1000],
    );
    let sec = mk("71-100");
    (BorderRouter::new(sec.ia, sec.hop_key), pkt)
}

fn time_batch(router: &mut BorderRouter, template: &[u8], buf: &mut Vec<u8>) -> f64 {
    let start = Instant::now();
    for _ in 0..ITERS_PER_ROUND {
        buf.clear();
        buf.extend_from_slice(template);
        match router
            .process_frame(black_box(buf), 0, 1_700_000_100)
            .unwrap()
        {
            FrameDecision::Forward { ifid } => assert_eq!(ifid, 31),
            _ => unreachable!(),
        }
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let (mut router, pkt) = setup();
    // BorderRouter::new uses quiet telemetry: tracing is disabled, events
    // are gated off, only the in-place span derivation itself remains.
    let plain = pkt.encode().unwrap();
    let mut traced = pkt;
    traced.trace = Some(TraceContext::root(0xA11CE));
    let traced = traced.encode().unwrap();
    let mut buf = Vec::with_capacity(traced.len());

    // Warm-up.
    time_batch(&mut router, &plain, &mut buf);
    time_batch(&mut router, &traced, &mut buf);

    // Interleaved A/B: each round times both variants back to back, so
    // frequency drift and cache state hit both sides equally.
    let mut ratios: Vec<f64> = Vec::with_capacity(ROUNDS);
    let mut plains: Vec<f64> = Vec::with_capacity(ROUNDS);
    let mut traceds: Vec<f64> = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t_plain = time_batch(&mut router, &plain, &mut buf);
        let t_traced = time_batch(&mut router, &traced, &mut buf);
        ratios.push(t_traced / t_plain);
        plains.push(t_plain);
        traceds.push(t_traced);
    }
    let median_of = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let median = median_of(&mut ratios);
    let ns = |t: f64| t / ITERS_PER_ROUND as f64 * 1e9;
    println!("router_trace_overhead: plain {:.0} ns/pkt, traced {:.0} ns/pkt (medians of {ROUNDS} rounds), median A/B ratio {median:.4} (limit {MAX_RATIO})",
        ns(median_of(&mut plains)), ns(median_of(&mut traceds)));
    assert!(
        median < MAX_RATIO,
        "trace-context propagation overhead {median:.4}x exceeds the {MAX_RATIO}x noise budget \
         with tracing disabled — something expensive crept onto the hot path"
    );
}
