//! Border-router forwarding microbenchmarks: the per-packet cost of hop
//! verification + header rewrite (the §2 "efficient symmetric
//! cryptographic operation").
//!
//! Besides the criterion groups, this target runs an *interleaved*
//! comparison of one frame per call against `process_batch` bursts. Every
//! frame verifies its hop field either way. Interleaving the variants
//! (A,B,A,B,…) rather than running each in one block keeps frequency
//! scaling and cache pollution from biasing one side. Results land in
//! `BENCH_router.json` at the repo root.

use std::time::Instant;

use criterion::{criterion_group, Criterion, Throughput};
use sciera_core::network::NetworkConfig;
use sciera_core::SciEraNetwork;
use sciera_flowgen::{FlowGen, FlowGenConfig};
use scion_control::fullpath::{Direction, FullPath, PathKind, SegmentUse};
use scion_control::segment::{AsSecrets, CowSegment, SegmentType};
use scion_dataplane::router::{BorderRouter, FrameDecision};
use scion_proto::addr::{ia, HostAddr, IsdAsn, ScionAddr};
use scion_proto::packet::{DataPlanePath, L4Protocol, ScionPacket};

const NOW: u64 = 1_700_000_100;

/// Frames per `process_batch` call in the batched variants — a realistic
/// NIC rx-burst size.
const BATCH_CHUNK: usize = 32;

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

/// One wire-to-wire step through the router. `buf` is a reused rx
/// buffer — the copy is a `clear` + `extend_from_slice` into retained
/// capacity, modelling a NIC ring rather than allocator churn.
fn frame_step(router: &mut BorderRouter, template: &[u8], buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(template);
    match router.process_frame(buf, 0, NOW).unwrap() {
        FrameDecision::Forward { ifid } => assert_eq!(ifid, 31),
        _ => unreachable!(),
    }
}

/// One `process_batch` round over `chunk` copies of the template.
/// `frames` is a reused rx ring: each copy is a `clear` +
/// `extend_from_slice` into retained capacity — the same arrangement
/// [`frame_step`] uses, so the two variants measure identical work.
fn batch_step(router: &mut BorderRouter, template: &[u8], frames: &mut Vec<Vec<u8>>, chunk: usize) {
    frames.resize_with(chunk, Vec::new);
    for f in frames.iter_mut() {
        f.clear();
        f.extend_from_slice(template);
    }
    for r in router.process_batch(frames, 0, NOW) {
        match r.unwrap() {
            FrameDecision::Forward { ifid } => assert_eq!(ifid, 31),
            _ => unreachable!(),
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Interleaved comparison; returns median ns/packet for (per frame,
/// batched).
fn interleaved(rounds: usize, batch: usize) -> (f64, f64) {
    let (mut router, pkt) = setup();
    let template = pkt.encode().unwrap();

    // Both ways of calling the router emit the same forwarded frame.
    let mut buf = Vec::with_capacity(template.len());
    frame_step(&mut router, &template, &mut buf);
    let mut frames = Vec::with_capacity(BATCH_CHUNK);
    batch_step(&mut router, &template, &mut frames, 1);
    assert_eq!(buf, frames[0], "batch diverged from the per-frame call");

    let (mut frame_ns, mut batch_ns) = (Vec::new(), Vec::new());
    for round in 0..=rounds {
        let t = Instant::now();
        for _ in 0..batch {
            frame_step(&mut router, &template, &mut buf);
            std::hint::black_box(&mut buf);
        }
        let a = t.elapsed().as_nanos() as f64 / batch as f64;

        let t = Instant::now();
        for _ in 0..batch / BATCH_CHUNK {
            batch_step(&mut router, &template, &mut frames, BATCH_CHUNK);
        }
        let b = t.elapsed().as_nanos() as f64 / (batch - batch % BATCH_CHUNK) as f64;

        if round > 0 {
            // Round 0 is warm-up for both variants.
            frame_ns.push(a);
            batch_ns.push(b);
        }
    }
    (median(frame_ns), median(batch_ns))
}

/// Sustained forwarding under a realistic traffic plane: a flowgen
/// schedule (heavy-tailed mice + Hercules elephants, diurnal rate) driven
/// through every border router of the full deployment. Batched and
/// per-frame engines run interleaved over the identical schedule; returns
/// median (batched Mpps, per-frame Mpps) in router operations per second.
fn sustained_mpps(rounds: usize, packets: usize) -> (f64, f64) {
    let net = SciEraNetwork::build(NetworkConfig::default());
    let pairs = [
        ("71-2:0:42", "71-2:0:5c"),
        ("71-225", "71-88"),
        ("71-2:0:3b", "71-2:0:3d"),
        ("71-225", "71-2:0:3b"),
    ];
    let templates: Vec<(IsdAsn, Vec<u8>)> = pairs
        .iter()
        .map(|(s, d)| {
            net.frame_template(ia(s), ia(d), b"sustained-load")
                .expect("path exists")
        })
        .collect();

    let mut gen = FlowGen::new(FlowGenConfig {
        templates: templates.len() as u32,
        ..FlowGenConfig::default()
    });
    let (schedule, _) = gen.generate(120, packets);
    let pkts: Vec<u32> = schedule.iter().map(|p| p.template).collect();

    let (mut batched_mpps, mut seq_mpps) = (Vec::new(), Vec::new());
    for round in 0..=rounds {
        let t = Instant::now();
        let rb = net.run_frame_load(&templates, &pkts, BATCH_CHUNK, true);
        let db = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let rs = net.run_frame_load(&templates, &pkts, BATCH_CHUNK, false);
        let ds = t.elapsed().as_secs_f64();

        assert_eq!(rb, rs, "A/B engines diverged on the same schedule");
        assert_eq!(rb.injected, rb.delivered + rb.dropped);
        if round > 0 {
            batched_mpps.push(rb.router_ops as f64 / db / 1e6);
            seq_mpps.push(rs.router_ops as f64 / ds / 1e6);
        }
    }
    (median(batched_mpps), median(seq_mpps))
}

fn emit_json(
    (frame, batched): (f64, f64),
    (mpps_batched, mpps_seq): (f64, f64),
    rounds: usize,
    batch: usize,
) {
    let json = format!(
        "{{\n  \"bench\": \"router_forwarding\",\n  \"frame_ns_per_pkt\": {frame:.1},\n  \"batch_ns_per_pkt\": {batched:.1},\n  \"sustained_mpps\": {mpps_batched:.3},\n  \"sustained_mpps_per_frame\": {mpps_seq:.3},\n  \"batch_chunk\": {BATCH_CHUNK},\n  \"rounds\": {rounds},\n  \"batch\": {batch}\n}}\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_router.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("[router_forwarding] could not write {path}: {e}");
    }
    eprintln!("[router_forwarding] interleaved over {rounds}x{batch} packets:");
    eprintln!("  frame          {frame:>8.1} ns/pkt");
    eprintln!("  batch          {batched:>8.1} ns/pkt");
    eprintln!("  sustained load {mpps_batched:>8.3} Mpps batched vs {mpps_seq:.3} Mpps per-frame");
}

fn bench_forwarding(c: &mut Criterion) {
    let (mut router, pkt) = setup();
    let template = pkt.encode().unwrap();
    let mut g = c.benchmark_group("border_router");
    g.throughput(Throughput::Elements(1));
    let mut buf = Vec::with_capacity(template.len());
    g.bench_function("frame", |b| {
        b.iter(|| {
            frame_step(&mut router, &template, &mut buf);
            std::hint::black_box(&mut buf);
        })
    });
    let mut frames = Vec::with_capacity(BATCH_CHUNK);
    g.bench_function("batch_burst", |b| {
        b.iter(|| batch_step(&mut router, &template, &mut frames, BATCH_CHUNK))
    });
    g.bench_function("encode_decode_1000B", |b| {
        b.iter(|| {
            let wire = pkt.encode().unwrap();
            ScionPacket::decode(&wire).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_forwarding);

fn main() {
    let per_packet = interleaved(25, 2_000);
    let sustained = sustained_mpps(5, 30_000);
    emit_json(per_packet, sustained, 25, 2_000);
    benches();
}
