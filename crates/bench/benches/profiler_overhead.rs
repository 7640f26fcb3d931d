//! Interleaved A/B guard: with the `profile` feature OFF (the default),
//! the scale-observatory plumbing must cost nothing on the hot path it
//! instruments. `prof_scope` is a zero-sized no-op — so timing the router
//! batch path (`process_batch`, which opens a profiler scope per call)
//! against the same batch bracketed by an extra explicit no-op scope must
//! land inside measurement noise: if the disabled `ProfScope` ever
//! allocates, locks or syscalls, the extra scope shows up in the ratio.
//!
//! Built with `--features profile` the guard prints and exits: profiling
//! is then genuinely allowed to cost time.

use std::time::Instant;

use criterion::black_box;
use sciera_telemetry::Telemetry;
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::combine::combine_paths;
use scion_dataplane::router::BorderRouter;
use scion_proto::addr::{HostAddr, IsdAsn, ScionAddr};
use scion_proto::packet::{DataPlanePath, L4Protocol, ScionPacket};

/// Instrumented/raw per-round time ratio above which the guard fails.
const MAX_RATIO: f64 = 1.5;
const ROUNDS: usize = 21;
const BATCHES_PER_ROUND: usize = 300;
const BATCH: usize = 32;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn setup() -> (BorderRouter, Vec<Vec<u8>>) {
    let built = sciera_topology::synth::synthesize(&sciera_topology::synth::SynthConfig::sized(60));
    let mut engine = BeaconEngine::new(&built.graph, 1_700_000_000, BeaconConfig::default());
    let store = engine.run().expect("synthetic topology beacons");
    let secrets = engine.secrets().clone();

    // One transit router plus a batch of frames crossing it, between the
    // first and the last leaf.
    let leaves: Vec<IsdAsn> = built
        .graph
        .ases()
        .filter(|a| !a.core)
        .map(|a| a.ia)
        .collect();
    let (src, dst) = (leaves[0], leaves[leaves.len() - 1]);
    let paths = combine_paths(&store, src, dst, 4);
    let path = paths
        .iter()
        .find(|p| p.hops.len() >= 3)
        .or_else(|| paths.first())
        .expect("a path exists between synthetic leaves")
        .clone();
    let transit = path.hops[1].ia;
    let ingress = path.hops[1].ingress;
    let pkt = ScionPacket::new(
        ScionAddr::new(src, HostAddr::v4(10, 0, 0, 1)),
        ScionAddr::new(dst, HostAddr::v4(10, 0, 0, 2)),
        L4Protocol::Udp,
        DataPlanePath::Scion(path.to_dataplane().unwrap()),
        vec![0u8; 500],
    );
    let mut frame = pkt.encode().unwrap();
    // Advance the frame to the transit router's viewpoint by processing
    // at the first hop.
    let first = path.hops[0].ia;
    let sec0 = secrets.get(&first).unwrap();
    let mut r0 = BorderRouter::new(first, sec0.hop_key.clone());
    r0.process_frame(&mut frame, 0, 1_700_000_100)
        .expect("first hop forwards");
    let frames: Vec<Vec<u8>> = (0..BATCH).map(|_| frame.clone()).collect();
    let sec = secrets.get(&transit).unwrap();
    let router = BorderRouter::new(transit, sec.hop_key.clone());
    let _ = ingress;
    (router, frames)
}

fn time_router(router: &mut BorderRouter, frames: &[Vec<u8>], extra_scope: bool) -> f64 {
    let tele = Telemetry::quiet();
    let ingress = frames_ingress(frames, router);
    let start = Instant::now();
    for _ in 0..BATCHES_PER_ROUND {
        let mut wave = frames.to_vec();
        if extra_scope {
            let _prof = tele.prof_scope("guard.extra");
            black_box(router.process_batch(&mut wave, ingress, 1_700_000_100));
        } else {
            black_box(router.process_batch(&mut wave, ingress, 1_700_000_100));
        }
    }
    start.elapsed().as_secs_f64()
}

/// The ingress interface the prepared frames arrive on: whatever the
/// transit router accepts — probe once, cache the answer.
fn frames_ingress(frames: &[Vec<u8>], router: &mut BorderRouter) -> u16 {
    let mut probe = frames[0].clone();
    for ifid in 0..64u16 {
        if router
            .process_frame(&mut probe.clone(), ifid, 1_700_000_100)
            .is_ok()
        {
            return ifid;
        }
        probe = frames[0].clone();
    }
    0
}

fn main() {
    if cfg!(feature = "profile") {
        println!(
            "profiler_overhead: built with --features profile; the guard only \
             applies to the compiled-out configuration — skipping"
        );
        return;
    }
    let (mut router, frames) = setup();

    // Warm-up (fills the MAC cache).
    time_router(&mut router, &frames, false);
    time_router(&mut router, &frames, true);

    let mut router_ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let plain = time_router(&mut router, &frames, false);
        let scoped = time_router(&mut router, &frames, true);
        router_ratios.push(scoped / plain);
    }
    let router_median = median(router_ratios);
    println!(
        "profiler_overhead: router batch A/B {router_median:.4} \
         (median of {ROUNDS} rounds, limit {MAX_RATIO})"
    );
    assert!(
        router_median < MAX_RATIO,
        "disabled profiler scope costs {router_median:.4}x on the router batch path — \
         the no-op ProfScope is no longer free"
    );
}
