//! Direct layer probes: public functions of single crates, timed from here
//! on the paths and packets the workload itself uses. They give the
//! per-layer numbers that no span inside an operation can (the layers
//! below `sciera-core`'s network lock are not reachable from outside while
//! an operation runs).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::control::fullpath::FullPath;
use sciera::core::network::NetworkConfig;
use sciera::core::SciEraNetwork;
use sciera::crypto::mac::HopMacInput;
use sciera::dataplane::router::{BorderRouter, FrameDecision};
use sciera::pan::socket::PanTransport;
use sciera::proto::addr::IsdAsn;
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use sciera::proto::udp::UdpDatagram;
use sciera::topology::synth::{synthesize, SynthConfig};

use crate::deploy::{host, Deployment, N_ASES};
use crate::stats::median;
use crate::workloads::datagram::SIZES;
use crate::workloads::frame_load::ROUTER_BATCH;

/// Timed rounds per probe; the median round is reported.
const ROUNDS: usize = 31;

#[derive(Debug, Default)]
pub struct Probes {
    pub link_index_ns: f64,
    pub hop_mac_ns: f64,
    pub encode_ns: [f64; 3],
    pub decode_ns: [f64; 3],
    /// Per router hop, per-frame engine, warm MAC cache.
    pub frame_ns: f64,
    /// Per frame and router hop, batch engine.
    pub batch_ns: f64,
    /// `walk_frame` less its router hops and its two decodes, per frame.
    pub walk_self_ns: f64,
    pub walk_hops: f64,
    /// Probe outputs that were wrong.
    pub failed: u32,
}

/// Median over [`ROUNDS`] rounds of `round`'s wall time, in ns per call,
/// where one round makes `calls` calls on what `input` hands it; making
/// the input is not timed.
fn per_call_ns<I>(calls: usize, mut input: impl FnMut() -> I, mut round: impl FnMut(I)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let i = input();
            let t = Instant::now();
            round(i);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&rounds) / calls.max(1) as f64
}

fn packet(path: &FullPath, payload_len: usize) -> ScionPacket {
    ScionPacket::new(
        host(path.src, 250),
        host(path.dst, 251),
        L4Protocol::Udp,
        DataPlanePath::Scion(path.to_dataplane().expect("a combined path assembles")),
        UdpDatagram::new(7, 7, vec![0xA5; payload_len]).encode(),
    )
}

pub fn probe(dep: &Deployment, paths: &[FullPath]) -> Probes {
    let mut out = Probes::default();
    if paths.is_empty() {
        return out;
    }
    let now = dep.net.now_unix();

    // topology: the (AS, interface) → link scan, over the links crossed.
    let ifaces: Vec<(IsdAsn, u16)> = paths.iter().flat_map(|p| p.interfaces()).collect();
    out.link_index_ns = per_call_ns(
        ifaces.len(),
        || (),
        |()| {
            for &(ia, ifid) in &ifaces {
                black_box(dep.topo.link_index_of(ia, ifid));
            }
        },
    );

    // crypto: one hop-field MAC, the cold-cache share of a router hop.
    let macs: Vec<_> = paths
        .iter()
        .filter_map(|p| {
            let dp = p.to_dataplane().ok()?;
            let (info, hf) = (dp.info[0], dp.hops[0]);
            if info.peering {
                return None;
            }
            let mac2 = u16::from_be_bytes([hf.mac[0], hf.mac[1]]);
            let input = HopMacInput {
                beta: if info.cons_dir {
                    info.seg_id
                } else {
                    info.seg_id ^ mac2
                },
                timestamp: info.timestamp,
                exp_time: hf.exp_time,
                cons_ingress: hf.cons_ingress,
                cons_egress: hf.cons_egress,
            };
            Some((dep.net.secrets[&p.src].hop_key.clone(), input, hf.mac))
        })
        .collect();
    out.failed += macs.iter().filter(|(k, i, m)| !k.verify(i, m)).count() as u32;
    out.hop_mac_ns = per_call_ns(
        macs.len(),
        || (),
        |()| {
            for (key, input, mac) in &macs {
                black_box(key.verify(input, mac));
            }
        },
    );

    // proto: encode and decode of the workload's packets at each size.
    for (i, &len) in SIZES.iter().enumerate() {
        let packets: Vec<ScionPacket> = paths.iter().map(|p| packet(p, len)).collect();
        let frames: Vec<Vec<u8>> = packets
            .iter()
            .map(|p| p.encode().expect("encodes"))
            .collect();
        out.failed += frames
            .iter()
            .zip(&packets)
            .filter(|(f, p)| ScionPacket::decode(f).ok().as_ref() != Some(p))
            .count() as u32;
        out.encode_ns[i] = per_call_ns(
            packets.len(),
            || (),
            |()| {
                for p in &packets {
                    black_box(p.encode().ok());
                }
            },
        );
        out.decode_ns[i] = per_call_ns(
            frames.len(),
            || (),
            |()| {
                for f in &frames {
                    black_box(ScionPacket::decode(f).ok());
                }
            },
        );
    }

    // dataplane: standalone routers keyed like the network's, replaying
    // each path's route hop by hop.
    let mut routers: BTreeMap<IsdAsn, BorderRouter> = paths
        .iter()
        .flat_map(|p| p.hops.iter().map(|h| h.ia))
        .map(|ia| {
            (
                ia,
                BorderRouter::new(ia, dep.net.secrets[&ia].hop_key.clone()),
            )
        })
        .collect();
    let frames: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| packet(p, SIZES[0]).encode().expect("encodes"))
        .collect();
    let hops: usize = paths.iter().map(|p| p.hops.len()).sum();
    let replay = |routers: &mut BTreeMap<IsdAsn, BorderRouter>, frames: Vec<Vec<u8>>| -> u32 {
        let mut wrong = 0;
        for (path, mut frame) in paths.iter().zip(frames) {
            let mut last = None;
            for h in &path.hops {
                let router = routers.get_mut(&h.ia).expect("router per on-path AS");
                last = router.process_frame(&mut frame, h.ingress, now).ok();
            }
            wrong += u32::from(last != Some(FrameDecision::Deliver));
        }
        wrong
    };
    out.failed += replay(&mut routers, frames.clone()); // also warms every MAC cache
    out.frame_ns = per_call_ns(
        hops,
        || frames.clone(),
        |copies| {
            black_box(replay(&mut routers, copies));
        },
    );

    let batches = || -> Vec<Vec<Vec<u8>>> {
        frames
            .iter()
            .map(|f| vec![f.clone(); ROUTER_BATCH])
            .collect()
    };
    let replay_batched =
        |routers: &mut BTreeMap<IsdAsn, BorderRouter>, batches: Vec<Vec<Vec<u8>>>| -> u32 {
            let mut wrong = 0;
            for (path, mut batch) in paths.iter().zip(batches) {
                let mut last = Vec::new();
                for h in &path.hops {
                    let router = routers.get_mut(&h.ia).expect("router per on-path AS");
                    last = router.process_batch(&mut batch, h.ingress, now);
                }
                wrong += last
                    .iter()
                    .filter(|r| **r != Ok(FrameDecision::Deliver))
                    .count() as u32;
            }
            wrong
        };
    out.failed += replay_batched(&mut routers, batches());
    out.batch_ns = per_call_ns(hops * ROUTER_BATCH, batches, |b| {
        black_box(replay_batched(&mut routers, b));
    });

    // core: the synchronous walk around those router hops.
    let mut sinks: Vec<_> = paths
        .iter()
        .map(|p| dep.net.attach_host(host(p.dst, 251)).transport())
        .collect();
    let mut walked_hops = 0usize;
    let mut lost = 0u32;
    let walk_ns = per_call_ns(
        paths.len(),
        || frames.clone(),
        |copies| {
            walked_hops = 0;
            for frame in copies {
                match dep.net.walk_frame(frame) {
                    Ok(delivery) => walked_hops += delivery.route.len(),
                    Err(_) => lost += 1,
                }
            }
        },
    );
    // The delivered copies, taken back out of the probe hosts' inboxes.
    for sink in &mut sinks {
        while sink.recv_packet().is_some() {}
    }
    out.failed += lost;
    out.walk_hops = walked_hops as f64 / paths.len() as f64;
    out.walk_self_ns = walk_ns - out.walk_hops * out.frame_ns - 2.0 * out.decode_ns[0];
    out
}

/// Where set-up time goes, each figure the median of three.
pub struct SetupShares {
    pub synth_s: f64,
    /// Beaconing (`BeaconEngine::new` + `run`) with the network's settings.
    pub beacon_s: f64,
    pub beacon_rounds: u64,
    pub segments: u64,
    /// `build_from_topology` less beaconing: PKI issuance, segment
    /// verification, routers, bootstrap servers.
    pub build_rest_s: f64,
}

pub fn setup_shares() -> SetupShares {
    let cfg = NetworkConfig::default();
    let synth_cfg = SynthConfig::sized(N_ASES);
    let (mut synth, mut beacon, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let (mut beacon_rounds, mut segments) = (0, 0);
    for _ in 0..3 {
        let t = Instant::now();
        let topo = synthesize(&synth_cfg);
        synth.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut engine = BeaconEngine::new(
            &topo.graph,
            cfg.now_unix as u32,
            BeaconConfig {
                candidates_per_origin: cfg.candidates_per_origin,
                ..Default::default()
            },
        );
        let store = engine.run().expect("beaconing converges");
        beacon.push(t.elapsed().as_secs_f64());
        beacon_rounds = engine.last_rounds() as u64;
        segments = store.len() as u64;
        drop(store);

        let t = Instant::now();
        black_box(SciEraNetwork::build_from_topology(topo, cfg.clone()));
        build.push(t.elapsed().as_secs_f64());
    }
    let beacon_s = median(&beacon);
    SetupShares {
        synth_s: median(&synth),
        beacon_s,
        beacon_rounds,
        segments,
        build_rest_s: median(&build) - beacon_s,
    }
}
