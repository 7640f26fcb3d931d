//! End-to-end causal tracing and path-health observability.
//!
//! The tentpole acceptance tests: a packet crossing several ASes leaves a
//! reconstructable span chain in the flight recorder with strictly monotone
//! per-hop sim times; SCMP probe RTTs agree with the topology's analytic
//! ground truth to within one histogram bucket; and killing a link produces
//! an ext-if-down-correlated health drop with exactly one churn event.

use sciera::prelude::*;
use sciera::telemetry::{hop_latencies, reconstruct_trace, validate_chain, Severity};

/// One octave in the log-bucketed telemetry histogram spans 16 sub-buckets:
/// two values land in the same or adjacent bucket iff they differ by less
/// than `2^(1/16) - 1` relatively.
const ONE_BUCKET_REL: f64 = 0.044_3;

#[test]
fn span_chain_reconstructs_across_the_world() {
    let net = SciEraNetwork::build(NetworkConfig::default());
    net.telemetry().set_min_severity(Severity::Trace);

    let src = ia("71-225"); // Uva Wellassa, Sri Lanka
    let dst = ia("71-2:0:3b"); // several ASes away
    let path = net.paths(src, dst).into_iter().next().expect("live path");
    assert!(path.len() >= 3, "need a >=3-AS path, got {}", path.len());

    let tx_host = net.attach_host(ScionAddr::new(src, HostAddr::v4(10, 0, 0, 1)));
    let rx_host = net.attach_host(ScionAddr::new(dst, HostAddr::v4(10, 0, 0, 2)));
    let mut tx = PanSocket::bind(tx_host.addr, 40100, tx_host.transport());
    let mut rx = PanSocket::bind(rx_host.addr, 40101, rx_host.transport());
    tx.connect(rx_host.addr, 40101).unwrap();
    tx.send(b"traced").unwrap();
    assert!(rx.poll_recv().is_some(), "packet delivered");

    // The host's pkt.send event names the trace; reconstruct from there.
    let events = net.telemetry().flight_recorder().events();
    let send = events
        .iter()
        .find(|e| e.message == "pkt.send")
        .expect("host emitted the root span");
    let trace_id: u64 = send
        .fields
        .iter()
        .find(|(k, _)| k == "trace_id")
        .and_then(|(_, v)| v.parse().ok())
        .expect("trace_id field");

    let chain = reconstruct_trace(&events, trace_id);
    // Host root span + one span per AS on the path.
    let route: Vec<IsdAsn> = path.ases();
    assert_eq!(
        chain.len(),
        route.len() + 1,
        "root + one hop per AS: {chain:#?}"
    );
    validate_chain(&chain).expect("causally sound chain");
    assert_eq!(chain[0].message, "pkt.send");
    assert_eq!(chain.last().unwrap().message, "pkt.deliver");
    // The chain names the exact AS-level route, in order.
    let chain_route: Vec<String> = chain[1..].iter().map(|h| h.node.clone()).collect();
    let expect_route: Vec<String> = route.iter().map(|ia| ia.to_string()).collect();
    assert_eq!(chain_route, expect_route);
    // Strictly monotone per-hop times, and every hop costs at least the
    // per-AS processing overhead (0.75 ms).
    for (node, delta_ns) in hop_latencies(&chain) {
        assert!(
            delta_ns >= 750_000,
            "hop into {node} took {delta_ns} ns < per-AS overhead"
        );
    }
}

#[test]
fn probe_rtt_matches_analytic_ground_truth_within_one_bucket() {
    let net = SciEraNetwork::build(NetworkConfig::default());
    let src = ia("71-225");
    let dst = ia("71-2:0:3b");
    let n = net.register_probe_pair(src, dst);
    assert!(n >= 1);
    for _ in 0..3 {
        net.probe_round();
        net.advance_time(10);
    }

    // Ground truth from an identically-built topology (deterministic).
    let topo = build_control_graph();
    let up = |_: usize| false;
    for path in net.paths(src, dst) {
        let analytic = topo
            .path_rtt_ms(&path, &up)
            .expect("live path has an analytic RTT");
        let rows = net.health_rows();
        let row = rows
            .iter()
            .find(|r| r.src == src && r.dst == dst && r.fingerprint == path.fingerprint())
            .expect("probed path has a health row");
        assert!(row.alive);
        assert!(
            (row.p50_ms - analytic).abs() / analytic < ONE_BUCKET_REL,
            "probe p50 {} vs analytic {} differs by more than one bucket",
            row.p50_ms,
            analytic
        );
    }
}

#[test]
fn link_kill_correlates_ext_if_down_and_churns_once() {
    let net = SciEraNetwork::build(NetworkConfig::default());
    let src = ia("71-225");
    let dst = ia("71-88"); // Princeton: single uplink via BRIDGES
    assert!(net.register_probe_pair(src, dst) >= 1);

    // Round 1: healthy baseline.
    net.probe_round();
    let healthy = net.pair_score(src, dst).expect("scored");
    assert!(healthy > 99.0, "baseline score {healthy}");
    assert_eq!(net.churn_events().len(), 0, "baseline is not churn");

    // The uplink dies; the next campaign must see SCMP ext-if-down.
    assert_eq!(net.set_links("BRIDGES-Princeton", false), 1);
    net.advance_time(10);
    let results = net.probe_round();
    let on_pair: Vec<_> = results
        .iter()
        .filter(|r| r.src == src && r.dst == dst)
        .collect();
    assert!(!on_pair.is_empty());
    assert!(
        on_pair.iter().all(|r| matches!(
            r.outcome,
            sciera::orchestrator::prober::EchoOutcome::ExtIfDown { .. }
        )),
        "every probe over the dead link reports ext-if-down: {on_pair:?}"
    );

    // Health collapsed, correlated with the SCMP notification, exactly one
    // churn event for the pair.
    let dead = net.pair_score(src, dst).unwrap();
    assert!(dead < healthy, "score must drop: {healthy} -> {dead}");
    assert_eq!(dead, 0.0, "every path of the pair is dead");
    let churn: Vec<_> = net
        .churn_events()
        .into_iter()
        .filter(|c| c.src == src && c.dst == dst)
        .collect();
    assert_eq!(churn.len(), 1, "exactly one churn event: {churn:?}");
    assert!(churn[0].added.is_empty());
    assert!(!churn[0].removed.is_empty());

    let snap = net.telemetry().snapshot();
    assert!(snap.counter("health.extif_correlated").unwrap_or(0) >= 1);
    assert!(snap.counter("prober.ext_if_down").unwrap_or(0) >= 1);

    // A third round with nothing changed must not churn again.
    net.advance_time(10);
    net.probe_round();
    assert_eq!(
        net.churn_events()
            .into_iter()
            .filter(|c| c.src == src && c.dst == dst)
            .count(),
        1,
        "steady dead state does not re-churn"
    );
}

/// What a traced packet leaves behind, against a recording made before the
/// packet-level walk was folded into the frame loop (a program built on
/// that commit, same deployment, same three packets): the events of one
/// delivered datagram over a six-AS path, of one that runs into a cut link
/// at the fourth AS, and of one whose third hop field has a broken MAC —
/// verbatim, per-hop `sim_ns` and span chain included. A traced frame's span
/// advances in place, so `router.fastpath.hit` moves by exactly the routers
/// it reached (it was `router.fastpath.fallback` while traced frames were
/// decoded and re-encoded); nothing else about it differs from then.
#[test]
fn traced_packets_leave_the_recorded_events() {
    use sciera::pan::socket::PanTransport;
    use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
    use sciera::proto::scmp::ScmpMessage;
    use sciera::topology::synth::{synthesize, SynthConfig};

    const DELIVERED: [&str; 7] = [
        "1700000000000000000 10-2:1:6 host Trace pkt.send trace_id=1 span_id=10451216379200822465 parent_span_id=0 hop=0 dst=11-2:1:39",
        "1700000000000750000 10-2:1:6 router Trace pkt.hop trace_id=1 span_id=16860738450190168606 parent_span_id=10451216379200822465 hop=1 ingress=0 egress=2",
        "1700000000008930848 10-2:1:0 router Trace pkt.hop trace_id=1 span_id=4941388768090179157 parent_span_id=16860738450190168606 hop=2 ingress=5 egress=3",
        "1700000000081576773 11-2:1:1 router Trace pkt.hop trace_id=1 span_id=7725364555548041738 parent_span_id=4941388768090179157 hop=3 ingress=3 egress=7",
        "1700000000096091530 11-2:1:13 router Trace pkt.hop trace_id=1 span_id=17539276534738978496 parent_span_id=7725364555548041738 hop=4 ingress=1 egress=4",
        "1700000000099054243 11-2:1:17 router Trace pkt.hop trace_id=1 span_id=4603652806458217678 parent_span_id=17539276534738978496 hop=5 ingress=2 egress=6",
        "1700000000110259520 11-2:1:39 router Trace pkt.deliver trace_id=1 span_id=3434831769730336697 parent_span_id=4603652806458217678 hop=6 ingress=1 egress=0",
    ];
    const INTO_THE_CUT: [&str; 5] = [
        "1700000000000000000 10-2:1:6 host Trace pkt.send trace_id=2 span_id=10905525725756348110 parent_span_id=0 hop=0 dst=11-2:1:39",
        "1700000000000750000 10-2:1:6 router Trace pkt.hop trace_id=2 span_id=16171810823986729605 parent_span_id=10905525725756348110 hop=1 ingress=0 egress=2",
        "1700000000008930848 10-2:1:0 router Trace pkt.hop trace_id=2 span_id=12010090858347299276 parent_span_id=16171810823986729605 hop=2 ingress=5 egress=3",
        "1700000000081576773 11-2:1:1 router Trace pkt.hop trace_id=2 span_id=18283258009843326564 parent_span_id=12010090858347299276 hop=3 ingress=3 egress=7",
        "1700000000096091530 11-2:1:13 router Trace pkt.hop trace_id=2 span_id=4087689271142097182 parent_span_id=18283258009843326564 hop=4 ingress=1 egress=4",
    ];
    const CUT_SCMP: &str = concat!(
        "00000001ca28001401000000000a000200010006000b0002000100390a0001010a00020100004082000070cb",
        "6553f100010000216553f100010000046553f100003f000100003506ab0c2b91003f00020006ec70562473f0",
        "003f0001000407aca3e7a493003f000000077742b1ddc049003f000000030575e6134127003f0003000035cd",
        "a6193dd6003f00000005fdbea75772a1003f0002000062cd0ec23cd505000000000b00020001001300000000",
        "00000004",
    );
    const BROKEN_MAC: [&str; 2] = [
        "1700000000000750000 10-2:1:6 router Trace pkt.hop trace_id=77 span_id=11279818088504776260 parent_span_id=7086638178683056257 hop=1 ingress=0 egress=2",
        "1700000000008930848 10-2:1:0 router Warn packet dropped reason=BadMac trace_id=77 span_id=17819118111436729578 parent_span_id=11279818088504776260 hop=2",
    ];

    let cfg = SynthConfig::sized(60);
    let net = SciEraNetwork::build_from_topology(synthesize(&cfg), NetworkConfig::default());
    let topo = synthesize(&cfg);
    let (src, dst) = (ia("10-2:1:6"), ia("11-2:1:39"));
    let path = net.paths(src, dst).into_iter().next().expect("live path");
    assert_eq!(path.fingerprint(), "1841c8d1815242e6", "the recorded path");
    assert_eq!(path.len(), 6);

    let telemetry = net.telemetry();
    telemetry.set_min_severity(Severity::Trace);
    let in_place = || telemetry.counter("router.fastpath.hit").get();
    // Events of one trace, each as one line: time, node, component,
    // severity, message, fields.
    let lines_of = |trace_id: u64| -> Vec<String> {
        let wanted = ("trace_id".to_string(), trace_id.to_string());
        let events = telemetry.flight_recorder().events();
        let of_trace = events.iter().filter(|e| e.fields.contains(&wanted));
        of_trace
            .map(|e| {
                let fields: Vec<String> =
                    e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(
                    "{} {} {} {:?} {} {}",
                    e.sim_time,
                    e.node,
                    e.component,
                    e.severity,
                    e.message,
                    fields.join(" ")
                )
            })
            .collect()
    };

    let a = net.attach_host(ScionAddr::new(src, HostAddr::v4(10, 0, 1, 1)));
    let b = net.attach_host(ScionAddr::new(dst, HostAddr::v4(10, 0, 2, 1)));
    let mut tx = PanSocket::bind(a.addr, 40100, a.transport());
    let mut rx = PanSocket::bind(b.addr, 40101, b.transport());
    tx.connect(b.addr, 40101).unwrap();
    assert_eq!(in_place(), 0);

    // One datagram, delivered: a span per AS.
    tx.send(b"traced").unwrap();
    let (payload, from, port) = rx.poll_recv().expect("delivered");
    assert_eq!((&payload[..], from, port), (&b"traced"[..], a.addr, 40100));
    assert_eq!(lines_of(1), DELIVERED);
    assert_eq!(in_place(), 6);
    let chain = reconstruct_trace(&telemetry.flight_recorder().events(), 1);
    validate_chain(&chain).expect("causally sound chain");

    // The link out of the fourth AS is cut: four routers take custody, the
    // fourth answers with SCMP, nothing is dropped and nothing delivered.
    let at = path.hops[3];
    let cut = topo.link_index_of(at.ia, at.egress).unwrap();
    net.set_link_index(cut, false);
    tx.send(b"into the cut").unwrap();
    assert_eq!(lines_of(2), INTO_THE_CUT);
    assert_eq!(in_place(), 6 + 4);
    let scmp = a.transport().recv_packet().expect("SCMP at the source");
    assert_eq!(
        ScmpMessage::decode(&scmp.payload).unwrap(),
        ScmpMessage::ExternalInterfaceDown {
            ia: at.ia,
            interface: u64::from(at.egress),
        }
    );
    assert_eq!(
        sciera::crypto::sha256::to_hex(&scmp.encode().unwrap()),
        CUT_SCMP
    );
    assert!(a.transport().recv_packet().is_none() && rx.poll_recv().is_none());
    net.set_link_index(cut, true);

    // A broken MAC in the third hop field: the drop is attributed to the
    // second router's span (it verifies the hop field it forwards onto).
    let mut dp = path.to_dataplane().unwrap();
    dp.hops[2].mac[0] ^= 0x55;
    let mut pkt = ScionPacket::new(
        a.addr,
        b.addr,
        L4Protocol::Udp,
        DataPlanePath::Scion(dp),
        sciera::proto::udp::UdpDatagram::new(1, 2, b"bad".to_vec()).encode(),
    );
    pkt.trace = Some(TraceContext::root(77));
    assert_eq!(
        net.walk_packet(pkt).map(|d| d.route),
        Err(sciera::core::NetError::Dropped("10-2:1:0: BadMac".into()))
    );
    assert_eq!(lines_of(77), BROKEN_MAC);
    assert_eq!(in_place(), 6 + 4 + 2);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("router.fastpath.fallback").unwrap_or(0), 0);
    assert_eq!(snap.counter("router.forwarded"), Some(5 + 4 + 1));
    assert_eq!(snap.counter("router.delivered"), Some(1));
    assert_eq!(snap.counter("router.drop.bad_mac"), Some(1));
}
