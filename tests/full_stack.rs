//! End-to-end integration: the whole stack from bootstrap to data plane.

use sciera::control::policy::{PathPolicy, TransitPolicy};
use sciera::prelude::*;
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use sciera::proto::udp::UdpDatagram;
use sciera::topology::ases::{all_ases, commercial_ases, fig8_vantages};

fn network() -> SciEraNetwork {
    SciEraNetwork::build(NetworkConfig::default())
}

#[test]
fn every_vantage_pair_forwards_packets_end_to_end() {
    // The strongest cross-module check we have: for every ordered vantage
    // pair, assemble the shortest combined path into a wire-format packet
    // and push it through every border router on the way — each router
    // recomputes the AES-CMAC of its hop field with its own key.
    let net = network();
    let vantages = fig8_vantages();
    let mut forwarded = 0;
    for &s in &vantages {
        for &d in &vantages {
            if s == d {
                continue;
            }
            let paths = net.paths(s, d);
            assert!(!paths.is_empty(), "{s}->{d} has no path");
            for p in paths.iter().take(3) {
                let pkt = ScionPacket::new(
                    ScionAddr::new(s, HostAddr::v4(10, 0, 0, 1)),
                    ScionAddr::new(d, HostAddr::v4(10, 0, 0, 2)),
                    L4Protocol::Udp,
                    DataPlanePath::Scion(p.to_dataplane().expect("assembles")),
                    UdpDatagram::new(1, 2, b"integration".to_vec()).encode(),
                );
                let delivery = net
                    .walk_packet(pkt)
                    .unwrap_or_else(|e| panic!("{s}->{d} via {}: {e}", p.fingerprint()));
                assert_eq!(delivery.route, p.ases(), "{s}->{d} took the declared route");
                assert!(delivery.latency_ms > 0.0);
                forwarded += 1;
            }
        }
    }
    assert!(forwarded >= 200, "forwarded {forwarded} packets");
}

#[test]
fn analytic_and_packet_level_rtt_agree_everywhere() {
    // The measurement campaign's fast path must agree with the real data
    // plane on every vantage pair's shortest path.
    let net = network();
    let topo = sciera::topology::links::build_control_graph();
    let up = |_: usize| false;
    for &s in &fig8_vantages() {
        for &d in &fig8_vantages() {
            if s == d {
                continue;
            }
            let paths = net.paths(s, d);
            let p = &paths[0];
            let analytic = topo.path_rtt_ms(p, &up).expect("alive");
            let pkt = ScionPacket::new(
                ScionAddr::new(s, HostAddr::v4(1, 1, 1, 1)),
                ScionAddr::new(d, HostAddr::v4(2, 2, 2, 2)),
                L4Protocol::Udp,
                DataPlanePath::Scion(p.to_dataplane().unwrap()),
                UdpDatagram::new(1, 2, vec![]).encode(),
            );
            let delivery = net.walk_packet(pkt).expect("delivered");
            let packet_level = 2.0
                * (delivery.latency_ms
                    + p.len() as f64 * sciera::topology::links::PER_AS_OVERHEAD_MS);
            assert!(
                (analytic - packet_level).abs() < 1e-6,
                "{s}->{d}: analytic {analytic} vs packet {packet_level}"
            );
        }
    }
}

#[test]
fn corrupted_packets_die_at_the_first_router() {
    let net = network();
    let s = ia("71-225");
    let d = ia("71-2:0:5c");
    let p = &net.paths(s, d)[0];
    let mut dp = p.to_dataplane().unwrap();
    // An attacker rewrites the egress interface of an on-path hop to
    // redirect traffic — the hop MAC no longer verifies.
    dp.hops[1].cons_egress ^= 0x7;
    let pkt = ScionPacket::new(
        ScionAddr::new(s, HostAddr::v4(1, 1, 1, 1)),
        ScionAddr::new(d, HostAddr::v4(2, 2, 2, 2)),
        L4Protocol::Udp,
        DataPlanePath::Scion(dp),
        UdpDatagram::new(1, 2, vec![]).encode(),
    );
    let err = net.walk_packet(pkt).unwrap_err();
    assert!(format!("{err}").contains("BadMac"), "got: {err}");
}

#[test]
fn transit_policy_blocks_commercial_through_sciera() {
    // §4.9: build real paths from the commercial ISD 64 through SCIERA and
    // check the policy verdicts on actual combined paths.
    let net = network();
    let policy = PathPolicy {
        transit: TransitPolicy::new(commercial_ases()),
        ..Default::default()
    };
    // Commercial AS -> academic AS: terminating traffic, allowed.
    let eth = ia("64-2:0:9");
    let ovgu = ia("71-2:0:42");
    let terminating = net.paths(eth, ovgu);
    assert!(!terminating.is_empty());
    assert!(
        terminating.iter().all(|p| policy.permits(p)),
        "terminating traffic must pass"
    );
    // Commercial -> commercial via SCIERA: transit, must be filtered.
    let switch64 = ia("64-559");
    let transit = net.paths(eth, switch64);
    // Pure ISD-64 paths (ETH -> SWITCH directly) are fine; any path that
    // detours through ISD 71 must be rejected.
    for p in &transit {
        let crosses_71 = p.ases().iter().any(|a| a.isd.0 == 71);
        assert_eq!(
            policy.permits(p),
            !crosses_71,
            "path {:?} verdict mismatch",
            p.ases()
        );
    }
}

#[test]
fn multihop_bidirectional_flows_across_all_regions() {
    // One host per region; full-duplex exchanges between every pair.
    let net = network();
    let hosts = ["71-2:0:42", "71-225", "71-2:0:4d", "71-2:0:5c", "71-37288"];
    for (i, a) in hosts.iter().enumerate() {
        for b in hosts.iter().skip(i + 1) {
            let ha = net.attach_host(ScionAddr::new(ia(a), HostAddr::v4(10, 0, 0, 1)));
            let hb = net.attach_host(ScionAddr::new(ia(b), HostAddr::v4(10, 0, 0, 2)));
            let mut sa = PanSocket::bind(ha.addr, 50000, ha.transport());
            let mut sb = PanSocket::bind(hb.addr, 50001, hb.transport());
            sa.connect(hb.addr, 50001)
                .unwrap_or_else(|e| panic!("{a}->{b}: {e}"));
            sa.send(format!("ping {a}->{b}").as_bytes()).unwrap();
            let (got, from, sport) = sb.poll_recv().expect("delivered");
            assert_eq!(got, format!("ping {a}->{b}").as_bytes());
            sb.send_to(b"pong", from, sport).unwrap();
            let (reply, _, _) = sa.poll_recv().expect("pong delivered");
            assert_eq!(reply, b"pong");
        }
    }
}

#[test]
fn all_ases_have_verified_chains_and_bootstrap_servers() {
    let net = network();
    let trust = net.trust();
    for a in all_ases() {
        // The key the CP-PKI certifies is the key that signs PCBs.
        assert!(
            trust.key_of(a.ia) == Some(net.secrets[&a.ia].signing.verifying_key()),
            "{}'s certified key does not sign its PCBs",
            a.name
        );
        let signed = net.signed_topology(a.ia).expect("bootstrap server per AS");
        let bytes = signed.document.signed_bytes();
        assert!(
            trust
                .verify_as_signature(a.ia, &bytes, &signed.signature)
                .is_ok(),
            "{}'s topology does not verify",
            a.name
        );
        let cert = net.chain(a.ia).expect("chain per AS").as_cert;
        assert!(cert.check_validity(net.now_unix()).is_ok());
    }
}

#[test]
fn daemon_integration_with_live_control_plane() {
    use sciera::daemon::daemon::{Daemon, DaemonConfig};
    let net = network();
    let snap = net.pathdb().snapshot();
    let provider = move |src: IsdAsn, dst: IsdAsn, _now: u64| {
        sciera::control::combine::combine_paths(snap.store(), src, dst, 64)
    };
    let d = Daemon::new(
        ia("71-88"),
        sciera::proto::encap::UnderlayAddr::new([10, 8, 0, 2], 30252),
        provider,
        DaemonConfig::default(),
    );
    let now = net.now_unix();
    let first = d.paths(ia("71-2:0:3b"), now);
    assert!(!first.is_empty());
    let second = d.paths(ia("71-2:0:3b"), now + 1);
    assert_eq!(first.len(), second.len());
    let stats = d.stats();
    assert_eq!(stats.misses, 1, "second lookup served from cache");
    assert_eq!(stats.hits, 1);
}
