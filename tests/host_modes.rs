//! Host-stack integration: the §4.2.1 operating modes, the §4.8
//! dispatcher-era vs dispatcherless demultiplexing over real PAN packets,
//! and §4.2.2's Happy Eyeballs fed with RTTs from the deployed topology.

use std::time::Duration;

use sciera::dataplane::dispatcher::{AppId, Dispatcher};
use sciera::dataplane::hostnet::PortTable;
use sciera::pan::happy::{preference_order, race, Attempt, Family, DEFAULT_ATTEMPT_DELAY};
use sciera::pan::modes::{HostEnvironment, HostStack, OperatingMode};
use sciera::prelude::*;
use sciera::topology::ip::IpBaseline;

#[test]
fn dispatcher_era_demux_delivers_real_pan_packets() {
    // Legacy mode: all traffic arrives on the shared dispatcher, which
    // demultiplexes by UDP destination port — run actual packets produced
    // by PAN sockets through it.
    let net = SciEraNetwork::build(NetworkConfig::default());
    let a = net.attach_host(ScionAddr::new(ia("71-88"), HostAddr::v4(10, 0, 0, 1)));
    let b = net.attach_host(ScionAddr::new(ia("71-1140"), HostAddr::v4(10, 0, 0, 2)));
    let mut tx = PanSocket::bind(a.addr, 45000, a.transport());
    tx.connect(b.addr, 7777).unwrap();
    tx.send(b"to the dispatcher").unwrap();

    // Pull the raw delivered packet off the host inbox and hand it to the
    // legacy dispatcher.
    let mut raw_transport = b.transport();
    let packet = {
        use sciera::pan::socket::PanTransport;
        raw_transport
            .recv_packet()
            .expect("packet crossed the network")
    };
    let dispatcher = Dispatcher::new();
    dispatcher.register(7777, AppId(42)).unwrap();
    dispatcher.register(8888, AppId(43)).unwrap();
    assert_eq!(dispatcher.dispatch(&packet), Some(AppId(42)));
    assert_eq!(*dispatcher.delivered.lock(), 1);
}

#[test]
fn dispatcherless_mode_owns_per_socket_ports() {
    // §4.8's end state: the port *is* the application; no shared component.
    let table = PortTable::new();
    let p1 = table.bind_ephemeral().unwrap();
    let p2 = table.bind_ephemeral().unwrap();
    assert_ne!(p1, p2);
    assert!(table.bind(p1).is_err(), "ports are exclusive");
    // A PAN socket's own filtering plays the kernel-demux role: a packet
    // for another port never surfaces.
    let net = SciEraNetwork::build(NetworkConfig::default());
    let a = net.attach_host(ScionAddr::new(ia("71-225"), HostAddr::v4(10, 0, 0, 1)));
    let b = net.attach_host(ScionAddr::new(ia("71-2:0:48"), HostAddr::v4(10, 0, 0, 2)));
    let mut tx = PanSocket::bind(a.addr, p1, a.transport());
    let mut other = PanSocket::bind(b.addr, p2, b.transport());
    tx.connect(b.addr, 9999).unwrap(); // nobody listens on 9999
    tx.send(b"misdirected").unwrap();
    assert!(
        other.poll_recv().is_none(),
        "socket on {p2} must not see port-9999 traffic"
    );
}

#[test]
fn mode_fallback_ladder_matches_component_availability() {
    // Daemon present -> daemon mode; config only -> bootstrapper mode;
    // nothing -> standalone, which is the only mode with zero
    // pre-installed components (§4.2.1's "it will just work").
    let cases = [
        (true, true, OperatingMode::DaemonDependent),
        (true, false, OperatingMode::DaemonDependent),
        (false, true, OperatingMode::BootstrapperDependent),
        (false, false, OperatingMode::Standalone),
    ];
    for (daemon, config, want) in cases {
        let stack = HostStack::resolve(HostEnvironment {
            daemon_available: daemon,
            bootstrap_config_available: config,
        });
        assert_eq!(stack.mode, want);
        assert_eq!(
            stack.mode.needs_preinstalled_component(),
            want != OperatingMode::Standalone
        );
    }
}

#[test]
fn happy_eyeballs_with_topology_rtts() {
    // Feed the race with connection times derived from the deployed
    // network: SCION handshake ≈ its best path RTT, IP handshake ≈ the BGP
    // baseline RTT.
    let net = SciEraNetwork::build(NetworkConfig::default());
    let ip = IpBaseline::new();
    let topo = sciera::topology::links::build_control_graph();
    let up = |_: usize| false;
    let rtt_pair = |s: &str, d: &str| {
        let scion = net
            .paths(ia(s), ia(d))
            .iter()
            .filter_map(|p| topo.path_rtt_ms(p, &up))
            .fold(f64::MAX, f64::min);
        let legacy = ip.rtt_ms(ia(s), ia(d)).unwrap();
        (scion, legacy)
    };

    // Korea -> Amsterdam: the commercial route hairpins via the US while
    // SCIERA has the ring — SCION must win the race.
    let (scion_ms, ip_ms) = rtt_pair("71-2:0:4d", "71-2:0:3e");
    assert!(scion_ms < ip_ms, "SCION {scion_ms} vs IP {ip_ms}");
    let outcome = race(
        &[
            Attempt {
                family: Family::Scion,
                duration: Duration::from_secs_f64(scion_ms / 1000.0),
                succeeds: true,
            },
            Attempt {
                family: Family::Ipv6,
                duration: Duration::from_secs_f64(ip_ms / 1000.0),
                succeeds: true,
            },
        ],
        DEFAULT_ATTEMPT_DELAY,
    )
    .unwrap();
    assert_eq!(outcome.winner, Family::Scion);

    // And when SCION connectivity is absent, the race degrades gracefully
    // to the legacy families — no regression for non-SCION destinations.
    assert_eq!(
        preference_order(false, true, true),
        vec![Family::Ipv6, Family::Ipv4]
    );
    let fallback = race(
        &[
            Attempt {
                family: Family::Ipv6,
                duration: Duration::from_millis(40),
                succeeds: false,
            },
            Attempt {
                family: Family::Ipv4,
                duration: Duration::from_millis(35),
                succeeds: true,
            },
        ],
        DEFAULT_ATTEMPT_DELAY,
    )
    .unwrap();
    assert_eq!(fallback.winner, Family::Ipv4);
}

#[test]
fn standalone_mode_bootstrap_to_traffic() {
    // The full §4.1.3 story: nothing pre-installed, the library bootstraps
    // itself, then opens a socket and talks.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sciera::bootstrap::client::{BootstrapClient, ModelEnv, OsProfile};
    use sciera::bootstrap::hints::NetworkProfile;
    use sciera::bootstrap::server::SignedTopology;
    use sciera::bootstrap::BootstrapError;
    use sciera::proto::encap::UnderlayAddr;

    let net = SciEraNetwork::build(NetworkConfig::default());
    let stack = HostStack::resolve(HostEnvironment::default());
    assert_eq!(stack.mode, OperatingMode::Standalone);

    // Standalone bootstrap against OVGU's signed topology.
    let ovgu = ia("71-2:0:42");
    let signed = net.signed_topology(ovgu).expect("OVGU's bootstrap server");
    let body = serde_json::to_vec(&signed).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut env = ModelEnv {
        os: OsProfile::all()[1],
        profile: NetworkProfile::LocalDnsSearchDomain,
        server: UnderlayAddr::new([10, 42, 0, 3], 8041),
        topology_body: body,
        config_processing_ms: 3.0,
        rng: &mut rng,
    };
    let trust = net.trust();
    let verify = move |s: &SignedTopology| -> Result<(), BootstrapError> {
        trust
            .verify_as_signature(s.document.ia, &s.document.signed_bytes(), &s.signature)
            .map_err(|e| BootstrapError::BadTopology(e.to_string()))
    };
    let client = BootstrapClient::for_profile(NetworkProfile::LocalDnsSearchDomain);
    let outcome = client.run(&mut env, &verify).expect("standalone bootstrap");
    assert_eq!(outcome.topology.document.ia, ovgu);
    assert!(outcome.timing.total() < Duration::from_millis(150));

    // ... and immediately talk.
    let host = net.attach_host(ScionAddr::new(ovgu, HostAddr::v4(10, 42, 0, 77)));
    let peer = net.attach_host(ScionAddr::new(ia("71-2:0:61"), HostAddr::v4(10, 6, 0, 1)));
    let mut tx = PanSocket::bind(host.addr, 46000, host.transport());
    let mut rx = PanSocket::bind(peer.addr, 46001, peer.transport());
    tx.connect(peer.addr, 46001).unwrap();
    tx.send(b"standalone mode works").unwrap();
    assert_eq!(rx.poll_recv().unwrap().0, b"standalone mode works");
}
