//! Full-stack telemetry integration: one shared registry observes the
//! control plane, data plane, daemon, bootstrap and monitoring layers of a
//! complete deployment, and the flight recorder yields an ordered JSONL
//! post-mortem stream.

use sciera::bootstrap::client::{BootstrapClient, ModelEnv, OsProfile};
use sciera::bootstrap::hints::NetworkProfile;
use sciera::bootstrap::server::{SignedTopology, TopologyDocument};
use sciera::daemon::daemon::{Daemon, DaemonConfig};
use sciera::orchestrator::monitor::ConnectivityMonitor;
use sciera::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn network() -> SciEraNetwork {
    SciEraNetwork::build(NetworkConfig::default())
}

#[test]
fn whole_stack_reports_into_one_registry() {
    let net = network();
    let telemetry = net.telemetry();

    // --- Control plane: build() already beaconed with the shared handle.
    let snap = telemetry.snapshot();
    assert!(
        snap.counter("beacon.originated").unwrap_or(0) > 0,
        "{snap:?}"
    );
    assert!(snap.counter("beacon.propagated").unwrap_or(0) > 0);
    assert!(snap.counter("beacon.segments_registered").unwrap_or(0) > 0);

    // --- Data plane: push real traffic through PAN sockets.
    let a = net.attach_host(ScionAddr::new(ia("71-2:0:42"), HostAddr::v4(10, 0, 0, 1)));
    let b = net.attach_host(ScionAddr::new(ia("71-225"), HostAddr::v4(10, 0, 0, 2)));
    let mut tx = PanSocket::bind(a.addr, 4000, a.transport());
    let mut rx = PanSocket::bind(b.addr, 4001, b.transport());
    tx.connect(b.addr, 4001).unwrap();
    tx.send(b"observable").unwrap();
    assert!(rx.poll_recv().is_some());

    let snap = telemetry.snapshot();
    assert!(
        snap.counter("router.forwarded").unwrap_or(0) > 0,
        "{snap:?}"
    );
    assert!(snap.counter("router.delivered").unwrap_or(0) > 0);
    // Path combination ran (lookup_paths) and timed itself.
    let combine = snap
        .histogram("control.combine_ns")
        .expect("combine histogram");
    assert!(combine.count > 0);

    // --- Daemon: cache misses then hits, same registry.
    let snap = net.pathdb().snapshot();
    let provider = move |src: IsdAsn, dst: IsdAsn, _now: u64| {
        sciera::control::combine::combine_paths(snap.store(), src, dst, 64)
    };
    let mut d = Daemon::new(
        ia("71-88"),
        sciera::proto::encap::UnderlayAddr::new([10, 8, 0, 2], 30252),
        provider,
        DaemonConfig::default(),
    );
    d.set_telemetry(telemetry.clone());
    let now = net.now_unix();
    assert!(!d.paths(ia("71-2:0:3b"), now).is_empty());
    assert!(!d.paths(ia("71-2:0:3b"), now + 1).is_empty());
    let snap = telemetry.snapshot();
    assert!(
        snap.counter("daemon.cache_misses").unwrap_or(0) > 0,
        "{snap:?}"
    );
    assert!(snap.counter("daemon.cache_hits").unwrap_or(0) > 0);

    // --- Bootstrap: the Fig. 4 phase timings land in histograms.
    let as_key = sciera::crypto::sign::SigningKey::from_seed(b"telemetry-test-as");
    let document = TopologyDocument {
        ia: ia("71-2:0:42"),
        border_routers: vec![sciera::proto::encap::UnderlayAddr::new(
            [10, 0, 0, 1],
            30001,
        )],
        control_service: sciera::proto::encap::UnderlayAddr::new([10, 0, 0, 2], 30252),
        timestamp: now,
        mtu: 1472,
    };
    let signature = as_key.sign(&document.signed_bytes());
    let signed = SignedTopology {
        document,
        signature,
    };
    let mut rng = StdRng::seed_from_u64(71);
    let mut env = ModelEnv {
        os: OsProfile::all()[1],
        profile: NetworkProfile::DynDhcpLeases,
        server: sciera::proto::encap::UnderlayAddr::new([10, 0, 0, 9], 8041),
        topology_body: serde_json::to_vec(&signed).unwrap(),
        config_processing_ms: 3.0,
        rng: &mut rng,
    };
    let mut client = BootstrapClient::for_profile(NetworkProfile::DynDhcpLeases);
    client.set_telemetry(telemetry.clone());
    client
        .run(&mut env, &|_| Ok(()))
        .expect("bootstrap succeeds");
    let snap = telemetry.snapshot();
    let hint = snap
        .histogram("bootstrap.phase.hint")
        .expect("hint phase timing");
    let config = snap
        .histogram("bootstrap.phase.config")
        .expect("config phase timing");
    assert!(hint.count >= 1 && hint.max > 0.0);
    assert!(config.count >= 1 && config.max > 0.0);
    assert_eq!(snap.counter("bootstrap.runs"), Some(1));

    // --- Monitoring: a sustained outage mirrors its alert as an event.
    let mut mon = ConnectivityMonitor::new(2);
    mon.set_telemetry(telemetry.clone());
    mon.register(ia("71-225"), "noc@virginia.edu");
    let mut sink = |_: IsdAsn, _: &str| {};
    mon.probe_result(ia("71-225"), false, now + 10, &mut sink);
    mon.probe_result(ia("71-225"), false, now + 20, &mut sink);
    mon.probe_result(ia("71-225"), true, now + 90, &mut sink);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("monitor.outage_alerts"), Some(1));
    assert_eq!(snap.counter("monitor.recovery_notices"), Some(1));

    // --- Flight recorder: valid JSONL, ordered by sim_time, non-trivial.
    assert!(snap.events_recorded >= 3, "{snap:?}");
    let dump = telemetry.dump_flight_recorder();
    let mut last = 0u64;
    let mut lines = 0usize;
    for line in dump.lines() {
        let e: sciera::telemetry::Event = serde_json::from_str(line).expect("valid JSON line");
        assert!(
            e.sim_time >= last,
            "events ordered by sim_time: {} after {last}",
            e.sim_time
        );
        last = e.sim_time;
        assert!(!e.message.is_empty());
        assert!(!e.component.is_empty());
        lines += 1;
    }
    assert!(
        lines >= 3,
        "flight recorder holds the run's events:\n{dump}"
    );

    // --- And the operator-facing summary table renders every family.
    let table = snap.render_table();
    for needle in [
        "beacon.originated",
        "router.forwarded",
        "daemon.cache_hits",
        "bootstrap.phase.hint",
    ] {
        assert!(
            table.contains(needle),
            "summary table missing {needle}:\n{table}"
        );
    }
}

#[test]
fn quiet_components_pay_no_tracing_cost() {
    // Components constructed without wiring still count, never trace —
    // the bench configuration (criterion runs BorderRouter::new directly).
    let net = network();
    let telemetry = net.telemetry();
    telemetry.disable_tracing();
    let recorded_before = telemetry.snapshot().events_recorded;

    let a = net.attach_host(ScionAddr::new(ia("71-2:0:42"), HostAddr::v4(10, 0, 0, 7)));
    let b = net.attach_host(ScionAddr::new(ia("71-2:0:5c"), HostAddr::v4(10, 0, 0, 8)));
    let mut tx = PanSocket::bind(a.addr, 4100, a.transport());
    let mut rx = PanSocket::bind(b.addr, 4101, b.transport());
    tx.connect(b.addr, 4101).unwrap();
    tx.send(b"untraced").unwrap();
    assert!(rx.poll_recv().is_some());

    let snap = telemetry.snapshot();
    assert_eq!(
        snap.events_recorded, recorded_before,
        "tracing disabled records nothing"
    );
    assert!(
        snap.counter("router.forwarded").unwrap_or(0) > 0,
        "metrics still flow"
    );
}
