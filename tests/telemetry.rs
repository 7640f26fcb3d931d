//! Full-stack telemetry integration: one shared registry observes the
//! control plane, data plane, daemon, bootstrap and §4.4 alerting layers of
//! a complete deployment, and the flight recorder yields an ordered JSONL
//! post-mortem stream.

use sciera::bootstrap::client::{BootstrapClient, ModelEnv, OsProfile};
use sciera::bootstrap::hints::NetworkProfile;
use sciera::bootstrap::server::{SignedTopology, TopologyDocument};
use sciera::daemon::daemon::{Daemon, DaemonConfig};
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

    // --- §4.4 alerting, rolled up from the health board: a destination is
    // unreachable while every probed path to it is down, alerted once when
    // that starts and once when it ends.
    let src = ia("71-2:0:42");
    let (lone, multi) = (ia("71-88"), ia("71-225"));
    let links = |dst| -> Vec<Vec<usize>> {
        let paths = net.paths(src, dst);
        paths.iter().map(|p| net.path_links(p)).collect()
    };
    let (to_lone, to_multi) = (links(lone), links(multi));
    let on_all = |paths: &[Vec<usize>], l: &usize| paths.iter().all(|p| p.contains(l));
    let on_any = |paths: &[Vec<usize>], l: &usize| paths.iter().any(|p| p.contains(l));
    // `lone`'s access link is on every path to it and on none to `multi`;
    // one of `multi`'s uplinks is on some of its paths, and on none to `lone`.
    let access = *to_lone[0]
        .iter()
        .find(|l| on_all(&to_lone, l) && !on_any(&to_multi, l))
        .expect("a link every path to 71-88 crosses");
    let uplink = *to_multi
        .iter()
        .flatten()
        .find(|l| !on_all(&to_multi, l) && !on_any(&to_lone, l))
        .expect("a link some paths to 71-225 cross");
    assert!(to_lone.len() >= 2 && to_multi.len() >= 2);
    net.register_probe_pair(src, lone);
    net.register_probe_pair(src, multi);
    let alerts = || {
        let snap = telemetry.snapshot();
        let n = |name| snap.counter(name).unwrap_or(0);
        (n("health.outage_alerts"), n("health.recovery_notices"))
    };
    let mut console = net.console();
    let round = |link: usize, up: bool| {
        net.set_link_index(link, up);
        net.advance_time(10);
        net.probe_round();
    };
    round(access, true);
    assert_eq!(alerts(), (0, 0));
    round(access, false);
    assert_eq!(alerts(), (1, 0), "one outage alert");
    assert!(console
        .render()
        .contains("unreachable: 71-88 — 1 outage alerts"));
    for _ in 0..3 {
        round(access, false);
    }
    assert_eq!(alerts(), (1, 0), "nothing more while the link stays down");
    round(access, true);
    assert_eq!(alerts(), (1, 1), "one recovery notice");
    assert!(console
        .render()
        .contains("unreachable: none — 1 outage alerts / 1 recovery notices"));
    round(uplink, false);
    round(uplink, false);
    let rows = net.health_rows();
    let down = rows.iter().filter(|r| r.dst == multi && !r.alive).count();
    assert!(
        down > 0 && down < to_multi.len(),
        "{down} of {}",
        to_multi.len()
    );
    assert_eq!(
        alerts(),
        (1, 1),
        "losing some of several paths is no outage"
    );
    round(uplink, true);
    let snap = telemetry.snapshot();

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
    for alert in [
        "destination unreachable on every probed path",
        "destination reachable again",
    ] {
        assert_eq!(dump.matches(alert).count(), 1, "{alert}:\n{dump}");
    }

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
