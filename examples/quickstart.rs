//! Quickstart: stand up the SCIERA deployment, bootstrap a host, and send
//! native SCION traffic across four continents.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full §4.1 onboarding story: hint discovery → signed topology
//! retrieval → TRC-anchored verification → path lookup → drop-in socket.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sciera::bootstrap::client::{BootstrapClient, ModelEnv, OsProfile};
use sciera::bootstrap::hints::NetworkProfile;
use sciera::bootstrap::server::SignedTopology;
use sciera::bootstrap::BootstrapError;
use sciera::prelude::*;
use sciera::proto::encap::UnderlayAddr;

fn main() {
    println!("== SCIERA quickstart ==\n");

    println!("building the deployment (PKI, beaconing, routers) ...");
    let net = SciEraNetwork::build(NetworkConfig::default());
    println!(
        "  {} ASes, {} path segments registered, every segment PKI-verified\n",
        net.secrets.len(),
        net.pathdb().snapshot().store().len()
    );

    // --- 1. Bootstrap a laptop that just joined OVGU's Wi-Fi (§4.1). ---
    let ovgu = ia("71-2:0:42");
    println!("bootstrapping a host in {ovgu} (OVGU Magdeburg) ...");
    let signed = net.signed_topology(ovgu).expect("OVGU's bootstrap server");
    let body = serde_json::to_vec(&signed).expect("topology serialises");
    let mut rng = StdRng::seed_from_u64(42);
    let mut env = ModelEnv {
        os: OsProfile::all()[1], // Linux
        profile: NetworkProfile::DynDhcpLeases,
        server: UnderlayAddr::new([10, 42, 0, 3], 8041),
        topology_body: body,
        config_processing_ms: 3.0,
        rng: &mut rng,
    };
    // Verification: the topology signature must chain to the ISD 71 TRC,
    // through the AS key OVGU's certificate certifies.
    let trust = net.trust();
    let verify = move |signed: &SignedTopology| -> Result<(), BootstrapError> {
        trust
            .verify_as_signature(
                signed.document.ia,
                &signed.document.signed_bytes(),
                &signed.signature,
            )
            .map_err(|e| BootstrapError::BadTopology(e.to_string()))
    };
    let client = BootstrapClient::for_profile(NetworkProfile::DynDhcpLeases);
    let outcome = client.run(&mut env, &verify).expect("bootstrap succeeds");
    println!(
        "  hint via {} in {:.1} ms, config in {:.1} ms -> total {:.1} ms (paper: median < 150 ms)\n",
        outcome.mechanism,
        outcome.timing.hint.as_secs_f64() * 1000.0,
        outcome.timing.config.as_secs_f64() * 1000.0,
        outcome.timing.total().as_secs_f64() * 1000.0
    );

    // --- 2. Path lookup: show the choice SCIERA gives this host. ---
    let ufms = ia("71-2:0:5c");
    let paths = net.paths(ovgu, ufms);
    println!(
        "paths {ovgu} -> {ufms} (UFMS, Brazil): {} options",
        paths.len()
    );
    for p in paths.iter().take(4) {
        println!(
            "  [{}] {} hops via {}",
            p.fingerprint(),
            p.len(),
            p.ases()
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" > ")
        );
    }
    println!("  ...\n");

    // --- 3. Drop-in sockets: native SCION traffic, §4.2.2. ---
    let laptop = net.attach_host(ScionAddr::new(ovgu, HostAddr::v4(10, 42, 0, 50)));
    let server = net.attach_host(ScionAddr::new(ufms, HostAddr::v4(10, 5, 0, 7)));
    let mut tx = PanSocket::bind(laptop.addr, 40001, laptop.transport());
    let mut rx = PanSocket::bind(server.addr, 8080, server.transport());
    tx.connect(server.addr, 8080)
        .expect("connect performs the path lookup");
    tx.send(b"hello from Magdeburg").expect("datagram sent");
    let (payload, from, sport) = rx.poll_recv().expect("delivered through 5 border routers");
    println!(
        "UFMS received {:?} from {},{}",
        String::from_utf8_lossy(&payload),
        from,
        sport
    );
    rx.send_to(b"oi de Campo Grande", from, sport)
        .expect("reply on reversed path");
    let (reply, _, _) = tx.poll_recv().expect("reply delivered");
    println!("OVGU received {:?}\n", String::from_utf8_lossy(&reply));

    // --- 4. Resilience: cut a link, watch instant failover (§4.7). ---
    println!("cutting the Daejeon-Singapore submarine cable ...");
    let dj = ia("71-2:0:3b");
    let sg = ia("71-2:0:3d");
    let before = net.paths(dj, sg).len();
    net.set_links("Daejeon-Singapore direct", false);
    let after = net.paths(dj, sg).len();
    println!(
        "  {dj} -> {sg}: {before} paths before, {after} after — traffic keeps flowing\n\
         (during the real August 2024 cable cut, \"communication seamlessly\n\
         continued without any disruption\", §5.5)",
    );
}
