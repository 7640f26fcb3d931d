//! SCIERA — a full-stack reproduction of *Scaling SCIERA: A Journey
//! Through the Deployment of a Next-Generation Network* (SIGCOMM 2025).
//!
//! This facade crate re-exports the whole workspace. For the architecture
//! map see `DESIGN.md` §2, one section per layer; for the per-figure
//! reproduction status see `EXPERIMENTS.md`.
//!
//! # Quickstart
//!
//! ```
//! use sciera::prelude::*;
//!
//! // Stand up the whole five-continent deployment: PKI, beaconing,
//! // border routers, bootstrap servers.
//! let net = SciEraNetwork::build(NetworkConfig::default());
//!
//! // Attach two hosts and talk — a drop-in datagram socket, no path
//! // management required.
//! let a = net.attach_host(ScionAddr::new(ia("71-2:0:42"), HostAddr::v4(10, 0, 0, 1)));
//! let b = net.attach_host(ScionAddr::new(ia("71-225"), HostAddr::v4(10, 0, 0, 2)));
//! let mut tx = PanSocket::bind(a.addr, 4000, a.transport());
//! let mut rx = PanSocket::bind(b.addr, 4001, b.transport());
//! tx.connect(b.addr, 4001).unwrap();
//! tx.send(b"hello native SCION").unwrap();
//! let (payload, from, _) = rx.poll_recv().unwrap();
//! assert_eq!(payload, b"hello native SCION");
//! assert_eq!(from.ia, ia("71-2:0:42"));
//! ```

#![forbid(unsafe_code)]

pub use sciera_core as core;
pub use sciera_flowgen as flowgen;
pub use sciera_measure as measure;
pub use sciera_telemetry as telemetry;
pub use sciera_topology as topology;
pub use scion_bootstrap as bootstrap;
pub use scion_control as control;
pub use scion_cppki as cppki;
pub use scion_crypto as crypto;
pub use scion_daemon as daemon;
pub use scion_dataplane as dataplane;
pub use scion_hercules as hercules;
pub use scion_orchestrator as orchestrator;
pub use scion_pan as pan;
pub use scion_proto as proto;
pub use scion_sig as sig;

/// The most commonly used items in one import.
pub mod prelude {
    pub use sciera_core::network::NetworkConfig;
    pub use sciera_core::{HostHandle, OperatorConsole, SciEraNetwork};
    pub use sciera_measure::campaign::{Campaign, CampaignConfig};
    pub use sciera_telemetry::{
        prometheus_text, reconstruct_trace, validate_chain, Severity, Telemetry, TelemetrySnapshot,
    };
    pub use sciera_topology::links::build_control_graph;
    pub use scion_control::fullpath::FullPath;
    pub use scion_control::policy::{PathPolicy, Preference};
    pub use scion_orchestrator::{ChurnEvent, EchoOutcome, HealthRow};
    pub use scion_pan::socket::{PanSocket, PanTransport};
    pub use scion_proto::addr::{ia, HostAddr, IsdAsn, ScionAddr};
    pub use scion_proto::trace::TraceContext;
}
