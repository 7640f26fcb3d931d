//! The SCIERA network instance: the whole stack, wired.
//!
//! [`SciEraNetwork::build`] stands up the complete deployment of Fig. 1 in
//! one call:
//!
//! 1. the control graph and link inventory (`sciera-topology`),
//! 2. the ISD 71 and ISD 64 TRCs, the open-source CA at GEANT (§4.5) and a
//!    verified certificate chain for every AS (`scion-cppki`),
//! 3. beaconing and segment registration, with every registered segment
//!    re-verified against the PKI (`scion-control`),
//! 4. a border router per AS holding that AS's hop key
//!    (`scion-dataplane`),
//! 5. bootstrap servers with signed topology documents (`scion-bootstrap`),
//! 6. host attachment: [`HostHandle`]s whose [`SimTransport`] implements
//!    `scion-pan`'s transport trait, so PAN sockets send real SCION
//!    packets that real border routers MAC-verify hop by hop,
//! 7. observability: every host-originated packet opens a causal trace
//!    whose span chain advances at each border router, an SCMP echo prober
//!    scores every registered path on a health board, and the
//!    [`OperatorConsole`] renders it all (Prometheus exposition, live
//!    health table, counter rates).
//!
//! Packets traverse [`SciEraNetwork::walk_packet`]: each AS's router
//! verifies the current hop field, link state is honoured (cut links drop
//! traffic and elicit SCMP `ExternalInterfaceDown` to the source), and the
//! accumulated link latency is reported so packet-level RTTs can be
//! checked against the analytic fast path used by the measurement
//! campaign.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod console;
pub mod evolution;
pub mod network;

pub use console::OperatorConsole;
pub use evolution::RegionalSplit;
pub use network::{
    HostHandle, NetError, NetworkConfig, SciEraNetwork, SimTransport, LOOKUP_MAX_PATHS,
};
