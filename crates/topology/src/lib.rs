//! The SCIERA deployment as data (§3, Fig. 1, Table 1, Fig. 3, App. C/D).
//!
//! Everything the paper states about the deployed network is encoded here:
//!
//! * [`ases`] — every AS of Fig. 1 with its real ISD-AS number, role
//!   (core / leaf), region and home PoP.
//! * [`geo`] — PoP coordinates and fiber-latency computation: link
//!   latencies derive from great-circle distances at the speed of light in
//!   fiber with route-indirectness factors, so the simulated RTTs carry
//!   the real geography of the five-continent deployment.
//! * [`links`] — the link inventory: the KREONET ring (Daejeon, Hong Kong,
//!   Singapore, Amsterdam, Chicago, Seattle), the four parallel
//!   Singapore–Amsterdam circuits, GEANT's European reach, BRIDGES,
//!   RNP and all leaf attachments; builds the [`scion_control::ControlGraph`]
//!   and the link set the data plane walks.
//! * [`ip`] — the commercial-Internet baseline: a BGP-style graph over the
//!   same sites plus transit hubs, routed by *fewest AS hops* (not lowest
//!   latency) — which is exactly why IP sometimes wins and sometimes loses
//!   against SCION's path choice in §5.4.
//! * [`timeline`] — the Fig. 3 onboarding timeline with the Appendix C
//!   facts per event (connection type, coordinating parties, hardware
//!   procurement), plus Table 1's PoPs and Appendix D's NSP list.
//!
//! One mapping note (also in EXPERIMENTS.md): Fig. 8's vantage list contains
//! `71-2:0:4a`, which the paper text never names; we attach it as a
//! measurement AS under KISTI Singapore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ases;
pub mod geo;
pub mod ip;
pub mod links;
pub mod synth;
pub mod timeline;

pub use ases::{all_ases, AsInfo, Region};
pub use geo::{fiber_rtt_ms, Pop};
pub use ip::IpBaseline;
pub use links::{build_control_graph, link_inventory, LinkSpec};
pub use synth::{synthesize, SynthConfig};
pub use timeline::{deployment_timeline, nsps, pops_table1};
