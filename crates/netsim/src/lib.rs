//! A discrete-event network simulator.
//!
//! `netsim` is the substrate that stands in for the paper's five-continent
//! testbed (DESIGN.md §4, substitution 1). It follows the smoltcp school of
//! design: protocol components are *poll-based state machines* driven by an
//! explicit event loop with virtual time — no hidden threads, no wall-clock
//! dependence, fully deterministic for a given seed.
//!
//! * [`time`] — virtual time ([`SimTime`]) and durations ([`SimDuration`]).
//! * [`link`] — point-to-point links with propagation latency (derived from
//!   real PoP geography by `sciera-topology`), serialisation delay, loss,
//!   jitter and administrative state.
//! * [`world`] — the event queue, the [`world::Node`] trait and the
//!   [`world::World`] that wires nodes and links together.
//! * [`faults`] — fault injection: scheduled link cuts, flapping windows and
//!   maintenance events, mirroring the incidents of §5.4 (KREONET cable cut,
//!   BRIDGES instabilities, January maintenance).
//! * [`metrics`] — sample summaries, streaming histograms and rendered CDFs
//!   for experiment output.
//! * [`pool`] — a bounded frame-buffer pool so steady-state traffic reuses
//!   `Vec<u8>` allocations instead of hammering the global allocator; the
//!   [`world::World`] owns one and exposes it through [`world::NodeCtx`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod link;
pub mod metrics;
pub mod pool;
pub mod time;
pub mod world;

pub use link::{Link, LinkId, LinkQuality};
pub use pool::FramePool;
pub use time::{SimDuration, SimTime};
pub use world::{Node, NodeCtx, NodeId, World};
