//! The SCION data plane.
//!
//! * [`router`] — the border router: verifies the current hop field's
//!   AES-CMAC (the "efficient symmetric cryptographic operation" of §2),
//!   checks interfaces and expiry, advances the path pointers, handles
//!   segment crossings and peering hops, and builds SCMP notifications for
//!   failures. One engine rewrites raw frames in place
//!   ([`router::BorderRouter::process_frame`]); a batch is a loop over it.
//! * [`dispatcher`] — the legacy shared end-host dispatcher of §4.8: one
//!   fixed UDP underlay port, demultiplexing to applications — a faithful
//!   recreation of a kernel socket in user space, and a deliberate
//!   bottleneck kept for the ablation benchmark. The module also holds
//!   [`dispatcher::IngressShards`], which the frame load runs on.
//! * [`hostnet`] — the dispatcherless datapath §4.8 migrated to: each
//!   socket owns its own underlay port, so flows spread over receive queues
//!   (RSS) with no shared choke point.
//! * [`lightningfilter`] — the LightningFilter of §4.7.1/§4.9: line-rate
//!   per-AS packet authentication and rate limiting in front of a
//!   Science-DMZ.
//! * [`pool`] — the bounded frame-buffer pool that feeds routers recycled
//!   `Vec<u8>` backing stores under frame load.
//! * [`load`] — the frame-load loop: inject, drain an ingress shard, run
//!   the batch through its router, forward across the link. The deployment
//!   and the scale sweep both run it.
//!
//! Off the product path: no part of the deployment calls the legacy
//! [`dispatcher::Dispatcher`] or its pipeline, [`hostnet`] or
//! [`lightningfilter::LightningFilter`]. The dispatcher and `hostnet` serve
//! only the §4.8 ablation (`ablation_dispatcher`) and `tests/host_modes.rs`;
//! the filter serves only `ablation_lightningfilter` and the `science_dmz`
//! example (`DESIGN.md` §7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatcher;
pub mod hostnet;
pub mod lightningfilter;
pub mod load;
pub mod pool;
pub mod router;

pub use router::{BorderRouter, DropReason, FrameDecision, FrameError};
