//! The SCION end-host daemon.
//!
//! "The daemon acts as the core of this stack, handling all end host
//! interactions with the SCION control plane. It consolidates critical
//! tasks, such as path lookup and selection, caching path information,
//! providing information about the AS-local SCION services, and
//! maintaining local databases for SCION's public-key infrastructure"
//! (§2). This crate implements exactly that:
//!
//! * [`daemon`] — path lookup against a [`daemon::PathProvider`] with a
//!   TTL- and expiry-aware cache shared by all applications on the host
//!   (the benefit the bootstrapper-dependent/standalone library modes of
//!   §4.2.1 give up).
//! * [`trust`] — the local PKI databases: the TRC store with update
//!   chaining and topology/segment verification helpers.
//!
//! [`Daemon`] has no product caller: only tests use it. The deployment's
//! hosts look paths up through `sciera_core::SimTransport`, which asks the
//! path database directly (`DESIGN.md` §11). The trust store is on the
//! product path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod trust;

pub use daemon::{Daemon, DaemonConfig, PathProvider};
pub use trust::TrustStore;
