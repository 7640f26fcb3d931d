//! PAN — the path-aware networking application library.
//!
//! This is the layer the paper's §4.2 is about: "their time is limited,
//! their attention span is a precious resource, and they have little
//! patience for clunky APIs". The library gives applications a drop-in
//! datagram socket that hides bootstrapping, path lookup and failover:
//!
//! * [`modes`] — the three operating modes of §4.2.1 (daemon-dependent,
//!   bootstrapper-dependent, standalone) with automatic fallback, so
//!   applications never choose explicitly.
//! * [`selector`] — path selection: preference orders (latency, bandwidth,
//!   shortest, disjoint, green), policy filtering, instant failover on
//!   SCMP interface-down notifications (§4.7's low-latency-gaming story).
//! * [`socket`] — [`socket::PanSocket`], the drop-in UDP socket of §4.2.2,
//!   written against a transport trait so the same code runs over the
//!   simulator or a real underlay.
//! * [`happy`] — Happy Eyeballs v2 extended with SCION as a third address
//!   family, the §4.2.2 alternative integration path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod happy;
pub mod modes;
pub mod selector;
pub mod socket;

pub use modes::{HostStack, OperatingMode};
pub use selector::{PathSelector, RttEstimator};
pub use socket::{PanSocket, PanTransport};

/// Errors surfaced to applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanError {
    /// No path to the destination satisfies the policy.
    NoUsablePath(String),
    /// The socket is not bound/connected as required.
    NotConnected,
    /// Underlying bootstrap failed (standalone mode).
    Bootstrap(String),
    /// Payload exceeds the path MTU.
    PayloadTooLarge {
        /// Bytes attempted.
        len: usize,
        /// Maximum allowed.
        max: usize,
    },
}

impl core::fmt::Display for PanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PanError::NoUsablePath(s) => write!(f, "no usable path: {s}"),
            PanError::NotConnected => write!(f, "socket not connected"),
            PanError::Bootstrap(s) => write!(f, "bootstrap failed: {s}"),
            PanError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for PanError {}
