//! The SCION Control-Plane PKI (CP-PKI).
//!
//! Trust in a SCION ISD is anchored in its *Trust Root Configuration* (TRC),
//! a signed document naming the ISD's core ASes, root keys, and update
//! policy (§2 of the paper). From the TRC hangs a conventional certificate
//! hierarchy: root certificates (embedded in the TRC), CA certificates, and
//! short-lived AS certificates used to sign path-construction beacons.
//!
//! The paper's §4.5 recounts a deployment lesson this crate models
//! explicitly: AS certificates are *intentionally short-lived* (days), so
//! certificate issuance and renewal must be fully automated, and SCIERA had
//! to build an open-source CA (on the smallstep framework) interoperable
//! with both the closed-source Anapaya CORE stack and the open-source SCION
//! stack. [`ca`] implements that CA with both client profiles.
//!
//! * [`trc`] — TRC structure, signing, and update-chain verification.
//! * [`cert`] — certificates and chain verification back to a TRC.
//! * [`ca`] — the ISD CA service: CSRs, issuance, renewal windows.
//!
//! Signatures use the simulated scheme of `scion-crypto` (DESIGN.md §4,
//! item 2). DESIGN.md §8 maps the CP-PKI beside beaconing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ca;
pub mod cert;
pub mod trc;

pub use ca::{CaService, ClientProfile, CsrRequest};
pub use cert::{CertType, Certificate, CertificateChain};
pub use trc::{Trc, TrcStore};

/// Errors from PKI operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PkiError {
    /// A signature failed to verify.
    BadSignature(String),
    /// A document is outside its validity window.
    Expired {
        /// What expired.
        what: String,
        /// Validity end (Unix seconds).
        valid_until: u64,
        /// The time of the check (Unix seconds).
        now: u64,
    },
    /// A document is not yet valid.
    NotYetValid {
        /// What is not yet valid.
        what: String,
        /// Validity start (Unix seconds).
        valid_from: u64,
        /// The time of the check (Unix seconds).
        now: u64,
    },
    /// A TRC update did not satisfy the predecessor's voting policy.
    InsufficientVotes {
        /// Votes present and verified.
        got: usize,
        /// Quorum required by the predecessor TRC.
        needed: usize,
    },
    /// The update does not chain onto the stored TRC (wrong serial/ISD).
    BrokenChain(String),
    /// A certificate chain is structurally invalid.
    BadChain(String),
    /// The requested entity is unknown.
    NotFound(String),
    /// The CA refused the request (policy).
    Refused(String),
}

impl core::fmt::Display for PkiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PkiError::BadSignature(s) => write!(f, "bad signature: {s}"),
            PkiError::Expired {
                what,
                valid_until,
                now,
            } => {
                write!(f, "{what} expired at {valid_until}, now {now}")
            }
            PkiError::NotYetValid {
                what,
                valid_from,
                now,
            } => {
                write!(f, "{what} not valid before {valid_from}, now {now}")
            }
            PkiError::InsufficientVotes { got, needed } => {
                write!(f, "TRC update has {got} valid votes, needs {needed}")
            }
            PkiError::BrokenChain(s) => write!(f, "broken TRC chain: {s}"),
            PkiError::BadChain(s) => write!(f, "bad certificate chain: {s}"),
            PkiError::NotFound(s) => write!(f, "not found: {s}"),
            PkiError::Refused(s) => write!(f, "refused: {s}"),
        }
    }
}

impl std::error::Error for PkiError {}
