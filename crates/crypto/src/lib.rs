//! Cryptographic primitives for the SCION stack.
//!
//! This crate implements, from scratch, every symmetric primitive the SCION
//! protocol family actually uses on the wire:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), on the CPU's SHA extensions where it
//!   has them and in portable Rust where it does not. Every hash of the
//!   stack ends in its one compression function:
//!   - the id and the signed digest of every PCB entry, kept as running
//!     hash states as a segment is extended (`scion_control::segment`);
//!   - every signature and its check — PCB entries, certificates, TRCs,
//!     CA enrolment proofs — an HMAC-SHA256 over the signed bytes
//!     ([`sign`]);
//!   - key material: signing keys derived from their seeds, key
//!     identifiers (the SHA-256 of the secret), hop-field keys derived from
//!     an AS master secret and LightningFilter's DRKey-style keys
//!     ([`hmac::derive_key16`]);
//!   - fingerprints: a path's hop sequence (the path key of the path
//!     database, the prober and the selector) and a path policy's cache
//!     key (`scion_control::{fullpath, policy}`).
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), one-shot and with a prepared key.
//! * [`aes`] — AES-128 block encryption (FIPS 197), the cipher behind the
//!   SCION hop-field MAC.
//! * [`cmac`] — AES-CMAC (RFC 4493 / NIST SP 800-38B), the exact primitive a
//!   SCION border router evaluates for every forwarded packet.
//! * [`mac`] — the SCION hop-field MAC computation on top of AES-CMAC.
//! * [`sign`] — a *simulated* signature scheme (see below) plus key handling.
//!
//! # Simulated signatures
//!
//! Production SCION signs path-construction beacons, TRCs and certificates
//! with ECDSA P-256. No asymmetric-crypto crate is available in this build
//! environment, and reimplementing ECDSA is out of scope for a deployment
//! reproduction. Instead, [`sign`] provides an HMAC-based scheme: a
//! signature is `HMAC-SHA256(secret, message)`, and both the
//! [`sign::SigningKey`] and its [`sign::VerifyingKey`] hold the secret as a
//! prepared [`hmac::HmacKey`] so that either can compute the tag. The
//! verifying key is identified by a commitment, the SHA-256 digest of the
//! secret. Key objects are only handed to the entities a real deployment
//! would hand the private or public key to, so within the simulation this
//! preserves the property the control plane relies on — no AS can forge
//! another AS's beacon or certificate — while exercising the same sign →
//! serialize → chain-verify code paths as the real stack. The substitution
//! is recorded in `DESIGN.md` §4.
//!
//! The crate denies unsafe code. The one exception is the call into the
//! hardware SHA-256 kernel, made only after the CPU features it needs are
//! detected.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cmac;
pub mod hmac;
pub mod mac;
pub mod sha256;
pub mod sign;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A MAC or signature tag did not verify.
    VerificationFailed,
    /// Key material had the wrong length.
    InvalidKeyLength {
        /// Expected key length in bytes.
        expected: usize,
        /// Provided key length in bytes.
        got: usize,
    },
    /// The named key is not present in the registry.
    UnknownKey(String),
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::InvalidKeyLength { expected, got } => {
                write!(
                    f,
                    "invalid key length: expected {expected} bytes, got {got}"
                )
            }
            CryptoError::UnknownKey(name) => write!(f, "unknown key: {name}"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Constant-time equality for fixed-size tags.
///
/// Avoids early-exit timing differences when comparing MACs; the simulator
/// does not have a real side channel, but the data plane code is written as
/// the production router would be.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"abcdef", b"abcdef"));
    }

    #[test]
    fn ct_eq_differs() {
        assert!(!ct_eq(b"abcdef", b"abcdeg"));
    }

    #[test]
    fn ct_eq_length_mismatch() {
        assert!(!ct_eq(b"abc", b"abcd"));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CryptoError::VerificationFailed.to_string(),
            "verification failed"
        );
        assert_eq!(
            CryptoError::InvalidKeyLength {
                expected: 16,
                got: 3
            }
            .to_string(),
            "invalid key length: expected 16 bytes, got 3"
        );
        assert_eq!(
            CryptoError::UnknownKey("k".into()).to_string(),
            "unknown key: k"
        );
    }
}
