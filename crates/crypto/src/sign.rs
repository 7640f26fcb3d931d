//! Simulated signatures for the control plane.
//!
//! See the crate-level documentation and `DESIGN.md` §4 (item 2) for the rationale.
//! The API deliberately mirrors an asymmetric scheme — a private
//! [`SigningKey`] producing [`Signature`]s that a public [`VerifyingKey`]
//! checks — so control-plane code (TRC verification, certificate chains,
//! beacon validation) is written exactly as it would be against ECDSA.
//!
//! Internally a signature is `HMAC-SHA256(secret, message)` and the
//! verifying key carries the secret too, in the only form either key uses
//! it: an [`HmacKey`], prepared once when the key is made (plus a public
//! commitment used as the key identifier). Signing or verifying the 32-byte
//! digest of a beacon entry, certificate or TRC therefore costs two SHA-256
//! compressions, not the four of an HMAC from the raw secret — per entry,
//! per receiving AS, the control plane's unit of work. Because key objects are only ever handed to the entities
//! a real deployment would hand the corresponding private/public keys to,
//! unforgeability holds *within the simulation*: a component that only holds
//! `VerifyingKey`s of other ASes cannot mint their beacons. This models the
//! protocol-level trust relationships the paper relies on without modelling
//! cryptanalytic strength.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::hmac::{hmac_sha256, HmacKey};
use crate::sha256::{sha256, to_hex};
use crate::CryptoError;

/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 32;

/// A signature over a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl Signature {
    /// Renders the signature as hex (for logging/serialisation).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }
}

/// A private signing key. Holders can produce signatures.
#[derive(Clone)]
pub struct SigningKey {
    secret: [u8; 32],
    mac: HmacKey,
}

/// A public verifying key. Identified by a commitment to the secret.
///
/// Note: in this simulated scheme the verifying key embeds the secret (as
/// its prepared HMAC state) so it can recompute tags; see the module docs
/// for why this is a faithful model of the trust relationships despite not
/// being deployable cryptography.
#[derive(Clone, PartialEq, Eq)]
pub struct VerifyingKey {
    key_id: [u8; 32],
    mac: HmacKey,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SigningKey { .. }")
    }
}

impl core::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VerifyingKey({})", to_hex(&self.key_id[..8]))
    }
}

impl SigningKey {
    /// Generates a fresh random key pair.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        Self::from_secret(secret)
    }

    /// Derives a key pair deterministically from a seed label — used to give
    /// every simulated AS a stable identity across runs.
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::from_secret(hmac_sha256(b"sciera-signing-key-seed", seed))
    }

    fn from_secret(secret: [u8; 32]) -> Self {
        SigningKey {
            secret,
            mac: HmacKey::new(&secret),
        }
    }

    /// Returns the public half.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            key_id: sha256(&self.secret),
            mac: self.mac.clone(),
        }
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(self.mac.mac(message))
    }
}

impl VerifyingKey {
    /// The key identifier: a SHA-256 commitment to the secret. Two keys are
    /// the same iff their identifiers are equal.
    pub fn key_id(&self) -> [u8; 32] {
        self.key_id
    }

    /// Short printable key identifier (first 8 hex chars).
    pub fn key_id_short(&self) -> String {
        to_hex(&self.key_id[..4])
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let expected = self.mac.mac(message);
        if crate::ct_eq(&expected, &signature.0) {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SigningKey::generate(&mut rng);
        let vk = sk.verifying_key();
        let sig = sk.sign(b"pcb payload");
        assert!(vk.verify(b"pcb payload", &sig).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = SigningKey::from_seed(b"as-64-559");
        let vk = sk.verifying_key();
        let sig = sk.sign(b"hello");
        assert_eq!(
            vk.verify(b"hellO", &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed(b"as-1");
        let sk2 = SigningKey::from_seed(b"as-2");
        let sig = sk1.sign(b"m");
        assert!(sk2.verifying_key().verify(b"m", &sig).is_err());
    }

    #[test]
    fn seeded_keys_are_stable() {
        let a = SigningKey::from_seed(b"geant");
        let b = SigningKey::from_seed(b"geant");
        assert_eq!(a.verifying_key().key_id(), b.verifying_key().key_id());
    }

    #[test]
    fn key_ids_differ() {
        let a = SigningKey::from_seed(b"a").verifying_key();
        let b = SigningKey::from_seed(b"b").verifying_key();
        assert_ne!(a.key_id(), b.key_id());
        assert_ne!(a.key_id_short(), b.key_id_short());
    }

    #[test]
    fn seeded_key_keeps_its_signature_and_identifier() {
        // Captured before the keys carried their HMAC state.
        let sk = SigningKey::from_seed(b"as-71-1");
        assert_eq!(
            sk.sign(b"pcb payload").to_hex(),
            "cfdca1eae07fe07beb7868eb3a6b62eac5243270fc8f6ef715917489c6f54389"
        );
        let vk = sk.verifying_key();
        assert_eq!(
            to_hex(&vk.key_id()),
            "fbd544cdc750b6c502793d2a1d61a92336601ce783a278044ea69732fa4f3735"
        );
        assert_eq!(vk.key_id_short(), "fbd544cd");
        assert_eq!(format!("{vk:?}"), "VerifyingKey(fbd544cdc750b6c5)");
    }

    #[test]
    fn verifying_keys_are_equal_iff_their_secrets_are() {
        let vk = |seed: &[u8]| SigningKey::from_seed(seed).verifying_key();
        assert_eq!(vk(b"a"), vk(b"a"));
        assert_ne!(vk(b"a"), vk(b"b"));
    }

    #[test]
    fn keys_stay_small_enough_to_copy_by_the_thousand() {
        // Certificates and TRC entries hold their `VerifyingKey` by value.
        assert!(std::mem::size_of::<VerifyingKey>() <= 128);
        assert!(std::mem::size_of::<SigningKey>() <= 96);
    }

    #[test]
    fn debug_impls_do_not_leak_secret() {
        let sk = SigningKey::from_seed(b"x");
        assert_eq!(format!("{sk:?}"), "SigningKey { .. }");
        // The key id is public; nothing else of either key may print.
        let shown = format!("{:?}", sk.verifying_key());
        let id = to_hex(&sk.verifying_key().key_id());
        assert_eq!(shown, format!("VerifyingKey({})", &id[..16]));
    }
}
