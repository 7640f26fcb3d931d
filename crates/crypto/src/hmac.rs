//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! Used for SCION key derivation (the per-AS hop key hierarchy) and by the
//! simulated signature scheme in [`crate::sign`]. Verified against the
//! RFC 4231 test vectors.
//!
//! `HMAC(k, m) = H((k ^ opad) ‖ H((k ^ ipad) ‖ m))`: both hashes start with a
//! block that depends on the key alone. An [`HmacKey`] is what is left of a
//! key once those two blocks are compressed — two SHA-256 chaining values,
//! 64 bytes — so a long-lived key pays for them once and a MAC over a
//! 32-byte digest is two compressions instead of four. Chaining values
//! rather than two [`crate::sha256::Sha256`] hashers because a block-aligned
//! hasher carries an empty 64-byte buffer and two counters the key never
//! needs: a 400-AS deployment copies verifying keys into some 5 000
//! certificates, where the larger form measured +1.0–1.3 MB resident.

use crate::sha256::{compress, digest_from, sha256, BLOCK_LEN, DIGEST_LEN, H0};

/// An HMAC-SHA256 key with its two key-dependent blocks already absorbed.
#[derive(Clone, PartialEq, Eq)]
pub struct HmacKey {
    /// SHA-256 state after `key ^ ipad`.
    inner: [u32; 8],
    /// SHA-256 state after `key ^ opad`.
    outer: [u32; 8],
}

impl HmacKey {
    /// Prepares `key` (hashed first if longer than a block, as RFC 2104 has it).
    pub fn new(key: &[u8]) -> Self {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let absorbed = |pad: u8| {
            let mut state = H0;
            compress(&mut state, &block.map(|b| b ^ pad));
            state
        };
        HmacKey {
            inner: absorbed(0x36),
            outer: absorbed(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let inner_digest = digest_from(self.inner, BLOCK_LEN as u64, message);
        digest_from(self.outer, BLOCK_LEN as u64, &inner_digest)
    }
}

/// Computes `HMAC-SHA256(key, message)` for a key used once.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

/// Derives a subkey from a parent secret and a context label.
///
/// SCION derives its data-plane hop keys from an AS-local master secret via a
/// labelled PRF; we use `HMAC(parent, label)` truncated to 16 bytes, matching
/// the AES-128 key size consumed by [`crate::cmac`].
pub fn derive_key16(parent: &[u8], label: &[u8]) -> [u8; 16] {
    let full = hmac_sha256(parent, label);
    let mut out = [0u8; 16];
    out.copy_from_slice(&full[..16]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{compressions_in, to_hex};

    /// HMAC as RFC 2104 defines it, through plain `sha256` of concatenations.
    fn by_definition(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut block = if key.len() > BLOCK_LEN {
            sha256(key).to_vec()
        } else {
            key.to_vec()
        };
        block.resize(BLOCK_LEN, 0);
        let padded = |pad: u8, rest: &[u8]| {
            let mut m: Vec<u8> = block.iter().map(|b| b ^ pad).collect();
            m.extend_from_slice(rest);
            sha256(&m)
        };
        padded(0x5c, &padded(0x36, message))
    }

    #[test]
    fn rfc4231_vectors_through_both_entry_points() {
        let key4: Vec<u8> = (1..=25).collect();
        // Cases 1-4, 6 and 7; the last two have keys longer than a block.
        let cases: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &key4,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size \
                  data. The key needs to be hashed before being used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, message, tag) in cases {
            assert_eq!(to_hex(&hmac_sha256(key, message)), tag);
            let keyed = HmacKey::new(key);
            // A prepared key is reusable: an earlier MAC leaves nothing behind.
            let _ = keyed.mac(b"another message first");
            assert_eq!(to_hex(&keyed.mac(message)), tag);
        }
    }

    #[test]
    fn keys_around_the_block_size_follow_the_definition() {
        for len in [0, 1, 32, 63, 64, 65, 200] {
            let key: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
            for message in [&b""[..], b"abc", &[7u8; 32], &[9u8; 150]] {
                let expected = by_definition(&key, message);
                assert_eq!(hmac_sha256(&key, message), expected, "key of {len} B");
                assert_eq!(HmacKey::new(&key).mac(message), expected);
            }
        }
    }

    #[test]
    fn a_prepared_key_halves_the_compressions_of_a_digest_mac() {
        let keyed = HmacKey::new(&[1u8; 32]);
        assert_eq!(compressions_in(|| keyed.mac(&[2u8; 32])), 2);
        assert_eq!(compressions_in(|| hmac_sha256(&[1u8; 32], &[2u8; 32])), 4);
    }

    #[test]
    fn derived_hop_key_keeps_its_mac() {
        // Captured before HMAC went through `HmacKey`.
        use crate::mac::{HopKey, HopMacInput};
        let input = HopMacInput {
            beta: 0x1234,
            timestamp: 1_700_000_000,
            exp_time: 63,
            cons_ingress: 3,
            cons_egress: 7,
        };
        let mac = HopKey::derive(b"as-secret", 1).mac(&input);
        assert_eq!(to_hex(&mac), "c0b4736bc0f3");
    }

    #[test]
    fn derive_key16_is_deterministic_and_label_sensitive() {
        let a = derive_key16(b"master", b"hop-key-2025");
        let b = derive_key16(b"master", b"hop-key-2025");
        let c = derive_key16(b"master", b"hop-key-2026");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn derive_key16_parent_sensitive() {
        assert_ne!(derive_key16(b"m1", b"l"), derive_key16(b"m2", b"l"));
    }
}
