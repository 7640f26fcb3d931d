//! AES-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! This is the MAC a SCION border router computes over every hop field it
//! forwards — the "efficient symmetric cryptographic operation" of the
//! paper's §2. Verified against the RFC 4493 test vectors.

use crate::aes::{Aes128, BLOCK_LEN};

/// A keyed CMAC instance; cheap to clone, reusable across messages.
#[derive(Clone, Debug)]
pub struct Cmac {
    cipher: Aes128,
    k1: [u8; BLOCK_LEN],
    k2: [u8; BLOCK_LEN],
}

fn dbl(block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    let mut out = [0u8; BLOCK_LEN];
    let mut carry = 0u8;
    for i in (0..BLOCK_LEN).rev() {
        out[i] = (block[i] << 1) | carry;
        carry = block[i] >> 7;
    }
    if carry != 0 {
        out[BLOCK_LEN - 1] ^= 0x87;
    }
    out
}

impl Cmac {
    /// Creates a CMAC instance from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let l = cipher.encrypt(&[0u8; BLOCK_LEN]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Cmac { cipher, k1, k2 }
    }

    /// Computes the full 16-byte tag over `message`.
    pub fn tag(&self, message: &[u8]) -> [u8; BLOCK_LEN] {
        let n_blocks = message.len().div_ceil(BLOCK_LEN).max(1);
        let complete_last = !message.is_empty() && message.len().is_multiple_of(BLOCK_LEN);

        let mut x = [0u8; BLOCK_LEN];
        for i in 0..n_blocks - 1 {
            let chunk = &message[i * BLOCK_LEN..(i + 1) * BLOCK_LEN];
            for j in 0..BLOCK_LEN {
                x[j] ^= chunk[j];
            }
            self.cipher.encrypt_block(&mut x);
        }

        let mut last = [0u8; BLOCK_LEN];
        let tail = &message[(n_blocks - 1) * BLOCK_LEN..];
        if complete_last {
            for j in 0..BLOCK_LEN {
                last[j] = tail[j] ^ self.k1[j];
            }
        } else {
            last[..tail.len()].copy_from_slice(tail);
            last[tail.len()] = 0x80;
            for (l, k) in last.iter_mut().zip(self.k2.iter()) {
                *l ^= k;
            }
        }
        for j in 0..BLOCK_LEN {
            x[j] ^= last[j];
        }
        self.cipher.encrypt_block(&mut x);
        x
    }

    /// Computes a truncated 6-byte tag, the size SCION hop fields carry.
    pub fn tag6(&self, message: &[u8]) -> [u8; 6] {
        let full = self.tag(message);
        let mut out = [0u8; 6];
        out.copy_from_slice(&full[..6]);
        out
    }

    /// Computes the full tag over exactly one complete block.
    ///
    /// The single-complete-block case collapses the generic CMAC loop to
    /// one cipher call on `M ⊕ K1`, with the precomputed subkey folded in.
    /// This is the hot path of hop-field verification — every SCION MAC
    /// input is exactly 16 bytes.
    pub fn tag_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let mut x = [0u8; BLOCK_LEN];
        for j in 0..BLOCK_LEN {
            x[j] = block[j] ^ self.k1[j];
        }
        self.cipher.encrypt_block(&mut x);
        x
    }

    /// Truncated 6-byte variant of [`Cmac::tag_block`].
    pub fn tag6_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; 6] {
        let full = self.tag_block(block);
        let mut out = [0u8; 6];
        out.copy_from_slice(&full[..6]);
        out
    }

    /// Verifies a full-size tag in constant time.
    pub fn verify(&self, message: &[u8], tag: &[u8; BLOCK_LEN]) -> bool {
        crate::ct_eq(&self.tag(message), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn rfc_key() -> Cmac {
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        Cmac::new(&key)
    }

    #[test]
    fn rfc4493_empty() {
        assert_eq!(
            to_hex(&rfc_key().tag(b"")),
            "bb1d6929e95937287fa37d129b756746"
        );
    }

    #[test]
    fn rfc4493_one_block() {
        let msg = from_hex("6bc1bee22e409f96e93d7e117393172a");
        assert_eq!(
            to_hex(&rfc_key().tag(&msg)),
            "070a16b46b4d4144f79bdd9dd04a287c"
        );
    }

    #[test]
    fn rfc4493_40_bytes() {
        let msg = from_hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411",
        );
        assert_eq!(
            to_hex(&rfc_key().tag(&msg)),
            "dfa66747de9ae63030ca32611497c827"
        );
    }

    #[test]
    fn rfc4493_64_bytes() {
        let msg = from_hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        assert_eq!(
            to_hex(&rfc_key().tag(&msg)),
            "51f0bebf7e3b9d92fc49741779363cfe"
        );
    }

    #[test]
    fn verify_roundtrip_and_reject() {
        let c = Cmac::new(&[3u8; 16]);
        let tag = c.tag(b"hop field bytes");
        assert!(c.verify(b"hop field bytes", &tag));
        assert!(!c.verify(b"hop field byteS", &tag));
        let other = Cmac::new(&[4u8; 16]);
        assert!(!other.verify(b"hop field bytes", &tag));
    }

    #[test]
    fn tag_block_matches_generic_path() {
        // Against the RFC 4493 one-block vector…
        let msg: [u8; 16] = from_hex("6bc1bee22e409f96e93d7e117393172a")
            .try_into()
            .unwrap();
        assert_eq!(
            to_hex(&rfc_key().tag_block(&msg)),
            "070a16b46b4d4144f79bdd9dd04a287c"
        );
        // …and against the generic path for assorted keys/blocks.
        for seed in 0u8..8 {
            let c = Cmac::new(&[seed; 16]);
            let mut block = [0u8; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = seed.wrapping_mul(31).wrapping_add(i as u8);
            }
            assert_eq!(c.tag_block(&block), c.tag(&block));
            assert_eq!(c.tag6_block(&block), c.tag6(&block));
        }
    }

    #[test]
    fn tag6_is_prefix_of_tag() {
        let c = Cmac::new(&[8u8; 16]);
        let full = c.tag(b"msg");
        assert_eq!(c.tag6(b"msg"), full[..6]);
    }
}
