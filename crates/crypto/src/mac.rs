//! The SCION hop-field MAC.
//!
//! Each AS on a path authorises its hop field (ingress/egress interface pair
//! plus expiry) by MACing it with an AS-local secret hop key. Border routers
//! recompute and check this MAC for every forwarded packet; a failed check
//! drops the packet. The MAC is chained across the segment through the
//! 16-bit *segment identifier* (`beta`), which each AS updates by XOR-ing in
//! the first two MAC bytes — this prevents splicing hop fields between
//! segments.
//!
//! Layout of the 16-byte MAC input (matching the SCION specification):
//!
//! ```text
//!  0               1
//!  0 1 2 3 4 5 6 7 8 9 a b c d e f
//! +---+---+-------+-+-+---+---+---+
//! | 0 |beta| ts    |0|et|in |eg | 0 |
//! +---+---+-------+-+-+---+---+---+
//! ```

use crate::cmac::Cmac;
use crate::hmac::derive_key16;

/// Inputs covered by a hop-field MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopMacInput {
    /// Segment identifier (`beta_i`) accumulated along the beacon.
    pub beta: u16,
    /// Info-field timestamp (segment creation, Unix seconds).
    pub timestamp: u32,
    /// Expiry time encoding (relative units of ~5.6 min past the timestamp).
    pub exp_time: u8,
    /// Ingress interface in construction direction (0 at segment origin).
    pub cons_ingress: u16,
    /// Egress interface in construction direction (0 at segment end).
    pub cons_egress: u16,
}

impl HopMacInput {
    /// Serialises to the canonical 16-byte MAC input block.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[2..4].copy_from_slice(&self.beta.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b[9] = self.exp_time;
        b[10..12].copy_from_slice(&self.cons_ingress.to_be_bytes());
        b[12..14].copy_from_slice(&self.cons_egress.to_be_bytes());
        b
    }
}

/// An AS's hop-key engine: derives the hop key from the AS master secret and
/// computes/verifies hop-field MACs.
#[derive(Clone, Debug)]
pub struct HopKey {
    cmac: Cmac,
}

/// Serialised length of the derivation label: `"scion-hop-key-"` plus the
/// big-endian epoch.
const DERIVE_LABEL_LEN: usize = 14 + 4;

impl HopKey {
    /// Derives the hop key from an AS master secret and a key epoch label.
    pub fn derive(master_secret: &[u8], epoch: u32) -> Self {
        let mut label = [0u8; DERIVE_LABEL_LEN];
        label[..14].copy_from_slice(b"scion-hop-key-");
        label[14..].copy_from_slice(&epoch.to_be_bytes());
        let key = derive_key16(master_secret, &label);
        HopKey {
            cmac: Cmac::new(&key),
        }
    }

    /// Computes the 6-byte hop-field MAC.
    ///
    /// The input is always exactly one cipher block, so this takes the
    /// single-block CMAC path (one AES call, precomputed subkey).
    pub fn mac(&self, input: &HopMacInput) -> [u8; 6] {
        self.cmac.tag6_block(&input.to_bytes())
    }

    /// Computes the full 16-byte tag; the first two bytes update `beta`.
    pub fn full_mac(&self, input: &HopMacInput) -> [u8; 16] {
        self.cmac.tag_block(&input.to_bytes())
    }

    /// Verifies a 6-byte hop-field MAC in constant time.
    pub fn verify(&self, input: &HopMacInput, mac: &[u8; 6]) -> bool {
        crate::ct_eq(&self.mac(input), mac)
    }

    /// Returns the next segment identifier after this hop:
    /// `beta_{i+1} = beta_i XOR mac[0..2]`.
    pub fn chain_beta(&self, input: &HopMacInput) -> u16 {
        let m = self.full_mac(input);
        input.beta ^ u16::from_be_bytes([m[0], m[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input() -> HopMacInput {
        HopMacInput {
            beta: 0x1234,
            timestamp: 1_700_000_000,
            exp_time: 63,
            cons_ingress: 3,
            cons_egress: 7,
        }
    }

    #[test]
    fn mac_roundtrip() {
        let key = HopKey::derive(b"as-master-secret", 1);
        let input = sample_input();
        let mac = key.mac(&input);
        assert!(key.verify(&input, &mac));
    }

    #[test]
    fn wrong_key_rejects() {
        let k1 = HopKey::derive(b"as-master-secret", 1);
        let k2 = HopKey::derive(b"other-secret", 1);
        let input = sample_input();
        let mac = k1.mac(&input);
        assert!(!k2.verify(&input, &mac));
    }

    #[test]
    fn epoch_rotation_changes_mac() {
        let k1 = HopKey::derive(b"s", 1);
        let k2 = HopKey::derive(b"s", 2);
        assert_ne!(k1.mac(&sample_input()), k2.mac(&sample_input()));
    }

    #[test]
    fn any_field_change_invalidates() {
        let key = HopKey::derive(b"s", 1);
        let base = sample_input();
        let mac = key.mac(&base);
        let variants = [
            HopMacInput {
                beta: base.beta ^ 1,
                ..base
            },
            HopMacInput {
                timestamp: base.timestamp + 1,
                ..base
            },
            HopMacInput {
                exp_time: base.exp_time + 1,
                ..base
            },
            HopMacInput {
                cons_ingress: base.cons_ingress + 1,
                ..base
            },
            HopMacInput {
                cons_egress: base.cons_egress + 1,
                ..base
            },
        ];
        for v in variants {
            assert!(!key.verify(&v, &mac), "mutated field accepted: {v:?}");
        }
    }

    #[test]
    fn beta_chaining_depends_on_hop() {
        let key = HopKey::derive(b"s", 1);
        let a = sample_input();
        let b = HopMacInput {
            cons_egress: 9,
            ..a
        };
        assert_ne!(key.chain_beta(&a), key.chain_beta(&b));
    }

    #[test]
    fn block_path_matches_generic_cmac() {
        let key = HopKey::derive(b"as-master-secret", 3);
        let input = sample_input();
        assert_eq!(key.mac(&input), key.cmac.tag6(&input.to_bytes()));
        assert_eq!(key.full_mac(&input), key.cmac.tag(&input.to_bytes()));
    }

    #[test]
    fn mac_input_layout() {
        let b = sample_input().to_bytes();
        assert_eq!(&b[2..4], &0x1234u16.to_be_bytes());
        assert_eq!(&b[4..8], &1_700_000_000u32.to_be_bytes());
        assert_eq!(b[9], 63);
        assert_eq!(&b[10..12], &3u16.to_be_bytes());
        assert_eq!(&b[12..14], &7u16.to_be_bytes());
        assert_eq!(b[0], 0);
        assert_eq!(b[1], 0);
        assert_eq!(b[8], 0);
        assert_eq!(b[14], 0);
        assert_eq!(b[15], 0);
    }
}
