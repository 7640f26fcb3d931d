//! UDP/SCION — the datagram transport carried inside SCION packets.
//!
//! The header matches classic UDP (8 bytes: source port, destination port,
//! length, checksum); the checksum is computed over a SCION pseudo-header
//! in production. In the simulator we carry a simple XOR-fold checksum so
//! corruption injected by the fault layer is detectable, which is all the
//! evaluation needs.

use serde::{Deserialize, Serialize};

use crate::ProtoError;

/// Size of the UDP header in bytes.
pub const UDP_HDR_LEN: usize = 8;

/// A UDP/SCION datagram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// XOR of the payload's big-endian 16-bit words (an odd last byte padded
/// low) with the ports, the length and `0xffff`.
///
/// Folded eight bytes at a time: XOR is associative, commutative and
/// bytewise, and every 8-byte word starts on a 16-bit boundary, so the four
/// lanes of the wide accumulator hold the XOR of every fourth 16-bit word
/// and folding them together at the end gives the narrow loop's value.
fn checksum(src_port: u16, dst_port: u16, payload: &[u8]) -> u16 {
    let mut words = payload.chunks_exact(8);
    let mut wide = 0u64;
    for w in &mut words {
        wide ^= u64::from_be_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
    }
    let mut acc = 0xffff ^ src_port ^ dst_port ^ (payload.len() as u16);
    acc ^= (wide >> 48) as u16 ^ (wide >> 32) as u16 ^ (wide >> 16) as u16 ^ wide as u16;
    for pair in words.remainder().chunks(2) {
        acc ^= u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]);
    }
    acc
}

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Serialises header + payload.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(self.src_port, self.dst_port, &self.payload)
    }

    /// [`UdpDatagram::encode`] of a datagram that was never built: header
    /// and checksum written around a borrowed payload, which is copied once.
    pub fn encode_parts(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(UDP_HDR_LEN + payload.len());
        out.extend_from_slice(&src_port.to_be_bytes());
        out.extend_from_slice(&dst_port.to_be_bytes());
        out.extend_from_slice(&((UDP_HDR_LEN + payload.len()) as u16).to_be_bytes());
        out.extend_from_slice(&checksum(src_port, dst_port, payload).to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Parses and validates a datagram.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        crate::need("udp header", buf, UDP_HDR_LEN)?;
        let src_port = u16::from_be_bytes([buf[0], buf[1]]);
        let dst_port = u16::from_be_bytes([buf[2], buf[3]]);
        let len = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        let cksum = u16::from_be_bytes([buf[6], buf[7]]);
        if len < UDP_HDR_LEN || len > buf.len() {
            return Err(ProtoError::InvalidField {
                field: "udp length",
                detail: format!("length {len} vs buffer {}", buf.len()),
            });
        }
        let payload = &buf[UDP_HDR_LEN..len];
        if checksum(src_port, dst_port, payload) != cksum {
            return Err(ProtoError::InvalidField {
                field: "udp checksum",
                detail: "checksum mismatch".into(),
            });
        }
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-bytes-at-a-time fold [`checksum`] replaced, kept as its
    /// oracle.
    fn narrow_checksum(src_port: u16, dst_port: u16, payload: &[u8]) -> u16 {
        let mut acc: u16 = 0xffff ^ src_port ^ dst_port ^ (payload.len() as u16);
        for chunk in payload.chunks(2) {
            let low = if chunk.len() == 2 { chunk[1] } else { 0 };
            acc ^= u16::from_be_bytes([chunk[0], low]);
        }
        acc
    }

    /// `len` bytes that differ from lane to lane and word to word.
    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(167).wrapping_add(salt) ^ (i >> 8) as u8)
            .collect()
    }

    #[test]
    fn wide_fold_equals_the_narrow_fold_at_every_length() {
        // Every tail length mod 8, odd and even, up to past the largest
        // payload a PAN socket sends.
        let bytes = pattern(1300, 0x3c);
        for len in 0..=bytes.len() {
            assert_eq!(
                checksum(31000, 443, &bytes[..len]),
                narrow_checksum(31000, 443, &bytes[..len]),
                "payload of {len} bytes"
            );
        }
    }

    #[test]
    fn encoded_bytes_are_the_parents() {
        // Taken from a program built against the commit before the wide
        // fold: the wire format did not move.
        let d = UdpDatagram::new(31000, 443, b"GET /topology".to_vec());
        let golden = b"\x79\x18\x01\xbb\x00\x15\xad\x3bGET /topology";
        assert_eq!(d.encode(), golden);
        assert_eq!(
            UdpDatagram::encode_parts(31000, 443, b"GET /topology"),
            golden
        );
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        for len in [0usize, 1, 7, 8, 9, 64, 513] {
            let d = UdpDatagram::new(40001, 8080, pattern(len, 0x11));
            let wire = d.encode();
            assert_eq!(UdpDatagram::decode(&wire).unwrap(), d);
            for at in 0..wire.len() {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut bad = wire.clone();
                    bad[at] ^= flip;
                    assert!(
                        UdpDatagram::decode(&bad).is_err(),
                        "{len}-byte payload, byte {at} ^ {flip:#04x} accepted"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wide_fold_equals_the_narrow_fold(
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            payload in prop::collection::vec(any::<u8>(), 0..=1300usize),
        ) {
            prop_assert_eq!(
                checksum(src_port, dst_port, &payload),
                narrow_checksum(src_port, dst_port, &payload)
            );
            let wire = UdpDatagram::encode_parts(src_port, dst_port, &payload);
            prop_assert_eq!(&wire[6..8], &narrow_checksum(src_port, dst_port, &payload).to_be_bytes()[..]);
            let back = UdpDatagram::decode(&wire).unwrap();
            prop_assert_eq!(back, UdpDatagram::new(src_port, dst_port, payload));
        }
    }

    #[test]
    fn roundtrip() {
        let d = UdpDatagram::new(31000, 443, b"GET /topology".to_vec());
        assert_eq!(UdpDatagram::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn roundtrip_empty_and_odd_payload() {
        for payload in [vec![], vec![1], vec![1, 2, 3]] {
            let d = UdpDatagram::new(1, 2, payload);
            assert_eq!(UdpDatagram::decode(&d.encode()).unwrap(), d);
        }
    }

    #[test]
    fn corruption_detected() {
        let d = UdpDatagram::new(31000, 443, b"payload".to_vec());
        let mut wire = d.encode();
        wire[10] ^= 0x01;
        assert!(UdpDatagram::decode(&wire).is_err());
    }

    #[test]
    fn header_corruption_detected() {
        let d = UdpDatagram::new(31000, 443, b"payload".to_vec());
        let mut wire = d.encode();
        wire[0] ^= 0x40; // flip a source-port bit
        assert!(UdpDatagram::decode(&wire).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let d = UdpDatagram::new(1, 2, b"abcdef".to_vec());
        let wire = d.encode();
        assert!(UdpDatagram::decode(&wire[..7]).is_err());
        assert!(UdpDatagram::decode(&wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn bad_length_field_rejected() {
        let d = UdpDatagram::new(1, 2, b"abc".to_vec());
        let mut wire = d.encode();
        wire[4] = 0;
        wire[5] = 4; // < header size
        assert!(UdpDatagram::decode(&wire).is_err());
    }
}
