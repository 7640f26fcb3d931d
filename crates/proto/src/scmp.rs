//! SCMP — the SCION Control Message Protocol.
//!
//! The measurement campaign of §5.4 is built on SCMP echo (the SCION
//! equivalent of ICMP ping); border routers additionally emit
//! external-interface-down and internal-connectivity-down notifications
//! that path-aware end hosts use to fail over instantly.
//!
//! Message layout: 4-byte header (type, code, checksum) followed by a
//! type-specific body.

use serde::{Deserialize, Serialize};

use crate::addr::IsdAsn;
use crate::ProtoError;

/// SCMP message type values.
mod ty {
    pub const DEST_UNREACHABLE: u8 = 1;
    pub const PACKET_TOO_BIG: u8 = 2;
    pub const PARAMETER_PROBLEM: u8 = 4;
    pub const EXTERNAL_INTERFACE_DOWN: u8 = 5;
    pub const INTERNAL_CONNECTIVITY_DOWN: u8 = 6;
    pub const ECHO_REQUEST: u8 = 128;
    pub const ECHO_REPLY: u8 = 129;
    pub const TRACEROUTE_REQUEST: u8 = 130;
    pub const TRACEROUTE_REPLY: u8 = 131;
}

/// A parsed SCMP message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScmpMessage {
    /// Echo request with identifier, sequence number and opaque data.
    EchoRequest {
        /// Sender-chosen identifier (like ICMP id).
        id: u16,
        /// Monotonic sequence number.
        seq: u16,
        /// Opaque payload, echoed back verbatim.
        data: Vec<u8>,
    },
    /// Echo reply mirroring the request.
    EchoReply {
        /// Identifier from the request.
        id: u16,
        /// Sequence number from the request.
        seq: u16,
        /// Payload from the request.
        data: Vec<u8>,
    },
    /// The destination could not be reached (code disambiguates).
    DestinationUnreachable {
        /// Reason code (0 = no route, 1 = denied, 4 = port unreachable).
        code: u8,
    },
    /// A border router's inter-AS link is down.
    ExternalInterfaceDown {
        /// AS originating the notification.
        ia: IsdAsn,
        /// The interface identifier that went down.
        interface: u64,
    },
    /// Connectivity between two interfaces inside an AS is down.
    InternalConnectivityDown {
        /// AS originating the notification.
        ia: IsdAsn,
        /// Ingress interface.
        ingress: u64,
        /// Egress interface.
        egress: u64,
    },
    /// Traceroute probe directed at a hop with the router-alert flag.
    TracerouteRequest {
        /// Sender-chosen identifier.
        id: u16,
        /// Sequence number.
        seq: u16,
    },
    /// Traceroute answer carrying the replying AS and interface.
    TracerouteReply {
        /// Identifier from the request.
        id: u16,
        /// Sequence number from the request.
        seq: u16,
        /// Replying AS.
        ia: IsdAsn,
        /// Replying interface identifier.
        interface: u64,
    },
}

impl ScmpMessage {
    /// True for informational (echo/traceroute) messages, false for errors.
    pub fn is_informational(&self) -> bool {
        matches!(
            self,
            ScmpMessage::EchoRequest { .. }
                | ScmpMessage::EchoReply { .. }
                | ScmpMessage::TracerouteRequest { .. }
                | ScmpMessage::TracerouteReply { .. }
        )
    }

    /// Serialises the message (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            ScmpMessage::EchoRequest { id, seq, data } => {
                out.push(ty::ECHO_REQUEST);
                out.push(0);
                out.extend_from_slice(&[0, 0]); // checksum (computed over underlay in sim)
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(data);
            }
            ScmpMessage::EchoReply { id, seq, data } => {
                out.push(ty::ECHO_REPLY);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(data);
            }
            ScmpMessage::DestinationUnreachable { code } => {
                out.push(ty::DEST_UNREACHABLE);
                out.push(*code);
                out.extend_from_slice(&[0, 0]);
            }
            ScmpMessage::ExternalInterfaceDown { ia, interface } => {
                out.push(ty::EXTERNAL_INTERFACE_DOWN);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&ia.to_u64().to_be_bytes());
                out.extend_from_slice(&interface.to_be_bytes());
            }
            ScmpMessage::InternalConnectivityDown {
                ia,
                ingress,
                egress,
            } => {
                out.push(ty::INTERNAL_CONNECTIVITY_DOWN);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&ia.to_u64().to_be_bytes());
                out.extend_from_slice(&ingress.to_be_bytes());
                out.extend_from_slice(&egress.to_be_bytes());
            }
            ScmpMessage::TracerouteRequest { id, seq } => {
                out.push(ty::TRACEROUTE_REQUEST);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
            }
            ScmpMessage::TracerouteReply {
                id,
                seq,
                ia,
                interface,
            } => {
                out.push(ty::TRACEROUTE_REPLY);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&ia.to_u64().to_be_bytes());
                out.extend_from_slice(&interface.to_be_bytes());
            }
        }
        out
    }

    /// Parses a message from the wire.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        crate::need("scmp header", buf, 4)?;
        let (t, code) = (buf[0], buf[1]);
        let body = &buf[4..];
        match t {
            ty::ECHO_REQUEST | ty::ECHO_REPLY => {
                crate::need("scmp echo", body, 4)?;
                let id = u16::from_be_bytes([body[0], body[1]]);
                let seq = u16::from_be_bytes([body[2], body[3]]);
                let data = body[4..].to_vec();
                Ok(if t == ty::ECHO_REQUEST {
                    ScmpMessage::EchoRequest { id, seq, data }
                } else {
                    ScmpMessage::EchoReply { id, seq, data }
                })
            }
            ty::DEST_UNREACHABLE => Ok(ScmpMessage::DestinationUnreachable { code }),
            ty::EXTERNAL_INTERFACE_DOWN => {
                crate::need("scmp ext-if-down", body, 16)?;
                Ok(ScmpMessage::ExternalInterfaceDown {
                    ia: IsdAsn::from_u64(u64::from_be_bytes(body[..8].try_into().unwrap())),
                    interface: u64::from_be_bytes(body[8..16].try_into().unwrap()),
                })
            }
            ty::INTERNAL_CONNECTIVITY_DOWN => {
                crate::need("scmp int-conn-down", body, 24)?;
                Ok(ScmpMessage::InternalConnectivityDown {
                    ia: IsdAsn::from_u64(u64::from_be_bytes(body[..8].try_into().unwrap())),
                    ingress: u64::from_be_bytes(body[8..16].try_into().unwrap()),
                    egress: u64::from_be_bytes(body[16..24].try_into().unwrap()),
                })
            }
            ty::TRACEROUTE_REQUEST => {
                crate::need("scmp traceroute", body, 4)?;
                Ok(ScmpMessage::TracerouteRequest {
                    id: u16::from_be_bytes([body[0], body[1]]),
                    seq: u16::from_be_bytes([body[2], body[3]]),
                })
            }
            ty::TRACEROUTE_REPLY => {
                crate::need("scmp traceroute reply", body, 20)?;
                Ok(ScmpMessage::TracerouteReply {
                    id: u16::from_be_bytes([body[0], body[1]]),
                    seq: u16::from_be_bytes([body[2], body[3]]),
                    ia: IsdAsn::from_u64(u64::from_be_bytes(body[4..12].try_into().unwrap())),
                    interface: u64::from_be_bytes(body[12..20].try_into().unwrap()),
                })
            }
            ty::PACKET_TOO_BIG | ty::PARAMETER_PROBLEM => Err(ProtoError::InvalidField {
                field: "scmp type",
                detail: format!("type {t} recognised but not modelled"),
            }),
            other => Err(ProtoError::InvalidField {
                field: "scmp type",
                detail: format!("unknown type {other}"),
            }),
        }
    }

    /// Builds the matching echo reply for an echo request, or `None`.
    pub fn echo_reply_for(&self) -> Option<ScmpMessage> {
        match self {
            ScmpMessage::EchoRequest { id, seq, data } => Some(ScmpMessage::EchoReply {
                id: *id,
                seq: *seq,
                data: data.clone(),
            }),
            _ => None,
        }
    }
}

/// The fixed part of an echo request or reply, read and written where it
/// sits on the wire: a prober stamps `id` and `seq` into a request it
/// encoded once, and a responder makes the request its reply by rewriting
/// the type. Code and checksum are written as zero, as
/// [`ScmpMessage::encode`] writes them; the echo data after the header is
/// neither read nor touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchoHeader {
    /// An echo reply, rather than an echo request.
    pub reply: bool,
    /// Sender-chosen identifier.
    pub id: u16,
    /// Sequence number.
    pub seq: u16,
}

impl EchoHeader {
    /// Bytes the header occupies: type, code, checksum, `id` and `seq`.
    pub const LEN: usize = 8;

    /// The header at the start of the SCMP message `buf`, if `buf` is an
    /// echo request or reply that [`ScmpMessage::decode`] accepts.
    pub fn read(buf: &[u8]) -> Option<Self> {
        let reply = match *buf.first()? {
            ty::ECHO_REQUEST => false,
            ty::ECHO_REPLY => true,
            _ => return None,
        };
        let b = buf.get(..Self::LEN)?;
        Some(EchoHeader {
            reply,
            id: u16::from_be_bytes([b[4], b[5]]),
            seq: u16::from_be_bytes([b[6], b[7]]),
        })
    }

    /// Writes the header over the first [`Self::LEN`] bytes of `buf`.
    ///
    /// # Panics
    ///
    /// If `buf` is shorter than [`Self::LEN`].
    pub fn write(self, buf: &mut [u8]) {
        let ty = if self.reply {
            ty::ECHO_REPLY
        } else {
            ty::ECHO_REQUEST
        };
        buf[..4].copy_from_slice(&[ty, 0, 0, 0]);
        buf[4..6].copy_from_slice(&self.id.to_be_bytes());
        buf[6..Self::LEN].copy_from_slice(&self.seq.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ia;

    fn roundtrip(m: ScmpMessage) {
        let wire = m.encode();
        assert_eq!(ScmpMessage::decode(&wire).unwrap(), m);
    }

    #[test]
    fn echo_roundtrips() {
        roundtrip(ScmpMessage::EchoRequest {
            id: 7,
            seq: 42,
            data: b"ts=123".to_vec(),
        });
        roundtrip(ScmpMessage::EchoReply {
            id: 7,
            seq: 42,
            data: vec![],
        });
    }

    #[test]
    fn error_roundtrips() {
        roundtrip(ScmpMessage::DestinationUnreachable { code: 4 });
        roundtrip(ScmpMessage::ExternalInterfaceDown {
            ia: ia("71-2:0:3b"),
            interface: 9,
        });
        roundtrip(ScmpMessage::InternalConnectivityDown {
            ia: ia("71-20965"),
            ingress: 1,
            egress: 5,
        });
    }

    #[test]
    fn traceroute_roundtrips() {
        roundtrip(ScmpMessage::TracerouteRequest { id: 1, seq: 2 });
        roundtrip(ScmpMessage::TracerouteReply {
            id: 1,
            seq: 2,
            ia: ia("71-225"),
            interface: 17,
        });
    }

    #[test]
    fn echo_reply_for_request() {
        let req = ScmpMessage::EchoRequest {
            id: 3,
            seq: 9,
            data: b"x".to_vec(),
        };
        let rep = req.echo_reply_for().unwrap();
        assert_eq!(
            rep,
            ScmpMessage::EchoReply {
                id: 3,
                seq: 9,
                data: b"x".to_vec()
            }
        );
        assert!(rep.echo_reply_for().is_none());
    }

    #[test]
    fn echo_header_reads_and_writes_what_the_codec_does() {
        for reply in [false, true] {
            let (id, seq, data) = (0xBEEF, 513, b"xy".to_vec());
            let msg = if reply {
                ScmpMessage::EchoReply { id, seq, data }
            } else {
                ScmpMessage::EchoRequest { id, seq, data }
            };
            let wire = msg.encode();
            let header = EchoHeader { reply, id, seq };
            assert_eq!(EchoHeader::read(&wire), Some(header));
            let mut written = vec![0xff; wire.len()];
            written[EchoHeader::LEN..].copy_from_slice(b"xy");
            header.write(&mut written);
            assert_eq!(written, wire);
        }
        assert_eq!(
            EchoHeader::read(&[ty::ECHO_REQUEST, 0, 0, 0, 1, 2, 3]),
            None
        );
        let other = ScmpMessage::TracerouteRequest { id: 1, seq: 2 }.encode();
        assert_eq!(EchoHeader::read(&other), None);
        assert_eq!(EchoHeader::read(&[]), None);
    }

    #[test]
    fn informational_classification() {
        assert!(ScmpMessage::EchoRequest {
            id: 0,
            seq: 0,
            data: vec![]
        }
        .is_informational());
        assert!(!ScmpMessage::DestinationUnreachable { code: 0 }.is_informational());
        assert!(!ScmpMessage::ExternalInterfaceDown {
            ia: ia("71-225"),
            interface: 1
        }
        .is_informational());
    }

    #[test]
    fn decode_rejects_unknown_and_truncated() {
        assert!(ScmpMessage::decode(&[]).is_err());
        assert!(ScmpMessage::decode(&[250, 0, 0, 0]).is_err());
        assert!(ScmpMessage::decode(&[ty::ECHO_REQUEST, 0, 0, 0, 1]).is_err());
        assert!(ScmpMessage::decode(&[ty::EXTERNAL_INTERFACE_DOWN, 0, 0, 0, 1, 2]).is_err());
    }
}
