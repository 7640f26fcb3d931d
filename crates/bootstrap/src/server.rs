//! The bootstrap server (§4.1.2).
//!
//! An HTTP server inside each AS serving the essential SCION configuration:
//! `/topology` returns the signed local topology (border-router and
//! control-service underlay addresses), `/trcs` returns the ISD trust
//! anchors. The AS signs the topology with its AS key, the one its AS
//! certificate certifies, so clients can authenticate it against the TRC.

use serde::{Deserialize, Serialize};

use scion_crypto::sign::{Signature, SigningKey};
use scion_proto::addr::IsdAsn;
use scion_proto::encap::UnderlayAddr;

use crate::BootstrapError;

/// The local AS topology as served to bootstrapping hosts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyDocument {
    /// The AS this topology describes.
    pub ia: IsdAsn,
    /// Underlay endpoints of the AS's border routers.
    pub border_routers: Vec<UnderlayAddr>,
    /// Underlay endpoint of the control service (path + cert servers).
    pub control_service: UnderlayAddr,
    /// Document generation time (Unix seconds).
    pub timestamp: u64,
    /// MTU usable inside the AS.
    pub mtu: u16,
}

impl TopologyDocument {
    /// Canonical signing bytes (serde_json is deterministic for structs).
    pub fn signed_bytes(&self) -> Vec<u8> {
        let mut out = b"scion-topology-v1".to_vec();
        out.extend_from_slice(&serde_json::to_vec(self).expect("topology serialises"));
        out
    }
}

/// A topology document plus its signature.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SignedTopology {
    /// The document.
    pub document: TopologyDocument,
    /// Signature by the AS's key, the one its AS certificate certifies.
    pub signature: Signature,
}

/// The HTTP-ish bootstrap server: a request router over in-memory state.
pub struct BootstrapServer {
    signed: SignedTopology,
    /// Serialised TRCs of the local ISD, base first.
    trcs_payload: Vec<u8>,
    /// Requests served, by endpoint: [topology, trcs, not-found].
    pub hits: [u64; 3],
}

impl BootstrapServer {
    /// Creates a server for `document`, signing it with `as_key`, the AS's
    /// key, whose public half the AS's current certificate certifies.
    pub fn new(document: TopologyDocument, as_key: &SigningKey, trcs_payload: Vec<u8>) -> Self {
        let signature = as_key.sign(&document.signed_bytes());
        BootstrapServer {
            signed: SignedTopology {
                document,
                signature,
            },
            trcs_payload,
            hits: [0; 3],
        }
    }

    /// Handles a GET request, returning the response body.
    pub fn handle_get(&mut self, path: &str) -> Result<Vec<u8>, BootstrapError> {
        match path {
            "/topology" => {
                self.hits[0] += 1;
                serde_json::to_vec(&self.signed)
                    .map_err(|e| BootstrapError::FetchFailed(e.to_string()))
            }
            "/trcs" => {
                self.hits[1] += 1;
                Ok(self.trcs_payload.clone())
            }
            other => {
                self.hits[2] += 1;
                Err(BootstrapError::FetchFailed(format!("404 {other}")))
            }
        }
    }

    /// The signed topology (for direct injection in tests).
    pub fn signed_topology(&self) -> &SignedTopology {
        &self.signed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_proto::addr::ia;

    fn sample_doc() -> TopologyDocument {
        TopologyDocument {
            ia: ia("71-2:0:42"),
            border_routers: vec![UnderlayAddr::new([10, 0, 0, 1], 30001)],
            control_service: UnderlayAddr::new([10, 0, 0, 2], 30252),
            timestamp: 1_700_000_000,
            mtu: 1472,
        }
    }

    #[test]
    fn serves_signed_topology() {
        let as_key = SigningKey::from_seed(b"ovgu");
        let mut srv = BootstrapServer::new(sample_doc(), &as_key, b"trcs".to_vec());
        let body = srv.handle_get("/topology").unwrap();
        let signed: SignedTopology = serde_json::from_slice(&body).unwrap();
        assert_eq!(signed.document, sample_doc());
        as_key
            .verifying_key()
            .verify(&signed.document.signed_bytes(), &signed.signature)
            .unwrap();
        assert_eq!(srv.hits[0], 1);
    }

    #[test]
    fn serves_trcs_and_404() {
        let as_key = SigningKey::from_seed(b"ovgu");
        let mut srv = BootstrapServer::new(sample_doc(), &as_key, b"trc-bytes".to_vec());
        assert_eq!(srv.handle_get("/trcs").unwrap(), b"trc-bytes");
        assert!(srv.handle_get("/nope").is_err());
        assert_eq!(srv.hits, [0, 1, 1]);
    }

    #[test]
    fn tampered_document_fails_verification() {
        let as_key = SigningKey::from_seed(b"ovgu");
        let mut srv = BootstrapServer::new(sample_doc(), &as_key, vec![]);
        let body = srv.handle_get("/topology").unwrap();
        let mut signed: SignedTopology = serde_json::from_slice(&body).unwrap();
        signed.document.mtu = 9000;
        assert!(as_key
            .verifying_key()
            .verify(&signed.document.signed_bytes(), &signed.signature)
            .is_err());
    }
}
