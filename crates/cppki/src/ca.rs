//! The ISD certificate authority service.
//!
//! §4.5: SCIERA's open-source stack lacked a CA compatible with both the
//! Anapaya CORE implementation and the open-source SCION control plane, so
//! the project built one on the smallstep framework. This module models
//! that CA: it accepts certificate-signing requests from both client
//! profiles, enforces issuance policy (subject must be enrolled in the ISD),
//! issues short-lived AS certificates, and answers "time to renew?" queries
//! that the orchestrator's renewal driver polls.

use scion_crypto::sign::{SigningKey, VerifyingKey};
use scion_proto::addr::IsdAsn;

use crate::cert::{CertType, Certificate, CertificateChain};
use crate::PkiError;

/// Which SCION implementation is requesting a certificate (§4.5).
///
/// The two stacks encode CSRs differently; the open CA must accept both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientProfile {
    /// The open-source SCION control plane.
    OpenSource,
    /// Anapaya CORE (closed-source commercial stack).
    AnapayaCore,
}

/// A certificate-signing request.
#[derive(Debug, Clone)]
pub struct CsrRequest {
    /// The requesting AS.
    pub subject: IsdAsn,
    /// The key to certify.
    pub public_key: VerifyingKey,
    /// Which stack generated the CSR.
    pub profile: ClientProfile,
    /// Proof of possession: signature over the CSR bytes with the subject's
    /// *previous* AS key (renewal) or enrolment key (first issuance).
    pub proof: scion_crypto::sign::Signature,
}

impl CsrRequest {
    /// Canonical bytes covered by the proof-of-possession signature.
    pub fn signed_bytes(
        subject: IsdAsn,
        public_key: &VerifyingKey,
        profile: ClientProfile,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        // The two stacks frame their CSRs differently; the CA normalises
        // both to the same canonical form after checking the profile tag.
        out.extend_from_slice(match profile {
            ClientProfile::OpenSource => b"scion-csr-os-v1" as &[u8],
            ClientProfile::AnapayaCore => b"anapaya-csr-v2" as &[u8],
        });
        out.extend_from_slice(&subject.to_u64().to_be_bytes());
        out.extend_from_slice(&public_key.key_id());
        out
    }

    /// Builds a CSR signed with `enrolment_key`.
    pub fn build(
        subject: IsdAsn,
        public_key: VerifyingKey,
        profile: ClientProfile,
        enrolment_key: &SigningKey,
    ) -> Self {
        let proof = enrolment_key.sign(&Self::signed_bytes(subject, &public_key, profile));
        CsrRequest {
            subject,
            public_key,
            profile,
            proof,
        }
    }
}

/// Default AS-certificate lifetime: 3 days (the "few days" of §4.5).
pub const DEFAULT_AS_CERT_LIFETIME_SECS: u64 = 3 * 86_400;

/// Renewal is attempted once less than this fraction of the lifetime
/// remains. Production smallstep renews at ~2/3 of lifetime; we renew when
/// a third remains.
pub const RENEWAL_THRESHOLD: f64 = 1.0 / 3.0;

/// The CA service state.
pub struct CaService {
    /// The CA's own AS.
    pub ca_as: IsdAsn,
    ca_key: SigningKey,
    /// The CA certificate distributed with every issued chain.
    pub ca_cert: Certificate,
    /// AS-certificate lifetime in seconds.
    pub as_cert_lifetime: u64,
    /// Enrolled subjects and their enrolment verification keys.
    enrolled: Vec<(IsdAsn, VerifyingKey)>,
    next_serial: u64,
    /// Issuance log: (serial, subject, issued-at), for the status dashboard.
    pub issuance_log: Vec<(u64, IsdAsn, u64)>,
}

impl CaService {
    /// Creates a CA from its signing key and already-issued CA certificate.
    pub fn new(ca_as: IsdAsn, ca_key: SigningKey, ca_cert: Certificate) -> Self {
        CaService {
            ca_as,
            ca_key,
            ca_cert,
            as_cert_lifetime: DEFAULT_AS_CERT_LIFETIME_SECS,
            enrolled: Vec::new(),
            next_serial: 1,
            issuance_log: Vec::new(),
        }
    }

    /// Enrols a subject AS with its enrolment key (the out-of-band step an
    /// operator performs once when joining SCIERA).
    pub fn enrol(&mut self, subject: IsdAsn, enrolment_key: VerifyingKey) {
        self.enrolled.retain(|(ia, _)| *ia != subject);
        self.enrolled.push((subject, enrolment_key));
    }

    /// Processes a CSR at time `now`, returning a full chain on success.
    pub fn process_csr(
        &mut self,
        csr: &CsrRequest,
        now: u64,
    ) -> Result<CertificateChain, PkiError> {
        let Some((_, enrolment_key)) = self.enrolled.iter().find(|(ia, _)| *ia == csr.subject)
        else {
            return Err(PkiError::Refused(format!(
                "{} is not enrolled",
                csr.subject
            )));
        };
        let msg = CsrRequest::signed_bytes(csr.subject, &csr.public_key, csr.profile);
        enrolment_key
            .verify(&msg, &csr.proof)
            .map_err(|_| PkiError::BadSignature(format!("CSR proof of {}", csr.subject)))?;
        if csr.subject.isd != self.ca_as.isd {
            return Err(PkiError::Refused(format!(
                "{} is outside ISD {}",
                csr.subject, self.ca_as.isd
            )));
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        let as_cert = Certificate::issue(
            CertType::As,
            csr.subject,
            csr.public_key.clone(),
            now,
            now + self.as_cert_lifetime,
            self.ca_as,
            serial,
            &self.ca_key,
        );
        self.issuance_log.push((serial, csr.subject, now));
        Ok(CertificateChain {
            as_cert,
            ca_cert: self.ca_cert.clone(),
        })
    }

    /// Whether a certificate should be renewed now, per the automated
    /// renewal policy.
    pub fn needs_renewal(cert: &Certificate, now: u64) -> bool {
        let lifetime = cert.valid_until.saturating_sub(cert.valid_from);
        let remaining = cert.remaining_lifetime(now);
        (remaining as f64) < (lifetime as f64) * RENEWAL_THRESHOLD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_proto::addr::ia;

    fn make_ca() -> (CaService, SigningKey) {
        let root_key = SigningKey::from_seed(b"root");
        let ca_key = SigningKey::from_seed(b"ca");
        let ca_as = ia("71-20965");
        let ca_cert = Certificate::issue(
            CertType::Ca,
            ca_as,
            ca_key.verifying_key(),
            0,
            100 * 86_400,
            ca_as,
            1,
            &root_key,
        );
        (CaService::new(ca_as, ca_key, ca_cert), root_key)
    }

    #[test]
    fn issues_to_enrolled_subject_both_profiles() {
        let (mut ca, _) = make_ca();
        let enrol_key = SigningKey::from_seed(b"ovgu-enrol");
        ca.enrol(ia("71-2:0:42"), enrol_key.verifying_key());
        for profile in [ClientProfile::OpenSource, ClientProfile::AnapayaCore] {
            let as_key = SigningKey::from_seed(b"ovgu-as");
            let csr =
                CsrRequest::build(ia("71-2:0:42"), as_key.verifying_key(), profile, &enrol_key);
            let chain = ca.process_csr(&csr, 1000).unwrap();
            assert_eq!(chain.as_cert.subject, ia("71-2:0:42"));
            assert_eq!(
                chain.as_cert.valid_until,
                1000 + DEFAULT_AS_CERT_LIFETIME_SECS
            );
            chain
                .as_cert
                .verify_signature(&ca.ca_cert.public_key)
                .unwrap();
        }
        assert_eq!(ca.issuance_log.len(), 2);
    }

    #[test]
    fn refuses_unenrolled_subject() {
        let (mut ca, _) = make_ca();
        let key = SigningKey::from_seed(b"stranger");
        let csr = CsrRequest::build(
            ia("71-31337"),
            key.verifying_key(),
            ClientProfile::OpenSource,
            &key,
        );
        assert!(matches!(ca.process_csr(&csr, 0), Err(PkiError::Refused(_))));
    }

    #[test]
    fn refuses_bad_proof() {
        let (mut ca, _) = make_ca();
        let enrol_key = SigningKey::from_seed(b"enrol");
        ca.enrol(ia("71-88"), enrol_key.verifying_key());
        let wrong_key = SigningKey::from_seed(b"not-the-enrol-key");
        let as_key = SigningKey::from_seed(b"as");
        let csr = CsrRequest::build(
            ia("71-88"),
            as_key.verifying_key(),
            ClientProfile::OpenSource,
            &wrong_key,
        );
        assert!(matches!(
            ca.process_csr(&csr, 0),
            Err(PkiError::BadSignature(_))
        ));
    }

    #[test]
    fn profile_is_bound_into_proof() {
        // A CSR built for one profile must not validate when replayed with
        // the other profile tag (the framing differs).
        let (mut ca, _) = make_ca();
        let enrol_key = SigningKey::from_seed(b"enrol");
        ca.enrol(ia("71-88"), enrol_key.verifying_key());
        let as_key = SigningKey::from_seed(b"as");
        let mut csr = CsrRequest::build(
            ia("71-88"),
            as_key.verifying_key(),
            ClientProfile::OpenSource,
            &enrol_key,
        );
        csr.profile = ClientProfile::AnapayaCore;
        assert!(matches!(
            ca.process_csr(&csr, 0),
            Err(PkiError::BadSignature(_))
        ));
    }

    #[test]
    fn refuses_foreign_isd() {
        let (mut ca, _) = make_ca();
        let enrol_key = SigningKey::from_seed(b"enrol");
        ca.enrol(ia("64-559"), enrol_key.verifying_key());
        let as_key = SigningKey::from_seed(b"as");
        let csr = CsrRequest::build(
            ia("64-559"),
            as_key.verifying_key(),
            ClientProfile::OpenSource,
            &enrol_key,
        );
        assert!(matches!(ca.process_csr(&csr, 0), Err(PkiError::Refused(_))));
    }

    #[test]
    fn serials_increase() {
        let (mut ca, _) = make_ca();
        let enrol_key = SigningKey::from_seed(b"enrol");
        ca.enrol(ia("71-88"), enrol_key.verifying_key());
        let as_key = SigningKey::from_seed(b"as");
        let csr = CsrRequest::build(
            ia("71-88"),
            as_key.verifying_key(),
            ClientProfile::OpenSource,
            &enrol_key,
        );
        let c1 = ca.process_csr(&csr, 0).unwrap();
        let c2 = ca.process_csr(&csr, 10).unwrap();
        assert!(c2.as_cert.serial > c1.as_cert.serial);
    }

    #[test]
    fn renewal_policy() {
        let (mut ca, _) = make_ca();
        let enrol_key = SigningKey::from_seed(b"enrol");
        ca.enrol(ia("71-88"), enrol_key.verifying_key());
        let as_key = SigningKey::from_seed(b"as");
        let csr = CsrRequest::build(
            ia("71-88"),
            as_key.verifying_key(),
            ClientProfile::OpenSource,
            &enrol_key,
        );
        let chain = ca.process_csr(&csr, 0).unwrap();
        let lifetime = DEFAULT_AS_CERT_LIFETIME_SECS;
        assert!(!CaService::needs_renewal(&chain.as_cert, 0));
        assert!(!CaService::needs_renewal(&chain.as_cert, lifetime / 2));
        assert!(CaService::needs_renewal(&chain.as_cert, lifetime * 3 / 4));
        assert!(CaService::needs_renewal(&chain.as_cert, lifetime + 10));
    }
}
