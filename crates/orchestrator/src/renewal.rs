//! The certificate-renewal driver (§4.5).
//!
//! SCION AS certificates live for days, so renewal must be automated and
//! resilient: the driver polls the current certificate's remaining
//! lifetime, builds a CSR before the renewal threshold, and retries with
//! backoff when the CA is unreachable — an AS whose certificate lapses
//! drops out of beaconing, which is precisely the incident class §5.6
//! reports as "infrequent" thanks to this automation.

use scion_cppki::ca::{CaService, ClientProfile, CsrRequest};
use scion_cppki::cert::CertificateChain;
use scion_cppki::PkiError;
use scion_crypto::sign::{SigningKey, VerifyingKey};
use scion_proto::addr::IsdAsn;

/// What happened on one driver tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenewalAction {
    /// Certificate fresh; nothing done.
    Idle,
    /// Renewal performed successfully.
    Renewed {
        /// New expiry (Unix seconds).
        new_expiry: u64,
    },
    /// Renewal attempted and failed; will retry.
    Failed(String),
}

/// The per-AS renewal driver. It holds the AS's enrolment key, not its AS
/// key: a renewal re-certifies the public key of the current chain.
pub struct RenewalDriver {
    /// The AS being kept alive.
    pub ia: IsdAsn,
    enrolment_key: SigningKey,
    profile: ClientProfile,
    /// The current chain.
    pub chain: CertificateChain,
    /// Retry backoff in seconds after a failure.
    pub retry_backoff: u64,
    next_attempt_after: u64,
    /// History of actions for the dashboard: (time, renewed?).
    pub log: Vec<(u64, bool)>,
}

impl RenewalDriver {
    /// Creates a driver from the AS's enrolment key and its initial chain.
    pub fn new(
        ia: IsdAsn,
        enrolment_key: SigningKey,
        profile: ClientProfile,
        chain: CertificateChain,
    ) -> Self {
        RenewalDriver {
            ia,
            enrolment_key,
            profile,
            chain,
            retry_backoff: 3600,
            next_attempt_after: 0,
            log: Vec::new(),
        }
    }

    /// Whether the current certificate is valid at `now`.
    pub fn certificate_valid(&self, now: u64) -> bool {
        self.chain.as_cert.check_validity(now).is_ok()
    }

    /// One driver tick at `now` against `ca`. `ca_reachable` models network
    /// partitions between the AS and its CA.
    pub fn tick(&mut self, ca: &mut CaService, now: u64, ca_reachable: bool) -> RenewalAction {
        if !CaService::needs_renewal(&self.chain.as_cert, now) {
            return RenewalAction::Idle;
        }
        if now < self.next_attempt_after {
            return RenewalAction::Idle; // backing off
        }
        if !ca_reachable {
            self.next_attempt_after = now + self.retry_backoff;
            self.log.push((now, false));
            return RenewalAction::Failed("CA unreachable".into());
        }
        let csr = CsrRequest::build(
            self.ia,
            self.chain.as_cert.public_key.clone(),
            self.profile,
            &self.enrolment_key,
        );
        match ca.process_csr(&csr, now) {
            Ok(chain) => {
                let new_expiry = chain.as_cert.valid_until;
                self.chain = chain;
                self.log.push((now, true));
                RenewalAction::Renewed { new_expiry }
            }
            Err(e) => {
                self.next_attempt_after = now + self.retry_backoff;
                self.log.push((now, false));
                RenewalAction::Failed(e.to_string())
            }
        }
    }
}

/// Convenience for tests and the network builder: enrols an AS at the CA
/// and obtains its first chain, certifying `as_key`, the public half of
/// the AS's key.
pub fn bootstrap_driver(
    ca: &mut CaService,
    ia: IsdAsn,
    as_key: VerifyingKey,
    profile: ClientProfile,
    now: u64,
) -> Result<RenewalDriver, PkiError> {
    let enrolment_key = SigningKey::from_seed(format!("enrol-{ia}").as_bytes());
    ca.enrol(ia, enrolment_key.verifying_key());
    let csr = CsrRequest::build(ia, as_key, profile, &enrolment_key);
    let chain = ca.process_csr(&csr, now)?;
    Ok(RenewalDriver::new(ia, enrolment_key, profile, chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_cppki::ca::DEFAULT_AS_CERT_LIFETIME_SECS;
    use scion_cppki::cert::{CertType, Certificate};
    use scion_proto::addr::ia;

    fn make_ca() -> CaService {
        let root = SigningKey::from_seed(b"root");
        let ca_key = SigningKey::from_seed(b"ca");
        let core = ia("71-20965");
        let ca_cert = Certificate::issue(
            CertType::Ca,
            core,
            ca_key.verifying_key(),
            0,
            1 << 40,
            core,
            1,
            &root,
        );
        CaService::new(core, ca_key, ca_cert)
    }

    fn enrolled(ca: &mut CaService, subject: &str, profile: ClientProfile) -> RenewalDriver {
        let as_key = SigningKey::from_seed(subject.as_bytes()).verifying_key();
        bootstrap_driver(ca, ia(subject), as_key, profile, 0).unwrap()
    }

    #[test]
    fn thirty_days_of_renewals_no_gap() {
        // The §4.5 end-to-end property: with 3-day certificates and an
        // hourly driver, the AS certificate is valid at every instant over
        // a month.
        let mut ca = make_ca();
        let mut driver = enrolled(&mut ca, "71-2:0:42", ClientProfile::OpenSource);
        let mut renewals = 0;
        for hour in 0..(30 * 24) {
            let now = hour * 3600;
            assert!(driver.certificate_valid(now), "gap at hour {hour}");
            if let RenewalAction::Renewed { .. } = driver.tick(&mut ca, now, true) {
                renewals += 1;
            }
        }
        // 3-day certs renewed at 1/3 remaining => every ~2 days => ~15x.
        assert!((10..=20).contains(&renewals), "renewals: {renewals}");
        // Every renewal re-certified the key the AS was enrolled with.
        let as_key = SigningKey::from_seed(b"71-2:0:42").verifying_key();
        assert!(driver.chain.as_cert.public_key == as_key);
    }

    #[test]
    fn idle_when_fresh() {
        let mut ca = make_ca();
        let mut driver = enrolled(&mut ca, "71-88", ClientProfile::AnapayaCore);
        assert_eq!(driver.tick(&mut ca, 10, true), RenewalAction::Idle);
    }

    #[test]
    fn outage_backoff_then_recovery() {
        let mut ca = make_ca();
        let mut driver = enrolled(&mut ca, "71-88", ClientProfile::OpenSource);
        let t_renew = DEFAULT_AS_CERT_LIFETIME_SECS * 3 / 4;
        assert!(matches!(
            driver.tick(&mut ca, t_renew, false),
            RenewalAction::Failed(_)
        ));
        // Within backoff: stays idle even though renewal is due.
        assert_eq!(
            driver.tick(&mut ca, t_renew + 10, false),
            RenewalAction::Idle
        );
        // After backoff with CA back: renews.
        assert!(matches!(
            driver.tick(&mut ca, t_renew + 3601, true),
            RenewalAction::Renewed { .. }
        ));
        assert_eq!(driver.log.iter().filter(|(_, ok)| *ok).count(), 1);
        assert_eq!(driver.log.iter().filter(|(_, ok)| !*ok).count(), 1);
    }

    #[test]
    fn extended_outage_causes_visible_expiry() {
        // Negative control: when the CA stays down past the certificate
        // lifetime, validity *does* lapse — the property the driver exists
        // to prevent.
        let mut ca = make_ca();
        let mut driver = enrolled(&mut ca, "71-88", ClientProfile::OpenSource);
        let after_expiry = DEFAULT_AS_CERT_LIFETIME_SECS + 1;
        for hour in 0..after_expiry / 3600 + 1 {
            driver.tick(&mut ca, hour * 3600, false);
        }
        assert!(!driver.certificate_valid(after_expiry));
    }

    #[test]
    fn refused_csr_reports_failure() {
        let mut ca = make_ca();
        let mut driver = enrolled(&mut ca, "71-88", ClientProfile::OpenSource);
        // De-enrol behind the driver's back.
        let mut fresh_ca = make_ca();
        let t_renew = DEFAULT_AS_CERT_LIFETIME_SECS * 3 / 4;
        assert!(matches!(
            driver.tick(&mut fresh_ca, t_renew, true),
            RenewalAction::Failed(_)
        ));
    }
}
