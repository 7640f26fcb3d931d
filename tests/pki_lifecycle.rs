//! PKI lifecycle integration: TRC updates and certificate renewal over a
//! simulated quarter of operation across the whole deployment.

use sciera::cppki::ca::CaService;
use sciera::cppki::cert::{CertType, Certificate};
use sciera::cppki::trc::{Trc, TrcKeyEntry};
use sciera::crypto::sign::SigningKey;
use sciera::orchestrator::renewal::RenewalAction;
use sciera::prelude::*;
use sciera::proto::addr::IsdNumber;
use sciera::topology::ases::all_ases;

#[test]
fn ninety_days_of_certificate_renewal_across_all_ases() {
    let net = SciEraNetwork::build(NetworkConfig::default());
    let isd71: Vec<_> = all_ases()
        .into_iter()
        .filter(|a| a.ia.isd.0 == 71)
        .collect();
    let mut renewals = 0u64;
    for day in 0..90u64 {
        for hour in 0..24u64 {
            for a in &isd71 {
                let cert = net.chain(a.ia).expect("chain per AS").as_cert;
                let valid = cert.check_validity(net.now_unix()).is_ok();
                assert!(valid, "{} certificate lapsed on day {day}", a.ia);
            }
            // The CA is unreachable for 6 hours every Sunday
            // (maintenance) — renewal must ride through it.
            let ca_reachable = !(day % 7 == 6 && hour < 6);
            for (ia, action) in net.renew_certificates(ca_reachable) {
                if ia.isd.0 == 71 && matches!(action, RenewalAction::Renewed { .. }) {
                    renewals += 1;
                }
            }
            net.advance_time(3600);
        }
    }
    let n71 = isd71.len() as u64;
    // Every AS renews roughly every 2 days over 90 days.
    assert!(
        renewals > n71 * 30,
        "only {renewals} renewals across {n71} ASes"
    );
    // The renewed chains still certify the key each topology is signed with.
    for a in &isd71 {
        let key = net.chain(a.ia).expect("chain per AS").as_cert.public_key;
        let signed = net.signed_topology(a.ia).expect("bootstrap server per AS");
        let bytes = signed.document.signed_bytes();
        assert!(key.verify(&bytes, &signed.signature).is_ok(), "{}", a.ia);
    }
}

#[test]
fn trc_update_rolls_across_the_isd() {
    // Build a successor TRC signed by a quorum of core ASes and push it
    // through a host's trust store; a forged competitor must fail.
    let net = SciEraNetwork::build(NetworkConfig::default());
    let trust = net.trust();
    assert_eq!(trust.trc_serial(IsdNumber(71)), Some(1));

    // Reconstruct the base TRC the network installed (same deterministic
    // keys), then vote the successor.
    let core_ias = isd71_cores();
    let keys: Vec<TrcKeyEntry> = core_ias
        .iter()
        .map(|&ia| TrcKeyEntry {
            holder: ia,
            key: root_key(ia).verifying_key(),
        })
        .collect();
    let base = Trc {
        isd: IsdNumber(71),
        base: 1,
        serial: 1,
        valid_from: 1_700_000_000 - 86_400,
        valid_until: 1_700_000_000 + 5 * 365 * 86_400,
        core_ases: core_ias.clone(),
        authoritative_ases: core_ias.clone(),
        voting_keys: keys.clone(),
        root_keys: keys,
        quorum: core_ias.len() / 2 + 1,
        votes: vec![],
    };
    let mut next = base.clone();
    next.serial = 2;
    // Quorum of core ASes vote.
    for ia in core_ias.iter().take(base.quorum) {
        next.add_vote(*ia, &root_key(*ia));
    }
    trust
        .apply_trc_update(next)
        .expect("quorum update accepted");
    assert_eq!(trust.trc_serial(IsdNumber(71)), Some(2));

    // A forged update (non-core signer) is rejected.
    let mut forged = base.clone();
    forged.serial = 3;
    let attacker = SigningKey::from_seed(b"attacker");
    for ia in core_ias.iter().take(base.quorum) {
        forged.add_vote(*ia, &attacker);
    }
    assert!(trust.apply_trc_update(forged).is_err());
    assert_eq!(trust.trc_serial(IsdNumber(71)), Some(2));
}

fn root_key(ia: IsdAsn) -> SigningKey {
    SigningKey::from_seed(format!("root-{ia}").as_bytes())
}

/// ISD 71's core ASes in the network's order: the first hosts the ISD's CA.
fn isd71_cores() -> Vec<IsdAsn> {
    let cores = all_ases()
        .into_iter()
        .filter(|a| a.core && a.ia.isd.0 == 71);
    let mut cores: Vec<IsdAsn> = cores.map(|a| a.ia).collect();
    cores.sort_unstable();
    cores
}

#[test]
fn ca_interoperates_with_both_stacks() {
    // §4.5's headline: one CA serving Anapaya CORE and open-source CSRs.
    use sciera::cppki::ca::{ClientProfile, CsrRequest};
    let net = SciEraNetwork::build(NetworkConfig::default());
    let now = 1_700_000_000u64;
    // Rebuild the ISD 71 CA the network installed at its first core AS,
    // from the same deterministic keys.
    let ca_as = isd71_cores()[0];
    let ca_key = SigningKey::from_seed(format!("ca-{ca_as}").as_bytes());
    let (key, from, until) = (ca_key.verifying_key(), now - 86_400, now + 2 * 365 * 86_400);
    let root = root_key(ca_as);
    let ca_cert = Certificate::issue(CertType::Ca, ca_as, key, from, until, ca_as, 1, &root);
    let mut ca = CaService::new(ca_as, ca_key, ca_cert);
    for (seed, profile) in [
        ("interop-os", ClientProfile::OpenSource),
        ("interop-anapaya", ClientProfile::AnapayaCore),
    ] {
        let enrol = SigningKey::from_seed(seed.as_bytes());
        let as_key = SigningKey::from_seed(format!("{seed}-as").as_bytes());
        let subject = ia("71-2:0:42");
        ca.enrol(subject, enrol.verifying_key());
        let csr = CsrRequest::build(subject, as_key.verifying_key(), profile, &enrol);
        let chain = ca.process_csr(&csr, now).expect("CSR accepted");
        net.trust()
            .verify_chain(&chain, now)
            .expect("chain verifies against ISD 71 TRC");
    }
    let cert = net.chain(ia("71-88")).expect("chain per AS").as_cert;
    assert!(!CaService::needs_renewal(&cert, now));
}
