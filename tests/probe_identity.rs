//! End-to-end identity golden for the prober: every `ProbeResult` (outcome
//! and RTT bits), the churn log and the health table of a kill → probe →
//! restore → probe sequence, pinned to values captured before echoes were
//! answered in place and the health board was keyed by path key. A change
//! to the echo or the board that alters one verdict, one RTT bit or one row
//! fails here; one that only makes a probe round cheaper does not.

use sciera::control::fullpath::fingerprint_hex;
use sciera::crypto::sha256::{to_hex, Sha256};
use sciera::orchestrator::prober::EchoOutcome;
use sciera::prelude::*;
use sciera::topology::synth::{synthesize, SynthConfig};

/// Probes every path of `pairs` with all links up, with one link of the
/// first pair's shortest path down, with it back up, and three times once
/// the paths have expired. Returns, per
/// round, the results as `replies/ext-if-down/lost`, then the number of
/// churn events and health rows, then SHA-256 over the results, the churn
/// log and the rows.
fn identity(net: &SciEraNetwork, pairs: [(&str, &str); 3]) -> (Vec<String>, String, [String; 3]) {
    let mut shortest = None;
    for (src, dst) in pairs {
        assert!(
            net.register_probe_pair(ia(src), ia(dst)) > 0,
            "{src} -> {dst}"
        );
        shortest.get_or_insert_with(|| net.paths(ia(src), ia(dst))[0].clone());
    }
    let links = net.path_links(&shortest.expect("three pairs"));
    let cut = links[links.len() / 2];

    let mut rounds = Vec::new();
    let mut results = Sha256::new();
    // Then three rounds past every hop field's expiry: each echo dies at
    // the first router, and the third loss in a row takes a path down.
    for (up, later) in [
        (true, 0),
        (false, 0),
        (true, 0),
        (true, 7 * 3600),
        (true, 0),
        (true, 0),
    ] {
        net.set_link_index(cut, up);
        net.advance_time(later);
        let round = net.probe_round();
        let mut tally = [0usize; 3];
        for r in &round {
            let outcome = match r.outcome {
                EchoOutcome::Reply { rtt_ms } => {
                    tally[0] += 1;
                    format!("reply {:016x}", rtt_ms.to_bits())
                }
                EchoOutcome::ExtIfDown { ia, interface } => {
                    tally[1] += 1;
                    format!("ext-if-down {ia}#{interface}")
                }
                EchoOutcome::Lost => {
                    tally[2] += 1;
                    "lost".to_string()
                }
            };
            let fingerprint = fingerprint_hex(&r.key);
            let line = format!("{} {} {fingerprint} {outcome}\n", r.src, r.dst);
            results.update(line.as_bytes());
        }
        rounds.push(format!("{}/{}/{}", tally[0], tally[1], tally[2]));
    }

    let churn = net.churn_events();
    let mut events = Sha256::new();
    for e in &churn {
        events.update(format!("{e:?}\n").as_bytes());
    }
    let table = net.health_rows();
    let mut rows = Sha256::new();
    for r in &table {
        let line = format!(
            "{} {} {} {} {:016x} {} {} {:016x} {:016x}\n",
            r.src,
            r.dst,
            r.fingerprint,
            r.alive,
            r.score.to_bits(),
            r.sent,
            r.lost,
            r.p50_ms.to_bits(),
            r.p90_ms.to_bits()
        );
        rows.update(line.as_bytes());
    }
    (
        rounds,
        format!("{} churn events, {} rows", churn.len(), table.len()),
        [results, events, rows].map(|h| to_hex(&h.finalize())),
    )
}

#[test]
fn sciera_probe_rounds_keep_every_verdict() {
    let net = SciEraNetwork::build(NetworkConfig::default());
    let got = identity(
        &net,
        [
            ("71-2:0:42", "71-225"),
            ("71-559", "64-2:0:9"),
            ("71-88", "71-2:0:61"),
        ],
    );
    assert_eq!(
        got,
        (
            ["33/0/0", "9/24/0", "33/0/0", "0/0/33", "0/0/33", "0/0/33"]
                .map(String::from)
                .to_vec(),
            "5 churn events, 33 rows".to_string(),
            [
                "04708ad018247857ec2036f32d070f27d855478eb8e3508b82ee7c9c9c0afff2",
                "621ddb5291ba31e1adae690a43726a512119c5009b777e9d54f48a08e487d63a",
                "bb31cd17ce976f43d34aed4e6f45859f4673f1d735de70db56988381f2c0e6d5",
            ]
            .map(String::from),
        )
    );
}

#[test]
fn synthetic_100_as_probe_rounds_keep_every_verdict() {
    let net = SciEraNetwork::build_from_topology(
        synthesize(&SynthConfig::sized(100)),
        NetworkConfig::default(),
    );
    let got = identity(
        &net,
        [
            ("10-2:1:6", "11-2:1:63"),
            ("10-2:1:62", "10-2:1:8"),
            ("11-2:1:7", "10-2:1:60"),
        ],
    );
    assert_eq!(
        got,
        (
            ["99/0/0", "96/3/0", "99/0/0", "0/0/99", "0/0/99", "0/0/99"]
                .map(String::from)
                .to_vec(),
            "5 churn events, 99 rows".to_string(),
            [
                "677d069f14ddf33cebf54dae1a461c7677273fb3c6534745a3971e87bb616e2e",
                "ce556c7775467cbb72b72fbac0bfb383212a0afc0a519cb8e48a082f2e894379",
                "206e41d166c298df045baca7943669490e235786fb7c444d2fe5f26f8999ca3d",
            ]
            .map(String::from),
        )
    );
}
