//! End-to-end identity golden for `crates/crypto`: everything the control
//! plane derives through SHA-256 and HMAC — segment ids, entry signatures,
//! retained beacons, path fingerprints — pinned to values captured before
//! the hash kernel and the keyed HMAC were rewritten. A change to either
//! that alters one output bit anywhere fails here; one that only makes
//! them faster does not.

use sciera::control::beacon::{BeaconConfig, BeaconEngine};
use sciera::control::combine::combine_paths;
use sciera::control::graph::ControlGraph;
use sciera::crypto::sha256::{to_hex, Sha256};
use sciera::prelude::*;
use sciera::topology::synth::{synthesize, SynthConfig};

/// What one beaconing run and three lookups leave behind: SHA-256 over every
/// registered segment's id and entry signatures in store order followed by
/// the retained-slot digest; the rounds to convergence; and per pair the
/// number of paths at cap 200, the first fingerprint, and a digest of all
/// fingerprints in answer order.
fn identity(graph: &ControlGraph, pairs: [(&str, &str); 3]) -> (String, usize, Vec<String>) {
    let mut engine = BeaconEngine::new(graph, 1_700_000_000, BeaconConfig::default());
    let store = engine.run().expect("beaconing converges");
    let mut h = Sha256::new();
    for seg in store.all_segments() {
        h.update(&seg.id());
        for entry in &seg.entries {
            h.update(&entry.signature.0);
        }
    }
    for (core, holder, origin, ids) in engine.slot_digest() {
        h.update(&[core as u8]);
        h.update(&holder.to_u64().to_be_bytes());
        h.update(&origin.to_u64().to_be_bytes());
        for id in ids {
            h.update(&id);
        }
    }
    let fingerprints = pairs
        .iter()
        .map(|(src, dst)| {
            let paths = combine_paths(&store, ia(src), ia(dst), 200);
            let mut all = Sha256::new();
            for p in &paths {
                all.update(p.fingerprint().as_bytes());
            }
            let all = to_hex(&all.finalize());
            format!("{} {} {}", paths.len(), paths[0].fingerprint(), &all[..16])
        })
        .collect();
    (to_hex(&h.finalize()), engine.last_rounds(), fingerprints)
}

#[test]
fn sciera_control_plane_keeps_every_digest() {
    let (state, rounds, fingerprints) = identity(
        &build_control_graph().graph,
        [
            ("71-2:0:42", "71-225"),
            ("71-559", "64-2:0:9"),
            ("71-88", "71-2:0:61"),
        ],
    );
    assert_eq!(
        state,
        "f19ffbded02c18af05782dc1fdcd94bbba4e6be09f48b0bfab38943748a2ee9e"
    );
    assert_eq!(rounds, 6);
    assert_eq!(
        fingerprints,
        [
            "24 0c49314360b6551c 26e8fd82e4718629",
            "1 25f5fc3febef94a0 725cc56c90bd9b81",
            "8 817cddac1a3ec409 3f8a9a969e707c28",
        ]
    );
}

#[test]
fn synthetic_100_as_control_plane_keeps_every_digest() {
    let (state, rounds, fingerprints) = identity(
        &synthesize(&SynthConfig::sized(100)).graph,
        [
            ("10-2:1:6", "11-2:1:63"),
            ("10-2:1:62", "10-2:1:8"),
            ("11-2:1:7", "10-2:1:60"),
        ],
    );
    assert_eq!(
        state,
        "cdfc06cb51b8e6b1af266e06ac3a23c4a9e5608c30338e530107771fa44cf761"
    );
    assert_eq!(rounds, 5);
    assert_eq!(
        fingerprints,
        [
            "30 d1dced8bdfcb9b72 eb3ca507979bf635",
            "24 17e4ddd85dd69ce6 c72d4629ae0ac506",
            "45 f251876f93df5483 e491004fba59db60",
        ]
    );
}
