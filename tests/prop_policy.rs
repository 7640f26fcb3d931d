//! Property tests for the path-policy language: the sequence matcher is
//! checked against a brute-force reference (enumerating every possible
//! wildcard split), and the ACL/transit policies against their defining
//! predicates.

use proptest::prelude::*;

use sciera::control::fullpath::{FullPath, PathBody, PathHop, PathKind};
use sciera::control::policy::{Acl, HopPredicate, Sequence, TransitPolicy};
use sciera::prelude::*;

fn path_from(ases: &[u16]) -> FullPath {
    let hops: Vec<PathHop> = ases
        .iter()
        .enumerate()
        .map(|(i, &n)| PathHop {
            ia: ia(&format!("71-{}", n)),
            ingress: if i == 0 { 0 } else { 1 },
            egress: if i + 1 == ases.len() { 0 } else { 2 },
        })
        .collect();
    FullPath::from_body(PathBody {
        src: hops.first().unwrap().ia,
        dst: hops.last().unwrap().ia,
        kind: PathKind::CoreTransit,
        uses: Vec::new(),
        hops,
    })
}

/// Brute-force reference for sequence matching over a small alphabet:
/// predicates are either a specific AS or the wildcard; recursively try
/// every way the wildcard can absorb a (possibly empty) run.
fn reference_matches(preds: &[Option<u16>], hops: &[u16]) -> bool {
    match preds.split_first() {
        None => hops.is_empty(),
        Some((Some(want), rest)) => hops
            .split_first()
            .map(|(h, tail)| h == want && reference_matches(rest, tail))
            .unwrap_or(false),
        Some((None, rest)) => {
            // Wildcard: consume 0..=len hops.
            (0..=hops.len()).any(|k| reference_matches(rest, &hops[k..]))
        }
    }
}

fn sequence_from(preds: &[Option<u16>]) -> Sequence {
    let text: Vec<String> = preds
        .iter()
        .map(|p| match p {
            Some(n) => format!("71-{n}"),
            None => "0-0".to_string(),
        })
        .collect();
    Sequence::parse(&text.join(" ")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sequence_matcher_equals_bruteforce(
        preds in prop::collection::vec(prop::option::weighted(0.6, 1u16..4), 0..5),
        hops in prop::collection::vec(1u16..4, 1..7),
    ) {
        let seq = sequence_from(&preds);
        let path = path_from(&hops);
        let expected = if preds.is_empty() {
            true // empty sequence = no constraint, by definition
        } else {
            reference_matches(&preds, &hops)
        };
        prop_assert_eq!(
            seq.matches(&path),
            expected,
            "preds {:?} vs hops {:?}",
            preds,
            hops
        );
    }

    #[test]
    fn acl_first_match_semantics(
        denied in prop::collection::vec(1u16..6, 0..3),
        hops in prop::collection::vec(1u16..6, 1..6),
    ) {
        let mut acl = Acl::default();
        for d in &denied {
            acl = acl.deny(format!("71-{d}").parse::<HopPredicate>().unwrap());
        }
        let path = path_from(&hops);
        let expected = hops.iter().all(|h| !denied.contains(h));
        prop_assert_eq!(acl.permits(&path), expected);
    }

    #[test]
    fn transit_policy_definition(
        commercial in prop::collection::vec(1u16..6, 0..3),
        hops in prop::collection::vec(1u16..6, 2..6),
    ) {
        let policy = TransitPolicy::new(
            commercial.iter().map(|n| ia(&format!("71-{n}"))).collect(),
        );
        let path = path_from(&hops);
        let is_commercial = |n: &u16| commercial.contains(n);
        let src_c = is_commercial(hops.first().unwrap());
        let dst_c = is_commercial(hops.last().unwrap());
        let all_c = hops.iter().all(is_commercial);
        let expected = !(src_c && dst_c) || all_c;
        prop_assert_eq!(policy.permits(&path), expected);
    }

    #[test]
    fn policy_never_panics_on_arbitrary_sequences(
        text in "[0-9a-z#,: -]{0,40}",
    ) {
        // The parser must reject or accept, never panic.
        let _ = Sequence::parse(&text);
        let _ = text.parse::<HopPredicate>();
    }
}
