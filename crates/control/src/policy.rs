//! Path policies.
//!
//! Models the policy surface the paper's application libraries expose
//! (§5.2: "a SCION path policy" and "a path optimization strategy" via CLI
//! flags) and the operational policy of §4.9 (commercial traffic must not
//! *transit* SCIERA):
//!
//! * [`HopPredicate`] / [`Sequence`] — PAN-style hop-predicate sequences
//!   such as `71-0 71-2:0:3b 0-0`.
//! * [`Acl`] — ordered allow/deny rules over ISD-AS predicates.
//! * [`TransitPolicy`] — the §4.9 rule: packets may originate or terminate
//!   in a commercial AS, but a path may not *pass through* SCIERA between
//!   two commercial ASes.
//! * [`Preference`] — sorting orders for path selection (the
//!   `--preference` flag of the SCIONabled `bat` tool in Appendix E).

use std::str::FromStr;

use serde::{Deserialize, Serialize};

use scion_proto::addr::{Asn, IsdAsn};

use crate::fullpath::FullPath;
use crate::ControlError;

/// A single hop predicate: matches an ISD-AS with wildcards (`0` matches
/// anything) and optionally a set of interface IDs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopPredicate {
    /// ISD to match; 0 is a wildcard.
    pub isd: u16,
    /// AS to match; 0 is a wildcard.
    pub asn: Asn,
    /// If non-empty, at least one of these interface IDs must be used.
    pub ifids: Vec<u16>,
}

impl HopPredicate {
    /// Whether this predicate matches an AS-level hop.
    pub fn matches(&self, ia: IsdAsn, ingress: u16, egress: u16) -> bool {
        if self.isd != 0 && self.isd != ia.isd.0 {
            return false;
        }
        if self.asn != Asn::WILDCARD && self.asn != ia.asn {
            return false;
        }
        if !self.ifids.is_empty() && !self.ifids.iter().any(|&i| i == ingress || i == egress) {
            return false;
        }
        true
    }

    /// The match-anything predicate `0-0`.
    pub fn any() -> Self {
        HopPredicate {
            isd: 0,
            asn: Asn::WILDCARD,
            ifids: Vec::new(),
        }
    }
}

impl FromStr for HopPredicate {
    type Err = ControlError;

    /// Parses `"71-2:0:3b"`, `"71-0"`, `"0-0"` or `"71-2:0:3b#1,3"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ia_part, if_part) = match s.split_once('#') {
            Some((a, b)) => (a, Some(b)),
            None => (s, None),
        };
        let ia: IsdAsn = ia_part
            .parse()
            .map_err(|e| ControlError::BadSegment(format!("hop predicate `{s}`: {e}")))?;
        let ifids = match if_part {
            None => Vec::new(),
            Some(list) => list
                .split(',')
                .map(|x| {
                    x.parse::<u16>()
                        .map_err(|e| ControlError::BadSegment(format!("interface in `{s}`: {e}")))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(HopPredicate {
            isd: ia.isd.0,
            asn: ia.asn,
            ifids,
        })
    }
}

/// A sequence of hop predicates that a path's AS-hop sequence must satisfy
/// in order (each predicate matches one or more consecutive hops greedily,
/// wildcard `0-0` matches any run — a pragmatic subset of the PAN language
/// sufficient for the paper's use cases).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Sequence {
    /// The predicates, outermost first.
    pub predicates: Vec<HopPredicate>,
}

impl Sequence {
    /// Parses a whitespace-separated predicate list; empty means
    /// "no constraint".
    pub fn parse(s: &str) -> Result<Self, ControlError> {
        let predicates = s
            .split_whitespace()
            .map(HopPredicate::from_str)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Sequence { predicates })
    }

    /// Whether `path` satisfies the sequence.
    pub fn matches(&self, path: &FullPath) -> bool {
        if self.predicates.is_empty() {
            return true;
        }
        // Dynamic programming over (hop index, predicate index): a wildcard
        // predicate may match a run of any length (including, at the ends,
        // an empty run); specific predicates match exactly one hop.
        let hops = &path.hops;
        let preds = &self.predicates;
        let is_wild = |p: &HopPredicate| p.isd == 0 && p.asn == Asn::WILDCARD && p.ifids.is_empty();
        // reachable[j] = predicates consumed after processing hops so far.
        let mut reachable = vec![false; preds.len() + 1];
        reachable[0] = true;
        // Wildcards can match empty prefixes.
        let mut j = 0;
        while j < preds.len() && is_wild(&preds[j]) {
            reachable[j + 1] = true;
            j += 1;
        }
        for h in hops {
            let mut next = vec![false; preds.len() + 1];
            for (j, p) in preds.iter().enumerate() {
                if !(reachable[j] || (is_wild(p) && reachable[j + 1])) {
                    continue;
                }
                if p.matches(h.ia, h.ingress, h.egress) {
                    next[j + 1] = true;
                    if is_wild(p) {
                        next[j] = true; // wildcard keeps consuming
                    }
                }
            }
            // Epsilon-close over trailing wildcards.
            let mut changed = true;
            while changed {
                changed = false;
                for (j, p) in preds.iter().enumerate() {
                    if next[j] && is_wild(p) && !next[j + 1] {
                        next[j + 1] = true;
                        changed = true;
                    }
                }
            }
            reachable = next;
        }
        reachable[preds.len()]
    }
}

/// An ordered allow/deny list over ISD-AS predicates; first match decides,
/// default is allow.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Acl {
    /// Rules in priority order: (allow?, predicate).
    pub rules: Vec<(bool, HopPredicate)>,
}

impl Acl {
    /// Adds a deny rule.
    pub fn deny(mut self, pred: HopPredicate) -> Self {
        self.rules.push((false, pred));
        self
    }

    /// Adds an allow rule.
    pub fn allow(mut self, pred: HopPredicate) -> Self {
        self.rules.push((true, pred));
        self
    }

    /// Whether every hop of `path` is allowed.
    pub fn permits(&self, path: &FullPath) -> bool {
        path.hops.iter().all(|h| {
            for (allow, pred) in &self.rules {
                if pred.matches(h.ia, h.ingress, h.egress) {
                    return *allow;
                }
            }
            true
        })
    }
}

/// The §4.9 transit policy: commercial traffic may terminate or originate
/// inside SCIERA, but SCIERA must not act as transit *between* commercial
/// ASes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitPolicy {
    /// ASes classified as commercial (e.g. the ISD-64 production network
    /// reached via SWITCH).
    pub commercial: Vec<IsdAsn>,
}

impl TransitPolicy {
    /// Creates a policy with the given commercial AS set.
    pub fn new(commercial: Vec<IsdAsn>) -> Self {
        TransitPolicy { commercial }
    }

    fn is_commercial(&self, ia: IsdAsn) -> bool {
        self.commercial.contains(&ia)
    }

    /// Whether `path` complies: it must not both enter from and leave to
    /// commercial ASes with academic ASes in between (transit).
    pub fn permits(&self, path: &FullPath) -> bool {
        let src_commercial = path.hops.first().is_some_and(|h| self.is_commercial(h.ia));
        let dst_commercial = path.hops.last().is_some_and(|h| self.is_commercial(h.ia));
        if src_commercial && dst_commercial {
            // Commercial to commercial through SCIERA = transit, unless the
            // path never leaves the commercial network.
            return path.hops.iter().all(|h| self.is_commercial(h.ia));
        }
        true
    }
}

/// Path preference orders, mirroring `pan.AvailablePreferencePolicies`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preference {
    /// Fewest AS-level hops.
    Shortest,
    /// Lowest measured round-trip time (needs external RTT input).
    Latency,
    /// Highest advertised bottleneck bandwidth (needs external input).
    Bandwidth,
    /// Maximum disjointness from already-chosen paths.
    Disjoint,
    /// Lowest carbon-intensity estimate ("green routing", §4.7).
    Green,
}

impl Preference {
    /// All available preference names (for CLI-style interfaces).
    pub fn available() -> &'static [&'static str] {
        &["shortest", "latency", "bandwidth", "disjoint", "green"]
    }
}

impl FromStr for Preference {
    type Err = ControlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "shortest" => Ok(Preference::Shortest),
            "latency" => Ok(Preference::Latency),
            "bandwidth" => Ok(Preference::Bandwidth),
            "disjoint" => Ok(Preference::Disjoint),
            "green" => Ok(Preference::Green),
            other => Err(ControlError::BadSegment(format!(
                "unknown preference `{other}`"
            ))),
        }
    }
}

/// A complete path policy: optional sequence, ACL and transit policy.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PathPolicy {
    /// Hop-predicate sequence, if any.
    pub sequence: Option<Sequence>,
    /// Allow/deny rules.
    pub acl: Acl,
    /// §4.9 transit restrictions.
    pub transit: TransitPolicy,
}

impl PathPolicy {
    /// Whether `path` satisfies all configured constraints.
    pub fn permits(&self, path: &FullPath) -> bool {
        self.sequence
            .as_ref()
            .map(|s| s.matches(path))
            .unwrap_or(true)
            && self.acl.permits(path)
            && self.transit.permits(path)
    }

    /// Filters a path list in place.
    pub fn filter(&self, paths: &mut Vec<FullPath>) {
        paths.retain(|p| self.permits(p));
    }

    /// Whether this is the empty policy — no sequence, no ACL rule, no
    /// commercial AS — which permits every path without reading it.
    pub fn is_open(&self) -> bool {
        self.sequence.is_none() && self.acl.rules.is_empty() && self.transit.commercial.is_empty()
    }
}

/// A stable fingerprint of a path policy, used in cache keys so queries
/// under different policies never alias. The empty/default policy (and
/// "no policy") fingerprint to 0.
pub fn policy_fingerprint(policy: &PathPolicy) -> u64 {
    if policy.is_open() {
        return 0;
    }
    let encoded = serde_json::to_string(policy).unwrap_or_default();
    let digest = scion_crypto::sha256::sha256(encoded.as_bytes());
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fullpath::{PathBody, PathHop, PathKind};
    use scion_proto::addr::ia;

    /// Builds a FullPath directly from hops (tests don't need real segments
    /// for policy evaluation).
    fn path(ases: &[&str]) -> FullPath {
        let hops: Vec<PathHop> = ases
            .iter()
            .enumerate()
            .map(|(i, s)| PathHop {
                ia: ia(s),
                ingress: if i == 0 { 0 } else { 1 },
                egress: if i == ases.len() - 1 { 0 } else { 2 },
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

    #[test]
    fn hop_predicate_parsing() {
        let p: HopPredicate = "71-2:0:3b".parse().unwrap();
        assert!(p.matches(ia("71-2:0:3b"), 1, 2));
        assert!(!p.matches(ia("71-2:0:3c"), 1, 2));
        let wild: HopPredicate = "0-0".parse().unwrap();
        assert!(wild.matches(ia("64-559"), 0, 0));
        let with_if: HopPredicate = "71-225#3,5".parse().unwrap();
        assert!(with_if.matches(ia("71-225"), 3, 9));
        assert!(with_if.matches(ia("71-225"), 9, 5));
        assert!(!with_if.matches(ia("71-225"), 1, 2));
        assert!("banana".parse::<HopPredicate>().is_err());
        assert!("71-225#x".parse::<HopPredicate>().is_err());
    }

    #[test]
    fn sequence_exact_match() {
        let seq = Sequence::parse("71-10 71-1 71-2 71-11").unwrap();
        assert!(seq.matches(&path(&["71-10", "71-1", "71-2", "71-11"])));
        assert!(!seq.matches(&path(&["71-10", "71-2", "71-11"])));
    }

    #[test]
    fn sequence_with_wildcards() {
        let seq = Sequence::parse("71-10 0-0 71-11").unwrap();
        assert!(seq.matches(&path(&["71-10", "71-1", "71-2", "71-11"])));
        assert!(seq.matches(&path(&["71-10", "71-11"]))); // empty wildcard run
        assert!(!seq.matches(&path(&["71-12", "71-1", "71-11"])));
        let anywhere = Sequence::parse("0-0 71-2:0:3b 0-0").unwrap();
        assert!(anywhere.matches(&path(&["71-10", "71-2:0:3b", "71-11"])));
        assert!(anywhere.matches(&path(&["71-2:0:3b", "71-11"])));
        assert!(!anywhere.matches(&path(&["71-10", "71-11"])));
    }

    #[test]
    fn empty_sequence_matches_everything() {
        let seq = Sequence::parse("").unwrap();
        assert!(seq.matches(&path(&["71-10", "71-11"])));
    }

    #[test]
    fn isd_wildcard_predicate() {
        let seq = Sequence::parse("71-0 71-0").unwrap();
        assert!(seq.matches(&path(&["71-10", "71-11"])));
        assert!(!seq.matches(&path(&["71-10", "64-559"])));
    }

    #[test]
    fn acl_first_match_wins() {
        let acl = Acl::default()
            .deny("64-0".parse().unwrap())
            .allow(HopPredicate::any());
        assert!(acl.permits(&path(&["71-10", "71-1"])));
        assert!(!acl.permits(&path(&["71-10", "64-559"])));
        // Allow before deny flips the outcome.
        let acl2 = Acl::default()
            .allow("64-559".parse().unwrap())
            .deny("64-0".parse().unwrap());
        assert!(acl2.permits(&path(&["71-10", "64-559"])));
        assert!(!acl2.permits(&path(&["71-10", "64-123"])));
    }

    #[test]
    fn transit_policy_blocks_commercial_transit() {
        let tp = TransitPolicy::new(vec![ia("64-559"), ia("64-2:0:9")]);
        // Terminating in SCIERA: fine.
        assert!(tp.permits(&path(&["64-559", "71-1", "71-10"])));
        // Originating in SCIERA: fine.
        assert!(tp.permits(&path(&["71-10", "71-1", "64-559"])));
        // Commercial -> SCIERA -> commercial: transit, blocked.
        assert!(!tp.permits(&path(&["64-559", "71-1", "64-2:0:9"])));
        // Purely commercial path: not SCIERA's business.
        assert!(tp.permits(&path(&["64-559", "64-2:0:9"])));
    }

    #[test]
    fn preference_parsing() {
        assert_eq!(
            "latency".parse::<Preference>().unwrap(),
            Preference::Latency
        );
        assert_eq!("green".parse::<Preference>().unwrap(), Preference::Green);
        assert!("fastest".parse::<Preference>().is_err());
        assert_eq!(Preference::available().len(), 5);
    }

    #[test]
    fn combined_policy_filter() {
        let policy = PathPolicy {
            acl: Acl::default().deny("71-2".parse().unwrap()),
            transit: TransitPolicy::new(vec![ia("64-559")]),
            ..Default::default()
        };
        let mut paths = vec![
            path(&["71-10", "71-1", "71-11"]),
            path(&["71-10", "71-2", "71-11"]),
        ];
        policy.filter(&mut paths);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].ases()[1], ia("71-1"));
        // Only the empty policy is open; any one constraint closes it.
        assert!(PathPolicy::default().is_open());
        assert!(!policy.is_open());
        let sequence = Some(Sequence::parse("").unwrap());
        assert!(!PathPolicy {
            sequence,
            ..Default::default()
        }
        .is_open());
    }
}
