//! Path selection.
//!
//! Implements the selection strategies the SCIONabled applications expose
//! (Appendix E: `--interactive`, `--sequence`, `--preference`): policy
//! filtering, preference sorting with live RTT estimates, and instant
//! failover when an SCMP interface-down notification arrives — the paper's
//! "switching paths instantly if performance worsens" (§4.7).

use std::collections::HashMap;

use scion_control::fullpath::{disjointness, fingerprint_hex, FullPath};
use scion_control::policy::{PathPolicy, Preference};
use scion_proto::addr::IsdAsn;
use scion_proto::path::ScionPath;

use crate::PanError;

/// Exponentially-weighted RTT estimates per path fingerprint.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    estimates: HashMap<String, f64>,
    alpha: f64,
}

impl RttEstimator {
    /// Creates an estimator with the standard EWMA factor.
    pub fn new() -> Self {
        RttEstimator {
            estimates: HashMap::new(),
            alpha: 0.2,
        }
    }

    /// Records an RTT sample (ms) for a path.
    pub fn record(&mut self, fingerprint: &str, rtt_ms: f64) {
        let e = self
            .estimates
            .entry(fingerprint.to_string())
            .or_insert(rtt_ms);
        *e = *e * (1.0 - self.alpha) + rtt_ms * self.alpha;
    }

    /// The current estimate, if any.
    pub fn estimate(&self, fingerprint: &str) -> Option<f64> {
        self.estimates.get(fingerprint).copied()
    }
}

/// Per-path static metadata an AS may advertise (bandwidth, carbon), used
/// by the corresponding preferences. Keyed by `(ISD-AS, ifid)` pairs in a
/// real deployment; the simulation attaches per-path aggregates.
#[derive(Debug, Clone, Default)]
pub struct PathMetadata {
    /// Bottleneck bandwidth estimate, Mbit/s.
    pub bandwidth_mbps: HashMap<String, f64>,
    /// Carbon intensity estimate, gCO₂/GB.
    pub carbon_g_per_gb: HashMap<String, f64>,
}

/// A path's [`FullPath::fingerprint_key`]: what the selector ranks, pins and
/// dead-lists on. Each path carries its own (hashed once per body, however
/// many lookups hand it out), so taking one is a load. Fixed-width lowercase
/// hex compares like the bytes it renders, so every order below equals the
/// order of the hex fingerprints; the hex form appears only where strings
/// cross the API (`pin`, `listing`, and the `rtt`/`metadata` maps).
type Key = [u8; 8];

/// The path selector: holds candidate paths, policy, preference order, and
/// the currently pinned path.
#[derive(Debug, Clone)]
pub struct PathSelector {
    /// All candidate paths (unfiltered, as fetched).
    candidates: Vec<FullPath>,
    /// Filter policy.
    pub policy: PathPolicy,
    /// Sort preference.
    pub preference: Preference,
    /// RTT estimates feeding the latency preference.
    pub rtt: RttEstimator,
    /// Advertised metadata feeding bandwidth/green preferences.
    pub metadata: PathMetadata,
    current: Option<Key>,
    /// Paths ruled out by SCMP notifications until refreshed.
    dead: Vec<Key>,
    /// The pinned path as the data plane carries it, assembled on the first
    /// send over it. Only [`PathSelector::set_pin`] and
    /// [`PathSelector::refresh`] change what `current` resolves to, and both
    /// drop this.
    pinned_dataplane: Option<ScionPath>,
}

impl PathSelector {
    /// Creates a selector with defaults (shortest-path preference, empty
    /// policy).
    pub fn new(candidates: Vec<FullPath>) -> Self {
        PathSelector {
            candidates,
            policy: PathPolicy::default(),
            preference: Preference::Shortest,
            rtt: RttEstimator::new(),
            metadata: PathMetadata::default(),
            current: None,
            dead: Vec::new(),
            pinned_dataplane: None,
        }
    }

    /// Replaces the candidate set (after a daemon refresh) and clears the
    /// dead list; keeps the pinned path if it still exists.
    pub fn refresh(&mut self, candidates: Vec<FullPath>) {
        self.candidates = candidates;
        self.dead.clear();
        // A path of the same fingerprint may be built from renewed
        // segments, so the assembled form never outlives a refresh.
        self.pinned_dataplane = None;
        self.current = self.current.filter(|cur| self.position_of(*cur).is_some());
    }

    /// Index of the candidate whose key is `key`.
    fn position_of(&self, key: Key) -> Option<usize> {
        self.candidates
            .iter()
            .position(|p| p.fingerprint_key() == key)
    }

    fn set_pin(&mut self, pin: Option<Key>) {
        self.current = pin;
        self.pinned_dataplane = None;
    }

    /// Candidates passing policy filtering and dead-path exclusion, as
    /// indices into `candidates`.
    fn usable(&self) -> Vec<usize> {
        (0..self.candidates.len())
            .filter(|&i| self.policy.permits(&self.candidates[i]))
            .filter(|&i| !self.dead.contains(&self.candidates[i].fingerprint_key()))
            .collect()
    }

    /// Orders `usable` by ascending `score` of each path's hex fingerprint
    /// (taken once per path), then by hop count if `then_hops`, then by
    /// fingerprint.
    fn sort_scored(&self, usable: &mut [usize], then_hops: bool, score: impl Fn(&str) -> f64) {
        let mut scored: Vec<(f64, usize, Key, usize)> = usable
            .iter()
            .map(|&i| {
                let p = &self.candidates[i];
                let key = p.fingerprint_key();
                let hops = if then_hops { p.len() } else { 0 };
                (score(&fingerprint_hex(&key)), hops, key, i)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("path scores are not NaN")
                .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
        });
        for (slot, (.., i)) in usable.iter_mut().zip(scored) {
            *slot = i;
        }
    }

    /// [`PathSelector::ranked`] as indices into `candidates`.
    fn ranked_indices(&self) -> Vec<usize> {
        let mut usable = self.usable();
        let shortest_first = |usable: &mut [usize]| {
            usable.sort_by_key(|&i| {
                let p = &self.candidates[i];
                (p.len(), p.fingerprint_key())
            });
        };
        match self.preference {
            Preference::Shortest => shortest_first(&mut usable),
            Preference::Latency => self.sort_scored(&mut usable, true, |fp| {
                self.rtt.estimate(fp).unwrap_or(f64::MAX)
            }),
            // Highest bandwidth first.
            Preference::Bandwidth => self.sort_scored(&mut usable, false, |fp| {
                -self.metadata.bandwidth_mbps.get(fp).copied().unwrap_or(0.0)
            }),
            Preference::Green => self.sort_scored(&mut usable, false, |fp| {
                let carbon = self.metadata.carbon_g_per_gb.get(fp);
                carbon.copied().unwrap_or(f64::MAX)
            }),
            Preference::Disjoint => {
                // Greedy max-min disjointness ordering starting from the
                // shortest path.
                shortest_first(&mut usable);
                let mut ordered: Vec<usize> = Vec::with_capacity(usable.len());
                while !usable.is_empty() {
                    let next_idx = if ordered.is_empty() {
                        0
                    } else {
                        let mut best = 0;
                        let mut best_score = f64::MIN;
                        for (i, &cand) in usable.iter().enumerate() {
                            let score = ordered
                                .iter()
                                .map(|&o| disjointness(&self.candidates[cand], &self.candidates[o]))
                                .fold(f64::MAX, f64::min);
                            if score > best_score {
                                best_score = score;
                                best = i;
                            }
                        }
                        best
                    };
                    ordered.push(usable.remove(next_idx));
                }
                usable = ordered;
            }
        }
        usable
    }

    /// Usable paths after policy filtering and dead-path exclusion, in
    /// preference order.
    pub fn ranked(&self) -> Vec<&FullPath> {
        self.ranked_indices()
            .into_iter()
            .map(|i| &self.candidates[i])
            .collect()
    }

    /// Index of the active path: the pinned one if alive, otherwise the
    /// best ranked (which becomes pinned).
    fn active_index(&mut self) -> Result<usize, PanError> {
        if let Some(cur) = self.current.filter(|cur| !self.dead.contains(cur)) {
            if let Some(i) = self.position_of(cur) {
                return Ok(i);
            }
        }
        let best = *self
            .ranked_indices()
            .first()
            .ok_or_else(|| PanError::NoUsablePath("all paths filtered or dead".into()))?;
        self.set_pin(Some(self.candidates[best].fingerprint_key()));
        Ok(best)
    }

    /// The active path: the pinned one if alive, otherwise the best ranked
    /// (which becomes pinned).
    pub fn active(&mut self) -> Result<FullPath, PanError> {
        self.active_index().map(|i| self.candidates[i].clone())
    }

    /// The active path ([`PathSelector::active`]) assembled for the data
    /// plane. While the pin holds this is one stored path, so a connected
    /// socket's steady-state send neither ranks nor re-assembles.
    pub(crate) fn active_dataplane(&mut self) -> Result<&ScionPath, PanError> {
        if self.pinned_dataplane.is_none() {
            let active = self.active_index()?;
            let assembled = self.candidates[active]
                .to_dataplane()
                .map_err(|e| PanError::NoUsablePath(e.to_string()))?;
            self.pinned_dataplane = Some(assembled);
        }
        Ok(self.pinned_dataplane.as_ref().expect("assembled above"))
    }

    /// Pins an explicit path choice (`--interactive` selection).
    pub fn pin(&mut self, fingerprint: &str) -> Result<(), PanError> {
        let known = self
            .candidates
            .iter()
            .find(|p| p.fingerprint() == fingerprint);
        match known.map(FullPath::fingerprint_key) {
            Some(key) => {
                self.set_pin(Some(key));
                Ok(())
            }
            None => Err(PanError::NoUsablePath(format!(
                "unknown path {fingerprint}"
            ))),
        }
    }

    /// Handles an SCMP `ExternalInterfaceDown`: kills every candidate
    /// crossing `(ia, ifid)` and unpins if affected. Returns how many paths
    /// died — failover is then instant on the next [`PathSelector::active`]
    /// call.
    pub fn interface_down(&mut self, ia: IsdAsn, ifid: u16) -> usize {
        let mut killed = 0;
        for p in &self.candidates {
            let key = p.fingerprint_key();
            if !self.dead.contains(&key) && p.crosses(ia, ifid) {
                self.dead.push(key);
                killed += 1;
            }
        }
        if self.current.is_some_and(|cur| self.dead.contains(&cur)) {
            self.set_pin(None);
        }
        killed
    }

    /// Interactive listing: (index, fingerprint, AS sequence, hop count),
    /// what the `bat --interactive` flag shows the user.
    pub fn listing(&self) -> Vec<(usize, String, String, usize)> {
        self.ranked_indices()
            .into_iter()
            .enumerate()
            .map(|(rank, i)| {
                let p = &self.candidates[i];
                let seq = p
                    .ases()
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(" > ");
                (rank, p.fingerprint(), seq, p.len())
            })
            .collect()
    }

    /// Number of live candidates.
    pub fn live_count(&self) -> usize {
        self.usable().len()
    }

    /// Usable paths ranked by an adaptive (measurement-driven) policy
    /// instead of the static preference order: policy filtering and the
    /// SCMP dead-list still apply, then `policy` orders what remains by
    /// the rolling statistics in `view`. The selector's own
    /// [`Preference`](scion_control::policy::Preference) is ignored for
    /// this ranking.
    pub fn adaptive_ranked(
        &self,
        policy: &crate::adaptive::AdaptivePolicy,
        view: &crate::adaptive::PathStatsView,
    ) -> Vec<&FullPath> {
        let usable = self.usable();
        let cands: Vec<crate::adaptive::Candidate> = usable
            .iter()
            .map(|&i| crate::adaptive::Candidate {
                fingerprint: self.candidates[i].fingerprint(),
                hops: self.candidates[i].len(),
            })
            .collect();
        policy
            .rank(view, &cands)
            .into_iter()
            .map(|c| {
                let at = cands
                    .iter()
                    .position(|known| known.fingerprint == c.fingerprint)
                    .expect("ranked candidate came from usable");
                &self.candidates[usable[at]]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_control::fullpath::{PathBody, PathHop, PathKind};
    use scion_proto::addr::ia;

    fn path(id: u16, ases: &[&str]) -> FullPath {
        let hops: Vec<PathHop> = ases
            .iter()
            .enumerate()
            .map(|(i, s)| PathHop {
                ia: ia(s),
                ingress: if i == 0 { 0 } else { id * 10 + i as u16 },
                egress: if i == ases.len() - 1 {
                    0
                } else {
                    id * 10 + i as u16 + 1
                },
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

    fn candidates() -> Vec<FullPath> {
        vec![
            path(1, &["71-10", "71-1", "71-11"]),
            path(2, &["71-10", "71-1", "71-2", "71-11"]),
            path(3, &["71-10", "71-3", "71-11"]),
        ]
    }

    #[test]
    fn shortest_preference_ranks_by_length() {
        let s = PathSelector::new(candidates());
        let ranked = s.ranked();
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].len() <= ranked[1].len());
        assert_eq!(ranked[2].len(), 4);
    }

    #[test]
    fn latency_preference_uses_estimates() {
        let mut s = PathSelector::new(candidates());
        s.preference = Preference::Latency;
        let fps: Vec<String> = s.candidates.iter().map(|p| p.fingerprint()).collect();
        s.rtt.record(&fps[0], 80.0);
        s.rtt.record(&fps[1], 20.0);
        s.rtt.record(&fps[2], 50.0);
        let ranked = s.ranked();
        assert_eq!(ranked[0].fingerprint(), fps[1]);
        assert_eq!(ranked[1].fingerprint(), fps[2]);
    }

    #[test]
    fn ewma_converges() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.record("p", 10.0);
        }
        assert!((e.estimate("p").unwrap() - 10.0).abs() < 1e-9);
        e.record("p", 110.0);
        let est = e.estimate("p").unwrap();
        assert!(est > 10.0 && est < 110.0, "smoothed: {est}");
    }

    #[test]
    fn failover_on_interface_down() {
        let mut s = PathSelector::new(candidates());
        let first = s.active().unwrap();
        // Kill the link the active path uses at 71-1.
        let (ia_down, if_down) = first.interfaces()[0];
        let killed = s.interface_down(ia_down, if_down);
        assert!(killed >= 1);
        let second = s.active().unwrap();
        assert_ne!(first.fingerprint(), second.fingerprint());
        assert!(!second.interfaces().contains(&(ia_down, if_down)));
    }

    #[test]
    fn all_paths_dead_errors() {
        let mut s = PathSelector::new(vec![path(1, &["71-10", "71-1", "71-11"])]);
        let p = s.active().unwrap();
        let (ia_d, if_d) = p.interfaces()[0];
        s.interface_down(ia_d, if_d);
        assert!(matches!(s.active(), Err(PanError::NoUsablePath(_))));
    }

    #[test]
    fn refresh_restores_dead_paths() {
        let mut s = PathSelector::new(candidates());
        let p = s.active().unwrap();
        let (ia_d, if_d) = p.interfaces()[0];
        s.interface_down(ia_d, if_d);
        s.refresh(candidates());
        assert_eq!(s.live_count(), 3);
    }

    #[test]
    fn pin_and_unknown_pin() {
        let mut s = PathSelector::new(candidates());
        let fp = s.candidates[2].fingerprint();
        s.pin(&fp).unwrap();
        assert_eq!(s.active().unwrap().fingerprint(), fp);
        assert!(s.pin("deadbeef").is_err());
    }

    #[test]
    fn policy_filters_ranked() {
        let mut s = PathSelector::new(candidates());
        s.policy.acl = scion_control::policy::Acl::default().deny("71-1".parse().unwrap());
        let ranked = s.ranked();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].ases()[1], ia("71-3"));
    }

    #[test]
    fn disjoint_preference_spreads() {
        let mut s = PathSelector::new(candidates());
        s.preference = Preference::Disjoint;
        let ranked = s.ranked();
        // Second pick must be fully disjoint from the first (the 71-3 path
        // shares nothing with the 71-1 paths).
        let d = disjointness(ranked[0], ranked[1]);
        assert!(d > 0.9, "expected near-full disjointness, got {d}");
    }

    #[test]
    fn green_preference_sorts_by_carbon() {
        let mut s = PathSelector::new(candidates());
        s.preference = Preference::Green;
        let fps: Vec<String> = s.candidates.iter().map(|p| p.fingerprint()).collect();
        s.metadata.carbon_g_per_gb.insert(fps[0].clone(), 30.0);
        s.metadata.carbon_g_per_gb.insert(fps[1].clone(), 5.0);
        s.metadata.carbon_g_per_gb.insert(fps[2].clone(), 90.0);
        assert_eq!(s.ranked()[0].fingerprint(), fps[1]);
    }

    /// The ranking as specified on hex fingerprints — the string-keyed
    /// selector's sort, one `fingerprint()` per use — by fingerprint.
    fn reference_ranked(s: &PathSelector, dead: &[String]) -> Vec<String> {
        let mut usable: Vec<&FullPath> = s
            .candidates
            .iter()
            .filter(|p| s.policy.permits(p) && !dead.contains(&p.fingerprint()))
            .collect();
        let by_fingerprint = |a: &&FullPath, b: &&FullPath| a.fingerprint().cmp(&b.fingerprint());
        match s.preference {
            Preference::Shortest | Preference::Disjoint => {
                usable.sort_by_key(|p| (p.len(), p.fingerprint()))
            }
            Preference::Latency => {
                let rtt = |p: &FullPath| s.rtt.estimate(&p.fingerprint()).unwrap_or(f64::MAX);
                usable.sort_by(|a, b| {
                    rtt(a)
                        .partial_cmp(&rtt(b))
                        .unwrap()
                        .then_with(|| a.len().cmp(&b.len()))
                        .then_with(|| by_fingerprint(a, b))
                })
            }
            Preference::Bandwidth => {
                let known = &s.metadata.bandwidth_mbps;
                let bw = |p: &FullPath| known.get(&p.fingerprint()).copied().unwrap_or(0.0);
                usable.sort_by(|a, b| {
                    bw(b)
                        .partial_cmp(&bw(a))
                        .unwrap()
                        .then_with(|| by_fingerprint(a, b))
                })
            }
            Preference::Green => {
                let known = &s.metadata.carbon_g_per_gb;
                let co2 = |p: &FullPath| known.get(&p.fingerprint()).copied().unwrap_or(f64::MAX);
                usable.sort_by(|a, b| {
                    co2(a)
                        .partial_cmp(&co2(b))
                        .unwrap()
                        .then_with(|| by_fingerprint(a, b))
                })
            }
        }
        if s.preference == Preference::Disjoint && !usable.is_empty() {
            // Greedy max-min disjointness from the shortest path; the first
            // of equally disjoint candidates wins.
            let mut ordered: Vec<&FullPath> = vec![usable.remove(0)];
            while !usable.is_empty() {
                let spread = |cand: &FullPath| {
                    ordered
                        .iter()
                        .map(|o| disjointness(cand, o))
                        .fold(f64::MAX, f64::min)
                };
                let mut best = 0;
                for i in 1..usable.len() {
                    if spread(usable[i]) > spread(usable[best]) {
                        best = i;
                    }
                }
                ordered.push(usable.remove(best));
            }
            usable = ordered;
        }
        usable.iter().map(|p| p.fingerprint()).collect()
    }

    /// Many paths between one pair with ties in hop count and in every
    /// score, so the fingerprint tie-break decides most of the order; each
    /// run of four leaves the source through the same interface.
    fn many_candidates() -> Vec<FullPath> {
        let mids = ["71-1", "71-2", "71-3", "71-4"];
        (0..40usize)
            .map(|n| {
                let mut ases = vec!["71-10"];
                ases.extend(mids.iter().cycle().skip(n).take(1 + n % 3));
                ases.push("71-11");
                path(1 + n as u16 / 4, &ases)
            })
            .collect()
    }

    #[test]
    fn key_order_is_fingerprint_order_for_every_preference() {
        for preference in [
            Preference::Shortest,
            Preference::Latency,
            Preference::Bandwidth,
            Preference::Green,
            Preference::Disjoint,
        ] {
            let mut s = PathSelector::new(many_candidates());
            s.preference = preference;
            // Scores for two paths in three, each value shared by several.
            for (i, p) in many_candidates()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 != 0)
            {
                let v = (i % 4) as f64 * 10.0;
                s.rtt.record(&p.fingerprint(), v);
                s.metadata.bandwidth_mbps.insert(p.fingerprint(), v);
                s.metadata.carbon_g_per_gb.insert(p.fingerprint(), v);
            }
            let mut dead: Vec<String> = Vec::new();
            let check = |s: &PathSelector, dead: &[String], when: &str| {
                let want = reference_ranked(s, dead);
                let ranked: Vec<String> = s.ranked().iter().map(|p| p.fingerprint()).collect();
                assert_eq!(ranked, want, "{preference:?} ranked {when}");
                let listing = s.listing();
                let listed: Vec<String> = listing.iter().map(|l| l.1.clone()).collect();
                assert_eq!(listed, want, "{preference:?} listing {when}");
                assert!(listing.iter().enumerate().all(|(i, l)| l.0 == i));
                assert_eq!(s.live_count(), want.len());
                want
            };
            let want = check(&s, &dead, "fresh");
            assert_eq!(want.len(), 40);
            let first = s.active().unwrap();
            assert_eq!(first.fingerprint(), want[0]);

            // An interface of the active path dies: everything crossing
            // it leaves the ranking, and the next best takes over.
            let (ia_down, if_down) = first.interfaces()[0];
            dead = many_candidates()
                .iter()
                .filter(|p| p.interfaces().contains(&(ia_down, if_down)))
                .map(|p| p.fingerprint())
                .collect();
            assert_eq!(dead.len(), 4);
            assert_eq!(s.interface_down(ia_down, if_down), 4);
            let want = check(&s, &dead, "after interface_down");
            assert_eq!(s.active().unwrap().fingerprint(), want[0]);

            // A pin overrides the ranking without disturbing it.
            s.pin(&want[5]).unwrap();
            check(&s, &dead, "after pin");
            assert_eq!(s.active().unwrap().fingerprint(), want[5]);
            let upper = want[6].to_uppercase();
            assert!(s.pin(&upper).is_err(), "fingerprints are lowercase hex");
            assert_eq!(s.active().unwrap().fingerprint(), want[5]);

            // A refresh that still holds the pin keeps it and revives the
            // dead; one that lacks it falls back to the best ranked.
            let pinned = want[5].clone();
            let mut reversed = many_candidates();
            reversed.reverse();
            s.refresh(reversed);
            let want = check(&s, &[], "after refresh");
            assert_eq!(want.len(), 40);
            assert_eq!(s.active().unwrap().fingerprint(), pinned);
            let mut without: Vec<FullPath> = many_candidates();
            without.retain(|p| p.fingerprint() != pinned);
            s.refresh(without);
            let want = check(&s, &[], "after refresh without the pin");
            assert_eq!(s.active().unwrap().fingerprint(), want[0]);
        }
    }

    /// `interface_down` kills what the interface-list oracle names, for every
    /// interface any candidate touches, for interface 0 (which no path
    /// uses) and for an AS on no path; and a second report kills nothing.
    #[test]
    fn interface_down_kills_what_the_interface_list_names() {
        let mut reports: Vec<(IsdAsn, u16)> = many_candidates()
            .iter()
            .flat_map(|p| p.interfaces())
            .collect();
        reports.sort_unstable();
        reports.dedup();
        reports.extend([(ia("71-1"), 0), (ia("71-10"), 0), (ia("71-99"), 12)]);
        for (at, ifid) in reports {
            let mut s = PathSelector::new(many_candidates());
            let want: Vec<Key> = s
                .candidates
                .iter()
                .filter(|p| p.interfaces().contains(&(at, ifid)))
                .map(FullPath::fingerprint_key)
                .collect();
            assert_eq!(s.interface_down(at, ifid), want.len(), "{at} {ifid}");
            assert_eq!(s.dead, want, "{at} {ifid}");
            assert_eq!(s.interface_down(at, ifid), 0, "{at} {ifid} again");
            assert_eq!(s.live_count(), 40 - want.len());
        }
    }

    /// Everything a selector shows of itself, after a fixed run of events.
    fn observed(mut s: PathSelector, preference: Preference) -> Vec<String> {
        s.preference = preference;
        let mut seen: Vec<String> = Vec::new();
        let mut note = |s: &PathSelector, what: String| {
            seen.push(what);
            seen.extend(s.ranked().iter().map(|p| p.fingerprint()));
            seen.extend(s.listing().into_iter().map(|l| format!("{l:?}")));
        };
        note(&s, "fresh".into());
        let first = s.active().unwrap();
        let (ia_down, if_down) = first.interfaces()[0];
        let killed = s.interface_down(ia_down, if_down);
        note(&s, format!("{} down took {killed}", first.fingerprint()));
        let last = s.ranked().last().unwrap().fingerprint();
        s.pin(&last).unwrap();
        let active = s.active().unwrap().fingerprint();
        note(&s, format!("pinned {active}"));
        seen
    }

    #[test]
    fn memoised_and_absent_keys_select_alike() {
        use scion_control::beacon::{BeaconConfig, BeaconEngine};
        use scion_control::epoch::EpochPathDb;
        use scion_control::graph::{ControlGraph, LinkType};
        // Three meshed cores, two leaves homed on two of them each and
        // peered: a dozen paths of three lengths.
        let mut g = ControlGraph::new();
        for core in ["71-1", "71-2", "71-3"] {
            g.add_as(ia(core), true);
        }
        for (a, b) in [("71-1", "71-2"), ("71-2", "71-3"), ("71-1", "71-3")] {
            g.connect(ia(a), ia(b), LinkType::Core).unwrap();
        }
        for (leaf, parents) in [("71-10", ["71-1", "71-2"]), ("71-11", ["71-2", "71-3"])] {
            g.add_as(ia(leaf), false);
            for parent in parents {
                g.connect(ia(parent), ia(leaf), LinkType::Child).unwrap();
            }
        }
        g.connect(ia("71-10"), ia("71-11"), LinkType::Peer).unwrap();
        let store = BeaconEngine::new(&g, 1_700_000_000, BeaconConfig::default())
            .run()
            .unwrap();
        // From the database: picked by `finalize`, keys already taken.
        let served = EpochPathDb::new(store).paths(ia("71-10"), ia("71-11"), 200);
        assert!(served.len() >= 6, "{} paths", served.len());
        // Equal bodies of their own, never hashed.
        let rebuilt = |paths: &[FullPath]| -> Vec<FullPath> {
            paths
                .iter()
                .map(|p| FullPath::from_body(PathBody::clone(p)))
                .collect()
        };
        assert_eq!(rebuilt(&served), served);
        for preference in [
            Preference::Shortest,
            Preference::Latency,
            Preference::Bandwidth,
            Preference::Green,
            Preference::Disjoint,
        ] {
            assert_eq!(
                observed(PathSelector::new(served.clone()), preference),
                observed(PathSelector::new(rebuilt(&served)), preference),
                "{preference:?}"
            );
        }
    }

    #[test]
    fn listing_renders_as_sequences() {
        let s = PathSelector::new(candidates());
        let listing = s.listing();
        assert_eq!(listing.len(), 3);
        assert!(listing[0].2.contains(" > "));
        assert!(listing[0].2.starts_with("71-10"));
    }
}
