//! The measurement campaign engine (§5.4 methodology).
//!
//! Mirrors `scion-go-multiping`: from each of the 11 measurement ASes,
//! ping every other SCIERA AS each interval — SCMP over three SCION paths
//! (the *shortest*, the *fastest* from the last full path probe, and the
//! *most disjoint* from those two) and ICMP over the BGP baseline. A full
//! path probe enumerates all currently active paths; it runs periodically
//! and immediately after ping failures, exactly as the paper describes.
//! The tool's real defect is reproduced too: the ICMP subsystem stalls
//! after the first 15–30 minutes of each hour until the hourly restart,
//! and the analysis excludes the affected intervals.
//!
//! For tractability the engine takes the analytic fast path over the
//! simulated topology (link-mask liveness + per-link latencies) rather
//! than pushing every ping through the packet-level simulator; the
//! packet-level data plane is exercised end-to-end by the integration
//! tests and examples, and agrees with the analytic RTT on sampled pairs
//! (see `tests/full_stack.rs`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use netsim::metrics::Histogram;
use sciera_topology::ases::{all_ases, fig8_vantages, measurement_points};
use sciera_topology::ip::IpBaseline;
use sciera_topology::links::{build_control_graph, BuiltTopology};
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::combine::combine_paths_traced;
use scion_control::fullpath::FullPath;
use scion_proto::addr::IsdAsn;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign length in days (paper: ~25 days spanning Jan 16–Feb 10).
    pub days: f64,
    /// Seconds per measurement round (paper pings at 1 Hz and aggregates
    /// to 60 s; one round here is one aggregated interval).
    pub round_secs: u64,
    /// Rounds between full path probes.
    pub probe_every_rounds: u32,
    /// Beacon retention (drives path richness; 32 reproduces Fig. 8).
    pub candidates_per_origin: usize,
    /// Maximum combined paths kept per pair.
    pub max_paths: usize,
    /// Inject the real-world incidents of §5.4/§5.5.
    pub with_incidents: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            days: 25.0,
            round_secs: 60,
            probe_every_rounds: 10,
            candidates_per_origin: 32,
            max_paths: 300,
            with_incidents: true,
            seed: 71,
        }
    }
}

impl CampaignConfig {
    /// A fast configuration for unit/integration tests.
    pub fn quick() -> Self {
        CampaignConfig {
            days: 2.0,
            round_secs: 300,
            probe_every_rounds: 4,
            candidates_per_origin: 8,
            max_paths: 80,
            with_incidents: true,
            seed: 71,
        }
    }
}

/// One candidate path, pre-digested for the fast path.
#[derive(Debug, Clone)]
pub struct CandPath {
    /// Link indices the path crosses (for liveness and disjointness).
    pub links: Vec<u32>,
    /// Base RTT in ms over idle links.
    pub base_rtt_ms: f64,
    /// AS-hop count.
    pub hops: usize,
}

impl CandPath {
    fn alive(&self, down: &[bool]) -> bool {
        self.links.iter().all(|&l| !down[l as usize])
    }

    fn shared_links(&self, other: &CandPath) -> usize {
        self.links
            .iter()
            .filter(|l| other.links.contains(l))
            .count()
    }
}

/// Per-pair accumulated state.
#[derive(Debug, Clone)]
pub struct PairData {
    /// Source AS.
    pub src: IsdAsn,
    /// Destination AS.
    pub dst: IsdAsn,
    /// Digested candidate paths (sorted shortest-first).
    pub candidates: Vec<CandPath>,
    /// Minimum RTT ever observed per candidate (Fig. 10a input).
    pub min_rtt_per_path: Vec<f64>,
    /// Active-path count per probe (Figs. 8/9 input).
    pub active_counts: Vec<u32>,
    /// Sum/count of SCION RTT samples (Fig. 6 mean).
    pub scion_sum: f64,
    /// Number of SCION samples.
    pub scion_n: u64,
    /// Sum of IP RTT samples.
    pub ip_sum: f64,
    /// Number of IP samples.
    pub ip_n: u64,
    /// Per-day (scion_sum, scion_n, ip_sum, ip_n) for Fig. 7.
    pub daily: Vec<(f64, u64, f64, u64)>,
    /// Failed SCMP pings (all three paths dead in a round).
    pub scion_failures: u64,
}

/// A named incident window over a link label substring.
#[derive(Debug, Clone)]
struct Incident {
    link_indices: Vec<usize>,
    /// Down intervals as (start_s, end_s).
    windows: Vec<(u64, u64)>,
    label: &'static str,
}

/// The campaign result store.
pub struct MeasurementStore {
    /// Configuration used.
    pub config: CampaignConfig,
    /// Per-ordered-pair data.
    pub pairs: Vec<PairData>,
    /// Global SCION RTT histogram (Fig. 5), ms.
    pub scion_hist: Histogram,
    /// Global IP RTT histogram (Fig. 5), ms.
    pub ip_hist: Histogram,
    /// Incident labels active during the run.
    pub incident_labels: Vec<&'static str>,
    /// Total SCMP pings considered (after exclusion).
    pub scion_pings: u64,
    /// Total ICMP pings considered (after exclusion).
    pub ip_pings: u64,
    /// Rounds excluded by the stall rule.
    pub excluded_rounds: u64,
    /// Number of links in the topology (for resilience experiments).
    pub n_links: usize,
}

impl MeasurementStore {
    /// Finds the pair record for `(src, dst)`.
    pub fn pair(&self, src: IsdAsn, dst: IsdAsn) -> Option<&PairData> {
        self.pairs.iter().find(|p| p.src == src && p.dst == dst)
    }
}

/// The campaign runner.
pub struct Campaign {
    /// The built deployment.
    pub topo: BuiltTopology,
    /// The BGP baseline.
    pub ip: IpBaseline,
    config: CampaignConfig,
    telemetry: sciera_telemetry::Telemetry,
}

impl Campaign {
    /// Builds the deployment and prepares a campaign.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign {
            topo: build_control_graph(),
            ip: IpBaseline::new(),
            config,
            telemetry: sciera_telemetry::Telemetry::quiet(),
        }
    }

    /// Shares a telemetry handle: path-combination timings and campaign
    /// volume counters land in its registry, and `telemetry_summary` can
    /// render them next to the campaign report.
    pub fn set_telemetry(&mut self, telemetry: sciera_telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// The campaign's metric registry rendered as a text table.
    pub fn telemetry_summary(&self) -> String {
        self.telemetry.snapshot().render_table()
    }

    fn incidents(&self, total_secs: u64) -> Vec<Incident> {
        if !self.config.with_incidents {
            return Vec::new();
        }
        let day = 86_400u64;
        let find = |needle: &str| -> Vec<usize> {
            self.topo
                .links
                .iter()
                .enumerate()
                .filter(|(_, l)| l.spec.label.contains(needle))
                .map(|(i, _)| i)
                .collect()
        };
        let mut incidents = Vec::new();
        // Submarine cable cut between Korea and Singapore: the direct
        // circuit is dead for a long stretch of the campaign (§5.5). The
        // window scales with campaign length so short test runs see it too.
        // Long enough that the affected pairs' *median* active-path count
        // drops (the paper reports a median deviation of 16 for DJ-SG),
        // while pairs not routing over the cut circuit stay at 0.
        incidents.push(Incident {
            link_indices: find("Daejeon-Singapore direct"),
            windows: vec![(total_secs / 10, total_secs / 10 + total_secs * 55 / 100)],
            label: "KR-SG submarine cable cut",
        });
        // BRIDGES instabilities: its transatlantic uplink flaps through the
        // campaign (affects UVa/Princeton/Equinix, §5.4 outliers).
        let bridges_links = find("GEANT-BRIDGES transatlantic");
        let mut windows = Vec::new();
        let mut t = day / 2;
        while t < total_secs {
            windows.push((t, t + 2 * 3600));
            t += 16 * 3600; // flap every 16 h, down for 2 h
        }
        incidents.push(Incident {
            link_indices: bridges_links,
            windows,
            label: "BRIDGES routing instabilities",
        });
        // The same instabilities degrade BRIDGES' internal fabric: one of
        // the UVa VLANs and one Equinix cross-connect are out for most of
        // the period, dragging the *median* active-path count for the
        // UVa/Princeton/Equinix pairs (the paper's Fig. 9 hotspots).
        incidents.push(Incident {
            link_indices: [
                find("BRIDGES-UVa VLAN 3"),
                find("BRIDGES-Equinix cross-connect B"),
            ]
            .concat(),
            windows: vec![(total_secs / 20, total_secs / 20 + total_secs * 55 / 100)],
            label: "BRIDGES fabric degradation",
        });
        // UFMS -> Equinix detour: the direct BRIDGES-RNP circuits are out
        // for most of the period, forcing the extra GEANT hop (§5.4).
        incidents.push(Incident {
            link_indices: [
                find("BRIDGES-RNP (Internet2/AtlanticWave)"),
                find("BRIDGES-RNP via Jacksonville"),
            ]
            .concat(),
            windows: vec![(0, total_secs * 2 / 5)],
            label: "UFMS-Equinix routed through GEANT",
        });
        // January 21st maintenance: several links serviced for 8 hours on
        // day 5 (Fig. 7 spike).
        if total_secs > 5 * day {
            incidents.push(Incident {
                link_indices: [find("GEANT-KISTI Amsterdam"), find("SG-AMS via KREONET")].concat(),
                windows: vec![(5 * day, 5 * day + 8 * 3600)],
                label: "January 21 maintenance",
            });
        }
        // New EU-US circuit activated on day 9 (Jan 25): it is *down*
        // before that (clamped into short runs).
        incidents.push(Incident {
            link_indices: find("GEANT-BRIDGES via Paris"),
            windows: vec![(0, (9 * day).min(total_secs / 5))],
            label: "new EU-US links activated Jan 25",
        });
        // February 6 node upgrades: KISTI ring links flap on day 21.
        let mut feb_windows = Vec::new();
        if total_secs > 21 * day {
            for k in 0..6 {
                feb_windows.push((21 * day + k * 4 * 3600, 21 * day + k * 4 * 3600 + 3600));
            }
        }
        incidents.push(Incident {
            link_indices: [
                find("KISTI Chicago-Amsterdam"),
                find("KISTI Daejeon-Seattle"),
            ]
            .concat(),
            windows: feb_windows,
            label: "February 6 upgrades",
        });
        incidents
    }

    /// Runs the campaign, producing the measurement store.
    pub fn run(&self) -> MeasurementStore {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let total_secs = (cfg.days * 86_400.0) as u64;
        let n_links = self.topo.links.len();

        // Control plane: beacon once; segments live 6 h in real SCION and
        // are re-registered continuously — the candidate *set* is stable,
        // so one beaconing pass provides it.
        let store = BeaconEngine::new(
            &self.topo.graph,
            1_700_000_000,
            BeaconConfig {
                candidates_per_origin: cfg.candidates_per_origin,
                ..Default::default()
            },
        )
        .run()
        .expect("beaconing over the SCIERA graph succeeds");

        // Pair universe: the 11 tool hosts plus every Fig. 8 vantage
        // (the paper's path statistics cover vantages where the ping tool
        // itself was not deployed) x all other ISD-71 ASes.
        let mut source_ias: Vec<IsdAsn> = measurement_points().iter().map(|a| a.ia).collect();
        for v in fig8_vantages() {
            if !source_ias.contains(&v) {
                source_ias.push(v);
            }
        }
        let sources = source_ias;
        let targets: Vec<IsdAsn> = all_ases()
            .into_iter()
            .filter(|a| a.ia.isd.0 == 71)
            .map(|a| a.ia)
            .collect();
        let up = |_: usize| false;
        let mut pairs: Vec<PairData> = Vec::new();
        for &s in &sources {
            for &d in &targets {
                if s == d {
                    continue;
                }
                // Every pair is asked for once, so there is nothing to
                // memoize; combine timings land in the shared telemetry.
                let full = combine_paths_traced(&store, s, d, cfg.max_paths, &self.telemetry);
                let candidates: Vec<CandPath> = full
                    .iter()
                    .filter_map(|p| self.digest_path(p, &up))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let n = candidates.len();
                pairs.push(PairData {
                    src: s,
                    dst: d,
                    candidates,
                    min_rtt_per_path: vec![f64::INFINITY; n],
                    active_counts: Vec::new(),
                    scion_sum: 0.0,
                    scion_n: 0,
                    ip_sum: 0.0,
                    ip_n: 0,
                    daily: vec![(0.0, 0, 0.0, 0); cfg.days.ceil() as usize + 1],
                    scion_failures: 0,
                });
            }
        }

        let incidents = self.incidents(total_secs);
        let incident_labels = incidents.iter().map(|i| i.label).collect();

        // Per-pair chosen path indices (shortest, fastest, most disjoint).
        let mut chosen: Vec<[usize; 3]> = pairs.iter().map(|_| [0, 0, 0]).collect();
        let mut need_probe: Vec<bool> = vec![true; pairs.len()];

        let mut scion_hist = Histogram::new(0.0, 1000.0, 4000);
        let mut ip_hist = Histogram::new(0.0, 1000.0, 4000);
        let mut scion_pings = 0u64;
        let mut ip_pings = 0u64;
        let mut excluded_rounds = 0u64;

        // Per-sample RTT and loss also land in the shared telemetry
        // registry, so the operator console sees the campaign live (the
        // local `Histogram`s above remain the figure-grade store).
        let tele_scion_rtt = self.telemetry.histogram("campaign.scion_rtt_ms");
        let tele_ip_rtt = self.telemetry.histogram("campaign.ip_rtt_ms");
        let tele_lost = self.telemetry.counter("campaign.scion_ping_failures");

        let rounds = total_secs / cfg.round_secs;
        let mut down = vec![false; n_links];
        for round in 0..rounds {
            let t = round * cfg.round_secs;
            let day_idx = (t / 86_400) as usize;
            // Update link state from the incident schedule.
            for d in down.iter_mut() {
                *d = false;
            }
            for inc in &incidents {
                if inc.windows.iter().any(|&(s, e)| t >= s && t < e) {
                    for &li in &inc.link_indices {
                        down[li] = true;
                    }
                }
            }
            // The tool's stall: ICMP dead during minutes [15, 30) of each
            // hour; per the paper we exclude those intervals entirely.
            let minute_of_hour = (t % 3600) / 60;
            let stalled = (15..30).contains(&minute_of_hour);
            if stalled {
                excluded_rounds += 1;
            }

            let probing = round % cfg.probe_every_rounds as u64 == 0;
            for (pi, pair) in pairs.iter_mut().enumerate() {
                // Full path probe: enumerate active paths, pick the three.
                if probing || need_probe[pi] {
                    let mut active = 0u32;
                    let mut fastest = usize::MAX;
                    let mut fastest_rtt = f64::INFINITY;
                    let mut shortest = usize::MAX;
                    for (ci, c) in pair.candidates.iter().enumerate() {
                        if !c.alive(&down) {
                            continue;
                        }
                        active += 1;
                        if shortest == usize::MAX {
                            shortest = ci; // candidates sorted by length
                        }
                        if c.base_rtt_ms < fastest_rtt {
                            fastest_rtt = c.base_rtt_ms;
                            fastest = ci;
                        }
                        pair.min_rtt_per_path[ci] = pair.min_rtt_per_path[ci].min(c.base_rtt_ms);
                    }
                    pair.active_counts.push(active);
                    if active > 0 {
                        // Most disjoint from shortest+fastest.
                        let s = &pair.candidates[shortest];
                        let f = &pair.candidates[fastest];
                        let mut best = shortest;
                        let mut best_shared = usize::MAX;
                        for (ci, c) in pair.candidates.iter().enumerate() {
                            if !c.alive(&down) {
                                continue;
                            }
                            let shared = c.shared_links(s) + c.shared_links(f);
                            if shared < best_shared {
                                best_shared = shared;
                                best = ci;
                            }
                        }
                        chosen[pi] = [shortest, fastest, best];
                    }
                    need_probe[pi] = false;
                }

                if stalled {
                    continue;
                }

                // SCMP pings over the three chosen paths.
                let mut best_rtt: Option<f64> = None;
                let mut ok = 0u8;
                for &ci in &chosen[pi] {
                    let c = &pair.candidates[ci];
                    if !c.alive(&down) {
                        continue;
                    }
                    ok += 1;
                    // Research links are lightly loaded: small jitter.
                    let jitter = 1.0 + rng.gen::<f64>() * 0.02;
                    let rtt = c.base_rtt_ms * jitter + 0.2;
                    best_rtt = Some(best_rtt.map_or(rtt, |b: f64| b.min(rtt)));
                }
                scion_pings += 3;
                if ok < 2 {
                    // ">= two pings failed" triggers an immediate re-probe.
                    need_probe[pi] = true;
                }
                if let Some(rtt) = best_rtt {
                    scion_hist.record(rtt);
                    tele_scion_rtt.record(rtt);
                    pair.scion_sum += rtt;
                    pair.scion_n += 1;
                    let d = &mut pair.daily[day_idx];
                    d.0 += rtt;
                    d.1 += 1;
                } else {
                    pair.scion_failures += 1;
                    tele_lost.inc();
                }

                // ICMP over the BGP baseline: commercial transit carries
                // cross traffic — occasional congestion episodes inflate
                // the tail far more than on the research links.
                if let Some(base) = self.ip.rtt_ms(pair.src, pair.dst) {
                    let congestion = if rng.gen::<f64>() < 0.12 {
                        1.0 + rng.gen::<f64>() * 1.6 // episodic queueing (bufferbloat)
                    } else {
                        1.0 + rng.gen::<f64>() * 0.06 // cross-traffic floor
                    };
                    let rtt = base * congestion + 0.2;
                    ip_hist.record(rtt);
                    tele_ip_rtt.record(rtt);
                    ip_pings += 1;
                    pair.ip_sum += rtt;
                    pair.ip_n += 1;
                    let d = &mut pair.daily[day_idx];
                    d.2 += rtt;
                    d.3 += 1;
                }
            }
        }

        self.telemetry
            .counter("campaign.scion_pings")
            .add(scion_pings);
        self.telemetry.counter("campaign.ip_pings").add(ip_pings);
        self.telemetry
            .counter("campaign.excluded_rounds")
            .add(excluded_rounds);
        self.telemetry
            .counter("campaign.pairs")
            .add(pairs.len() as u64);
        MeasurementStore {
            config: self.config.clone(),
            pairs,
            scion_hist,
            ip_hist,
            incident_labels,
            scion_pings,
            ip_pings,
            excluded_rounds,
            n_links,
        }
    }

    /// Digests a combined path into the fast-path representation.
    pub fn digest_path(
        &self,
        path: &FullPath,
        link_down: &dyn Fn(usize) -> bool,
    ) -> Option<CandPath> {
        let rtt = self.topo.path_rtt_ms(path, link_down)?;
        let mut links = Vec::with_capacity(path.hops.len());
        for h in &path.hops {
            if h.egress != 0 {
                links.push(self.topo.link_index_of(h.ia, h.egress)? as u32);
            }
        }
        Some(CandPath {
            links,
            base_rtt_ms: rtt,
            hops: path.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_proto::addr::ia;

    fn quick_store() -> MeasurementStore {
        Campaign::new(CampaignConfig::quick()).run()
    }

    #[test]
    fn campaign_produces_samples_for_all_pairs() {
        let store = quick_store();
        assert!(store.pairs.len() > 200, "pairs: {}", store.pairs.len());
        assert!(store.scion_pings > 10_000);
        assert!(store.ip_pings > 0);
        for p in &store.pairs {
            assert!(p.scion_n > 0, "{} -> {} has no SCION samples", p.src, p.dst);
            assert!(p.ip_n > 0, "{} -> {} has no IP samples", p.src, p.dst);
        }
    }

    #[test]
    fn stall_rule_excludes_rounds() {
        let store = quick_store();
        assert!(
            store.excluded_rounds > 0,
            "the tool's stall must be reproduced"
        );
    }

    #[test]
    fn cable_cut_reduces_dj_sg_active_paths() {
        let store = quick_store();
        let pair = store
            .pair(ia("71-2:0:3b"), ia("71-2:0:3d"))
            .expect("DJ->SG measured");
        let max = *pair.active_counts.iter().max().unwrap();
        let min = *pair.active_counts.iter().min().unwrap();
        assert!(
            min < max,
            "cable cut should reduce the active path count at times"
        );
    }

    #[test]
    fn vantage_pairs_have_at_least_two_paths() {
        // The Fig. 8 floor: every vantage pair sees >= 2 paths. (Some
        // single-homed leaves like SWITCH reasonably have a single path
        // from their own parent.)
        let store = quick_store();
        let vantages = sciera_topology::ases::fig8_vantages();
        for &s in &vantages {
            for &d in &vantages {
                if s == d {
                    continue;
                }
                let p = store.pair(s, d).expect("vantage pair measured");
                assert!(
                    p.candidates.len() >= 2,
                    "{s} -> {d}: {}",
                    p.candidates.len()
                );
            }
        }
    }

    #[test]
    fn incident_free_run_has_stable_counts() {
        let mut cfg = CampaignConfig::quick();
        cfg.with_incidents = false;
        let store = Campaign::new(cfg).run();
        for p in &store.pairs {
            let max = *p.active_counts.iter().max().unwrap();
            let min = *p.active_counts.iter().min().unwrap();
            assert_eq!(max, min, "{} -> {} varies without incidents", p.src, p.dst);
        }
        assert!(store.incident_labels.is_empty());
    }

    #[test]
    fn scion_rtts_plausible() {
        let store = quick_store();
        let med = store.scion_hist.quantile(0.5).unwrap();
        assert!((10.0..400.0).contains(&med), "median SCION RTT {med} ms");
        let ip_med = store.ip_hist.quantile(0.5).unwrap();
        assert!((10.0..500.0).contains(&ip_med), "median IP RTT {ip_med} ms");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = quick_store();
        let b = quick_store();
        assert_eq!(a.scion_pings, b.scion_pings);
        assert_eq!(a.scion_hist.quantile(0.5), b.scion_hist.quantile(0.5));
    }

    #[test]
    fn run_feeds_shared_telemetry_registry() {
        let tele = sciera_telemetry::Telemetry::quiet();
        let mut campaign = Campaign::new(CampaignConfig::quick());
        campaign.set_telemetry(tele.clone());
        let store = campaign.run();
        let snap = tele.snapshot();
        let rtt = snap
            .histogram("campaign.scion_rtt_ms")
            .expect("per-sample RTT histogram registered");
        assert_eq!(
            rtt.count,
            store.scion_hist.count(),
            "every figure-grade sample also lands in telemetry"
        );
        let ip = snap.histogram("campaign.ip_rtt_ms").unwrap();
        assert_eq!(ip.count, store.ip_pings);
        // The failure counter exists even when nothing was lost.
        assert!(snap.counter("campaign.scion_ping_failures").is_some());
    }
}
