//! The longitudinal path-dynamics observatory.
//!
//! The per-run telemetry of the prober/health stack answers "how is the
//! network *right now*"; the measurement studies the stack reproduces
//! (§5.4 and the SCIONLab path-dynamics literature) need the longitudinal
//! view: how long paths live, how often the healthy set churns, how RTT
//! moves when links fail and recover. This module turns a simulated
//! deployment into exactly that dataset:
//!
//! * [`run_campaign`] drives a [`DynamicsNet`] through scheduled epochs —
//!   probe rounds via the orchestrator's prober, seeded link-kill/restore
//!   and latency-scaling (cost-change) events — and collects one
//!   [`PathEpochRecord`] per registered path per epoch plus a companion
//!   [`ChurnRecord`] stream (appear/disappear straight from the
//!   `HealthBoard`'s transitions, failover records derived from the
//!   campaign's own selection tracking, causes rendered from the board's
//!   typed down reasons). Each epoch reads the board once, by path key.
//! * [`DynamicsDataset`] is the ML-ready product: versioned-schema JSONL
//!   in, JSONL out ([`DynamicsDataset::paths_jsonl`] /
//!   [`DynamicsDataset::from_jsonl`]), with [`DynamicsDataset::validate`]
//!   enforcing the schema invariants and [`DynamicsDataset::summary`]
//!   computing the headline statistics (path-lifetime CDF, churn rate per
//!   epoch, RTT stability).
//! * [`replay_policies`] closes the loop: it replays the dataset through
//!   [`crate::adaptive`]'s selection policies — folding each epoch's
//!   records into a rolling [`PathStatsView`] *after* the epoch's
//!   selection, so policies only ever act on the past — and scores them
//!   against the static baseline on achieved RTT and failover gap.
//!
//! Everything is deterministic from the seed: equal seeds over equal
//! networks reproduce the dataset byte for byte (the replay guarantee the
//! proptests pin down).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use sciera_telemetry::{Histogram, Telemetry};
use scion_control::fullpath::{fingerprint_hex, FullPath};
use scion_orchestrator::health::{DownReason, HealthBoard};
use scion_orchestrator::prober::{EchoOutcome, ProbeResult};
use scion_proto::addr::IsdAsn;

use crate::adaptive::{AdaptivePolicy, Candidate, PathStatsView};
use crate::bed::Rng;

/// Version stamp every exported record carries; bump on any schema change.
pub const SCHEMA_VERSION: u32 = 1;

/// Application-level RTT charged for an epoch whose selected path is dead:
/// the retransmission-timeout ceiling a transport would hit before the
/// selector reacts. Used by [`replay_policies`] so outage epochs surface
/// in the achieved p50/p99 instead of silently dropping out of the
/// distribution.
pub const OUTAGE_RTO_MS: f64 = 3_000.0;

/// What the campaign engine needs from a network. `sciera-core` implements
/// this on the full simulated deployment; tests implement it on scripted
/// mocks built from the real prober + health board.
pub trait DynamicsNet {
    /// Current simulated Unix time.
    fn now_unix(&self) -> u64;
    /// Advances simulated time by `secs`.
    fn advance_time(&mut self, secs: u64);
    /// Registers a (src, dst) pair with the prober, snapshotting up to
    /// `max_paths` currently-live paths; returns the snapshot.
    fn register_pair(&mut self, src: IsdAsn, dst: IsdAsn, max_paths: usize) -> Vec<FullPath>;
    /// Runs one echo campaign over every registered path and closes the
    /// health board's round.
    fn probe_round(&mut self) -> Vec<ProbeResult>;
    /// Hands the health board the probe rounds feed to `read`: the engine
    /// reads an epoch's churn (by count, only what is new) and every
    /// path's verdict (by key) in one visit.
    fn read_board<R>(&self, read: impl FnOnce(&HealthBoard) -> R) -> R;
    /// The control plane's current generation stamp (segment store /
    /// path-database invalidation epoch).
    fn generation(&self) -> u64;
    /// Number of links in the topology.
    fn link_count(&self) -> usize;
    /// Indices of the links `path` crosses.
    fn path_links(&self, path: &FullPath) -> Vec<usize>;
    /// Administrative link state (fault injection).
    fn set_link_up(&mut self, index: usize, up: bool);
    /// Scales one link's latency relative to its nominal value (cost
    /// change injection); `1.0` restores the nominal latency.
    fn set_link_latency_factor(&mut self, index: usize, factor: f64);
}

/// Campaign schedule and event-injection knobs.
#[derive(Debug, Clone)]
pub struct DynamicsConfig {
    /// Epochs to run.
    pub epochs: usize,
    /// Simulated seconds per epoch.
    pub epoch_secs: u64,
    /// Probe rounds per epoch.
    pub rounds_per_epoch: usize,
    /// Paths snapshotted per registered pair.
    pub max_paths_per_pair: usize,
    /// Seed for all event-injection draws.
    pub seed: u64,
    /// Inject a link kill every this many epochs (0 disables).
    pub kill_every: usize,
    /// Epochs a killed link stays down.
    pub kill_duration: usize,
    /// Distinct links the kill schedule cycles over — a small pool makes
    /// the same links flap repeatedly, which is what churn-penalizing
    /// selection learns from.
    pub kill_pool: usize,
    /// Inject a latency scaling every this many epochs (0 disables).
    pub latency_every: usize,
    /// Maximum latency multiplier for cost-change events.
    pub latency_factor_max: f64,
    /// Epochs a latency scaling stays in effect.
    pub latency_duration: usize,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            epochs: 200,
            epoch_secs: 30,
            rounds_per_epoch: 2,
            max_paths_per_pair: 8,
            seed: 0x0D1C_E0FD_15C0,
            kill_every: 9,
            kill_duration: 2,
            kill_pool: 3,
            latency_every: 11,
            latency_factor_max: 3.5,
            latency_duration: 4,
        }
    }
}

/// One path's state over one epoch — one JSONL line of `paths.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathEpochRecord {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub v: u32,
    /// Epoch index (strictly monotone per path).
    pub epoch: u64,
    /// Simulated Unix time at the end of the epoch.
    pub t_unix: u64,
    /// Source AS.
    pub src: String,
    /// Destination AS.
    pub dst: String,
    /// Path fingerprint.
    pub fingerprint: String,
    /// AS-level hop count.
    pub hops: u64,
    /// Probes sent to this path this epoch.
    pub probes: u64,
    /// Echo replies received this epoch.
    pub replies: u64,
    /// Loss fraction this epoch (0..=1).
    pub loss: f64,
    /// Median RTT over this epoch's replies, ms.
    pub rtt_p50_ms: Option<f64>,
    /// p90 RTT over this epoch's replies, ms.
    pub rtt_p90_ms: Option<f64>,
    /// p99 RTT over this epoch's replies, ms.
    pub rtt_p99_ms: Option<f64>,
    /// Health-board liveness verdict at the end of the epoch.
    pub alive: bool,
    /// Whether the down reason is an SCMP interface-down correlation.
    pub scmp_dead: bool,
    /// Epochs since the path entered the probe set.
    pub age_epochs: u64,
    /// Length of the current alive streak, epochs (0 while down).
    pub lifetime_epochs: u64,
    /// Control-plane generation stamp at the end of the epoch.
    pub generation: u64,
}

/// One healthy-set transition — one JSONL line of `events.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnRecord {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub v: u32,
    /// Epoch the transition was detected in.
    pub epoch: u64,
    /// Simulated Unix time of the detecting round.
    pub t_unix: u64,
    /// Source AS.
    pub src: String,
    /// Destination AS.
    pub dst: String,
    /// The path that changed state.
    pub fingerprint: String,
    /// `appear`, `disappear` (both 1:1 with health-board transitions) or
    /// `failover` (derived: the pair's selected path died).
    pub kind: String,
    /// Causal attribution for disappearances and failovers: the health
    /// board's down reason (e.g. `ext-if-down 71-10#21` from the SCMP
    /// pipeline, or the consecutive-loss threshold).
    pub cause: Option<String>,
}

/// The exported campaign product: per-path time series plus churn stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsDataset {
    /// Seed the campaign ran with (replay key).
    pub seed: u64,
    /// One record per registered path per epoch, in emission order.
    pub paths: Vec<PathEpochRecord>,
    /// Appear/disappear/failover stream, in emission order.
    pub events: Vec<ChurnRecord>,
}

/// Headline statistics over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsSummary {
    /// Epochs covered.
    pub epochs: u64,
    /// Distinct (src, dst) pairs.
    pub pairs: usize,
    /// Distinct (src, dst, fingerprint) paths.
    pub paths: usize,
    /// Path-epoch records.
    pub records: usize,
    /// Churn records (all kinds).
    pub churn_records: usize,
    /// `appear` records.
    pub appear: usize,
    /// `disappear` records.
    pub disappear: usize,
    /// `failover` records.
    pub failover: usize,
    /// Health-board transitions (appear + disappear) per epoch.
    pub churn_per_epoch: f64,
    /// Longest alive streak per path, at the deciles: `(quantile,
    /// epochs)`.
    pub lifetime_cdf: Vec<(f64, u64)>,
    /// Mean longest alive streak, epochs.
    pub mean_lifetime_epochs: f64,
    /// RTT stability: mean per-path coefficient of variation of the
    /// epoch-median RTT (0 = perfectly stable).
    pub rtt_cv: f64,
}

/// How one selection policy fared over a replayed dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Policy name (`static`, `latency_loss`, `churn_aware`).
    pub policy: String,
    /// Epochs replayed (per pair).
    pub epochs: u64,
    /// Median achieved application RTT, ms (epoch-median of the selected
    /// path; outage epochs count at [`OUTAGE_RTO_MS`]).
    pub p50_ms: f64,
    /// 99th-percentile achieved application RTT, ms (outage epochs count
    /// at [`OUTAGE_RTO_MS`]).
    pub p99_ms: f64,
    /// Epochs in which the selected path was dead or unmeasured (summed
    /// over pairs).
    pub outage_epochs: u64,
    /// Distinct failover-gap episodes (maximal runs of outage epochs).
    pub failover_gaps: u64,
    /// Mean failover-gap length, ms.
    pub mean_gap_ms: f64,
    /// Longest failover gap, ms.
    pub max_gap_ms: f64,
    /// Selection changes across all pairs.
    pub switches: u64,
}

struct PathTrack {
    path: FullPath,
    /// The path's key as hex, the dataset's `fingerprint`.
    fingerprint: String,
    first_epoch: u64,
    alive_streak: u64,
}

/// A probed path's liveness and down reason on `board`. A path the board
/// has not seen counts as alive.
fn state(
    board: &HealthBoard,
    src: IsdAsn,
    dst: IsdAsn,
    key: [u8; 8],
) -> (bool, Option<DownReason>) {
    board
        .path(src, dst, key)
        .map_or((true, None), |p| (p.alive, p.down_reason))
}

enum Restore {
    LinkUp(usize),
    Latency(usize),
}

/// Runs a full campaign over `net`: registers `pairs`, then per epoch
/// injects scheduled events, advances time, probes, and emits records.
/// Deterministic: equal seeds over equal networks yield byte-identical
/// datasets.
pub fn run_campaign<N: DynamicsNet>(
    net: &mut N,
    pairs: &[(IsdAsn, IsdAsn)],
    cfg: &DynamicsConfig,
    telemetry: &Telemetry,
) -> DynamicsDataset {
    let epochs_done = telemetry.counter("dynamics.epochs");
    let records_ctr = telemetry.counter("dynamics.records");
    let churn_ctr = telemetry.counter("dynamics.churn_records");
    let injected_ctr = telemetry.counter("dynamics.events_injected");
    let epoch_gauge = telemetry.gauge("dynamics.epoch");
    let live_gauge = telemetry.gauge("dynamics.live_paths");
    let churn_last_gauge = telemetry.gauge("dynamics.churn_last_epoch");
    let gap_gauge = telemetry.gauge("dynamics.last_failover_gap_ms");

    let mut rng = Rng::new(cfg.seed);
    let mut tracks = Vec::new();
    for &(src, dst) in pairs {
        let snapshot = net.register_pair(src, dst, cfg.max_paths_per_pair);
        let tracked = snapshot.into_iter().map(|path| {
            let track = PathTrack {
                fingerprint: path.fingerprint(),
                path,
                first_epoch: 0,
                alive_streak: 0,
            };
            (track.path.fingerprint_key(), track)
        });
        tracks.push(((src, dst), tracked.collect::<BTreeMap<_, _>>()));
    }

    // Event targets are drawn from links the probe set actually crosses.
    // Kill candidates additionally require that every pair keeps at least
    // one registered path avoiding the link, so a kill forces a failover
    // rather than a blackout.
    let mut used_links: BTreeSet<usize> = BTreeSet::new();
    for (_, by_fp) in &tracks {
        for t in by_fp.values() {
            used_links.extend(net.path_links(&t.path));
        }
    }
    let used_links: Vec<usize> = used_links.into_iter().collect();
    let survivable: Vec<usize> = used_links
        .iter()
        .copied()
        .filter(|&li| {
            tracks.iter().all(|(_, by_fp)| {
                by_fp
                    .values()
                    .any(|t| !net.path_links(&t.path).contains(&li))
            })
        })
        .collect();
    // Injected events target the links of each pair's *primary*
    // (shortest) path: that is the path static selection sits on, so the
    // injected fault is visible in the baseline-vs-adaptive comparison
    // instead of landing on paths nobody would pick anyway.
    let mut primary_links: BTreeSet<usize> = BTreeSet::new();
    for (_, by_fp) in &tracks {
        // Primary = what static selection picks: fewest hops, fingerprint
        // as the tiebreak.
        if let Some(t) = by_fp
            .values()
            .min_by_key(|t| (t.path.len(), t.path.fingerprint_key()))
        {
            primary_links.extend(net.path_links(&t.path));
        }
    }
    // Both event kinds prefer survivable primary links: the fault lands
    // on the path static selection sits on, and the affected pair always
    // keeps a path around it, so every event forces a *choice* (stay
    // blind or route around) rather than a dead end nobody can escape.
    let survivable_primary: Vec<usize> = survivable
        .iter()
        .copied()
        .filter(|li| primary_links.contains(li))
        .collect();
    let preferred = if !survivable_primary.is_empty() {
        survivable_primary
    } else if !survivable.is_empty() {
        survivable
    } else {
        used_links
    };
    let kill_candidates = preferred.clone();
    let latency_candidates = preferred;
    let mut kill_pool: Vec<usize> = Vec::new();
    while kill_pool.len() < cfg.kill_pool.min(kill_candidates.len()) {
        let li = kill_candidates[rng.below(kill_candidates.len())];
        if !kill_pool.contains(&li) {
            kill_pool.push(li);
        }
    }

    let mut dataset = DynamicsDataset {
        seed: cfg.seed,
        paths: Vec::new(),
        events: Vec::new(),
    };
    let mut consumed_churn = 0usize;
    let mut kills_so_far = 0usize;
    let mut pending: Vec<(u64, Restore)> = Vec::new();
    // Per-pair static selection tracking for failover records: the
    // first-alive path in fingerprint order, and the epoch its outage
    // started (if it is in one).
    let mut selected: Vec<Option<[u8; 8]>> = vec![None; tracks.len()];
    let mut outage_since: Vec<Option<u64>> = vec![None; tracks.len()];

    for epoch in 0..cfg.epochs as u64 {
        let _epoch_scope = telemetry.prof_scope("dynamics.epoch");

        // -- Scheduled restores, then injections (epoch 0 stays clean). --
        let (due, later): (Vec<_>, _) = pending.into_iter().partition(|&(at, _)| at <= epoch);
        pending = later;
        for (_, r) in due {
            match r {
                Restore::LinkUp(li) => net.set_link_up(li, true),
                Restore::Latency(li) => net.set_link_latency_factor(li, 1.0),
            }
        }
        if cfg.kill_every > 0
            && epoch > 0
            && epoch % cfg.kill_every as u64 == 0
            && !kill_pool.is_empty()
        {
            let li = kill_pool[kills_so_far % kill_pool.len()];
            kills_so_far += 1;
            net.set_link_up(li, false);
            pending.push((epoch + cfg.kill_duration.max(1) as u64, Restore::LinkUp(li)));
            injected_ctr.inc();
        }
        if cfg.latency_every > 0
            && epoch > 0
            && epoch % cfg.latency_every as u64 == 0
            && !latency_candidates.is_empty()
        {
            let li = latency_candidates[rng.below(latency_candidates.len())];
            let factor = 1.5 + rng.f64() * (cfg.latency_factor_max - 1.5).max(0.0);
            net.set_link_latency_factor(li, factor);
            pending.push((
                epoch + cfg.latency_duration.max(1) as u64,
                Restore::Latency(li),
            ));
            injected_ctr.inc();
        }

        // -- Probe rounds. ----------------------------------------------
        net.advance_time(cfg.epoch_secs);
        let mut samples: BTreeMap<(usize, [u8; 8]), (u64, u64, Histogram)> = BTreeMap::new();
        for _ in 0..cfg.rounds_per_epoch.max(1) {
            let _probe_scope = telemetry.prof_scope("dynamics.probe");
            for result in net.probe_round() {
                let Some(pair_idx) = tracks
                    .iter()
                    .position(|((s, d), _)| *s == result.src && *d == result.dst)
                else {
                    continue;
                };
                let entry = samples
                    .entry((pair_idx, result.key))
                    .or_insert_with(|| (0, 0, Histogram::default()));
                entry.0 += 1;
                if let EchoOutcome::Reply { rtt_ms } = result.outcome {
                    entry.1 += 1;
                    entry.2.record(rtt_ms);
                }
            }
        }
        let now = net.now_unix();
        let generation = net.generation();

        // One read of the board: the churn logged since the last epoch,
        // then every tracked path's verdict.
        let live_paths = net.read_board(|board| {
            // -- Churn stream: board transitions map 1:1 to records. ----
            let churn = board.churn_since(consumed_churn);
            consumed_churn += churn.len();
            churn_last_gauge.set(churn.len() as u64);
            for ev in churn {
                for entered in [true, false] {
                    for key in ev.keys(entered) {
                        let (kind, cause) = if entered {
                            ("appear", None)
                        } else {
                            let reason = state(board, ev.src, ev.dst, key).1;
                            ("disappear", reason.map(|r| r.to_string()))
                        };
                        dataset.events.push(ChurnRecord {
                            v: SCHEMA_VERSION,
                            epoch,
                            t_unix: ev.at_unix,
                            src: ev.src.to_string(),
                            dst: ev.dst.to_string(),
                            fingerprint: fingerprint_hex(&key),
                            kind: kind.into(),
                            cause,
                        });
                        churn_ctr.inc();
                    }
                }
            }

            // -- Per-path records + failover detection. ------------------
            let mut live_paths = 0u64;
            for (pair_idx, ((src, dst), tracked)) in tracks.iter_mut().enumerate() {
                let (src, dst) = (*src, *dst);
                let mut first_alive: Option<[u8; 8]> = None;
                for (key, track) in tracked.iter_mut() {
                    let (alive, reason) = state(board, src, dst, *key);
                    if alive {
                        track.alive_streak += 1;
                        live_paths += 1;
                        first_alive.get_or_insert(*key);
                    } else {
                        track.alive_streak = 0;
                    }
                    let sample = samples.get(&(pair_idx, *key));
                    let (probes, replies) = sample.map_or((0, 0), |s| (s.0, s.1));
                    let rtt = |q| sample.and_then(|s| s.2.quantile(q));
                    let loss = if probes > 0 {
                        (probes - replies) as f64 / probes as f64
                    } else {
                        0.0
                    };
                    dataset.paths.push(PathEpochRecord {
                        v: SCHEMA_VERSION,
                        epoch,
                        t_unix: now,
                        src: src.to_string(),
                        dst: dst.to_string(),
                        fingerprint: track.fingerprint.clone(),
                        hops: track.path.len() as u64,
                        probes,
                        replies,
                        loss,
                        rtt_p50_ms: rtt(0.5),
                        rtt_p90_ms: rtt(0.9),
                        rtt_p99_ms: rtt(0.99),
                        alive,
                        scmp_dead: matches!(reason, Some(DownReason::ExtIfDown { .. })),
                        age_epochs: epoch - track.first_epoch,
                        lifetime_epochs: track.alive_streak,
                        generation,
                    });
                    records_ctr.inc();
                }

                // Failover: the pair's selected path (first alive,
                // fingerprint order — the static baseline) left the
                // healthy set.
                if let Some(old) = selected[pair_idx].filter(|&old| first_alive != Some(old)) {
                    let (alive, reason) = state(board, src, dst, old);
                    if !alive {
                        dataset.events.push(ChurnRecord {
                            v: SCHEMA_VERSION,
                            epoch,
                            t_unix: now,
                            src: src.to_string(),
                            dst: dst.to_string(),
                            fingerprint: tracked[&old].fingerprint.clone(),
                            kind: "failover".into(),
                            cause: reason.map(|r| r.to_string()),
                        });
                        churn_ctr.inc();
                        if outage_since[pair_idx].is_none() {
                            outage_since[pair_idx] = Some(epoch);
                        }
                    }
                }
                if first_alive.is_some() {
                    if let Some(e0) = outage_since[pair_idx].take() {
                        let gap_ms = (epoch - e0 + 1) * cfg.epoch_secs * 1000;
                        gap_gauge.set(gap_ms);
                    }
                } else if outage_since[pair_idx].is_none() && selected[pair_idx].is_some() {
                    outage_since[pair_idx] = Some(epoch);
                }
                selected[pair_idx] = first_alive;
            }
            live_paths
        });

        live_gauge.set(live_paths);
        epoch_gauge.set(epoch);
        epochs_done.inc();
    }
    dataset
}

fn jsonl<T: Serialize>(records: &[T]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("record serializes"));
        out.push('\n');
    }
    out
}

fn parse_jsonl<T: for<'a> Deserialize>(s: &str, what: &str) -> Result<Vec<T>, String> {
    s.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            serde_json::from_str::<T>(l).map_err(|e| format!("{what} line {}: {e:?}", i + 1))
        })
        .collect()
}

impl DynamicsDataset {
    /// `paths.jsonl`: one [`PathEpochRecord`] per line, emission order.
    pub fn paths_jsonl(&self) -> String {
        jsonl(&self.paths)
    }

    /// `events.jsonl`: one [`ChurnRecord`] per line, emission order.
    pub fn events_jsonl(&self) -> String {
        jsonl(&self.events)
    }

    /// Both JSONL streams in one call, timed under the
    /// `dynamics.export` profiling scope.
    pub fn export_jsonl(&self, telemetry: &Telemetry) -> (String, String) {
        let _scope = telemetry.prof_scope("dynamics.export");
        (self.paths_jsonl(), self.events_jsonl())
    }

    /// Parses both JSONL streams back into a dataset (`seed` is not part
    /// of the wire format; pass the campaign's).
    pub fn from_jsonl(seed: u64, paths: &str, events: &str) -> Result<DynamicsDataset, String> {
        Ok(DynamicsDataset {
            seed,
            paths: parse_jsonl(paths, "paths.jsonl")?,
            events: parse_jsonl(events, "events.jsonl")?,
        })
    }

    /// Schema validation: version stamps, strictly monotone epochs per
    /// path, value ranges, known churn kinds, attributed disappearances.
    pub fn validate(&self) -> Result<(), String> {
        let mut last_epoch: BTreeMap<(String, String, String), u64> = BTreeMap::new();
        for (i, r) in self.paths.iter().enumerate() {
            let at = |msg: String| format!("paths record {}: {msg}", i + 1);
            if r.v != SCHEMA_VERSION {
                return Err(at(format!("schema version {} != {SCHEMA_VERSION}", r.v)));
            }
            if !(0.0..=1.0).contains(&r.loss) {
                return Err(at(format!("loss {} out of range", r.loss)));
            }
            if r.replies > r.probes {
                return Err(at(format!("{} replies > {} probes", r.replies, r.probes)));
            }
            for (name, q) in [
                ("rtt_p50_ms", r.rtt_p50_ms),
                ("rtt_p90_ms", r.rtt_p90_ms),
                ("rtt_p99_ms", r.rtt_p99_ms),
            ] {
                if let Some(v) = q {
                    if !v.is_finite() || v <= 0.0 {
                        return Err(at(format!("{name} {v} not positive-finite")));
                    }
                }
            }
            if r.rtt_p50_ms.is_some() && r.replies == 0 {
                return Err(at("RTT quantiles without replies".into()));
            }
            if r.lifetime_epochs > r.age_epochs + 1 {
                return Err(at(format!(
                    "lifetime {} exceeds age {} + 1",
                    r.lifetime_epochs, r.age_epochs
                )));
            }
            if r.alive && r.lifetime_epochs == 0 {
                return Err(at("alive path with zero lifetime".into()));
            }
            let key = (r.src.clone(), r.dst.clone(), r.fingerprint.clone());
            if let Some(&prev) = last_epoch.get(&key) {
                if r.epoch <= prev {
                    return Err(at(format!(
                        "epoch {} not strictly monotone after {prev}",
                        r.epoch
                    )));
                }
            }
            last_epoch.insert(key, r.epoch);
        }
        for (i, e) in self.events.iter().enumerate() {
            let at = |msg: String| format!("events record {}: {msg}", i + 1);
            if e.v != SCHEMA_VERSION {
                return Err(at(format!("schema version {} != {SCHEMA_VERSION}", e.v)));
            }
            match e.kind.as_str() {
                "appear" => {
                    if e.cause.is_some() {
                        return Err(at("appear records carry no cause".into()));
                    }
                }
                "disappear" | "failover" => {}
                other => return Err(at(format!("unknown kind `{other}`"))),
            }
        }
        Ok(())
    }

    /// Headline statistics: lifetimes, churn rate, RTT stability.
    pub fn summary(&self) -> DynamicsSummary {
        let epochs = self.paths.iter().map(|r| r.epoch + 1).max().unwrap_or(0);
        let pairs: BTreeSet<(&str, &str)> = self
            .paths
            .iter()
            .map(|r| (r.src.as_str(), r.dst.as_str()))
            .collect();
        let mut max_lifetime: BTreeMap<(&str, &str, &str), u64> = BTreeMap::new();
        let mut rtts: BTreeMap<(&str, &str, &str), Vec<f64>> = BTreeMap::new();
        for r in &self.paths {
            let key = (r.src.as_str(), r.dst.as_str(), r.fingerprint.as_str());
            let m = max_lifetime.entry(key).or_insert(0);
            *m = (*m).max(r.lifetime_epochs);
            if let Some(p50) = r.rtt_p50_ms {
                rtts.entry(key).or_default().push(p50);
            }
        }
        let mut lifetimes: Vec<u64> = max_lifetime.values().copied().collect();
        lifetimes.sort_unstable();
        let lifetime_cdf: Vec<(f64, u64)> = (1..=10)
            .map(|d| {
                let q = d as f64 / 10.0;
                let idx = ((q * lifetimes.len() as f64).ceil() as usize)
                    .saturating_sub(1)
                    .min(lifetimes.len().saturating_sub(1));
                (q, lifetimes.get(idx).copied().unwrap_or(0))
            })
            .collect();
        let mean_lifetime_epochs = if lifetimes.is_empty() {
            0.0
        } else {
            lifetimes.iter().sum::<u64>() as f64 / lifetimes.len() as f64
        };
        let cvs: Vec<f64> = rtts
            .values()
            .filter(|v| v.len() >= 2)
            .map(|v| {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
                if mean > 0.0 {
                    var.sqrt() / mean
                } else {
                    0.0
                }
            })
            .collect();
        let rtt_cv = if cvs.is_empty() {
            0.0
        } else {
            cvs.iter().sum::<f64>() / cvs.len() as f64
        };
        let appear = self.events.iter().filter(|e| e.kind == "appear").count();
        let disappear = self.events.iter().filter(|e| e.kind == "disappear").count();
        let failover = self.events.iter().filter(|e| e.kind == "failover").count();
        DynamicsSummary {
            epochs,
            pairs: pairs.len(),
            paths: max_lifetime.len(),
            records: self.paths.len(),
            churn_records: self.events.len(),
            appear,
            disappear,
            failover,
            churn_per_epoch: if epochs > 0 {
                (appear + disappear) as f64 / epochs as f64
            } else {
                0.0
            },
            lifetime_cdf,
            mean_lifetime_epochs,
            rtt_cv,
        }
    }
}

/// Replays a dataset through selection policies, epoch by epoch: each
/// epoch's selection sees only records from *earlier* epochs (folded into
/// a rolling [`PathStatsView`] after the fact), then achieves the selected
/// path's measured epoch-median RTT — or an outage epoch when the
/// selection was dead. Returns one [`PolicyOutcome`] per policy.
pub fn replay_policies(
    dataset: &DynamicsDataset,
    epoch_secs: u64,
    policies: &[AdaptivePolicy],
) -> Vec<PolicyOutcome> {
    // Index records by pair, then by epoch.
    let mut by_pair: BTreeMap<(String, String), BTreeMap<u64, Vec<&PathEpochRecord>>> =
        BTreeMap::new();
    for r in &dataset.paths {
        by_pair
            .entry((r.src.clone(), r.dst.clone()))
            .or_default()
            .entry(r.epoch)
            .or_default()
            .push(r);
    }
    let epoch_ms = (epoch_secs * 1000) as f64;

    policies
        .iter()
        .map(|policy| {
            let mut rtt_samples: Vec<f64> = Vec::new();
            let mut outage_epochs = 0u64;
            let mut gaps: Vec<u64> = Vec::new();
            let mut switches = 0u64;
            let mut epochs_replayed = 0u64;
            for per_epoch in by_pair.values() {
                let mut view = PathStatsView::default();
                let candidates: Vec<Candidate> = {
                    let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
                    for records in per_epoch.values() {
                        for r in records {
                            seen.entry(r.fingerprint.as_str()).or_insert(r.hops);
                        }
                    }
                    seen.into_iter()
                        .map(|(fp, hops)| Candidate {
                            fingerprint: fp.to_string(),
                            hops: hops as usize,
                        })
                        .collect()
                };
                let mut prev_choice: Option<String> = None;
                let mut gap_run = 0u64;
                for records in per_epoch.values() {
                    epochs_replayed += 1;
                    let choice = policy
                        .select(&view, &candidates)
                        .map(|c| c.fingerprint.clone());
                    if let (Some(p), Some(c)) = (&prev_choice, &choice) {
                        if p != c {
                            switches += 1;
                        }
                    }
                    let achieved = choice.as_ref().and_then(|fp| {
                        records
                            .iter()
                            .find(|r| &r.fingerprint == fp)
                            .filter(|r| r.alive)
                            .and_then(|r| r.rtt_p50_ms)
                    });
                    match achieved {
                        Some(rtt) => {
                            rtt_samples.push(rtt);
                            if gap_run > 0 {
                                gaps.push(gap_run);
                                gap_run = 0;
                            }
                        }
                        None => {
                            // The application does not skip an epoch whose
                            // selected path is dead — it times out. Count
                            // the epoch at the retransmission-timeout
                            // ceiling so a policy spending >1% of epochs
                            // in outage shows it in its p99.
                            rtt_samples.push(OUTAGE_RTO_MS);
                            outage_epochs += 1;
                            gap_run += 1;
                        }
                    }
                    prev_choice = choice;
                    for r in records {
                        view.observe(r);
                    }
                }
                if gap_run > 0 {
                    gaps.push(gap_run);
                }
            }
            rtt_samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let quantile = |q: f64| -> f64 {
                if rtt_samples.is_empty() {
                    return 0.0;
                }
                let idx = ((q * rtt_samples.len() as f64).ceil() as usize)
                    .saturating_sub(1)
                    .min(rtt_samples.len() - 1);
                rtt_samples[idx]
            };
            let mean_gap_ms = if gaps.is_empty() {
                0.0
            } else {
                gaps.iter().sum::<u64>() as f64 * epoch_ms / gaps.len() as f64
            };
            let max_gap_ms = gaps.iter().max().copied().unwrap_or(0) as f64 * epoch_ms;
            PolicyOutcome {
                policy: policy.name().to_string(),
                epochs: epochs_replayed,
                p50_ms: quantile(0.5),
                p99_ms: quantile(0.99),
                outage_epochs,
                failover_gaps: gaps.len() as u64,
                mean_gap_ms,
                max_gap_ms,
                switches,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: u64, fp: &str, p50: Option<f64>, alive: bool, lifetime: u64) -> PathEpochRecord {
        PathEpochRecord {
            v: SCHEMA_VERSION,
            epoch,
            t_unix: 1_700_000_000 + epoch * 30,
            src: "71-1".into(),
            dst: "71-2".into(),
            fingerprint: fp.into(),
            hops: 3,
            probes: 2,
            replies: if p50.is_some() { 2 } else { 0 },
            loss: if p50.is_some() { 0.0 } else { 1.0 },
            rtt_p50_ms: p50,
            rtt_p90_ms: p50.map(|v| v * 1.1),
            rtt_p99_ms: p50.map(|v| v * 1.2),
            alive,
            scmp_dead: false,
            age_epochs: epoch,
            lifetime_epochs: lifetime,
            generation: 1,
        }
    }

    fn tiny_dataset() -> DynamicsDataset {
        DynamicsDataset {
            seed: 7,
            paths: vec![
                rec(0, "a", Some(20.0), true, 1),
                rec(0, "b", Some(50.0), true, 1),
                rec(1, "a", Some(22.0), true, 2),
                rec(1, "b", Some(48.0), true, 2),
                rec(2, "a", None, false, 0),
                rec(2, "b", Some(49.0), true, 3),
            ],
            events: vec![ChurnRecord {
                v: SCHEMA_VERSION,
                epoch: 2,
                t_unix: 1_700_000_060,
                src: "71-1".into(),
                dst: "71-2".into(),
                fingerprint: "a".into(),
                kind: "disappear".into(),
                cause: Some("3 consecutive probe losses".into()),
            }],
        }
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let d = tiny_dataset();
        let (paths, events) = (d.paths_jsonl(), d.events_jsonl());
        let back = DynamicsDataset::from_jsonl(d.seed, &paths, &events).unwrap();
        assert_eq!(back, d);
        // And byte-stable through a second render.
        assert_eq!(back.paths_jsonl(), paths);
        assert_eq!(back.events_jsonl(), events);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let d = tiny_dataset();
        d.validate().unwrap();

        let mut bad = d.clone();
        bad.paths[2].epoch = 0; // duplicate epoch for path "a"
        assert!(bad.validate().unwrap_err().contains("monotone"));

        let mut bad = d.clone();
        bad.paths[0].v = 99;
        assert!(bad.validate().unwrap_err().contains("schema version"));

        let mut bad = d.clone();
        bad.paths[0].loss = 1.5;
        assert!(bad.validate().unwrap_err().contains("loss"));

        let mut bad = d.clone();
        bad.events[0].kind = "mutate".into();
        assert!(bad.validate().unwrap_err().contains("unknown kind"));

        let mut bad = d;
        bad.events[0].kind = "appear".into();
        assert!(bad.validate().unwrap_err().contains("no cause"));
    }

    #[test]
    fn summary_counts_and_lifetimes() {
        let s = tiny_dataset().summary();
        assert_eq!(s.epochs, 3);
        assert_eq!(s.pairs, 1);
        assert_eq!(s.paths, 2);
        assert_eq!(s.records, 6);
        assert_eq!((s.appear, s.disappear, s.failover), (0, 1, 0));
        assert!(s.churn_per_epoch > 0.0);
        // Path "a" lived 2 epochs, path "b" 3.
        assert_eq!(s.lifetime_cdf.last().unwrap().1, 3);
        assert!((s.mean_lifetime_epochs - 2.5).abs() < 1e-9);
        assert!(s.rtt_cv >= 0.0);
    }

    #[test]
    fn replay_scores_static_vs_adaptive() {
        // "a" is shortest-ranked and dies at epoch 2; "b" is steady.
        let out = replay_policies(
            &tiny_dataset(),
            30,
            &[AdaptivePolicy::Static, AdaptivePolicy::latency_loss()],
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].policy, "static");
        assert_eq!(out[1].policy, "latency_loss");
        // Both replay the same epochs; outcomes are finite and ordered.
        assert_eq!(out[0].epochs, 3);
        assert!(out[0].p50_ms > 0.0);
        assert!(out[1].p50_ms > 0.0);
    }

    #[test]
    fn replay_view_lags_selection_by_one_epoch() {
        // At epoch 2 the latency policy still selects on epochs 0-1 data:
        // "a" (20ms) over "b" (50ms) — so it eats a's death at epoch 2.
        let out = replay_policies(&tiny_dataset(), 30, &[AdaptivePolicy::latency_loss()]);
        assert_eq!(out[0].outage_epochs, 1);
        assert_eq!(out[0].failover_gaps, 1);
        assert!((out[0].max_gap_ms - 30_000.0).abs() < 1e-9);
    }
}
