//! Measurement-driven adaptive path selection.
//!
//! The path-dynamics observatory (`sciera_measure::dynamics`) turns probe
//! campaigns into per-path time series — RTT quantiles, loss, liveness,
//! churn — one record per path per epoch. This module closes the loop:
//! it consumes exactly those records through a rolling [`PathStatsView`]
//! and ranks candidate paths with policies that react to what was
//! *measured*, not just to what the control plane advertises:
//!
//! * [`AdaptivePolicy::Static`] — the baseline: hop-count order with
//!   SCMP-dead paths excluded, i.e. what [`crate::PathSelector`] does with
//!   `Preference::Shortest`. It reacts to interface-down notifications
//!   but never to measured latency or loss.
//! * [`AdaptivePolicy::LatencyLoss`] — ranks by smoothed p50 RTT plus a
//!   tail-weighted p99 component and a loss penalty (§4.7's "switching
//!   paths instantly if performance worsens", driven by data).
//! * [`AdaptivePolicy::ChurnAware`] — [`AdaptivePolicy::LatencyLoss`]
//!   plus a flap penalty per observed liveness transition, so repeatedly
//!   failing paths are avoided *before* their next outage.
//!
//! Policies are identified by a stable [`AdaptivePolicy::fingerprint`]
//! which composes (XOR) with the control plane's
//! `scion_control::policy::policy_fingerprint`, so adaptive variants of
//! the same filter policy occupy distinct memoization slots.

use std::collections::HashMap;

use scion_control::fullpath::FullPath;

/// One dataset record's worth of measurement for one path — the in-process
/// mirror of the exporter's per-path-per-epoch JSONL record.
#[derive(Debug, Clone, PartialEq)]
pub struct PathObservation {
    /// The path's stable fingerprint.
    pub fingerprint: String,
    /// Campaign epoch the observation belongs to.
    pub epoch: u64,
    /// Median RTT over the epoch, ms (absent when no probe answered).
    pub rtt_p50_ms: Option<f64>,
    /// 99th-percentile RTT over the epoch, ms.
    pub rtt_p99_ms: Option<f64>,
    /// Probe loss fraction over the epoch (0..=1).
    pub loss: f64,
    /// Liveness verdict at the end of the epoch.
    pub alive: bool,
    /// Whether the path was killed by an SCMP interface-down correlation
    /// (as opposed to plain probe loss).
    pub scmp_dead: bool,
}

/// Rolling smoothed statistics for one path.
#[derive(Debug, Clone, Default)]
pub struct PathStats {
    /// EWMA of the per-epoch median RTT, ms.
    pub ewma_p50_ms: Option<f64>,
    /// EWMA of the per-epoch p99 RTT, ms.
    pub ewma_p99_ms: Option<f64>,
    /// EWMA of the per-epoch loss fraction.
    pub ewma_loss: f64,
    /// Liveness transitions (up → down) observed so far.
    pub flaps: u64,
    /// Liveness verdict of the latest observation.
    pub alive: bool,
    /// SCMP-dead flag of the latest observation.
    pub scmp_dead: bool,
    /// Observations folded in.
    pub observations: u64,
}

/// A rolling, in-process view over dataset records: one [`PathStats`] per
/// fingerprint, updated observation by observation. Feed it the campaign's
/// epoch records in epoch order and hand it to
/// [`AdaptivePolicy::select`] — the selection loop of the observatory.
#[derive(Debug, Clone)]
pub struct PathStatsView {
    stats: HashMap<String, PathStats>,
    alpha: f64,
}

impl Default for PathStatsView {
    fn default() -> Self {
        PathStatsView::new()
    }
}

impl PathStatsView {
    /// An empty view with the standard EWMA factor.
    pub fn new() -> Self {
        PathStatsView {
            stats: HashMap::new(),
            alpha: 0.3,
        }
    }

    /// Folds one observation into the per-path statistics.
    pub fn observe(&mut self, obs: &PathObservation) {
        let s = self.stats.entry(obs.fingerprint.clone()).or_default();
        let was_alive = if s.observations == 0 { true } else { s.alive };
        if !obs.alive && was_alive {
            s.flaps += 1;
        }
        let alpha = self.alpha;
        let fold = |e: &mut Option<f64>, v: Option<f64>| {
            if let Some(v) = v {
                *e = Some(match *e {
                    Some(prev) => prev * (1.0 - alpha) + v * alpha,
                    None => v,
                });
            }
        };
        fold(&mut s.ewma_p50_ms, obs.rtt_p50_ms);
        fold(&mut s.ewma_p99_ms, obs.rtt_p99_ms);
        s.ewma_loss = if s.observations == 0 {
            obs.loss
        } else {
            s.ewma_loss * (1.0 - alpha) + obs.loss * alpha
        };
        s.alive = obs.alive;
        s.scmp_dead = obs.scmp_dead;
        s.observations += 1;
    }

    /// The rolling statistics for a path, if it has been observed.
    pub fn stats(&self, fingerprint: &str) -> Option<&PathStats> {
        self.stats.get(fingerprint)
    }

    /// Number of paths with at least one observation.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether no path has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

/// A selectable path: the minimum a policy needs, so selection works on
/// dataset records alone (no control-plane objects required at replay
/// time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The path's stable fingerprint.
    pub fingerprint: String,
    /// AS-level hop count (the static baseline's only signal).
    pub hops: usize,
}

impl Candidate {
    /// A candidate carrying a concrete path's identity.
    pub fn of(path: &FullPath) -> Candidate {
        Candidate {
            fingerprint: path.fingerprint(),
            hops: path.len(),
        }
    }
}

/// Where a candidate lands in the ranking before cost is compared:
/// live known paths first, unmeasured paths next, dead paths last.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathScore {
    /// Coarse class: 0 = usable, 1 = unmeasured, 2 = believed dead.
    pub bucket: u8,
    /// Within-bucket cost, milliseconds-equivalent (lower is better).
    pub cost_ms: f64,
}

/// A measurement-driven selection policy over [`PathStatsView`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptivePolicy {
    /// The baseline: hop-count order, SCMP-dead paths excluded. Blind to
    /// measured RTT and loss — what the stock selector does today.
    Static,
    /// Latency- and loss-aware: smoothed p50 plus tail weight plus a loss
    /// penalty.
    LatencyLoss {
        /// Milliseconds of cost charged per unit of smoothed loss
        /// fraction (e.g. 1000.0 ⇒ 10% loss costs 100 ms).
        loss_penalty_ms: f64,
        /// Weight of the (p99 − p50) tail spread added to the cost.
        p99_weight: f64,
    },
    /// [`AdaptivePolicy::LatencyLoss`] plus a penalty per observed
    /// liveness flap — repeatedly failing paths are avoided before they
    /// fail again.
    ChurnAware {
        /// Milliseconds of cost per unit of smoothed loss fraction.
        loss_penalty_ms: f64,
        /// Weight of the (p99 − p50) tail spread.
        p99_weight: f64,
        /// Milliseconds of cost per observed up→down transition.
        flap_penalty_ms: f64,
    },
}

impl AdaptivePolicy {
    /// The canonical latency/loss-aware configuration.
    pub fn latency_loss() -> AdaptivePolicy {
        AdaptivePolicy::LatencyLoss {
            loss_penalty_ms: 1000.0,
            p99_weight: 0.5,
        }
    }

    /// The canonical churn-penalizing configuration.
    pub fn churn_aware() -> AdaptivePolicy {
        AdaptivePolicy::ChurnAware {
            loss_penalty_ms: 1000.0,
            p99_weight: 0.5,
            flap_penalty_ms: 40.0,
        }
    }

    /// Short stable policy name (dataset and benchmark label).
    pub fn name(&self) -> &'static str {
        match self {
            AdaptivePolicy::Static => "static",
            AdaptivePolicy::LatencyLoss { .. } => "latency_loss",
            AdaptivePolicy::ChurnAware { .. } => "churn_aware",
        }
    }

    /// Stable 64-bit fingerprint of the policy and its parameters,
    /// composable (XOR) with the control plane's policy fingerprints so
    /// adaptive variants of one filter occupy distinct memoization slots.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        fold(self.name().as_bytes());
        match self {
            AdaptivePolicy::Static => {}
            AdaptivePolicy::LatencyLoss {
                loss_penalty_ms,
                p99_weight,
            } => {
                fold(&loss_penalty_ms.to_bits().to_le_bytes());
                fold(&p99_weight.to_bits().to_le_bytes());
            }
            AdaptivePolicy::ChurnAware {
                loss_penalty_ms,
                p99_weight,
                flap_penalty_ms,
            } => {
                fold(&loss_penalty_ms.to_bits().to_le_bytes());
                fold(&p99_weight.to_bits().to_le_bytes());
                fold(&flap_penalty_ms.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Scores one candidate against the current view.
    pub fn score(&self, view: &PathStatsView, c: &Candidate) -> PathScore {
        let stats = view.stats(&c.fingerprint);
        match self {
            AdaptivePolicy::Static => {
                // The stock selector only reacts to SCMP notifications;
                // loss-dead and slow paths look identical to healthy ones.
                let bucket = match stats {
                    Some(s) if s.scmp_dead => 2,
                    _ => 0,
                };
                PathScore {
                    bucket,
                    cost_ms: c.hops as f64,
                }
            }
            AdaptivePolicy::LatencyLoss {
                loss_penalty_ms,
                p99_weight,
            } => measured_score(stats, c, *loss_penalty_ms, *p99_weight, 0.0),
            AdaptivePolicy::ChurnAware {
                loss_penalty_ms,
                p99_weight,
                flap_penalty_ms,
            } => measured_score(stats, c, *loss_penalty_ms, *p99_weight, *flap_penalty_ms),
        }
    }

    /// Candidates in selection order (best first): by bucket, then cost,
    /// then hop count, then fingerprint — a total, deterministic order.
    pub fn rank<'a>(
        &self,
        view: &PathStatsView,
        candidates: &'a [Candidate],
    ) -> Vec<&'a Candidate> {
        let mut scored: Vec<(&Candidate, PathScore)> = candidates
            .iter()
            .map(|c| (c, self.score(view, c)))
            .collect();
        scored.sort_by(|(a, sa), (b, sb)| {
            sa.bucket
                .cmp(&sb.bucket)
                .then_with(|| sa.cost_ms.partial_cmp(&sb.cost_ms).unwrap())
                .then_with(|| a.hops.cmp(&b.hops))
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        scored.into_iter().map(|(c, _)| c).collect()
    }

    /// The best candidate under this policy, if any.
    pub fn select<'a>(
        &self,
        view: &PathStatsView,
        candidates: &'a [Candidate],
    ) -> Option<&'a Candidate> {
        self.rank(view, candidates).first().copied()
    }
}

fn measured_score(
    stats: Option<&PathStats>,
    c: &Candidate,
    loss_penalty_ms: f64,
    p99_weight: f64,
    flap_penalty_ms: f64,
) -> PathScore {
    match stats {
        Some(s) => {
            let bucket = if !s.alive { 2 } else { 0 };
            let p50 = s.ewma_p50_ms.unwrap_or(c.hops as f64 * 100.0);
            let tail = s.ewma_p99_ms.map(|p99| (p99 - p50).max(0.0)).unwrap_or(0.0);
            PathScore {
                bucket,
                cost_ms: p50
                    + p99_weight * tail
                    + loss_penalty_ms * s.ewma_loss
                    + flap_penalty_ms * s.flaps as f64,
            }
        }
        // Never-measured paths rank after everything measured-and-alive:
        // prefer the devil we know, explore only when nothing else lives.
        None => PathScore {
            bucket: 1,
            cost_ms: c.hops as f64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(fp: &str, epoch: u64, p50: f64, loss: f64, alive: bool) -> PathObservation {
        PathObservation {
            fingerprint: fp.into(),
            epoch,
            rtt_p50_ms: alive.then_some(p50),
            rtt_p99_ms: alive.then_some(p50 * 1.2),
            loss,
            alive,
            scmp_dead: false,
        }
    }

    fn cands() -> Vec<Candidate> {
        vec![
            Candidate {
                fingerprint: "short".into(),
                hops: 3,
            },
            Candidate {
                fingerprint: "long".into(),
                hops: 5,
            },
        ]
    }

    #[test]
    fn static_ranks_by_hops_and_ignores_latency() {
        let mut view = PathStatsView::new();
        view.observe(&obs("short", 1, 500.0, 0.0, true));
        view.observe(&obs("long", 1, 20.0, 0.0, true));
        let c = cands();
        assert_eq!(
            AdaptivePolicy::Static
                .select(&view, &c)
                .unwrap()
                .fingerprint,
            "short"
        );
    }

    #[test]
    fn latency_loss_prefers_measured_fast_path() {
        let mut view = PathStatsView::new();
        view.observe(&obs("short", 1, 500.0, 0.0, true));
        view.observe(&obs("long", 1, 20.0, 0.0, true));
        let c = cands();
        assert_eq!(
            AdaptivePolicy::latency_loss()
                .select(&view, &c)
                .unwrap()
                .fingerprint,
            "long"
        );
    }

    #[test]
    fn loss_penalty_moves_selection() {
        let mut view = PathStatsView::new();
        view.observe(&obs("short", 1, 100.0, 0.3, true));
        view.observe(&obs("long", 1, 110.0, 0.0, true));
        let c = cands();
        assert_eq!(
            AdaptivePolicy::latency_loss()
                .select(&view, &c)
                .unwrap()
                .fingerprint,
            "long"
        );
    }

    #[test]
    fn dead_paths_rank_last_for_adaptive() {
        let mut view = PathStatsView::new();
        view.observe(&obs("short", 1, 20.0, 0.0, true));
        view.observe(&obs("long", 1, 80.0, 0.0, true));
        view.observe(&obs("short", 2, 20.0, 1.0, false));
        let c = cands();
        assert_eq!(
            AdaptivePolicy::latency_loss()
                .select(&view, &c)
                .unwrap()
                .fingerprint,
            "long"
        );
        // Static, blind to loss-death, stays on the shortest.
        assert_eq!(
            AdaptivePolicy::Static
                .select(&view, &c)
                .unwrap()
                .fingerprint,
            "short"
        );
    }

    #[test]
    fn scmp_death_excludes_for_static_too() {
        let mut view = PathStatsView::new();
        let mut o = obs("short", 1, 20.0, 1.0, false);
        o.scmp_dead = true;
        view.observe(&o);
        view.observe(&obs("long", 1, 80.0, 0.0, true));
        let c = cands();
        assert_eq!(
            AdaptivePolicy::Static
                .select(&view, &c)
                .unwrap()
                .fingerprint,
            "long"
        );
    }

    #[test]
    fn churn_penalty_prefers_stable_paths() {
        let mut view = PathStatsView::new();
        // "short" flaps three times; "long" is steady but slower.
        for e in 0..6u64 {
            let down = e % 2 == 1;
            view.observe(&obs("short", e, 20.0, if down { 1.0 } else { 0.0 }, !down));
            view.observe(&obs("long", e, 60.0, 0.0, true));
        }
        // End the series with "short" alive so plain latency/loss picks it.
        view.observe(&obs("short", 6, 20.0, 0.0, true));
        view.observe(&obs("long", 6, 60.0, 0.0, true));
        let c = cands();
        assert_eq!(
            AdaptivePolicy::churn_aware()
                .select(&view, &c)
                .unwrap()
                .fingerprint,
            "long"
        );
        assert!(view.stats("short").unwrap().flaps >= 3);
    }

    #[test]
    fn unmeasured_ranks_after_measured_alive() {
        let mut view = PathStatsView::new();
        view.observe(&obs("long", 1, 300.0, 0.0, true));
        let c = cands();
        assert_eq!(
            AdaptivePolicy::latency_loss()
                .select(&view, &c)
                .unwrap()
                .fingerprint,
            "long"
        );
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = AdaptivePolicy::latency_loss();
        let b = AdaptivePolicy::churn_aware();
        assert_eq!(
            a.fingerprint(),
            AdaptivePolicy::latency_loss().fingerprint()
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), AdaptivePolicy::Static.fingerprint());
        let c = AdaptivePolicy::LatencyLoss {
            loss_penalty_ms: 500.0,
            p99_weight: 0.5,
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
