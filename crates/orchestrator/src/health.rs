//! Path-health aggregation: scoring every (src, dst, path) and detecting
//! healthy-set churn.
//!
//! The paper reads the network through exactly these lenses: per-path RTT
//! distributions (Fig. 6), the size of the active-path set over time
//! (Fig. 8), and outage timelines correlated with SCMP notifications
//! (§5.4). The [`HealthBoard`] is the aggregation point: the prober feeds
//! it one [`EchoOutcome`] per probe, it keeps rolling RTT quantiles
//! (log-bucketed histograms), loss counts and a liveness verdict per path,
//! and at the end of every probing round it compares each pair's healthy
//! path set against the previous round — emitting exactly one
//! [`ChurnEvent`] per pair per change.

use std::collections::{BTreeMap, BTreeSet};

use sciera_telemetry::{Counter, Event, Gauge, Histogram, Severity, Telemetry};
use scion_proto::addr::IsdAsn;

use crate::prober::EchoOutcome;

/// Consecutive probe losses after which a path is declared down even
/// without an SCMP notification.
pub const LOSS_LIVENESS_THRESHOLD: u32 = 3;

/// Rolling health state of one concrete path.
#[derive(Debug)]
pub struct PathHealth {
    /// The path's stable fingerprint.
    pub fingerprint: String,
    /// (AS, interface) pairs the path traverses, for SCMP correlation.
    pub interfaces: Vec<(IsdAsn, u16)>,
    /// Probes sent.
    pub sent: u64,
    /// Probes lost (including SCMP-refused ones).
    pub lost: u64,
    /// Whether the path currently counts as healthy.
    pub alive: bool,
    /// Why the path was declared down, when it is.
    pub down_reason: Option<String>,
    consecutive_losses: u32,
    rtt: Histogram,
}

impl PathHealth {
    fn new(fingerprint: String, interfaces: Vec<(IsdAsn, u16)>) -> Self {
        PathHealth {
            fingerprint,
            interfaces,
            sent: 0,
            lost: 0,
            alive: true,
            down_reason: None,
            consecutive_losses: 0,
            rtt: Histogram::default(),
        }
    }

    /// Loss fraction over the path's lifetime.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }

    /// Median RTT estimate, milliseconds.
    pub fn p50_ms(&self) -> Option<f64> {
        self.rtt.quantile(0.5)
    }

    /// 90th-percentile RTT estimate, milliseconds.
    pub fn p90_ms(&self) -> Option<f64> {
        self.rtt.quantile(0.9)
    }

    /// The rolling RTT histogram itself (for console quantiles / merging).
    pub fn rtt(&self) -> &Histogram {
        &self.rtt
    }

    /// Health score in `[0, 100]`: a dead path scores 0, a live one scores
    /// down from 100 with its loss rate.
    pub fn score(&self) -> f64 {
        if !self.alive {
            0.0
        } else {
            100.0 * (1.0 - self.loss_rate())
        }
    }
}

/// One healthy-set change for a (src, dst) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Source AS.
    pub src: IsdAsn,
    /// Destination AS.
    pub dst: IsdAsn,
    /// Unix time of the round that detected the change.
    pub at_unix: u64,
    /// Fingerprints that entered the healthy set.
    pub added: Vec<String>,
    /// Fingerprints that left the healthy set.
    pub removed: Vec<String>,
}

/// One row of the operator console's health table.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRow {
    /// Source AS.
    pub src: IsdAsn,
    /// Destination AS.
    pub dst: IsdAsn,
    /// Path fingerprint.
    pub fingerprint: String,
    /// Liveness verdict.
    pub alive: bool,
    /// Health score in `[0, 100]`.
    pub score: f64,
    /// Probes sent / lost.
    pub sent: u64,
    /// Probes lost.
    pub lost: u64,
    /// Median RTT (ms), 0 when unknown.
    pub p50_ms: f64,
    /// p90 RTT (ms), 0 when unknown.
    pub p90_ms: f64,
}

struct PairState {
    paths: BTreeMap<String, PathHealth>,
    /// Healthy set at the end of the previous round; `None` until the
    /// first round closes (the first observation sets the baseline
    /// without counting as churn).
    baseline: Option<BTreeSet<String>>,
}

/// The per-pair, per-path health aggregation layer.
pub struct HealthBoard {
    telemetry: Telemetry,
    pairs: BTreeMap<(IsdAsn, IsdAsn), PairState>,
    churn_log: Vec<ChurnEvent>,
    churn_counter: Counter,
    extif_correlated: Counter,
    paths_down: Counter,
    healthy_gauge: Gauge,
    rtt_ms: Histogram,
}

impl HealthBoard {
    /// A board recording into `telemetry` under the `health.*` names.
    pub fn new(telemetry: Telemetry) -> Self {
        HealthBoard {
            churn_counter: telemetry.counter("health.churn_events"),
            extif_correlated: telemetry.counter("health.extif_correlated"),
            paths_down: telemetry.counter("health.paths_down"),
            healthy_gauge: telemetry.gauge("health.healthy_paths"),
            rtt_ms: telemetry.histogram("health.rtt_ms"),
            telemetry,
            pairs: BTreeMap::new(),
            churn_log: Vec::new(),
        }
    }

    /// Feeds one probe outcome into the board. `interfaces` yields the
    /// probed path's (AS, interface) sequence and is asked the first time
    /// the board sees the path only; it is kept to correlate SCMP
    /// external-interface-down notifications: a notification naming an
    /// interface the path actually traverses kills the path immediately,
    /// without waiting for the loss threshold.
    pub fn observe(
        &mut self,
        src: IsdAsn,
        dst: IsdAsn,
        fingerprint: &str,
        interfaces: impl FnOnce() -> Vec<(IsdAsn, u16)>,
        outcome: &EchoOutcome,
    ) {
        let pair = self.pairs.entry((src, dst)).or_insert_with(|| PairState {
            paths: BTreeMap::new(),
            baseline: None,
        });
        if !pair.paths.contains_key(fingerprint) {
            let health = PathHealth::new(fingerprint.to_owned(), interfaces());
            pair.paths.insert(fingerprint.to_owned(), health);
        }
        let path = pair
            .paths
            .get_mut(fingerprint)
            .expect("inserted above if it was missing");
        path.sent += 1;
        match outcome {
            EchoOutcome::Reply { rtt_ms } => {
                path.consecutive_losses = 0;
                if !path.alive {
                    path.alive = true;
                    path.down_reason = None;
                }
                path.rtt.record(*rtt_ms);
                self.rtt_ms.record(*rtt_ms);
            }
            EchoOutcome::Lost => {
                path.lost += 1;
                path.consecutive_losses += 1;
                if path.alive && path.consecutive_losses >= LOSS_LIVENESS_THRESHOLD {
                    path.alive = false;
                    path.down_reason = Some(format!(
                        "{} consecutive probe losses",
                        path.consecutive_losses
                    ));
                    self.paths_down.inc();
                }
            }
            EchoOutcome::ExtIfDown { ia, interface } => {
                path.lost += 1;
                path.consecutive_losses += 1;
                let on_path = path
                    .interfaces
                    .iter()
                    .any(|(pia, pif)| pia == ia && u64::from(*pif) == *interface);
                if on_path {
                    self.extif_correlated.inc();
                    if path.alive {
                        path.alive = false;
                        path.down_reason = Some(format!("ext-if-down {ia}#{interface}"));
                        self.paths_down.inc();
                    }
                }
            }
        }
    }

    /// Closes a probing round: recomputes every pair's healthy set,
    /// compares it with the previous round's, and emits exactly one
    /// [`ChurnEvent`] per changed pair. Returns the events of this round.
    pub fn finish_round(&mut self, now_unix: u64) -> Vec<ChurnEvent> {
        let mut round_events = Vec::new();
        let mut healthy_total = 0u64;
        for ((src, dst), pair) in &mut self.pairs {
            let healthy: BTreeSet<String> = pair
                .paths
                .values()
                .filter(|p| p.alive && p.sent > 0)
                .map(|p| p.fingerprint.clone())
                .collect();
            healthy_total += healthy.len() as u64;
            match &pair.baseline {
                None => pair.baseline = Some(healthy),
                Some(prev) if *prev != healthy => {
                    let added: Vec<String> = healthy.difference(prev).cloned().collect();
                    let removed: Vec<String> = prev.difference(&healthy).cloned().collect();
                    let event = ChurnEvent {
                        src: *src,
                        dst: *dst,
                        at_unix: now_unix,
                        added,
                        removed,
                    };
                    self.churn_counter.inc();
                    if self.telemetry.enabled(Severity::Info) {
                        self.telemetry.emit(
                            Event::new(
                                now_unix.saturating_mul(1_000_000_000),
                                src.to_string(),
                                "health",
                                Severity::Info,
                                "healthy path set changed",
                            )
                            .field("dst", dst)
                            .field("added", event.added.len())
                            .field("removed", event.removed.len())
                            .field("healthy", healthy.len()),
                        );
                    }
                    round_events.push(event.clone());
                    self.churn_log.push(event);
                    pair.baseline = Some(healthy);
                }
                Some(_) => {}
            }
        }
        self.healthy_gauge.set(healthy_total);
        round_events
    }

    /// Every churn event observed so far, oldest first.
    pub fn churn_events(&self) -> &[ChurnEvent] {
        &self.churn_log
    }

    /// Mean path score of a pair, if it has been probed.
    pub fn pair_score(&self, src: IsdAsn, dst: IsdAsn) -> Option<f64> {
        let pair = self.pairs.get(&(src, dst))?;
        let n = pair.paths.len();
        (n > 0).then(|| pair.paths.values().map(|p| p.score()).sum::<f64>() / n as f64)
    }

    /// The health state of one concrete path.
    pub fn path(&self, src: IsdAsn, dst: IsdAsn, fingerprint: &str) -> Option<&PathHealth> {
        self.pairs.get(&(src, dst))?.paths.get(fingerprint)
    }

    /// The console's health table: one row per (src, dst, path), sorted.
    pub fn rows(&self) -> Vec<HealthRow> {
        let mut rows = Vec::new();
        for ((src, dst), pair) in &self.pairs {
            for p in pair.paths.values() {
                rows.push(HealthRow {
                    src: *src,
                    dst: *dst,
                    fingerprint: p.fingerprint.clone(),
                    alive: p.alive,
                    score: p.score(),
                    sent: p.sent,
                    lost: p.lost,
                    p50_ms: p.p50_ms().unwrap_or(0.0),
                    p90_ms: p.p90_ms().unwrap_or(0.0),
                });
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_proto::addr::ia;

    fn reply(rtt_ms: f64) -> EchoOutcome {
        EchoOutcome::Reply { rtt_ms }
    }

    fn board() -> HealthBoard {
        HealthBoard::new(Telemetry::quiet())
    }

    fn ifaces() -> Vec<(IsdAsn, u16)> {
        vec![(ia("71-100"), 31), (ia("71-10"), 22), (ia("71-10"), 21)]
    }

    #[test]
    fn first_round_sets_baseline_without_churn() {
        let mut b = board();
        b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &reply(10.0));
        assert!(b.finish_round(100).is_empty());
        assert!(b.churn_events().is_empty());
        assert_eq!(b.pair_score(ia("71-100"), ia("71-1")), Some(100.0));
    }

    #[test]
    fn interfaces_are_asked_for_on_first_sight_only() {
        let mut b = board();
        let mut asked = 0;
        for round in 0..3 {
            for fp in ["p1", "p2"] {
                let interfaces = || {
                    asked += 1;
                    ifaces()
                };
                b.observe(ia("71-100"), ia("71-1"), fp, interfaces, &reply(10.0));
            }
            b.finish_round(100 + round);
        }
        assert_eq!(asked, 2, "once per path, not once per probe");
        for fp in ["p1", "p2"] {
            let p = b.path(ia("71-100"), ia("71-1"), fp).unwrap();
            assert_eq!((p.fingerprint.as_str(), p.sent), (fp, 3));
            assert_eq!(p.interfaces, ifaces());
        }
    }

    #[test]
    fn ext_if_down_on_path_kills_immediately_one_churn() {
        let mut b = board();
        for _ in 0..2 {
            b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &reply(10.0));
            b.finish_round(100);
        }
        let down = EchoOutcome::ExtIfDown {
            ia: ia("71-10"),
            interface: 21,
        };
        b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &down);
        let events = b.finish_round(200);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].removed, vec!["p1".to_string()]);
        assert!(events[0].added.is_empty());
        // A later identical round produces no further churn.
        b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &down);
        assert!(b.finish_round(300).is_empty());
        assert_eq!(b.churn_events().len(), 1);
        let p = b.path(ia("71-100"), ia("71-1"), "p1").unwrap();
        assert!(!p.alive);
        assert!(p.down_reason.as_deref().unwrap().contains("ext-if-down"));
        assert_eq!(b.pair_score(ia("71-100"), ia("71-1")), Some(0.0));
    }

    #[test]
    fn ext_if_down_off_path_does_not_kill() {
        let mut b = board();
        b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &reply(10.0));
        b.finish_round(100);
        let unrelated = EchoOutcome::ExtIfDown {
            ia: ia("71-20"),
            interface: 99,
        };
        b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &unrelated);
        assert!(b.finish_round(200).is_empty());
        assert!(b.path(ia("71-100"), ia("71-1"), "p1").unwrap().alive);
    }

    #[test]
    fn loss_threshold_declares_down_and_recovery_restores() {
        let mut b = board();
        b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &reply(10.0));
        b.finish_round(100);
        for _ in 0..LOSS_LIVENESS_THRESHOLD {
            b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &EchoOutcome::Lost);
        }
        assert_eq!(b.finish_round(200).len(), 1);
        assert!(!b.path(ia("71-100"), ia("71-1"), "p1").unwrap().alive);
        // One successful probe brings it back — and that is churn again.
        b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &reply(11.0));
        let events = b.finish_round(300);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].added, vec!["p1".to_string()]);
        assert_eq!(b.churn_events().len(), 2);
    }

    #[test]
    fn rows_and_quantiles() {
        let mut b = board();
        for i in 1..=10 {
            b.observe(
                ia("71-100"),
                ia("71-1"),
                "p1",
                ifaces,
                &reply(10.0 * i as f64),
            );
        }
        b.observe(ia("71-100"), ia("71-1"), "p1", ifaces, &EchoOutcome::Lost);
        b.finish_round(100);
        let rows = b.rows();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.alive);
        assert_eq!((r.sent, r.lost), (11, 1));
        assert!(r.p50_ms > 40.0 && r.p50_ms < 70.0, "p50 {}", r.p50_ms);
        assert!(r.p90_ms > r.p50_ms);
        assert!(r.score > 90.0 && r.score < 100.0);
    }
}
