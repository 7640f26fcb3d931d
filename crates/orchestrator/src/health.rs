//! Path-health aggregation: the one engine for path liveness, scoring
//! every (src, dst, path), detecting healthy-set churn and rolling both up
//! into §4.4's per-destination alerting.
//!
//! The paper reads the network through exactly these lenses: per-path RTT
//! distributions (Fig. 6), the size of the active-path set over time
//! (Fig. 8), outage timelines correlated with SCMP notifications (§5.4),
//! and "our system alerts the affected parties" (§4.4). The
//! [`HealthBoard`] is the aggregation point: the prober feeds it one
//! [`EchoOutcome`] per probe, it keeps rolling RTT quantiles
//! (log-bucketed histograms), loss counts and a liveness verdict per path,
//! and at the end of every probing round it compares each pair's healthy
//! path set against the previous round — emitting exactly one
//! [`ChurnEvent`] per pair per change — and marks a destination AS
//! unreachable while no probed path to it is alive.
//!
//! Paths are keyed by [`FullPath::fingerprint_key`], and each remembers
//! whether it was in its pair's healthy set when the last round closed, so
//! closing a round compares flags and allocates nothing unless the set
//! changed. The churn log keeps keys too, and a path's [`DownReason`] is a
//! value, not text. Hex fingerprints are rendered only where a string
//! leaves the board (churn events and rows); key order is hex order, so
//! both list paths in fingerprint order.
//!
//! [`FullPath::fingerprint_key`]: scion_control::fullpath::FullPath::fingerprint_key

use std::collections::BTreeMap;
use std::fmt;

use sciera_telemetry::{Counter, Event, Gauge, Histogram, Severity, Telemetry};
use scion_control::fullpath::fingerprint_hex;
use scion_proto::addr::IsdAsn;

use crate::prober::EchoOutcome;

/// Consecutive probe losses after which a path is declared down even
/// without an SCMP notification. The one liveness threshold: the
/// per-destination rollup reads path verdicts and has none of its own.
pub const LOSS_LIVENESS_THRESHOLD: u32 = 3;

/// Why a path was declared down. Its `Display` is the text `events.jsonl`
/// carries as a disappearance's `cause`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownReason {
    /// This many probes in a row were lost, reaching
    /// [`LOSS_LIVENESS_THRESHOLD`].
    Losses(u32),
    /// An SCMP `ExternalInterfaceDown` named an interface the path crosses.
    ExtIfDown {
        /// AS that originated the notification.
        ia: IsdAsn,
        /// The dead interface.
        interface: u64,
    },
}

impl fmt::Display for DownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DownReason::Losses(n) => write!(f, "{n} consecutive probe losses"),
            DownReason::ExtIfDown { ia, interface } => write!(f, "ext-if-down {ia}#{interface}"),
        }
    }
}

/// Rolling health state of one concrete path.
#[derive(Debug)]
pub struct PathHealth {
    /// (AS, interface) pairs the path traverses, for SCMP correlation.
    pub interfaces: Vec<(IsdAsn, u16)>,
    /// Probes sent.
    pub sent: u64,
    /// Probes lost (including SCMP-refused ones).
    pub lost: u64,
    /// Whether the path currently counts as healthy.
    pub alive: bool,
    /// Why the path was declared down, when it is.
    pub down_reason: Option<DownReason>,
    consecutive_losses: u32,
    rtt: Histogram,
    /// Member of the pair's healthy set when the last round closed.
    in_baseline: bool,
    /// Probed since the last round closed.
    probed: bool,
}

impl PathHealth {
    fn new(interfaces: Vec<(IsdAsn, u16)>) -> Self {
        PathHealth {
            interfaces,
            sent: 0,
            lost: 0,
            alive: true,
            down_reason: None,
            consecutive_losses: 0,
            rtt: Histogram::default(),
            in_baseline: false,
            probed: false,
        }
    }

    /// Member of the pair's healthy set: alive and probed.
    fn healthy(&self) -> bool {
        self.alive && self.sent > 0
    }

    /// Declares the path down for `reason`, if it is alive.
    fn kill(&mut self, reason: DownReason, paths_down: &Counter) {
        if self.alive {
            self.alive = false;
            self.down_reason = Some(reason);
            paths_down.inc();
        }
    }

    /// Loss fraction over the path's lifetime.
    fn loss_rate(&self) -> f64 {
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

/// A [`ChurnEvent`] as the board keeps it: the keys of the paths that
/// entered (`true`) or left the healthy set, in key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Churn {
    /// Source AS.
    pub src: IsdAsn,
    /// Destination AS.
    pub dst: IsdAsn,
    /// Unix time of the round that detected the change.
    pub at_unix: u64,
    /// `(fingerprint key, entered)` per path that changed, in key order.
    pub changes: Vec<([u8; 8], bool)>,
}

impl Churn {
    /// The keys of the paths that entered (`true`) or left the healthy set.
    pub fn keys(&self, entered: bool) -> impl Iterator<Item = [u8; 8]> + '_ {
        let changed = self.changes.iter().filter(move |c| c.1 == entered);
        changed.map(|c| c.0)
    }

    /// The change with its paths as hex fingerprints.
    fn render(&self) -> ChurnEvent {
        let hex = |entered| self.keys(entered).map(|k| fingerprint_hex(&k)).collect();
        ChurnEvent {
            src: self.src,
            dst: self.dst,
            at_unix: self.at_unix,
            added: hex(true),
            removed: hex(false),
        }
    }
}

#[derive(Default)]
struct PairState {
    /// Probed paths by fingerprint key.
    paths: BTreeMap<[u8; 8], PathHealth>,
    /// Whether a round has closed over the pair: the first one sets the
    /// paths' `in_baseline` flags without counting as churn.
    baseline_set: bool,
}

/// §4.4's view of one destination AS, rolled up from the paths to it that
/// the closing round probed. A path no longer registered is not probed, so
/// its last verdict does not count.
#[derive(Default)]
struct Reach {
    /// This round probed some path to the destination.
    probed: bool,
    /// This round found some path to the destination alive.
    reached: bool,
    /// Unreachable since an outage alert; cleared by the recovery alert.
    down: bool,
}

/// The per-pair, per-path health aggregation layer.
pub struct HealthBoard {
    telemetry: Telemetry,
    pairs: BTreeMap<(IsdAsn, IsdAsn), PairState>,
    destinations: BTreeMap<IsdAsn, Reach>,
    churn_log: Vec<Churn>,
    churn_counter: Counter,
    extif_correlated: Counter,
    paths_down: Counter,
    outage_alerts: Counter,
    recovery_notices: Counter,
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
            outage_alerts: telemetry.counter("health.outage_alerts"),
            recovery_notices: telemetry.counter("health.recovery_notices"),
            healthy_gauge: telemetry.gauge("health.healthy_paths"),
            rtt_ms: telemetry.histogram("health.rtt_ms"),
            telemetry,
            pairs: BTreeMap::new(),
            destinations: BTreeMap::new(),
            churn_log: Vec::new(),
        }
    }

    /// Feeds one probe outcome into the board for the path whose
    /// [`FullPath::fingerprint_key`] is `key`. `interfaces` yields the
    /// probed path's (AS, interface) sequence and is asked the first time
    /// the board sees the path only; it is kept to correlate SCMP
    /// external-interface-down notifications: a notification naming an
    /// interface the path actually traverses kills the path immediately,
    /// without waiting for the loss threshold.
    ///
    /// [`FullPath::fingerprint_key`]: scion_control::fullpath::FullPath::fingerprint_key
    pub fn observe(
        &mut self,
        src: IsdAsn,
        dst: IsdAsn,
        key: [u8; 8],
        interfaces: impl FnOnce() -> Vec<(IsdAsn, u16)>,
        outcome: &EchoOutcome,
    ) {
        let pair = self.pairs.entry((src, dst)).or_default();
        let path = pair
            .paths
            .entry(key)
            .or_insert_with(|| PathHealth::new(interfaces()));
        path.sent += 1;
        path.probed = true;
        match *outcome {
            EchoOutcome::Reply { rtt_ms } => {
                path.consecutive_losses = 0;
                path.alive = true;
                path.down_reason = None;
                path.rtt.record(rtt_ms);
                self.rtt_ms.record(rtt_ms);
            }
            EchoOutcome::Lost => {
                path.lost += 1;
                path.consecutive_losses += 1;
                if path.consecutive_losses >= LOSS_LIVENESS_THRESHOLD {
                    let reason = DownReason::Losses(path.consecutive_losses);
                    path.kill(reason, &self.paths_down);
                }
            }
            EchoOutcome::ExtIfDown { ia, interface } => {
                path.lost += 1;
                path.consecutive_losses += 1;
                let on_path = path
                    .interfaces
                    .iter()
                    .any(|&(pia, pif)| pia == ia && u64::from(pif) == interface);
                if on_path {
                    self.extif_correlated.inc();
                    path.kill(DownReason::ExtIfDown { ia, interface }, &self.paths_down);
                }
            }
        }
    }

    /// Closes a probing round: recomputes every pair's healthy set,
    /// compares it with the previous round's and logs exactly one
    /// [`Churn`] per changed pair; then raises one outage alert for each
    /// destination AS that no path this round probed reaches any more, and
    /// one recovery notice for each that such a path reaches again.
    pub fn finish_round(&mut self, now_unix: u64) {
        let mut healthy_total = 0u64;
        for ((src, dst), pair) in &mut self.pairs {
            let mut healthy = 0usize;
            let mut changes = Vec::new();
            let mut probed = false;
            let mut reached = false;
            for (key, p) in &mut pair.paths {
                let probed_now = std::mem::take(&mut p.probed);
                probed |= probed_now;
                reached |= probed_now && p.alive;
                healthy += usize::from(p.healthy());
                if p.healthy() != p.in_baseline {
                    p.in_baseline = p.healthy();
                    // The first round over a pair sets its baseline
                    // without counting as churn.
                    if pair.baseline_set {
                        changes.push((*key, p.in_baseline));
                    }
                }
            }
            healthy_total += healthy as u64;
            pair.baseline_set = true;
            if probed {
                let reach = self.destinations.entry(*dst).or_default();
                reach.probed = true;
                reach.reached |= reached;
            }
            if changes.is_empty() {
                continue;
            }
            self.churn_counter.inc();
            if self.telemetry.enabled(Severity::Info) {
                let added = changes.iter().filter(|c| c.1).count();
                self.telemetry.emit(
                    Event::new(
                        now_unix.saturating_mul(1_000_000_000),
                        src.to_string(),
                        "health",
                        Severity::Info,
                        "healthy path set changed",
                    )
                    .field("dst", dst)
                    .field("added", added)
                    .field("removed", changes.len() - added)
                    .field("healthy", healthy),
                );
            }
            self.churn_log.push(Churn {
                src: *src,
                dst: *dst,
                at_unix: now_unix,
                changes,
            });
        }
        self.healthy_gauge.set(healthy_total);

        for (dst, reach) in &mut self.destinations {
            let down = !std::mem::take(&mut reach.reached);
            if !std::mem::take(&mut reach.probed) || down == reach.down {
                continue;
            }
            reach.down = down;
            let (counter, severity, message) = if down {
                let m = "destination unreachable on every probed path";
                (&self.outage_alerts, Severity::Warn, m)
            } else {
                let m = "destination reachable again";
                (&self.recovery_notices, Severity::Info, m)
            };
            counter.inc();
            if self.telemetry.enabled(severity) {
                let at = now_unix.saturating_mul(1_000_000_000);
                let event = Event::new(at, dst.to_string(), "health", severity, message);
                self.telemetry.emit(event.field("dst", dst));
            }
        }
    }

    /// Forgets the paths of `src → dst` whose key `keep` rejects: the pair's
    /// probe set was replaced, and a path no longer probed has no verdict to
    /// show. Its row leaves [`Self::rows`], [`Self::pair_score`], the
    /// `health.healthy_paths` gauge and the pair's churn baseline, and
    /// dropping it logs no churn.
    pub fn forget_paths(&mut self, src: IsdAsn, dst: IsdAsn, keep: impl Fn(&[u8; 8]) -> bool) {
        let Some(pair) = self.pairs.get_mut(&(src, dst)) else {
            return;
        };
        pair.paths.retain(|key, _| keep(key));
        let healthy = self.pairs.values().flat_map(|pair| pair.paths.values());
        self.healthy_gauge
            .set(healthy.filter(|p| p.healthy()).count() as u64);
    }

    /// Every churn event observed so far, oldest first.
    pub fn churn_events(&self) -> Vec<ChurnEvent> {
        self.churn_log.iter().map(Churn::render).collect()
    }

    /// The churn logged after the first `seen` entries, oldest first: a
    /// reader that keeps count reads each entry once.
    pub fn churn_since(&self, seen: usize) -> &[Churn] {
        self.churn_log.get(seen..).unwrap_or_default()
    }

    /// How many churn events have been observed so far.
    pub fn churn_count(&self) -> usize {
        self.churn_log.len()
    }

    /// Destination ASes between their outage alert and their recovery
    /// notice, in order.
    pub fn unreachable(&self) -> impl Iterator<Item = IsdAsn> + '_ {
        let down = self.destinations.iter().filter(|(_, r)| r.down);
        down.map(|(dst, _)| *dst)
    }

    /// Mean path score of a pair, if it has been probed.
    pub fn pair_score(&self, src: IsdAsn, dst: IsdAsn) -> Option<f64> {
        let pair = self.pairs.get(&(src, dst))?;
        let n = pair.paths.len();
        (n > 0).then(|| pair.paths.values().map(|p| p.score()).sum::<f64>() / n as f64)
    }

    /// The health state of the path whose fingerprint key is `key`.
    pub fn path(&self, src: IsdAsn, dst: IsdAsn, key: [u8; 8]) -> Option<&PathHealth> {
        self.pairs.get(&(src, dst))?.paths.get(&key)
    }

    /// The console's health table: one row per (src, dst, path), sorted.
    pub fn rows(&self) -> Vec<HealthRow> {
        let mut rows = Vec::new();
        for ((src, dst), pair) in &self.pairs {
            for (key, p) in &pair.paths {
                rows.push(HealthRow {
                    src: *src,
                    dst: *dst,
                    fingerprint: fingerprint_hex(key),
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

    /// Two path keys; `P1` sorts first.
    const P1: [u8; 8] = [0x0a, 0, 0, 0, 0, 0, 0, 1];
    const P2: [u8; 8] = [0xb0, 0, 0, 0, 0, 0, 0, 2];

    /// An SCMP report of an interface `ifaces` crosses.
    fn dead() -> EchoOutcome {
        EchoOutcome::ExtIfDown {
            ia: ia("71-10"),
            interface: 21,
        }
    }

    /// The churn logged by the round that closes at `now`.
    fn close(b: &mut HealthBoard, now: u64) -> Vec<ChurnEvent> {
        let seen = b.churn_count();
        b.finish_round(now);
        b.churn_since(seen).iter().map(Churn::render).collect()
    }

    #[test]
    fn first_round_sets_baseline_without_churn() {
        let mut b = board();
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &reply(10.0));
        assert!(close(&mut b, 100).is_empty());
        assert!(b.churn_events().is_empty());
        assert_eq!(b.pair_score(ia("71-100"), ia("71-1")), Some(100.0));
    }

    #[test]
    fn interfaces_are_asked_for_on_first_sight_only() {
        let mut b = board();
        let mut asked = 0;
        for round in 0..3 {
            for key in [P1, P2] {
                let interfaces = || {
                    asked += 1;
                    ifaces()
                };
                b.observe(ia("71-100"), ia("71-1"), key, interfaces, &reply(10.0));
            }
            b.finish_round(100 + round);
        }
        assert_eq!(asked, 2, "once per path, not once per probe");
        for key in [P1, P2] {
            let p = b.path(ia("71-100"), ia("71-1"), key).unwrap();
            assert_eq!(p.sent, 3);
            assert_eq!(p.interfaces, ifaces());
        }
    }

    #[test]
    fn ext_if_down_on_path_kills_immediately_one_churn() {
        let mut b = board();
        for _ in 0..2 {
            b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &reply(10.0));
            b.finish_round(100);
        }
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &dead());
        let events = close(&mut b, 200);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].removed, vec![fingerprint_hex(&P1)]);
        assert!(events[0].added.is_empty());
        // A later identical round produces no further churn.
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &dead());
        assert!(close(&mut b, 300).is_empty());
        assert_eq!(b.churn_events().len(), 1);
        let p = b.path(ia("71-100"), ia("71-1"), P1).unwrap();
        assert!(!p.alive);
        let reason = p.down_reason.unwrap();
        assert_eq!(reason.to_string(), "ext-if-down 71-10#21");
        assert_eq!(b.pair_score(ia("71-100"), ia("71-1")), Some(0.0));
    }

    #[test]
    fn ext_if_down_off_path_does_not_kill() {
        let mut b = board();
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &reply(10.0));
        b.finish_round(100);
        let unrelated = EchoOutcome::ExtIfDown {
            ia: ia("71-20"),
            interface: 99,
        };
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &unrelated);
        assert!(close(&mut b, 200).is_empty());
        assert!(b.path(ia("71-100"), ia("71-1"), P1).unwrap().alive);
    }

    #[test]
    fn loss_threshold_declares_down_and_recovery_restores() {
        let mut b = board();
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &reply(10.0));
        b.finish_round(100);
        for _ in 0..LOSS_LIVENESS_THRESHOLD {
            b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &EchoOutcome::Lost);
        }
        assert_eq!(close(&mut b, 200).len(), 1);
        let p = b.path(ia("71-100"), ia("71-1"), P1).unwrap();
        assert!(!p.alive);
        let reason = p.down_reason.unwrap();
        assert_eq!(reason.to_string(), "3 consecutive probe losses");
        // One successful probe brings it back — and that is churn again.
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &reply(11.0));
        let events = close(&mut b, 300);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].added, vec![fingerprint_hex(&P1)]);
        assert_eq!(b.churn_events().len(), 2);
        assert_eq!(
            b.path(ia("71-100"), ia("71-1"), P1).unwrap().down_reason,
            None
        );
    }

    /// Losses counted past the threshold while an off-path report kept the
    /// path alive are the count its reason gives.
    #[test]
    fn the_loss_reason_counts_every_loss_in_the_run() {
        let mut b = board();
        let off_path = EchoOutcome::ExtIfDown {
            ia: ia("71-20"),
            interface: 99,
        };
        for _ in 0..LOSS_LIVENESS_THRESHOLD {
            b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &off_path);
        }
        assert!(b.path(ia("71-100"), ia("71-1"), P1).unwrap().alive);
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &EchoOutcome::Lost);
        let p = b.path(ia("71-100"), ia("71-1"), P1).unwrap();
        assert_eq!(p.down_reason, Some(DownReason::Losses(4)));
        assert_eq!(
            p.down_reason.unwrap().to_string(),
            "4 consecutive probe losses"
        );
    }

    #[test]
    fn churn_lists_paths_in_fingerprint_order_and_rows_render_hex() {
        let mut b = board();
        let (src, dst) = (ia("71-100"), ia("71-1"));
        // P2 is seen first and P1 second, and both come and go together.
        for (outcome, round) in [(reply(10.0), 100), (dead(), 200), (reply(10.0), 300)] {
            for key in [P2, P1] {
                b.observe(src, dst, key, ifaces, &outcome);
            }
            b.finish_round(round);
        }
        let both = vec![fingerprint_hex(&P1), fingerprint_hex(&P2)];
        assert!(both[0] < both[1]);
        let events = b.churn_events();
        assert_eq!(events.len(), 2);
        assert_eq!((&events[0].added, &events[0].removed), (&vec![], &both));
        assert_eq!((&events[1].added, &events[1].removed), (&both, &vec![]));
        let rows: Vec<String> = b.rows().into_iter().map(|r| r.fingerprint).collect();
        assert_eq!(rows, both);
        // Read by count, the log hands out each entry once, with its keys.
        assert_eq!(b.churn_since(0).len(), 2);
        let last = &b.churn_since(1)[0];
        assert_eq!(last.keys(true).collect::<Vec<_>>(), [P1, P2]);
        assert_eq!(last.keys(false).count(), 0);
        assert!(b.churn_since(2).is_empty());
        assert!(b.churn_since(3).is_empty());
    }

    /// §4.4's rollup: a destination is unreachable while every probed path
    /// to it, from any source, is down when a round closes; one outage
    /// alert when that starts, one recovery notice when it ends.
    #[test]
    fn a_destination_alerts_once_per_outage_and_only_when_every_path_is_down() {
        let telemetry = Telemetry::new();
        let mut b = HealthBoard::new(telemetry.clone());
        let (a, c, dst) = (ia("71-100"), ia("71-200"), ia("71-1"));
        let alerts = |t: &Telemetry| {
            let snap = t.snapshot();
            let n = |name| snap.counter(name).unwrap_or(0);
            (n("health.outage_alerts"), n("health.recovery_notices"))
        };
        let round = |b: &mut HealthBoard, outcomes: [&EchoOutcome; 3], now| {
            b.observe(a, dst, P1, ifaces, outcomes[0]);
            b.observe(a, dst, P2, ifaces, outcomes[1]);
            b.observe(c, dst, P1, ifaces, outcomes[2]);
            b.finish_round(now);
        };
        let up = reply(10.0);
        round(&mut b, [&up, &up, &up], 100);
        // Two of three paths down: still reachable.
        round(&mut b, [&dead(), &dead(), &up], 200);
        assert_eq!(alerts(&telemetry), (0, 0));
        assert_eq!(b.unreachable().count(), 0);
        // The last one goes: one alert, and none while the outage lasts,
        // even as losses pile up on the dead paths.
        for now in [300, 400, 500] {
            round(&mut b, [&dead(), &EchoOutcome::Lost, &dead()], now);
        }
        assert_eq!(alerts(&telemetry), (1, 0));
        assert_eq!(b.unreachable().collect::<Vec<_>>(), [dst]);
        // One path answers again: one recovery notice.
        for now in [600, 700] {
            round(&mut b, [&dead(), &dead(), &up], now);
        }
        assert_eq!(alerts(&telemetry), (1, 1));
        assert_eq!(b.unreachable().count(), 0);
        // Re-registered to one dead path: the paths no longer probed keep
        // their last verdicts, which do not count. A round that probes
        // nothing towards the destination changes nothing.
        b.observe(a, dst, P1, ifaces, &dead());
        b.finish_round(800);
        b.finish_round(900);
        assert_eq!(alerts(&telemetry), (2, 1));
        assert!(b.path(c, dst, P1).unwrap().alive);
        let messages: Vec<String> = telemetry
            .flight_recorder()
            .events()
            .into_iter()
            .filter(|e| e.node == dst.to_string())
            .map(|e| format!("{:?} {}", e.severity, e.message))
            .collect();
        assert_eq!(
            messages,
            [
                "Warn destination unreachable on every probed path",
                "Info destination reachable again",
                "Warn destination unreachable on every probed path",
            ]
        );
    }

    #[test]
    fn rows_and_quantiles() {
        let mut b = board();
        for i in 1..=10 {
            b.observe(
                ia("71-100"),
                ia("71-1"),
                P1,
                ifaces,
                &reply(10.0 * i as f64),
            );
        }
        b.observe(ia("71-100"), ia("71-1"), P1, ifaces, &EchoOutcome::Lost);
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
