//! The SCMP echo probing engine.
//!
//! The paper's measurement study (§5.4) and its operational monitoring
//! (§4.4) both rest on the same primitive: periodic SCMP echo over every
//! known path of every (src, dst) pair, long enough to turn single RTT
//! samples into longitudinal per-path health data. The prober is the
//! engine for that: it holds the registered path sets, drives echo
//! campaigns over an [`EchoTransport`], records RTT/loss per path and per
//! interface into telemetry, and feeds every outcome to the
//! [`crate::health::HealthBoard`].
//!
//! The prober deliberately keeps its *own* copy of each pair's path set
//! rather than re-querying the control plane each round: a freshly dead
//! path disappears from path lookups, but the prober must keep probing it
//! to confirm the outage and correlate it with the router's SCMP
//! external-interface-down notification.

use sciera_telemetry::{Counter, Event, Histogram, Severity, Telemetry};
use scion_control::fullpath::{fingerprint_hex, FullPath};
use scion_proto::addr::IsdAsn;

use crate::health::HealthBoard;

/// What came back (or didn't) for one echo probe.
#[derive(Debug, Clone, PartialEq)]
pub enum EchoOutcome {
    /// The echo reply arrived after `rtt_ms`.
    Reply {
        /// Round-trip time in milliseconds.
        rtt_ms: f64,
    },
    /// A router on the path answered with SCMP `ExternalInterfaceDown`.
    ExtIfDown {
        /// AS that originated the notification.
        ia: IsdAsn,
        /// The dead interface.
        interface: u64,
    },
    /// Nothing came back.
    Lost,
}

/// Something that can carry an SCMP echo over a concrete path and report
/// the outcome. `sciera-core` implements this on the simulated network;
/// a production implementation would sit on a PAN socket.
pub trait EchoTransport {
    /// Sends one echo request with `id`/`seq` from `src` to `dst` over
    /// `path` and waits for the verdict.
    fn echo(&mut self, src: IsdAsn, dst: IsdAsn, path: &FullPath, id: u16, seq: u16)
        -> EchoOutcome;
}

/// Consumer of dead-interface observations. The network wires this to the
/// memoized path database so a probe-confirmed
/// `ExternalInterfaceDown` immediately flushes every cached path
/// combination crossing the dead interface — the control-plane mirror of
/// the daemon's SCMP cache invalidation.
pub trait InvalidationSink {
    /// Called once per probe outcome that named a dead interface.
    fn interface_down(&mut self, ia: IsdAsn, ifid: u16);
}

impl<F: FnMut(IsdAsn, u16)> InvalidationSink for F {
    fn interface_down(&mut self, ia: IsdAsn, ifid: u16) {
        self(ia, ifid)
    }
}

/// SCMP echo identifier used for every probe (one prober, one id).
const ECHO_ID: u16 = 0xBEEF;

/// One probe's result, as returned from a round.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    /// Source AS.
    pub src: IsdAsn,
    /// Destination AS.
    pub dst: IsdAsn,
    /// The probed path's `FullPath::fingerprint_key`.
    pub key: [u8; 8],
    /// The outcome.
    pub outcome: EchoOutcome,
}

struct ProbePair {
    src: IsdAsn,
    dst: IsdAsn,
    paths: Vec<FullPath>,
}

/// Periodic per-path echo campaigns over a registered set of paths.
pub struct PathProber {
    telemetry: Telemetry,
    pairs: Vec<ProbePair>,
    seq: u16,
    sent: Counter,
    replies: Counter,
    lost: Counter,
    ext_if_down: Counter,
    rtt_ms: Histogram,
}

impl PathProber {
    /// A prober recording into `telemetry` under the `prober.*` names.
    pub fn new(telemetry: Telemetry) -> Self {
        PathProber {
            sent: telemetry.counter("prober.echo_sent"),
            replies: telemetry.counter("prober.echo_reply"),
            lost: telemetry.counter("prober.echo_lost"),
            ext_if_down: telemetry.counter("prober.ext_if_down"),
            rtt_ms: telemetry.histogram("prober.rtt_ms"),
            telemetry,
            pairs: Vec::new(),
            seq: 0,
        }
    }

    /// Registers (or replaces) the probed path set for a (src, dst) pair.
    pub fn register(&mut self, src: IsdAsn, dst: IsdAsn, paths: Vec<FullPath>) {
        if let Some(p) = self.pairs.iter_mut().find(|p| p.src == src && p.dst == dst) {
            p.paths = paths;
        } else {
            self.pairs.push(ProbePair { src, dst, paths });
        }
    }

    /// Runs one echo campaign: every registered path of every pair gets one
    /// probe. Outcomes land in telemetry, in `board`, and in the returned
    /// list; the board's round is closed afterwards so healthy-set churn is
    /// detected exactly once per campaign.
    pub fn run_round<T: EchoTransport>(
        &mut self,
        transport: &mut T,
        board: &mut HealthBoard,
        now_unix: u64,
    ) -> Vec<ProbeResult> {
        self.run_round_with_sink(transport, board, now_unix, &mut |_: IsdAsn, _: u16| {})
    }

    /// [`run_round`](Self::run_round) that additionally reports every
    /// probe-confirmed dead interface to `sink` (e.g. the path database's
    /// invalidation hook).
    pub fn run_round_with_sink<T: EchoTransport, S: InvalidationSink>(
        &mut self,
        transport: &mut T,
        board: &mut HealthBoard,
        now_unix: u64,
        sink: &mut S,
    ) -> Vec<ProbeResult> {
        let mut results = Vec::with_capacity(self.pairs.iter().map(|p| p.paths.len()).sum());
        for pair in &self.pairs {
            for path in &pair.paths {
                self.seq = self.seq.wrapping_add(1);
                self.sent.inc();
                let key = path.fingerprint_key();
                let outcome = transport.echo(pair.src, pair.dst, path, ECHO_ID, self.seq);
                match &outcome {
                    EchoOutcome::Reply { rtt_ms } => {
                        self.replies.inc();
                        self.rtt_ms.record(*rtt_ms);
                    }
                    EchoOutcome::ExtIfDown { ia, interface } => {
                        self.ext_if_down.inc();
                        if let Ok(ifid) = u16::try_from(*interface) {
                            sink.interface_down(*ia, ifid);
                        }
                        if self.telemetry.enabled(Severity::Warn) {
                            self.telemetry.emit(
                                Event::new(
                                    now_unix.saturating_mul(1_000_000_000),
                                    pair.src.to_string(),
                                    "prober",
                                    Severity::Warn,
                                    "probe hit a dead interface",
                                )
                                .field("dst", pair.dst)
                                .field("path", fingerprint_hex(&key))
                                .field("ia", ia)
                                .field("interface", interface),
                            );
                        }
                    }
                    EchoOutcome::Lost => {
                        self.lost.inc();
                    }
                }
                board.observe(pair.src, pair.dst, key, || path.interfaces(), &outcome);
                results.push(ProbeResult {
                    src: pair.src,
                    dst: pair.dst,
                    key,
                    outcome,
                });
            }
        }
        board.finish_round(now_unix);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{ChurnEvent, HealthBoard};
    use scion_control::fullpath::{Direction, PathKind, SegmentUse};
    use scion_control::segment::{AsSecrets, CowSegment, SegmentType};
    use scion_proto::addr::ia;

    fn test_path() -> FullPath {
        let mk = |s: &str| AsSecrets::derive(ia(s));
        let seg = CowSegment::originate(SegmentType::UpDown, 1_700_000_000, 0x11)
            .extend(&mk("71-1"), 0, 11, &[])
            .extend(&mk("71-10"), 21, 22, &[])
            .extend(&mk("71-100"), 31, 0, &[])
            .materialize();
        FullPath::assemble(
            ia("71-100"),
            ia("71-1"),
            PathKind::SingleSegment,
            vec![SegmentUse::whole(seg, Direction::AgainstCons)],
        )
        .unwrap()
    }

    struct ScriptedTransport(Vec<EchoOutcome>);
    impl EchoTransport for ScriptedTransport {
        fn echo(&mut self, _: IsdAsn, _: IsdAsn, _: &FullPath, _: u16, _: u16) -> EchoOutcome {
            self.0.remove(0)
        }
    }

    #[test]
    fn round_records_outcomes_and_metrics() {
        let tele = Telemetry::quiet();
        let mut prober = PathProber::new(tele.clone());
        prober.register(ia("71-100"), ia("71-1"), vec![test_path()]);
        let mut board = HealthBoard::new(tele.clone());
        let mut t = ScriptedTransport(vec![
            EchoOutcome::Reply { rtt_ms: 12.0 },
            EchoOutcome::Lost,
            EchoOutcome::ExtIfDown {
                ia: ia("71-10"),
                interface: 21,
            },
        ]);
        let key = test_path().fingerprint_key();
        for _ in 0..3 {
            let results = prober.run_round(&mut t, &mut board, 1_700_000_000);
            assert_eq!(results.iter().map(|r| r.key).collect::<Vec<_>>(), [key]);
        }
        let snap = tele.snapshot();
        assert_eq!(snap.counter("prober.echo_sent"), Some(3));
        assert_eq!(snap.counter("prober.echo_reply"), Some(1));
        assert_eq!(snap.counter("prober.echo_lost"), Some(1));
        assert_eq!(snap.counter("prober.ext_if_down"), Some(1));
        assert_eq!(snap.histogram("prober.rtt_ms").unwrap().count, 1);

        // What the board made of the three rounds: alive, one loss, then
        // killed by an ext-if-down naming an interface of the path.
        let fp = test_path().fingerprint();
        let health = board.path(ia("71-100"), ia("71-1"), key).unwrap();
        assert_eq!(health.interfaces, test_path().interfaces());
        let reason = health.down_reason.map(|r| r.to_string());
        assert_eq!(reason.as_deref(), Some("ext-if-down 71-10#21"));
        let rows = board.rows();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!((row.src, row.dst), (ia("71-100"), ia("71-1")));
        assert_eq!((row.fingerprint.as_str(), row.alive), (fp.as_str(), false));
        assert_eq!((row.sent, row.lost, row.score), (3, 2, 0.0));
        assert_eq!(row.p50_ms, health.p50_ms().unwrap());
        let churn = ChurnEvent {
            src: ia("71-100"),
            dst: ia("71-1"),
            at_unix: 1_700_000_000,
            added: vec![],
            removed: vec![fp],
        };
        assert_eq!(board.churn_events(), [churn]);
        assert_eq!(snap.counter("health.extif_correlated"), Some(1));
        assert_eq!(snap.counter("health.paths_down"), Some(1));
        assert_eq!(snap.counter("health.churn_events"), Some(1));
    }

    #[test]
    fn dead_interfaces_reach_the_invalidation_sink() {
        let tele = Telemetry::quiet();
        let mut prober = PathProber::new(tele.clone());
        prober.register(ia("71-100"), ia("71-1"), vec![test_path(), test_path()]);
        let mut board = HealthBoard::new(tele);
        let mut t = ScriptedTransport(vec![
            EchoOutcome::Reply { rtt_ms: 3.0 },
            EchoOutcome::ExtIfDown {
                ia: ia("71-10"),
                interface: 21,
            },
        ]);
        let mut seen: Vec<(IsdAsn, u16)> = Vec::new();
        let mut sink = |ia: IsdAsn, ifid: u16| seen.push((ia, ifid));
        prober.run_round_with_sink(&mut t, &mut board, 1_700_000_000, &mut sink);
        assert_eq!(seen, vec![(ia("71-10"), 21)]);
    }

    #[test]
    fn register_replaces_existing_pair() {
        let mut prober = PathProber::new(Telemetry::quiet());
        prober.register(ia("71-100"), ia("71-1"), vec![test_path()]);
        prober.register(ia("71-100"), ia("71-1"), vec![test_path(), test_path()]);
        let mut board = HealthBoard::new(Telemetry::quiet());
        let mut t = ScriptedTransport(vec![EchoOutcome::Lost, EchoOutcome::Lost]);
        let results = prober.run_round(&mut t, &mut board, 1_700_000_000);
        assert_eq!(results.len(), 2, "one pair, its second path set");
    }
}
