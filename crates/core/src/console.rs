//! The operator console (§4.4's monitoring surface).
//!
//! One handle, three views of a running network:
//!
//! * [`OperatorConsole::prometheus`] — the full metrics registry in
//!   Prometheus text exposition, ready for a scrape endpoint;
//! * [`OperatorConsole::render`] — a live health table (one row per probed
//!   path, scores, RTT quantiles, churn count) plus counter *rates* since
//!   the previous render;
//! * [`OperatorConsole::snapshot_json`] — the raw snapshot as JSON, the
//!   archival format the rate computation diffs against.
//!
//! Rates are computed by JSON-round-tripping the previous snapshot — the
//! console diffs exactly what an external consumer would have archived, so
//! the arithmetic is guaranteed to survive serialization.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use sciera_telemetry::{counter_rates, prometheus_text, CounterRate, Telemetry, TelemetrySnapshot};
use scion_control::epoch::EpochPathDb;
use scion_orchestrator::health::HealthBoard;

use crate::network::Inner;

/// How many counter-rate lines a render shows at most.
const MAX_RATE_LINES: usize = 12;

/// How many profiler hotspots the `hotspots:` line shows at most.
const MAX_HOTSPOTS: usize = 5;

/// A live operator view over one network's telemetry and health board.
pub struct OperatorConsole {
    telemetry: Telemetry,
    health: Arc<Mutex<HealthBoard>>,
    net: Arc<Mutex<Inner>>,
    pathdb: EpochPathDb,
    /// The previous render's snapshot (JSON round-tripped) and sim time.
    last: Option<(u64, TelemetrySnapshot)>,
}

impl OperatorConsole {
    pub(crate) fn new(
        telemetry: Telemetry,
        health: Arc<Mutex<HealthBoard>>,
        net: Arc<Mutex<Inner>>,
        pathdb: EpochPathDb,
    ) -> Self {
        OperatorConsole {
            telemetry,
            health,
            net,
            pathdb,
            last: None,
        }
    }

    /// Prometheus text exposition of the current metrics registry,
    /// including the scale-observatory resource gauges and (in `profile`
    /// builds) the `profile.self_ns.*` self-time gauges.
    pub fn prometheus(&self) -> String {
        self.refresh_observatory();
        prometheus_text(&self.telemetry.snapshot())
    }

    /// Pushes point-in-time resource state (path-database/segment-store
    /// footprints) and the profiler's self-time tree into the metrics
    /// registry so snapshots and expositions carry them.
    fn refresh_observatory(&self) {
        self.pathdb.record_resource_gauges();
        self.telemetry.publish_profile();
    }

    /// The current telemetry snapshot as JSON — the archival format that
    /// [`render`](Self::render) diffs against for rates.
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string(&self.telemetry.snapshot()).unwrap_or_default()
    }

    /// Counter rates between two archived JSON snapshots taken `dt_secs`
    /// apart (what an external dashboard would compute from two scrapes).
    pub fn rates_between(prev_json: &str, cur_json: &str, dt_secs: f64) -> Vec<CounterRate> {
        let Ok(prev) = serde_json::from_str::<TelemetrySnapshot>(prev_json) else {
            return Vec::new();
        };
        let Ok(cur) = serde_json::from_str::<TelemetrySnapshot>(cur_json) else {
            return Vec::new();
        };
        counter_rates(&prev, &cur, dt_secs)
    }

    /// Renders the live console: health table, churn count, and counter
    /// rates since the previous `render` call (rates are omitted on the
    /// first call — there is nothing to diff yet).
    pub fn render(&mut self) -> String {
        let now = self.net.lock().now_unix;
        self.refresh_observatory();
        let snap = self.telemetry.snapshot();
        let (rows, churn) = {
            let board = self.health.lock();
            (board.rows(), board.churn_events().len())
        };

        let mut out = String::new();
        let _ = writeln!(out, "SCIERA operator console — t={now}");
        let _ = writeln!(
            out,
            "{:<14} {:<14} {:<14} {:<5} {:>6} {:>5} {:>5} {:>9} {:>9}",
            "src", "dst", "path", "state", "score", "sent", "lost", "p50ms", "p90ms"
        );
        if rows.is_empty() {
            let _ = writeln!(out, "(no probed paths — register_probe_pair + probe_round)");
        }
        for r in &rows {
            let fp: String = r.fingerprint.chars().take(14).collect();
            let _ = writeln!(
                out,
                "{:<14} {:<14} {:<14} {:<5} {:>6.1} {:>5} {:>5} {:>9.3} {:>9.3}",
                r.src.to_string(),
                r.dst.to_string(),
                fp,
                if r.alive { "up" } else { "DOWN" },
                r.score,
                r.sent,
                r.lost,
                r.p50_ms,
                r.p90_ms,
            );
        }
        let _ = writeln!(out, "churn events: {churn}");

        // Forwarding fast-path health: in-place hits vs decode fallbacks,
        // MAC-verification cache effectiveness, frame-pool occupancy.
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        let g = |name: &str| snap.gauge(name).unwrap_or(0);
        let _ = writeln!(
            out,
            "fastpath: {} hit / {} fallback — mac cache: {} hit / {} miss / {} evict — pool: {} free / {} outstanding",
            c("router.fastpath.hit"),
            c("router.fastpath.fallback"),
            c("router.maccache.hit"),
            c("router.maccache.miss"),
            c("router.maccache.evict"),
            g("pool.frame.free"),
            g("pool.frame.outstanding"),
        );

        // Batched traffic plane: pipeline throughput split (batched vs
        // peeled-to-fallback frames), amortised MAC verification, and the
        // flow generator's offered load.
        let _ = writeln!(
            out,
            "batch: {} calls / {} frames / {} peeled — mac: {} batched / {} dedup — flowgen: {} flows ({} done), {} pkts ({} elephant), load {}%",
            c("router.batch.calls"),
            c("router.batch.frames"),
            c("router.batch.peeled"),
            c("router.batch.mac_batched"),
            c("router.batch.mac_dedup"),
            c("flowgen.flows.started"),
            c("flowgen.flows.completed"),
            c("flowgen.packets"),
            c("flowgen.packets.elephant"),
            g("flowgen.load_pct"),
        );

        // Control-plane fast path: combination-cache effectiveness, the
        // store generation the cache validates against, and beacon
        // batching (offers per batched neighbor pass, verify-cache hits).
        let _ = writeln!(
            out,
            "pathdb: {} hit / {} miss / {} evict / {} invalidate / {} revalidate — store gen {} — beacon batches: {} ({} beacons, verify {} hit / {} miss)",
            c("pathdb.cache.hit"),
            c("pathdb.cache.miss"),
            c("pathdb.cache.evict"),
            c("pathdb.cache.invalidate"),
            c("pathdb.cache.revalidate"),
            g("store.generation"),
            c("beacon.batch.count"),
            c("beacon.batch.beacons"),
            c("beacon.batch.verify_hit"),
            c("beacon.batch.verify_miss"),
        );

        // Admission control: overload posture of the combination budget.
        // Shed counts are the operator's signal that clients are being
        // turned away and the budget (or the cache) needs resizing.
        let _ = writeln!(
            out,
            "admission: {} shed / {} queued — {} combines in flight",
            c("pathdb.shed"),
            c("pathdb.admission.wait"),
            g("pathdb.inflight"),
        );

        // Scale observatory: resource footprints (current and
        // peak-since-snapshot where tracked) plus the profiler's top
        // self-time scopes. With the `profile` feature off the hotspots
        // line reports that attribution is compiled out.
        let _ = writeln!(
            out,
            "scale: pathdb {} entries / {} B — store {} segments / {} B — shard depth {} (peak {}) — pool hwm {}",
            g("pathdb.cache.entries"),
            g("pathdb.cache.bytes"),
            g("store.segments"),
            g("store.interned_bytes"),
            g("dispatcher.shard.depth"),
            g("dispatcher.shard.depth.peak"),
            g("pool.frame.high_watermark"),
        );
        // Path-dynamics observatory: campaign progress, live path count,
        // churn emitted by the current campaign, and the most recent
        // failover gap the engine closed. All zeros until a
        // `sciera_measure::dynamics` campaign runs over this network.
        let _ = writeln!(
            out,
            "dynamics: epoch {} ({} done) — {} live paths — churn {} total ({} last epoch) — {} events injected — last failover gap {}ms",
            g("dynamics.epoch"),
            c("dynamics.epochs"),
            g("dynamics.live_paths"),
            c("dynamics.churn_records"),
            g("dynamics.churn_last_epoch"),
            c("dynamics.events_injected"),
            g("dynamics.last_failover_gap_ms"),
        );

        let report = self.telemetry.profile_report();
        let ranked = report.ranked_self_time();
        if ranked.is_empty() {
            let _ = writeln!(
                out,
                "hotspots: (none — build with --features profile for self-time attribution)"
            );
        } else {
            let tops = ranked
                .iter()
                .take(MAX_HOTSPOTS)
                .map(|(name, ns)| format!("{name} {:.1}ms", *ns as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "hotspots: {tops}");
        }

        if let Some((t0, prev)) = &self.last {
            let dt = now.saturating_sub(*t0) as f64;
            let mut rates: Vec<CounterRate> = counter_rates(prev, &snap, dt)
                .into_iter()
                .filter(|r| r.delta > 0)
                .collect();
            rates.sort_by(|a, b| b.delta.cmp(&a.delta).then(a.name.cmp(&b.name)));
            if rates.len() > MAX_RATE_LINES {
                let hidden = rates.len() - MAX_RATE_LINES;
                rates.truncate(MAX_RATE_LINES);
                let _ = writeln!(
                    out,
                    "rates since last render ({dt}s, {hidden} more hidden):"
                );
            } else {
                let _ = writeln!(out, "rates since last render ({dt}s):");
            }
            for r in &rates {
                let _ = writeln!(
                    out,
                    "  {:<36} +{:<8} {:>10.3}/s",
                    r.name, r.delta, r.per_sec
                );
            }
        }

        // Archive this snapshot the way a consumer would — through JSON.
        let archived = serde_json::to_string(&snap)
            .ok()
            .and_then(|j| serde_json::from_str(&j).ok())
            .unwrap_or(snap);
        self.last = Some((now, archived));
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::network::{NetworkConfig, SciEraNetwork};
    use scion_proto::addr::ia;

    #[test]
    fn console_reports_dynamics_campaign_state() {
        use sciera_measure::dynamics::{run_campaign, DynamicsConfig};
        let mut net = SciEraNetwork::build(NetworkConfig::default());
        let telemetry = net.telemetry();
        let mut console = net.console();
        let idle = console.render();
        assert!(
            idle.contains("dynamics: epoch 0 (0 done)"),
            "quiet before any campaign:\n{idle}"
        );

        let cfg = DynamicsConfig {
            epochs: 6,
            kill_every: 2,
            kill_duration: 1,
            latency_every: 3,
            ..DynamicsConfig::default()
        };
        let pairs = [(ia("71-225"), ia("71-2:0:3b"))];
        let dataset = run_campaign(&mut net, &pairs, &cfg, &telemetry);
        assert!(!dataset.paths.is_empty());

        let live = console.render();
        assert!(
            live.contains("dynamics: epoch 5 (6 done)"),
            "campaign progress surfaces:\n{live}"
        );
        assert!(!live.contains(" 0 live paths"), "{live}");
        let prom = console.prometheus();
        assert!(prom.contains("sciera_dynamics_live_paths"), "{prom}");
        assert!(prom.contains("sciera_dynamics_epochs"), "{prom}");
    }

    #[test]
    fn console_renders_health_table_and_rates() {
        let net = SciEraNetwork::build(NetworkConfig::default());
        let n = net.register_probe_pair(ia("71-225"), ia("71-88"));
        assert!(n >= 1);
        let mut console = net.console();

        let first = console.render();
        assert!(first.contains("no probed paths") || first.contains("71-225"));

        net.probe_round();
        net.advance_time(10);
        net.probe_round();
        let second = console.render();
        assert!(second.contains("71-225"), "table row present:\n{second}");
        assert!(second.contains("up"), "live path is up:\n{second}");
        assert!(second.contains("churn events:"), "{second}");
        assert!(second.contains("fastpath:"), "{second}");
        assert!(second.contains("mac cache:"), "{second}");
        assert!(second.contains("batch:"), "{second}");
        assert!(second.contains("flowgen:"), "{second}");
        assert!(second.contains("pathdb:"), "{second}");
        assert!(second.contains("beacon batches:"), "{second}");
        assert!(second.contains("admission:"), "{second}");
        assert!(second.contains("shed"), "{second}");
        assert!(second.contains("scale: pathdb"), "{second}");
        assert!(second.contains("dynamics: epoch"), "{second}");
        assert!(second.contains("last failover gap"), "{second}");
        assert!(second.contains("hotspots:"), "{second}");
        if cfg!(feature = "profile") {
            assert!(
                !second.contains("hotspots: (none"),
                "profiled build attributes self time:\n{second}"
            );
        }
        assert!(
            second.contains("prober.echo_sent"),
            "echo counter moved between renders:\n{second}"
        );

        let prom = console.prometheus();
        assert!(prom.contains("# TYPE sciera_prober_echo_sent counter"));
        assert!(prom.contains("sciera_health_rtt_ms{quantile=\"0.5\"}"));
        // Path-DB cache counters and the store generation gauge are part
        // of the exposition (paths were looked up by register_probe_pair).
        assert!(prom.contains("sciera_pathdb_cache_miss"), "{prom}");
        assert!(prom.contains("sciera_store_generation"), "{prom}");
        // Scale-observatory resource gauges ride the same exposition.
        assert!(prom.contains("sciera_pathdb_cache_entries"), "{prom}");
        assert!(prom.contains("sciera_store_interned_bytes"), "{prom}");
    }

    #[test]
    fn rates_between_json_snapshots() {
        let net = SciEraNetwork::build(NetworkConfig::default());
        net.register_probe_pair(ia("71-225"), ia("71-88"));
        let console = net.console();
        let before = console.snapshot_json();
        net.probe_round();
        let after = console.snapshot_json();
        let rates = super::OperatorConsole::rates_between(&before, &after, 5.0);
        let sent = rates
            .iter()
            .find(|r| r.name == "prober.echo_sent")
            .expect("prober counter in diff");
        assert!(sent.delta >= 1);
        assert!(sent.per_sec > 0.0);
    }
}
