//! Property tests for the path-dynamics observatory's dataset exporter
//! (`sciera::measure::dynamics`).
//!
//! The mock network is *not* a re-implementation of the pipeline under
//! test: it wires the real `PathProber` and `HealthBoard` over a scripted
//! link universe, so the exporter is exercised against genuine probe
//! outcomes, churn transitions, and SCMP down-reasons. The pinned
//! invariants:
//!
//! * JSONL round-trips losslessly and byte-stably: `export → parse →
//!   export` reproduces the exact bytes, and the parsed dataset equals
//!   the original.
//! * Epochs are strictly monotone per (src, dst, fingerprint) series.
//! * Every appear/disappear churn record corresponds 1:1, in order, to a
//!   `HealthBoard` transition.
//! * Equal seeds over equal networks replay byte-for-byte.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sciera::control::fullpath::{FullPath, PathBody, PathHop, PathKind};
use sciera::measure::dynamics::{run_campaign, DynamicsConfig, DynamicsDataset, DynamicsNet};
use sciera::orchestrator::health::HealthBoard;
use sciera::orchestrator::prober::{
    EchoOutcome, EchoTransport, PathProber, ProbeResult, ProberConfig,
};
use sciera::prelude::*;

/// AS that owns (terminates) link `li` — the ingress side every path
/// crossing the link shares, so SCMP can name one canonical interface.
fn link_ia(li: usize) -> IsdAsn {
    ia(&format!("91-1:0:{:x}", li + 0x10))
}

/// The shared ingress interface id of link `li`.
fn link_ifid(li: usize) -> u16 {
    (2 * li + 2) as u16
}

/// Fabricates a concrete path crossing `links` in order between `src` and
/// `dst`. Hop interfaces encode the link sequence, so distinct sequences
/// get distinct fingerprints and `FullPath::interfaces` contains each
/// link's canonical `(link_ia, link_ifid)` pair.
fn path_over(src: IsdAsn, dst: IsdAsn, links: &[usize]) -> FullPath {
    let mut hops = vec![PathHop {
        ia: src,
        ingress: 0,
        egress: (2 * links[0] + 1) as u16,
    }];
    for w in links.windows(2) {
        hops.push(PathHop {
            ia: link_ia(w[0]),
            ingress: link_ifid(w[0]),
            egress: (2 * w[1] + 1) as u16,
        });
    }
    hops.push(PathHop {
        ia: dst,
        ingress: link_ifid(*links.last().unwrap()),
        egress: 0,
    });
    FullPath::from_body(PathBody {
        src,
        dst,
        kind: PathKind::SingleSegment,
        uses: Vec::new(),
        hops,
    })
}

/// Scripted link universe behind the real prober + health board.
struct MockNet {
    now: u64,
    links_up: Vec<bool>,
    lat_ms: Vec<f64>,
    nominal_ms: Vec<f64>,
    src: IsdAsn,
    dst: IsdAsn,
    paths: Vec<FullPath>,
    link_map: BTreeMap<String, Vec<usize>>,
    prober: PathProber,
    board: HealthBoard,
    generation: u64,
}

struct MockTransport<'a> {
    links_up: &'a [bool],
    lat_ms: &'a [f64],
    link_map: &'a BTreeMap<String, Vec<usize>>,
}

impl EchoTransport for MockTransport<'_> {
    fn echo(
        &mut self,
        _src: IsdAsn,
        _dst: IsdAsn,
        path: &FullPath,
        _id: u16,
        _seq: u16,
    ) -> EchoOutcome {
        let links = &self.link_map[&path.fingerprint()];
        for &li in links {
            if !self.links_up[li] {
                return EchoOutcome::ExtIfDown {
                    ia: link_ia(li),
                    interface: u64::from(link_ifid(li)),
                };
            }
        }
        EchoOutcome::Reply {
            rtt_ms: links
                .iter()
                .map(|&li| self.lat_ms[li])
                .sum::<f64>()
                .max(0.1),
        }
    }
}

impl MockNet {
    /// Builds the universe from per-path link sequences (deduplicated —
    /// identical sequences would collide on one fingerprint).
    fn build(n_links: usize, path_specs: &[Vec<usize>]) -> MockNet {
        let telemetry = Telemetry::quiet();
        let src = ia("91-1");
        let dst = ia("91-2");
        let nominal_ms: Vec<f64> = (0..n_links).map(|li| 5.0 + li as f64).collect();
        let mut paths = Vec::new();
        let mut link_map = BTreeMap::new();
        for spec in path_specs {
            // Keep each link at most once, preserving order.
            let mut links: Vec<usize> = Vec::new();
            for &li in spec {
                let li = li % n_links;
                if !links.contains(&li) {
                    links.push(li);
                }
            }
            let p = path_over(src, dst, &links);
            if link_map.insert(p.fingerprint(), links).is_none() {
                paths.push(p);
            }
        }
        MockNet {
            now: 1_700_000_000,
            links_up: vec![true; n_links],
            lat_ms: nominal_ms.clone(),
            nominal_ms,
            src,
            dst,
            paths,
            link_map,
            prober: PathProber::new(telemetry.clone(), ProberConfig::default()),
            board: HealthBoard::new(telemetry),
            generation: 0,
        }
    }
}

impl DynamicsNet for MockNet {
    fn now_unix(&self) -> u64 {
        self.now
    }

    fn advance_time(&mut self, secs: u64) {
        self.now += secs;
    }

    fn register_pair(&mut self, src: IsdAsn, dst: IsdAsn, max_paths: usize) -> Vec<FullPath> {
        let mut snapshot = self.paths.clone();
        snapshot.truncate(max_paths);
        self.prober.register(src, dst, snapshot.clone());
        snapshot
    }

    fn probe_round(&mut self) -> Vec<ProbeResult> {
        let mut transport = MockTransport {
            links_up: &self.links_up,
            lat_ms: &self.lat_ms,
            link_map: &self.link_map,
        };
        self.prober
            .run_round(&mut transport, &mut self.board, self.now)
    }

    fn churn_events(&self) -> Vec<sciera::orchestrator::health::ChurnEvent> {
        self.board.churn_events().to_vec()
    }

    fn path_state(
        &self,
        src: IsdAsn,
        dst: IsdAsn,
        fingerprint: &str,
    ) -> Option<(bool, Option<String>)> {
        self.board
            .path(src, dst, fingerprint)
            .map(|p| (p.alive, p.down_reason.clone()))
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn link_count(&self) -> usize {
        self.links_up.len()
    }

    fn path_links(&self, path: &FullPath) -> Vec<usize> {
        self.link_map
            .get(&path.fingerprint())
            .cloned()
            .unwrap_or_default()
    }

    fn set_link_up(&mut self, index: usize, up: bool) {
        self.links_up[index] = up;
        self.generation += 1;
    }

    fn set_link_latency_factor(&mut self, index: usize, factor: f64) {
        self.lat_ms[index] = self.nominal_ms[index] * factor;
        self.generation += 1;
    }
}

const N_LINKS: usize = 8;

fn arb_paths() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..N_LINKS, 1..4), 2..6)
}

fn arb_config() -> impl Strategy<Value = DynamicsConfig> {
    (
        4usize..14,
        0usize..4,
        1usize..3,
        0usize..4,
        1usize..3,
        1usize..3,
        any::<u64>(),
    )
        .prop_map(
            |(epochs, kill_every, kill_duration, latency_every, latency_duration, rounds, seed)| {
                DynamicsConfig {
                    epochs,
                    epoch_secs: 10,
                    rounds_per_epoch: rounds,
                    max_paths_per_pair: 8,
                    seed,
                    kill_every,
                    kill_duration,
                    kill_pool: 2,
                    latency_every,
                    latency_factor_max: 3.0,
                    latency_duration,
                }
            },
        )
}

fn run(specs: &[Vec<usize>], cfg: &DynamicsConfig) -> (MockNet, DynamicsDataset) {
    let mut net = MockNet::build(N_LINKS, specs);
    let telemetry = Telemetry::quiet();
    let pairs = [(net.src, net.dst)];
    let ds = run_campaign(&mut net, &pairs, cfg, &telemetry);
    (net, ds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jsonl_roundtrips_losslessly_and_validates(
        specs in arb_paths(),
        cfg in arb_config(),
    ) {
        let (net, ds) = run(&specs, &cfg);
        prop_assert!(ds.validate().is_ok(), "{:?}", ds.validate());
        prop_assert_eq!(ds.paths.len() as u64, (cfg.epochs * net.paths.len()) as u64);

        let telemetry = Telemetry::quiet();
        let (paths_jsonl, events_jsonl) = ds.export_jsonl(&telemetry);
        let parsed = DynamicsDataset::from_jsonl(ds.seed, &paths_jsonl, &events_jsonl)
            .expect("exported JSONL parses");
        prop_assert_eq!(&parsed.paths, &ds.paths);
        prop_assert_eq!(&parsed.events, &ds.events);
        let (paths2, events2) = parsed.export_jsonl(&telemetry);
        prop_assert_eq!(paths_jsonl, paths2, "re-export must be byte-stable");
        prop_assert_eq!(events_jsonl, events2);
    }

    #[test]
    fn epochs_are_strictly_monotone_per_path(
        specs in arb_paths(),
        cfg in arb_config(),
    ) {
        let (_, ds) = run(&specs, &cfg);
        let mut last: BTreeMap<(&str, &str, &str), u64> = BTreeMap::new();
        for r in &ds.paths {
            let key = (r.src.as_str(), r.dst.as_str(), r.fingerprint.as_str());
            if let Some(prev) = last.get(&key) {
                prop_assert!(
                    r.epoch > *prev,
                    "epoch {} after {} for {:?}",
                    r.epoch,
                    prev,
                    key
                );
            }
            last.insert(key, r.epoch);
        }
    }

    #[test]
    fn churn_records_match_board_transitions_one_to_one(
        specs in arb_paths(),
        cfg in arb_config(),
    ) {
        let (net, ds) = run(&specs, &cfg);
        // Expand the board's transition log exactly as the exporter must:
        // one appear per added fingerprint, one disappear per removed,
        // in log order.
        let mut expected: Vec<(String, String, u64)> = Vec::new();
        for ev in net.board.churn_events() {
            for fp in &ev.added {
                expected.push(("appear".into(), fp.clone(), ev.at_unix));
            }
            for fp in &ev.removed {
                expected.push(("disappear".into(), fp.clone(), ev.at_unix));
            }
        }
        let got: Vec<(String, String, u64)> = ds
            .events
            .iter()
            .filter(|e| e.kind != "failover")
            .map(|e| (e.kind.clone(), e.fingerprint.clone(), e.t_unix))
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn equal_seeds_replay_byte_for_byte(
        specs in arb_paths(),
        cfg in arb_config(),
    ) {
        let telemetry = Telemetry::quiet();
        let (_, a) = run(&specs, &cfg);
        let (_, b) = run(&specs, &cfg);
        let (ap, ae) = a.export_jsonl(&telemetry);
        let (bp, be) = b.export_jsonl(&telemetry);
        prop_assert_eq!(ap, bp, "paths.jsonl must be reproducible from the seed");
        prop_assert_eq!(ae, be, "events.jsonl must be reproducible from the seed");
    }
}
