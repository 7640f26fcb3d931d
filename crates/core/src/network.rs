//! The assembled network.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use sciera_measure::dynamics::DynamicsNet;
use sciera_telemetry::{Event, Severity, Telemetry};
use sciera_topology::ases::as_info;
use sciera_topology::links::{build_control_graph, BuiltTopology, PER_AS_OVERHEAD_MS};
use scion_bootstrap::server::{BootstrapServer, SignedTopology, TopologyDocument};
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::epoch::EpochPathDb;
use scion_control::fullpath::{FullPath, PathHop};
use scion_control::segment::AsSecrets;
use scion_cppki::ca::{CaService, ClientProfile};
use scion_cppki::cert::{CertType, Certificate, CertificateChain};
use scion_cppki::trc::{Trc, TrcKeyEntry};
use scion_crypto::sign::SigningKey;
use scion_daemon::trust::TrustStore;
pub use scion_dataplane::load::FrameLoadReport;
use scion_dataplane::router::{BorderRouter, FrameDecision, FrameError};
use scion_orchestrator::health::{ChurnEvent, HealthBoard, HealthRow};
use scion_orchestrator::prober::{EchoOutcome, EchoTransport, PathProber, ProbeResult};
use scion_orchestrator::renewal::{bootstrap_driver, RenewalAction, RenewalDriver};
use scion_proto::addr::{HostAddr, IsdAsn, IsdNumber, ScionAddr};
use scion_proto::encap::UnderlayAddr;
use scion_proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use scion_proto::scmp::{EchoHeader, ScmpMessage};
use scion_proto::trace::TraceContext;
use scion_proto::wire::{turn_around, PacketView};

use crate::console::OperatorConsole;

/// Most paths one lookup answers with, whoever asks: an operator through
/// [`SciEraNetwork::paths`] or a host through [`SimTransport`]'s
/// `lookup_paths`. The daemon's response-size cap, so the two see the same
/// answer a daemon would give.
pub const LOOKUP_MAX_PATHS: usize = scion_control::combine::DEFAULT_MAX_PATHS;

/// Errors from network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A router refused the packet.
    Dropped(String),
    /// The packet was forwarded onto a link that is administratively down.
    LinkDown {
        /// The AS whose egress link is down.
        at: IsdAsn,
        /// The dead egress interface.
        ifid: u16,
    },
    /// The packet looped or exceeded the hop budget.
    HopBudgetExceeded,
    /// Unknown AS or interface.
    Unknown(String),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Dropped(s) => write!(f, "dropped: {s}"),
            NetError::LinkDown { at, ifid } => write!(f, "link down at {at} interface {ifid}"),
            NetError::HopBudgetExceeded => write!(f, "hop budget exceeded"),
            NetError::Unknown(s) => write!(f, "unknown: {s}"),
        }
    }
}

/// A successful packet delivery.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The packet as delivered (headers rewritten along the way).
    pub packet: ScionPacket,
    /// The AS-level route actually taken.
    pub route: Vec<IsdAsn>,
    /// One-way latency accumulated over the crossed links, ms.
    pub latency_ms: f64,
}

/// Configuration for building the network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Beacon retention per origin.
    pub candidates_per_origin: usize,
    /// Unix time of the build (certificates/TRCs anchor here).
    pub now_unix: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            candidates_per_origin: 8,
            now_unix: 1_700_000_000,
        }
    }
}

/// Administrative link state, kept both ways it is asked about: a walker
/// holds a link index and asks whether that link is up; a lookup holds 200
/// paths and asks which of them touch *any* link that is down. Failure is
/// the exception, so the second view is the exceptions — a short sorted
/// list, empty while every link is up.
struct LinkState {
    /// Per link index: administratively down.
    down: Vec<bool>,
    /// Both `(AS, interface)` ends of every down link as [`if_key`]s,
    /// ascending.
    dead: Vec<u128>,
}

/// `(AS, interface)` as one ordered word, so that membership in the dead
/// list is a binary search over plain integers.
fn if_key(ia: IsdAsn, ifid: u16) -> u128 {
    (u128::from(ia.to_u64()) << 16) | u128::from(ifid)
}

impl LinkState {
    fn all_up(n_links: usize) -> Self {
        LinkState {
            down: vec![false; n_links],
            dead: Vec::new(),
        }
    }

    /// The only writer of either view, so they cannot disagree: link
    /// `index` of `topo` goes up or down. Nothing happens if it is already
    /// there, or if there is no such link.
    fn set(&mut self, topo: &BuiltTopology, index: usize, up: bool) {
        match self.down.get_mut(index) {
            // `down == up`: the link is not where it is asked to be.
            Some(down) if *down == up => *down = !up,
            _ => return,
        }
        for (ia, ifid) in topo.links[index].ends() {
            // An interface is dead when the link the topology's index
            // attaches there is down, as `crossing` would find it.
            if topo.link_index_of(ia, ifid) != Some(index) {
                continue;
            }
            let end = if_key(ia, ifid);
            match (self.dead.binary_search(&end), up) {
                (Err(at), false) => self.dead.insert(at, end),
                (Ok(at), true) => {
                    self.dead.remove(at);
                }
                _ => {}
            }
        }
    }
}

/// The data plane: topology, routers, link state, host inboxes, the echo
/// cache and the clock.
pub(crate) struct DataPlane {
    topo: BuiltTopology,
    /// One router per AS, indexed by `topo`'s node numbers: a walker looks
    /// its source AS up once (`BuiltTopology::node_of`) and carries the
    /// number from hop to hop.
    routers: Vec<BorderRouter>,
    links: LinkState,
    /// Build-time latency per link, so cost-change injections
    /// (`set_link_latency_factor`) scale relative to nominal instead of
    /// compounding.
    nominal_latency_ms: Vec<f64>,
    pub(crate) now_unix: u64,
    /// Host inboxes keyed by (AS, host address bytes).
    inboxes: BTreeMap<ScionAddr, VecDeque<ScionPacket>>,
    /// Each probed path's encoded echo request, built at the path's first
    /// echo and keyed by `(src, dst, FullPath::fingerprint_key)`: unique
    /// within a registered set, since combination dedups by it. A pair's
    /// requests are dropped when the pair is registered anew.
    echo_requests: BTreeMap<(IsdAsn, IsdAsn, [u8; 8]), Vec<u8>>,
    /// The buffer echoes travel in, there and back, reused from echo to
    /// echo.
    echo_buf: Vec<u8>,
}

/// Everything of the deployment that changes after the build, behind the
/// network's one lock.
pub(crate) struct Inner {
    pub(crate) plane: DataPlane,
    prober: PathProber,
    pub(crate) health: HealthBoard,
    /// One CA per ISD, keyed by ISD number.
    cas: BTreeMap<u16, CaService>,
    renewal: BTreeMap<IsdAsn, RenewalDriver>,
    bootstrap_servers: BTreeMap<IsdAsn, BootstrapServer>,
}

/// The assembled deployment.
pub struct SciEraNetwork {
    /// Per-AS secrets, shared with the beacon engine via `Arc` rather than
    /// deep-copied: the hop key, and the AS key, which signs PCBs and the
    /// AS's topology and which the AS's certificate certifies.
    pub secrets: BTreeMap<IsdAsn, Arc<AsSecrets>>,
    trust: TrustStore,
    telemetry: Telemetry,
    inner: Arc<Mutex<Inner>>,
    /// The epoch-snapshot path database: every lookup goes through it, it
    /// alone holds the registered segments, and attached hosts share it
    /// (the handle is the shared state); its counters land in `telemetry`.
    pathdb: EpochPathDb,
}

impl SciEraNetwork {
    /// Builds the full deployment over the fixed SCIERA topology. Panics
    /// only on internal inconsistency — the topology and PKI wiring are
    /// fixed data.
    pub fn build(config: NetworkConfig) -> Self {
        Self::build_from_topology(build_control_graph(), config)
    }

    /// Builds a full deployment — beaconing, per-ISD PKI, routers,
    /// bootstrap servers, prober/health stack — over an arbitrary built
    /// topology (e.g. a `sciera_topology::synth` one, for campaigns larger
    /// than the 36-AS SCIERA deployment). ISDs and their core ASes are
    /// derived from the graph; ASes present in the SCIERA inventory keep
    /// their real client profiles, everyone else runs the open-source
    /// stack.
    pub fn build_from_topology(topo: BuiltTopology, config: NetworkConfig) -> Self {
        let telemetry = Telemetry::new();
        let now = config.now_unix;

        // Deterministic AS inventory straight from the graph.
        let mut nodes: Vec<(IsdAsn, bool)> = topo.graph.ases().map(|n| (n.ia, n.core)).collect();
        nodes.sort_by_key(|(ia, _)| *ia);
        let mut isds: Vec<u16> = nodes.iter().map(|(ia, _)| ia.isd.0).collect();
        isds.sort_unstable();
        isds.dedup();

        // --- Control plane: beaconing + segment registration.
        let mut engine = BeaconEngine::new(
            &topo.graph,
            now as u32,
            BeaconConfig {
                candidates_per_origin: config.candidates_per_origin,
                ..Default::default()
            },
        );
        engine.set_telemetry(telemetry.clone());
        let store = engine.run().expect("beaconing over SCIERA succeeds");
        let secrets = engine.secrets().clone();

        // --- PKI: one TRC per ISD, a CA per ISD, chains for every AS.
        let trust = TrustStore::new();
        let mut cas: BTreeMap<u16, CaService> = BTreeMap::new();
        for &isd in &isds {
            let core_ias: Vec<IsdAsn> = nodes
                .iter()
                .filter(|(ia, core)| ia.isd.0 == isd && *core)
                .map(|(ia, _)| *ia)
                .collect();
            assert!(!core_ias.is_empty(), "ISD {isd} has no core AS");
            let root_signing: Vec<SigningKey> = core_ias
                .iter()
                .map(|ia| SigningKey::from_seed(format!("root-{ia}").as_bytes()))
                .collect();
            let root_keys: Vec<TrcKeyEntry> = core_ias
                .iter()
                .zip(&root_signing)
                .map(|(&holder, key)| TrcKeyEntry {
                    holder,
                    key: key.verifying_key(),
                })
                .collect();
            let trc = Trc {
                isd: IsdNumber(isd),
                base: 1,
                serial: 1,
                valid_from: now - 86_400,
                valid_until: now + 5 * 365 * 86_400,
                core_ases: core_ias.clone(),
                authoritative_ases: core_ias.clone(),
                voting_keys: root_keys.clone(),
                root_keys,
                quorum: core_ias.len() / 2 + 1,
                votes: vec![],
            };
            trust.trust_base_trc(trc);

            // The ISD CA lives at the first core AS (GEANT for 71, SWITCH
            // for 64) and is signed by that core's root key.
            let ca_as = core_ias[0];
            let ca_key = SigningKey::from_seed(format!("ca-{ca_as}").as_bytes());
            let ca_cert = Certificate::issue(
                CertType::Ca,
                ca_as,
                ca_key.verifying_key(),
                now - 86_400,
                now + 2 * 365 * 86_400,
                ca_as,
                1,
                &root_signing[0],
            );
            cas.insert(isd, CaService::new(ca_as, ca_key, ca_cert));
        }

        // Issue and verify a chain for every AS; keep the renewal drivers.
        let mut renewal = BTreeMap::new();
        for &(ia, _) in &nodes {
            let ca = cas.get_mut(&ia.isd.0).expect("CA per ISD");
            // KREONET and the production network run Anapaya CORE (§4.5);
            // everyone else — including every synthetic AS, which has no
            // inventory entry — runs the open-source stack.
            let profile = match as_info(ia) {
                Some(info) if info.name.contains("KISTI") || ia.isd.0 == 64 => {
                    ClientProfile::AnapayaCore
                }
                _ => ClientProfile::OpenSource,
            };
            let as_key = secrets[&ia].signing.verifying_key();
            let driver = bootstrap_driver(ca, ia, as_key, profile, now).expect("issuance succeeds");
            trust
                .verify_chain(&driver.chain, now)
                .expect("chain verifies against TRC");
            renewal.insert(ia, driver);
        }

        // --- Data plane: one router per AS, in the topology's node order.
        let routers: Vec<BorderRouter> = topo
            .nodes()
            .map(|ia| {
                let mut r = BorderRouter::new(ia, secrets[&ia].hop_key.clone());
                r.set_telemetry(telemetry.clone());
                r
            })
            .collect();

        // --- Bootstrap servers: one per AS, serving a signed topology.
        let mut bootstrap_servers = BTreeMap::new();
        for (i, &(ia, _)) in nodes.iter().enumerate() {
            let octet = (i as u8).wrapping_add(10);
            let doc = TopologyDocument {
                ia,
                border_routers: vec![UnderlayAddr::new([10, octet, 0, 1], 30042)],
                control_service: UnderlayAddr::new([10, octet, 0, 2], 30252),
                timestamp: now,
                mtu: 1472,
            };
            let srv = BootstrapServer::new(doc, &secrets[&ia].signing, Vec::new());
            bootstrap_servers.insert(ia, srv);
        }

        let pathdb = EpochPathDb::new(store);
        pathdb.set_telemetry(telemetry.clone());

        let nominal_latency_ms: Vec<f64> = topo.links.iter().map(|l| l.spec.latency_ms).collect();
        SciEraNetwork {
            pathdb,
            secrets,
            trust,
            inner: Arc::new(Mutex::new(Inner {
                plane: DataPlane {
                    links: LinkState::all_up(topo.links.len()),
                    topo,
                    routers,
                    nominal_latency_ms,
                    now_unix: now,
                    inboxes: BTreeMap::new(),
                    echo_requests: BTreeMap::new(),
                    echo_buf: Vec::new(),
                },
                prober: PathProber::new(telemetry.clone()),
                health: HealthBoard::new(telemetry.clone()),
                cas,
                renewal,
                bootstrap_servers,
            })),
            telemetry,
        }
    }

    /// The network-wide telemetry handle: every border router, the beacon
    /// engine and path combination report into it. Clone it into daemons,
    /// monitors or bootstrap clients that should share the same registry.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// The end-host trust store: every ISD's TRC, every AS's verified chain.
    pub fn trust(&self) -> &TrustStore {
        &self.trust
    }

    /// The current certificate chain of `ia`, as its renewal driver holds it.
    pub fn chain(&self, ia: IsdAsn) -> Option<CertificateChain> {
        Some(self.inner.lock().renewal.get(&ia)?.chain.clone())
    }

    /// The signed topology document `ia`'s bootstrap server serves.
    pub fn signed_topology(&self, ia: IsdAsn) -> Option<SignedTopology> {
        let inner = self.inner.lock();
        Some(inner.bootstrap_servers.get(&ia)?.signed_topology().clone())
    }

    /// Ticks every AS's certificate-renewal driver once, at the network's
    /// clock, against its ISD's CA; `ca_reachable: false` takes every CA
    /// off the network for the tick. Returns what each driver did.
    pub fn renew_certificates(&self, ca_reachable: bool) -> Vec<(IsdAsn, RenewalAction)> {
        let inner = &mut *self.inner.lock();
        let tick = |(&ia, driver): (&IsdAsn, &mut RenewalDriver)| {
            let ca = inner.cas.get_mut(&ia.isd.0).expect("CA per ISD");
            (ia, driver.tick(ca, inner.plane.now_unix, ca_reachable))
        };
        inner.renewal.iter_mut().map(tick).collect()
    }

    /// Combined paths from `src` to `dst` honouring current link state.
    /// Combination is memoized in the shared [`EpochPathDb`] (lookups run
    /// against the published snapshot, concurrently with any writer);
    /// administrative link state is applied as a post-filter, so toggling
    /// links never invalidates the cache.
    pub fn paths(&self, src: IsdAsn, dst: IsdAsn) -> Vec<FullPath> {
        lookup(&self.pathdb, &self.inner, src, dst)
    }

    /// The shared memoized path database (e.g. to plug into an end-host
    /// daemon as its [`scion_daemon::daemon::PathProvider`]). The handle
    /// is a cheap clone of the shared epoch-snapshot state.
    pub fn pathdb(&self) -> EpochPathDb {
        self.pathdb.clone()
    }

    /// Sets the administrative state of every link whose label contains
    /// `label_substring`; returns how many links matched.
    pub fn set_links(&self, label_substring: &str, up: bool) -> usize {
        let plane = &mut self.inner.lock().plane;
        let mut n = 0;
        for (i, l) in plane.topo.links.iter().enumerate() {
            if l.spec.label.contains(label_substring) {
                plane.links.set(&plane.topo, i, up);
                n += 1;
            }
        }
        n
    }

    /// Number of links in the topology (valid indices for the per-link
    /// fault-injection methods below).
    pub fn link_count(&self) -> usize {
        self.inner.lock().plane.topo.links.len()
    }

    /// Sets the administrative state of one link by index.
    pub fn set_link_index(&self, index: usize, up: bool) {
        let plane = &mut self.inner.lock().plane;
        plane.links.set(&plane.topo, index, up);
    }

    /// Scales one link's latency relative to its *nominal* (build-time)
    /// value — the cost-change injection of the dynamics campaigns.
    /// Repeated calls never compound; `1.0` restores nominal exactly.
    pub fn set_link_latency_factor(&self, index: usize, factor: f64) {
        let plane = &mut self.inner.lock().plane;
        if index < plane.topo.links.len() && factor.is_finite() && factor > 0.0 {
            let nominal = plane.nominal_latency_ms[index];
            plane.topo.links[index].spec.latency_ms = nominal * factor;
        }
    }

    /// Indices of the links `path` crosses, deduplicated and sorted.
    pub fn path_links(&self, path: &FullPath) -> Vec<usize> {
        let inner = self.inner.lock();
        let mut out: Vec<usize> = path
            .interfaces()
            .into_iter()
            .filter_map(|(ia, ifid)| inner.plane.topo.link_index_of(ia, ifid))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The path database's current store generation — the control plane's
    /// invalidation epoch, stamped onto exported dynamics records.
    pub fn generation(&self) -> u64 {
        self.pathdb.generation()
    }

    /// Current Unix time of the simulation.
    pub fn now_unix(&self) -> u64 {
        self.inner.lock().plane.now_unix
    }

    /// Advances simulated wall-clock time.
    pub fn advance_time(&self, secs: u64) {
        self.inner.lock().plane.now_unix += secs;
    }

    /// Walks a packet through the data plane from its source AS. Returns
    /// the delivery or the error; on a dead egress link, an SCMP
    /// `ExternalInterfaceDown` is queued to the source host's inbox.
    pub fn walk_packet(&self, packet: ScionPacket) -> Result<Delivery, NetError> {
        let src = packet.src;
        let frame = encode(&packet)?;
        self.inner.lock().plane.walk(frame, src)
    }

    /// Walks an already-serialised frame through the data plane. Each
    /// border router verifies and rewrites the frame in place; the packet
    /// is only decoded at delivery (or to build an SCMP notification).
    /// [`SciEraNetwork::walk_packet`] is this on the packet's encoding.
    pub fn walk_frame(&self, frame: Vec<u8>) -> Result<Delivery, NetError> {
        let src = ScionPacket::decode(&frame)
            .map_err(|e| NetError::Unknown(format!("undecodable frame: {e}")))?
            .src;
        self.inner.lock().plane.walk(frame, src)
    }

    /// SCMP traceroute (the `scion traceroute` tool): probes every hop of
    /// the shortest live path from `src` to `dst`, returning the answering
    /// AS, the reported interface and the probe's round-trip latency.
    pub fn traceroute(&self, src: ScionAddr, dst: IsdAsn) -> Vec<(IsdAsn, u64, f64)> {
        let paths = self.paths(src.ia, dst);
        let Some(path) = paths.first() else {
            return Vec::new();
        };
        let Ok(dp) = path.to_dataplane() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for hop in 0..dp.hops.len() {
            let mut probe_path = dp.clone();
            probe_path.hops[hop].ingress_alert = true;
            probe_path.hops[hop].egress_alert = true;
            let probe = ScionPacket::new(
                src,
                scion_proto::addr::ScionAddr::new(dst, scion_proto::addr::HostAddr::v4(0, 0, 0, 1)),
                scion_proto::packet::L4Protocol::Scmp,
                scion_proto::packet::DataPlanePath::Scion(probe_path),
                scion_proto::scmp::ScmpMessage::TracerouteRequest {
                    id: 7,
                    seq: hop as u16,
                }
                .encode(),
            );
            if let Some(hop) = self.inner.lock().plane.walk_traceroute(probe) {
                out.push(hop);
            }
        }
        out
    }

    /// Registers a (src, dst) pair with the path prober: every currently
    /// known live path is snapshotted into the probe set. Returns how many
    /// paths will be probed. The prober keeps probing paths that later die,
    /// so outages are confirmed rather than silently dropped from view.
    pub fn register_probe_pair(&self, src: IsdAsn, dst: IsdAsn) -> usize {
        let paths = self.paths(src, dst);
        let n = paths.len();
        self.register_probe_set(src, dst, paths);
        n
    }

    /// Hands the prober a pair's new path set, and forgets the echo
    /// requests encoded for the old one and the health rows of paths that
    /// left it.
    fn register_probe_set(&self, src: IsdAsn, dst: IsdAsn, paths: Vec<FullPath>) {
        let inner = &mut *self.inner.lock();
        let requests = &mut inner.plane.echo_requests;
        requests.retain(|&(s, d, _), _| (s, d) != (src, dst));
        let listed = |key: &[u8; 8]| paths.iter().any(|p| p.fingerprint_key() == *key);
        inner.health.forget_paths(src, dst, listed);
        inner.prober.register(src, dst, paths);
    }

    /// Like [`SciEraNetwork::register_probe_pair`] but snapshots at most
    /// `max_paths` (shortest first — `paths` returns them ranked), and
    /// returns the snapshot itself. Dynamics campaigns cap the probe set
    /// so per-epoch cost stays bounded on large synthetic topologies.
    pub fn register_probe_pair_capped(
        &self,
        src: IsdAsn,
        dst: IsdAsn,
        max_paths: usize,
    ) -> Vec<FullPath> {
        let mut paths = self.paths(src, dst);
        paths.truncate(max_paths);
        self.register_probe_set(src, dst, paths.clone());
        paths
    }

    /// Runs one SCMP echo campaign over every registered pair's path set,
    /// feeding outcomes into the health board and closing the round (churn
    /// detection happens exactly once per campaign). The data plane is
    /// locked once, for the whole round.
    pub fn probe_round(&self) -> Vec<ProbeResult> {
        let inner = &mut *self.inner.lock();
        let (plane, prober, board) = (&mut inner.plane, &mut inner.prober, &mut inner.health);
        let now = plane.now_unix;
        // Probe-confirmed dead interfaces flush every memoized path
        // combination crossing them (the next lookup recombines from the
        // unchanged store and re-applies live link state). Every probed path
        // over a dead link reports it; the cache is swept once per interface.
        let mut swept: Vec<(IsdAsn, u16)> = Vec::new();
        let mut sink = |ia: IsdAsn, ifid: u16| {
            if !swept.contains(&(ia, ifid)) {
                swept.push((ia, ifid));
                self.pathdb.invalidate_paths_crossing(ia, ifid);
            }
        };
        prober.run_round_with_sink(plane, board, now, &mut sink)
    }

    /// The operator console's health table, one row per probed path.
    pub fn health_rows(&self) -> Vec<HealthRow> {
        self.inner.lock().health.rows()
    }

    /// Healthy-set churn events observed so far, oldest first.
    pub fn churn_events(&self) -> Vec<ChurnEvent> {
        self.inner.lock().health.churn_events()
    }

    /// Mean health score over all probed paths of a pair, if probed.
    pub fn pair_score(&self, src: IsdAsn, dst: IsdAsn) -> Option<f64> {
        self.inner.lock().health.pair_score(src, dst)
    }

    /// An operator console bound to this network's telemetry and health
    /// board: Prometheus exposition, counter rates, live health table.
    pub fn console(&self) -> OperatorConsole {
        OperatorConsole::new(
            self.telemetry.clone(),
            Arc::clone(&self.inner),
            self.pathdb.clone(),
        )
    }

    /// Encodes a ready-to-inject UDP frame from `src` to `dst` over the
    /// first live path, paired with its source AS — a template for
    /// [`SciEraNetwork::run_frame_load`]. `None` when no path exists.
    pub fn frame_template(
        &self,
        src: IsdAsn,
        dst: IsdAsn,
        payload: &[u8],
    ) -> Option<(IsdAsn, Vec<u8>)> {
        let paths = self.paths(src, dst);
        let dp = paths.first()?.to_dataplane().ok()?;
        let pkt = ScionPacket::new(
            ScionAddr::new(src, HostAddr::v4(10, 250, 0, 1)),
            ScionAddr::new(dst, HostAddr::v4(10, 250, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Scion(dp),
            scion_proto::udp::UdpDatagram::encode_parts(7, 7, payload),
        );
        Some((src, pkt.encode().ok()?))
    }

    /// Drives a frame-level traffic schedule through the whole data plane.
    ///
    /// `schedule` is a sequence of template indices (e.g. a
    /// `sciera_flowgen` packet schedule); each entry injects
    /// `templates[i % len]` at its source AS. The frames travel the
    /// deployment's routers and live links in
    /// [`scion_dataplane::load::run_frame_load`]: batched through
    /// `BorderRouter::process_batch` when `batched`, frame by frame
    /// otherwise, so the two modes A/B the same workload. A frame forwarded
    /// onto a dead link is dropped there.
    pub fn run_frame_load(
        &self,
        templates: &[(IsdAsn, Vec<u8>)],
        schedule: &[u32],
        batch: usize,
        batched: bool,
    ) -> FrameLoadReport {
        let plane = &mut self.inner.lock().plane;
        plane.run_frame_load(templates, schedule, batch, batched, &self.telemetry)
    }

    /// Attaches a host in `ia`, returning its handle.
    pub fn attach_host(&self, addr: ScionAddr) -> HostHandle {
        self.inner.lock().plane.inboxes.entry(addr).or_default();
        HostHandle {
            addr,
            net: Arc::clone(&self.inner),
            pathdb: self.pathdb.clone(),
            telemetry: self.telemetry.clone(),
        }
    }
}

/// What lies across the link leaving an AS through one of its interfaces:
/// everything a walker needs to take its next step.
struct Crossing {
    up: bool,
    latency_ms: f64,
    /// Node number of the AS at the far end, and the interface the link
    /// enters it through.
    next: usize,
    next_if: u16,
}

/// A frame the data plane carried to its destination AS.
struct Carried {
    /// The frame as the delivering router left it.
    frame: Vec<u8>,
    /// Routers that handled it, the delivering one included.
    hops: usize,
    /// One-way latency accumulated over the crossed links, ms.
    latency_ms: f64,
}

impl Carried {
    /// The delivered packet: the one decode of a frame's journey.
    fn packet(&self) -> Result<ScionPacket, NetError> {
        ScionPacket::decode(&self.frame)
            .map_err(|e| NetError::Unknown(format!("delivered frame: {e}")))
    }
}

fn encode(packet: &ScionPacket) -> Result<Vec<u8>, NetError> {
    packet
        .encode()
        .map_err(|e| NetError::Unknown(format!("encode: {e}")))
}

impl DataPlane {
    /// The link attached at interface `ifid` of node `at`, seen from there.
    /// Every forwarding step of every walker goes through here.
    fn crossing(&self, at: usize, ifid: u16) -> Option<Crossing> {
        let step = self.topo.step(at, ifid)?;
        Some(Crossing {
            up: !self.links.down[step.link],
            latency_ms: self.topo.links[step.link].spec.latency_ms,
            next: step.node,
            next_if: step.ifid,
        })
    }

    /// `paths` less those crossing a link that is down, in their order.
    ///
    /// A path crosses a link by leaving some AS through one of its ends, so
    /// it is dropped iff a hop's egress is a dead interface. With every
    /// link up nothing is dead and no path is read at all. (The paths come
    /// from this network's own store, beaconed over `topo`: every egress
    /// they name is an interface of `topo`, which is why "not dead" can
    /// stand for "attached to a link that is up".)
    fn live(&self, mut paths: Vec<FullPath>) -> Vec<FullPath> {
        let dead = &self.links.dead;
        if !dead.is_empty() {
            let is_dead = |h: &PathHop| dead.binary_search(&if_key(h.ia, h.egress)).is_ok();
            paths.retain(|p| !p.hop_slice().iter().any(is_dead));
        }
        paths
    }

    /// Walks a traceroute probe until an alerted router answers; returns
    /// (answering AS, interface, probe RTT in ms). The probe is encoded
    /// once and forwarded in place; each router decodes it only to see
    /// whether it must answer.
    fn walk_traceroute(&mut self, packet: ScionPacket) -> Option<(IsdAsn, u64, f64)> {
        let mut at = self.topo.node_of(packet.src.ia)?;
        let mut ingress = 0u16;
        let mut frame = packet.encode().ok()?;
        let mut latency = 0.0f64;
        for _ in 0..64 {
            let router = &mut self.routers[at];
            let pkt = ScionPacket::decode(&frame).ok()?;
            if let Some(reply) = router.traceroute_probe(&pkt, ingress) {
                let msg = scion_proto::scmp::ScmpMessage::decode(&reply.payload).ok()?;
                if let scion_proto::scmp::ScmpMessage::TracerouteReply { ia, interface, .. } = msg {
                    // The reply retraces the probe's links.
                    return Some((ia, interface, 2.0 * latency));
                }
                return None;
            }
            match router
                .process_frame(&mut frame, ingress, self.now_unix)
                .ok()?
            {
                FrameDecision::Deliver => return None, // no alerted hop answered
                FrameDecision::Forward { ifid } => {
                    let c = self.crossing(at, ifid).filter(|c| c.up)?;
                    latency += c.latency_ms;
                    at = c.next;
                    ingress = c.next_if;
                }
            }
        }
        None
    }

    /// The delivering hop loop: carries a frame from its source host's AS
    /// to the AS that delivers it, telling `visit` each AS as its router
    /// takes custody.
    ///
    /// One buffer, rewritten in place by every border router; the walker
    /// holds a node number, so a hop is one router call and one table read.
    /// A frame carrying a trace context has its span chain advanced in
    /// place at every hop, where the per-hop events are emitted. An
    /// unknown interface is an error; a dead link sends the fast failure
    /// notification (SCMP `ExternalInterfaceDown`, built by the router
    /// there from the offending packet) to the source host's inbox.
    fn carry(
        &mut self,
        mut frame: Vec<u8>,
        src_host: ScionAddr,
        mut visit: impl FnMut(IsdAsn),
    ) -> Result<Carried, NetError> {
        let mut at = self
            .topo
            .node_of(src_host.ia)
            .ok_or_else(|| NetError::Unknown(format!("no router for {}", src_host.ia)))?;
        let mut ingress = 0u16;
        let mut latency = 0.0f64;
        let base_ns = self.now_unix.saturating_mul(1_000_000_000);
        for hop in 1..=64usize {
            let router = &mut self.routers[at];
            let ia = router.ia;
            visit(ia);
            // Simulated time at which this router takes custody: cumulative
            // link latency plus one per-AS processing overhead per router
            // crossed so far. Strictly monotone along the path, so per-hop
            // latency attribution can be read off the flight recorder.
            let sim_ns =
                base_ns + ((latency + hop as f64 * PER_AS_OVERHEAD_MS) * 1_000_000.0) as u64;
            match router.process_frame_at(&mut frame, ingress, self.now_unix, sim_ns) {
                Ok(FrameDecision::Deliver) => {
                    return Ok(Carried {
                        frame,
                        hops: hop,
                        latency_ms: latency,
                    })
                }
                Ok(FrameDecision::Forward { ifid }) => {
                    let c = self
                        .crossing(at, ifid)
                        .ok_or_else(|| NetError::Unknown(format!("{ia} ifid {ifid}")))?;
                    if !c.up {
                        // The decode is the SCMP slow path, off the happy
                        // path by construction.
                        let scmp = ScionPacket::decode(&frame)
                            .ok()
                            .and_then(|p| self.routers[at].external_interface_down(&p, ifid));
                        if let Some(scmp) = scmp {
                            self.inboxes.entry(src_host).or_default().push_back(scmp);
                        }
                        return Err(NetError::LinkDown { at: ia, ifid });
                    }
                    latency += c.latency_ms;
                    at = c.next;
                    ingress = c.next_if;
                }
                Err(FrameError::Drop(e)) => return Err(NetError::Dropped(format!("{ia}: {e:?}"))),
                Err(FrameError::Malformed(m)) => {
                    return Err(NetError::Dropped(format!("{ia}: {m}")))
                }
            }
        }
        Err(NetError::HopBudgetExceeded)
    }

    /// [`DataPlane::carry`] for the public walks: the route is recorded, and
    /// the destination host's inbox gets a copy of the packet returned.
    fn walk(&mut self, frame: Vec<u8>, src_host: ScionAddr) -> Result<Delivery, NetError> {
        let mut route = Vec::new();
        let carried = self.carry(frame, src_host, |ia| route.push(ia))?;
        let packet = carried.packet()?;
        let inbox = self.inboxes.entry(packet.dst).or_default();
        inbox.push_back(packet.clone());
        Ok(Delivery {
            packet,
            route,
            latency_ms: carried.latency_ms,
        })
    }

    /// [`SciEraNetwork::run_frame_load`] over this data plane: each
    /// template's source AS is looked up once, and a frame crosses a link
    /// only while it is up.
    fn run_frame_load(
        &mut self,
        templates: &[(IsdAsn, Vec<u8>)],
        schedule: &[u32],
        batch: usize,
        batched: bool,
        telemetry: &Telemetry,
    ) -> FrameLoadReport {
        if templates.is_empty() {
            return FrameLoadReport::default();
        }
        // An AS without a router maps past the last node: its frames drop.
        let sources: Vec<usize> = templates
            .iter()
            .map(|(ia, _)| self.topo.node_of(*ia).unwrap_or(usize::MAX))
            .collect();
        let frames = schedule.iter().map(|&i| {
            let t = i as usize % templates.len();
            (sources[t], templates[t].1.as_slice())
        });
        // `crossing` less the latency, which a load run does not keep; it
        // borrows the topology and link state, not the routers.
        let live_step = |at, ifid| {
            let step = self.topo.step(at, ifid)?;
            (!self.links.down[step.link]).then_some((step.node, step.ifid))
        };
        scion_dataplane::load::run_frame_load(
            &mut self.routers,
            live_step,
            frames,
            batch,
            batched,
            self.now_unix,
            telemetry,
        )
    }

    /// Carries one SCMP echo over `path` and reports the verdict.
    ///
    /// The path's request frame is encoded at its first echo and kept; an
    /// echo copies it into the buffer echoes travel in and stamps its `id`
    /// and `seq`. The request is carried to `dst`, which answers an echo
    /// request, and nothing else, by turning the frame around in place into
    /// its reply; the reply is carried back over the reversed path, and the
    /// source counts it only if it is the echo reply to this request. Both
    /// legs pay link latency plus per-AS processing overhead, so the
    /// measured RTT matches the analytic `path_rtt_ms` of the topology
    /// exactly. Neither packet enters a host inbox. A dead link surfaces as
    /// the SCMP `ExternalInterfaceDown` the on-path router queued to the
    /// prober's address.
    fn scmp_echo(
        &mut self,
        src: IsdAsn,
        dst: IsdAsn,
        path: &FullPath,
        id: u16,
        seq: u16,
    ) -> EchoOutcome {
        let request = match self.echo_requests.entry((src, dst, path.fingerprint_key())) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => match echo_request(src, dst, path) {
                Some(frame) => slot.insert(frame),
                None => return EchoOutcome::Lost,
            },
        };
        let mut frame = std::mem::take(&mut self.echo_buf);
        frame.clear();
        frame.extend_from_slice(request);
        // The request carries no echo data: its echo header ends the frame.
        let at = frame.len() - EchoHeader::LEN;
        EchoHeader {
            reply: false,
            id,
            seq,
        }
        .write(&mut frame[at..]);
        let src_addr = ScionAddr::new(src, PROBER_SRC);
        let mut fwd = match self.carry(frame, src_addr, |_| {}) {
            Ok(carried) => carried,
            Err(NetError::LinkDown { at, ifid }) => {
                // The on-path router notified the source; consume and decode
                // the queued SCMP so the correlation uses the wire message.
                if let Entry::Occupied(mut inbox) = self.inboxes.entry(src_addr) {
                    let scmp = inbox.get_mut().pop_back();
                    if inbox.get().is_empty() {
                        inbox.remove();
                    }
                    if let Some(Ok(ScmpMessage::ExternalInterfaceDown { ia, interface })) =
                        scmp.map(|p| ScmpMessage::decode(&p.payload))
                    {
                        return EchoOutcome::ExtIfDown { ia, interface };
                    }
                }
                return EchoOutcome::ExtIfDown {
                    ia: at,
                    interface: ifid as u64,
                };
            }
            Err(_) => return EchoOutcome::Lost,
        };
        if !answer_echo(&mut fwd.frame) {
            self.echo_buf = fwd.frame;
            return EchoOutcome::Lost;
        }
        let reply = std::mem::take(&mut fwd.frame);
        let Ok(back) = self.carry(reply, ScionAddr::new(dst, PROBER_DST), |_| {}) else {
            return EchoOutcome::Lost;
        };
        let verdict = echo_verdict(&fwd, &back, id, seq);
        self.echo_buf = back.frame;
        verdict
    }
}

/// The assembled network is a [`DynamicsNet`]: the path-dynamics
/// observatory (`sciera_measure::dynamics`) drives campaigns over it —
/// probe rounds through the real prober/health stack, link kills and
/// latency scalings through the per-index fault injection above.
impl DynamicsNet for SciEraNetwork {
    fn now_unix(&self) -> u64 {
        SciEraNetwork::now_unix(self)
    }

    fn advance_time(&mut self, secs: u64) {
        SciEraNetwork::advance_time(self, secs)
    }

    fn register_pair(&mut self, src: IsdAsn, dst: IsdAsn, max_paths: usize) -> Vec<FullPath> {
        self.register_probe_pair_capped(src, dst, max_paths)
    }

    fn probe_round(&mut self) -> Vec<ProbeResult> {
        SciEraNetwork::probe_round(self)
    }

    fn read_board<R>(&self, read: impl FnOnce(&HealthBoard) -> R) -> R {
        read(&self.inner.lock().health)
    }

    fn generation(&self) -> u64 {
        SciEraNetwork::generation(self)
    }

    fn link_count(&self) -> usize {
        SciEraNetwork::link_count(self)
    }

    fn path_links(&self, path: &FullPath) -> Vec<usize> {
        SciEraNetwork::path_links(self, path)
    }

    fn set_link_up(&mut self, index: usize, up: bool) {
        self.set_link_index(index, up)
    }

    fn set_link_latency_factor(&mut self, index: usize, factor: f64) {
        SciEraNetwork::set_link_latency_factor(self, index, factor)
    }
}

impl EchoTransport for DataPlane {
    fn echo(
        &mut self,
        src: IsdAsn,
        dst: IsdAsn,
        path: &FullPath,
        id: u16,
        seq: u16,
    ) -> EchoOutcome {
        self.scmp_echo(src, dst, path, id, seq)
    }
}

/// Dedicated prober host addresses keep echo traffic apart from real
/// hosts'.
const PROBER_SRC: HostAddr = HostAddr::V4([10, 255, 255, 1]);
const PROBER_DST: HostAddr = HostAddr::V4([10, 255, 255, 2]);

/// The echo request frame over `path`, with `id` and `seq` zero until an
/// echo stamps its own; `None` if the path does not assemble.
fn echo_request(src: IsdAsn, dst: IsdAsn, path: &FullPath) -> Option<Vec<u8>> {
    let request = ScionPacket::new(
        ScionAddr::new(src, PROBER_SRC),
        ScionAddr::new(dst, PROBER_DST),
        L4Protocol::Scmp,
        DataPlanePath::Scion(path.to_dataplane().ok()?),
        ScmpMessage::EchoRequest {
            id: 0,
            seq: 0,
            data: vec![],
        }
        .encode(),
    );
    encode(&request).ok()
}

/// The echo header of the SCMP message `frame` carries, if it carries one.
fn echo_in(frame: &[u8]) -> Option<EchoHeader> {
    let view = PacketView::parse(frame).ok()?;
    if view.next_hdr() != L4Protocol::Scmp {
        return None;
    }
    EchoHeader::read(view.payload())
}

/// The destination's side of an echo: an echo request is turned around in
/// place into its reply, and anything else goes unanswered.
fn answer_echo(frame: &mut [u8]) -> bool {
    let Some(EchoHeader {
        reply: false,
        id,
        seq,
    }) = echo_in(frame)
    else {
        return false;
    };
    let Ok(reply) = turn_around(frame) else {
        return false;
    };
    EchoHeader {
        reply: true,
        id,
        seq,
    }
    .write(&mut frame[reply.hdr_len()..]);
    true
}

/// The source's verdict on an echo: the round trip of both legs if what
/// the reply leg delivered is an echo reply carrying the request's `id` and
/// `seq`, `Lost` if it is anything else.
fn echo_verdict(fwd: &Carried, back: &Carried, id: u16, seq: u16) -> EchoOutcome {
    let expected = EchoHeader {
        reply: true,
        id,
        seq,
    };
    if echo_in(&back.frame) != Some(expected) {
        return EchoOutcome::Lost;
    }
    let rtt_ms =
        fwd.latency_ms + back.latency_ms + (fwd.hops + back.hops) as f64 * PER_AS_OVERHEAD_MS;
    EchoOutcome::Reply { rtt_ms }
}

/// A host attached to the network.
pub struct HostHandle {
    /// The host's SCION address.
    pub addr: ScionAddr,
    net: Arc<Mutex<Inner>>,
    pathdb: EpochPathDb,
    telemetry: Telemetry,
}

impl HostHandle {
    /// A PAN transport for this host (plug into `PanSocket::bind`).
    pub fn transport(&self) -> SimTransport {
        SimTransport {
            local: self.addr,
            net: Arc::clone(&self.net),
            pathdb: self.pathdb.clone(),
            telemetry: self.telemetry.clone(),
        }
    }
}

/// A `scion-pan` transport backed by the packet-level network.
pub struct SimTransport {
    local: ScionAddr,
    net: Arc<Mutex<Inner>>,
    pathdb: EpochPathDb,
    telemetry: Telemetry,
}

impl scion_pan::socket::PanTransport for SimTransport {
    fn send_packet(&mut self, mut packet: ScionPacket) {
        let plane = &mut self.net.lock().plane;
        // Every packet leaving a host opens a causal trace: the host is the
        // root span, each border router along the walk derives a child.
        if packet.trace.is_none() && self.telemetry.enabled(Severity::Trace) {
            let ctx = TraceContext::root(self.telemetry.next_trace_id());
            packet.trace = Some(ctx);
            self.telemetry.emit(
                Event::new(
                    plane.now_unix.saturating_mul(1_000_000_000),
                    self.local.ia.to_string(),
                    "host",
                    Severity::Trace,
                    "pkt.send",
                )
                .field("trace_id", ctx.trace_id)
                .field("span_id", ctx.span_id)
                .field("parent_span_id", ctx.parent_span_id)
                .field("hop", ctx.hop)
                .field("dst", packet.dst.ia),
            );
        }
        // Delivery failures surface as SCMP to the sender's inbox (link
        // down) or silent drops (bad MAC etc.) — like a real network.
        let Ok(frame) = encode(&packet) else { return };
        let Ok(carried) = plane.carry(frame, packet.src, |_| {}) else {
            return;
        };
        if let Ok(delivered) = carried.packet() {
            let inbox = plane.inboxes.entry(delivered.dst).or_default();
            inbox.push_back(delivered);
        }
    }

    fn recv_packet(&mut self) -> Option<ScionPacket> {
        let plane = &mut self.net.lock().plane;
        plane.inboxes.get_mut(&self.local)?.pop_front()
    }

    fn now_unix(&self) -> u64 {
        self.net.lock().plane.now_unix
    }

    fn lookup_paths(&mut self, dst: IsdAsn) -> Vec<FullPath> {
        lookup(&self.pathdb, &self.net, self.local.ia, dst)
    }
}

/// The lookup behind [`SciEraNetwork::paths`] and a host's `lookup_paths`:
/// the path database's answer, asked for once, less what current link state
/// rules out.
fn lookup(pathdb: &EpochPathDb, net: &Mutex<Inner>, src: IsdAsn, dst: IsdAsn) -> Vec<FullPath> {
    let paths = pathdb.paths(src, dst, LOOKUP_MAX_PATHS);
    net.lock().plane.live(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciera_telemetry::work;
    use sciera_topology::ases::all_ases;
    use scion_pan::socket::PanSocket;
    use scion_proto::addr::{ia, HostAddr};

    fn network() -> SciEraNetwork {
        SciEraNetwork::build(NetworkConfig::default())
    }

    fn host(net: &SciEraNetwork, ia_str: &str, last: u8) -> HostHandle {
        net.attach_host(ScionAddr::new(ia(ia_str), HostAddr::v4(10, 0, 0, last)))
    }

    #[test]
    fn build_verifies_everything() {
        let net = network();
        // Both ISDs trusted, all ASes chained.
        assert!(net.trust().trc_serial(IsdNumber(71)).is_some());
        assert!(net.trust().trc_serial(IsdNumber(64)).is_some());
        assert_eq!(net.trust().verified_as_count(), all_ases().len());
        let segments = net.pathdb().snapshot().store().len();
        assert!(segments > 100, "segments registered: {segments}");
    }

    #[test]
    fn pan_sockets_talk_across_the_world() {
        let net = network();
        let ovgu = host(&net, "71-2:0:42", 1);
        let ufms = host(&net, "71-2:0:5c", 2);

        let mut client = PanSocket::bind(ovgu.addr, 40001, ovgu.transport());
        let mut server = PanSocket::bind(ufms.addr, 8080, ufms.transport());

        client.connect(ufms.addr, 8080).unwrap();
        client.send(b"hello from Magdeburg").unwrap();

        let (payload, from, sport) = server.poll_recv().expect("datagram crosses 4 continents");
        assert_eq!(payload, b"hello from Magdeburg");
        assert_eq!(from.ia, ia("71-2:0:42"));
        assert_eq!(sport, 40001);

        // And the reply flows back over the reversed path.
        server.send_to(b"oi de Campo Grande", from, sport).unwrap();
        let (reply, rfrom, _) = client.poll_recv().expect("reply delivered");
        assert_eq!(reply, b"oi de Campo Grande");
        assert_eq!(rfrom.ia, ia("71-2:0:5c"));
    }

    #[test]
    fn walk_latency_matches_analytic_rtt() {
        let net = network();
        let src = ia("71-225");
        let dst = ia("71-2:0:3b");
        let paths = net.paths(src, dst);
        assert!(!paths.is_empty());
        let p = &paths[0];
        let pkt = ScionPacket::new(
            ScionAddr::new(src, HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(dst, HostAddr::v4(10, 0, 0, 2)),
            scion_proto::packet::L4Protocol::Udp,
            scion_proto::packet::DataPlanePath::Scion(p.to_dataplane().unwrap()),
            scion_proto::udp::UdpDatagram::new(1, 2, b"x".to_vec()).encode(),
        );
        let delivery = net.walk_packet(pkt).unwrap();
        assert_eq!(
            delivery.route,
            p.ases(),
            "data plane follows the combined path"
        );
        // Packet-level one-way latency x2 (+ per-AS processing) equals the
        // analytic RTT used by the measurement campaign.
        let analytic = {
            let plane = &net.inner.lock().plane;
            let down = |i: usize| plane.links.down[i];
            plane.topo.path_rtt_ms(p, &down).unwrap()
        };
        let packet_level = 2.0
            * (delivery.latency_ms + p.len() as f64 * sciera_topology::links::PER_AS_OVERHEAD_MS);
        assert!(
            (analytic - packet_level).abs() < 1e-6,
            "analytic {analytic} vs packet-level {packet_level}"
        );
    }

    #[test]
    fn link_cut_triggers_scmp_and_failover() {
        let net = network();
        let uva = host(&net, "71-225", 1);
        let princeton = host(&net, "71-88", 2);

        let mut client = PanSocket::bind(uva.addr, 40002, uva.transport());
        client.connect(princeton.addr, 9000).unwrap();
        client.send(b"one").unwrap();

        // Princeton's only uplink dies.
        assert_eq!(net.set_links("BRIDGES-Princeton", false), 1);
        client.send(b"two").unwrap(); // walks into the dead link; SCMP comes back
                                      // Poll: consumes the SCMP, kills the path.
        assert!(client.poll_recv().is_none());
        // With the single uplink dead there is no alternative path left.
        assert!(client.send(b"three").is_err());

        // Link restored and paths refreshed: traffic flows again.
        net.set_links("BRIDGES-Princeton", true);
        let fresh = uva.transport();
        let mut client2 = PanSocket::bind(uva.addr, 40003, fresh);
        client2.connect(princeton.addr, 9000).unwrap();
        client2.send(b"four").unwrap();
        let mut server = PanSocket::bind(princeton.addr, 9000, princeton.transport());
        let got: Vec<Vec<u8>> =
            std::iter::from_fn(|| server.poll_recv().map(|(p, _, _)| p)).collect();
        assert!(got.contains(&b"one".to_vec()));
        assert!(got.contains(&b"four".to_vec()));
        assert!(!got.contains(&b"two".to_vec()));
    }

    #[test]
    fn walk_frame_agrees_with_walk_packet() {
        let net = network();
        let src = ia("71-2:0:42");
        let dst = ia("71-2:0:5c");
        let p = &net.paths(src, dst)[0];
        let make = || {
            ScionPacket::new(
                ScionAddr::new(src, HostAddr::v4(10, 0, 0, 1)),
                ScionAddr::new(dst, HostAddr::v4(10, 0, 0, 2)),
                scion_proto::packet::L4Protocol::Udp,
                scion_proto::packet::DataPlanePath::Scion(p.to_dataplane().unwrap()),
                scion_proto::udp::UdpDatagram::new(1, 2, b"zero copy".to_vec()).encode(),
            )
        };
        let via_packet = net.walk_packet(make()).unwrap();
        let via_frame = net.walk_frame(make().encode().unwrap()).unwrap();
        assert_eq!(via_frame.route, via_packet.route);
        assert_eq!(via_frame.latency_ms, via_packet.latency_ms);
        assert_eq!(
            via_frame.packet.encode().unwrap(),
            via_packet.packet.encode().unwrap(),
            "delivered frames must be byte-identical"
        );
        // Every on-path router handled the frame in place (telemetry is
        // shared across routers, so counters aggregate the whole walk;
        // walk_packet also dispatches untraced packets to the frame walk).
        let snap = net.telemetry().snapshot();
        assert!(
            snap.counter("router.fastpath.hit").unwrap_or(0) >= via_frame.route.len() as u64,
            "{snap:?}"
        );
        // A second identical frame verifies every hop field again: as many
        // AES blocks as the first, at least one at every router.
        let (a, b) = (make().encode().unwrap(), make().encode().unwrap());
        let (_, first) = work::counted(|| net.walk_frame(a).unwrap());
        let (_, second) = work::counted(|| net.walk_frame(b).unwrap());
        assert_eq!(first.aes_blocks, second.aes_blocks);
        assert!(
            first.aes_blocks >= via_frame.route.len() as u64,
            "{first:?}"
        );
    }

    #[test]
    fn frame_load_batched_matches_per_frame() {
        let net = network();
        let templates: Vec<(IsdAsn, Vec<u8>)> = [
            ("71-2:0:42", "71-2:0:5c"),
            ("71-225", "71-88"),
            ("71-2:0:3b", "71-2:0:3d"),
        ]
        .iter()
        .map(|(s, d)| {
            net.frame_template(ia(s), ia(d), b"load")
                .expect("path exists")
        })
        .collect();
        let schedule: Vec<u32> = (0..600u32).map(|i| i.wrapping_mul(7) % 3).collect();

        let before = net.telemetry().snapshot();
        let (batched, done) = work::counted(|| net.run_frame_load(&templates, &schedule, 64, true));
        let after_batched = net.telemetry().snapshot();
        let seq = net.run_frame_load(&templates, &schedule, 64, false);

        assert_eq!(seq, batched, "A/B modes must agree on every outcome");
        assert_eq!(batched.injected, 600);
        assert_eq!(batched.delivered, 600, "{batched:?}");
        assert_eq!(batched.dropped, 0);
        assert!(
            batched.router_ops > batched.delivered,
            "multi-hop paths: {batched:?}"
        );

        // Only the batched run goes through `process_batch`. Every frame
        // verifies each hop field it crosses: the three templates cross 12,
        // and each is sent 200 times.
        let snap = net.telemetry().snapshot();
        let delta =
            |name: &str| snap.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert_eq!(delta("router.batch.frames"), batched.router_ops);
        assert_eq!(delta("router.batch.calls"), batched.batches);
        assert_eq!(done.aes_blocks, 200 * 12);
        assert!(snap.gauge("pool.frame.high_watermark").unwrap_or(0) > 0);
        assert!(delta("dispatcher.shard.batches") > 0);

        // The pool counters the benchmark reads: every injected frame of one
        // run takes exactly one buffer, and the pool recycles within a run.
        let pool = |name: &str| {
            after_batched.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
        };
        assert_eq!(
            pool("pool.frame.hit") + pool("pool.frame.miss"),
            batched.injected
        );
        assert!(pool("pool.frame.hit") > 0);
    }

    #[test]
    fn frame_load_drops_at_a_dead_link() {
        let net = network();
        let pairs = [("71-2:0:42", "71-2:0:5c"), ("71-225", "71-88")];
        let templates: Vec<(IsdAsn, Vec<u8>)> = pairs
            .iter()
            .map(|(s, d)| net.frame_template(ia(s), ia(d), b"cut").unwrap())
            .collect();
        let links: Vec<Vec<usize>> = pairs
            .iter()
            .map(|(s, d)| net.path_links(&net.paths(ia(s), ia(d))[0]))
            .collect();
        let cut = *links[0]
            .iter()
            .find(|l| !links[1].contains(l))
            .expect("the first path crosses a link the second does not");
        net.set_link_index(cut, false);
        let schedule: Vec<u32> = (0..300u32).map(|i| i % 2).collect();

        let before = net.telemetry().snapshot();
        let report = net.run_frame_load(&templates, &schedule, 32, true);
        let snap = net.telemetry().snapshot();
        let delta =
            |name: &str| snap.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);

        assert_eq!(report.dropped, 150, "the cut template's frames: {report:?}");
        assert_eq!(report.delivered, 150, "the other template's frames");
        assert_eq!(report.injected, report.delivered + report.dropped);
        assert_eq!(delta("router.delivered"), 150);
        assert_eq!(
            delta("pool.frame.hit") + delta("pool.frame.miss"),
            report.injected
        );
    }

    #[test]
    fn flowgen_schedule_drives_the_network() {
        use sciera_flowgen::{FlowGen, FlowGenConfig};
        let net = network();
        let templates: Vec<(IsdAsn, Vec<u8>)> =
            [("71-2:0:42", "71-2:0:5c"), ("71-225", "71-2:0:3b")]
                .iter()
                .map(|(s, d)| {
                    net.frame_template(ia(s), ia(d), b"flowgen")
                        .expect("path exists")
                })
                .collect();

        let mut gen = FlowGen::new(FlowGenConfig {
            endhosts: 5_000,
            flows_per_host_per_day: 400.0,
            elephant_fraction: 0.02,
            elephant_file_bytes: 2 * 1024 * 1024,
            templates: templates.len() as u32,
            ..FlowGenConfig::default()
        });
        gen.set_telemetry(&net.telemetry());
        let (schedule, fg) = gen.generate(30, 3_000);
        assert!(fg.packets > 0);

        let pkts: Vec<u32> = schedule.iter().map(|p| p.template).collect();
        let report = net.run_frame_load(&templates, &pkts, 128, true);
        assert_eq!(report.injected, fg.packets);
        assert_eq!(report.delivered, fg.packets, "{report:?}");
        let snap = net.telemetry().snapshot();
        // The counter tracks everything emitted; the report reflects the
        // capped schedule, so the counter can only run ahead.
        assert!(snap.counter("flowgen.packets").unwrap_or(0) >= fg.packets);
    }

    #[test]
    fn expired_certificates_would_fail_verification() {
        let net = network();
        // Far in the future the AS certs (3-day lifetime) are dead.
        let cert = net.chain(ia("71-2:0:42")).unwrap().as_cert;
        assert!(cert.check_validity(net.now_unix()).is_ok());
        assert!(cert.check_validity(net.now_unix() + 10 * 86_400).is_err());
    }

    #[test]
    fn build_from_synthetic_topology_probes_and_injects_faults() {
        use sciera_topology::synth::{synthesize, SynthConfig};
        use scion_orchestrator::health::DownReason;
        let topo = synthesize(&SynthConfig::sized(40));
        let mut net = SciEraNetwork::build_from_topology(topo, NetworkConfig::default());
        assert!(net.trust().verified_as_count() >= 40);
        assert!(net.link_count() > 0);

        // Pick a pair with at least two paths (synthetic graphs are meshy
        // enough that leaf-to-leaf pairs have alternatives).
        let ases: Vec<IsdAsn> = net.secrets.keys().copied().collect();
        let (src, dst, paths) = ases
            .iter()
            .flat_map(|&s| ases.iter().map(move |&d| (s, d)))
            .filter(|(s, d)| s != d)
            .find_map(|(s, d)| {
                let p = net.paths(s, d);
                (p.len() >= 2).then_some((s, d, p))
            })
            .expect("some pair has multiple paths");

        // The prober/health stack works over the synthetic deployment.
        let snapshot = net.register_probe_pair_capped(src, dst, 4);
        assert!(!snapshot.is_empty() && snapshot.len() <= 4);
        assert!(snapshot.len() <= paths.len());
        let results = SciEraNetwork::probe_round(&net);
        assert_eq!(results.len(), snapshot.len());
        let key = snapshot[0].fingerprint_key();
        let state = |net: &SciEraNetwork| {
            net.read_board(|board| {
                let path = board.path(src, dst, key).expect("probed path known");
                (path.alive, path.down_reason)
            })
        };
        let (alive, reason) = state(&net);
        assert!(alive, "freshly probed path is alive ({reason:?})");

        // Cost-change injection scales RTT relative to nominal and
        // restores it exactly; factors never compound.
        let links = net.path_links(&snapshot[0]);
        assert!(!links.is_empty());
        let rtt = |net: &SciEraNetwork| {
            let plane = &net.inner.lock().plane;
            let down = |i: usize| plane.links.down[i];
            plane.topo.path_rtt_ms(&snapshot[0], &down).unwrap()
        };
        let nominal = rtt(&net);
        net.set_link_latency_factor(links[0], 3.0);
        net.set_link_latency_factor(links[0], 3.0);
        assert!(rtt(&net) > nominal);
        net.set_link_latency_factor(links[0], 1.0);
        assert!((rtt(&net) - nominal).abs() < 1e-9);

        // Kill every link of the first path by index: it must die and be
        // SCMP-attributed; restore brings the path back.
        for &li in &links {
            DynamicsNet::set_link_up(&mut net, li, false);
        }
        SciEraNetwork::probe_round(&net);
        let (alive, reason) = state(&net);
        assert!(!alive);
        assert!(
            matches!(reason, Some(DownReason::ExtIfDown { .. })),
            "SCMP attribution expected, got {reason:?}"
        );
        for &li in &links {
            DynamicsNet::set_link_up(&mut net, li, true);
        }
        SciEraNetwork::probe_round(&net);
        assert!(state(&net).0, "path revives");
    }

    /// A traced packet rides the same loop as an untraced frame, through
    /// the routers' decode path: over a synthetic deployment the two agree
    /// hop for hop, and a cut link yields the same `LinkDown` and the same
    /// SCMP to the source for either.
    #[test]
    fn traced_and_untraced_walks_agree() {
        use sciera_topology::synth::{synthesize, SynthConfig};
        use scion_pan::socket::PanTransport;
        let topo = synthesize(&SynthConfig::sized(40));
        let net = SciEraNetwork::build_from_topology(topo, NetworkConfig::default());
        let ases: Vec<IsdAsn> = net.secrets.keys().copied().collect();
        let longest: Vec<FullPath> = ases
            .iter()
            .zip(ases.iter().rev())
            .filter(|(s, d)| s != d)
            .filter_map(|(&s, &d)| net.paths(s, d).into_iter().max_by_key(FullPath::len))
            .filter(|p| p.len() >= 3)
            .collect();
        assert!(longest.len() >= 8, "only {} multi-hop pairs", longest.len());

        for (n, p) in longest.iter().enumerate() {
            let src = net.attach_host(ScionAddr::new(p.src, HostAddr::v4(10, 9, 0, 1)));
            let dst = ScionAddr::new(p.dst, HostAddr::v4(10, 9, 0, 2));
            let packet = |traced: bool| {
                let mut pkt = ScionPacket::new(
                    src.addr,
                    dst,
                    L4Protocol::Udp,
                    DataPlanePath::Scion(p.to_dataplane().unwrap()),
                    scion_proto::udp::UdpDatagram::new(1, 2, vec![n as u8; 48]).encode(),
                );
                pkt.trace = traced.then(|| TraceContext::root(n as u64 + 1));
                pkt
            };
            let by_frame = net.walk_frame(packet(false).encode().unwrap()).unwrap();
            let by_packet = net.walk_packet(packet(true)).unwrap();
            assert_eq!(by_frame.route, p.ases());
            assert_eq!(by_packet.route, by_frame.route);
            assert_eq!(by_packet.latency_ms, by_frame.latency_ms);
            assert_eq!(by_packet.packet.payload, by_frame.packet.payload);
            assert_eq!(by_packet.packet.path, by_frame.packet.path);

            // Cut the link out of the path's second AS.
            let at = p.hops[1];
            let cut = net
                .inner
                .lock()
                .plane
                .topo
                .link_index_of(at.ia, at.egress)
                .unwrap();
            net.set_link_index(cut, false);
            let down = Err(NetError::LinkDown {
                at: at.ia,
                ifid: at.egress,
            });
            assert_eq!(
                net.walk_frame(packet(false).encode().unwrap()).map(|_| ()),
                down
            );
            assert_eq!(net.walk_packet(packet(true)).map(|_| ()), down);
            let mut inbox = src.transport();
            for walk in ["frame", "packet"] {
                let scmp = inbox.recv_packet().expect("one SCMP per failed walk");
                assert_eq!(scmp.next_hdr, L4Protocol::Scmp, "{walk} walk");
                assert_eq!(
                    ScmpMessage::decode(&scmp.payload).unwrap(),
                    ScmpMessage::ExternalInterfaceDown {
                        ia: at.ia,
                        interface: at.egress as u64,
                    },
                    "{walk} walk"
                );
            }
            assert!(inbox.recv_packet().is_none());
            net.set_link_index(cut, true);
        }
    }

    #[test]
    fn paths_respect_link_state() {
        let net = network();
        let (src, dst) = (ia("71-2:0:3b"), ia("71-2:0:3d"));
        let before = net.paths(src, dst);
        assert_eq!(net.set_links("Daejeon-Singapore direct", false), 1);
        let after = net.paths(src, dst);
        assert!(
            after.len() < before.len(),
            "cable cut must remove paths ({} -> {})",
            before.len(),
            after.len()
        );
        assert!(!after.is_empty(), "ring still provides connectivity");
        // Exactly the paths that touch either end of the cable, entering or
        // leaving, are gone; the rest keep their order.
        let ends = {
            let inner = net.inner.lock();
            let mut links = inner.plane.topo.links.iter();
            let cable = links.find(|l| l.spec.label.contains("Daejeon-Singapore direct"));
            cable.unwrap().ends()
        };
        let spared: Vec<FullPath> = before
            .iter()
            .filter(|p| !ends.iter().any(|&(at, ifid)| p.crosses(at, ifid)))
            .cloned()
            .collect();
        assert_eq!(after, spared);
        net.set_links("Daejeon-Singapore direct", true);
        assert_eq!(net.paths(src, dst), before);
    }
}

/// Link state is kept twice — per-index flags for the walkers, the sorted
/// dead-interface list for lookups — and the lookup's filter reads only the
/// second. These tests hold both to a model of their own and to the filter
/// the list replaced.
#[cfg(test)]
mod link_state_tests {
    use super::*;
    use parking_lot::MutexGuard;
    use proptest::prelude::*;
    use sciera_topology::synth::{synthesize, SynthConfig};
    use scion_pan::socket::PanTransport;
    use std::sync::OnceLock;

    /// A 60-AS synthetic deployment, the harness's own copy of its topology
    /// (same config, same seed, same links), and a few leaf pairs with the
    /// path database's full answer for each.
    pub(super) struct Fixture {
        pub(super) net: SciEraNetwork,
        pub(super) topo: BuiltTopology,
        pub(super) answers: Vec<(IsdAsn, IsdAsn, Vec<FullPath>)>,
    }

    /// The one fixture, locked for a test's duration: every test toggles
    /// links and leaves them all up.
    pub(super) fn fixture() -> MutexGuard<'static, Fixture> {
        static FIXTURE: OnceLock<Mutex<Fixture>> = OnceLock::new();
        let build = || {
            let cfg = SynthConfig::sized(60);
            let net =
                SciEraNetwork::build_from_topology(synthesize(&cfg), NetworkConfig::default());
            let topo = synthesize(&cfg);
            let mut leaves: Vec<IsdAsn> = topo
                .graph
                .ases()
                .filter(|n| !n.core)
                .map(|n| n.ia)
                .collect();
            leaves.sort_unstable();
            let answers: Vec<_> = leaves
                .iter()
                .zip(leaves.iter().rev())
                .map(|(&s, &d)| (s, d, net.pathdb().paths(s, d, LOOKUP_MAX_PATHS)))
                .filter(|(_, _, all)| all.len() >= 4)
                .take(6)
                .collect();
            assert_eq!(answers.len(), 6, "six leaf pairs with alternatives");
            Mutex::new(Fixture { net, topo, answers })
        };
        FIXTURE.get_or_init(build).lock()
    }

    impl Fixture {
        /// With `model[i]` saying whether link `i` is down: `crossing`
        /// reports each link so from either end, the dead list is both ends
        /// of the down links and nothing else, and a lookup — an operator's
        /// or a host's — answers what the old per-hop filter leaves of the
        /// database's answer, in its order.
        fn agrees_with(&self, model: &[bool]) {
            {
                let plane = &self.net.inner.lock().plane;
                assert_eq!(plane.links.down, model);
                let mut dead = Vec::new();
                for (l, &down) in self.topo.links.iter().zip(model) {
                    for (at, ifid) in l.ends() {
                        let node = plane.topo.node_of(at).unwrap();
                        assert_eq!(plane.crossing(node, ifid).unwrap().up, !down);
                        dead.extend(down.then_some(if_key(at, ifid)));
                    }
                }
                dead.sort_unstable();
                assert_eq!(plane.links.dead, dead);
            }
            let down = |i: usize| model[i];
            for (src, dst, all) in &self.answers {
                let mut want = all.clone();
                want.retain(|p| self.topo.path_alive(p, &down));
                assert_eq!(&self.net.paths(*src, *dst), &want);
                let host = self
                    .net
                    .attach_host(ScionAddr::new(*src, HostAddr::v4(10, 7, 0, 1)));
                assert_eq!(host.transport().lookup_paths(*dst), want);
            }
        }

        /// Indices of the links whose label contains `label`.
        fn labelled(&self, label: &str) -> Vec<usize> {
            let links = self.topo.links.iter().enumerate();
            links
                .filter(|(_, l)| l.spec.label.contains(label))
                .map(|(i, _)| i)
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Down-sets of 0, 1, 2 and 8 links (drawn with repetition), a
        /// third of all links and all of them, taken down by index or by
        /// label and brought back the other way.
        #[test]
        fn live_equals_the_per_hop_filter(
            size in 0usize..6,
            picks in prop::collection::vec(any::<u32>(), 8),
            by_label in any::<bool>(),
        ) {
            let fx = fixture();
            let n = fx.topo.links.len();
            let chosen: Vec<usize> = match size {
                0..=3 => picks[..[0, 1, 2, 8][size]].iter().map(|&p| p as usize % n).collect(),
                4 => (0..n).filter(|i| (i + picks[0] as usize).is_multiple_of(3)).collect(),
                _ => (0..n).collect(),
            };
            let mut model = vec![false; n];
            for &l in &chosen {
                if by_label {
                    let label = &fx.topo.links[l].spec.label;
                    let class = fx.labelled(label);
                    prop_assert_eq!(fx.net.set_links(label, false), class.len());
                    class.into_iter().for_each(|i| model[i] = true);
                } else {
                    fx.net.set_link_index(l, false);
                    model[l] = true;
                }
            }
            fx.agrees_with(&model);

            for &l in &chosen {
                if by_label {
                    fx.net.set_link_index(l, true);
                    model[l] = false;
                } else {
                    let label = &fx.topo.links[l].spec.label;
                    fx.net.set_links(label, true);
                    fx.labelled(label).into_iter().for_each(|i| model[i] = false);
                }
            }
            fx.agrees_with(&model);
            // Whatever is left of a label's class comes up by index.
            for i in 0..n {
                fx.net.set_link_index(i, true);
            }
            fx.agrees_with(&vec![false; n]);
        }
    }

    #[test]
    fn one_writer_keeps_both_views_coherent() {
        let fx = fixture();
        let n = fx.topo.links.len();
        let mut model = vec![false; n];
        let (src, dst, all) = fx.answers[0].clone();
        // A link of the first pair's shortest path whose label it shares
        // with others.
        let (l, class) = fx
            .net
            .path_links(&all[0])
            .into_iter()
            .map(|l| (l, fx.labelled(&fx.topo.links[l].spec.label)))
            .find(|(_, class)| class.len() > 1)
            .expect("a shortest path crosses a link of a labelled class");
        let label = fx.topo.links[l].spec.label.clone();

        // Down twice then up once is up: state, not a count.
        for up in [false, false, true] {
            fx.net.set_link_index(l, up);
            model[l] = !up;
            fx.agrees_with(&model);
        }
        // Up on an up link, and any index past the last, change nothing.
        fx.net.set_link_index(l, true);
        fx.net.set_link_index(n, false);
        fx.agrees_with(&model);

        // By index, then by a label that covers the same link and more.
        fx.net.set_link_index(l, false);
        model[l] = true;
        fx.agrees_with(&model);
        assert_eq!(fx.net.set_links(&label, false), class.len());
        class.iter().for_each(|&i| model[i] = true);
        fx.agrees_with(&model);
        fx.net.set_link_index(l, true);
        model[l] = false;
        fx.agrees_with(&model);
        assert_eq!(fx.net.set_links(&label, true), class.len());
        class.iter().for_each(|&i| model[i] = false);
        fx.agrees_with(&model);

        // Everything restored: nothing is dead, and a lookup is the
        // database's answer as it stands.
        assert!(fx.net.inner.lock().plane.links.dead.is_empty());
        assert_eq!(
            fx.net.paths(src, dst),
            fx.net.pathdb().paths(src, dst, LOOKUP_MAX_PATHS)
        );
        assert_eq!(fx.net.paths(src, dst), all);
    }

    /// What lets "no egress is dead" stand for "every crossed link is up":
    /// a path the network's own store yields leaves each AS through an
    /// interface of the topology (the per-hop filter dropped a path with an
    /// unknown interface; none exists), and the link there enters the next
    /// hop's AS through that hop's ingress — so testing egresses tests both
    /// ends of every crossed link.
    #[test]
    fn store_paths_only_cross_links_of_the_topology() {
        let fx = fixture();
        let ases: Vec<IsdAsn> = fx.net.secrets.keys().copied().collect();
        let mut hops = 0;
        for &src in &ases {
            // Eight destinations a source, spread over the deployment.
            for &dst in ases.iter().skip(src.to_u64() as usize % 7).step_by(7) {
                for p in fx.net.pathdb().paths(src, dst, LOOKUP_MAX_PATHS) {
                    assert_eq!(p.hops.last().unwrap().egress, 0);
                    for pair in p.hops.windows(2) {
                        let (h, next) = (pair[0], pair[1]);
                        let l = fx.topo.link_index_of(h.ia, h.egress);
                        let l = &fx.topo.links[l.expect("egress is an interface of the topology")];
                        let [a, b] = l.ends();
                        let far = if a == (h.ia, h.egress) { b } else { a };
                        assert_eq!(far, (next.ia, next.ingress), "{p:?}");
                        hops += 1;
                    }
                }
            }
        }
        assert!(hops > 10_000, "only {hops} hops checked");
    }
}

/// The delivering loop against the loop it replaced, and what it leaves in
/// the inboxes.
#[cfg(test)]
mod carry_tests {
    use super::link_state_tests::{fixture, Fixture};
    use super::*;
    use scion_pan::socket::PanTransport;

    /// What a walk gives back, in comparable form: delivered frame bytes,
    /// route and latency bits, or the error.
    type Outcome = Result<(Vec<u8>, Vec<IsdAsn>, u64), NetError>;

    /// The parent's frame walk: a search per hop for the router and another
    /// for the link, over the test's own topology copy, routers and link
    /// state. Returns the SCMP it would have queued to the source.
    fn reference_walk(
        fx: &Fixture,
        routers: &mut BTreeMap<IsdAsn, BorderRouter>,
        down: &[bool],
        mut frame: Vec<u8>,
    ) -> (Outcome, Option<ScionPacket>) {
        let now = fx.net.now_unix();
        let mut current = ScionPacket::decode(&frame).unwrap().src.ia;
        let (mut ingress, mut latency, mut route) = (0u16, 0.0f64, vec![current]);
        for _ in 0..64 {
            let router = routers.get_mut(&current).unwrap();
            match router.process_frame(&mut frame, ingress, now) {
                Ok(FrameDecision::Deliver) => return (Ok((frame, route, latency.to_bits())), None),
                Ok(FrameDecision::Forward { ifid }) => {
                    let li = fx.topo.link_index_of(current, ifid).unwrap();
                    let l = &fx.topo.links[li];
                    if down[li] {
                        let offending = ScionPacket::decode(&frame).unwrap();
                        let scmp = router.external_interface_down(&offending, ifid);
                        return (Err(NetError::LinkDown { at: current, ifid }), scmp);
                    }
                    let [a, b] = l.ends();
                    (current, ingress) = if a.0 == current { b } else { a };
                    latency += l.spec.latency_ms;
                    route.push(current);
                }
                Err(FrameError::Drop(e)) => {
                    return (Err(NetError::Dropped(format!("{current}: {e:?}"))), None)
                }
                Err(FrameError::Malformed(m)) => {
                    return (Err(NetError::Dropped(format!("{current}: {m}"))), None)
                }
            }
        }
        (Err(NetError::HopBudgetExceeded), None)
    }

    /// The first path of 40 leaf pairs, as ready-to-send 200-byte frames.
    fn frames(fx: &Fixture) -> Vec<(ScionAddr, ScionAddr, FullPath, Vec<u8>)> {
        let mut leaves: Vec<IsdAsn> = fx
            .topo
            .graph
            .ases()
            .filter(|n| !n.core)
            .map(|n| n.ia)
            .collect();
        leaves.sort_unstable();
        let pairs = leaves.iter().zip(leaves.iter().cycle().skip(7));
        let out: Vec<_> = pairs
            .filter_map(|(&s, &d)| fx.net.pathdb().paths(s, d, 1).pop())
            .take(40)
            .enumerate()
            .map(|(n, p)| {
                let src = ScionAddr::new(p.src, HostAddr::v4(10, 8, n as u8, 1));
                let dst = ScionAddr::new(p.dst, HostAddr::v4(10, 8, n as u8, 2));
                let pkt = ScionPacket::new(
                    src,
                    dst,
                    L4Protocol::Udp,
                    DataPlanePath::Scion(p.to_dataplane().unwrap()),
                    scion_proto::udp::UdpDatagram::new(1, 2, vec![n as u8; 200]).encode(),
                );
                (src, dst, p, pkt.encode().unwrap())
            })
            .collect();
        assert_eq!(out.len(), 40, "forty connected leaf pairs");
        out
    }

    #[test]
    fn the_product_loop_equals_the_reference_walker() {
        let fx = fixture();
        let frames = frames(&fx);
        let n = fx.topo.links.len();
        let mut routers: BTreeMap<IsdAsn, BorderRouter> = {
            let inner = fx.net.inner.lock();
            inner
                .plane
                .routers
                .iter()
                .map(|r| (r.ia, r.clone()))
                .collect()
        };
        // Links these paths cross, so that a down-set of one bites.
        let mut crossed: Vec<usize> = frames
            .iter()
            .flat_map(|f| fx.net.path_links(&f.2))
            .collect();
        crossed.sort_unstable();
        crossed.dedup();
        let eight = crossed
            .iter()
            .step_by(crossed.len() / 8)
            .take(8)
            .copied()
            .collect();
        let (mut delivered, mut refused) = (0, 0);
        for dead in [vec![], vec![crossed[crossed.len() / 2]], eight] {
            let mut down = vec![false; n];
            for &l in &dead {
                fx.net.set_link_index(l, false);
                down[l] = true;
            }
            for (src, dst, path, frame) in &frames {
                let (want, want_scmp) = reference_walk(&fx, &mut routers, &down, frame.clone());
                let got: Outcome = fx.net.walk_frame(frame.clone()).map(|d| {
                    assert_eq!(d.route, path.ases());
                    (d.packet.encode().unwrap(), d.route, d.latency_ms.to_bits())
                });
                assert_eq!(got, want, "{} -> {} with {dead:?} down", src.ia, dst.ia);
                // The public walk left its copy at the destination and, on
                // a dead link, the router's SCMP at the source.
                let at_dst = fx.net.attach_host(*dst).transport().recv_packet();
                assert_eq!(
                    at_dst.map(|p| p.encode().unwrap()),
                    got.as_ref().ok().map(|g| g.0.clone())
                );
                let at_src = fx.net.attach_host(*src).transport().recv_packet();
                assert_eq!(
                    at_src.map(|p| p.encode().unwrap()),
                    want_scmp.as_ref().map(|p| p.encode().unwrap())
                );
                assert_eq!(
                    want_scmp.is_some(),
                    matches!(got, Err(NetError::LinkDown { .. }))
                );
                match got {
                    Ok(_) => delivered += 1,
                    Err(_) => refused += 1,
                }
            }
            dead.iter().for_each(|&l| fx.net.set_link_index(l, true));
        }
        assert!(
            delivered >= 60 && refused >= 10,
            "{delivered} delivered, {refused} refused"
        );
    }

    /// Every inbox of the network.
    fn inboxes(net: &SciEraNetwork) -> BTreeMap<ScionAddr, VecDeque<ScionPacket>> {
        net.inner.lock().plane.inboxes.clone()
    }

    #[test]
    fn a_sent_packet_lands_once_in_the_destination_inbox() {
        let fx = fixture();
        for (src, dst, _, frame) in frames(&fx).into_iter().take(8) {
            let mut tx = fx.net.attach_host(src).transport();
            let mut rx = fx.net.attach_host(dst).transport();
            let before = inboxes(&fx.net);
            assert!(before[&dst].is_empty());
            tx.send_packet(ScionPacket::decode(&frame).unwrap());
            let mut after = inboxes(&fx.net);
            // The frame as the last router left it: pointers advanced,
            // payload untouched.
            let at_dst = after.insert(dst, VecDeque::new()).unwrap();
            assert_eq!(at_dst, [fx.net.walk_frame(frame).unwrap().packet]);
            assert_eq!(after, before, "and nowhere else");
            while rx.recv_packet().is_some() {}
        }
    }

    #[test]
    fn a_probe_round_leaves_every_inbox_as_it_found_it() {
        let fx = fixture();
        let (src, dst, all) = fx.answers[0].clone();
        fx.net
            .inner
            .lock()
            .prober
            .register(src, dst, all[..4].to_vec());
        // A host with mail waiting, to show the comparison sees contents.
        let (_, host, _, frame) = frames(&fx).swap_remove(0);
        fx.net.walk_frame(frame).unwrap();
        let before = inboxes(&fx.net);
        assert_eq!(before[&host].len(), 1);

        let up = fx.net.probe_round();
        assert!(up
            .iter()
            .all(|r| matches!(r.outcome, EchoOutcome::Reply { .. })));
        assert_eq!(inboxes(&fx.net), before);

        // With a link of the first probed path cut, the on-path router's
        // SCMP is consumed by the echo that provoked it.
        let cut = fx.net.path_links(&all[0])[0];
        fx.net.set_link_index(cut, false);
        let cut_round = fx.net.probe_round();
        assert!(matches!(
            cut_round[0].outcome,
            EchoOutcome::ExtIfDown { .. }
        ));
        assert_eq!(inboxes(&fx.net), before);
        fx.net.set_link_index(cut, true);
        fx.net.inner.lock().prober.register(src, dst, Vec::new());
        fx.net.attach_host(host).transport().recv_packet();
    }

    /// The source reads what comes back: only the echo reply to its own
    /// request counts, and the destination answers an echo request only.
    #[test]
    fn only_the_reply_to_this_echo_counts() {
        let fx = fixture();
        let (src, dst, all) = &fx.answers[0];
        let request = echo_request(*src, *dst, &all[0]).unwrap();
        let at = request.len() - EchoHeader::LEN;
        let stamped = |reply: bool, id: u16, seq: u16| {
            let mut frame = request.clone();
            EchoHeader { reply, id, seq }.write(&mut frame[at..]);
            frame
        };
        // The kept request, stamped, is the request built whole.
        let whole = ScionPacket::new(
            ScionAddr::new(*src, PROBER_SRC),
            ScionAddr::new(*dst, PROBER_DST),
            L4Protocol::Scmp,
            DataPlanePath::Scion(all[0].to_dataplane().unwrap()),
            ScmpMessage::EchoRequest {
                id: 7,
                seq: 9,
                data: vec![],
            }
            .encode(),
        );
        assert_eq!(stamped(false, 7, 9), whole.encode().unwrap());

        let mut answered = stamped(false, 7, 9);
        assert!(answer_echo(&mut answered));
        let reply = EchoHeader {
            reply: true,
            id: 7,
            seq: 9,
        };
        assert_eq!(echo_in(&answered), Some(reply));
        // A reply, or anything not SCMP, goes unanswered and untouched.
        let udp = frames(&fx).swap_remove(0).3;
        for unanswered in [stamped(true, 7, 9), udp] {
            let mut frame = unanswered.clone();
            assert!(!answer_echo(&mut frame));
            assert_eq!(frame, unanswered);
        }

        let carried = |frame: Vec<u8>| Carried {
            frame,
            hops: 3,
            latency_ms: 1.5,
        };
        let fwd = carried(stamped(false, 7, 9));
        assert_eq!(
            echo_verdict(&fwd, &carried(answered.clone()), 7, 9),
            EchoOutcome::Reply {
                rtt_ms: 3.0 + 6.0 * PER_AS_OVERHEAD_MS
            }
        );
        // Another seq or id, or the request itself come back: lost.
        let mut altered = answered;
        EchoHeader { seq: 10, ..reply }.write(&mut altered[at..]);
        for back in [altered, stamped(true, 8, 9), stamped(false, 7, 9)] {
            assert_eq!(echo_verdict(&fwd, &carried(back), 7, 9), EchoOutcome::Lost);
        }
    }

    #[test]
    fn a_pair_registered_anew_forgets_its_echo_requests() {
        let fx = fixture();
        let (src, dst, _) = fx.answers[1];
        let kept = |net: &SciEraNetwork| {
            let inner = net.inner.lock();
            let pair = inner
                .plane
                .echo_requests
                .keys()
                .filter(|k| (k.0, k.1) == (src, dst));
            pair.map(|k| k.2).collect::<Vec<_>>()
        };
        let probed = fx.net.register_probe_pair_capped(src, dst, 3);
        assert!(kept(&fx.net).is_empty(), "built at the first echo");
        fx.net.probe_round();
        let mut keys: Vec<[u8; 8]> = probed.iter().map(|p| p.fingerprint_key()).collect();
        keys.sort_unstable();
        assert_eq!(kept(&fx.net), keys);
        // The board forgets the two paths that left the set at once: their
        // rows, their share of the pair's score and of the healthy gauge,
        // with no churn for dropping them, then or at the next round.
        let rows = |net: &SciEraNetwork| {
            let rows = net.health_rows().into_iter();
            let pair = rows.filter(|r| (r.src, r.dst) == (src, dst));
            pair.map(|r| (r.fingerprint, r.alive)).collect::<Vec<_>>()
        };
        let healthy = |net: &SciEraNetwork| {
            let snapshot = net.telemetry().snapshot();
            snapshot
                .gauge("health.healthy_paths")
                .expect("set by a round")
        };
        assert_eq!(rows(&fx.net).len(), 3);
        assert!(rows(&fx.net).iter().all(|r| r.1), "all three alive");
        let (before, churned) = (healthy(&fx.net), fx.net.churn_events().len());
        fx.net.register_probe_pair_capped(src, dst, 1);
        assert!(kept(&fx.net).is_empty());
        let first = (probed[0].fingerprint(), true);
        assert_eq!(rows(&fx.net), std::slice::from_ref(&first));
        assert_eq!(healthy(&fx.net), before - 2);
        let score = fx.net.pair_score(src, dst);
        let row = fx
            .net
            .health_rows()
            .into_iter()
            .find(|r| r.fingerprint == first.0);
        assert_eq!(score, row.map(|r| r.score));
        fx.net.probe_round();
        assert_eq!(kept(&fx.net), [probed[0].fingerprint_key()]);
        assert_eq!(rows(&fx.net), [first]);
        assert_eq!(healthy(&fx.net), before - 2);
        assert_eq!(
            fx.net.churn_events().len(),
            churned,
            "forgetting is not churn"
        );
        fx.net.register_probe_pair_capped(src, dst, 0);
        assert!(rows(&fx.net).is_empty());
    }
}

#[cfg(test)]
mod traceroute_tests {
    use super::*;
    use scion_proto::addr::{ia, HostAddr};

    #[test]
    fn traceroute_names_every_on_path_as_in_order() {
        let net = SciEraNetwork::build(NetworkConfig::default());
        let src = ScionAddr::new(ia("71-2:0:42"), HostAddr::v4(10, 0, 0, 9));
        let dst = ia("71-2:0:5c");
        let expected: Vec<IsdAsn> = net.paths(src.ia, dst)[0].ases();
        let hops = net.traceroute(src, dst);
        assert_eq!(hops.len(), expected.len(), "one answer per AS-level hop");
        let answered: Vec<IsdAsn> = hops.iter().map(|(ia, _, _)| *ia).collect();
        assert_eq!(answered, expected);
        // RTT grows (weakly) with hop depth, and interfaces are reported.
        for w in hops.windows(2) {
            assert!(w[0].2 <= w[1].2 + 1e-9, "rtt must not shrink with depth");
        }
        assert!(hops.last().unwrap().2 > 0.0);
    }

    #[test]
    fn traceroute_without_path_is_empty() {
        let net = SciEraNetwork::build(NetworkConfig::default());
        net.set_links("RNP-UFMS", false);
        let src = ScionAddr::new(ia("71-2:0:5c"), HostAddr::v4(10, 0, 0, 9));
        assert!(net.traceroute(src, ia("71-20965")).is_empty());
    }
}
