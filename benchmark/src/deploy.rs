//! The deployment every workload runs over, and the transport wrapper the
//! traced run records host-stack spans with.

use std::rc::Rc;

use sciera::control::fullpath::FullPath;
use sciera::core::network::{NetworkConfig, SimTransport};
use sciera::core::SciEraNetwork;
use sciera::pan::socket::PanTransport;
use sciera::proto::addr::{HostAddr, IsdAsn, ScionAddr};
use sciera::proto::packet::ScionPacket;
use sciera::topology::links::BuiltTopology;
use sciera::topology::synth::{synthesize, SynthConfig};

use crate::spans::{Off, Recorder, Tracer};

/// ASes in the synthetic deployment: about ten times SCIERA's 36.
pub const N_ASES: usize = 400;

/// Lookup cap every host lookup uses (`SimTransport::lookup_paths`).
pub const MAX_PATHS: usize = 200;

pub struct Deployment {
    pub net: SciEraNetwork,
    /// The harness's own copy of the topology (the network keeps its copy
    /// private): same config, same seed, same links.
    pub topo: BuiltTopology,
    /// Non-core ASes, ascending: where hosts attach.
    pub leaves: Vec<IsdAsn>,
}

impl Deployment {
    pub fn build() -> Self {
        let cfg = SynthConfig::sized(N_ASES);
        let net = SciEraNetwork::build_from_topology(synthesize(&cfg), NetworkConfig::default());
        let topo = synthesize(&cfg);
        let mut leaves: Vec<IsdAsn> = topo
            .graph
            .ases()
            .filter(|n| !n.core)
            .map(|n| n.ia)
            .collect();
        leaves.sort_unstable();
        Deployment { net, topo, leaves }
    }

    /// Both `(AS, interface)` ends of link `index`.
    pub fn link_ends(&self, index: usize) -> [(IsdAsn, u16); 2] {
        let l = &self.topo.links[index];
        [(l.spec.a, l.ifid_a), (l.spec.b, l.ifid_b)]
    }
}

/// Whether `path` crosses either end of a link.
pub fn crosses(path: &FullPath, ends: &[(IsdAsn, u16); 2]) -> bool {
    path.hops.iter().any(|h| {
        ends.iter()
            .any(|&(ia, ifid)| h.ia == ia && (h.ingress == ifid || h.egress == ifid))
    })
}

/// The `n`-th benchmark host of an AS.
pub fn host(ia: IsdAsn, n: u8) -> ScionAddr {
    ScionAddr::new(ia, HostAddr::v4(10, 0, n, 1))
}

/// How a workload reaches the network: directly (the untraced run, which
/// yields the end-to-end numbers) or through [`TimedTransport`] (the traced
/// run).
pub trait Wire {
    type Transport: PanTransport;
    type Tracer: Tracer;
    fn wrap(&self, inner: SimTransport) -> Self::Transport;
    fn tracer(&self) -> &Self::Tracer;
}

pub struct Raw;

impl Wire for Raw {
    type Transport = SimTransport;
    type Tracer = Off;
    fn wrap(&self, inner: SimTransport) -> SimTransport {
        inner
    }
    fn tracer(&self) -> &Off {
        &Off
    }
}

pub struct Timed(pub Rc<Recorder>);

impl Wire for Timed {
    type Transport = TimedTransport<SimTransport>;
    type Tracer = Recorder;
    fn wrap(&self, inner: SimTransport) -> Self::Transport {
        TimedTransport {
            inner,
            rec: Rc::clone(&self.0),
        }
    }
    fn tracer(&self) -> &Recorder {
        &self.0
    }
}

/// Records a span around each call a PAN socket makes into `sciera-core`,
/// so `core.*` nests under `pan.*` under `op`.
pub struct TimedTransport<T> {
    inner: T,
    rec: Rc<Recorder>,
}

impl<T: PanTransport> PanTransport for TimedTransport<T> {
    fn send_packet(&mut self, packet: ScionPacket) {
        let s = self.rec.begin("core.send_packet");
        self.inner.send_packet(packet);
        self.rec.end(s);
    }

    fn recv_packet(&mut self) -> Option<ScionPacket> {
        let s = self.rec.begin("core.recv_packet");
        let p = self.inner.recv_packet();
        self.rec.end(s);
        p
    }

    fn now_unix(&self) -> u64 {
        self.inner.now_unix()
    }

    fn lookup_paths(&mut self, dst: IsdAsn) -> Vec<FullPath> {
        let s = self.rec.begin("core.lookup_paths");
        let paths = self.inner.lookup_paths(dst);
        self.rec.end(s);
        paths
    }
}
