//! `datagram_stream`: steady-state goodput over long-lived connected
//! sockets. The control plane is bypassed entirely.

use std::time::Instant;

use sciera::control::fullpath::FullPath;
use sciera::pan::socket::PanSocket;
use sciera::proto::addr::ScionAddr;

use super::{pairs_where, shortest_is, Counts, Sample, Workload};
use crate::deploy::{host, Deployment, Wire};
use crate::seeded::{pair_pool, SplitMix64};
use crate::spans::Tracer;

pub const SOCKETS: usize = 16;
/// Payload sizes, rotated: the smallest, a middling one, and the largest a
/// PAN socket accepts.
pub const SIZES: [usize; 3] = [64, 512, 1200];
/// AS-level hops of every socket's path: the most common shortest-path
/// length between leaves of the deployment.
pub const HOPS: usize = 6;

struct Flow<T: sciera::pan::socket::PanTransport> {
    tx: PanSocket<T>,
    rx: PanSocket<T>,
    src: ScionAddr,
    path: FullPath,
}

pub struct Datagram<W: Wire> {
    dep: Deployment,
    wire: W,
    flows: Vec<Flow<W::Transport>>,
    payloads: [Vec<u8>; 3],
    next: u64,
}

impl<W: Wire> Datagram<W> {
    /// One datagram: sent, received at the peer, compared.
    #[inline]
    fn one(&mut self) -> bool {
        let n = self.next;
        self.next += 1;
        let flow = &mut self.flows[(n % SOCKETS as u64) as usize];
        let payload = &mut self.payloads[(n / SOCKETS as u64 % 3) as usize];
        payload[..8].copy_from_slice(&n.to_le_bytes());
        let tr = self.wire.tracer();
        tr.next_op();
        let op = tr.begin("op");
        let span = tr.begin("pan.send");
        let sent = flow.tx.send(payload);
        tr.end(span);
        let span = tr.begin("pan.poll_recv");
        let got = flow.rx.poll_recv();
        tr.end(span);
        tr.end(op);
        sent.is_ok() && matches!(&got, Some((p, from, _)) if p == payload && *from == flow.src)
    }
}

impl<W: Wire> Workload<W> for Datagram<W> {
    const BATCH: usize = 256;

    fn prepare(dep: Deployment, seed: u64, wire: W) -> Self {
        let pool = pair_pool(dep.leaves.len(), seed);
        let mut flows = Vec::with_capacity(SOCKETS);
        for (s, d, _) in pairs_where(&dep, &pool, |a| shortest_is(a, HOPS)) {
            // Every flow has hosts of its own, so no two share an inbox.
            let i = flows.len() as u8;
            let src = dep.net.attach_host(host(dep.leaves[s], 1 + i));
            let dst = dep.net.attach_host(host(dep.leaves[d], 101 + i));
            let mut tx = PanSocket::bind(src.addr, 4000, wire.wrap(src.transport()));
            let rx = PanSocket::bind(dst.addr, 5000, wire.wrap(dst.transport()));
            if tx.connect(dst.addr, 5000).is_err() {
                continue;
            }
            let Ok(path) = tx.selector_mut().active() else {
                continue;
            };
            flows.push(Flow {
                tx,
                rx,
                src: src.addr,
                path,
            });
            if flows.len() == SOCKETS {
                break;
            }
        }
        assert_eq!(
            flows.len(),
            SOCKETS,
            "the deployment has {SOCKETS} pairs {HOPS} hops apart"
        );
        dep.net.pathdb().flush();
        let mut rng = SplitMix64::new(seed);
        let payloads = SIZES.map(|len| (0..len).map(|_| rng.next_u64() as u8).collect());
        Datagram {
            dep,
            wire,
            flows,
            payloads,
            next: 0,
        }
    }

    fn sample(&mut self) -> Sample {
        let mut failed = 0;
        let t0 = Instant::now();
        for _ in 0..Self::BATCH {
            failed += u32::from(!self.one());
        }
        Sample {
            ns: t0.elapsed().as_nanos() as u64,
            failed,
        }
    }

    fn deployment(&self) -> &Deployment {
        &self.dep
    }

    fn probe_paths(&self) -> Vec<FullPath> {
        self.flows.iter().map(|f| f.path.clone()).collect()
    }

    fn check_counts(&self, moved: &Counts, ops: u64) -> Vec<String> {
        let mut bad = forwarding_counts(moved);
        let delivered = moved.get("router.delivered");
        if delivered != ops {
            bad.push(format!("routers delivered {delivered} of {ops} datagrams"));
        }
        let lookups = moved.get("pathdb.cache.hit") + moved.get("pathdb.cache.miss");
        if lookups != 0 {
            bad.push(format!("{lookups} path lookups on connected sockets"));
        }
        bad
    }
}

/// Expectations both forwarding workloads share: nothing leaves the fast
/// path and no ingress shard drops.
pub fn forwarding_counts(moved: &Counts) -> Vec<String> {
    let mut bad = Vec::new();
    for name in ["router.fastpath.fallback", "dispatcher.shard.dropped"] {
        if moved.get(name) != 0 {
            bad.push(format!("{name} moved by {}", moved.get(name)));
        }
    }
    bad
}
