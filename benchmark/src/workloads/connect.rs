//! `connect_cold` and `connect_warm`: a host's first contact with a peer,
//! with the path database empty and primed respectively.

use std::time::Instant;

use sciera::control::fullpath::FullPath;
use sciera::core::HostHandle;
use sciera::pan::socket::PanSocket;

use super::{pairs_where, Counts, Sample, Workload};
use crate::deploy::{host, Deployment, Wire, MAX_PATHS};
use crate::seeded::pair_pool;
use crate::spans::Tracer;

/// Primed pairs of `connect_warm`.
pub const WARM_POOL: usize = 64;
/// `connect_cold` empties the path database every this many operations,
/// untimed, so the cache (≈ 240 KB per answer) never outgrows 16 MB.
pub const FLUSH_EVERY: usize = 64;

const TX_PORT: u16 = 4000;
const RX_PORT: u16 = 4001;
const PAYLOAD: usize = 64;

pub struct Connect<W: Wire, const COLD: bool> {
    dep: Deployment,
    wire: W,
    handles: Vec<HostHandle>,
    /// One long-lived receiving socket per leaf AS.
    rx: Vec<PanSocket<W::Transport>>,
    /// Cold: every ordered leaf pair in seeded order, so no pair repeats
    /// within a run. Warm: the primed pool, cycled.
    pairs: Vec<(u16, u16)>,
    next: usize,
    payload: [u8; PAYLOAD],
}

impl<W: Wire, const COLD: bool> Workload<W> for Connect<W, COLD> {
    const BATCH: usize = 1;

    fn prepare(dep: Deployment, seed: u64, wire: W) -> Self {
        let handles: Vec<HostHandle> = dep
            .leaves
            .iter()
            .map(|&ia| dep.net.attach_host(host(ia, 0)))
            .collect();
        let rx = handles
            .iter()
            .map(|h| PanSocket::bind(h.addr, RX_PORT, wire.wrap(h.transport())))
            .collect();
        let mut pairs = pair_pool(dep.leaves.len(), seed);
        if !COLD {
            // The pool holds pairs whose answer fills the lookup cap (about
            // half of all leaf pairs): answer size sets the cost of a warm
            // connect, and a pool drawn without this rule would move the
            // metric by several percent from seed to seed.
            let pool: Vec<(u16, u16)> = pairs_where(&dep, &pairs, |a| a.len() == MAX_PATHS)
                .take(WARM_POOL)
                .map(|(s, d, _)| (s as u16, d as u16))
                .collect();
            assert_eq!(
                pool.len(),
                WARM_POOL,
                "the deployment has {WARM_POOL} pairs with a full answer"
            );
            let db = dep.net.pathdb();
            db.flush();
            for &(s, d) in &pool {
                db.paths(dep.leaves[s as usize], dep.leaves[d as usize], MAX_PATHS);
            }
            pairs = pool;
        }
        let mut payload = [0u8; PAYLOAD];
        let mut rng = crate::seeded::SplitMix64::new(seed);
        payload.fill_with(|| rng.next_u64() as u8);
        Connect {
            dep,
            wire,
            handles,
            rx,
            pairs,
            next: 0,
            payload,
        }
    }

    fn sample(&mut self) -> Sample {
        let (s, d) = self.pairs[self.next % self.pairs.len()];
        let (s, d) = (s as usize, d as usize);
        let (src, dst) = (self.handles[s].addr, self.handles[d].addr);
        self.payload[..8].copy_from_slice(&(self.next as u64).to_le_bytes());
        let tr = self.wire.tracer();
        tr.next_op();
        let db = self.dep.net.pathdb();
        if tr.on() {
            // The direct probe of the layer below, on this op's input in
            // this op's cache state.
            let probe = tr.begin(if COLD {
                "control.pathdb.miss"
            } else {
                "control.pathdb.hit"
            });
            std::hint::black_box(db.paths(src.ia, dst.ia, MAX_PATHS));
            tr.end(probe);
            if COLD {
                db.flush();
            }
        } else if COLD && self.next.is_multiple_of(FLUSH_EVERY) {
            db.flush();
        }
        self.next += 1;

        let t0 = Instant::now();
        let op = tr.begin("op");
        let mut tx = PanSocket::bind(src, TX_PORT, self.wire.wrap(self.handles[s].transport()));
        let span = tr.begin("pan.connect");
        let connected = tx.connect(dst, RX_PORT);
        tr.end(span);
        let span = tr.begin("pan.first_send");
        let sent = tx.send(&self.payload);
        tr.end(span);
        let span = tr.begin("pan.poll_recv");
        let got = self.rx[d].poll_recv();
        tr.end(span);
        let span = tr.begin("pan.close");
        drop(tx);
        tr.end(span);
        tr.end(op);
        let ns = t0.elapsed().as_nanos() as u64;

        let ok = connected.is_ok()
            && sent.is_ok()
            && matches!(&got, Some((p, from, port))
                if p[..] == self.payload[..] && *from == src && *port == TX_PORT);
        Sample {
            ns,
            failed: u32::from(!ok),
        }
    }

    fn deployment(&self) -> &Deployment {
        &self.dep
    }

    fn probe_paths(&self) -> Vec<FullPath> {
        self.pairs
            .iter()
            .take(32)
            .filter_map(|&(s, d)| {
                let (s, d) = (self.dep.leaves[s as usize], self.dep.leaves[d as usize]);
                self.dep.net.paths(s, d).into_iter().next()
            })
            .collect()
    }

    fn check_counts(&self, moved: &Counts, ops: u64) -> Vec<String> {
        let (hit, miss) = (
            moved.get("pathdb.cache.hit"),
            moved.get("pathdb.cache.miss"),
        );
        let (want_hit, want_miss) = if COLD { (0, ops) } else { (ops, 0) };
        let mut bad = Vec::new();
        if (hit, miss) != (want_hit, want_miss) {
            bad.push(format!(
                "path database: {hit} hits and {miss} misses over {ops} connects, expected {want_hit} and {want_miss}"
            ));
        }
        bad
    }
}
