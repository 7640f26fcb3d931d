//! Allocation budgets of the per-datagram path, counted exactly.
//!
//! A datagram crosses the stack once: the payload is copied into the UDP
//! datagram, the datagram into the frame, the frame is rewritten in place by
//! every router, decoded once into the destination inbox and its payload
//! copied out to the application. Each of those steps owns a known number of
//! heap allocations, none of them per hop, and the counts repeat exactly —
//! so a copy or a clone that creeps back in fails here, by name, before any
//! benchmark has to notice it as noise. A fresh socket's first contact over
//! a primed pair is counted the same way: choosing its path allocates
//! nothing. So is one border router: a frame, traced or not, allocates
//! nothing, and a batch only its list of verdicts. A cold path lookup
//! allocates for the paths it answers with, not for every candidate.
//!
//! The counter sits in this test crate (the product crates forbid unsafe
//! code) and counts only the thread that asked, only while it asks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sciera::control::segment::AsSecrets;
use sciera::dataplane::router::{BorderRouter, FrameDecision};
use sciera::orchestrator::prober::EchoOutcome;
use sciera::prelude::*;
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use sciera::proto::udp::UdpDatagram;
use sciera::topology::synth::{synthesize, SynthConfig};

thread_local! {
    /// (allocations, bytes requested) since counting was switched on;
    /// `None` while it is off. Const-initialised and without a destructor,
    /// so reading it from inside the allocator allocates nothing.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

struct Counting;

fn note(bytes: usize) {
    COUNT.with(|c| {
        if let Some((allocs, total)) = c.get() {
            c.set(Some((allocs + 1, total + bytes as u64)));
        }
    });
}

// SAFETY: every request is passed to the system allocator unchanged; the
// counter touches only a thread-local `Cell` of plain integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the (allocations, bytes) this
/// thread requested meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    let seen = COUNT.with(|c| c.replace(None)).expect("counting was on");
    (out, seen)
}

/// `run` three more times after a warm-up: the counts, which must repeat.
fn steady<R>(mut run: impl FnMut() -> R, check: impl Fn(R)) -> (u64, u64) {
    check(run());
    let seen: Vec<(u64, u64)> = (0..3)
        .map(|_| {
            let (out, n) = counted(&mut run);
            check(out);
            n
        })
        .collect();
    assert!(
        seen.iter().all(|n| *n == seen[0]),
        "counts repeat: {seen:?}"
    );
    seen[0]
}

/// The first leaf pair, in order, whose shortest path has `hops` ASes.
fn pair_apart(net: &SciEraNetwork, leaves: &[IsdAsn], hops: usize) -> FullPath {
    let pairs = leaves
        .iter()
        .flat_map(|&s| leaves.iter().rev().map(move |&d| (s, d)));
    pairs
        .filter(|(s, d)| s != d)
        .find_map(|(s, d)| {
            net.paths(s, d)
                .into_iter()
                .next()
                .filter(|p| p.len() == hops)
        })
        .unwrap_or_else(|| panic!("no leaf pair {hops} hops apart"))
}

const PAYLOAD: usize = 512;

#[test]
fn the_per_datagram_path_stays_within_its_allocation_budget() {
    let cfg = SynthConfig::sized(60);
    let topo = synthesize(&cfg);
    let mut leaves: Vec<IsdAsn> = topo
        .graph
        .ases()
        .filter(|n| !n.core)
        .map(|n| n.ia)
        .collect();
    leaves.sort_unstable();
    let net = SciEraNetwork::build_from_topology(topo, NetworkConfig::default());

    // --- A connected send and its receive, six hops apart.
    let path = pair_apart(&net, &leaves, 6);
    let a = net.attach_host(ScionAddr::new(path.src, HostAddr::v4(10, 0, 0, 1)));
    let b = net.attach_host(ScionAddr::new(path.dst, HostAddr::v4(10, 0, 0, 2)));
    let mut tx = PanSocket::bind(a.addr, 4000, a.transport());
    let mut rx = PanSocket::bind(b.addr, 5000, b.transport());
    tx.connect(b.addr, 5000).unwrap();
    assert!(tx.selector_mut().active().unwrap().len() >= 5);
    let payload = vec![0xA5u8; PAYLOAD];
    let (allocs, bytes) = steady(
        || {
            tx.send(&payload).unwrap();
            rx.poll_recv()
        },
        |got| assert_eq!(got.map(|(p, _, _)| p).as_deref(), Some(&payload[..])),
    );
    // The pinned path's two lists, the datagram, the frame; the decoded
    // packet's payload and two lists, the payload handed to the caller.
    // (15 and 3 880 B while the payload was copied six times.)
    assert!(allocs <= 8, "send + poll_recv allocated {allocs} times");
    assert!(
        bytes <= 4 * PAYLOAD as u64 + 1024,
        "send + poll_recv requested {bytes} B for a {PAYLOAD}-B payload"
    );

    // --- The public frame walk, which also returns the route and leaves a
    // copy in the inbox: no more than it took before the delivering loop
    // was shared.
    let mut pkt = ScionPacket::new(
        a.addr,
        b.addr,
        L4Protocol::Udp,
        DataPlanePath::Scion(path.to_dataplane().unwrap()),
        UdpDatagram::encode_parts(4000, 5000, &payload),
    );
    let plain = pkt.encode().unwrap();
    let mut spare = vec![plain.clone(); 4];
    let mut inbox = b.transport();
    let (allocs, _) = steady(
        || {
            let frame = spare.pop().expect("one frame per run");
            let walked = net.walk_frame(frame).map(|d| d.route.len());
            while inbox.recv_packet().is_some() {}
            walked
        },
        |hops| assert_eq!(hops, Ok(6)),
    );
    assert!(allocs <= 12, "walk_frame allocated {allocs} times");

    // --- One border router, warm: a frame allocates nothing, traced or not
    // (4 allocations while a traced frame was decoded and re-encoded), and
    // a batch of 32 only its list of verdicts.
    let mut router = BorderRouter::new(path.src, AsSecrets::derive(path.src).hop_key);
    pkt.trace = Some(TraceContext::root(7));
    let traced = pkt.encode().unwrap();
    let forwarded = |v: &Result<FrameDecision, _>| matches!(v, Ok(FrameDecision::Forward { .. }));
    let mut buf = Vec::with_capacity(traced.len());
    let (allocs, _) = steady(
        || {
            buf.clone_from(&traced);
            router.process_frame(&mut buf, 0, 1_700_000_100)
        },
        |verdict| assert!(forwarded(&verdict), "{verdict:?}"),
    );
    assert_eq!(allocs, 0, "a warm traced frame allocated {allocs} times");
    let mut batch = vec![plain.clone(); 32];
    let (allocs, _) = steady(
        || {
            batch.iter_mut().for_each(|f| f.clone_from(&plain));
            router.process_batch(&mut batch, 0, 1_700_000_100)
        },
        |verdicts| assert!(verdicts.iter().all(forwarded), "{verdicts:?}"),
    );
    assert_eq!(allocs, 1, "a warm batch of 32 allocated {allocs} times");

    // --- An SCMP echo there and back over eight hops, as one probe round
    // of one registered path. The echo allocates nothing: its request was
    // encoded at the first echo, and it travels in a buffer the network
    // reuses, turned around in place at the destination. What is left is
    // the round's: its result list and the result's fingerprint string.
    // (28 while each echo assembled two data-plane paths at eight
    // allocations each, encoded two messages and two frames and decoded
    // one, and the round's healthy set was a set of strings; 46 while both
    // legs went through the inboxes.)
    let far = pair_apart(&net, &leaves, 8);
    assert_eq!(net.register_probe_pair_capped(far.src, far.dst, 1), [far]);
    let (allocs, _) = steady(
        || net.probe_round(),
        |results| {
            assert_eq!(results.len(), 1);
            assert!(matches!(results[0].outcome, EchoOutcome::Reply { .. }));
        },
    );
    assert!(
        allocs <= 2,
        "a probe round of one echo allocated {allocs} times"
    );

    // --- A fresh socket's first contact over a primed pair, as
    // `connect_warm` makes it: bind, connect, one 64-B send, its receive,
    // drop. The pair with the largest answer, so the selector holds the
    // most candidates this deployment gives one.
    let (src, dst) = leaves
        .iter()
        .flat_map(|&s| leaves.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .max_by_key(|&(s, d)| net.paths(s, d).len())
        .expect("leaf pairs");
    let answer = net.paths(src, dst).len();
    let a = net.attach_host(ScionAddr::new(src, HostAddr::v4(10, 0, 0, 3)));
    let b = net.attach_host(ScionAddr::new(dst, HostAddr::v4(10, 0, 0, 4)));
    let mut rx = PanSocket::bind(b.addr, 5001, b.transport());
    let small = [0x5Au8; 64];
    let (allocs, bytes) = steady(
        || {
            let mut tx = PanSocket::bind(a.addr, 4001, a.transport());
            tx.connect(b.addr, 5001).unwrap();
            tx.send(&small).unwrap();
            rx.poll_recv()
        },
        |got| assert_eq!(got.map(|(p, _, _)| p).as_deref(), Some(&small[..])),
    );
    // One copy of the answer's handles; the rest assemble the chosen path
    // for the data plane and carry one datagram. (23 allocations and
    // 6 784 B while the selector collected its usable candidates into a
    // growing index list and sorted it to read the first.)
    assert_eq!(answer, 200);
    assert!(allocs <= 16, "a warm connect allocated {allocs} times");
    let handles = (answer * std::mem::size_of::<FullPath>()) as u64;
    assert!(
        bytes <= handles + 1200,
        "a warm connect requested {bytes} B, {handles} B of them the answer's handles"
    );

    // --- The same pair's cold miss: the path database flushed, one
    // combination. Only the paths the answer keeps get a body, three
    // allocations each (uses, hops, the shared body); the lookup's own
    // lists fit in the rest. (729 while every candidate of every length
    // reached was built, those failing a check, repeated or past the cap
    // included.)
    let db = net.pathdb();
    let (allocs, _) = steady(
        || {
            db.flush();
            db.paths(src, dst, 200).len()
        },
        |n| assert_eq!(n, answer),
    );
    assert!(
        allocs <= 3 * answer as u64 + 40,
        "a cold miss allocated {allocs} times"
    );
}
