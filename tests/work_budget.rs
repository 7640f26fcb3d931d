//! Work budgets, counted exactly and held to `BUDGETS.json`: equal or lower
//! passes, and a change that saves work lowers the entry in the same commit.
//! Each entry is the work of one operation — allocations and bytes
//! requested, SHA-256 compressions, plans keyed, path bodies built — and the
//! counts repeat exactly, so a budget that moves by one is a real copy,
//! clone, hash or body, not noise. Allocations are counted by this crate's
//! allocator (the product crates forbid unsafe code), the rest by
//! `sciera::telemetry::work`: both only on the thread that asked, only
//! while it asks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sciera::control::segment::AsSecrets;
use sciera::dataplane::router::{BorderRouter, FrameDecision};
use sciera::orchestrator::prober::EchoOutcome;
use sciera::prelude::*;
use sciera::proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use sciera::proto::udp::UdpDatagram;
use sciera::telemetry::work::{self, WorkCounts};
use sciera::topology::synth::{synthesize, SynthConfig};
use serde::{Deserialize, Value};

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

/// What one run did on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seen {
    allocs: u64,
    bytes: u64,
    work: WorkCounts,
}

/// Runs `f` and returns its result with the work this thread did meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Seen) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let (out, work) = work::counted(f);
    let (allocs, bytes) = COUNT.with(|c| c.replace(None)).expect("counting was on");
    let seen = Seen {
        allocs,
        bytes,
        work,
    };
    (out, seen)
}

/// `run` three more times after a warm-up: the counts, which must repeat.
fn steady<R>(mut run: impl FnMut() -> R, check: impl Fn(R)) -> Seen {
    check(run());
    let seen: Vec<Seen> = (0..3)
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

/// Holds `seen` to the budget `name` of `BUDGETS.json`: equal or lower.
fn within(name: &str, seen: u64) {
    let budgets: Value =
        serde_json::from_str(include_str!("../BUDGETS.json")).expect("BUDGETS.json parses");
    let limit = budgets.field(name).and_then(u64::deserialize);
    let limit = limit.unwrap_or_else(|e| panic!("BUDGETS.json: {name}: {e}"));
    eprintln!("{name}: {seen} (budget {limit})");
    assert!(seen <= limit, "{name}: {seen}, over its budget of {limit}");
}

/// The first leaf pair, in order, whose shortest path has `hops` ASes.
fn pair_apart(net: &SciEraNetwork, leaves: &[IsdAsn], hops: usize) -> FullPath {
    let shortest = |(s, d)| net.paths(s, d).into_iter().next();
    let pairs = leaves
        .iter()
        .flat_map(|&s| leaves.iter().rev().map(move |&d| (s, d)));
    let mut apart = pairs.filter(|(s, d)| s != d).filter_map(shortest);
    apart
        .find(|p| p.len() == hops)
        .unwrap_or_else(|| panic!("no leaf pair {hops} hops apart"))
}

const PAYLOAD: usize = 512;

#[test]
fn host_and_lookup_paths_stay_within_their_work_budgets() {
    let topo = synthesize(&SynthConfig::sized(60));
    let mut leaves: Vec<IsdAsn> = topo
        .graph
        .ases()
        .filter(|n| !n.core)
        .map(|n| n.ia)
        .collect();
    leaves.sort_unstable();
    let net = SciEraNetwork::build_from_topology(topo, NetworkConfig::default());

    // --- A connected send and its receive, six hops apart: the pinned
    // path's two lists, the datagram, the frame; the decoded packet's
    // payload and two lists, the payload handed to the caller.
    let path = pair_apart(&net, &leaves, 6);
    let a = net.attach_host(ScionAddr::new(path.src, HostAddr::v4(10, 0, 0, 1)));
    let b = net.attach_host(ScionAddr::new(path.dst, HostAddr::v4(10, 0, 0, 2)));
    let mut tx = PanSocket::bind(a.addr, 4000, a.transport());
    let mut rx = PanSocket::bind(b.addr, 5000, b.transport());
    tx.connect(b.addr, 5000).unwrap();
    assert!(tx.selector_mut().active().unwrap().len() >= 5);
    let payload = vec![0xA5u8; PAYLOAD];
    let seen = steady(
        || {
            tx.send(&payload).unwrap();
            rx.poll_recv()
        },
        |got| assert_eq!(got.map(|(p, _, _)| p).as_deref(), Some(&payload[..])),
    );
    within("datagram_allocations", seen.allocs);
    within("datagram_bytes", seen.bytes);

    // --- The public frame walk, which also returns the route and leaves a
    // copy in the inbox.
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
    let seen = steady(
        || {
            let frame = spare.pop().expect("one frame per run");
            let walked = net.walk_frame(frame).map(|d| d.route.len());
            while inbox.recv_packet().is_some() {}
            walked
        },
        |hops| assert_eq!(hops, Ok(6)),
    );
    within("walk_frame_allocations", seen.allocs);

    // --- One border router, warm: a traced frame, and a batch of 32 (its
    // list of verdicts).
    let mut router = BorderRouter::new(path.src, AsSecrets::derive(path.src).hop_key);
    pkt.trace = Some(TraceContext::root(7));
    let traced = pkt.encode().unwrap();
    let forwarded = |v: &Result<FrameDecision, _>| matches!(v, Ok(FrameDecision::Forward { .. }));
    let mut buf = Vec::with_capacity(traced.len());
    let seen = steady(
        || {
            buf.clone_from(&traced);
            router.process_frame(&mut buf, 0, 1_700_000_100)
        },
        |verdict| assert!(forwarded(&verdict), "{verdict:?}"),
    );
    within("router_traced_frame_allocations", seen.allocs);
    let mut batch = vec![plain.clone(); 32];
    let seen = steady(
        || {
            batch.iter_mut().for_each(|f| f.clone_from(&plain));
            router.process_batch(&mut batch, 0, 1_700_000_100)
        },
        |verdicts| assert!(verdicts.iter().all(forwarded), "{verdicts:?}"),
    );
    within("router_batch_of_32_allocations", seen.allocs);

    // --- One probe round of one echo over eight hops, turned around in
    // place: the round's result list and its fingerprint string are left.
    let far = pair_apart(&net, &leaves, 8);
    assert_eq!(net.register_probe_pair_capped(far.src, far.dst, 1), [far]);
    let seen = steady(
        || net.probe_round(),
        |results| {
            assert_eq!(results.len(), 1);
            assert!(matches!(results[0].outcome, EchoOutcome::Reply { .. }));
        },
    );
    within("probe_round_allocations", seen.allocs);

    // --- A fresh socket's first contact (bind, connect, one 64-B send, its
    // receive, drop) over the pair with the largest answer, primed as
    // `connect_warm` makes it: one copy of its handles, the chosen path
    // assembled for the data plane, one datagram.
    let (src, dst) = leaves
        .iter()
        .flat_map(|&s| leaves.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .max_by_key(|&(s, d)| net.paths(s, d).len())
        .expect("leaf pairs");
    assert_eq!(net.paths(src, dst).len(), 200);
    let a = net.attach_host(ScionAddr::new(src, HostAddr::v4(10, 0, 0, 3)));
    let b = net.attach_host(ScionAddr::new(dst, HostAddr::v4(10, 0, 0, 4)));
    let mut rx = PanSocket::bind(b.addr, 5001, b.transport());
    let small = [0x5Au8; 64];
    let db = net.pathdb();
    let mut connect = |cold: bool| {
        if cold {
            db.flush();
        }
        let mut tx = PanSocket::bind(a.addr, 4001, a.transport());
        tx.connect(b.addr, 5001).unwrap();
        tx.send(&small).unwrap();
        rx.poll_recv()
    };
    let delivered = |got: Option<(Vec<u8>, _, _)>| assert_eq!(got.unwrap().0, small);
    let seen = steady(|| connect(false), delivered);
    within("warm_connect_allocations", seen.allocs);
    within("warm_connect_bytes", seen.bytes);

    // --- The same over a flushed path database, as `connect_cold` makes it:
    // the lookup's answer is read, not built into bodies.
    let seen = steady(|| connect(true), delivered);
    within("cold_connect_bodies_built", seen.work.bodies_built);

    // --- The same pair's cold miss alone: 200 paths in one shared group per
    // length, three allocations each, the lookup's own lists sized once each.
    let seen = steady(
        || {
            db.flush();
            db.paths(src, dst, 200).len()
        },
        |n| assert_eq!(n, 200),
    );
    let work = seen.work;
    within("cold_miss_allocations", seen.allocs);
    within("cold_miss_plans_keyed", work.plans_keyed);
    within("cold_miss_sha256_compressions", work.sha256_compressions);
    within("cold_miss_bodies_built", work.bodies_built);
}

#[test]
fn a_400_as_build_stays_within_its_compression_budget() {
    let topo = synthesize(&SynthConfig::sized(400));
    let build = || SciEraNetwork::build_from_topology(topo, NetworkConfig::default());
    let (net, Seen { work, .. }) = counted(build);
    assert!(!net.pathdb().snapshot().store().is_empty());
    within("build_400_sha256_compressions", work.sha256_compressions);
}
