//! The router's in-place engine against the decode-level spec, one frame
//! class at a time: valid frames over every path kind, single-byte
//! corruptions, arbitrary bytes, and a replay. At every router a frame
//! reaches, the engine must equal the spec in verdict, bytes and counters
//! (see `tests/spec/`).

use proptest::prelude::*;

use sciera::proto::addr::{HostAddr, ServiceAddr};
use sciera::telemetry::work::counted;

mod spec;
use spec::*;

fn dst_host(kind: usize) -> HostAddr {
    match kind % 3 {
        0 => HostAddr::v4(10, 0, 0, 2),
        1 => HostAddr::V6([0x2a; 16]),
        _ => HostAddr::Svc(ServiceAddr::ControlService),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Valid frames — any payload, any destination host kind, any path
    /// kind, traced or not, fresh or near expiry — walk as the spec says,
    /// and a fresh one is delivered.
    #[test]
    fn valid_frames_walk_identically(
        payload in prop::collection::vec(any::<u8>(), 0..400),
        host_kind in 0usize..3,
        which in 0usize..3,
        trace_id in any::<u64>(),
        now_off in 0u64..30_000,
    ) {
        // An odd id travels traced.
        let mut pkt = over(which, (trace_id & 1 == 1).then_some(trace_id));
        (pkt.payload, pkt.dst.host) = (payload, dst_host(host_kind));
        let mut net = Net::new();
        let walk = net.walk(wire(pkt), TS as u64 + now_off);
        net.check_counters();
        if now_off < 20_000 {
            // Well within the hop expiry window: the walk must deliver.
            let last = walk.last().unwrap();
            prop_assert!(matches!(last, Outcome::Deliver(_)), "not delivered: {:?}", last);
        }
    }

    /// Single-byte corruption anywhere in the frame, traced or not: the
    /// engine agrees with the spec (accept, drop reason or malformed) at
    /// every router the frame reaches.
    #[test]
    fn corrupted_frames_agree(
        pos in 0usize..4096,
        mask in 1u8..=255,
        host_kind in 0usize..3,
        which in 0usize..3,
        trace_id in any::<u64>(),
    ) {
        // An odd id travels traced.
        let mut pkt = over(which, (trace_id & 1 == 1).then_some(trace_id));
        (pkt.payload, pkt.dst.host) = (b"corrupt me".to_vec(), dst_host(host_kind));
        let mut frame = wire(pkt);
        let pos = pos % frame.len();
        frame[pos] ^= mask;
        let mut net = Net::new();
        net.walk(frame, NOW);
        net.check_counters();
    }

    /// Random bytes, not necessarily a SCION frame at all: the engine
    /// agrees with the spec — almost always `Malformed` — and moves no
    /// forwarding counter on input the spec refuses.
    #[test]
    fn random_bytes_agree(frame in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut net = Net::new();
        net.walk(frame, NOW);
        net.check_counters();
    }

    /// A replay changes nothing: the same frame through the same routers
    /// walks alike and verifies every hop field again, in as many AES blocks.
    #[test]
    fn a_replay_walks_and_verifies_as_the_first(
        payload in prop::collection::vec(any::<u8>(), 0..100),
        which in 0usize..3,
    ) {
        let mut pkt = over(which, None);
        pkt.payload = payload;
        let (mut net, first, replay) = (Net::new(), wire(pkt.clone()), wire(pkt));
        let (first, done) = counted(|| net.walk(first, NOW));
        let (replay, redone) = counted(|| net.walk(replay, NOW));
        prop_assert!(matches!(replay.last(), Some(Outcome::Deliver(_))), "{:?}", replay);
        prop_assert_eq!(first, replay, "a replay changed the outcome");
        prop_assert_eq!(done.aes_blocks, redone.aes_blocks);
        net.check_counters();
    }
}
