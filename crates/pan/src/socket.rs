//! The drop-in PAN socket (§4.2.2).
//!
//! "This socket transparently handles all Layer 2.5 encapsulation and
//! serves as a drop-in replacement for standard IP-UDP sockets." The API
//! mirrors `std::net::UdpSocket` — `bind`, `connect`, `send`/`recv`,
//! `send_to`/`recv_from` — with path awareness reachable through
//! [`PanSocket::selector_mut`] for applications that want it and invisible
//! for those that don't.
//!
//! The socket is written against [`PanTransport`], the minimal wire
//! abstraction (send a SCION packet, poll one back, read the clock), so
//! unit tests, the simulator and a real UDP underlay all drive identical
//! code.

use scion_control::fullpath::FullPath;
use scion_proto::addr::ScionAddr;
use scion_proto::packet::{DataPlanePath, L4Protocol, ScionPacket};
use scion_proto::scmp::ScmpMessage;
use scion_proto::udp::UdpDatagram;

use crate::selector::PathSelector;
use crate::PanError;

/// The wire under a PAN socket.
pub trait PanTransport {
    /// Hands a fully-formed SCION packet to the network.
    fn send_packet(&mut self, packet: ScionPacket);
    /// Polls one received SCION packet, if any.
    fn recv_packet(&mut self) -> Option<ScionPacket>;
    /// Current Unix time in seconds (drives expiry checks).
    fn now_unix(&self) -> u64;
    /// Fetches fresh paths to a destination AS (daemon / library lookup).
    fn lookup_paths(&mut self, dst: scion_proto::addr::IsdAsn) -> Vec<FullPath>;
}

/// Maximum UDP payload the socket accepts (path MTU minus headers; fixed
/// conservative value matching the topology documents' 1472-byte MTU).
pub const MAX_PAYLOAD: usize = 1200;

/// A path-aware datagram socket.
pub struct PanSocket<T: PanTransport> {
    local: ScionAddr,
    local_port: u16,
    transport: T,
    remote: Option<(ScionAddr, u16)>,
    selector: PathSelector,
    /// Datagrams sent/received (for tests and stats).
    pub sent: u64,
    /// Datagrams received.
    pub received: u64,
}

impl<T: PanTransport> PanSocket<T> {
    /// Binds a socket on `local` with UDP port `port`.
    pub fn bind(local: ScionAddr, port: u16, transport: T) -> Self {
        PanSocket {
            local,
            local_port: port,
            transport,
            remote: None,
            selector: PathSelector::new(Vec::new()),
            sent: 0,
            received: 0,
        }
    }

    /// Connects to a remote endpoint: performs the path lookup and pins the
    /// selector's choice. Mirrors `UdpSocket::connect`.
    pub fn connect(&mut self, remote: ScionAddr, port: u16) -> Result<(), PanError> {
        let paths = self.transport.lookup_paths(remote.ia);
        if paths.is_empty() && remote.ia != self.local.ia {
            return Err(PanError::NoUsablePath(format!("no paths to {}", remote.ia)));
        }
        self.selector.refresh(paths);
        self.remote = Some((remote, port));
        Ok(())
    }

    /// Access to path selection (policy, preference, interactive pinning).
    pub fn selector_mut(&mut self) -> &mut PathSelector {
        &mut self.selector
    }

    /// The connected remote, if any.
    pub fn peer(&self) -> Option<(ScionAddr, u16)> {
        self.remote
    }

    /// Sends a datagram to the connected remote.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), PanError> {
        let (remote, port) = self.remote.ok_or(PanError::NotConnected)?;
        self.send_to(payload, remote, port)
    }

    /// Sends a datagram to an explicit destination (unconnected use).
    pub fn send_to(
        &mut self,
        payload: &[u8],
        remote: ScionAddr,
        port: u16,
    ) -> Result<(), PanError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(PanError::PayloadTooLarge {
                len: payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        let path = if remote.ia == self.local.ia {
            DataPlanePath::Empty
        } else {
            // Unconnected sends (or sends to a different AS than the
            // connected remote) look paths up on demand. Connected sockets
            // keep the selector state — including SCMP-declared dead paths
            // — until the application refreshes explicitly.
            let connected_same = matches!(self.remote, Some((r, _)) if r.ia == remote.ia);
            if !connected_same {
                let paths = self.transport.lookup_paths(remote.ia);
                self.selector.refresh(paths);
            }
            DataPlanePath::Scion(self.selector.active_dataplane()?.clone())
        };
        let datagram = UdpDatagram::encode_parts(self.local_port, port, payload);
        let packet = ScionPacket::new(self.local, remote, L4Protocol::Udp, path, datagram);
        self.transport.send_packet(packet);
        self.sent += 1;
        Ok(())
    }

    /// Polls for the next datagram addressed to this socket. SCMP errors
    /// are consumed internally: interface-down notifications trigger
    /// instant failover in the selector, exactly the §4.7 behaviour.
    pub fn poll_recv(&mut self) -> Option<(Vec<u8>, ScionAddr, u16)> {
        while let Some(packet) = self.transport.recv_packet() {
            match packet.next_hdr {
                L4Protocol::Udp => {
                    let Ok(datagram) = UdpDatagram::decode(&packet.payload) else {
                        continue; // corrupted; UDP checksum failed
                    };
                    if datagram.dst_port != self.local_port {
                        continue; // not ours (dispatcherless demux is per-port)
                    }
                    self.received += 1;
                    return Some((datagram.payload, packet.src, datagram.src_port));
                }
                L4Protocol::Scmp => {
                    if let Ok(msg) = ScmpMessage::decode(&packet.payload) {
                        self.handle_scmp(msg);
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn handle_scmp(&mut self, msg: ScmpMessage) {
        match msg {
            ScmpMessage::ExternalInterfaceDown { ia, interface } => {
                self.selector.interface_down(ia, interface as u16);
            }
            ScmpMessage::InternalConnectivityDown { ia, egress, .. } => {
                self.selector.interface_down(ia, egress as u16);
            }
            _ => {}
        }
    }

    /// Consumes the socket, returning the transport (test plumbing).
    pub fn into_transport(self) -> T {
        self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_control::fullpath::PathKind;
    use scion_proto::addr::{ia, HostAddr, IsdAsn};
    use std::collections::VecDeque;

    /// A loopback transport: sent packets can be scripted back as received.
    struct Loop {
        out: Vec<ScionPacket>,
        inbox: VecDeque<ScionPacket>,
        paths: Vec<FullPath>,
        lookups: u32,
    }

    impl Loop {
        fn new(paths: Vec<FullPath>) -> Self {
            Loop {
                out: Vec::new(),
                inbox: VecDeque::new(),
                paths,
                lookups: 0,
            }
        }
    }

    impl PanTransport for Loop {
        fn send_packet(&mut self, packet: ScionPacket) {
            self.out.push(packet);
        }
        fn recv_packet(&mut self) -> Option<ScionPacket> {
            self.inbox.pop_front()
        }
        fn now_unix(&self) -> u64 {
            1_700_000_000
        }
        fn lookup_paths(&mut self, _dst: IsdAsn) -> Vec<FullPath> {
            self.lookups += 1;
            self.paths.clone()
        }
    }

    fn addr(s: &str) -> ScionAddr {
        ScionAddr::new(ia(s), HostAddr::v4(10, 0, 0, 1))
    }

    fn fake_path(src: &str, dst: &str) -> FullPath {
        fake_path_over(src, dst, 5)
    }

    /// A path leaving `dst` (the segment's origin) through `ifid` and
    /// entering `src` through `ifid + 1`.
    fn fake_path_over(src: &str, dst: &str, ifid: u16) -> FullPath {
        // A structurally valid 2-hop path needs real segments for
        // to_dataplane(); build one through the segment builder.
        use scion_control::fullpath::{Direction, SegmentUse};
        use scion_control::segment::{AsSecrets, SegmentBuilder, SegmentType};
        let mut b = SegmentBuilder::originate(SegmentType::UpDown, 1_700_000_000, 0x77);
        b.extend(&AsSecrets::derive(ia(dst)), 0, ifid, &[]);
        b.extend(&AsSecrets::derive(ia(src)), ifid + 1, 0, &[]);
        let seg = b.finish();
        FullPath::assemble(
            ia(src),
            ia(dst),
            PathKind::SingleSegment,
            vec![SegmentUse::whole(seg, Direction::AgainstCons)],
        )
        .unwrap()
    }

    #[test]
    fn connect_and_send() {
        let transport = Loop::new(vec![fake_path("71-10", "71-1")]);
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        sock.connect(addr("71-1"), 53).unwrap();
        sock.send(b"query").unwrap();
        let t = sock.into_transport();
        assert_eq!(t.out.len(), 1);
        let pkt = &t.out[0];
        assert_eq!(pkt.dst.ia, ia("71-1"));
        let dg = UdpDatagram::decode(&pkt.payload).unwrap();
        assert_eq!(dg.src_port, 5353);
        assert_eq!(dg.dst_port, 53);
        assert_eq!(dg.payload, b"query");
        assert!(matches!(pkt.path, DataPlanePath::Scion(_)));
    }

    #[test]
    fn connect_without_paths_fails() {
        let transport = Loop::new(vec![]);
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        assert!(matches!(
            sock.connect(addr("71-1"), 53),
            Err(PanError::NoUsablePath(_))
        ));
    }

    #[test]
    fn send_without_connect_fails() {
        let transport = Loop::new(vec![]);
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        assert_eq!(sock.send(b"x"), Err(PanError::NotConnected));
    }

    #[test]
    fn local_as_uses_empty_path() {
        let transport = Loop::new(vec![]);
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        sock.send_to(b"hello", addr("71-10"), 80).unwrap();
        let t = sock.into_transport();
        assert!(matches!(t.out[0].path, DataPlanePath::Empty));
        assert_eq!(t.lookups, 0, "no lookup for AS-local traffic");
    }

    #[test]
    fn oversized_payload_rejected() {
        let transport = Loop::new(vec![fake_path("71-10", "71-1")]);
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        sock.connect(addr("71-1"), 53).unwrap();
        let big = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            sock.send(&big),
            Err(PanError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn recv_filters_ports_and_decodes() {
        let mut transport = Loop::new(vec![]);
        let mk = |port: u16, body: &[u8]| {
            ScionPacket::new(
                addr("71-1"),
                addr("71-10"),
                L4Protocol::Udp,
                DataPlanePath::Empty,
                UdpDatagram::new(9999, port, body.to_vec()).encode(),
            )
        };
        transport.inbox.push_back(mk(1111, b"not-ours"));
        transport.inbox.push_back(mk(5353, b"ours"));
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        let (payload, from, sport) = sock.poll_recv().unwrap();
        assert_eq!(payload, b"ours");
        assert_eq!(from.ia, ia("71-1"));
        assert_eq!(sport, 9999);
        assert!(sock.poll_recv().is_none());
        assert_eq!(sock.received, 1);
    }

    #[test]
    fn scmp_interface_down_triggers_failover() {
        let p1 = fake_path("71-10", "71-1");
        let mut transport = Loop::new(vec![p1.clone()]);
        // Queue an SCMP killing p1's interface at 71-1 (ifid 5).
        transport.inbox.push_back(interface_down("71-1", 5));
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        sock.connect(addr("71-1"), 53).unwrap();
        assert!(sock.poll_recv().is_none()); // consumes the SCMP
                                             // The only path is dead now.
        assert!(matches!(sock.send(b"x"), Err(PanError::NoUsablePath(_))));
    }

    fn interface_down(at: &str, interface: u64) -> ScionPacket {
        ScionPacket::new(
            addr(at),
            addr("71-10"),
            L4Protocol::Scmp,
            DataPlanePath::Empty,
            ScmpMessage::ExternalInterfaceDown {
                ia: ia(at),
                interface,
            }
            .encode(),
        )
    }

    #[test]
    fn pinned_dataplane_path_is_never_served_stale() {
        let (p1, p2) = (
            fake_path_over("71-10", "71-1", 5),
            fake_path_over("71-10", "71-1", 7),
        );
        let wire = |p: &FullPath| DataPlanePath::Scion(p.to_dataplane().unwrap());
        let transport = Loop::new(vec![p1.clone(), p2.clone()]);
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        sock.connect(addr("71-1"), 53).unwrap();
        let first = sock.selector_mut().active().unwrap();
        let (first, second) = if first == p1 { (p1, p2) } else { (p2, p1) };
        sock.send(b"a").unwrap();
        sock.send(b"b").unwrap();

        // The pinned path dies: the very next send fails over.
        let (_, dead_if) = first.interfaces()[0];
        sock.transport
            .inbox
            .push_back(interface_down("71-10", dead_if as u64));
        assert!(sock.poll_recv().is_none());
        sock.send(b"c").unwrap();

        // An explicit pin back (allowed: the application's call) and a
        // refresh whose answer lacks that path: the pin is dropped.
        sock.selector_mut()
            .refresh(vec![first.clone(), second.clone()]);
        sock.selector_mut().pin(&first.fingerprint()).unwrap();
        sock.send(b"d").unwrap();
        sock.selector_mut().refresh(vec![second.clone()]);
        sock.send(b"e").unwrap();

        let t = sock.into_transport();
        assert_eq!(t.lookups, 1, "connected sends never look paths up");
        let sent: Vec<&DataPlanePath> = t.out.iter().map(|p| &p.path).collect();
        let (first, second) = (wire(&first), wire(&second));
        assert_ne!(first, second);
        assert_eq!(sent, [&first, &first, &second, &first, &second]);
    }

    #[test]
    fn corrupted_datagram_skipped() {
        let mut transport = Loop::new(vec![]);
        let mut pkt = ScionPacket::new(
            addr("71-1"),
            addr("71-10"),
            L4Protocol::Udp,
            DataPlanePath::Empty,
            UdpDatagram::new(1, 5353, b"data".to_vec()).encode(),
        );
        pkt.payload[9] ^= 0xff; // corrupt UDP payload -> checksum fails
        transport.inbox.push_back(pkt);
        let mut sock = PanSocket::bind(addr("71-10"), 5353, transport);
        assert!(sock.poll_recv().is_none());
    }
}
