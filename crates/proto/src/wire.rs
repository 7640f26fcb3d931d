//! Zero-copy views over serialised SCION packets.
//!
//! The decode path ([`crate::packet::ScionPacket::decode`]) materialises a
//! full `ScionPacket` — three `Vec`s and a payload copy — even though a
//! border router only ever touches a handful of header bytes: the current
//! info field's `seg_id`, the current hop field, and the two pointer bits in
//! the path meta header. This module locates those bytes *by offset* in the
//! raw frame and mutates them in place, the way real SCION routers (and the
//! verified forwarding loop of *Protocols to Code*) operate.
//!
//! Offset map of a standard SCION frame (all offsets relative to frame
//! start; `D`/`S` are the destination/source host address lengths):
//!
//! ```text
//! 0            12           20           28      28+D     28+D+S = M
//! +------------+------------+------------+--------+--------+
//! | common hdr |   dst IA   |   src IA   | dstHost| srcHost|
//! +------------+------------+------------+--------+--------+
//! M        M+4          M+4+8·i                M+4+8·n
//! +--------+----------------+--- ... ---+----------------+--- ...
//! |PathMeta|  InfoField[0]  |           |  HopField[0]   |
//! +--------+----------------+--- ... ---+----------------+--- ...
//! InfoField[i] at M + 4 + 8·i          (n = segment count)
//! HopField[j]  at M + 4 + 8·n + 12·j
//! seg_id of segment i at M + 4 + 8·i + 2 .. +4
//! ```
//!
//! Two types share this logic: [`PacketView`] for read-only inspection and
//! [`WireCursor`] for the in-place mutations a router performs (pointer
//! advance, `seg_id ^= mac[0..2]` chaining, trace-context custody).
//! [`turn_around`] is the one
//! mutation an end host performs: it rewrites a delivered frame into the
//! header of its reply.
//!
//! [`HeaderOffsets::locate`] mirrors every validation `decode` performs on
//! the header region, so a frame accepted here is never one `decode` would
//! reject as malformed. The converse is deliberately allowed: callers
//! canonicalise through `decode` and `encode` whenever `locate` declines.

use crate::addr::IsdAsn;
use crate::packet::{L4Protocol, PathType, COMMON_HDR_LEN, VERSION};
use crate::path::{
    HopField, InfoField, PathMeta, HOP_FIELD_LEN, INFO_FIELD_LEN, MAX_HOPS, MAX_SEGMENTS,
    PATH_META_LEN,
};
use crate::trace::{TraceContext, HBH_EXT_PROTOCOL, TRACE_EXT_LEN};
use crate::ProtoError;

/// Byte length of the two ISD-AS fields in the address header.
const IA_HDR_LEN: usize = 16;

/// Resolved offsets of the header regions of one serialised SCION packet.
///
/// Constructed by [`HeaderOffsets::locate`], which performs the same header
/// validation as [`crate::packet::ScionPacket::decode`]; the resulting value
/// is only meaningful for the exact buffer it was located in (plus in-place
/// mutations that preserve the layout, which is all [`WireCursor`] offers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderOffsets {
    /// Declared header length in bytes (common + address + path).
    hdr_len: usize,
    /// Declared payload length in bytes (includes any HBH extension).
    payload_len: usize,
    /// The path type discriminator.
    path_type: PathType,
    /// Offset of the path header (== end of the address header).
    meta_off: usize,
    /// Number of path segments (0 for empty / one-hop paths).
    n_seg: usize,
    /// Total number of hop fields.
    n_hops: usize,
    /// Hop count per segment.
    seg_len: [u8; MAX_SEGMENTS],
    /// Serialised length of the destination host address.
    dst_len: usize,
}

impl HeaderOffsets {
    /// Locates and validates the header regions of `buf`.
    ///
    /// Accepts exactly the frames whose *headers* `ScionPacket::decode`
    /// accepts: version 0, known path type, consistent `HdrLen`, supported
    /// address type/length nibbles (including service-code validation), and
    /// — for standard SCION paths — a contiguous segment prefix with both
    /// pointers in range. Payload contents are not inspected; a hop-by-hop
    /// extension (which `decode` also validates) is the caller's cue to
    /// fall back, see [`HeaderOffsets::has_hbh_ext`].
    pub fn locate(buf: &[u8]) -> Result<Self, ProtoError> {
        if buf.len() < COMMON_HDR_LEN {
            return Err(ProtoError::Truncated {
                what: "common header",
                needed: COMMON_HDR_LEN,
                got: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != VERSION {
            return Err(ProtoError::InvalidField {
                field: "version",
                detail: format!("unsupported version {version}"),
            });
        }
        let hdr_len = buf[5] as usize * 4;
        let payload_len = u16::from_be_bytes([buf[6], buf[7]]) as usize;
        let path_type = PathType::from_u8(buf[8])?;
        if buf.len() < hdr_len + payload_len {
            return Err(ProtoError::Truncated {
                what: "scion packet",
                needed: hdr_len + payload_len,
                got: buf.len(),
            });
        }
        if hdr_len < COMMON_HDR_LEN + IA_HDR_LEN {
            return Err(ProtoError::InvalidField {
                field: "hdr_len",
                detail: format!("header length {hdr_len} too small"),
            });
        }
        let tl = buf[9];
        let dst_len = host_len(tl >> 6, (tl >> 4) & 0x3)?;
        let src_len = host_len((tl >> 2) & 0x3, tl & 0x3)?;
        let meta_off = COMMON_HDR_LEN + IA_HDR_LEN + dst_len + src_len;
        if meta_off > hdr_len {
            return Err(ProtoError::Truncated {
                what: "address header",
                needed: meta_off,
                got: hdr_len,
            });
        }
        // Service addresses carry a 16-bit code `decode` validates too.
        check_svc(tl >> 6, &buf[COMMON_HDR_LEN + IA_HDR_LEN..])?;
        check_svc(
            (tl >> 2) & 0x3,
            &buf[COMMON_HDR_LEN + IA_HDR_LEN + dst_len..],
        )?;

        let mut off = HeaderOffsets {
            hdr_len,
            payload_len,
            path_type,
            meta_off,
            n_seg: 0,
            n_hops: 0,
            seg_len: [0; MAX_SEGMENTS],
            dst_len,
        };
        let expected_hdr = match path_type {
            PathType::Empty => meta_off,
            PathType::OneHop => meta_off + INFO_FIELD_LEN + 2 * HOP_FIELD_LEN,
            PathType::Scion => {
                if hdr_len - meta_off < PATH_META_LEN {
                    return Err(ProtoError::Truncated {
                        what: "path meta",
                        needed: PATH_META_LEN,
                        got: hdr_len - meta_off,
                    });
                }
                let meta = meta_word(buf, meta_off);
                off.seg_len = [
                    ((meta >> 12) & 0x3f) as u8,
                    ((meta >> 6) & 0x3f) as u8,
                    (meta & 0x3f) as u8,
                ];
                off.n_seg = off.seg_len.iter().take_while(|&&l| l > 0).count();
                if off.n_seg == 0 {
                    return Err(ProtoError::InvalidPath("no segments".into()));
                }
                for i in off.n_seg..MAX_SEGMENTS {
                    if off.seg_len[i] != 0 {
                        return Err(ProtoError::InvalidPath(format!(
                            "segment {i} non-zero after zero-length segment"
                        )));
                    }
                }
                off.n_hops = off.seg_len.iter().map(|&l| l as usize).sum();
                let curr_inf = ((meta >> 30) & 0x3) as usize;
                let curr_hf = ((meta >> 24) & 0x3f) as usize;
                if curr_inf >= off.n_seg || curr_hf >= off.n_hops {
                    return Err(ProtoError::InvalidPath(format!(
                        "pointers out of range: inf {curr_inf} / {}, hf {curr_hf} / {}",
                        off.n_seg, off.n_hops
                    )));
                }
                meta_off + PATH_META_LEN + off.n_seg * INFO_FIELD_LEN + off.n_hops * HOP_FIELD_LEN
            }
        };
        if expected_hdr != hdr_len {
            return Err(ProtoError::InvalidField {
                field: "hdr_len",
                detail: format!("declared {hdr_len}, computed {expected_hdr}"),
            });
        }
        Ok(off)
    }

    /// Whether the frame declares a hop-by-hop extension (a trace context)
    /// as its next header. The extension is the first
    /// [`TRACE_EXT_LEN`] bytes of the payload region.
    #[inline]
    pub fn has_hbh_ext(buf: &[u8]) -> bool {
        buf.len() > 4 && buf[4] == HBH_EXT_PROTOCOL
    }

    /// Declared header length in bytes.
    pub fn hdr_len(&self) -> usize {
        self.hdr_len
    }

    /// Declared payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Whether `buf` is exactly header + payload with no trailing bytes.
    ///
    /// `decode` tolerates trailing bytes but `encode` strips them, so the
    /// fast path only operates on exact-length frames to stay byte-identical
    /// with decode-then-re-encode.
    pub fn is_exact_length(&self, buf: &[u8]) -> bool {
        buf.len() == self.hdr_len + self.payload_len
    }

    /// The path type discriminator.
    pub fn path_type(&self) -> PathType {
        self.path_type
    }

    /// Whether every reserved bit of the header region is zero.
    ///
    /// `decode` *ignores* reserved bits and `encode` writes them back as
    /// zero, so decode-then-re-encode canonicalises frames that carry
    /// non-zero RSV bits (common-header RSV, path-meta RSV, info/hop flag
    /// padding, service-address padding). In-place processing preserves
    /// them instead — so a router rewrites only canonical frames in place
    /// and canonicalises the rest first, keeping its output byte-identical
    /// with decode-then-re-encode.
    ///
    /// A trace extension is canonical when `decode` accepts it and `encode`
    /// writes it back unchanged: long enough, `ext_len` 7, reserved byte
    /// zero, and not wrapping a second hop-by-hop extension (which `encode`
    /// refuses).
    pub fn is_canonical(&self, buf: &[u8]) -> bool {
        if buf[10] != 0 || buf[11] != 0 {
            return false; // common-header RSV
        }
        if Self::has_hbh_ext(buf) {
            let ext = &buf[self.hdr_len..self.hdr_len + self.payload_len];
            if ext.len() < TRACE_EXT_LEN
                || ext[1] as usize != TRACE_EXT_LEN / 4
                || ext[3] != 0
                || ext[0] == HBH_EXT_PROTOCOL
            {
                return false;
            }
        }
        let tl = buf[9];
        let addr_base = COMMON_HDR_LEN + IA_HDR_LEN;
        if tl >> 6 == 0b01 && buf[addr_base + 2..addr_base + 4] != [0, 0] {
            return false; // dst service-address padding
        }
        let src_base = addr_base + self.dst_len;
        if (tl >> 2) & 0x3 == 0b01 && buf[src_base + 2..src_base + 4] != [0, 0] {
            return false; // src service-address padding
        }
        if self.path_type == PathType::Scion {
            if meta_word(buf, self.meta_off) & 0x00fc_0000 != 0 {
                return false; // path-meta RSV
            }
            for i in 0..self.n_seg {
                let o = self.info_off(i);
                if buf[o] & !0b11 != 0 || buf[o + 1] != 0 {
                    return false; // info-field flag padding / RSV byte
                }
            }
            for j in 0..self.n_hops {
                let o = self.hop_off(j);
                if buf[o] & !0b11 != 0 {
                    return false; // hop-field flag padding
                }
            }
        }
        true
    }

    /// Number of path segments (0 unless a standard SCION path).
    pub fn segment_count(&self) -> usize {
        self.n_seg
    }

    /// Total number of hop fields.
    pub fn total_hops(&self) -> usize {
        self.n_hops
    }

    /// Hop count of segment `i`.
    pub fn seg_len(&self, i: usize) -> usize {
        self.seg_len[i] as usize
    }

    /// Global index of the first hop of segment `seg`.
    pub fn seg_start(&self, seg: usize) -> usize {
        self.seg_len[..seg].iter().map(|&l| l as usize).sum()
    }

    /// The segment index hop `hf_idx` belongs to (mirror of
    /// [`crate::path::ScionPath::segment_of_hop`]).
    pub fn segment_of_hop(&self, hf_idx: usize) -> usize {
        let mut acc = 0usize;
        for (seg, &len) in self.seg_len.iter().enumerate() {
            acc += len as usize;
            if hf_idx < acc {
                return seg;
            }
        }
        self.n_seg.saturating_sub(1)
    }

    /// Offset of info field `i`.
    fn info_off(&self, i: usize) -> usize {
        self.meta_off + PATH_META_LEN + i * INFO_FIELD_LEN
    }

    /// Offset of hop field `j`.
    fn hop_off(&self, j: usize) -> usize {
        self.meta_off + PATH_META_LEN + self.n_seg * INFO_FIELD_LEN + j * HOP_FIELD_LEN
    }

    fn curr_inf(&self, buf: &[u8]) -> usize {
        ((meta_word(buf, self.meta_off) >> 30) & 0x3) as usize
    }

    fn curr_hf(&self, buf: &[u8]) -> usize {
        ((meta_word(buf, self.meta_off) >> 24) & 0x3f) as usize
    }
}

fn meta_word(buf: &[u8], meta_off: usize) -> u32 {
    u32::from_be_bytes([
        buf[meta_off],
        buf[meta_off + 1],
        buf[meta_off + 2],
        buf[meta_off + 3],
    ])
}

/// Host address length for a (type, len) nibble pair; rejects the
/// combinations `HostAddr::parse` rejects.
fn host_len(ty: u8, len: u8) -> Result<usize, ProtoError> {
    match (ty, len) {
        (0b00, 0b00) => Ok(4),
        (0b00, 0b11) => Ok(16),
        (0b01, 0b00) => Ok(4),
        _ => Err(ProtoError::InvalidField {
            field: "addr type/len",
            detail: format!("unsupported combination ({ty:#b}, {len:#b})"),
        }),
    }
}

/// For a service address (type nibble 0b01), validates the 16-bit service
/// code the same way `HostAddr::parse` does.
fn check_svc(ty: u8, addr_bytes: &[u8]) -> Result<(), ProtoError> {
    if ty != 0b01 {
        return Ok(());
    }
    let code = u16::from_be_bytes([addr_bytes[0], addr_bytes[1]]);
    match code {
        0x0001 | 0x0002 | 0xffff => Ok(()),
        other => Err(ProtoError::InvalidField {
            field: "svc",
            detail: format!("unknown service code {other:#x}"),
        }),
    }
}

macro_rules! view_accessors {
    () => {
        /// Destination ISD-AS, read from the address header.
        pub fn dst_ia(&self) -> IsdAsn {
            IsdAsn::from_u64(u64::from_be_bytes(
                self.buf[COMMON_HDR_LEN..COMMON_HDR_LEN + 8]
                    .try_into()
                    .expect("locate guaranteed 8 bytes"),
            ))
        }

        /// Source ISD-AS, read from the address header.
        pub fn src_ia(&self) -> IsdAsn {
            IsdAsn::from_u64(u64::from_be_bytes(
                self.buf[COMMON_HDR_LEN + 8..COMMON_HDR_LEN + 16]
                    .try_into()
                    .expect("locate guaranteed 8 bytes"),
            ))
        }

        /// The resolved header offsets.
        pub fn offsets(&self) -> &HeaderOffsets {
            &self.off
        }

        /// The protocol of the payload: the hop-by-hop extension's number
        /// when a trace context rides in front of the L4 message.
        pub fn next_hdr(&self) -> L4Protocol {
            L4Protocol::from_u8(self.buf[4])
        }

        /// The payload region, as long as the common header declares it.
        pub fn payload(&self) -> &[u8] {
            &self.buf[self.off.hdr_len..self.off.hdr_len + self.off.payload_len]
        }

        /// Index of the info field currently being traversed.
        pub fn curr_inf(&self) -> usize {
            self.off.curr_inf(self.buf)
        }

        /// Global index of the hop field currently being traversed.
        pub fn curr_hf(&self) -> usize {
            self.off.curr_hf(self.buf)
        }

        /// Whether the current hop is the last one.
        pub fn at_last_hop(&self) -> bool {
            self.curr_hf() == self.off.n_hops - 1
        }

        /// Info field `i`, parsed from its 8 header bytes.
        pub fn info(&self, i: usize) -> InfoField {
            debug_assert!(i < self.off.n_seg);
            let o = self.off.info_off(i);
            InfoField::parse(&self.buf[o..o + INFO_FIELD_LEN])
                .expect("locate guaranteed info-field bounds")
        }

        /// Hop field `j`, parsed from its 12 header bytes.
        pub fn hop(&self, j: usize) -> HopField {
            debug_assert!(j < self.off.n_hops);
            let o = self.off.hop_off(j);
            HopField::parse(&self.buf[o..o + HOP_FIELD_LEN])
                .expect("locate guaranteed hop-field bounds")
        }

        /// The info field governing the current hop.
        pub fn current_info(&self) -> InfoField {
            self.info(self.curr_inf())
        }

        /// The current hop field.
        pub fn current_hop(&self) -> HopField {
            self.hop(self.curr_hf())
        }
    };
}

/// A read-only zero-copy view over a serialised SCION packet.
#[derive(Debug, Clone, Copy)]
pub struct PacketView<'a> {
    buf: &'a [u8],
    off: HeaderOffsets,
}

impl<'a> PacketView<'a> {
    /// Locates the header regions of `buf` (see [`HeaderOffsets::locate`]).
    pub fn parse(buf: &'a [u8]) -> Result<Self, ProtoError> {
        let off = HeaderOffsets::locate(buf)?;
        Ok(PacketView { buf, off })
    }

    view_accessors!();
}

/// A mutable zero-copy cursor over a serialised SCION packet: the in-place
/// operations a border router performs while forwarding.
#[derive(Debug)]
pub struct WireCursor<'a> {
    buf: &'a mut [u8],
    off: HeaderOffsets,
}

impl<'a> WireCursor<'a> {
    /// Locates the header regions of `buf` (see [`HeaderOffsets::locate`]).
    pub fn parse(buf: &'a mut [u8]) -> Result<Self, ProtoError> {
        let off = HeaderOffsets::locate(buf)?;
        Ok(WireCursor { buf, off })
    }

    /// Wraps a buffer whose offsets were already located (by
    /// [`HeaderOffsets::locate`] *on this exact buffer*), skipping
    /// re-validation. All accesses stay bounds-checked, so a mismatched
    /// pairing can panic but never read out of bounds.
    pub fn from_offsets(buf: &'a mut [u8], off: HeaderOffsets) -> Self {
        debug_assert!(buf.len() >= off.hdr_len + off.payload_len);
        WireCursor { buf, off }
    }

    view_accessors!();

    /// Overwrites the `seg_id` of info field `i` in place.
    pub fn set_seg_id(&mut self, i: usize, seg_id: u16) {
        debug_assert!(i < self.off.n_seg);
        let o = self.off.info_off(i) + 2;
        self.buf[o..o + 2].copy_from_slice(&seg_id.to_be_bytes());
    }

    /// XORs `mask` into the `seg_id` of info field `i` in place — the
    /// `seg_id ^= mac[0..2]` chaining step of hop-field verification.
    pub fn xor_seg_id(&mut self, i: usize, mask: u16) {
        let o = self.off.info_off(i) + 2;
        let cur = u16::from_be_bytes([self.buf[o], self.buf[o + 1]]);
        self.buf[o..o + 2].copy_from_slice(&(cur ^ mask).to_be_bytes());
    }

    /// Advances the hop pointer (and the info pointer on a segment
    /// boundary) in place — the mirror of [`ScionPath::advance`].
    ///
    /// [`ScionPath::advance`]: crate::path::ScionPath::advance
    pub fn advance(&mut self) -> Result<(), ProtoError> {
        if self.at_last_hop() {
            return Err(ProtoError::InvalidPath("advance past last hop".into()));
        }
        let new_hf = self.curr_hf() + 1;
        let new_inf = self.off.segment_of_hop(new_hf);
        let word = meta_word(self.buf, self.off.meta_off);
        let new_word = (word & 0x00ff_ffff)
            | (((new_inf as u32) & 0x3) << 30)
            | (((new_hf as u32) & 0x3f) << 24);
        self.buf[self.off.meta_off..self.off.meta_off + PATH_META_LEN]
            .copy_from_slice(&new_word.to_be_bytes());
        Ok(())
    }

    /// Takes custody of a carried trace context, in place: the extension's
    /// context is replaced by its [`TraceContext::child`], which is
    /// returned. `None`, with the frame unchanged, for a frame without a
    /// trace extension `decode` would accept. On a canonical frame (see
    /// [`HeaderOffsets::is_canonical`]) the result is what decode, `child`
    /// and encode give.
    #[inline]
    pub fn advance_trace(&mut self) -> Option<TraceContext> {
        // Inlined so an untraced frame pays two compares, not a call.
        if !HeaderOffsets::has_hbh_ext(self.buf) || self.off.payload_len < TRACE_EXT_LEN {
            return None;
        }
        self.advance_trace_ext()
    }

    fn advance_trace_ext(&mut self) -> Option<TraceContext> {
        let ext = &mut self.buf[self.off.hdr_len..self.off.hdr_len + TRACE_EXT_LEN];
        let (ctx, next_hdr) = TraceContext::decode_ext(ext).ok()?;
        let child = ctx.child();
        ext.copy_from_slice(&child.encode_ext(next_hdr));
        Some(child)
    }

    /// The underlying frame bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.buf
    }
}

/// Turns a delivered frame around, in place, into the header of its reply,
/// and returns the reply's offsets.
///
/// Source and destination swap: the two ISD-AS fields, the host addresses
/// (the address region rotates, since their lengths may differ) and their
/// type/length nibbles. A standard path is reversed on the wire: info fields
/// in reverse order with `cons_dir` flipped, hop fields in reverse order,
/// segment lengths reversed, both pointers zero. An empty path stays empty;
/// every other byte, the payload included, is left as it is.
///
/// The result is byte for byte what [`ScionPacket::decode`],
/// [`ScionPacket::reply_template`] and [`ScionPacket::encode`] make of the
/// frame. What that route would not reproduce in place is refused: one-hop
/// paths (not reversible), frames [`HeaderOffsets::locate`] rejects, frames
/// carrying a hop-by-hop extension, non-canonical frames, frames with
/// trailing bytes, and paths of more than [`MAX_HOPS`] hop fields (which no
/// [`ScionPath`] holds). A refused frame is not modified.
///
/// [`ScionPacket::decode`]: crate::packet::ScionPacket::decode
/// [`ScionPacket::reply_template`]: crate::packet::ScionPacket::reply_template
/// [`ScionPacket::encode`]: crate::packet::ScionPacket::encode
/// [`ScionPath`]: crate::path::ScionPath
pub fn turn_around(buf: &mut [u8]) -> Result<HeaderOffsets, ProtoError> {
    let off = HeaderOffsets::locate(buf)?;
    if off.path_type == PathType::OneHop {
        return Err(ProtoError::InvalidPath(
            "a one-hop path is not reversible".into(),
        ));
    }
    if off.n_hops > MAX_HOPS {
        return Err(ProtoError::InvalidPath(format!(
            "{} hops exceed max {MAX_HOPS}",
            off.n_hops
        )));
    }
    if HeaderOffsets::has_hbh_ext(buf) || !off.is_exact_length(buf) || !off.is_canonical(buf) {
        return Err(ProtoError::InvalidField {
            field: "frame",
            detail: "extension, trailing bytes or reserved bits: not turned around in place".into(),
        });
    }

    let (dst_ia, src_ia) = buf[COMMON_HDR_LEN..COMMON_HDR_LEN + IA_HDR_LEN].split_at_mut(8);
    dst_ia.swap_with_slice(src_ia);
    // DT/DL is the high nibble, ST/SL the low one.
    buf[9] = buf[9].rotate_left(4);
    let hosts = &mut buf[COMMON_HDR_LEN + IA_HDR_LEN..off.meta_off];
    let src_len = hosts.len() - off.dst_len;
    hosts.rotate_left(off.dst_len);

    let mut reply = HeaderOffsets {
        dst_len: src_len,
        ..off
    };
    if off.path_type == PathType::Scion {
        let n = off.n_seg;
        reverse_fields(&mut buf[off.info_off(0)..off.info_off(n)], INFO_FIELD_LEN);
        for i in 0..n {
            buf[off.info_off(i)] ^= 0b01; // cons_dir
        }
        reverse_fields(&mut buf[off.hop_off(0)..off.hdr_len], HOP_FIELD_LEN);
        for i in 0..n {
            reply.seg_len[i] = off.seg_len[n - 1 - i];
        }
        let meta = PathMeta {
            curr_inf: 0,
            curr_hf: 0,
            seg_len: reply.seg_len,
        };
        buf[off.meta_off..off.meta_off + PATH_META_LEN].copy_from_slice(&meta.to_bytes());
    }
    debug_assert_eq!(HeaderOffsets::locate(buf).as_ref(), Ok(&reply));
    Ok(reply)
}

/// Reverses the order of the `width`-byte fields `region` holds, keeping
/// each field's bytes in order.
fn reverse_fields(region: &mut [u8], width: usize) {
    region.reverse();
    for field in region.chunks_exact_mut(width) {
        field.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ia, HostAddr, ScionAddr, ServiceAddr};
    use crate::packet::{DataPlanePath, L4Protocol, ScionPacket};
    use crate::path::ScionPath;

    fn hf(ig: u16, eg: u16) -> HopField {
        HopField {
            ingress_alert: false,
            egress_alert: false,
            exp_time: 63,
            cons_ingress: ig,
            cons_egress: eg,
            mac: [1, 2, 3, 4, 5, 6],
        }
    }

    fn inf(seg_id: u16, cons_dir: bool) -> InfoField {
        InfoField {
            peering: false,
            cons_dir,
            seg_id,
            timestamp: 1_700_000_000,
        }
    }

    fn two_segment_path() -> ScionPath {
        ScionPath::from_segments(vec![
            (inf(10, false), vec![hf(0, 1), hf(2, 3)]),
            (inf(20, true), vec![hf(0, 5), hf(6, 7), hf(8, 0)]),
        ])
        .unwrap()
    }

    fn sample_packet(path: ScionPath) -> ScionPacket {
        ScionPacket::new(
            ScionAddr::new(ia("71-20965"), HostAddr::v4(10, 0, 0, 1)),
            ScionAddr::new(ia("71-2:0:3b"), HostAddr::v4(10, 0, 0, 2)),
            L4Protocol::Udp,
            DataPlanePath::Scion(path),
            b"fast path".to_vec(),
        )
    }

    #[test]
    fn view_agrees_with_decode() {
        let pkt = sample_packet(two_segment_path());
        let wire = pkt.encode().unwrap();
        let view = PacketView::parse(&wire).unwrap();
        assert_eq!(view.dst_ia(), pkt.dst.ia);
        assert_eq!(view.src_ia(), pkt.src.ia);
        assert_eq!(view.offsets().path_type(), PathType::Scion);
        assert!(view.offsets().is_exact_length(&wire));
        let DataPlanePath::Scion(path) = &pkt.path else {
            unreachable!()
        };
        assert_eq!(view.curr_inf(), path.meta.curr_inf as usize);
        assert_eq!(view.curr_hf(), path.meta.curr_hf as usize);
        assert_eq!(view.offsets().segment_count(), 2);
        assert_eq!(view.offsets().total_hops(), 5);
        for i in 0..2 {
            assert_eq!(view.info(i), path.info[i]);
        }
        for j in 0..5 {
            assert_eq!(view.hop(j), path.hops[j]);
            assert_eq!(
                view.offsets().segment_of_hop(j),
                path.segment_of_hop(j),
                "hop {j}"
            );
        }
        assert_eq!(view.current_info(), *path.current_info());
        assert_eq!(view.current_hop(), *path.current_hop());
    }

    #[test]
    fn view_handles_all_address_kinds() {
        for (dst, src) in [
            (HostAddr::V6([1; 16]), HostAddr::v4(1, 2, 3, 4)),
            (
                HostAddr::Svc(ServiceAddr::ControlService),
                HostAddr::V6([2; 16]),
            ),
            (
                HostAddr::Svc(ServiceAddr::Discovery),
                HostAddr::Svc(ServiceAddr::None),
            ),
        ] {
            let mut pkt = sample_packet(two_segment_path());
            pkt.dst.host = dst;
            pkt.src.host = src;
            let wire = pkt.encode().unwrap();
            let view = PacketView::parse(&wire).unwrap();
            assert_eq!(view.dst_ia(), pkt.dst.ia, "{dst:?}/{src:?}");
            assert_eq!(view.current_hop(), two_segment_path().hops[0]);
        }
    }

    #[test]
    fn locate_never_accepts_what_decode_rejects() {
        // Single-byte corruption sweep: anywhere `locate` still accepts the
        // frame, `decode` must accept it too (the router must not be more
        // permissive than `decode`).
        let wire = sample_packet(two_segment_path()).encode().unwrap();
        for pos in 0..wire.len() {
            for val in [0x00, 0x01, 0x3f, 0x80, 0xff] {
                let mut w = wire.clone();
                w[pos] = val;
                if HeaderOffsets::locate(&w).is_ok() && !HeaderOffsets::has_hbh_ext(&w) {
                    assert!(
                        ScionPacket::decode(&w).is_ok(),
                        "locate accepted but decode rejected: byte {pos} = {val:#x}"
                    );
                }
            }
        }
        // Truncation sweep.
        for cut in 0..wire.len() {
            assert!(
                HeaderOffsets::locate(&wire[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
    }

    #[test]
    fn cursor_advance_matches_path_advance() {
        let pkt = sample_packet(two_segment_path());
        let mut wire = pkt.encode().unwrap();
        let reference = wire.clone();
        let mut cursor = WireCursor::parse(&mut wire).unwrap();
        for step in 0..4 {
            cursor.advance().unwrap();
            let mut ref_pkt = ScionPacket::decode(&reference).unwrap();
            let DataPlanePath::Scion(p) = &mut ref_pkt.path else {
                unreachable!()
            };
            for _ in 0..=step {
                p.advance().unwrap();
            }
            assert_eq!(cursor.as_bytes(), &ref_pkt.encode().unwrap()[..], "{step}");
        }
        assert!(cursor.at_last_hop());
        assert!(cursor.advance().is_err());
    }

    #[test]
    fn cursor_seg_id_mutation_matches_struct_mutation() {
        let pkt = sample_packet(two_segment_path());
        let mut wire = pkt.encode().unwrap();
        let mut cursor = WireCursor::parse(&mut wire).unwrap();
        cursor.xor_seg_id(0, 0xbeef);
        cursor.set_seg_id(1, 0x1234);
        let mut ref_pkt = pkt;
        let DataPlanePath::Scion(p) = &mut ref_pkt.path else {
            unreachable!()
        };
        p.info[0].seg_id ^= 0xbeef;
        p.info[1].seg_id = 0x1234;
        assert_eq!(wire, ref_pkt.encode().unwrap());
    }

    #[test]
    fn empty_and_one_hop_paths_locate() {
        let mut pkt = sample_packet(two_segment_path());
        pkt.path = DataPlanePath::Empty;
        let wire = pkt.encode().unwrap();
        let view = PacketView::parse(&wire).unwrap();
        assert_eq!(view.offsets().path_type(), PathType::Empty);
        assert_eq!(view.offsets().total_hops(), 0);

        let sp = two_segment_path();
        pkt.path = DataPlanePath::OneHop {
            info: sp.info[0],
            first_hop: sp.hops[0],
            second_hop: hf(0, 0),
        };
        let wire = pkt.encode().unwrap();
        let view = PacketView::parse(&wire).unwrap();
        assert_eq!(view.offsets().path_type(), PathType::OneHop);
    }

    #[test]
    fn traced_frame_advances_in_place_like_decode() {
        let mut pkt = sample_packet(two_segment_path());
        let root = crate::trace::TraceContext::root(7);
        pkt.trace = Some(root);
        let mut wire = pkt.encode().unwrap();
        assert!(HeaderOffsets::has_hbh_ext(&wire));
        let off = HeaderOffsets::locate(&wire).unwrap();
        assert!(off.is_canonical(&wire));
        let mut cursor = WireCursor::from_offsets(&mut wire, off);
        assert_eq!(cursor.advance_trace(), Some(root.child()));
        pkt.trace = Some(root.child());
        assert_eq!(wire, pkt.encode().unwrap());

        let mut plain = sample_packet(two_segment_path()).encode().unwrap();
        assert!(!HeaderOffsets::has_hbh_ext(&plain));
        assert_eq!(WireCursor::parse(&mut plain).unwrap().advance_trace(), None);
    }

    #[test]
    fn extension_bytes_encode_rewrites_break_canonical_form() {
        let mut pkt = sample_packet(two_segment_path());
        pkt.trace = Some(crate::trace::TraceContext::root(7));
        let wire = pkt.encode().unwrap();
        let ext = HeaderOffsets::locate(&wire).unwrap().hdr_len();
        // Reserved byte, wrong ext_len, a nested extension.
        for (pos, value) in [(ext + 3, 1), (ext + 1, 6), (ext, HBH_EXT_PROTOCOL)] {
            let mut w = wire.clone();
            w[pos] = value;
            let off = HeaderOffsets::locate(&w).unwrap();
            assert!(!off.is_canonical(&w), "byte {pos} = {value}");
        }
    }

    #[test]
    fn reserved_bits_break_canonical_form() {
        let wire = sample_packet(two_segment_path()).encode().unwrap();
        let off = HeaderOffsets::locate(&wire).unwrap();
        assert!(off.is_canonical(&wire), "encode output must be canonical");

        // Every decode-ignored bit: setting it must flip `is_canonical`
        // while decode still accepts the frame (it canonicalises instead).
        let meta_off = COMMON_HDR_LEN + IA_HDR_LEN + 4 + 4;
        let info0 = meta_off + PATH_META_LEN;
        let hop0 = info0 + 2 * INFO_FIELD_LEN;
        let cases = [
            (10, 0x40, "common RSV[0]"),
            (11, 0x01, "common RSV[1]"),
            (meta_off + 1, 0x80, "path-meta RSV bits"),
            (info0, 0x80, "info flag padding"),
            (info0 + 1, 0xff, "info RSV byte"),
            (hop0, 0x80, "hop flag padding"),
        ];
        for (pos, bits, what) in cases {
            let mut w = wire.clone();
            w[pos] |= bits;
            let off = HeaderOffsets::locate(&w).unwrap();
            assert!(!off.is_canonical(&w), "{what} not caught");
            let reencoded = ScionPacket::decode(&w).unwrap().encode().unwrap();
            assert_eq!(reencoded, wire, "{what}: decode should canonicalise");
        }
    }

    #[test]
    fn svc_padding_breaks_canonical_form() {
        let mut pkt = sample_packet(two_segment_path());
        pkt.dst.host = HostAddr::Svc(ServiceAddr::ControlService);
        pkt.src.host = HostAddr::Svc(ServiceAddr::Discovery);
        let wire = pkt.encode().unwrap();
        let off = HeaderOffsets::locate(&wire).unwrap();
        assert!(off.is_canonical(&wire));
        let addr_base = COMMON_HDR_LEN + IA_HDR_LEN;
        for pos in [addr_base + 2, addr_base + 3, addr_base + 6, addr_base + 7] {
            let mut w = wire.clone();
            w[pos] = 0xaa;
            let off = HeaderOffsets::locate(&w).unwrap();
            assert!(!off.is_canonical(&w), "svc padding byte {pos} not caught");
            assert_eq!(
                ScionPacket::decode(&w).unwrap().encode().unwrap(),
                wire,
                "svc padding byte {pos}: decode should canonicalise"
            );
        }
    }

    #[test]
    fn turn_around_refuses_what_it_cannot_reproduce_and_leaves_it_alone() {
        let sp = two_segment_path();
        let mut one_hop = sample_packet(sp.clone());
        one_hop.path = DataPlanePath::OneHop {
            info: sp.info[0],
            first_hop: sp.hops[0],
            second_hop: hf(0, 0),
        };
        let mut traced = sample_packet(sp.clone());
        traced.trace = Some(crate::trace::TraceContext::root(7));
        let mut trailing = sample_packet(sp.clone()).encode().unwrap();
        trailing.push(0);
        let mut reserved = sample_packet(sp).encode().unwrap();
        reserved[10] = 1;
        for wire in [
            one_hop.encode().unwrap(),
            traced.encode().unwrap(),
            trailing,
            reserved,
            vec![0; 40],
        ] {
            let mut w = wire.clone();
            assert!(turn_around(&mut w).is_err());
            assert_eq!(w, wire);
        }
    }

    #[test]
    fn trailing_bytes_are_not_exact_length() {
        let mut wire = sample_packet(two_segment_path()).encode().unwrap();
        wire.push(0);
        let off = HeaderOffsets::locate(&wire).unwrap();
        assert!(!off.is_exact_length(&wire));
    }
}
