//! The SCION path header.
//!
//! A standard SCION path consists of a 4-byte *path meta* header, up to
//! three *info fields* (one per path segment) and up to 64 *hop fields*.
//! The end host assembles this header from the path segments it fetched
//! from the control plane and embeds it in every packet; border routers
//! only read it, verify the current hop field's MAC, and advance the
//! pointers.
//!
//! Wire layout (big endian throughout):
//!
//! ```text
//! PathMeta (4 B):  CurrINF(2b) CurrHF(6b) RSV(6b) Seg0Len(6b) Seg1Len(6b) Seg2Len(6b)
//! InfoField (8 B): Flags(1) RSV(1) SegID(2) Timestamp(4)
//! HopField (12 B): Flags(1) ExpTime(1) ConsIngress(2) ConsEgress(2) MAC(6)
//! ```

use serde::{Deserialize, Serialize};

use crate::ProtoError;

/// Maximum number of segments in one path.
pub const MAX_SEGMENTS: usize = 3;
/// Maximum number of hop fields in one path.
pub const MAX_HOPS: usize = 64;
/// Serialised size of an info field.
pub const INFO_FIELD_LEN: usize = 8;
/// Serialised size of a hop field.
pub const HOP_FIELD_LEN: usize = 12;
/// Serialised size of the path meta header.
pub const PATH_META_LEN: usize = 4;

/// Path meta header: current pointers and per-segment hop counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PathMeta {
    /// Index of the info field for the segment currently being traversed.
    pub curr_inf: u8,
    /// Index of the hop field currently being traversed (global index).
    pub curr_hf: u8,
    /// Number of hop fields in each segment; zero marks an absent segment.
    pub seg_len: [u8; MAX_SEGMENTS],
}

impl PathMeta {
    /// Total number of hop fields.
    pub fn total_hops(&self) -> usize {
        self.seg_len.iter().map(|&l| l as usize).sum()
    }

    /// Number of present segments (prefix of non-zero lengths).
    pub fn segment_count(&self) -> usize {
        self.seg_len.iter().take_while(|&&l| l > 0).count()
    }

    /// Serialises to 4 bytes.
    pub fn to_bytes(&self) -> [u8; PATH_META_LEN] {
        let v: u32 = ((self.curr_inf as u32 & 0x3) << 30)
            | ((self.curr_hf as u32 & 0x3f) << 24)
            | ((self.seg_len[0] as u32 & 0x3f) << 12)
            | ((self.seg_len[1] as u32 & 0x3f) << 6)
            | (self.seg_len[2] as u32 & 0x3f);
        v.to_be_bytes()
    }

    /// Parses from 4 bytes.
    pub fn parse(buf: &[u8]) -> Result<Self, ProtoError> {
        crate::need("path meta", buf, PATH_META_LEN)?;
        let v = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        Ok(PathMeta {
            curr_inf: ((v >> 30) & 0x3) as u8,
            curr_hf: ((v >> 24) & 0x3f) as u8,
            seg_len: [
                ((v >> 12) & 0x3f) as u8,
                ((v >> 6) & 0x3f) as u8,
                (v & 0x3f) as u8,
            ],
        })
    }
}

/// Per-segment info field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InfoField {
    /// Set if this segment contains a peering hop field.
    pub peering: bool,
    /// Set if the packet traverses the segment in construction direction.
    pub cons_dir: bool,
    /// Chained segment identifier (`beta`) for MAC verification.
    pub seg_id: u16,
    /// Segment creation timestamp (Unix seconds).
    pub timestamp: u32,
}

impl InfoField {
    /// Serialises to 8 bytes.
    pub fn to_bytes(&self) -> [u8; INFO_FIELD_LEN] {
        let mut b = [0u8; INFO_FIELD_LEN];
        if self.peering {
            b[0] |= 0b10;
        }
        if self.cons_dir {
            b[0] |= 0b01;
        }
        b[2..4].copy_from_slice(&self.seg_id.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b
    }

    /// Parses from 8 bytes.
    pub fn parse(buf: &[u8]) -> Result<Self, ProtoError> {
        crate::need("info field", buf, INFO_FIELD_LEN)?;
        Ok(InfoField {
            peering: buf[0] & 0b10 != 0,
            cons_dir: buf[0] & 0b01 != 0,
            seg_id: u16::from_be_bytes([buf[2], buf[3]]),
            timestamp: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
        })
    }
}

/// Per-AS hop field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopField {
    /// Router alert for the ingress border router (SCMP traceroute).
    pub ingress_alert: bool,
    /// Router alert for the egress border router.
    pub egress_alert: bool,
    /// Expiry time, in units of `(ts + (exp_time+1) * 24h/256)`.
    pub exp_time: u8,
    /// Ingress interface in construction direction (0 = segment start).
    pub cons_ingress: u16,
    /// Egress interface in construction direction (0 = segment end).
    pub cons_egress: u16,
    /// Truncated AES-CMAC over the hop data and chained `seg_id`.
    pub mac: [u8; 6],
}

impl HopField {
    /// Serialises to 12 bytes.
    pub fn to_bytes(&self) -> [u8; HOP_FIELD_LEN] {
        let mut b = [0u8; HOP_FIELD_LEN];
        if self.ingress_alert {
            b[0] |= 0b10;
        }
        if self.egress_alert {
            b[0] |= 0b01;
        }
        b[1] = self.exp_time;
        b[2..4].copy_from_slice(&self.cons_ingress.to_be_bytes());
        b[4..6].copy_from_slice(&self.cons_egress.to_be_bytes());
        b[6..12].copy_from_slice(&self.mac);
        b
    }

    /// Parses from 12 bytes.
    pub fn parse(buf: &[u8]) -> Result<Self, ProtoError> {
        crate::need("hop field", buf, HOP_FIELD_LEN)?;
        let mut mac = [0u8; 6];
        mac.copy_from_slice(&buf[6..12]);
        Ok(HopField {
            ingress_alert: buf[0] & 0b10 != 0,
            egress_alert: buf[0] & 0b01 != 0,
            exp_time: buf[1],
            cons_ingress: u16::from_be_bytes([buf[2], buf[3]]),
            cons_egress: u16::from_be_bytes([buf[4], buf[5]]),
            mac,
        })
    }

    /// Absolute expiry in Unix seconds relative to the segment timestamp.
    ///
    /// SCION encodes hop expiry as `(exp_time + 1) * (24h / 256)` past the
    /// info-field timestamp, i.e. a granularity of 337.5 s and a maximum
    /// lifetime of 24 hours.
    pub fn expiry_unix(&self, info_timestamp: u32) -> u64 {
        info_timestamp as u64 + ((self.exp_time as u64 + 1) * 86_400) / 256
    }
}

/// A complete standard SCION path: meta + info fields + hop fields.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScionPath {
    /// The meta header (pointers + segment lengths).
    pub meta: PathMeta,
    /// One info field per segment, `meta.segment_count()` entries used.
    pub info: Vec<InfoField>,
    /// Hop fields, grouped by segment in `meta.seg_len` order.
    pub hops: Vec<HopField>,
}

impl ScionPath {
    /// Builds a path from per-segment hop-field groups, validating the
    /// structural invariants (1–3 segments, ≤ 64 hops, non-empty segments).
    pub fn from_segments(segments: Vec<(InfoField, Vec<HopField>)>) -> Result<Self, ProtoError> {
        if segments.is_empty() || segments.len() > MAX_SEGMENTS {
            return Err(ProtoError::InvalidPath(format!(
                "path must have 1..=3 segments, got {}",
                segments.len()
            )));
        }
        let mut meta = PathMeta::default();
        let mut info = Vec::new();
        let mut hops = Vec::new();
        for (i, (inf, segment_hops)) in segments.into_iter().enumerate() {
            if segment_hops.is_empty() {
                return Err(ProtoError::InvalidPath(format!("segment {i} is empty")));
            }
            if segment_hops.len() > 63 {
                return Err(ProtoError::InvalidPath(format!(
                    "segment {i} has {} hops (max 63)",
                    segment_hops.len()
                )));
            }
            meta.seg_len[i] = segment_hops.len() as u8;
            info.push(inf);
            hops.extend(segment_hops);
        }
        if hops.len() > MAX_HOPS {
            return Err(ProtoError::InvalidPath(format!(
                "{} hops exceed max {MAX_HOPS}",
                hops.len()
            )));
        }
        Ok(ScionPath { meta, info, hops })
    }

    /// Serialised length in bytes.
    pub fn wire_len(&self) -> usize {
        PATH_META_LEN + self.info.len() * INFO_FIELD_LEN + self.hops.len() * HOP_FIELD_LEN
    }

    /// Serialises the path header.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.meta.to_bytes());
        for inf in &self.info {
            out.extend_from_slice(&inf.to_bytes());
        }
        for hf in &self.hops {
            out.extend_from_slice(&hf.to_bytes());
        }
    }

    /// Parses a path header; `buf` must contain exactly the path bytes as
    /// sized by the common header.
    pub fn parse(buf: &[u8]) -> Result<Self, ProtoError> {
        let meta = PathMeta::parse(buf)?;
        let n_seg = meta.segment_count();
        if n_seg == 0 {
            return Err(ProtoError::InvalidPath("no segments".into()));
        }
        // Segment lengths must be a contiguous non-zero prefix.
        for i in n_seg..MAX_SEGMENTS {
            if meta.seg_len[i] != 0 {
                return Err(ProtoError::InvalidPath(format!(
                    "segment {i} non-zero after zero-length segment"
                )));
            }
        }
        let n_hops = meta.total_hops();
        let needed = PATH_META_LEN + n_seg * INFO_FIELD_LEN + n_hops * HOP_FIELD_LEN;
        crate::need("scion path", buf, needed)?;
        let mut off = PATH_META_LEN;
        let mut info = Vec::with_capacity(n_seg);
        for _ in 0..n_seg {
            info.push(InfoField::parse(&buf[off..])?);
            off += INFO_FIELD_LEN;
        }
        let mut hops = Vec::with_capacity(n_hops);
        for _ in 0..n_hops {
            hops.push(HopField::parse(&buf[off..])?);
            off += HOP_FIELD_LEN;
        }
        if (meta.curr_inf as usize) >= n_seg || (meta.curr_hf as usize) >= n_hops {
            return Err(ProtoError::InvalidPath(format!(
                "pointers out of range: inf {} / {n_seg}, hf {} / {n_hops}",
                meta.curr_inf, meta.curr_hf
            )));
        }
        Ok(ScionPath { meta, info, hops })
    }

    /// The segment index that hop `hf_idx` belongs to.
    pub fn segment_of_hop(&self, hf_idx: usize) -> usize {
        let mut acc = 0usize;
        for (seg, &len) in self.meta.seg_len.iter().enumerate() {
            acc += len as usize;
            if hf_idx < acc {
                return seg;
            }
        }
        self.meta.segment_count().saturating_sub(1)
    }

    /// The info field governing the current hop.
    pub fn current_info(&self) -> &InfoField {
        &self.info[self.meta.curr_inf as usize]
    }

    /// The current hop field.
    pub fn current_hop(&self) -> &HopField {
        &self.hops[self.meta.curr_hf as usize]
    }

    /// Whether the current hop is the last one.
    pub fn at_last_hop(&self) -> bool {
        self.meta.curr_hf as usize == self.hops.len() - 1
    }

    /// Advances the hop pointer (and the info pointer on a segment
    /// boundary), as a border router does after processing its hop.
    pub fn advance(&mut self) -> Result<(), ProtoError> {
        if self.at_last_hop() {
            return Err(ProtoError::InvalidPath("advance past last hop".into()));
        }
        self.meta.curr_hf += 1;
        let new_seg = self.segment_of_hop(self.meta.curr_hf as usize);
        self.meta.curr_inf = new_seg as u8;
        Ok(())
    }

    /// Reverses the path for the return direction: segment order, hop order
    /// and construction-direction flags all flip, and the pointers reset to
    /// the start. This is what a server does to reply without a path lookup.
    pub fn reversed(&self) -> ScionPath {
        let n_seg = self.meta.segment_count();
        let mut segments: Vec<(InfoField, Vec<HopField>)> = Vec::with_capacity(n_seg);
        let mut off = 0usize;
        for s in 0..n_seg {
            let len = self.meta.seg_len[s] as usize;
            let mut hops: Vec<HopField> = self.hops[off..off + len].to_vec();
            hops.reverse();
            let mut inf = self.info[s];
            inf.cons_dir = !inf.cons_dir;
            segments.push((inf, hops));
            off += len;
        }
        segments.reverse();
        ScionPath::from_segments(segments).expect("reversing a valid path yields a valid path")
    }

    /// The ingress interface of the current hop *in traversal direction*:
    /// `cons_ingress` when travelling in construction direction, otherwise
    /// `cons_egress`.
    pub fn current_ingress(&self) -> u16 {
        let hf = self.current_hop();
        if self.current_info().cons_dir {
            hf.cons_ingress
        } else {
            hf.cons_egress
        }
    }

    /// The egress interface of the current hop in traversal direction.
    pub fn current_egress(&self) -> u16 {
        let hf = self.current_hop();
        if self.current_info().cons_dir {
            hf.cons_egress
        } else {
            hf.cons_ingress
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn sample_path() -> ScionPath {
        ScionPath::from_segments(vec![
            (inf(10, false), vec![hf(0, 1), hf(2, 3)]),
            (inf(20, true), vec![hf(0, 5), hf(6, 7), hf(8, 0)]),
        ])
        .unwrap()
    }

    #[test]
    fn meta_roundtrip() {
        let m = PathMeta {
            curr_inf: 2,
            curr_hf: 37,
            seg_len: [12, 40, 11],
        };
        assert_eq!(PathMeta::parse(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn info_roundtrip() {
        let i = InfoField {
            peering: true,
            cons_dir: false,
            seg_id: 0xbeef,
            timestamp: 42,
        };
        assert_eq!(InfoField::parse(&i.to_bytes()).unwrap(), i);
    }

    #[test]
    fn hop_roundtrip() {
        let h = HopField {
            ingress_alert: true,
            egress_alert: true,
            exp_time: 200,
            cons_ingress: 700,
            cons_egress: 0,
            mac: [9, 8, 7, 6, 5, 4],
        };
        assert_eq!(HopField::parse(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn path_wire_roundtrip() {
        let p = sample_path();
        let mut buf = Vec::new();
        p.write(&mut buf);
        assert_eq!(buf.len(), p.wire_len());
        assert_eq!(ScionPath::parse(&buf).unwrap(), p);
    }

    #[test]
    fn parse_rejects_gap_in_segments() {
        let mut p = sample_path();
        p.meta.seg_len = [2, 0, 3];
        let mut buf = Vec::new();
        p.write(&mut buf);
        assert!(matches!(
            ScionPath::parse(&buf),
            Err(ProtoError::InvalidPath(_))
        ));
    }

    #[test]
    fn parse_rejects_out_of_range_pointer() {
        let mut p = sample_path();
        p.meta.curr_hf = 5;
        let mut buf = Vec::new();
        p.write(&mut buf);
        assert!(ScionPath::parse(&buf).is_err());
    }

    #[test]
    fn parse_rejects_truncation() {
        let p = sample_path();
        let mut buf = Vec::new();
        p.write(&mut buf);
        assert!(matches!(
            ScionPath::parse(&buf[..buf.len() - 1]),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn advance_crosses_segment_boundary() {
        let mut p = sample_path();
        assert_eq!(p.meta.curr_inf, 0);
        p.advance().unwrap(); // hop 1, still segment 0
        assert_eq!(p.meta.curr_inf, 0);
        p.advance().unwrap(); // hop 2, segment 1
        assert_eq!(p.meta.curr_inf, 1);
        p.advance().unwrap();
        p.advance().unwrap();
        assert!(p.at_last_hop());
        assert!(p.advance().is_err());
    }

    #[test]
    fn reversal_is_involutive() {
        let p = sample_path();
        assert_eq!(p.reversed().reversed(), p);
    }

    #[test]
    fn reversal_flips_direction_and_order() {
        let p = sample_path();
        let r = p.reversed();
        assert_eq!(r.meta.seg_len[0], 3);
        assert_eq!(r.meta.seg_len[1], 2);
        assert!(!r.info[0].cons_dir);
        assert!(r.info[1].cons_dir);
        // First hop of reversed = last hop of original.
        assert_eq!(r.hops[0], p.hops[4]);
    }

    #[test]
    fn traversal_direction_interfaces() {
        let p = sample_path();
        // Segment 0 is against construction direction: ingress = cons_egress.
        assert_eq!(p.current_ingress(), 1);
        assert_eq!(p.current_egress(), 0);
        let mut q = p;
        q.advance().unwrap();
        q.advance().unwrap(); // now in segment 1, cons_dir = true
        assert_eq!(q.current_ingress(), 0);
        assert_eq!(q.current_egress(), 5);
    }

    #[test]
    fn from_segments_validates() {
        assert!(ScionPath::from_segments(vec![]).is_err());
        assert!(ScionPath::from_segments(vec![(inf(0, true), vec![])]).is_err());
        let four = vec![
            (inf(0, true), vec![hf(0, 1)]),
            (inf(0, true), vec![hf(0, 1)]),
            (inf(0, true), vec![hf(0, 1)]),
            (inf(0, true), vec![hf(0, 1)]),
        ];
        assert!(ScionPath::from_segments(four).is_err());
    }

    #[test]
    fn expiry_computation() {
        let h = hf(0, 1); // exp_time 63
                          // (63+1) * 86400/256 = 64 * 337.5 = 21600 s = 6 h
        assert_eq!(h.expiry_unix(1000), 1000 + 21_600);
        let max = HopField { exp_time: 255, ..h };
        assert_eq!(max.expiry_unix(0), 86_400);
    }
}
