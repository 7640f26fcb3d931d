//! A frame-buffer pool: recycled `Vec<u8>` backing stores for frames.
//!
//! Every frame a router forwards under load is a `Vec<u8>`; at the packet
//! rates of the forwarding benchmarks the allocator becomes measurable
//! noise. The pool keeps a bounded freelist of previously-used buffers so
//! steady-state traffic reuses the same allocations instead of
//! round-tripping through the global allocator. This mirrors what the
//! zero-copy fast path does for header bytes: the buffer a router rewrote
//! in place is the very buffer the next link transmits.
//!
//! The pool is deliberately simple — a LIFO freelist (the most recently
//! recycled buffer is cache-warm) with a capacity bound so a traffic burst
//! cannot pin unbounded memory. Occupancy is observable through the
//! `pool.frame.*` counters and gauges.

use sciera_telemetry::{Counter, Gauge, Telemetry};

/// Most free buffers a new pool reserves room for up front.
const PREALLOC_CAPACITY: usize = 1024;

/// A bounded LIFO pool of reusable frame buffers.
#[derive(Debug)]
pub struct FramePool {
    free: Vec<Vec<u8>>,
    capacity: usize,
    /// Buffers handed out and not yet recycled.
    outstanding: u64,
    hits: Counter,
    misses: Counter,
    recycled: Counter,
    discarded: Counter,
    free_gauge: Gauge,
    outstanding_gauge: Gauge,
    /// Highest `outstanding` ever observed — how deep a burst actually got.
    high_watermark: Gauge,
}

impl FramePool {
    /// Creates a pool retaining at most `capacity` free buffers. Metrics
    /// start on a quiet telemetry handle; attach a shared one with
    /// [`FramePool::set_telemetry`].
    pub fn new(capacity: usize) -> Self {
        let quiet = Telemetry::quiet();
        FramePool {
            free: Vec::with_capacity(capacity.min(PREALLOC_CAPACITY)),
            capacity,
            outstanding: 0,
            hits: quiet.counter("pool.frame.hit"),
            misses: quiet.counter("pool.frame.miss"),
            recycled: quiet.counter("pool.frame.recycled"),
            discarded: quiet.counter("pool.frame.discarded"),
            free_gauge: quiet.gauge("pool.frame.free"),
            outstanding_gauge: quiet.gauge("pool.frame.outstanding"),
            high_watermark: quiet.gauge("pool.frame.high_watermark"),
        }
    }

    /// Re-registers the pool metrics on a shared telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.hits = telemetry.counter("pool.frame.hit");
        self.misses = telemetry.counter("pool.frame.miss");
        self.recycled = telemetry.counter("pool.frame.recycled");
        self.discarded = telemetry.counter("pool.frame.discarded");
        self.free_gauge = telemetry.gauge("pool.frame.free");
        self.outstanding_gauge = telemetry.gauge("pool.frame.outstanding");
        self.high_watermark = telemetry.gauge("pool.frame.high_watermark");
        self.free_gauge.set(self.free.len() as u64);
        self.outstanding_gauge.set(self.outstanding);
        self.high_watermark.set_max(self.outstanding);
    }

    /// Takes a cleared buffer with at least `len_hint` capacity — recycled
    /// when possible, freshly allocated otherwise.
    pub fn alloc(&mut self, len_hint: usize) -> Vec<u8> {
        self.outstanding += 1;
        self.outstanding_gauge.set(self.outstanding);
        self.high_watermark.set_max(self.outstanding);
        match self.free.pop() {
            Some(mut buf) => {
                self.hits.inc();
                self.free_gauge.set(self.free.len() as u64);
                buf.clear();
                buf.reserve(len_hint);
                buf
            }
            None => {
                self.misses.inc();
                Vec::with_capacity(len_hint)
            }
        }
    }

    /// Returns a buffer to the pool; discarded (freed) when the freelist is
    /// already at capacity.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.outstanding_gauge.set(self.outstanding);
        if self.free.len() < self.capacity && buf.capacity() > 0 {
            self.recycled.inc_saturating();
            self.free.push(buf);
            self.free_gauge.set(self.free.len() as u64);
        } else {
            self.discarded.inc_saturating();
        }
    }

    /// Returns a batch of buffers to the pool with one gauge/counter update,
    /// keeping what fits under the capacity bound and freeing the rest —
    /// [`FramePool::recycle`] amortised over a drained batch.
    pub fn recycle_batch<I: IntoIterator<Item = Vec<u8>>>(&mut self, bufs: I) {
        let mut recycled = 0u64;
        let mut discarded = 0u64;
        for buf in bufs {
            if self.free.len() < self.capacity && buf.capacity() > 0 {
                recycled += 1;
                self.free.push(buf);
            } else {
                discarded += 1;
            }
        }
        self.outstanding = self.outstanding.saturating_sub(recycled + discarded);
        self.outstanding_gauge.set(self.outstanding);
        self.free_gauge.set(self.free.len() as u64);
        self.recycled.add_saturating(recycled);
        self.discarded.add_saturating(discarded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attached(capacity: usize) -> (FramePool, Telemetry) {
        let tele = Telemetry::quiet();
        let mut p = FramePool::new(capacity);
        p.set_telemetry(&tele);
        (p, tele)
    }

    #[test]
    fn alloc_recycle_roundtrip_reuses_allocation() {
        let (mut p, tele) = attached(8);
        let mut buf = p.alloc(64);
        buf.extend_from_slice(b"payload");
        let ptr = buf.as_ptr();
        p.recycle(buf);
        assert_eq!(tele.snapshot().gauge("pool.frame.free"), Some(1));
        let buf2 = p.alloc(16);
        assert_eq!(buf2.as_ptr(), ptr, "LIFO freelist must reuse the buffer");
        assert!(buf2.is_empty(), "recycled buffers are cleared");
        assert!(buf2.capacity() >= 16);
    }

    #[test]
    fn capacity_bound_discards_excess() {
        let (mut p, tele) = attached(2);
        let bufs: Vec<Vec<u8>> = (0..4).map(|_| p.alloc(32)).collect();
        assert_eq!(tele.snapshot().gauge("pool.frame.outstanding"), Some(4));
        for b in bufs {
            p.recycle(b);
        }
        let snap = tele.snapshot();
        assert_eq!(snap.counter("pool.frame.miss"), Some(4));
        assert_eq!(snap.counter("pool.frame.recycled"), Some(2));
        assert_eq!(snap.counter("pool.frame.discarded"), Some(2));
        assert_eq!(snap.gauge("pool.frame.free"), Some(2));
        assert_eq!(snap.gauge("pool.frame.outstanding"), Some(0));
    }

    #[test]
    fn batch_alloc_recycle_amortises_and_tracks_watermark() {
        let (mut p, tele) = attached(4);

        let mut bufs: Vec<Vec<u8>> = (0..6).map(|_| p.alloc(32)).collect();
        assert!(bufs.iter().all(|b| b.is_empty() && b.capacity() >= 32));
        assert_eq!(tele.snapshot().gauge("pool.frame.outstanding"), Some(6));

        p.recycle_batch(bufs.drain(..));
        let snap = tele.snapshot();
        assert_eq!(snap.gauge("pool.frame.outstanding"), Some(0));
        assert_eq!(
            snap.gauge("pool.frame.free"),
            Some(4),
            "capacity bound still applies"
        );

        // A second wave reuses the freelist before hitting the allocator.
        bufs.extend((0..5).map(|_| p.alloc(16)));
        let snap = tele.snapshot();
        assert_eq!(snap.gauge("pool.frame.free"), Some(0));
        assert_eq!(snap.counter("pool.frame.miss"), Some(6 + 1));
        assert_eq!(snap.counter("pool.frame.hit"), Some(4));
        assert_eq!(snap.counter("pool.frame.recycled"), Some(4));
        assert_eq!(snap.counter("pool.frame.discarded"), Some(2));
        assert_eq!(snap.gauge("pool.frame.high_watermark"), Some(6));
        assert_eq!(snap.gauge("pool.frame.outstanding"), Some(5));
    }

    #[test]
    fn high_watermark_survives_drain() {
        let (mut p, tele) = attached(8);
        let a = p.alloc(8);
        let b = p.alloc(8);
        let c = p.alloc(8);
        p.recycle(a);
        p.recycle(b);
        p.recycle(c);
        let snap = tele.snapshot();
        assert_eq!(snap.gauge("pool.frame.outstanding"), Some(0));
        assert_eq!(snap.gauge("pool.frame.high_watermark"), Some(3));
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let (mut p, tele) = attached(8);
        p.recycle(Vec::new()); // nothing to reuse — don't pool it
        let snap = tele.snapshot();
        assert_eq!(snap.gauge("pool.frame.free"), Some(0));
        assert_eq!(snap.counter("pool.frame.discarded"), Some(1));
    }

    #[test]
    fn telemetry_reattach_restores_gauges() {
        let mut p = FramePool::new(8);
        let a = p.alloc(8);
        let b = p.alloc(8);
        p.recycle(b);
        let tele = Telemetry::quiet();
        p.set_telemetry(&tele);
        let snap = tele.snapshot();
        assert_eq!(snap.gauge("pool.frame.free"), Some(1));
        assert_eq!(snap.gauge("pool.frame.outstanding"), Some(1));
        drop(a);
    }

    #[test]
    fn hit_counter_moves_on_reuse() {
        let (mut p, tele) = attached(8);
        let b = p.alloc(8);
        p.recycle(b);
        let _b2 = p.alloc(8);
        let snap = tele.snapshot();
        assert_eq!(snap.counter("pool.frame.hit"), Some(1));
        assert_eq!(snap.counter("pool.frame.miss"), Some(1));
    }
}
