//! Hot-path-safe metric primitives and the name → metric registry.
//!
//! Counters and gauges are single relaxed atomics. Histograms are
//! log-bucketed (16 sub-buckets per octave, ~4.4% relative bucket width) so
//! recording is one float log plus one atomic increment — no allocation, no
//! locks — and quantile estimates stay within one bucket width of the exact
//! sample quantiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use std::collections::BTreeMap;

use crate::snapshot::{HistogramSnapshot, TelemetrySnapshot};

/// Monotonic event counter. Cloning shares the underlying cell.
#[derive(Clone, Default, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one, saturating at `u64::MAX`. See [`Counter::add_saturating`].
    #[inline]
    pub fn inc_saturating(&self) {
        self.add_saturating(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    ///
    /// `fetch_add` wraps on overflow, which would make a counter that ran
    /// for long enough appear to reset — poison for rate computations over
    /// sustained-load runs. Saturation pins it at the ceiling instead, an
    /// unambiguous "overflowed" signal. Costs a CAS loop; use it for
    /// counters fed by long unattended runs, not per-packet hot paths.
    #[inline]
    pub fn add_saturating(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while let Err(seen) = self.0.compare_exchange_weak(
            cur,
            cur.saturating_add(n),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            cur = seen;
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default, Debug)]
struct GaugeCell {
    value: AtomicU64,
    peak: AtomicU64,
}

/// Last-value gauge with a resettable peak. Cloning shares the underlying
/// cell.
///
/// Every write also raises `peak`, the highest value seen since the last
/// [`Gauge::reset_peak`]. A sweep that snapshots between phases therefore
/// captures the maximum the gauge reached inside each window, not just
/// whatever it happened to read last — the difference between "the queue was
/// empty when we looked" and "the queue spiked to 40k mid-phase".
#[derive(Clone, Default, Debug)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Overwrites the value (and raises the peak if `v` exceeds it).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if higher (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.value.fetch_max(v, Ordering::Relaxed);
        self.0.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest value seen since the last [`Gauge::reset_peak`].
    pub fn peak(&self) -> u64 {
        self.0.peak.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking from the current value.
    pub fn reset_peak(&self) {
        self.0
            .peak
            .store(self.0.value.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Sub-buckets per octave (power of two). 16 gives ~4.4% relative width.
const SUBS: f64 = 16.0;
/// Smallest distinguishable value: anything at or below lands in bucket 0.
const MIN_EXP: i32 = -16; // 2^-16 ≈ 1.5e-5
/// Largest distinguishable value: 2^48 ≈ 2.8e14 (≈ 78 sim-hours in ns).
const MAX_EXP: i32 = 48;
const N_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * 16;

#[derive(Debug)]
struct HistInner {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    rejected: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Log-bucketed streaming histogram of non-negative f64 samples.
/// Cloning shares the underlying buckets.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }
}

/// Bucket index for a value, saturating at the scale's ends.
fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let idx = (v.log2() * SUBS).floor() as i64 - (MIN_EXP as i64 * SUBS as i64);
    idx.clamp(0, N_BUCKETS as i64 - 1) as usize
}

/// Inclusive-lower / exclusive-upper bounds of the bucket with index `i`.
fn bucket_bounds_of(i: usize) -> (f64, f64) {
    let lo_exp = MIN_EXP as f64 + i as f64 / SUBS;
    (2f64.powf(lo_exp), 2f64.powf(lo_exp + 1.0 / SUBS))
}

/// Representative point of a bucket (geometric mean of its bounds).
fn bucket_rep(i: usize) -> f64 {
    let (lo, hi) = bucket_bounds_of(i);
    (lo * hi).sqrt()
}

impl Histogram {
    /// Records a sample. Returns `false` (and counts the rejection) for
    /// non-finite values; negative values clamp into the lowest bucket.
    #[inline]
    pub fn record(&self, v: f64) -> bool {
        if !v.is_finite() {
            self.0.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.0.sum_bits, v);
        atomic_f64_min(&self.0.min_bits, v);
        atomic_f64_max(&self.0.max_bits, v);
        true
    }

    /// Number of accepted samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Number of rejected (non-finite) samples.
    pub fn rejected(&self) -> u64 {
        self.0.rejected.load(Ordering::Relaxed)
    }

    /// Bounds of the bucket a value falls into — the resolution guarantee at
    /// that point of the scale. Exposed so tests can assert quantile error
    /// against the actual bucket width.
    pub fn bucket_bounds(&self, v: f64) -> (f64, f64) {
        bucket_bounds_of(bucket_index(v))
    }

    /// Quantile estimate using the same linear-interpolation definition as
    /// `sciera_measure::stats::Summary::quantile`, with each sample approximated by
    /// its bucket's representative point. The estimate is therefore within
    /// one bucket width of the exact sample quantile.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let pos = q.clamp(0.0, 1.0) * (total - 1) as f64;
        let lo_rank = pos.floor() as u64;
        let hi_rank = pos.ceil() as u64;
        let frac = pos - lo_rank as f64;
        let lo_val = rep_at_rank(&counts, lo_rank);
        let hi_val = if hi_rank == lo_rank {
            lo_val
        } else {
            rep_at_rank(&counts, hi_rank)
        };
        Some(lo_val * (1.0 - frac) + hi_val * frac)
    }

    /// Sum of accepted samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of accepted samples.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() / n as f64)
    }

    /// Smallest accepted sample.
    pub fn min(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.min_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    /// Largest accepted sample.
    pub fn max(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.max_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    fn snapshot_named(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            rejected: self.rejected(),
            sum: self.sum(),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
            p50: self.quantile(0.5).unwrap_or(0.0),
            p90: self.quantile(0.9).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
        }
    }
}

/// Representative value of the bucket holding the 0-based `rank`-th sample.
fn rep_at_rank(counts: &[u64], rank: u64) -> f64 {
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum > rank {
            return bucket_rep(i);
        }
    }
    // Rank beyond the recorded samples (concurrent mutation): use the top.
    bucket_rep(counts.iter().rposition(|&c| c > 0).unwrap_or(0))
}

fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_min(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if v >= f64::from_bits(cur) {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if v <= f64::from_bits(cur) {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// Name → metric registry. Registration takes a write lock; the returned
/// handles are lock-free thereafter, so components register once at
/// construction and record on the hot path for free.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-register a counter. Same name → same underlying cell, so
    /// identically named counters aggregate across components.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get-or-register a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get-or-register a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Restarts peak tracking on every registered gauge (see
    /// [`Gauge::reset_peak`]). A sweep calls this at the start of each
    /// measurement window so the `<name>.peak` snapshot entries report the
    /// window's maxima.
    pub fn reset_gauge_peaks(&self) {
        for g in self.gauges.read().values() {
            g.reset_peak();
        }
    }

    /// Point-in-time snapshot of every registered metric (event counts are
    /// filled in by `Telemetry::snapshot`). Each gauge contributes two
    /// entries: `<name>` with the current value and `<name>.peak` with the
    /// highest value since the last [`MetricsRegistry::reset_gauge_peaks`].
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .flat_map(|(k, v)| [(k.clone(), v.get()), (format!("{k}.peak"), v.peak())])
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| v.snapshot_named(k))
                .collect(),
            events_recorded: 0,
            events_dropped: 0,
            recorder_len: 0,
            recorder_capacity: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_stats() {
        let h = Histogram::default();
        for v in [1.0, 2.0, 4.0, 8.0] {
            assert!(h.record(v));
        }
        assert!(!h.record(f64::NAN));
        assert!(!h.record(f64::INFINITY));
        assert_eq!(h.count(), 4);
        assert_eq!(h.rejected(), 2);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(8.0));
    }

    #[test]
    fn histogram_quantile_within_bucket_width() {
        let h = Histogram::default();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 3.7).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let pos = q * (samples.len() - 1) as f64;
            let exact = {
                let lo = samples[pos.floor() as usize];
                let hi = samples[pos.ceil() as usize];
                lo + (hi - lo) * (pos - pos.floor())
            };
            let est = h.quantile(q).unwrap();
            let (blo, bhi) = h.bucket_bounds(exact);
            assert!(
                (est - exact).abs() <= bhi - blo,
                "q={q}: est {est} vs exact {exact}, bucket [{blo}, {bhi})"
            );
        }
    }

    #[test]
    fn bucket_bounds_contain_value() {
        for v in [1e-3, 0.5, 1.0, 7.0, 1e6, 2.5e13] {
            let (lo, hi) = Histogram::default().bucket_bounds(v);
            assert!(lo <= v && v < hi * (1.0 + 1e-12), "{v} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn counter_saturating_add_pins_at_max() {
        let c = Counter::default();
        c.add_saturating(7);
        c.inc_saturating();
        assert_eq!(c.get(), 8);
        c.add_saturating(u64::MAX - 3);
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.inc_saturating();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn registry_same_name_same_cell() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.counter("a").inc();
        reg.gauge("g").set_max(9);
        reg.gauge("g").set_max(3);
        assert_eq!(reg.counter("a").get(), 2);
        assert_eq!(reg.gauge("g").get(), 9);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 2)]);
        assert_eq!(
            snap.gauges,
            vec![("g".to_string(), 9), ("g.peak".to_string(), 9)]
        );
    }

    #[test]
    fn gauge_peak_survives_lower_sets_until_reset() {
        let g = Gauge::default();
        g.set(40);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 40, "peak must keep the maximum, not the last set");
        g.reset_peak();
        assert_eq!(
            g.peak(),
            3,
            "reset restarts tracking from the current value"
        );
        g.set(10);
        g.set(5);
        assert_eq!(g.peak(), 10);
    }

    #[test]
    fn registry_snapshot_reports_peaks_and_reset_clears_them() {
        let reg = MetricsRegistry::new();
        let q = reg.gauge("depth");
        q.set(100);
        q.set(1);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("depth"), Some(1));
        assert_eq!(snap.gauge("depth.peak"), Some(100));
        reg.reset_gauge_peaks();
        assert_eq!(reg.snapshot().gauge("depth.peak"), Some(1));
    }
}
