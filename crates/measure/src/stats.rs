//! Summaries, histograms and CDF helpers for experiment output.
//!
//! Every figure in the paper's evaluation is a distribution (CDFs in
//! Figs. 5, 6, 10a, 10b), a time series (Fig. 7) or a matrix (Figs. 8, 9).
//! [`Summary`] accumulates samples and produces quantiles; [`Cdf`] renders
//! the cumulative distribution at chosen resolution for plotting or for the
//! textual output of the bench harness.

use serde::{Deserialize, Serialize};

/// An accumulating sample set with quantile extraction.
///
/// Stores all samples; experiments in this reproduction stay well below the
/// scale where a streaming sketch would be needed, and exact quantiles make
/// the test assertions crisp.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
    rejected: u64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample. Returns `true` if the sample was accepted; non-finite
    /// values are rejected and counted in [`Summary::rejected`] so a campaign
    /// can tell "no data" apart from "bad data".
    pub fn record(&mut self, value: f64) -> bool {
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// Number of non-finite samples rejected by [`Summary::record`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation; `None` if
    /// empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median shortcut.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Maximum sample.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Fraction of samples ≤ `x` (the empirical CDF at `x`).
    pub fn cdf_at(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// Renders the empirical CDF as `points` evenly spaced (x, F(x)) pairs
    /// across the sample range.
    pub fn to_cdf(&mut self, points: usize) -> Cdf {
        if self.samples.is_empty() || points == 0 {
            return Cdf { points: Vec::new() };
        }
        self.ensure_sorted();
        let lo = self.samples[0];
        let hi = *self.samples.last().unwrap();
        let mut out = Vec::with_capacity(points);
        for i in 0..points {
            let x = if points == 1 {
                hi
            } else {
                lo + (hi - lo) * i as f64 / (points - 1) as f64
            };
            out.push((x, self.cdf_at(x)));
        }
        Cdf { points: out }
    }
}

/// A rendered cumulative distribution function.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cdf {
    /// (x, F(x)) pairs with F non-decreasing in x.
    pub points: Vec<(f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_exact() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.25), Some(2.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn quantile_interpolates() {
        let mut s = Summary::new();
        s.record(0.0);
        s.record(10.0);
        assert_eq!(s.quantile(0.5), Some(5.0));
        assert_eq!(s.quantile(0.9), Some(9.0));
    }

    #[test]
    fn empty_summary() {
        let mut s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.median(), None);
        assert_eq!(s.cdf_at(1.0), 0.0);
        assert!(s.to_cdf(10).points.is_empty());
    }

    #[test]
    fn cdf_at_boundaries() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 2.0, 3.0] {
            s.record(v);
        }
        assert_eq!(s.cdf_at(0.5), 0.0);
        assert_eq!(s.cdf_at(1.0), 0.25);
        assert_eq!(s.cdf_at(2.0), 0.75);
        assert_eq!(s.cdf_at(3.0), 1.0);
        assert_eq!(s.cdf_at(99.0), 1.0);
    }

    #[test]
    fn cdf_render_monotone() {
        let mut s = Summary::new();
        for i in 0..100 {
            s.record((i * 7 % 31) as f64);
        }
        let cdf = s.to_cdf(20);
        assert_eq!(cdf.points.len(), 20);
        for w in cdf.points.windows(2) {
            assert!(w[0].1 <= w[1].1, "CDF must be non-decreasing");
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(cdf.points.last().unwrap().1, 1.0);
    }

    #[test]
    fn non_finite_rejected_and_counted() {
        let mut s = Summary::new();
        assert!(s.record(2.0));
        assert!(!s.record(f64::NAN));
        assert!(!s.record(f64::INFINITY));
        assert!(!s.record(f64::NEG_INFINITY));
        assert_eq!(s.count(), 1);
        assert_eq!(s.rejected(), 3);
        assert_eq!(s.median(), Some(2.0));
    }
}

/// A fixed-bin histogram for streaming large sample volumes (the
/// measurement campaign records millions of RTT samples; storing them all
/// would dwarf the simulation itself). Values are clamped into
/// `[lo, hi)`; quantiles interpolate within bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            count: 0,
        }
    }

    /// Records a sample (clamped into range).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let clamped = value.clamp(self.lo, self.hi - 1e-9);
        let idx = ((clamped - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.count += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate `q`-quantile with linear interpolation inside the bin.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut acc = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if acc as f64 + n as f64 >= target {
                let within = (target - acc as f64) / n as f64;
                return Some(self.lo + (i as f64 + within) * width);
            }
            acc += n;
        }
        Some(self.hi)
    }

    /// Empirical CDF value at `x`.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut acc = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            let bin_end = self.lo + (i as f64 + 1.0) * width;
            if bin_end > x {
                break;
            }
            acc += n;
        }
        acc as f64 / self.count as f64
    }

    /// Renders as `points` evenly spaced (x, F(x)) pairs.
    pub fn to_cdf(&self, points: usize) -> Cdf {
        let mut out = Vec::with_capacity(points);
        for i in 0..points {
            let x = self.lo + (self.hi - self.lo) * (i as f64 + 1.0) / points as f64;
            out.push((x, self.cdf_at(x)));
        }
        Cdf { points: out }
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn quantiles_approximate() {
        let mut h = Histogram::new(0.0, 100.0, 1000);
        for i in 0..10_000 {
            h.record((i % 100) as f64);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() < 1.0, "median {med}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() < 1.0, "p90 {p90}");
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn clamping_and_empty() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        assert!(h.quantile(0.5).is_none());
        h.record(-5.0);
        h.record(50.0);
        assert_eq!(h.count(), 2);
        // Clamped into the range.
        assert!(h.quantile(0.0).unwrap() >= 0.0);
        assert!(h.quantile(1.0).unwrap() <= 10.0);
    }

    #[test]
    fn cdf_monotone() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record((i * 7 % 100) as f64);
        }
        let cdf = h.to_cdf(50);
        for w in cdf.points.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.points.last().unwrap().1 - 1.0).abs() < 1e-9);
    }
}
