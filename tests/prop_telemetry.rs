//! Property: the telemetry crate's log-bucketed streaming histogram tracks
//! the exact (sample-keeping) `measure::stats::Summary` — every quantile
//! estimate stays within one bucket width of the exact sample quantile, on
//! the same random sample stream.
//!
//! The histogram approximates each sample by its bucket's geometric-mean
//! representative and then applies the same linear-interpolation quantile
//! definition as `Summary`, so the interpolated estimate can be off by at
//! most the width of the buckets holding the two neighbouring order
//! statistics.

use proptest::prelude::*;
use sciera::measure::stats::Summary;
use sciera::telemetry::Histogram;

/// Positive f64 samples spanning ~12 decades (sub-microsecond spans up to
/// sim-hours in nanoseconds, like the real phase/combine timings):
/// `2^e * (1 + m/2^20)` for e in [-10, 30).
fn sample() -> impl Strategy<Value = f64> {
    (-10i32..30, 0u64..(1 << 20))
        .prop_map(|(e, m)| 2f64.powi(e) * (1.0 + m as f64 / (1u64 << 20) as f64))
}

/// Quantiles in [0, 1] with millesimal resolution.
fn quantile() -> impl Strategy<Value = f64> {
    (0u32..=1000).prop_map(|x| x as f64 / 1000.0)
}

/// Widths of the buckets holding the two order statistics that the exact
/// quantile interpolates between — the resolution bound at that point.
fn tolerance_at(h: &Histogram, sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = sorted[pos.floor() as usize];
    let hi = sorted[pos.ceil() as usize];
    let (a_lo, a_hi) = h.bucket_bounds(lo);
    let (b_lo, b_hi) = h.bucket_bounds(hi);
    (a_hi - a_lo).max(b_hi - b_lo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_quantiles_within_one_bucket_of_summary(
        samples in prop::collection::vec(sample(), 1..400),
        qs in prop::collection::vec(quantile(), 1..8),
    ) {
        let mut summary = Summary::new();
        let hist = Histogram::default();
        for &v in &samples {
            prop_assert!(summary.record(v));
            prop_assert!(hist.record(v));
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

        for &q in qs.iter().chain([0.0, 0.5, 0.9, 0.99, 1.0].iter()) {
            let exact = summary.quantile(q).unwrap();
            let approx = hist.quantile(q).unwrap();
            let tol = tolerance_at(&hist, &sorted, q);
            prop_assert!(
                (approx - exact).abs() <= tol + 1e-9,
                "q={}: histogram {} vs exact {}, tolerance {}", q, approx, exact, tol
            );
        }
    }

    #[test]
    fn histogram_and_summary_agree_on_count_and_rejections(
        good in prop::collection::vec(sample(), 0..100),
        bad in prop::collection::vec(
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
            0..10,
        ),
    ) {
        let mut summary = Summary::new();
        let hist = Histogram::default();
        for &v in &good {
            summary.record(v);
            hist.record(v);
        }
        for &v in &bad {
            prop_assert!(!summary.record(v));
            prop_assert!(!hist.record(v));
        }
        prop_assert_eq!(summary.count() as u64, hist.count());
        prop_assert_eq!(summary.rejected(), hist.rejected());
        prop_assert_eq!(hist.rejected(), bad.len() as u64);
    }
}
