//! Estimators: percentiles, and the block-median aggregation the
//! end-to-end metrics use (noise rule 3 in the README).

/// Number of equal blocks the timed phase is cut into.
pub const BLOCKS: usize = 9;

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `q` of the sample at or below it. Empty input gives 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (upper-middle for even counts is avoided:
/// the two middle elements are averaged).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Table the speed gauge reads from: small enough to leave most of the L1
/// cache to the workload.
const GAUGE_TABLE: usize = 2048;

/// Times a fixed stretch of work that keeps the core's execution units
/// busy (eight independent multiply chains, a table load and a branch per
/// round; about 6 µs): a gauge of how fast the machine runs right now,
/// independent of the product. On this box it reads 1.5–2× higher
/// whenever something else shares the core, which is exactly when
/// everything the benchmark times runs slower too; a chain of dependent
/// multiplies does not notice. Returns nanoseconds.
pub fn speed_gauge_ns() -> u64 {
    // The first pass brings the gauge's own code and table back into the
    // cache after whatever ran before it; the second is the reading.
    gauge_pass();
    gauge_pass()
}

fn gauge_pass() -> u64 {
    use std::hint::black_box;
    static TABLE: [u32; GAUGE_TABLE] = {
        let mut t = [0u32; GAUGE_TABLE];
        let mut i = 0;
        while i < GAUGE_TABLE {
            t[i] = (i as u32).wrapping_mul(2_654_435_761);
            i += 1;
        }
        t
    };
    let t = std::time::Instant::now();
    let mut chains = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    let mut acc = 0u64;
    for i in 0..2048u64 {
        for (k, v) in chains.iter_mut().enumerate() {
            *v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13) ^ (i + k as u64);
        }
        let loaded = u64::from(TABLE[(chains[0] ^ i) as usize % GAUGE_TABLE]);
        if loaded & 1 == 0 {
            acc = acc.wrapping_add(loaded);
        } else {
            acc ^= loaded.rotate_left(7);
        }
    }
    black_box((chains, acc));
    t.elapsed().as_nanos() as u64
}

/// A sample counts as quiet if the gauge read at most this much above the
/// run's quiet level both just before and just after it.
const QUIET_TOLERANCE: f64 = 1.08;
/// The quiet level of a run: this percentile of its gauge readings.
const QUIET_LEVEL: f64 = 0.05;
/// With fewer quiet samples than this, all samples are used instead.
const MIN_QUIET: usize = 45;
/// Blocks are merged until each holds at least this many samples.
const MIN_PER_BLOCK: usize = 50;

/// What one run reports for its timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Median over blocks of (ops in block ÷ timed seconds in block).
    pub ops_per_s: f64,
    /// Median over blocks of the block's median per-op time, µs.
    pub op_p50_us: f64,
    /// Median over blocks of the block's 90th-percentile per-op time, µs.
    pub op_p90_us: f64,
    /// 99th percentile over all aggregated samples (detail output only:
    /// too few samples beyond it per block to be an end-to-end metric).
    pub op_p99_us: f64,
    /// Samples aggregated.
    pub samples: usize,
    /// Share of the phase's samples that were taken on a quiet machine.
    pub quiet_share: f64,
}

/// The samples taken while the machine ran undisturbed: `gauge_ns[i]` was
/// read before sample `i` and `gauge_ns[i + 1]` after it, and both must be
/// within [`QUIET_TOLERANCE`] of the run's quiet level. If too few
/// qualify, the run was disturbed throughout and every sample is returned.
pub fn quiet_samples(sample_ns: &[u64], gauge_ns: &[u64]) -> Vec<u64> {
    assert_eq!(
        gauge_ns.len(),
        sample_ns.len() + 1,
        "one reading either side of each sample"
    );
    let mut sorted: Vec<f64> = gauge_ns.iter().map(|&g| g as f64).collect();
    sorted.sort_by(f64::total_cmp);
    let limit = percentile(&sorted, QUIET_LEVEL) * QUIET_TOLERANCE;
    let quiet: Vec<u64> = sample_ns
        .iter()
        .zip(gauge_ns.windows(2))
        .filter(|(_, g)| g[0] as f64 <= limit && g[1] as f64 <= limit)
        .map(|(&ns, _)| ns)
        .collect();
    if quiet.len() < MIN_QUIET {
        sample_ns.to_vec()
    } else {
        quiet
    }
}

/// Aggregates per-sample timings (`ns` spent on `batch` ops each) block by
/// block, over the quiet samples only. There are [`BLOCKS`] equal blocks,
/// fewer when there are not [`MIN_PER_BLOCK`] samples for each; samples
/// beyond a multiple of the block count are dropped from the tail.
pub fn phase_stats(sample_ns: &[u64], gauge_ns: &[u64], batch: usize) -> PhaseStats {
    let quiet = quiet_samples(sample_ns, gauge_ns);
    let blocks = (quiet.len() / MIN_PER_BLOCK).clamp(1, BLOCKS);
    let per_block = (quiet.len() / blocks).max(1);
    let per_op_us = |ns: u64| ns as f64 / 1e3 / batch as f64;
    let (mut rate, mut p50, mut p90, mut all) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for block in quiet.chunks_exact(per_block).take(blocks) {
        let total_ns: u64 = block.iter().sum();
        rate.push((block.len() * batch) as f64 * 1e9 / total_ns.max(1) as f64);
        let mut us: Vec<f64> = block.iter().map(|&ns| per_op_us(ns)).collect();
        us.sort_by(f64::total_cmp);
        p50.push(percentile(&us, 0.5));
        p90.push(percentile(&us, 0.9));
        all.extend(us);
    }
    all.sort_by(f64::total_cmp);
    PhaseStats {
        ops_per_s: median(&rate),
        op_p50_us: median(&p50),
        op_p90_us: median(&p90),
        op_p99_us: percentile(&all, 0.99),
        samples: all.len(),
        quiet_share: quiet.len() as f64 / sample_ns.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Gauge readings for `n` samples on an undisturbed machine.
    fn calm(n: usize) -> Vec<u64> {
        vec![6_400; n + 1]
    }

    #[test]
    fn block_median_ignores_a_disturbed_block() {
        // 9 blocks of 50 samples, 1 µs per op; block 4 is ten times slower
        // without the gauge having noticed.
        let mut ns = vec![1_000u64; 450];
        for s in &mut ns[200..250] {
            *s = 10_000;
        }
        let st = phase_stats(&ns, &calm(450), 1);
        assert_eq!(st.samples, 450);
        assert_eq!(st.op_p50_us, 1.0);
        assert_eq!(st.op_p90_us, 1.0);
        assert_eq!(st.ops_per_s, 1e6);
        assert_eq!(st.op_p99_us, 10.0, "the whole-phase p99 still sees it");
        assert_eq!(st.quiet_share, 1.0);
    }

    #[test]
    fn block_stats_divide_by_batch_and_drop_the_tail() {
        // 455 samples of 256 ops at 2 µs per op; 455 = 9 * 50 + 5 dropped.
        let ns = vec![512_000u64; 455];
        let st = phase_stats(&ns, &calm(455), 256);
        assert_eq!(st.samples, 450);
        assert_eq!(st.op_p50_us, 2.0);
        assert_eq!(st.ops_per_s, 500_000.0);
    }

    #[test]
    fn few_samples_make_fewer_blocks() {
        // 120 samples are two blocks of 60; 3 samples are one block.
        let mut ns = vec![1_000u64; 120];
        ns[..60].fill(3_000);
        let st = phase_stats(&ns, &calm(120), 1);
        assert_eq!((st.samples, st.op_p50_us), (120, 2.0));
        let st = phase_stats(&[1_000, 3_000, 2_000], &calm(3), 1);
        assert_eq!(st.samples, 3);
        assert_eq!(st.op_p50_us, 2.0);
        assert_eq!(st.ops_per_s, 3.0 * 1e9 / 6_000.0);
    }

    #[test]
    fn samples_beside_a_high_gauge_reading_are_not_counted() {
        // 100 samples; the machine is disturbed while samples 40..70 run:
        // the readings from after sample 39 to before sample 70 are high.
        let mut ns = vec![1_000u64; 100];
        let mut gauge = calm(100);
        for i in 40..70 {
            ns[i] = 1_700;
            gauge[i + 1] = 10_000;
        }
        gauge[40] = 10_000;
        let quiet = quiet_samples(&ns, &gauge);
        // Sample 39 ends and sample 70 starts beside a high reading: both go.
        assert_eq!(quiet.len(), 100 - 30 - 2);
        assert!(quiet.iter().all(|&s| s == 1_000));
        let st = phase_stats(&ns, &gauge, 1);
        assert_eq!((st.op_p50_us, st.op_p90_us), (1.0, 1.0));
        assert!((st.quiet_share - 0.68).abs() < 1e-12);
    }

    #[test]
    fn a_run_disturbed_throughout_keeps_every_sample() {
        // Only 10 samples lie between two quiet readings: too few to stand
        // for the run.
        let ns = vec![1_000u64; 200];
        let gauge: Vec<u64> = (0..201)
            .map(|i| if i < 11 { 6_400 } else { 9_000 + i })
            .collect();
        assert_eq!(quiet_samples(&ns, &gauge).len(), 200);
    }
}
