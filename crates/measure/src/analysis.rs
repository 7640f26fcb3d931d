//! Connectivity analysis: Figs. 5, 6 and 7.

use scion_proto::addr::IsdAsn;

use crate::campaign::MeasurementStore;
use crate::stats::{Cdf, Summary};

/// Figure 5: the RTT distributions of SCION vs IP pings.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// SCION RTT CDF (ms).
    pub scion: Cdf,
    /// IP RTT CDF (ms).
    pub ip: Cdf,
    /// Median SCION RTT, ms.
    pub scion_median: f64,
    /// Median IP RTT, ms.
    pub ip_median: f64,
    /// 90th-percentile SCION RTT, ms.
    pub scion_p90: f64,
    /// 90th-percentile IP RTT, ms.
    pub ip_p90: f64,
    /// Pings analysed (SCION, IP).
    pub counts: (u64, u64),
}

impl Fig5 {
    /// Median latency reduction of SCION vs IP, percent (paper: 6.9 %).
    pub fn median_reduction_pct(&self) -> f64 {
        (1.0 - self.scion_median / self.ip_median) * 100.0
    }

    /// p90 latency reduction, percent (paper: 23.7 %).
    pub fn p90_reduction_pct(&self) -> f64 {
        (1.0 - self.scion_p90 / self.ip_p90) * 100.0
    }
}

/// Computes Fig. 5 from a campaign.
pub fn fig5(store: &MeasurementStore) -> Fig5 {
    Fig5 {
        scion: store.scion_hist.to_cdf(120),
        ip: store.ip_hist.to_cdf(120),
        scion_median: store.scion_hist.quantile(0.5).unwrap_or(f64::NAN),
        ip_median: store.ip_hist.quantile(0.5).unwrap_or(f64::NAN),
        scion_p90: store.scion_hist.quantile(0.9).unwrap_or(f64::NAN),
        ip_p90: store.ip_hist.quantile(0.9).unwrap_or(f64::NAN),
        counts: (store.scion_pings, store.ip_pings),
    }
}

/// One Fig. 6 data point: a pair's mean-RTT ratio.
#[derive(Debug, Clone)]
pub struct PairRatio {
    /// Source AS.
    pub src: IsdAsn,
    /// Destination AS.
    pub dst: IsdAsn,
    /// mean(SCION RTT) / mean(IP RTT).
    pub ratio: f64,
}

/// Figure 6: CDF of the per-pair RTT ratio.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Per-pair ratios, ascending.
    pub ratios: Vec<PairRatio>,
    /// The rendered CDF.
    pub cdf: Cdf,
    /// Fraction of pairs with ratio < 1 (SCION faster; paper: ~38 %).
    pub frac_below_one: f64,
    /// Fraction of pairs with ratio < 1.25 (paper: ~80 %).
    pub frac_below_1_25: f64,
    /// The worst pairs (outliers, descending ratio).
    pub outliers: Vec<PairRatio>,
}

/// Computes Fig. 6.
pub fn fig6(store: &MeasurementStore) -> Fig6 {
    let mut ratios: Vec<PairRatio> = store
        .pairs
        .iter()
        .filter(|p| p.scion_n > 0 && p.ip_n > 0)
        .map(|p| PairRatio {
            src: p.src,
            dst: p.dst,
            ratio: (p.scion_sum / p.scion_n as f64) / (p.ip_sum / p.ip_n as f64),
        })
        .collect();
    ratios.sort_by(|a, b| a.ratio.partial_cmp(&b.ratio).unwrap());
    let n = ratios.len() as f64;
    let frac_below_one = ratios.iter().filter(|r| r.ratio < 1.0).count() as f64 / n;
    let frac_below_1_25 = ratios.iter().filter(|r| r.ratio < 1.25).count() as f64 / n;
    let mut summary = Summary::new();
    for r in &ratios {
        summary.record(r.ratio);
    }
    let cdf = summary.to_cdf(100);
    let outliers = ratios.iter().rev().take(8).cloned().collect();
    Fig6 {
        ratios,
        cdf,
        frac_below_one,
        frac_below_1_25,
        outliers,
    }
}

/// Figure 7: the SCION/IP RTT ratio over time (daily), mean over pairs.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Per-day mean ratio.
    pub daily_ratio: Vec<f64>,
    /// Incident labels for annotation.
    pub incidents: Vec<&'static str>,
}

/// Computes Fig. 7.
pub fn fig7(store: &MeasurementStore) -> Fig7 {
    let days = store.pairs.first().map(|p| p.daily.len()).unwrap_or(0);
    let mut daily_ratio = Vec::with_capacity(days);
    for d in 0..days {
        let mut sum = 0.0;
        let mut n = 0u64;
        for p in &store.pairs {
            let (ss, sn, is, inn) = p.daily[d];
            if sn > 0 && inn > 0 {
                sum += (ss / sn as f64) / (is / inn as f64);
                n += 1;
            }
        }
        if n > 0 {
            daily_ratio.push(sum / n as f64);
        }
    }
    Fig7 {
        daily_ratio,
        incidents: store.incident_labels.clone(),
    }
}

/// Renders Fig. 5 headline numbers as the bench-output row.
pub fn fig5_report(f: &Fig5) -> String {
    format!(
        "SCION vs IP pings (SCION n={}, IP n={})\n\
         median: SCION {:.1} ms vs IP {:.1} ms ({:+.1}% vs paper -6.9%)\n\
         p90:    SCION {:.1} ms vs IP {:.1} ms ({:+.1}% vs paper -23.7%)",
        f.counts.0,
        f.counts.1,
        f.scion_median,
        f.ip_median,
        -f.median_reduction_pct(),
        f.scion_p90,
        f.ip_p90,
        -f.p90_reduction_pct(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use scion_proto::addr::ia;

    fn store() -> MeasurementStore {
        Campaign::new(CampaignConfig::quick()).run()
    }

    #[test]
    fn fig5_shape_matches_paper() {
        let f = fig5(&store());
        // SCION beats IP at the median and by more at the tail.
        assert!(
            f.scion_median < f.ip_median,
            "median {} vs {}",
            f.scion_median,
            f.ip_median
        );
        assert!(
            f.p90_reduction_pct() > f.median_reduction_pct(),
            "tail gap must exceed median gap"
        );
        assert!(
            f.p90_reduction_pct() > 10.0,
            "p90 reduction {:.1}%",
            f.p90_reduction_pct()
        );
        // CDFs are monotone and end at 1.
        for w in f.scion.points.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn fig6_shape_matches_paper() {
        let f = fig6(&store());
        assert!(
            f.frac_below_one > 0.15,
            "some pairs faster on SCION: {}",
            f.frac_below_one
        );
        assert!(
            f.frac_below_1_25 > 0.6,
            "most pairs <25% inflation: {}",
            f.frac_below_1_25
        );
        assert!(!f.outliers.is_empty());
        // Outliers are worse than the median pair.
        let med = f.ratios[f.ratios.len() / 2].ratio;
        assert!(f.outliers[0].ratio > med);
    }

    #[test]
    fn fig6_ufms_equinix_is_high_ratio() {
        let f = fig6(&store());
        let ufms_eq = f
            .ratios
            .iter()
            .find(|r| r.src == ia("71-2:0:5c") && r.dst == ia("71-2:0:48"))
            .expect("UFMS->Equinix measured");
        let med = f.ratios[f.ratios.len() / 2].ratio;
        assert!(
            ufms_eq.ratio > med,
            "UFMS->Equinix ratio {} should exceed median {med} (GEANT detour)",
            ufms_eq.ratio
        );
    }

    #[test]
    fn fig7_daily_series_varies_with_incidents() {
        let f = fig7(&store());
        assert!(f.daily_ratio.len() >= 2);
        assert!(!f.incidents.is_empty());
        for r in &f.daily_ratio {
            assert!(r.is_finite() && *r > 0.0);
        }
    }

    #[test]
    fn report_renders() {
        let r = fig5_report(&fig5(&store()));
        assert!(r.contains("median"));
        assert!(r.contains("p90"));
    }
}
