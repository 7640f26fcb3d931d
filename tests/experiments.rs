//! Experiment-level integration: every figure/table pipeline runs and its
//! headline shape matches the paper's direction. (Unit tests inside
//! `sciera-measure` check tighter per-figure properties; these tests check
//! the cross-experiment consistency on one shared campaign.)

use sciera::measure::analysis::{fig5, fig6, fig7};
use sciera::measure::bootstrapx::fig4;
use sciera::measure::campaign::{Campaign, CampaignConfig};
use sciera::measure::paths::{fig10a, fig10b, fig8, fig9};
use sciera::measure::resilience::fig10c;
use sciera::measure::survey;
use sciera::orchestrator::effort::EffortModel;
use sciera::prelude::*;
use sciera::topology::timeline::deployment_timeline;

fn campaign() -> sciera::measure::campaign::MeasurementStore {
    let config = CampaignConfig {
        days: 4.0,
        round_secs: 180,
        probe_every_rounds: 5,
        candidates_per_origin: 16,
        max_paths: 150,
        with_incidents: true,
        seed: 71,
    };
    Campaign::new(config).run()
}

/// FNV-1a over the bits of every pair's SCION and ICMP RTT sums, in pair
/// order: one number that moves if any sample of the campaign does.
fn pair_sums_digest(store: &sciera::measure::campaign::MeasurementStore) -> u64 {
    store
        .pairs
        .iter()
        .flat_map(|p| [p.scion_sum.to_bits(), p.ip_sum.to_bits()])
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn connectivity_experiments_are_mutually_consistent() {
    let store = campaign();

    // The campaign's samples, pinned: a faster engine must not move one.
    assert_eq!(
        (store.scion_pings, store.ip_pings, store.excluded_rounds),
        (1_572_480, 524_160, 480)
    );
    assert_eq!(store.pairs.len(), 364);
    assert_eq!(pair_sums_digest(&store), 0x6e6e_25f7_cf4c_67f6);

    // Fig. 5: SCION wins the median and wins more at the tail.
    let f5 = fig5(&store);
    assert!(
        f5.median_reduction_pct() > 0.0,
        "median reduction {:.2}%",
        f5.median_reduction_pct()
    );
    assert!(f5.p90_reduction_pct() > f5.median_reduction_pct());

    // Fig. 6 must agree with Fig. 5 in aggregate: if the median pair ratio
    // is below ~1, the global medians should also favour SCION.
    let f6 = fig6(&store);
    let median_ratio = f6.ratios[f6.ratios.len() / 2].ratio;
    assert!(median_ratio < 1.2, "median pair ratio {median_ratio}");
    assert!(f6.frac_below_one > 0.15 && f6.frac_below_one < 0.95);

    // Fig. 7's daily ratios must bracket Fig. 6's median.
    let f7 = fig7(&store);
    let avg: f64 = f7.daily_ratio.iter().sum::<f64>() / f7.daily_ratio.len() as f64;
    assert!(
        (avg - median_ratio).abs() < 0.6,
        "daily avg {avg} vs median ratio {median_ratio}"
    );

    // Figs. 8/9: max counts bound the deviations.
    let m8 = fig8(&store);
    let m9 = fig9(&store);
    for i in 0..9 {
        for j in 0..9 {
            if i == j {
                continue;
            }
            assert!(
                m9.values[i][j] <= m8.values[i][j],
                "deviation exceeds max at ({i},{j})"
            );
            assert!(m8.values[i][j] >= 2);
        }
    }

    // Fig. 10a comes from the same campaign and is well-formed.
    let f10a = fig10a(&store);
    assert!(f10a.inflations.iter().all(|&x| (1.0..100.0).contains(&x)));
    assert!(f10a.frac_below_1_2 >= f10a.frac_near_one);
}

#[test]
fn structural_experiments_shapes() {
    // Fig. 10b.
    let f10b = fig10b(8, 40);
    assert!(f10b.frac_fully_disjoint > 0.05);
    assert!(f10b.frac_above_0_7 > 0.5);

    // Fig. 10c: the multipath/single-path gap of the paper's headline.
    let f10c = fig10c(15, 5, false);
    let p20 = f10c.at(0.2);
    assert!(p20.multipath_connectivity - p20.singlepath_connectivity > 0.1);

    // Fig. 4: worst median below the perception threshold.
    let f4 = fig4(30, 7);
    assert!(f4.worst_total_median_ms() < 150.0);

    // Fig. 3: total effort declines over the journey per comparable type.
    let tl = deployment_timeline();
    let efforts = EffortModel::default().evaluate(&tl);
    assert!(efforts[0] > *efforts.last().unwrap());

    // §5.6 aggregates equal the paper's marginals exactly.
    let stats = survey::aggregate(&survey::respondents());
    assert_eq!(stats.hardware_under_20k, 0.75);
    assert_eq!(stats.workload_below_10pct, 0.875);
}

#[test]
fn outliers_trace_back_to_injected_incidents() {
    let store = campaign();
    let f6 = fig6(&store);
    // The UFMS->Equinix detour (BRIDGES-RNP circuits down) must rank the
    // pair above the median ratio.
    let med = f6.ratios[f6.ratios.len() / 2].ratio;
    let ufms_eq = f6
        .ratios
        .iter()
        .find(|r| r.src == ia("71-2:0:5c") && r.dst == ia("71-2:0:48"))
        .expect("pair measured");
    assert!(ufms_eq.ratio > med);
    // And the incident labels document what was injected.
    assert!(store.incident_labels.contains(&"KR-SG submarine cable cut"));
    assert!(store
        .incident_labels
        .contains(&"UFMS-Equinix routed through GEANT"));
}
