//! Link-failure resilience: Fig. 10c.
//!
//! "In 100 simulation runs, we randomly remove between 0% and 100% of the
//! links (one link per step) and calculate how many AS pairs still have
//! connectivity", comparing SCION's multipath (any path of the combined
//! set) with a single-path alternative that only ever uses the shortest
//! path.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sciera_topology::ases::{all_ases, fig8_vantages};
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::combine::combine_paths;
use scion_proto::addr::IsdAsn;

use crate::campaign::{Campaign, CampaignConfig, CandPath};

/// One sweep point of Fig. 10c.
#[derive(Debug, Clone, Copy)]
pub struct Fig10cPoint {
    /// Fraction of links removed.
    pub removed_frac: f64,
    /// Fraction of AS pairs still connected using all paths (multipath).
    pub multipath_connectivity: f64,
    /// Fraction still connected using only each pair's shortest path.
    pub singlepath_connectivity: f64,
}

/// The Fig. 10c experiment result.
#[derive(Debug, Clone)]
pub struct Fig10c {
    /// Sweep points, increasing removal fraction.
    pub points: Vec<Fig10cPoint>,
    /// Simulation runs averaged.
    pub runs: u32,
}

impl Fig10c {
    /// Connectivity at a removal fraction (nearest sweep point).
    pub fn at(&self, removed: f64) -> Fig10cPoint {
        *self
            .points
            .iter()
            .min_by(|a, b| {
                (a.removed_frac - removed)
                    .abs()
                    .partial_cmp(&(b.removed_frac - removed).abs())
                    .unwrap()
            })
            .expect("sweep is non-empty")
    }

    /// Renders the sweep as a table.
    pub fn to_table(&self) -> String {
        let mut s = format!(
            "{:>10} {:>12} {:>12}   ({} runs)\n",
            "removed%", "multipath%", "singlepath%", self.runs
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:>10.0} {:>12.1} {:>12.1}\n",
                p.removed_frac * 100.0,
                p.multipath_connectivity * 100.0,
                p.singlepath_connectivity * 100.0
            ));
        }
        s
    }
}

/// Runs the Fig. 10c sweep: `runs` random removal orders, connectivity
/// evaluated every `step_frac` of links removed, over all vantage pairs
/// (`all_pairs` switches to every ISD-71 AS pair as in the paper's
/// simulation over the full topology).
pub fn fig10c(runs: u32, seed: u64, all_pairs: bool) -> Fig10c {
    let campaign = Campaign::new(CampaignConfig::quick());
    let topo = &campaign.topo;
    let n_links = topo.links.len();
    let store = BeaconEngine::new(
        &topo.graph,
        1_700_000_000,
        BeaconConfig {
            candidates_per_origin: 16,
            ..Default::default()
        },
    )
    .run()
    .expect("beaconing succeeds");

    let endpoints: Vec<IsdAsn> = if all_pairs {
        all_ases()
            .into_iter()
            .filter(|a| a.ia.isd.0 == 71)
            .map(|a| a.ia)
            .collect()
    } else {
        fig8_vantages()
    };
    // Pre-digest candidate paths for every ordered pair.
    let up = |_: usize| false;
    let mut pair_paths: Vec<Vec<CandPath>> = Vec::new();
    for &s in &endpoints {
        for &d in &endpoints {
            if s == d {
                continue;
            }
            let paths = combine_paths(&store, s, d, 150);
            pair_paths.push(
                paths
                    .iter()
                    .filter_map(|p| campaign.digest_path(p, &up))
                    .collect(),
            );
        }
    }

    let steps: Vec<usize> = (0..=10).map(|i| i * n_links / 10).collect();
    let mut multi_acc = vec![0.0f64; steps.len()];
    let mut single_acc = vec![0.0f64; steps.len()];
    let mut rng = StdRng::seed_from_u64(seed);

    for _ in 0..runs {
        let mut order: Vec<usize> = (0..n_links).collect();
        order.shuffle(&mut rng);
        let mut down = vec![false; n_links];
        let mut removed = 0usize;
        for (si, &target) in steps.iter().enumerate() {
            while removed < target {
                down[order[removed]] = true;
                removed += 1;
            }
            let mut multi_ok = 0usize;
            let mut single_ok = 0usize;
            for paths in &pair_paths {
                if paths
                    .iter()
                    .any(|p| p.links.iter().all(|&l| !down[l as usize]))
                {
                    multi_ok += 1;
                }
                if let Some(shortest) = paths.first() {
                    if shortest.links.iter().all(|&l| !down[l as usize]) {
                        single_ok += 1;
                    }
                }
            }
            multi_acc[si] += multi_ok as f64 / pair_paths.len() as f64;
            single_acc[si] += single_ok as f64 / pair_paths.len() as f64;
        }
    }

    let points = steps
        .iter()
        .enumerate()
        .map(|(si, &target)| Fig10cPoint {
            removed_frac: target as f64 / n_links as f64,
            multipath_connectivity: multi_acc[si] / runs as f64,
            singlepath_connectivity: single_acc[si] / runs as f64,
        })
        .collect();
    Fig10c { points, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10c_shape_matches_paper() {
        let f = fig10c(20, 9, false);
        let zero = f.at(0.0);
        assert!((zero.multipath_connectivity - 1.0).abs() < 1e-9);
        assert!((zero.singlepath_connectivity - 1.0).abs() < 1e-9);

        let p20 = f.at(0.2);
        // Paper: at 20 % removal, ~90 % multipath vs ~50 % single path.
        assert!(
            p20.multipath_connectivity > 0.7,
            "multipath at 20%: {}",
            p20.multipath_connectivity
        );
        assert!(
            p20.multipath_connectivity > p20.singlepath_connectivity + 0.15,
            "multipath {} should clearly beat single-path {}",
            p20.multipath_connectivity,
            p20.singlepath_connectivity
        );

        let all = f.at(1.0);
        assert!(all.multipath_connectivity < 1e-9);
    }

    #[test]
    fn connectivity_monotone_decreasing() {
        let f = fig10c(10, 3, false);
        for w in f.points.windows(2) {
            assert!(
                w[0].multipath_connectivity >= w[1].multipath_connectivity - 1e-9,
                "multipath not monotone"
            );
            assert!(
                w[0].singlepath_connectivity >= w[1].singlepath_connectivity - 1e-9,
                "singlepath not monotone"
            );
        }
    }

    #[test]
    fn table_renders() {
        let f = fig10c(2, 1, false);
        let t = f.to_table();
        assert!(t.contains("multipath%"));
        assert_eq!(t.lines().count(), 12);
    }
}
