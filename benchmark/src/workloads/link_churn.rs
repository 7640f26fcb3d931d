//! `link_churn`: failover as operators see it (§4.7). A link fails, the
//! prober finds out, the path database drops what crossed it, lookups
//! recombine; then the link comes back.

use std::time::Instant;

use sciera::control::fullpath::FullPath;
use sciera::proto::addr::IsdAsn;

use super::{pairs_where, shortest_is, Counts, Sample, Workload};
use crate::deploy::{crosses, Deployment, Wire, MAX_PATHS};
use crate::seeded::{pair_pool, LinkChoice};
use crate::spans::Tracer;

pub const PAIRS: usize = 8;
/// Paths probed per pair, shortest first.
pub const PROBED_PATHS: usize = 8;
/// AS-level hops of every pair's shortest path: the commonest length among
/// pairs with a full answer.
pub const HOPS: usize = 7;
/// Qualifying pairs drawn, of which the [`PAIRS`] nearest [`FILTER_WORK`]
/// are used.
pub const CANDIDATES: usize = 24;
/// The median, over this deployment's qualifying pairs, of `filter_work`.
pub const FILTER_WORK: usize = 400_000;

pub struct LinkChurn<W: Wire> {
    dep: Deployment,
    wire: W,
    pairs: Vec<(IsdAsn, IsdAsn)>,
    /// Every pair's full answer with all links up.
    baseline: Vec<Vec<FullPath>>,
    probed: Vec<FullPath>,
    /// Links on some pair's shortest path whose loss leaves every pair
    /// connected and costs exactly one pair some of its paths.
    choice: LinkChoice,
}

/// Link-list entries `SciEraNetwork::paths` walks to filter `answer` by
/// link state: the position of every crossed link, summed.
fn filter_work(dep: &Deployment, answer: &[FullPath]) -> usize {
    answer
        .iter()
        .flat_map(|p| &p.hops)
        .filter(|h| h.egress != 0)
        .filter_map(|h| dep.topo.link_index_of(h.ia, h.egress))
        .map(|position| position + 1)
        .sum()
}

impl<W: Wire> LinkChurn<W> {
    fn lookups(&self) -> Vec<Vec<FullPath>> {
        let tr = self.wire.tracer();
        self.pairs
            .iter()
            .map(|&(s, d)| {
                let span = tr.begin("core.paths");
                let paths = self.dep.net.paths(s, d);
                tr.end(span);
                paths
            })
            .collect()
    }

    fn set_link(&self, link: usize, up: bool) {
        let tr = self.wire.tracer();
        let span = tr.begin("core.set_link_index");
        self.dep.net.set_link_index(link, up);
        tr.end(span);
        let span = tr.begin("orchestrator.probe_round");
        std::hint::black_box(self.dep.net.probe_round());
        tr.end(span);
    }
}

impl<W: Wire> Workload<W> for LinkChurn<W> {
    const BATCH: usize = 1;

    fn prepare(dep: Deployment, seed: u64, wire: W) -> Self {
        let pool = pair_pool(dep.leaves.len(), seed);
        // Candidates are pairs whose answer fills the lookup cap, as in
        // `connect_warm`, and whose shortest path has one length.
        let mut candidates: Vec<_> = pairs_where(&dep, &pool, |a| {
            a.len() == MAX_PATHS && shortest_is(a, HOPS)
        })
        .take(CANDIDATES)
        .map(|(s, d, all)| (filter_work(&dep, &all), dep.leaves[s], dep.leaves[d], all))
        .collect();
        assert_eq!(
            candidates.len(),
            CANDIDATES,
            "the deployment has {CANDIDATES} pairs with a full answer {HOPS} hops apart"
        );
        // Of those, the eight whose lookups do the most typical amount of
        // link-state filtering. Three quarters of a failover is such
        // lookups, and from pair to pair their cost differs 2.5-fold with
        // where the pair's links sit in the network's link list (250 to
        // 610 µs): the seed picks which pairs, not how much work a failover
        // is.
        candidates.sort_unstable_by_key(|&(work, s, d, _)| (work.abs_diff(FILTER_WORK), s, d));
        let (mut pairs, mut baseline, mut probed) = (Vec::new(), Vec::new(), Vec::new());
        let mut primary_links = Vec::new();
        dep.net.pathdb().flush();
        for (_, s, d, all) in candidates.into_iter().take(PAIRS) {
            let snapshot = dep.net.register_probe_pair_capped(s, d, PROBED_PATHS);
            primary_links.extend(dep.net.path_links(&snapshot[0]));
            probed.extend(snapshot);
            pairs.push((s, d));
            baseline.push(all);
        }
        primary_links.sort_unstable();
        primary_links.dedup();
        // One failure invalidates one pair's cached answer. A link nearer
        // the core would take several pairs' answers with it, and how many
        // depends on the draw: 1 to 8 among the links first listed.
        primary_links.retain(|&l| {
            let ends = dep.link_ends(l);
            let survivable = baseline
                .iter()
                .all(|paths| paths.iter().any(|p| !crosses(p, &ends)));
            let hit = baseline
                .iter()
                .filter(|paths| paths.iter().any(|p| crosses(p, &ends)))
                .count();
            survivable && hit == 1
        });
        assert!(
            !primary_links.is_empty(),
            "some primary-path link is survivable"
        );
        // First round: the health board learns every probed path as alive.
        dep.net.probe_round();
        LinkChurn {
            choice: LinkChoice::new(primary_links, seed),
            dep,
            wire,
            pairs,
            baseline,
            probed,
        }
    }

    fn sample(&mut self) -> Sample {
        let link = self.choice.draw();
        let tr = self.wire.tracer();
        tr.next_op();
        let t0 = Instant::now();
        let op = tr.begin("op");
        self.set_link(link, false);
        let down = self.lookups();
        self.set_link(link, true);
        let up = self.lookups();
        tr.end(op);
        let ns = t0.elapsed().as_nanos() as u64;

        let ends = self.dep.link_ends(link);
        let failed_over = down
            .iter()
            .all(|paths| !paths.is_empty() && paths.iter().all(|p| !crosses(p, &ends)));
        let restored = up == self.baseline;
        Sample {
            ns,
            failed: u32::from(!(failed_over && restored)),
        }
    }

    fn deployment(&self) -> &Deployment {
        &self.dep
    }

    fn probe_paths(&self) -> Vec<FullPath> {
        self.probed.clone()
    }

    fn check_counts(&self, moved: &Counts, ops: u64) -> Vec<String> {
        let mut bad = Vec::new();
        let echoes = moved.get("prober.echo_sent");
        let want = 2 * ops * self.probed.len() as u64;
        if echoes != want {
            bad.push(format!(
                "{echoes} echoes over {ops} failovers, expected {want}"
            ));
        }
        if moved.get("prober.ext_if_down") < ops {
            bad.push("a failed link went unnoticed by the prober".into());
        }
        let (dropped, missed) = (
            moved.get("pathdb.cache.invalidate"),
            moved.get("pathdb.cache.miss"),
        );
        if (dropped, missed) != (ops, ops) {
            bad.push(format!(
                "{dropped} answers invalidated and {missed} recombined over {ops} failovers, expected one each"
            ));
        }
        bad
    }
}
