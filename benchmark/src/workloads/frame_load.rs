//! `frame_load`: the forwarding plane at load, bare forwarding of the
//! smallest packet. Host stack and control plane are bypassed.

use std::time::Instant;

use sciera::control::fullpath::FullPath;
use sciera::flowgen::{FlowGen, FlowGenConfig};
use sciera::proto::addr::IsdAsn;

use super::datagram::{forwarding_counts, HOPS};
use super::{pairs_where, shortest_is, Counts, Sample, Workload};
use crate::deploy::{Deployment, Wire};
use crate::seeded::pair_pool;
use crate::spans::Tracer;

pub const TEMPLATES: usize = 64;
/// Frames per timed sample.
pub const CHUNK: usize = 4096;
/// Distinct chunks of schedule, cycled.
pub const CHUNKS: usize = 16;
/// Frames a router is handed at once.
pub const ROUTER_BATCH: usize = 32;
const PAYLOAD: [u8; 64] = [0x5C; 64];

pub struct FrameLoad<W: Wire> {
    dep: Deployment,
    wire: W,
    templates: Vec<(IsdAsn, Vec<u8>)>,
    paths: Vec<FullPath>,
    /// Template indices in `sciera-flowgen`'s default traffic mix. The mix
    /// is the generator's own default, seed included: with a per-run seed
    /// the handful of elephant flows in so short a schedule would change
    /// the share of in-batch duplicates, and with it the result.
    schedule: Vec<u32>,
    schedule_s: f64,
    next: usize,
}

impl<W: Wire> Workload<W> for FrameLoad<W> {
    const BATCH: usize = CHUNK;

    fn prepare(dep: Deployment, seed: u64, wire: W) -> Self {
        let pool = pair_pool(dep.leaves.len(), seed);
        let mut templates = Vec::with_capacity(TEMPLATES);
        let mut paths = Vec::with_capacity(TEMPLATES);
        for (s, d, mut answer) in pairs_where(&dep, &pool, |a| shortest_is(a, HOPS)) {
            let template = dep
                .net
                .frame_template(dep.leaves[s], dep.leaves[d], &PAYLOAD)
                .expect("a pair with a path has a template");
            templates.push(template);
            paths.push(answer.swap_remove(0));
            if templates.len() == TEMPLATES {
                break;
            }
        }
        assert_eq!(
            templates.len(),
            TEMPLATES,
            "the deployment has {TEMPLATES} pairs {HOPS} hops apart"
        );
        dep.net.pathdb().flush();

        let t = Instant::now();
        let mut gen = FlowGen::new(FlowGenConfig {
            templates: TEMPLATES as u32,
            ..FlowGenConfig::default()
        });
        let (pkts, _) = gen.generate(u64::MAX, CHUNK * CHUNKS);
        let schedule: Vec<u32> = pkts.iter().map(|p| p.template).collect();
        let schedule_s = t.elapsed().as_secs_f64();
        assert_eq!(schedule.len(), CHUNK * CHUNKS, "flowgen fills the schedule");

        // A few elephant flows carry most of the schedule, so a few template
        // slots carry most of the frames, and what a frame costs follows
        // where its path's links sit in the link list the network scans per
        // forward. The busiest slots get the most typical paths: the seed
        // picks which pairs, not how much work a frame is. (Drawn freely,
        // `ops_per_s` spread by 11–24 % over ten seeds.)
        let mut frames_in_slot = [0usize; TEMPLATES];
        for &t in &schedule {
            frames_in_slot[t as usize] += 1;
        }
        let mut slots: Vec<usize> = (0..TEMPLATES).collect();
        slots.sort_by_key(|&t| std::cmp::Reverse(frames_in_slot[t]));
        let scan_work: Vec<usize> = paths
            .iter()
            .map(|p| dep.net.path_links(p).iter().map(|l| l + 1).sum())
            .collect();
        let mut sorted = scan_work.clone();
        sorted.sort_unstable();
        let typical = sorted[TEMPLATES / 2];
        let mut drawn: Vec<usize> = (0..TEMPLATES).collect();
        drawn.sort_by_key(|&i| scan_work[i].abs_diff(typical));
        let mut placed: Vec<Option<(IsdAsn, Vec<u8>)>> = vec![None; TEMPLATES];
        for (&slot, &i) in slots.iter().zip(&drawn) {
            placed[slot] = Some(templates[i].clone());
        }
        let templates = placed.into_iter().flatten().collect();
        FrameLoad {
            dep,
            wire,
            templates,
            paths,
            schedule,
            schedule_s,
            next: 0,
        }
    }

    fn sample(&mut self) -> Sample {
        let at = self.next % CHUNKS * CHUNK;
        self.next += 1;
        let chunk = &self.schedule[at..at + CHUNK];
        let tr = self.wire.tracer();
        tr.next_op();
        let t0 = Instant::now();
        let op = tr.begin("op");
        let span = tr.begin("core.run_frame_load");
        let report = self
            .dep
            .net
            .run_frame_load(&self.templates, chunk, ROUTER_BATCH, true);
        tr.end(span);
        tr.end(op);
        let ns = t0.elapsed().as_nanos() as u64;
        // A frame not delivered is a failed operation.
        let lost = CHUNK as u64 - report.delivered.min(CHUNK as u64);
        let miscounted = report.injected != CHUNK as u64 || report.dropped != lost;
        Sample {
            ns,
            failed: (lost as u32).max(u32::from(miscounted)),
        }
    }

    fn deployment(&self) -> &Deployment {
        &self.dep
    }

    fn probe_paths(&self) -> Vec<FullPath> {
        self.paths.clone()
    }

    fn check_counts(&self, moved: &Counts, ops: u64) -> Vec<String> {
        let mut bad = forwarding_counts(moved);
        let delivered = moved.get("router.delivered");
        if delivered != ops {
            bad.push(format!("routers delivered {delivered} of {ops} frames"));
        }
        let (frames, fwd) = (
            moved.get("router.batch.frames"),
            moved.get("router.forwarded"),
        );
        if frames != fwd + delivered {
            bad.push(format!(
                "{frames} frames entered router batches, {fwd} forwarded + {delivered} delivered"
            ));
        }
        bad
    }

    fn schedule_s(&self) -> f64 {
        self.schedule_s
    }
}
