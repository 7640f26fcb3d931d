//! Per-thread work counters: how many times this thread did the unit of work
//! a cost rests on.
//!
//! A clock reading moves with the machine; a count of SHA-256 compressions,
//! AES blocks, keyed combination plans, path bodies built, router hop steps,
//! path-cache probes or PCBs handled does not. `tests/work_budget.rs`
//! holds these counts, with the allocations it counts itself, to the limits
//! in `BUDGETS.json`, so a change that adds work fails tier-1 by name before
//! a benchmark has to tell it from noise.
//!
//! The counters are always on. Each is a const-initialised thread-local
//! `Cell` with no destructor: a count is a load and a store on this thread's
//! own cache line, paid per call of the counted step (a compression call,
//! a block encrypted, a plan keyed, a body built, a frame stepped, a cache
//! probed, a PCB checked), never per byte.

use std::cell::Cell;

/// A unit of work counted per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// SHA-256 compressions (64-byte blocks), counted where
    /// `scion_crypto::sha256` dispatches to a kernel, so both kernels count.
    Sha256Compressions,
    /// Combination plans keyed: hops derived and hashed for a candidate a
    /// lookup reached.
    PlansKeyed,
    /// Path bodies built from a combination's answer on first read.
    BodiesBuilt,
    /// AES-128 blocks encrypted, counted where `scion_crypto::aes`
    /// dispatches to a kernel, so both kernels count.
    AesBlocks,
    /// Frames a border router took a forwarding step on: one per router a
    /// frame crosses.
    HopSteps,
    /// Path-cache probes: a lookup's key looked up in a cache shard, to
    /// serve it, to prefetch it or to install its answer.
    CacheProbes,
    /// PCB entries checked on receipt during beaconing.
    PcbsHandled,
}

const KINDS: usize = 7;

thread_local! {
    static COUNTS: [Cell<u64>; KINDS] = const { [const { Cell::new(0) }; KINDS] };
}

/// Adds `n` to this thread's count of `work`.
#[inline]
pub fn add(work: Work, n: u64) {
    COUNTS.with(|c| {
        let c = &c[work as usize];
        c.set(c.get().wrapping_add(n));
    });
}

/// This thread's counts, or a difference of two readings of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// [`Work::Sha256Compressions`].
    pub sha256_compressions: u64,
    /// [`Work::PlansKeyed`].
    pub plans_keyed: u64,
    /// [`Work::BodiesBuilt`].
    pub bodies_built: u64,
    /// [`Work::AesBlocks`].
    pub aes_blocks: u64,
    /// [`Work::HopSteps`].
    pub hop_steps: u64,
    /// [`Work::CacheProbes`].
    pub cache_probes: u64,
    /// [`Work::PcbsHandled`].
    pub pcbs_handled: u64,
}

/// This thread's counts since it started.
fn counts() -> [u64; KINDS] {
    COUNTS.with(|c| c.each_ref().map(Cell::get))
}

/// Runs `f` and returns its result with the work this thread did meanwhile.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, WorkCounts) {
    let before = counts();
    let out = f();
    let after = counts();
    let done = |w: Work| after[w as usize] - before[w as usize];
    let done = WorkCounts {
        sha256_compressions: done(Work::Sha256Compressions),
        plans_keyed: done(Work::PlansKeyed),
        bodies_built: done(Work::BodiesBuilt),
        aes_blocks: done(Work::AesBlocks),
        hop_steps: done(Work::HopSteps),
        cache_probes: done(Work::CacheProbes),
        pcbs_handled: done(Work::PcbsHandled),
    };
    (out, done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_per_thread_and_per_kind() {
        let ((), here) = counted(|| {
            add(Work::PlansKeyed, 3);
            add(Work::BodiesBuilt, 1);
            add(Work::PcbsHandled, 2);
            // Another thread's work is its own.
            std::thread::spawn(|| add(Work::PlansKeyed, 100))
                .join()
                .unwrap();
        });
        let expect = WorkCounts {
            plans_keyed: 3,
            bodies_built: 1,
            pcbs_handled: 2,
            ..WorkCounts::default()
        };
        assert_eq!(here, expect);
        let (_, nested) = counted(|| counted(|| add(Work::Sha256Compressions, 2)));
        assert_eq!(nested.sha256_compressions, 2);
    }
}
