//! Per-thread work counters: how many times this thread did the unit of work
//! a cost rests on.
//!
//! A clock reading moves with the machine; a count of SHA-256 compressions,
//! keyed combination plans or path bodies built does not. `tests/work_budget.rs`
//! holds these counts, with the allocations it counts itself, to the limits
//! in `BUDGETS.json`, so a change that adds work fails tier-1 by name before
//! a benchmark has to tell it from noise.
//!
//! The counters are always on. Each is a const-initialised thread-local
//! `Cell` with no destructor: a count is a load and a store on this thread's
//! own cache line, paid per call of the counted step (a compression call,
//! a plan keyed, a body built), never per byte.

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
}

const KINDS: usize = 3;

thread_local! {
    static COUNTS: [Cell<u64>; KINDS] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
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
}

/// This thread's counts since it started.
fn counts() -> WorkCounts {
    COUNTS.with(|c| WorkCounts {
        sha256_compressions: c[Work::Sha256Compressions as usize].get(),
        plans_keyed: c[Work::PlansKeyed as usize].get(),
        bodies_built: c[Work::BodiesBuilt as usize].get(),
    })
}

/// Runs `f` and returns its result with the work this thread did meanwhile.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, WorkCounts) {
    let before = counts();
    let out = f();
    let after = counts();
    let done = WorkCounts {
        sha256_compressions: after.sha256_compressions - before.sha256_compressions,
        plans_keyed: after.plans_keyed - before.plans_keyed,
        bodies_built: after.bodies_built - before.bodies_built,
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
            // Another thread's work is its own.
            std::thread::spawn(|| add(Work::PlansKeyed, 100))
                .join()
                .unwrap();
        });
        let expect = WorkCounts {
            plans_keyed: 3,
            bodies_built: 1,
            ..WorkCounts::default()
        };
        assert_eq!(here, expect);
        let (_, nested) = counted(|| counted(|| add(Work::Sha256Compressions, 2)));
        assert_eq!(nested.sha256_compressions, 2);
    }
}
