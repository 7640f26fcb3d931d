//! Property tests for the scoped self-time profiler (the scale
//! observatory's attribution engine).
//!
//! With the `profile` feature on, random scope programs — arbitrary
//! nesting, early drops and panicking sub-trees — must yield a sound
//! report: every node's direct children sum to at most its inclusive time
//! and self time is exactly the remainder (the disjoint-sub-interval
//! argument of DESIGN.md §14).
//!
//! With profiling compiled out (`--no-default-features`) the same entry
//! points must be true no-ops: zero-sized guards, empty reports.

use proptest::prelude::*;

use sciera::telemetry::{ProfScope, ProfileEntry, Telemetry};

/// One step of a random scope program.
#[derive(Debug, Clone)]
enum Step {
    /// Open a nested scope (names cycle through a fixed set).
    Open(u8),
    /// Close the innermost open scope (no-op at the root).
    Close,
    /// Spin for a handful of microseconds so self time accrues.
    Work,
}

const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..5).prop_map(Step::Open),
        Just(Step::Close),
        Just(Step::Work),
    ]
}

fn spin() {
    let t = std::time::Instant::now();
    while t.elapsed().as_nanos() < 2_000 {
        std::hint::black_box(0u64);
    }
}

/// Executes a step program against a fresh telemetry handle, keeping an
/// explicit stack of live guards so Close pops in LIFO order.
fn execute(telemetry: &Telemetry, steps: &[Step]) {
    let mut stack: Vec<ProfScope> = Vec::new();
    for step in steps {
        match step {
            Step::Open(n) => {
                if stack.len() < 12 {
                    stack.push(telemetry.prof_scope(NAMES[*n as usize % NAMES.len()]));
                }
            }
            Step::Close => {
                stack.pop();
            }
            Step::Work => spin(),
        }
    }
    // Guards drop here in reverse order.
}

/// Checks the attribution invariant on a pre-order entry list (a node's
/// children are the following run of depth+1 entries): children are
/// genuine sub-intervals of the parent on one monotonic clock, so their
/// inclusive times sum to at most the parent's and self time is exactly
/// the remainder.
fn check_attribution(entries: &[ProfileEntry]) {
    for (i, e) in entries.iter().enumerate() {
        let mut child_sum = 0u64;
        for c in entries.iter().skip(i + 1) {
            if c.depth <= e.depth {
                break;
            }
            if c.depth == e.depth + 1 {
                child_sum += c.inclusive_ns;
            }
        }
        assert!(
            child_sum <= e.inclusive_ns,
            "children of {} sum to {child_sum}ns > parent inclusive {}ns",
            e.name,
            e.inclusive_ns
        );
        assert_eq!(
            e.self_ns,
            e.inclusive_ns - child_sum,
            "self time of {} is not the remainder",
            e.name
        );
        assert!(e.calls >= 1, "reported node {} never called", e.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_scope_programs_attribute_soundly(steps in prop::collection::vec(arb_step(), 1..60)) {
        let telemetry = Telemetry::quiet();
        execute(&telemetry, &steps);
        let report = telemetry.profile_report();
        if cfg!(feature = "profile") {
            check_attribution(&report.entries);
            // Ranked self time must total exactly the per-entry self times.
            let total: u64 = report.entries.iter().map(|e| e.self_ns).sum();
            let ranked: u64 = report.ranked_self_time().iter().map(|(_, ns)| *ns).sum();
            prop_assert_eq!(total, ranked);
        } else {
            prop_assert!(report.is_empty(), "compiled-out profiler must report nothing");
        }
    }

    #[test]
    fn panicking_subtrees_unwind_cleanly(depth in 1usize..6, survivor in 0u8..5) {
        let telemetry = Telemetry::quiet();
        let t2 = telemetry.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guards: Vec<ProfScope> = (0..depth)
                .map(|i| t2.prof_scope(NAMES[i % NAMES.len()]))
                .collect();
            spin();
            panic!("scope discipline under unwind");
        }));
        prop_assert!(result.is_err());
        // The panic closed every guard; new scopes must nest at the root,
        // and the report must still satisfy the soundness invariant.
        {
            let _root = telemetry.prof_scope(NAMES[survivor as usize % NAMES.len()]);
            spin();
        }
        let report = telemetry.profile_report();
        if cfg!(feature = "profile") {
            check_attribution(&report.entries);
            prop_assert!(
                report.entries.iter().any(|e| e.depth == 0),
                "post-panic scope must appear at the root"
            );
        } else {
            prop_assert!(report.is_empty());
        }
    }
}

#[test]
fn disabled_guard_is_zero_sized() {
    if !cfg!(feature = "profile") {
        assert_eq!(std::mem::size_of::<ProfScope>(), 0);
    }
}

#[test]
fn early_returns_close_scopes_in_order() {
    fn inner(telemetry: &Telemetry, bail: bool) -> u32 {
        let _s = telemetry.prof_scope("alpha");
        if bail {
            return 1; // _s drops here, mid-function
        }
        let _t = telemetry.prof_scope("beta");
        spin();
        2
    }
    let telemetry = Telemetry::quiet();
    inner(&telemetry, true);
    inner(&telemetry, false);
    let report = telemetry.profile_report();
    if cfg!(feature = "profile") {
        check_attribution(&report.entries);
        let alpha = report
            .entries
            .iter()
            .find(|e| e.name == "alpha")
            .expect("alpha recorded");
        assert_eq!(alpha.calls, 2, "both invocations hit the same node");
        assert!(
            report
                .entries
                .iter()
                .any(|e| e.name == "beta" && e.depth == 1),
            "beta nests under alpha"
        );
    } else {
        assert!(report.is_empty());
    }
}
