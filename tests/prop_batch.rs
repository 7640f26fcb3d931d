//! `BorderRouter::process_batch` under a warm MAC cache: a batch is the
//! frame loop (see `tests/router_spec.rs`), and the cache state it meets
//! changes neither its verdicts nor the bytes it leaves.

use proptest::prelude::*;

mod spec;
use spec::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every frame class, batched at every transit station twice through
    /// the same router: the warm batch equals the cold one, and both equal
    /// the spec.
    #[test]
    fn warm_batches_match_cold_batches(
        elements in prop::collection::vec((0usize..10, any::<u16>(), 1u8..=255), 1..10),
        now_off in 0u64..40_000,
    ) {
        let now = TS as u64 + now_off;
        let (mut net, mut batched) = (Net::new(), Net::new());
        let mut frames: Vec<_> = elements.iter().map(build_frame).collect();
        for (at, ingress) in TRANSIT {
            let router = batched.routers.get_mut(at).unwrap();
            let (mut cold, mut warm) = (frames.clone(), frames.clone());
            let cold_verdicts = router.process_batch(&mut cold, ingress, now);
            let warm_verdicts = router.process_batch(&mut warm, ingress, now);
            prop_assert_eq!(&cold_verdicts, &warm_verdicts, "{}: verdicts", at);
            prop_assert_eq!(&cold, &warm, "{}: output bytes", at);
            let want: Vec<_> = frames.iter_mut().map(|f| net.step(at, f, ingress, now)).collect();
            let got: Vec<_> = cold_verdicts.into_iter().zip(&cold).map(|(v, f)| outcome(v, f)).collect();
            prop_assert_eq!(&got, &want, "{}", at);
            let mut forwarded = want.iter().map(|o| matches!(o, Outcome::Forward(..)));
            frames.retain(|_| forwarded.next().unwrap());
        }
    }
}
