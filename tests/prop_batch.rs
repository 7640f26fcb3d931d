//! `BorderRouter::process_batch` twice through one router: a batch is the
//! frame loop (see `tests/router_spec.rs`), and a repeat changes neither its
//! verdicts, nor the bytes it leaves, nor the work it does.

use proptest::prelude::*;
use sciera::telemetry::work;

mod spec;
use spec::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every frame class, batched twice at every transit station by one
    /// router: the repeat equals the first batch, work included, and the spec.
    #[test]
    fn repeated_batches_match_the_first(
        elements in prop::collection::vec((0usize..10, any::<u16>(), 1u8..=255), 1..10),
        now_off in 0u64..40_000,
    ) {
        let now = TS as u64 + now_off;
        let (mut net, mut batched) = (Net::new(), Net::new());
        let mut frames: Vec<_> = elements.iter().map(build_frame).collect();
        for (at, ingress) in TRANSIT {
            let router = batched.routers.get_mut(at).unwrap();
            let (mut first, mut again) = (frames.clone(), frames.clone());
            let (first_verdicts, done) = work::counted(|| router.process_batch(&mut first, ingress, now));
            let (again_verdicts, redone) = work::counted(|| router.process_batch(&mut again, ingress, now));
            prop_assert_eq!(&first_verdicts, &again_verdicts, "{}: verdicts", at);
            prop_assert_eq!(&first, &again, "{}: output bytes", at);
            prop_assert_eq!(done, redone, "{}: work", at);
            let want: Vec<_> = frames.iter_mut().map(|f| net.step(at, f, ingress, now)).collect();
            let got: Vec<_> = first_verdicts.into_iter().zip(&first).map(|(v, f)| outcome(v, f)).collect();
            prop_assert_eq!(&got, &want, "{}", at);
            let mut forwarded = want.iter().map(|o| matches!(o, Outcome::Forward(..)));
            frames.retain(|_| forwarded.next().unwrap());
        }
    }
}
