//! End-to-end path-dynamics observatory run over the real deployment:
//! the full SCIERA network (PKI, beaconing, border routers) driven
//! through a short seeded campaign with injected faults, exported to
//! JSONL, validated, summarized, and replayed through the adaptive
//! selection policies.

use sciera::measure::adaptive::AdaptivePolicy;
use sciera::measure::dynamics::{replay_policies, run_campaign, DynamicsConfig, DynamicsDataset};
use sciera::prelude::*;

fn campaign_config() -> DynamicsConfig {
    DynamicsConfig {
        epochs: 8,
        kill_every: 3,
        kill_duration: 1,
        kill_pool: 2,
        latency_every: 4,
        latency_duration: 2,
        ..DynamicsConfig::default()
    }
}

fn run_once() -> (DynamicsDataset, String, String) {
    let mut net = SciEraNetwork::build(NetworkConfig::default());
    let telemetry = net.telemetry();
    let pairs = [
        (ia("71-225"), ia("71-2:0:3b")),
        (ia("71-2:0:42"), ia("71-225")),
    ];
    for (src, dst) in &pairs {
        assert!(
            net.paths(*src, *dst).len() >= 2,
            "{src}->{dst} needs at least two paths for failover"
        );
    }
    let dataset = run_campaign(&mut net, &pairs, &campaign_config(), &telemetry);
    let (paths_jsonl, events_jsonl) = dataset.export_jsonl(&telemetry);
    (dataset, paths_jsonl, events_jsonl)
}

#[test]
fn campaign_over_real_network_exports_and_replays() {
    let (dataset, paths_jsonl, events_jsonl) = run_once();
    dataset.validate().expect("dataset is schema-valid");
    assert!(!dataset.paths.is_empty(), "campaign produced no records");

    let summary = dataset.summary();
    assert_eq!(summary.epochs, 8);
    assert_eq!(summary.pairs, 2);
    assert!(summary.paths >= 4, "two multi-path pairs tracked");
    assert_eq!(
        summary.records,
        dataset.paths.len(),
        "summary counts every record"
    );

    // The exported JSONL parses back into an identical dataset.
    let parsed = DynamicsDataset::from_jsonl(dataset.seed, &paths_jsonl, &events_jsonl)
        .expect("exported JSONL parses");
    assert_eq!(parsed.paths, dataset.paths);
    assert_eq!(parsed.events, dataset.events);

    // Closed loop: all three policies replay over the dataset, covering
    // every (pair, epoch) cell.
    let outcomes = replay_policies(
        &dataset,
        campaign_config().epoch_secs,
        &[
            AdaptivePolicy::Static,
            AdaptivePolicy::latency_loss(),
            AdaptivePolicy::churn_aware(),
        ],
    );
    assert_eq!(outcomes.len(), 3);
    for o in &outcomes {
        assert_eq!(o.epochs, 16, "8 epochs x 2 pairs each");
        assert!(o.p50_ms > 0.0, "{} achieved no RTT", o.policy);
        assert!(o.p99_ms >= o.p50_ms);
    }
}

#[test]
fn campaign_over_real_network_is_deterministic() {
    let (_, paths_a, events_a) = run_once();
    let (_, paths_b, events_b) = run_once();
    assert_eq!(paths_a, paths_b, "paths.jsonl must replay byte-for-byte");
    assert_eq!(events_a, events_b, "events.jsonl must replay byte-for-byte");
}
