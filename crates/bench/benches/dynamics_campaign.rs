//! The path-dynamics observatory campaign: a long-horizon (default
//! 200-epoch) run over a synthetic deployment (default 80 ASes) with
//! injected link kills and latency scalings, exporting the ML-ready
//! JSONL dataset (`paths.jsonl` + `events.jsonl`), verifying seeded
//! byte-for-byte replay, and closing the loop by replaying the dataset
//! through `sciera_measure::adaptive`'s selection policies against the
//! static baseline. Emits `BENCH_dynamics.json` at the repo root.
//!
//! Environment overrides (all optional):
//! * `SCIERA_DYN_EPOCHS` — campaign length in epochs (default 200); CI
//!   uses a short smoke value.
//! * `SCIERA_DYN_ASES` — synthetic topology size (default 80).
//! * `SCIERA_DYN_PAIRS` — probed (src, dst) pairs (default 6).
//! * `SCIERA_DYN_OUT` — directory for the JSONL exports (default
//!   `target/dynamics/`).
//! * `SCIERA_DYN_BENCH_OUT` — output path for the JSON report.

use std::time::Instant;

use sciera_core::network::{NetworkConfig, SciEraNetwork};
use sciera_measure::adaptive::AdaptivePolicy;
use sciera_measure::dynamics::{
    replay_policies, run_campaign, DynamicsConfig, PolicyOutcome, SCHEMA_VERSION,
};
use sciera_topology::synth::{synthesize, SynthConfig};
use scion_proto::addr::IsdAsn;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Seeded pair selection: pairs with at least two live paths, so every
/// pair can actually fail over. Deterministic in the seed.
fn pick_pairs(net: &SciEraNetwork, want: usize, seed: u64) -> Vec<(IsdAsn, IsdAsn)> {
    let ases: Vec<IsdAsn> = net.secrets.keys().copied().collect();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut pairs = Vec::new();
    let mut attempts = 0usize;
    while pairs.len() < want && attempts < want * 400 {
        attempts += 1;
        let src = ases[(next() % ases.len() as u64) as usize];
        let dst = ases[(next() % ases.len() as u64) as usize];
        if src == dst || pairs.contains(&(src, dst)) {
            continue;
        }
        if net.paths(src, dst).len() >= 2 {
            pairs.push((src, dst));
        }
    }
    pairs
}

fn outcome_json(o: &PolicyOutcome) -> String {
    format!(
        "    {{\n      \"policy\": \"{}\", \"epochs\": {},\n      \"rtt_p50_ms\": {:.3}, \"rtt_p99_ms\": {:.3},\n      \"outage_epochs\": {}, \"failover_gaps\": {}, \"mean_gap_ms\": {:.0}, \"max_gap_ms\": {:.0},\n      \"switches\": {}\n    }}",
        o.policy,
        o.epochs,
        o.p50_ms,
        o.p99_ms,
        o.outage_epochs,
        o.failover_gaps,
        o.mean_gap_ms,
        o.max_gap_ms,
        o.switches,
    )
}

fn main() {
    let epochs = env_usize("SCIERA_DYN_EPOCHS", 200);
    let n_ases = env_usize("SCIERA_DYN_ASES", 80);
    let n_pairs = env_usize("SCIERA_DYN_PAIRS", 6);
    let cfg = DynamicsConfig {
        epochs,
        ..DynamicsConfig::default()
    };

    let build = |quiet: bool| {
        let t0 = Instant::now();
        let topo = synthesize(&SynthConfig::sized(n_ases));
        let net = SciEraNetwork::build_from_topology(topo, NetworkConfig::default());
        if !quiet {
            println!(
                "dynamics_campaign: built {n_ases}-AS deployment ({} links) in {:.1}s",
                net.link_count(),
                t0.elapsed().as_secs_f64()
            );
        }
        net
    };

    let mut net = build(false);
    let telemetry = net.telemetry();
    let pairs = pick_pairs(&net, n_pairs, cfg.seed);
    assert!(
        pairs.len() >= 2,
        "need at least two multi-path pairs, found {}",
        pairs.len()
    );

    let t0 = Instant::now();
    let dataset = run_campaign(&mut net, &pairs, &cfg, &telemetry);
    let campaign_secs = t0.elapsed().as_secs_f64();
    dataset
        .validate()
        .expect("exported dataset is schema-valid");
    let summary = dataset.summary();
    println!(
        "dynamics_campaign: {} epochs x {} pairs -> {} path records, {} churn records ({:.1} churn/epoch) in {:.1}s",
        summary.epochs,
        summary.pairs,
        summary.records,
        summary.churn_records,
        summary.churn_per_epoch,
        campaign_secs
    );

    // Seeded replay: a fresh identical network + the same config must
    // reproduce the dataset byte for byte.
    let mut net2 = build(true);
    let telemetry2 = net2.telemetry();
    let dataset2 = run_campaign(&mut net2, &pairs, &cfg, &telemetry2);
    let (paths_jsonl, events_jsonl) = dataset.export_jsonl(&telemetry);
    let (paths2, events2) = dataset2.export_jsonl(&telemetry2);
    assert_eq!(paths_jsonl, paths2, "paths.jsonl must replay byte-for-byte");
    assert_eq!(
        events_jsonl, events2,
        "events.jsonl must replay byte-for-byte"
    );
    println!(
        "dynamics_campaign: replay verified — {} + {} JSONL bytes byte-identical from seed {:#x}",
        paths_jsonl.len(),
        events_jsonl.len(),
        cfg.seed
    );

    let out_dir = std::env::var("SCIERA_DYN_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/dynamics").into());
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("[dynamics_campaign] could not create {out_dir}: {e}");
    }
    for (name, body) in [
        ("paths.jsonl", &paths_jsonl),
        ("events.jsonl", &events_jsonl),
    ] {
        let path = format!("{out_dir}/{name}");
        match std::fs::write(&path, body) {
            Ok(()) => println!("dynamics_campaign: wrote {path}"),
            Err(e) => eprintln!("[dynamics_campaign] could not write {path}: {e}"),
        }
    }

    // Closed loop: replay the dataset through the selection policies.
    let policies = [
        AdaptivePolicy::Static,
        AdaptivePolicy::latency_loss(),
        AdaptivePolicy::churn_aware(),
    ];
    let outcomes = replay_policies(&dataset, cfg.epoch_secs, &policies);
    let static_o = outcomes[0].clone();
    for o in &outcomes {
        println!(
            "dynamics_campaign: {:<12} p50 {:>7.2}ms  p99 {:>7.2}ms  outages {:>3} epochs ({} gaps, max {:.0}ms)  switches {}",
            o.policy, o.p50_ms, o.p99_ms, o.outage_epochs, o.failover_gaps, o.max_gap_ms, o.switches
        );
    }
    let beats =
        |o: &PolicyOutcome| o.p99_ms < static_o.p99_ms && o.outage_epochs < static_o.outage_epochs;
    let winners: Vec<String> = outcomes[1..]
        .iter()
        .filter(|o| beats(o))
        .map(|o| o.policy.clone())
        .collect();
    println!(
        "dynamics_campaign: adaptive beats static on p99 RTT + failover gap: {}",
        if winners.is_empty() {
            "NONE".to_string()
        } else {
            winners.join(", ")
        }
    );

    let lifetime_cdf = summary
        .lifetime_cdf
        .iter()
        .map(|(q, e)| format!("{{\"q\": {q:.1}, \"epochs\": {e}}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"dynamics_campaign\",\n  \"schema_version\": {},\n  \"n_ases\": {}, \"pairs\": {}, \"epochs\": {}, \"epoch_secs\": {}, \"seed\": {},\n  \"campaign_secs\": {:.2},\n  \"path_records\": {}, \"churn_records\": {}, \"appear\": {}, \"disappear\": {}, \"failover\": {},\n  \"churn_per_epoch\": {:.3}, \"mean_lifetime_epochs\": {:.2}, \"rtt_cv\": {:.4},\n  \"lifetime_cdf\": [{}],\n  \"replay_byte_identical\": true,\n  \"adaptive_beats_static\": [{}],\n  \"policies\": [\n{}\n  ]\n}}\n",
        SCHEMA_VERSION,
        n_ases,
        pairs.len(),
        epochs,
        cfg.epoch_secs,
        cfg.seed,
        campaign_secs,
        summary.records,
        summary.churn_records,
        summary.appear,
        summary.disappear,
        summary.failover,
        summary.churn_per_epoch,
        summary.mean_lifetime_epochs,
        summary.rtt_cv,
        lifetime_cdf,
        winners
            .iter()
            .map(|w| format!("\"{w}\""))
            .collect::<Vec<_>>()
            .join(", "),
        outcomes
            .iter()
            .map(outcome_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = std::env::var("SCIERA_DYN_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dynamics.json").into()
    });
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("[dynamics_campaign] could not write {path}: {e}");
    } else {
        println!("dynamics_campaign: wrote {path}");
    }
}
