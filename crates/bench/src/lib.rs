//! Shared helpers for the experiment harness.
//!
//! Each `[[bench]]` target regenerates one table or figure of the paper
//! (see the per-experiment index, DESIGN.md §3). Figure benches honour the
//! `SCIERA_FULL=1` environment variable to run the paper-scale campaign
//! (25 days at 60 s aggregation); the default is a scaled campaign that
//! preserves the shapes at a fraction of the wall-clock cost.

#![forbid(unsafe_code)]

use sciera_measure::campaign::{Campaign, CampaignConfig, MeasurementStore};
use sciera_telemetry::Telemetry;

/// Whether the operator asked for the full paper-scale run.
pub fn full_scale() -> bool {
    std::env::var("SCIERA_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The campaign configuration for figure benches.
pub fn bench_campaign_config() -> CampaignConfig {
    if full_scale() {
        CampaignConfig::default()
    } else {
        CampaignConfig {
            days: 8.0,
            round_secs: 120,
            probe_every_rounds: 5,
            candidates_per_origin: 32,
            max_paths: 300,
            with_incidents: true,
            seed: 71,
        }
    }
}

/// Runs (and announces) the shared measurement campaign.
pub fn run_campaign(label: &str) -> MeasurementStore {
    let config = bench_campaign_config();
    eprintln!(
        "[{label}] running the multiping campaign: {} days at {} s/round{} ...",
        config.days,
        config.round_secs,
        if full_scale() {
            " (SCIERA_FULL)"
        } else {
            " (set SCIERA_FULL=1 for paper scale)"
        }
    );
    let t0 = std::time::Instant::now();
    let telemetry = Telemetry::new();
    let mut campaign = Campaign::new(config);
    campaign.set_telemetry(telemetry.clone());
    let store = campaign.run();
    eprintln!(
        "[{label}] campaign done in {:.1} s: {} SCMP + {} ICMP pings over {} pairs",
        t0.elapsed().as_secs_f64(),
        store.scion_pings,
        store.ip_pings,
        store.pairs.len()
    );
    eprintln!("{}", campaign.telemetry_summary());
    store
}
