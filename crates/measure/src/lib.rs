//! The SCIERA measurement campaign and experiment harness (§5).
//!
//! Reproduces the `scion-go-multiping` methodology of §5.4 over the
//! simulated deployment and computes every figure of the evaluation:
//!
//! * [`campaign`] — the measurement engine: per-interval SCMP pings over
//!   three SCION paths (shortest / fastest / most disjoint) plus ICMP over
//!   the BGP baseline, full path probes, the tool's hourly *stall*
//!   behaviour and the §5.4 exclusion rule, fault injection for the real
//!   incidents (KR–SG cable cut, BRIDGES instabilities, UFMS detour,
//!   January maintenance, new EU–US links).
//! * [`analysis`] — Fig. 5 (RTT CDFs), Fig. 6 (per-pair RTT-ratio CDF),
//!   Fig. 7 (ratio over time).
//! * [`paths`] — Fig. 8 (max active paths), Fig. 9 (median deviation),
//!   Fig. 10a (latency inflation), Fig. 10b (disjointness CDF).
//! * [`resilience`] — Fig. 10c (random link-failure sweep, multipath vs
//!   single path).
//! * [`bootstrapx`] — Fig. 4 (bootstrapping latency across OSes and hint
//!   mechanisms).
//! * [`survey`] — §5.6 operator survey: the synthetic respondent table and
//!   the aggregate statistics the paper reports.
//! * [`scale`] — the scale observatory: synthetic-topology sweeps
//!   (100 → 5000 ASes) through beaconing, the path database and the
//!   router data plane (the deployment's frame-load loop,
//!   `scion_dataplane::load`), with per-subsystem self-time attribution.
//! * [`slo`] — the concurrency SLO observatory: p50/p99 lookup latency
//!   under K concurrent clients while a writer runs link-kill storms
//!   against the epoch-snapshot path database.
//! * [`stats`] — exact-quantile sample summaries, the campaign's fixed-bin
//!   RTT histogram and rendered CDFs behind every figure.
//! * [`dynamics`] — the path-dynamics observatory: long-horizon campaigns
//!   with injected link-kill and cost-change events, an ML-ready JSONL
//!   time-series dataset (per-path epochs plus a churn stream), and
//!   closed-loop replay of adaptive selection policies against the
//!   static baseline.
//! * [`adaptive`] — those policies: a rolling per-path view folded from
//!   the dataset's epoch records, and the latency/loss-aware and
//!   churn-penalizing rankings replayed against the static baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analysis;
mod bed;
pub mod bootstrapx;
pub mod campaign;
pub mod dynamics;
pub mod paths;
pub mod resilience;
pub mod scale;
pub mod slo;
pub mod stats;
pub mod survey;

pub use campaign::{Campaign, CampaignConfig, MeasurementStore};
pub use dynamics::{
    replay_policies, run_campaign as run_dynamics_campaign, DynamicsConfig, DynamicsDataset,
    DynamicsNet, DynamicsSummary, PolicyOutcome,
};
