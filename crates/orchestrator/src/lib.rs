//! The SCION Orchestrator (§4.4).
//!
//! "A toolchain that cut SCION AS setup and management from days to a few
//! hours": configuration generation for new ASes, automated certificate
//! renewal, and the monitoring that watches every connected AS from
//! central infrastructure and alerts the affected operators when something
//! breaks.
//!
//! * [`setup`] — AS setup automation: from a minimal declaration (AS
//!   number, upstreams, hardware) to generated configuration artifacts and
//!   a task checklist with effort accounting.
//! * [`renewal`] — the certificate-renewal driver for the §4.5 short-lived
//!   AS certificates: polls expiry, builds CSRs, retries failures.
//! * [`effort`] — the deployment-effort model behind Fig. 3: base effort
//!   per connection type, coordination overhead per involved party,
//!   discounted by accumulated experience and by orchestrator automation.
//! * [`prober`] — the SCMP echo probing engine: periodic per-path echo
//!   campaigns recording RTT/loss per path and per interface.
//! * [`health`] — the one path-liveness engine: rolling RTT quantiles, loss
//!   and a typed liveness verdict per (src, dst, path), churn events when
//!   the healthy path set changes (Fig. 8's signal), and the §4.4 alerting
//!   as its rollup: one outage alert when no probed path reaches a
//!   destination AS any more, one recovery notice when one does again
//!   (`DESIGN.md` §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod effort;
pub mod health;
pub mod prober;
pub mod renewal;
pub mod setup;

pub use effort::{EffortModel, OnboardingEvent};
pub use health::{ChurnEvent, DownReason, HealthBoard, HealthRow, PathHealth};
pub use prober::{EchoOutcome, EchoTransport, PathProber, ProbeResult};
pub use renewal::RenewalDriver;
pub use setup::{AsDeclaration, SetupPlan};
