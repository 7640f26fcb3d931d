//! Sim-time-aware observability for the SCIERA stack.
//!
//! The paper's evaluation (§5) is entirely observational — bootstrap latency,
//! RTT CDFs, path churn, outage timelines — and §4.4 makes continuous
//! monitoring an operational pillar. This crate is the runtime counterpart to
//! `netsim::metrics` (which aggregates *final* experiment samples): it gives
//! every component a cheap handle to
//!
//! * a [`MetricsRegistry`] of named atomic counters, gauges, and log-bucketed
//!   streaming histograms, safe for per-packet hot paths;
//! * structured tracing ([`Event`]) with a severity filter and a compile-out
//!   path (disable the `trace` feature);
//! * a bounded ring-buffer [`FlightRecorder`] that keeps the last N events and
//!   dumps JSONL for post-mortem of failed runs;
//! * span-style scoped timers ([`Span`]) keyed on simulation time (u64
//!   nanoseconds, the same clock as `netsim::SimTime`).
//!
//! The handle is `Clone` (an `Arc` internally), so a whole simulated network
//! shares one registry: identically named counters aggregate across
//! components, while events carry per-node identity.

#![forbid(unsafe_code)]

mod event;
pub mod export;
mod metrics;
pub mod profiler;
mod recorder;
mod snapshot;
pub mod spans;

pub use event::{Event, Severity};
pub use export::{counter_rates, prometheus_text, CounterRate};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profiler::{ProfScope, ProfileEntry, ProfileReport, Profiler};
pub use recorder::FlightRecorder;
pub use snapshot::{HistogramSnapshot, TelemetrySnapshot};
pub use spans::{hop_latencies, reconstruct_trace, validate_chain, TraceHop};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Severity filter value meaning "no events at all".
const SEVERITY_OFF: u8 = 5;

struct Inner {
    metrics: MetricsRegistry,
    recorder: FlightRecorder,
    min_severity: AtomicU8,
    trace_seq: AtomicU64,
    profiler: Profiler,
}

/// Shared observability handle: metrics registry + event tracing + flight
/// recorder behind one cheap `Clone`.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("events_recorded", &self.inner.recorder.recorded())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A handle with tracing enabled at `Info` and a 4096-event recorder.
    pub fn new() -> Self {
        Self::with_severity(Severity::Info)
    }

    /// A handle tracing everything from `min` up.
    pub fn with_severity(min: Severity) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                metrics: MetricsRegistry::new(),
                recorder: FlightRecorder::new(4096),
                min_severity: AtomicU8::new(min as u8),
                trace_seq: AtomicU64::new(0),
                profiler: Profiler::new(),
            }),
        }
    }

    /// A handle with event tracing off; metrics still record (atomic
    /// increments only). This is the default for benchmarks and for
    /// components constructed without explicit wiring.
    pub fn quiet() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                metrics: MetricsRegistry::new(),
                recorder: FlightRecorder::new(4096),
                min_severity: AtomicU8::new(SEVERITY_OFF),
                trace_seq: AtomicU64::new(0),
                profiler: Profiler::new(),
            }),
        }
    }

    /// Lowers/raises the runtime severity floor.
    pub fn set_min_severity(&self, min: Severity) {
        self.inner.min_severity.store(min as u8, Ordering::Relaxed);
    }

    /// Turns event tracing off entirely (metrics unaffected).
    pub fn disable_tracing(&self) {
        self.inner
            .min_severity
            .store(SEVERITY_OFF, Ordering::Relaxed);
    }

    /// Whether an event at `severity` would currently be recorded. Call this
    /// before building expensive messages/fields.
    #[inline]
    pub fn enabled(&self, severity: Severity) -> bool {
        cfg!(feature = "trace") && severity as u8 >= self.inner.min_severity.load(Ordering::Relaxed)
    }

    /// Records a structured event if tracing is enabled at its severity.
    /// With the `trace` feature off this compiles to a filter check that is
    /// always false.
    #[inline]
    pub fn emit(&self, event: Event) {
        if self.enabled(event.severity) {
            self.inner.recorder.push(event);
        }
    }

    /// Get-or-register a named monotonic counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.metrics.counter(name)
    }

    /// Get-or-register a named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.metrics.gauge(name)
    }

    /// Get-or-register a named log-bucketed streaming histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.metrics.histogram(name)
    }

    /// Starts a scoped timer at simulation time `start_ns`; durations land in
    /// the named histogram when [`Span::end`] is called.
    pub fn span(&self, name: &str, start_ns: u64) -> Span {
        Span {
            histogram: self.histogram(name),
            start_ns,
        }
    }

    /// Allocates the next trace id on this handle. Ids start at 1 (0 means
    /// "no parent" in the span chain) and are unique per network because the
    /// whole simulated network shares one telemetry handle.
    pub fn next_trace_id(&self) -> u64 {
        self.inner.trace_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Folds another handle's metrics into this one (counters add, gauges
    /// keep the high-water mark, histograms merge bucket-by-bucket). Events
    /// are not copied — the fleet view is a metrics aggregate.
    pub fn merge_from(&self, other: &Telemetry) {
        self.inner.metrics.merge_from(&other.inner.metrics);
    }

    /// Whether the `profile` feature is compiled in on this build.
    #[inline]
    pub fn profiling_enabled(&self) -> bool {
        cfg!(feature = "profile")
    }

    /// Enters a named profiler scope on the calling thread; the returned
    /// guard exits it on drop. With the `profile` feature off this is a
    /// zero-sized no-op.
    #[inline]
    #[must_use = "a profiler scope measures until it is dropped"]
    pub fn prof_scope(&self, name: &'static str) -> ProfScope {
        self.inner.profiler.scope(name)
    }

    /// The shared profiler (no-op with the `profile` feature off).
    pub fn profiler(&self) -> &Profiler {
        &self.inner.profiler
    }

    /// A flattening of the current profile tree (empty with `profile` off).
    pub fn profile_report(&self) -> ProfileReport {
        self.inner.profiler.report()
    }

    /// Clears the profile tree, e.g. between sweep phases.
    pub fn reset_profile(&self) {
        self.inner.profiler.reset();
    }

    /// Publishes the aggregate self-time table as `profile.self_ns.*` gauges
    /// so snapshots, the console and the Prometheus exposition carry it.
    pub fn publish_profile(&self) {
        self.inner.profiler.publish(&self.inner.metrics);
    }

    /// Restarts peak tracking on every registered gauge (see
    /// [`Gauge::reset_peak`]).
    pub fn reset_gauge_peaks(&self) {
        self.inner.metrics.reset_gauge_peaks();
    }

    /// The underlying metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The underlying flight recorder.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Point-in-time snapshot of every metric plus recorder statistics.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.inner.metrics.snapshot();
        snap.events_recorded = self.inner.recorder.recorded();
        snap.events_dropped = self.inner.recorder.dropped();
        snap.recorder_len = self.inner.recorder.len() as u64;
        snap.recorder_capacity = self.inner.recorder.capacity() as u64;
        snap
    }

    /// Dumps the flight recorder as JSONL (one event per line, oldest first).
    pub fn dump_flight_recorder(&self) -> String {
        self.inner.recorder.dump_jsonl()
    }
}

/// A scoped sim-time timer; finish with [`Span::end`] at the closing
/// simulation timestamp. Spans are plain values — they can be carried across
/// poll steps and ended on a later tick.
pub struct Span {
    histogram: Histogram,
    start_ns: u64,
}

impl Span {
    /// Records `end_ns - start_ns` (saturating) into the span's histogram.
    pub fn end(self, end_ns: u64) {
        self.histogram
            .record(end_ns.saturating_sub(self.start_ns) as f64);
    }

    /// The span's starting timestamp.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_across_clones() {
        let tele = Telemetry::new();
        let c1 = tele.counter("x");
        let c2 = tele.clone().counter("x");
        c1.inc();
        c2.add(4);
        assert_eq!(tele.counter("x").get(), 5);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn severity_filter_gates_events() {
        let tele = Telemetry::new(); // Info floor
        tele.emit(Event::new(1, "n1", "comp", Severity::Debug, "dropped"));
        tele.emit(Event::new(2, "n1", "comp", Severity::Warn, "kept"));
        let snap = tele.snapshot();
        assert_eq!(snap.events_recorded, 1);
        tele.set_min_severity(Severity::Trace);
        tele.emit(Event::new(3, "n1", "comp", Severity::Trace, "now kept"));
        assert_eq!(tele.snapshot().events_recorded, 2);
        tele.disable_tracing();
        tele.emit(Event::new(4, "n1", "comp", Severity::Error, "gone"));
        assert_eq!(tele.snapshot().events_recorded, 2);
    }

    #[test]
    fn span_records_duration() {
        let tele = Telemetry::new();
        let span = tele.span("phase", 1_000);
        span.end(4_000);
        let snap = tele.snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "phase").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.min <= 3_000.0 && 3_000.0 <= h.max * 1.1);
    }

    #[test]
    #[cfg(not(feature = "trace"))]
    fn trace_feature_off_compiles_events_out() {
        let tele = Telemetry::with_severity(Severity::Trace);
        assert!(!tele.enabled(Severity::Error));
        tele.emit(Event::new(1, "n", "comp", Severity::Error, "compiled out"));
        assert_eq!(tele.snapshot().events_recorded, 0);
    }

    #[test]
    fn quiet_handle_still_counts() {
        let tele = Telemetry::quiet();
        tele.counter("c").inc();
        tele.emit(Event::new(1, "n", "comp", Severity::Error, "suppressed"));
        let snap = tele.snapshot();
        assert_eq!(snap.events_recorded, 0);
        assert_eq!(snap.counters, vec![("c".to_string(), 1)]);
    }

    #[test]
    #[cfg(feature = "profile")]
    fn publish_profile_surfaces_self_time_gauges() {
        let tele = Telemetry::quiet();
        assert!(tele.profiling_enabled());
        {
            let _s = tele.prof_scope("beacon.run");
            let _v = tele.prof_scope("beacon.verify");
        }
        tele.publish_profile();
        let snap = tele.snapshot();
        let report = tele.profile_report();
        let verify = report.entries.iter().find(|e| e.name == "beacon.verify");
        let verify = verify.expect("the nested scope was recorded");
        assert_eq!(
            snap.gauge("profile.self_ns.beacon.verify"),
            Some(verify.self_ns)
        );
        assert!(snap.gauge("profile.self_ns.beacon.run").is_some());
        tele.reset_profile();
        assert!(tele.profile_report().is_empty());
    }

    #[test]
    #[cfg(not(feature = "profile"))]
    fn profile_feature_off_compiles_to_noops() {
        let tele = Telemetry::quiet();
        assert!(!tele.profiling_enabled());
        {
            let _s = tele.prof_scope("beacon.run");
            let _v = tele.prof_scope("beacon.verify");
        }
        tele.publish_profile();
        assert!(tele.profile_report().is_empty());
        assert!(tele
            .snapshot()
            .gauges
            .iter()
            .all(|(n, _)| !n.starts_with("profile.self_ns.")));
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let tele = Telemetry::new();
        let a = tele.next_trace_id();
        let b = tele.clone().next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn snapshot_surfaces_recorder_overflow() {
        let tele = Telemetry::with_severity(Severity::Trace);
        // Overflow the 4096-slot ring by one.
        for t in 0..4097u64 {
            tele.emit(Event::new(t, "n", "comp", Severity::Info, "e"));
        }
        let snap = tele.snapshot();
        assert_eq!(snap.events_dropped, 1);
        assert_eq!(snap.recorder_len, 4096);
        assert_eq!(snap.recorder_capacity, 4096);
        assert!(snap.render_table().contains("overflowed"));
    }
}
