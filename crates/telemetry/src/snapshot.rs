//! Serializable point-in-time view of every metric, plus a text table
//! renderer for campaign/bench output.

use serde::{Deserialize, Serialize};

/// Summary of one histogram at snapshot time. Empty histograms report zeros
/// (not NaN/infinity) so the snapshot stays JSON-clean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Accepted samples.
    pub count: u64,
    /// Rejected (non-finite) samples.
    pub rejected: u64,
    /// Sum of accepted samples.
    pub sum: f64,
    /// Smallest accepted sample.
    pub min: f64,
    /// Largest accepted sample.
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th percentile estimate.
    pub p90: f64,
    /// 99th percentile estimate.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Mean of accepted samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything the registry knows at one instant. Serializable so measurement
/// campaigns can persist per-run metrics alongside figure output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Counter name/value pairs, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge name/value pairs, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Events accepted by the severity filter.
    pub events_recorded: u64,
    /// Events evicted from the flight-recorder ring. Non-zero means the
    /// post-mortem record is incomplete — older events were overwritten.
    pub events_dropped: u64,
    /// Events currently retained in the flight-recorder ring.
    pub recorder_len: u64,
    /// Flight-recorder ring capacity.
    pub recorder_capacity: u64,
}

impl TelemetrySnapshot {
    /// Value of a named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of a named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Summary of a named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders an aligned text table of all metrics for humans.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(10)
            .max(10);

        if !self.counters.is_empty() {
            out.push_str(&format!("{:<name_w$}  {:>12}\n", "counter", "value"));
            out.push_str(&format!("{:-<name_w$}  {:->12}\n", "", ""));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<name_w$}  {value:>12}\n"));
            }
            out.push('\n');
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("{:<name_w$}  {:>12}\n", "gauge", "value"));
            out.push_str(&format!("{:-<name_w$}  {:->12}\n", "", ""));
            for (name, value) in &self.gauges {
                out.push_str(&format!("{name:<name_w$}  {value:>12}\n"));
            }
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}\n",
                "histogram", "count", "mean", "p50", "p90", "p99"
            ));
            out.push_str(&format!(
                "{:-<name_w$}  {:->8}  {:->12}  {:->12}  {:->12}  {:->12}\n",
                "", "", "", "", "", ""
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<name_w$}  {:>8}  {:>12.1}  {:>12.1}  {:>12.1}  {:>12.1}\n",
                    h.name,
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p90,
                    h.p99
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "events: {} recorded, {} evicted from flight recorder (ring {}/{})\n",
            self.events_recorded, self.events_dropped, self.recorder_len, self.recorder_capacity
        ));
        if self.events_dropped > 0 {
            out.push_str(&format!(
                "warning: flight recorder overflowed; oldest {} events lost\n",
                self.events_dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![
                ("beacon.originated".into(), 12),
                ("router.forwarded".into(), 340),
            ],
            gauges: vec![("dispatcher.shard.depth".into(), 17)],
            histograms: vec![HistogramSnapshot {
                name: "bootstrap.phase.hint".into(),
                count: 4,
                rejected: 0,
                sum: 4000.0,
                min: 500.0,
                max: 2000.0,
                p50: 900.0,
                p90: 1900.0,
                p99: 2000.0,
            }],
            events_recorded: 9,
            events_dropped: 1,
            recorder_len: 8,
            recorder_capacity: 4096,
        }
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.counter("router.forwarded"), Some(340));
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.gauge("dispatcher.shard.depth"), Some(17));
        assert_eq!(s.histogram("bootstrap.phase.hint").unwrap().count, 4);
    }

    #[test]
    fn serde_roundtrip() {
        let s = sample();
        let json = serde_json::to_vec(&s).unwrap();
        let back: TelemetrySnapshot = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn table_mentions_every_metric() {
        let s = sample();
        let table = s.render_table();
        for needle in [
            "beacon.originated",
            "router.forwarded",
            "dispatcher.shard.depth",
            "bootstrap.phase.hint",
            "9 recorded",
            "ring 8/4096",
            "overflowed",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }
}
