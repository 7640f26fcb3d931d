//! Structured trace events keyed on simulation time.

use serde::{Deserialize, Serialize};

/// Event severity, ordered from chattiest to most urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Per-packet / per-poll detail.
    Trace = 0,
    /// Per-operation detail (cache misses, filter verdicts).
    Debug = 1,
    /// Notable state changes (beacon rounds, bootstrap phases).
    Info = 2,
    /// Anomalies the run survives (MAC failures, drops).
    Warn = 3,
    /// Alerts and hard failures.
    Error = 4,
}

impl Severity {
    /// Short uppercase label for table/log rendering.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Trace => "TRACE",
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        }
    }
}

/// One structured trace event. `sim_time` is nanoseconds on the simulated
/// network's clock, not wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation timestamp in nanoseconds.
    pub sim_time: u64,
    /// Emitting node (AS identifier, host name, "world", ...).
    pub node: String,
    /// Emitting component ("router", "beacon", "daemon", ...).
    pub component: String,
    /// Severity level.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Structured key/value context.
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// Builds an event with no fields.
    pub fn new(
        sim_time: u64,
        node: impl Into<String>,
        component: impl Into<String>,
        severity: Severity,
        message: impl Into<String>,
    ) -> Self {
        Event {
            sim_time,
            node: node.into(),
            component: component.into(),
            severity,
            message: message.into(),
            fields: Vec::new(),
        }
    }

    /// Attaches a key/value field (builder style).
    pub fn field(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Trace < Severity::Debug);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn event_serde_roundtrip() {
        let e = Event::new(42, "71-100", "router", Severity::Warn, "bad mac")
            .field("ifid", 7)
            .field("reason", "BadMac");
        let json = serde_json::to_vec(&e).unwrap();
        let back: Event = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, e);
    }
}
