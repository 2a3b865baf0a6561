//! # perisec-telemetry — the fleet observability plane
//!
//! Every performance and privacy claim in this workspace is a *measured*
//! claim, and before this crate the measurements were scattered:
//! `TzStats` atomics in the machine model, a kernel-only function tracer,
//! per-experiment ad-hoc tables. This crate is the one substrate they
//! share:
//!
//! * [`span::Tracer`] — a **virtual-time span tracer**. Spans read the
//!   device's [`perisec_tz::time::SimClock`], so traces are deterministic
//!   and reproducible: the same scenario produces the same trace on any
//!   host, at any worker count. A disabled tracer is a `None` — creating
//!   a span is a single branch and no allocation.
//! * [`hist::LogHistogram`] — **bounded** power-of-two-bucket latency
//!   histograms: fixed memory per device regardless of how many events a
//!   scenario produces, and an elementwise (commutative, associative)
//!   merge so 10k+ device histograms fold into one fleet histogram in
//!   any completion order.
//! * [`fleet::FleetTelemetry`] — the order-invariant fleet fold of
//!   per-device [`fleet::DeviceTelemetry`] snapshots, plus its JSON
//!   export.
//! * [`export`] — chrome-trace (`chrome://tracing` / Perfetto) JSON for
//!   single-device deep dives and folded-stack flamegraph text.
//! * [`intern`](mod@intern) — the shared `&'static str` symbol table
//!   behind both the kernel function tracer's event names and dynamic
//!   telemetry labels.
//! * [`epoch`] + [`health`] — the **live fleet health plane**: fixed
//!   virtual-time epoch windows cut from each device's cumulative
//!   telemetry, per-span [`health::SloSpec`] objectives judged by a
//!   hysteresis state machine (Healthy → Degraded → Critical),
//!   deterministic anomaly detectors, and an append-only virtual-time
//!   alert journal — byte-identical at any worker count, like every
//!   other artifact here.

pub mod epoch;
pub mod export;
pub mod fleet;
pub mod health;
pub mod hist;
pub mod intern;
pub mod span;

pub use epoch::{EpochCutter, FleetEpochs};
pub use fleet::{DeviceTelemetry, FleetTelemetry};
pub use health::{
    Alert, AlertKind, DeviceHealthMonitor, FleetHealth, FleetHealthReport, HealthConfig,
    HealthMachine, HealthSink, HealthState, PressureMonitor, SloSpec,
};
pub use hist::LogHistogram;
pub use intern::{intern, Symbol};
pub use span::{Span, SpanEvent, Tracer};

/// Per-pipeline telemetry switchboard. Defaults to fully off: a default
/// config costs one branch per would-be span and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch: when false the tracer is a `None` and every span,
    /// counter and histogram call is a no-op.
    pub enabled: bool,
    /// Whether to retain individual span events (needed for chrome-trace
    /// and flamegraph export). Histograms and counters are always
    /// maintained while `enabled`; span retention is opt-in because it is
    /// the one part whose memory grows with scenario length — bounded by
    /// [`TelemetryConfig::max_span_events`].
    pub capture_spans: bool,
    /// Hard cap on retained span events; spans past the cap are counted
    /// as dropped, never stored.
    pub max_span_events: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            capture_spans: false,
            max_span_events: 1 << 16,
        }
    }
}

impl TelemetryConfig {
    /// Histograms and counters on, span retention off — the fleet
    /// configuration (fixed memory per device).
    pub fn metrics() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }

    /// Everything on, including span retention — the single-device
    /// deep-dive configuration behind chrome-trace dumps.
    pub fn tracing() -> Self {
        TelemetryConfig {
            enabled: true,
            capture_spans: true,
            ..TelemetryConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fully_off() {
        let config = TelemetryConfig::default();
        assert!(!config.enabled);
        assert!(!config.capture_spans);
        assert!(config.max_span_events > 0);
        assert!(TelemetryConfig::metrics().enabled);
        assert!(!TelemetryConfig::metrics().capture_spans);
        assert!(TelemetryConfig::tracing().capture_spans);
    }
}
