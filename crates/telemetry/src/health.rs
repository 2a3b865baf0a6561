//! The live fleet health plane: SLO objectives, per-device health state
//! machines, deterministic anomaly detectors, and the virtual-time alert
//! journal.
//!
//! Every verdict here is a pure function of the workload. Epoch deltas
//! are cut from each device's own virtual clock at its step boundaries
//! ([`EpochCutter`]); percentile estimates are deterministic
//! ([`LogHistogram::percentile`]); alert timestamps are epoch boundaries
//! of virtual time. So the entire health plane — states, alerts, the
//! journal's JSON bytes — is identical at any executor worker count,
//! under any steal interleaving, on any host. That is the property E19
//! gates in CI: injected degradation fires the *same alerts at the same
//! virtual instants* whether the fleet runs on 1 worker or 8.
//!
//! Two monitors share the machinery:
//!
//! * [`DeviceHealthMonitor`] — the fleet plane. Driven by a device's
//!   [`Tracer`] inside its executor task; cuts epochs, evaluates
//!   [`SloSpec`]s and anomaly detectors, feeds a shared [`HealthSink`].
//! * [`PressureMonitor`] — the control seam. Tracer-free, fed directly
//!   with per-utterance service observations inside a pipeline's batch
//!   step; its [`HealthState`] verdict is the SLO-pressure input of
//!   `AdaptiveBatcher`, closing the observability→control loop.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use serde::{value::Value, Serialize};

use perisec_tz::time::{SimDuration, SimInstant};

use crate::epoch::{EpochCutter, FleetEpochs};
use crate::fleet::DeviceTelemetry;
use crate::hist::LogHistogram;
use crate::span::Tracer;

/// One service-level objective over a named span series: "the
/// `percentile` of `span` must stay within `budget` every epoch".
///
/// The percentile is stored in milli-units (`990` = p99) so the spec
/// stays `Eq`/`Copy` and config structs keep their derives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// The span-name series the objective watches.
    pub span: &'static str,
    /// Target percentile in milli-units: 500 = p50, 990 = p99.
    pub percentile_milli: u32,
    /// The latency budget the percentile must not exceed.
    pub budget: SimDuration,
}

impl SloSpec {
    /// A p50 objective.
    pub fn p50(span: &'static str, budget: SimDuration) -> Self {
        SloSpec {
            span,
            percentile_milli: 500,
            budget,
        }
    }

    /// A p95 objective.
    pub fn p95(span: &'static str, budget: SimDuration) -> Self {
        SloSpec {
            span,
            percentile_milli: 950,
            budget,
        }
    }

    /// A p99 objective.
    pub fn p99(span: &'static str, budget: SimDuration) -> Self {
        SloSpec {
            span,
            percentile_milli: 990,
            budget,
        }
    }

    /// The percentile as the `q` argument of
    /// [`LogHistogram::percentile`].
    pub fn q(&self) -> f64 {
        self.percentile_milli as f64 / 1000.0
    }

    /// Human label, e.g. `p99` or `p99.9`.
    pub fn label(&self) -> String {
        if self.percentile_milli.is_multiple_of(10) {
            format!("p{}", self.percentile_milli / 10)
        } else {
            format!(
                "p{}.{}",
                self.percentile_milli / 10,
                self.percentile_milli % 10
            )
        }
    }
}

/// Device health, coarsest to finest trouble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthState {
    /// Meeting every objective.
    #[default]
    Healthy,
    /// Breaching objectives; service continues.
    Degraded,
    /// Sustained breach; intervention expected.
    Critical,
}

impl HealthState {
    /// Lowercase machine label.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "Healthy",
            HealthState::Degraded => "Degraded",
            HealthState::Critical => "Critical",
        })
    }
}

/// Health-plane configuration: the epoch window, the objectives, and the
/// detector/hysteresis knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthConfig {
    /// Virtual-time epoch window (must be non-zero).
    pub window: SimDuration,
    /// Objectives evaluated each epoch.
    pub slos: Vec<SloSpec>,
    /// Minimum recordings a series needs in an epoch before its
    /// percentile is judged (thin epochs stay un-judged, not breached).
    pub min_samples: u64,
    /// Breached epochs before Healthy demotes to Degraded.
    pub degraded_after: u32,
    /// Further breached epochs before Degraded demotes to Critical.
    pub critical_after: u32,
    /// Clean epochs before stepping one level back toward Healthy.
    pub healthy_after: u32,
    /// Epoch-over-epoch regression threshold in percent (300 = a 3x
    /// jump of a watched percentile fires an alert; 0 disables).
    pub regression_factor_pct: u32,
    /// Consecutive quiet epochs (after first activity) that count as a
    /// stall (0 disables).
    pub stall_epochs: u32,
    /// Whether any `relay.payload_bytes > 0` epoch is an anomaly — the
    /// privacy tripwire: a filtered fleet should relay verdicts, never
    /// raw audio payloads.
    pub expect_zero_payload: bool,
    /// Epoch `relay.retries` count at or above which a retry-storm alert
    /// fires (0 disables) — the fault-tolerance plane's signal that a
    /// device is burning its virtual time retransmitting into a lossy or
    /// dead network rather than making forward progress.
    pub retry_storm_threshold: u64,
    /// Epoch `ingest.backpressure` count at or above which a
    /// backpressure alert fires (0 disables) — queue saturation on the
    /// ingest path made visible in the health report rather than only as
    /// device-side retries.
    pub backpressure_threshold: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: SimDuration::from_secs(1),
            slos: Vec::new(),
            min_samples: 1,
            degraded_after: 1,
            critical_after: 3,
            healthy_after: 2,
            regression_factor_pct: 0,
            stall_epochs: 0,
            expect_zero_payload: false,
            retry_storm_threshold: 0,
            backpressure_threshold: 0,
        }
    }
}

impl HealthConfig {
    /// A config with the given epoch window and default knobs.
    pub fn with_window(window: SimDuration) -> Self {
        HealthConfig {
            window,
            ..HealthConfig::default()
        }
    }
}

/// The Healthy → Degraded → Critical state machine with hysteresis:
/// demotion needs a streak of breached epochs, recovery a streak of
/// clean ones, and recovery steps down one level at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthMachine {
    state: HealthState,
    breach_streak: u32,
    clean_streak: u32,
    degraded_after: u32,
    critical_after: u32,
    healthy_after: u32,
}

impl HealthMachine {
    /// A machine in `Healthy` with the config's hysteresis thresholds.
    pub fn new(config: &HealthConfig) -> Self {
        HealthMachine {
            state: HealthState::Healthy,
            breach_streak: 0,
            clean_streak: 0,
            degraded_after: config.degraded_after.max(1),
            critical_after: config.critical_after.max(1),
            healthy_after: config.healthy_after.max(1),
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Feeds one epoch verdict; returns `Some((from, to))` on a
    /// transition. Quiet epochs must *not* be fed — idleness freezes the
    /// streaks rather than counting as clean.
    pub fn step(&mut self, breached: bool) -> Option<(HealthState, HealthState)> {
        if breached {
            self.clean_streak = 0;
            self.breach_streak += 1;
            let next = match self.state {
                HealthState::Healthy if self.breach_streak >= self.degraded_after => {
                    HealthState::Degraded
                }
                HealthState::Degraded if self.breach_streak >= self.critical_after => {
                    HealthState::Critical
                }
                _ => return None,
            };
            self.breach_streak = 0;
            let from = self.state;
            self.state = next;
            Some((from, next))
        } else {
            self.breach_streak = 0;
            if self.state == HealthState::Healthy {
                return None;
            }
            self.clean_streak += 1;
            if self.clean_streak < self.healthy_after {
                return None;
            }
            self.clean_streak = 0;
            let from = self.state;
            self.state = match self.state {
                HealthState::Critical => HealthState::Degraded,
                _ => HealthState::Healthy,
            };
            Some((from, self.state))
        }
    }
}

/// What a journal entry reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// An epoch percentile exceeded its [`SloSpec`] budget.
    SloBreach,
    /// A watched percentile jumped epoch-over-epoch past the
    /// regression factor.
    LatencyRegression,
    /// A previously active device went quiet for the configured streak.
    DeviceStalled,
    /// `relay.payload_bytes` grew in a fleet expected to relay none.
    PayloadLeak,
    /// `relay.retries` crossed the configured per-epoch threshold — the
    /// device is retransmitting into a lossy or dead network.
    RetryStorm,
    /// Spans were dropped past the capture cap this epoch.
    DroppedSpanPressure,
    /// `ingest.backpressure` crossed the configured per-epoch threshold
    /// — the ingest path is refusing records faster than the device can
    /// drain them.
    Backpressure,
    /// An ingest shard entered a crash window (chaos schedule or
    /// observed outage).
    ShardDown,
    /// An ingest shard came back from a crash window.
    ShardRecovered,
    /// The health state machine transitioned.
    StateChange {
        /// State before the transition.
        from: HealthState,
        /// State after the transition.
        to: HealthState,
    },
}

impl AlertKind {
    /// Machine label for exports.
    pub fn label(&self) -> &'static str {
        match self {
            AlertKind::SloBreach => "slo_breach",
            AlertKind::LatencyRegression => "latency_regression",
            AlertKind::DeviceStalled => "device_stalled",
            AlertKind::PayloadLeak => "payload_leak",
            AlertKind::RetryStorm => "retry_storm",
            AlertKind::DroppedSpanPressure => "dropped_span_pressure",
            AlertKind::Backpressure => "backpressure",
            AlertKind::ShardDown => "shard_down",
            AlertKind::ShardRecovered => "shard_recovered",
            AlertKind::StateChange { .. } => "state_change",
        }
    }
}

/// One append-only journal entry, timestamped in virtual time (the end
/// boundary of the epoch that produced it — deterministic at any worker
/// count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Device that raised the alert.
    pub device: usize,
    /// Epoch index the verdict covers.
    pub epoch: u64,
    /// Virtual instant of the epoch's end boundary.
    pub at: SimInstant,
    /// What happened.
    pub kind: AlertKind,
    /// The span series involved, for SLO/regression alerts.
    pub span: Option<&'static str>,
    /// Deterministic human detail (built only from virtual-time
    /// quantities).
    pub detail: String,
}

impl Serialize for Alert {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("device".to_owned(), Value::UInt(self.device as u128)),
            ("epoch".to_owned(), Value::UInt(self.epoch as u128)),
            ("at_ns".to_owned(), Value::UInt(self.at.as_nanos() as u128)),
            ("kind".to_owned(), Value::Str(self.kind.label().to_owned())),
        ];
        if let AlertKind::StateChange { from, to } = self.kind {
            fields.push(("from".to_owned(), Value::Str(from.label().to_owned())));
            fields.push(("to".to_owned(), Value::Str(to.label().to_owned())));
        }
        if let Some(span) = self.span {
            fields.push(("span".to_owned(), Value::Str(span.to_owned())));
        }
        fields.push(("detail".to_owned(), Value::Str(self.detail.clone())));
        Value::Object(fields)
    }
}

/// The shared fleet-health accumulator device monitors feed. Folding is
/// commutative (epoch slices key on epoch index, device records on
/// device id), so completion order and worker count cannot show.
pub type HealthSink = Arc<Mutex<FleetHealth>>;

/// Fleet-wide health accumulation: per-epoch telemetry slices, final
/// per-device states, and the raw (not yet sorted) alert stream.
#[derive(Debug, Clone, Default)]
pub struct FleetHealth {
    window: SimDuration,
    epochs: FleetEpochs,
    final_states: BTreeMap<usize, HealthState>,
    alerts: Vec<Alert>,
}

impl FleetHealth {
    /// An empty accumulator for the given epoch window.
    pub fn new(window: SimDuration) -> Self {
        FleetHealth {
            window,
            ..FleetHealth::default()
        }
    }

    /// A shareable sink over an empty accumulator.
    pub fn sink(window: SimDuration) -> HealthSink {
        Arc::new(Mutex::new(FleetHealth::new(window)))
    }

    fn absorb_epoch(&mut self, epoch: u64, device: usize, delta: &DeviceTelemetry) {
        self.epochs.absorb(epoch, device, delta);
    }

    fn complete_device(&mut self, device: usize, state: HealthState, alerts: Vec<Alert>) {
        self.final_states.insert(device, state);
        self.alerts.extend(alerts);
    }

    /// Judges a device's whole-run telemetry as one epoch ending at
    /// [`SimInstant::EPOCH`], through the same detectors and state
    /// machine as a [`DeviceHealthMonitor`], and records the verdict —
    /// the entry point of planes that cut no epochs of their own (the
    /// sharded ingest plane's sessions).
    pub fn judge_run(&mut self, config: &HealthConfig, device: usize, telemetry: &DeviceTelemetry) {
        self.absorb_epoch(0, device, telemetry);
        let mut detectors = Detectors::new(config);
        let mut alerts = Vec::new();
        detectors.evaluate(config, device, 0, SimInstant::EPOCH, telemetry, &mut alerts);
        self.complete_device(device, detectors.machine.state(), alerts);
    }

    /// Records a device's final state and its alert journal — the
    /// external counterpart of the monitor-driven completion path.
    pub fn finish_device(&mut self, device: usize, state: HealthState, alerts: Vec<Alert>) {
        self.complete_device(device, state, alerts);
    }

    /// Assembles the deterministic report: the journal sorts by
    /// `(epoch, device)` — stable, so each device's in-epoch alert order
    /// (its deterministic generation order) is preserved.
    pub fn report(&self) -> FleetHealthReport {
        let mut alerts = self.alerts.clone();
        alerts.sort_by_key(|a| (a.epoch, a.device));
        let count = |s: HealthState| self.final_states.values().filter(|&&v| v == s).count() as u64;
        FleetHealthReport {
            window: self.window,
            devices: self.final_states.len() as u64,
            healthy: count(HealthState::Healthy),
            degraded: count(HealthState::Degraded),
            critical: count(HealthState::Critical),
            epochs: self.epochs.clone(),
            alerts,
        }
    }
}

/// The end-of-run health report: state census, per-epoch fleet slices,
/// and the sorted virtual-time alert journal. Byte-identical across
/// worker counts, like `FleetReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealthReport {
    /// Epoch window the plane ran with.
    pub window: SimDuration,
    /// Devices monitored.
    pub devices: u64,
    /// Devices that finished Healthy.
    pub healthy: u64,
    /// Devices that finished Degraded.
    pub degraded: u64,
    /// Devices that finished Critical.
    pub critical: u64,
    /// Per-epoch fleet telemetry slices.
    pub epochs: FleetEpochs,
    /// The alert journal, sorted by `(epoch, device)`.
    pub alerts: Vec<Alert>,
}

impl FleetHealthReport {
    /// Alerts that transitioned a device *into* `state`.
    pub fn transitions_to(&self, state: HealthState) -> usize {
        self.alerts
            .iter()
            .filter(|a| matches!(a.kind, AlertKind::StateChange { to, .. } if to == state))
            .count()
    }

    /// Alerts of one kind (by label, so `StateChange` variants collapse).
    pub fn alerts_of(&self, label: &str) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.kind.label() == label)
            .count()
    }

    /// The alert journal alone as pretty JSON — the byte-identity
    /// artifact E19 compares across worker counts.
    pub fn alert_journal_json(&self) -> String {
        let entries = Value::Array(self.alerts.iter().map(Serialize::to_value).collect());
        serde_json::to_string_pretty(&entries).expect("alert journal is serializable")
    }

    /// The full report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("health report is serializable")
    }

    /// The human table: state census, per-epoch activity, then the
    /// journal.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Fleet health: {} devices — {} healthy, {} degraded, {} critical \
             (epoch window {} µs)",
            self.devices,
            self.healthy,
            self.degraded,
            self.critical,
            self.window.as_micros()
        );
        let _ = writeln!(out, "| epoch | active devices | spans | alerts |");
        let _ = writeln!(out, "|---|---|---|---|");
        for (epoch, slice) in self.epochs.iter() {
            let spans: u64 = slice.histograms.values().map(LogHistogram::count).sum();
            let alerts = self.alerts.iter().filter(|a| a.epoch == epoch).count();
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                epoch, slice.devices, spans, alerts
            );
        }
        if self.alerts.is_empty() {
            let _ = writeln!(out, "Alert journal: empty");
        } else {
            let _ = writeln!(out, "Alert journal ({} entries):", self.alerts.len());
            for alert in &self.alerts {
                let span = alert.span.map(|s| format!(" [{s}]")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  epoch {:>3} @ {:>12} ns  device {:>5}  {}{}: {}",
                    alert.epoch,
                    alert.at.as_nanos(),
                    alert.device,
                    alert.kind.label(),
                    span,
                    alert.detail
                );
            }
        }
        out
    }
}

impl Serialize for FleetHealthReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "window_ns".to_owned(),
                Value::UInt(self.window.as_nanos() as u128),
            ),
            ("devices".to_owned(), Value::UInt(self.devices as u128)),
            (
                "states".to_owned(),
                Value::Object(vec![
                    ("healthy".to_owned(), Value::UInt(self.healthy as u128)),
                    ("degraded".to_owned(), Value::UInt(self.degraded as u128)),
                    ("critical".to_owned(), Value::UInt(self.critical as u128)),
                ]),
            ),
            (
                "alerts".to_owned(),
                Value::Array(self.alerts.iter().map(Serialize::to_value).collect()),
            ),
            ("epochs".to_owned(), self.epochs.to_value()),
        ])
    }
}

/// Detector state shared by one device's epochs: the state machine,
/// last-seen percentiles (for the regression detector), and the stall
/// streak.
#[derive(Debug, Clone)]
struct Detectors {
    machine: HealthMachine,
    prev_percentile: BTreeMap<&'static str, u64>,
    stall_streak: u32,
    seen_activity: bool,
}

impl Detectors {
    fn new(config: &HealthConfig) -> Self {
        Detectors {
            machine: HealthMachine::new(config),
            prev_percentile: BTreeMap::new(),
            stall_streak: 0,
            seen_activity: false,
        }
    }

    /// Evaluates one completed epoch delta, appending alerts. Quiet
    /// epochs only feed the stall detector; everything else freezes.
    fn evaluate(
        &mut self,
        config: &HealthConfig,
        device: usize,
        epoch: u64,
        at: SimInstant,
        delta: &DeviceTelemetry,
        alerts: &mut Vec<Alert>,
    ) {
        if delta.is_quiet() {
            if self.seen_activity && config.stall_epochs > 0 {
                self.stall_streak += 1;
                if self.stall_streak == config.stall_epochs {
                    alerts.push(Alert {
                        device,
                        epoch,
                        at,
                        kind: AlertKind::DeviceStalled,
                        span: None,
                        detail: format!(
                            "no activity for {} consecutive epochs",
                            config.stall_epochs
                        ),
                    });
                }
            }
            return;
        }
        self.seen_activity = true;
        self.stall_streak = 0;

        let mut breached = false;
        for spec in &config.slos {
            let Some(histogram) = delta.histograms.get(spec.span) else {
                continue;
            };
            if histogram.count() < config.min_samples {
                continue;
            }
            let p = histogram.percentile(spec.q()).as_nanos();
            if p > spec.budget.as_nanos() {
                breached = true;
                alerts.push(Alert {
                    device,
                    epoch,
                    at,
                    kind: AlertKind::SloBreach,
                    span: Some(spec.span),
                    detail: format!(
                        "{} {} ns over budget {} ns",
                        spec.label(),
                        p,
                        spec.budget.as_nanos()
                    ),
                });
            }
            if config.regression_factor_pct > 0 {
                if let Some(&prev) = self.prev_percentile.get(spec.span) {
                    if prev > 0
                        && p.saturating_mul(100)
                            > prev.saturating_mul(config.regression_factor_pct as u64)
                    {
                        alerts.push(Alert {
                            device,
                            epoch,
                            at,
                            kind: AlertKind::LatencyRegression,
                            span: Some(spec.span),
                            detail: format!(
                                "{} regressed {} ns -> {} ns (> {}%)",
                                spec.label(),
                                prev,
                                p,
                                config.regression_factor_pct
                            ),
                        });
                    }
                }
            }
            self.prev_percentile.insert(spec.span, p);
        }

        if config.expect_zero_payload {
            if let Some(&bytes) = delta.counters.get("relay.payload_bytes") {
                if bytes > 0 {
                    alerts.push(Alert {
                        device,
                        epoch,
                        at,
                        kind: AlertKind::PayloadLeak,
                        span: None,
                        detail: format!("{bytes} payload bytes crossed the relay"),
                    });
                }
            }
        }
        if config.retry_storm_threshold > 0 {
            if let Some(&retries) = delta.counters.get("relay.retries") {
                if retries >= config.retry_storm_threshold {
                    alerts.push(Alert {
                        device,
                        epoch,
                        at,
                        kind: AlertKind::RetryStorm,
                        span: None,
                        detail: format!(
                            "{retries} relay retransmissions in one epoch (threshold {})",
                            config.retry_storm_threshold
                        ),
                    });
                }
            }
        }
        if config.backpressure_threshold > 0 {
            if let Some(&rejections) = delta.counters.get("ingest.backpressure") {
                if rejections >= config.backpressure_threshold {
                    alerts.push(Alert {
                        device,
                        epoch,
                        at,
                        kind: AlertKind::Backpressure,
                        span: None,
                        detail: format!(
                            "{rejections} ingest backpressure rejections in one epoch (threshold {})",
                            config.backpressure_threshold
                        ),
                    });
                }
            }
        }
        if delta.dropped_spans > 0 {
            alerts.push(Alert {
                device,
                epoch,
                at,
                kind: AlertKind::DroppedSpanPressure,
                span: None,
                detail: format!("{} spans dropped past the capture cap", delta.dropped_spans),
            });
        }
        if let Some((from, to)) = self.machine.step(breached) {
            alerts.push(Alert {
                device,
                epoch,
                at,
                kind: AlertKind::StateChange { from, to },
                span: None,
                detail: format!("{from} -> {to}"),
            });
        }
    }
}

/// The per-device health monitor the fleet executor drives: cut epochs
/// at step boundaries, evaluate them, feed the shared sink.
#[derive(Debug, Clone)]
pub struct DeviceHealthMonitor {
    device: usize,
    config: HealthConfig,
    cutter: EpochCutter,
    detectors: Detectors,
    alerts: Vec<Alert>,
    sink: HealthSink,
}

impl DeviceHealthMonitor {
    /// A monitor for `device`, reporting into `sink`.
    pub fn new(device: usize, config: HealthConfig, sink: HealthSink) -> Self {
        DeviceHealthMonitor {
            device,
            cutter: EpochCutter::new(config.window),
            detectors: Detectors::new(&config),
            config,
            alerts: Vec::new(),
            sink,
        }
    }

    /// Current health state.
    pub fn state(&self) -> HealthState {
        self.detectors.machine.state()
    }

    /// Cuts and evaluates every epoch completed by virtual instant
    /// `now` — called at each device step boundary.
    pub fn advance(&mut self, now: SimInstant, tracer: &Tracer) {
        while let Some(epoch) = self.cutter.cut_next(now, tracer) {
            let at = self.cutter.epoch_end(epoch);
            let delta = self.cutter.last_delta();
            self.detectors.evaluate(
                &self.config,
                self.device,
                epoch,
                at,
                delta,
                &mut self.alerts,
            );
            if !delta.is_quiet() {
                self.sink.lock().absorb_epoch(epoch, self.device, delta);
            }
        }
    }

    /// Final cut at end of run: the trailing partial epoch folds into
    /// the slices (un-judged — a partial window is not a fair SLO
    /// sample), then the device's record lands in the sink.
    pub fn finish(mut self, now: SimInstant, tracer: &Tracer) {
        self.advance(now, tracer);
        let trailing = self.cutter.cut_trailing(tracer);
        let mut sink = self.sink.lock();
        if let Some(epoch) = trailing {
            sink.absorb_epoch(epoch, self.device, self.cutter.last_delta());
        }
        sink.complete_device(
            self.device,
            self.detectors.machine.state(),
            std::mem::take(&mut self.alerts),
        );
    }
}

/// The tracer-free pressure verdict feeding `AdaptiveBatcher`: a single
/// series (per-utterance service time, observed directly in the batch
/// step), cut on the same virtual-window discipline, judged by the same
/// hysteresis machine. Epoch attribution matches [`EpochCutter`]: the
/// first completed epoch absorbs pending observations; idle windows
/// freeze the streaks.
#[derive(Debug, Clone)]
pub struct PressureMonitor {
    spec: SloSpec,
    window: SimDuration,
    min_samples: u64,
    next_epoch: u64,
    current: LogHistogram,
    machine: HealthMachine,
}

impl PressureMonitor {
    /// Window length of [`PressureMonitor::for_spec`], in multiples of
    /// the spec's own budget: long enough for a stable percentile, short
    /// enough that pressure reacts within tens of windows.
    pub const BUDGETS_PER_WINDOW: u64 = 32;

    /// A monitor whose window derives deterministically from the spec's
    /// budget (`budget ×` [`PressureMonitor::BUDGETS_PER_WINDOW`]) — the
    /// one-knob constructor config structs use.
    pub fn for_spec(spec: SloSpec) -> Self {
        PressureMonitor::new(spec, spec.budget * Self::BUDGETS_PER_WINDOW)
    }

    /// A monitor judging `spec` over fixed virtual `window`s, with
    /// default hysteresis.
    pub fn new(spec: SloSpec, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "pressure window must be non-zero");
        let config = HealthConfig::default();
        PressureMonitor {
            spec,
            window,
            min_samples: config.min_samples,
            next_epoch: 0,
            current: LogHistogram::new(),
            machine: HealthMachine::new(&config),
        }
    }

    /// Records one service observation into the open window.
    pub fn observe(&mut self, duration: SimDuration) {
        self.current.record(duration);
    }

    /// Closes any window completed by `now` and returns the (possibly
    /// updated) verdict.
    pub fn advance(&mut self, now: SimInstant) -> HealthState {
        let current_epoch =
            now.duration_since(SimInstant::EPOCH).as_nanos() / self.window.as_nanos();
        if current_epoch > self.next_epoch {
            if !self.current.is_empty() {
                let breached = self.current.count() >= self.min_samples
                    && self.current.percentile(self.spec.q()).as_nanos()
                        > self.spec.budget.as_nanos();
                self.machine.step(breached);
                self.current = LogHistogram::new();
            }
            self.next_epoch = current_epoch;
        }
        self.machine.state()
    }

    /// Current verdict without advancing.
    pub fn state(&self) -> HealthState {
        self.machine.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;
    use perisec_tz::time::SimClock;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn machine_hysteresis_demotes_and_recovers_one_level_at_a_time() {
        let config = HealthConfig {
            degraded_after: 2,
            critical_after: 2,
            healthy_after: 2,
            ..HealthConfig::default()
        };
        let mut machine = HealthMachine::new(&config);
        assert_eq!(machine.step(true), None, "one breach is not a streak");
        assert_eq!(
            machine.step(true),
            Some((HealthState::Healthy, HealthState::Degraded))
        );
        assert_eq!(machine.step(true), None);
        assert_eq!(
            machine.step(true),
            Some((HealthState::Degraded, HealthState::Critical))
        );
        assert_eq!(machine.step(true), None, "Critical is terminal downward");
        // A single clean epoch between breaches resets the breach streak.
        assert_eq!(machine.step(false), None);
        assert_eq!(
            machine.step(false),
            Some((HealthState::Critical, HealthState::Degraded))
        );
        assert_eq!(machine.step(false), None);
        assert_eq!(
            machine.step(false),
            Some((HealthState::Degraded, HealthState::Healthy))
        );
        assert_eq!(machine.step(false), None);
        assert_eq!(machine.state(), HealthState::Healthy);
    }

    fn monitored_device(
        device: usize,
        sink: &HealthSink,
        config: &HealthConfig,
        slow_epochs: std::ops::Range<u64>,
    ) {
        let clock = SimClock::new();
        let tracer = Tracer::new(clock.clone(), &TelemetryConfig::metrics());
        let mut monitor = DeviceHealthMonitor::new(device, config.clone(), sink.clone());
        // 12 epochs of 1 ms, four spans each; "slow" epochs run 1.5x over
        // the 100 µs budget.
        for epoch in 0..12u64 {
            for _ in 0..4 {
                let cost = if slow_epochs.contains(&epoch) {
                    150
                } else {
                    50
                };
                {
                    let _span = tracer.span("stage.filter");
                    clock.advance(us(cost));
                }
                monitor.advance(clock.now(), &tracer);
            }
            clock.advance_to(SimInstant::EPOCH + SimDuration::from_millis(epoch + 1));
            monitor.advance(clock.now(), &tracer);
        }
        monitor.finish(clock.now(), &tracer);
    }

    #[test]
    fn monitors_fire_deterministic_alerts_and_fold_into_the_sink() {
        let config = HealthConfig {
            window: SimDuration::from_millis(1),
            slos: vec![SloSpec::p99("stage.filter", us(100))],
            degraded_after: 2,
            healthy_after: 2,
            regression_factor_pct: 250,
            ..HealthConfig::default()
        };
        let run = || {
            let sink = FleetHealth::sink(config.window);
            // Device 1 degrades in epochs 4..8; device 0 stays healthy.
            monitored_device(0, &sink, &config, 0..0);
            monitored_device(1, &sink, &config, 4..8);
            let fleet = sink.lock();
            fleet.report()
        };
        let report = run();
        assert_eq!(report.devices, 2);
        assert_eq!(report.healthy, 2, "device 1 recovered by end of run");
        // Breaches in every slow epoch, one Degraded transition after the
        // two-epoch streak, one regression on the 50->150 µs jump, and a
        // recovery transition after two clean epochs.
        assert_eq!(report.alerts_of("slo_breach"), 4);
        assert_eq!(report.transitions_to(HealthState::Degraded), 1);
        assert_eq!(report.alerts_of("latency_regression"), 1);
        assert_eq!(report.transitions_to(HealthState::Healthy), 1);
        assert!(
            report.alerts.iter().all(|a| a.device == 1),
            "device 0 raised nothing"
        );
        // Alert instants are epoch boundaries of virtual time.
        for alert in &report.alerts {
            assert_eq!(
                alert.at,
                SimInstant::EPOCH + config.window * (alert.epoch + 1)
            );
        }
        // Epoch slices saw both devices.
        assert_eq!(report.epochs.slice(0).unwrap().devices, 2);
        // The whole plane is a pure function of the workload: a second
        // run (device order swapped by the closure) is byte-identical.
        let again = run();
        assert_eq!(report.alert_journal_json(), again.alert_journal_json());
        assert_eq!(report.to_json(), again.to_json());
        assert!(report.to_table().contains("state_change"));
    }

    #[test]
    fn stall_and_payload_detectors_fire() {
        let config = HealthConfig {
            window: SimDuration::from_millis(1),
            stall_epochs: 3,
            expect_zero_payload: true,
            ..HealthConfig::default()
        };
        let sink = FleetHealth::sink(config.window);
        let clock = SimClock::new();
        let tracer = Tracer::new(clock.clone(), &TelemetryConfig::metrics());
        let mut monitor = DeviceHealthMonitor::new(7, config.clone(), sink.clone());
        // One active epoch that also leaks payload bytes...
        tracer.count("relay.payload_bytes", 2048);
        clock.advance(SimDuration::from_millis(1));
        monitor.advance(clock.now(), &tracer);
        // ...then silence for five epochs.
        clock.advance(SimDuration::from_millis(5));
        monitor.advance(clock.now(), &tracer);
        monitor.finish(clock.now(), &tracer);
        let report = sink.lock().report();
        assert_eq!(report.alerts_of("payload_leak"), 1);
        assert_eq!(
            report.alerts_of("device_stalled"),
            1,
            "fires once, at the streak"
        );
        assert_eq!(report.healthy, 1, "anomalies alert without demoting");
    }

    #[test]
    fn retry_storm_detector_fires_on_threshold() {
        let config = HealthConfig {
            window: SimDuration::from_millis(1),
            retry_storm_threshold: 10,
            ..HealthConfig::default()
        };
        let sink = FleetHealth::sink(config.window);
        let clock = SimClock::new();
        let tracer = Tracer::new(clock.clone(), &TelemetryConfig::metrics());
        let mut monitor = DeviceHealthMonitor::new(3, config.clone(), sink.clone());
        // Epoch 0: a handful of retries, below the threshold.
        tracer.count("relay.retries", 9);
        clock.advance(SimDuration::from_millis(1));
        monitor.advance(clock.now(), &tracer);
        // Epoch 1: a storm.
        tracer.count("relay.retries", 10);
        clock.advance(SimDuration::from_millis(1));
        monitor.advance(clock.now(), &tracer);
        monitor.finish(clock.now(), &tracer);
        let report = sink.lock().report();
        assert_eq!(report.alerts_of("retry_storm"), 1);
        let storm = report
            .alerts
            .iter()
            .find(|a| a.kind.label() == "retry_storm")
            .unwrap();
        assert_eq!(storm.epoch, 1);
        assert!(storm.detail.contains("10 relay retransmissions"));
        assert_eq!(report.healthy, 1, "a storm alerts without demoting");
    }

    #[test]
    fn pressure_monitor_tracks_windowed_breaches() {
        let spec = SloSpec::p95("service", us(100));
        // The derived window is a pure function of the spec's budget.
        assert_eq!(
            PressureMonitor::for_spec(spec).window,
            us(100) * PressureMonitor::BUDGETS_PER_WINDOW
        );
        let mut monitor = PressureMonitor::new(spec, SimDuration::from_millis(1));
        let clock = SimClock::new();
        // Healthy window.
        for _ in 0..8 {
            monitor.observe(us(40));
        }
        clock.advance(SimDuration::from_millis(1));
        assert_eq!(monitor.advance(clock.now()), HealthState::Healthy);
        // Breaching window demotes (degraded_after defaults to 1).
        for _ in 0..8 {
            monitor.observe(us(400));
        }
        clock.advance(SimDuration::from_millis(1));
        assert_eq!(monitor.advance(clock.now()), HealthState::Degraded);
        // Idle windows freeze the verdict rather than healing it.
        clock.advance(SimDuration::from_millis(4));
        assert_eq!(monitor.advance(clock.now()), HealthState::Degraded);
        // Two clean windows step back to Healthy.
        for round in 0..2 {
            for _ in 0..8 {
                monitor.observe(us(30));
            }
            clock.advance(SimDuration::from_millis(1));
            let state = monitor.advance(clock.now());
            if round == 1 {
                assert_eq!(state, HealthState::Healthy);
            }
        }
    }
}
