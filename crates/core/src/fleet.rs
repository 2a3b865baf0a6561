//! The multi-device fleet harness.
//!
//! A [`PipelineFleet`] runs M concurrent device pipelines — each with its
//! own platform, TEE core, secure driver and cloud connection — while
//! sharing **one** trained model set ([`SharedModels`]) across every
//! device via [`Arc`]. Training dominates pipeline setup cost, so a fleet
//! of N devices sets up roughly N times faster than N independently-built
//! pipelines, and the secure model weights exist once in (simulated)
//! memory.
//!
//! Devices execute on the bounded work-stealing [`FleetExecutor`]:
//! [`FleetConfig::workers`] OS threads step resumable device tasks at
//! TEE-crossing granularity, so a 10k-device fleet holds `workers`
//! pipeline stacks in memory instead of 10k. Every device is a
//! [`SecureDevice`], audio or camera by its [`SensorPath`], and runs as
//! one generic task over the device's begin/step/finish seam; the fleet
//! sets each device's planes through [`SensorPath::planes`]. Every run
//! entry point goes through one body: validate, queue, execute, then fold
//! the observation sinks.
//!
//! Fleets may be single-modality ([`PipelineFleet::run`]) or mixed
//! ([`PipelineFleet::run_mixed`]): audio devices and camera devices run
//! side by side off the same shared model set, since [`SharedModels`]
//! carries both the speech models and the frame classifier. A camera
//! sharded across several secure cores
//! ([`crate::pipeline::ShardedVisionPipeline`]) is a `SecureDevice` too,
//! but [`FleetConfig`] has no field to queue one.
//!
//! Per-device [`PipelineReport`]s are merged into a [`FleetReport`] with
//! fleet-wide privacy, latency and transition aggregates.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use perisec_relay::attest::SessionIngest;
use perisec_relay::netsim::FaultSpec;
use perisec_telemetry::{
    DeviceHealthMonitor, FleetHealth, FleetHealthReport, FleetTelemetry, HealthConfig, HealthSink,
    TelemetryConfig,
};
use perisec_tz::time::SimDuration;
use perisec_workload::scenario::{CameraScenario, Scenario};

use serde::{Deserialize, Serialize};

use crate::executor::{
    DeviceTask, ExecutorConfig, ExecutorStats, FleetExecutor, QueuedDevice, StepOutcome,
};
use crate::ingest::IngestHook;
use crate::pipeline::{
    AudioPath, CameraPath, CameraPipelineConfig, PipelineConfig, ScenarioProgress, SecureDevice,
    SensorPath, SharedModels,
};
use crate::report::{LatencyPercentiles, PipelineReport};
use crate::{CoreError, Result};

/// Fleet configuration: how many devices of each modality, and how each is
/// built.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of concurrent audio device pipelines.
    pub devices: usize,
    /// Configuration applied to every audio device pipeline (including
    /// its batch size).
    pub pipeline: PipelineConfig,
    /// Number of concurrent camera device pipelines (zero for an
    /// audio-only fleet).
    pub camera_devices: usize,
    /// Configuration applied to every camera device pipeline.
    pub camera_pipeline: CameraPipelineConfig,
    /// Worker threads of the fleet executor. `0` (the default) means one
    /// worker per host core; any value is capped by the device count. The
    /// merged [`FleetReport`] is byte-identical for every worker count —
    /// workers change wall-clock and memory, never outcomes.
    pub workers: usize,
    /// Fleet telemetry plane. When `enabled`, every device pipeline
    /// records bounded span histograms and counters in virtual time;
    /// [`PipelineFleet::run_mixed_telemetry`] folds them into one
    /// [`FleetTelemetry`]. Off by default — a disabled tracer costs one
    /// branch per would-be span. Per-device span *retention* is not
    /// controlled here (that would grow with fleet size); see
    /// [`FleetConfig::trace_devices`].
    pub telemetry: TelemetryConfig,
    /// The devices whose full span streams are retained for chrome-trace
    /// export (empty = metrics only, the default). Retaining every
    /// device's spans on a 10k-device fleet would be unbounded, so deep
    /// dives are opt-in and per-device — but comparing two devices side
    /// by side (one healthy, one degraded) needs more than a single
    /// slot, hence a set.
    pub trace_devices: BTreeSet<usize>,
    /// The live health plane (see [`PipelineFleet::run_mixed_health`]):
    /// when set, every device carries a
    /// [`DeviceHealthMonitor`] that cuts virtual-time epoch slices at
    /// its step boundaries, judges the configured SLOs and anomaly
    /// detectors, and feeds one shared [`HealthSink`]. Pure observation:
    /// the functional [`FleetReport`] stays byte-identical whether the
    /// plane is on or off.
    pub health: Option<HealthConfig>,
    /// Deterministic network chaos applied to **every** device's cloud
    /// link. Each device gets the spec salted with its fleet index
    /// ([`FaultSpec::for_device`]), so the fleet-wide fault schedule is a
    /// pure function of `(seed, device, send sequence)` — identical at
    /// every worker count, which is what lets the E20 chaos drill demand
    /// byte-identical cloud decisions. Overrides any per-pipeline spec.
    pub faults: Option<FaultSpec>,
    /// A fleet-shared sharded ingest plane. When set, every device
    /// relays through session `device` of the plane (attested,
    /// epoch-fenced, journaled) instead of a per-device mock cloud; the
    /// plane's crash schedule then exercises the fleet's recovery path.
    /// Overrides any per-pipeline [`PipelineConfig::ingest`] hook.
    pub ingest: Option<Arc<dyn SessionIngest>>,
}

impl FleetConfig {
    /// An audio-only fleet of `devices` devices with the default pipeline
    /// config.
    pub fn of(devices: usize) -> Self {
        FleetConfig {
            devices,
            pipeline: PipelineConfig::default(),
            camera_devices: 0,
            camera_pipeline: CameraPipelineConfig::default(),
            workers: 0,
            telemetry: TelemetryConfig::default(),
            trace_devices: BTreeSet::new(),
            health: None,
            faults: None,
            ingest: None,
        }
    }

    /// A mixed fleet: `audio` microphone devices plus `cameras` camera
    /// devices, default configs for both.
    pub fn mixed(audio: usize, cameras: usize) -> Self {
        FleetConfig {
            devices: audio,
            camera_devices: cameras,
            ..FleetConfig::of(0)
        }
    }

    fn total_devices(&self) -> usize {
        self.devices + self.camera_devices
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::of(8)
    }
}

/// Which sensor a fleet device carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Modality {
    /// An I2S microphone device running the audio pipeline.
    Audio,
    /// A camera device running the vision pipeline.
    Camera,
}

impl std::fmt::Display for Modality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Modality::Audio => "audio",
            Modality::Camera => "camera",
        };
        write!(f, "{s}")
    }
}

/// The report of one device's run within a fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Device index within the fleet.
    pub device: usize,
    /// Modality of the device.
    pub modality: Modality,
    /// Name of the scenario the device replayed.
    pub scenario: String,
    /// The device pipeline's full report.
    pub report: PipelineReport,
}

/// The merged report of a fleet run.
///
/// A report is treated as immutable once assembled: the fleet-wide
/// latency percentiles are computed — one sort over the pooled sample —
/// on first query and cached for every later `p50`/`p95`/`p99`/`mean`
/// call and for [`FleetReport::to_json`].
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-device reports, in device order. Private so nothing can grow
    /// or reorder the set after the percentile cache has been primed —
    /// reports are assembled once ([`FleetReport::new`]) and read-only
    /// after that ([`FleetReport::devices`]).
    devices: Vec<DeviceReport>,
    /// Lazily-computed fleet-wide percentiles (see the type docs).
    percentiles: OnceLock<LatencyPercentiles>,
}

impl PartialEq for FleetReport {
    fn eq(&self, other: &Self) -> bool {
        // The cache is derived data; two reports are equal iff their
        // devices are.
        self.devices == other.devices
    }
}

impl Serialize for FleetReport {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![("devices".to_owned(), self.devices.to_value())])
    }
}

impl Deserialize for FleetReport {
    fn from_value(value: &serde::value::Value) -> std::result::Result<Self, serde::Error> {
        Ok(FleetReport::new(Deserialize::from_value(
            value.field("devices")?,
        )?))
    }
}

impl FleetReport {
    /// Wraps per-device reports (already in device order) into a fleet
    /// report.
    pub fn new(devices: Vec<DeviceReport>) -> Self {
        FleetReport {
            devices,
            percentiles: OnceLock::new(),
        }
    }

    /// Per-device reports, in device order.
    pub fn devices(&self) -> &[DeviceReport] {
        &self.devices
    }

    /// Number of devices that ran.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of devices of the given modality.
    pub fn device_count_of(&self, modality: Modality) -> usize {
        self.devices
            .iter()
            .filter(|d| d.modality == modality)
            .count()
    }

    /// Total utterances processed across the fleet.
    pub fn total_utterances(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.report.workload.utterances)
            .sum()
    }

    /// Total ground-truth sensitive utterances across the fleet.
    pub fn total_sensitive_utterances(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.report.workload.sensitive_utterances)
            .sum()
    }

    /// Total sensitive utterances that leaked to the cloud, fleet-wide —
    /// the headline privacy metric.
    pub fn leaked_sensitive_utterances(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.report.cloud.leaked_sensitive_utterances())
            .sum()
    }

    /// Fleet-wide leakage rate.
    pub fn leakage_rate(&self) -> f64 {
        let sensitive = self.total_sensitive_utterances();
        if sensitive == 0 {
            return 0.0;
        }
        self.leaked_sensitive_utterances() as f64 / sensitive as f64
    }

    /// Total payload (audio/pixel) bytes that reached the cloud — zero
    /// for verdict-only relays.
    pub fn total_payload_bytes(&self) -> usize {
        self.devices
            .iter()
            .flat_map(|d| d.report.cloud.report.events.iter())
            .map(|e| e.audio_bytes)
            .sum()
    }

    /// Total world switches across every device's TEE.
    pub fn total_world_switches(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.report.tz.world_switches)
            .sum()
    }

    /// Total SMCs across every device's TEE.
    pub fn total_smc_calls(&self) -> u64 {
        self.devices.iter().map(|d| d.report.tz.smc_calls).sum()
    }

    /// World switches per utterance, averaged over the fleet.
    pub fn world_switches_per_utterance(&self) -> f64 {
        let utterances = self.total_utterances();
        if utterances == 0 {
            return 0.0;
        }
        self.total_world_switches() as f64 / utterances as f64
    }

    /// Mean per-utterance processing latency across the fleet.
    pub fn mean_end_to_end(&self) -> SimDuration {
        self.latency_percentiles().mean
    }

    /// Every device's per-utterance latencies pooled into one sample.
    fn latency_sample(&self) -> Vec<SimDuration> {
        self.devices
            .iter()
            .flat_map(|d| d.report.latency.per_utterance().iter().copied())
            .collect()
    }

    /// Fleet-wide latency percentiles (mean/p50/p95/p99) over every
    /// device's per-utterance latencies — the figures E14's SLO claims
    /// are checked against. Computed with **one** sort on first call and
    /// cached; `p50`/`p95`/`p99`/`mean` and [`FleetReport::to_json`] all
    /// reuse the cached figures.
    pub fn latency_percentiles(&self) -> LatencyPercentiles {
        *self
            .percentiles
            .get_or_init(|| LatencyPercentiles::from_sample(self.latency_sample()))
    }

    /// Fleet-wide median per-utterance latency.
    pub fn p50_end_to_end(&self) -> SimDuration {
        self.latency_percentiles().p50
    }

    /// Fleet-wide 95th-percentile per-utterance latency.
    pub fn p95_end_to_end(&self) -> SimDuration {
        self.latency_percentiles().p95
    }

    /// Fleet-wide 99th-percentile per-utterance latency.
    pub fn p99_end_to_end(&self) -> SimDuration {
        self.latency_percentiles().p99
    }

    /// Total energy drawn across the fleet, in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        self.devices.iter().map(|d| d.report.energy.total_mj).sum()
    }

    /// Serializes the fleet report as pretty JSON, including the
    /// fleet-wide latency percentiles alongside the per-device reports.
    /// The document is assembled as a value tree over borrowed data — the
    /// vendored serde derive cannot express a borrowing wrapper struct,
    /// and cloning every device report just to serialize it would double
    /// a large fleet's report memory.
    ///
    /// # Panics
    ///
    /// Never panics: all fields are plain data.
    pub fn to_json(&self) -> String {
        use serde::Serialize as _;
        let document = serde::value::Value::Object(vec![
            (
                "latency_percentiles".to_owned(),
                self.latency_percentiles().to_value(),
            ),
            ("devices".to_owned(), self.devices.to_value()),
        ]);
        serde_json::to_string_pretty(&document).expect("fleet report is serializable")
    }

    /// Serializes only the fleet's **cloud decisions**: each device's
    /// ordered event stream exactly as the cloud committed it. Under
    /// network chaos the *full* report legitimately differs from a
    /// fault-free run — retries cost virtual time and wire bytes — but
    /// the decisions the cloud acts on must not, and this artifact is
    /// what the E20 determinism gate compares byte-for-byte.
    ///
    /// # Panics
    ///
    /// Never panics: all fields are plain data.
    pub fn cloud_decisions_json(&self) -> String {
        use serde::Serialize as _;
        let devices = self
            .devices
            .iter()
            .map(|d| {
                serde::value::Value::Object(vec![
                    ("device".to_owned(), d.device.to_value()),
                    ("modality".to_owned(), d.modality.to_value()),
                    ("events".to_owned(), d.report.cloud.report.events.to_value()),
                ])
            })
            .collect::<Vec<_>>();
        serde_json::to_string_pretty(&serde::value::Value::Array(devices))
            .expect("cloud decisions are serializable")
    }

    /// Total explicit-sequence records the fleet's cloud endpoints saw
    /// again after committing them — at-least-once delivery made visible.
    pub fn total_redelivered_records(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.report.cloud.report.redelivered_records)
            .sum()
    }

    /// Total records the fleet's cloud endpoints rejected (failed
    /// authentication or decode — e.g. corrupted in flight).
    pub fn total_rejected_records(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.report.cloud.report.rejected_records)
            .sum()
    }

    /// [`FleetReport::to_json`] with a `telemetry` section embedded. Kept
    /// separate from `to_json` on purpose: the plain report must stay
    /// byte-identical whether or not telemetry ran — that is the
    /// zero-perturbation contract the determinism tests pin — so the
    /// telemetry plane rides in its own section of a distinct document.
    ///
    /// The document also carries an `accounting` section: one per-tenant
    /// row per device session (committed / rejected / redelivered record
    /// counts from its cloud ledger) plus the fold's span names as the
    /// billing keys a metering pipeline would rate — usage attribution
    /// for a multi-tenant ingest plane, derived entirely from data the
    /// report already holds.
    pub fn to_json_with_telemetry(&self, telemetry: &perisec_telemetry::FleetTelemetry) -> String {
        use serde::Serialize as _;
        let tenants = self
            .devices
            .iter()
            .map(|d| {
                let cloud = &d.report.cloud.report;
                serde::value::Value::Object(vec![
                    ("session".to_owned(), d.device.to_value()),
                    ("modality".to_owned(), d.modality.to_value()),
                    ("committed".to_owned(), cloud.events.len().to_value()),
                    ("rejected".to_owned(), cloud.rejected_records.to_value()),
                    (
                        "redelivered".to_owned(),
                        cloud.redelivered_records.to_value(),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        let billing_keys = telemetry
            .histograms
            .keys()
            .map(|span| span.to_value())
            .collect::<Vec<_>>();
        let accounting = serde::value::Value::Object(vec![
            (
                "billing_keys".to_owned(),
                serde::value::Value::Array(billing_keys),
            ),
            ("tenants".to_owned(), serde::value::Value::Array(tenants)),
        ]);
        let document = serde::value::Value::Object(vec![
            (
                "latency_percentiles".to_owned(),
                self.latency_percentiles().to_value(),
            ),
            ("telemetry".to_owned(), telemetry.to_value()),
            ("accounting".to_owned(), accounting),
            ("devices".to_owned(), self.devices.to_value()),
        ]);
        serde_json::to_string_pretty(&document).expect("fleet report is serializable")
    }
}

// ----- device tasks --------------------------------------------------------

/// Where completed devices deposit their telemetry. The fold is
/// commutative ([`FleetTelemetry::absorb`]), so a single shared sink
/// stays deterministic no matter which worker finishes which device
/// first — the same structural argument that makes the [`FleetReport`]
/// worker-count-invariant.
type TelemetrySink = Arc<Mutex<FleetTelemetry>>;

/// The resumable device state machine, for either device kind: one built
/// device plus a scenario cursor; each step is one TEE crossing.
struct FleetDeviceTask<S: SensorPath> {
    device: usize,
    scenario: Arc<S::Scenario>,
    pipeline: SecureDevice<S>,
    progress: Option<ScenarioProgress<S>>,
    telemetry: Option<TelemetrySink>,
    health: Option<DeviceHealthMonitor>,
}

impl<S: SensorPath<Report = PipelineReport>> DeviceTask for FleetDeviceTask<S> {
    fn step(&mut self) -> Result<StepOutcome> {
        let mut progress = self.progress.take().expect("task stepped after completion");
        if self.pipeline.step_scenario(&self.scenario, &mut progress)? {
            if let Some(monitor) = &mut self.health {
                monitor.advance(self.pipeline.now(), self.pipeline.tracer());
            }
            self.progress = Some(progress);
            return Ok(StepOutcome::Yielded);
        }
        let report = self.pipeline.finish_scenario(&self.scenario, progress);
        // The monitor must finish *before* the telemetry absorb:
        // `take_telemetry` drains the tracer, and an epoch cut over a
        // drained tracer would read every running total as zero.
        if let Some(monitor) = self.health.take() {
            monitor.finish(self.pipeline.now(), self.pipeline.tracer());
        }
        if let Some(sink) = &self.telemetry {
            sink.lock()
                .absorb(self.device, self.pipeline.take_telemetry());
        }
        Ok(StepOutcome::Complete(Box::new(DeviceReport {
            device: self.device,
            modality: S::MODALITY,
            scenario: S::scenario_name(&self.scenario).to_owned(),
            report,
        })))
    }
}

/// The observation sinks one fleet run feeds.
#[derive(Default)]
struct Sinks {
    telemetry: Option<TelemetrySink>,
    health: Option<(HealthConfig, HealthSink)>,
}

impl Sinks {
    fn monitor(&self, device: usize) -> Option<DeviceHealthMonitor> {
        self.health.as_ref().map(|(config, sink)| {
            DeviceHealthMonitor::new(device, config.clone(), Arc::clone(sink))
        })
    }
}

/// Takes a sink's fold back once the executor has joined its workers.
/// Nothing else holds the sink by then; the clone fallback is for safety
/// only.
fn into_fold<T: Clone>(sink: Arc<Mutex<T>>) -> T {
    Arc::try_unwrap(sink)
        .map(Mutex::into_inner)
        .unwrap_or_else(|sink| sink.lock().clone())
}

/// How much a fleet run observes beyond the report and executor stats:
/// nothing, the telemetry fold, or the telemetry fold plus the health
/// plane.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Observe {
    Report,
    Telemetry,
    Health,
}

// ----- the fleet -----------------------------------------------------------

/// The fleet: one shared trained model set plus the per-device config.
#[derive(Debug, Clone)]
pub struct PipelineFleet {
    config: FleetConfig,
    models: SharedModels,
}

impl PipelineFleet {
    /// Builds a fleet, training the shared model set **once**.
    ///
    /// # Errors
    ///
    /// Propagates ML training failures.
    pub fn new(config: FleetConfig) -> Result<Self> {
        if config.total_devices() == 0 {
            return Err(CoreError::Config {
                reason: "fleet needs at least one device".to_owned(),
            });
        }
        // Audio fleets train the speech models eagerly (errors surface at
        // construction, as before); camera-only fleets defer, so they
        // never pay for speech models they cannot use — the mirror of the
        // frame classifier's laziness for audio-only fleets.
        let models = if config.devices > 0 {
            SharedModels::for_config(&config.pipeline)?
        } else {
            SharedModels::deferred_for_config(&config.pipeline)
        }
        .with_vision_spec(
            config.camera_pipeline.train_frames,
            config.camera_pipeline.corpus_seed,
        );
        Ok(PipelineFleet { config, models })
    }

    /// Builds a fleet around an existing model set. The config's camera
    /// training spec is applied to the set (taking effect unless its
    /// vision model has already trained), exactly as
    /// [`PipelineFleet::new`] does.
    pub fn with_models(config: FleetConfig, models: SharedModels) -> Self {
        let models = models.with_vision_spec(
            config.camera_pipeline.train_frames,
            config.camera_pipeline.corpus_seed,
        );
        PipelineFleet { config, models }
    }

    /// The shared model set.
    pub fn models(&self) -> &SharedModels {
        &self.models
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs one scenario per audio device on the bounded executor —
    /// device `i` replays `scenarios[i % scenarios.len()]`. Every device
    /// task builds its own full stack (platform, TEE core, secure driver,
    /// cloud) around the shared models, runs its scenario, and reports.
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineFleet::run_mixed`] with no camera
    /// scenarios, so a fleet with camera devices is refused too.
    pub fn run(&self, scenarios: &[Scenario]) -> Result<FleetReport> {
        self.run_mixed(scenarios, &[])
    }

    /// Runs a mixed fleet: the configured audio devices replay `audio`
    /// scenarios while the configured camera devices replay `cameras`
    /// scene schedules, all off the same shared model set, multiplexed
    /// onto [`FleetConfig::workers`] executor threads. Audio devices come
    /// first in the merged report, camera devices after.
    ///
    /// # Errors
    ///
    /// Returns the first device failure, or [`CoreError::Config`] when a
    /// modality's devices and scenarios disagree — devices with no
    /// scenarios *and* scenarios with no devices are both rejected, so
    /// nothing is ever silently skipped — or when the fleet is empty
    /// (checked on every run: [`PipelineFleet::with_models`] skips `new`).
    pub fn run_mixed(&self, audio: &[Scenario], cameras: &[CameraScenario]) -> Result<FleetReport> {
        self.run_mixed_stats(audio, cameras)
            .map(|(report, _)| report)
    }

    /// [`PipelineFleet::run_mixed`], also returning the executor's
    /// host-side telemetry (steals, peak residency, wall-clock).
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineFleet::run_mixed`].
    pub fn run_mixed_stats(
        &self,
        audio: &[Scenario],
        cameras: &[CameraScenario],
    ) -> Result<(FleetReport, ExecutorStats)> {
        self.execute(audio, cameras, Observe::Report)
            .map(|(report, stats, ..)| (report, stats))
    }

    /// [`PipelineFleet::run_mixed_stats`] with the fleet telemetry plane
    /// collected: every completed device's tracer snapshot is folded into
    /// one [`FleetTelemetry`] through a shared sink. The fold is
    /// commutative, so the returned telemetry — like the report — is
    /// identical at every worker count and under any steal interleaving.
    /// With [`FleetConfig::telemetry`] disabled the returned fold is
    /// empty (devices fold in, but no histograms or counters exist).
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineFleet::run_mixed`].
    pub fn run_mixed_telemetry(
        &self,
        audio: &[Scenario],
        cameras: &[CameraScenario],
    ) -> Result<(FleetReport, ExecutorStats, FleetTelemetry)> {
        self.execute(audio, cameras, Observe::Telemetry)
            .map(|(report, stats, telemetry, _)| (report, stats, telemetry))
    }

    /// [`PipelineFleet::run_mixed_telemetry`] with the live health plane
    /// attached: every device carries a [`DeviceHealthMonitor`] cutting
    /// virtual-time epochs at its step boundaries and feeding one shared
    /// [`FleetHealth`], whose [`FleetHealthReport`] — alert journal,
    /// per-device state machine history, SLO verdicts — is returned
    /// alongside the functional report and telemetry fold. Both folds are
    /// commutative, so every artifact is identical at every worker count.
    /// The functional [`FleetReport`] is byte-identical to a run with the
    /// plane off: health observes, it never steers the fleet.
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineFleet::run_mixed`], plus
    /// [`CoreError::Config`] when [`FleetConfig::health`] is unset — a
    /// health run with no health config would silently return an empty
    /// report that reads as a perfectly healthy fleet.
    pub fn run_mixed_health(
        &self,
        audio: &[Scenario],
        cameras: &[CameraScenario],
    ) -> Result<(
        FleetReport,
        ExecutorStats,
        FleetTelemetry,
        FleetHealthReport,
    )> {
        let (report, stats, telemetry, health) = self.execute(audio, cameras, Observe::Health)?;
        let health = health.expect("a health run folds a health report");
        Ok((report, stats, telemetry, health))
    }

    /// The one body behind every run entry point: validate, queue,
    /// execute, then take the observation sinks' folds back.
    fn execute(
        &self,
        audio: &[Scenario],
        cameras: &[CameraScenario],
        observe: Observe,
    ) -> Result<(
        FleetReport,
        ExecutorStats,
        FleetTelemetry,
        Option<FleetHealthReport>,
    )> {
        self.validate_mixed(audio, cameras)?;
        let mut sinks = Sinks::default();
        if observe != Observe::Report {
            sinks.telemetry = Some(Arc::new(Mutex::new(FleetTelemetry::new())));
        }
        if observe == Observe::Health {
            let Some(config) = &self.config.health else {
                return Err(CoreError::Config {
                    reason: "run_mixed_health needs FleetConfig::health set; an unconfigured \
                             health plane would report every device as healthy"
                        .to_owned(),
                });
            };
            let sink = Arc::new(Mutex::new(FleetHealth::new(config.window)));
            sinks.health = Some((config.clone(), sink));
        }
        let (audio_devices, total) = (self.config.devices, self.config.total_devices());
        let mut tasks = Vec::with_capacity(total);
        self.queue::<AudioPath>(
            &mut tasks,
            0..audio_devices,
            audio,
            &self.config.pipeline,
            &sinks,
        );
        self.queue::<CameraPath>(
            &mut tasks,
            audio_devices..total,
            cameras,
            &self.config.camera_pipeline,
            &sinks,
        );
        let executor = FleetExecutor::new(ExecutorConfig::with_workers(self.config.workers));
        let (reports, stats) = executor.run(tasks)?;
        Ok((
            FleetReport::new(reports),
            stats,
            sinks.telemetry.map(into_fold).unwrap_or_default(),
            sinks.health.map(|(_, sink)| into_fold(sink).report()),
        ))
    }

    fn validate_mixed(&self, audio: &[Scenario], cameras: &[CameraScenario]) -> Result<()> {
        let (audio_devices, camera_devices) = (self.config.devices, self.config.camera_devices);
        let reason = if audio_devices + camera_devices == 0 {
            "fleet needs at least one device"
        } else if audio_devices > 0 && audio.is_empty() {
            "audio devices configured but no audio scenarios given"
        } else if audio_devices == 0 && !audio.is_empty() {
            "audio scenarios given but no audio devices configured"
        } else if camera_devices > 0 && cameras.is_empty() {
            "camera devices configured but no camera scenarios given"
        } else if camera_devices == 0 && !cameras.is_empty() {
            "camera scenarios given but no camera devices configured"
        } else {
            return Ok(());
        };
        Err(CoreError::Config {
            reason: reason.to_owned(),
        })
    }

    /// The fleet-level telemetry config a given device runs under: the
    /// fleet's metrics switch, with span retention only on the designated
    /// deep-dive devices. Falls back to the per-pipeline config when the
    /// fleet plane is off, so direct pipeline telemetry keeps working —
    /// unless the health plane is on, which needs the tracer's metrics to
    /// cut epochs from and therefore forces them.
    fn device_telemetry(&self, base: TelemetryConfig, device: usize) -> TelemetryConfig {
        if !self.config.telemetry.enabled {
            if self.config.health.is_some() {
                return TelemetryConfig {
                    capture_spans: self.config.trace_devices.contains(&device),
                    ..TelemetryConfig::metrics()
                };
            }
            return base;
        }
        TelemetryConfig {
            capture_spans: self.config.trace_devices.contains(&device),
            ..self.config.telemetry
        }
    }

    /// Queues the fleet's devices of one kind: the `i`-th device of
    /// `devices` replays `scenarios[i % scenarios.len()]` under `base`
    /// with the fleet's planes applied. `validate_mixed` has already
    /// checked that `scenarios` is non-empty exactly when `devices` is.
    ///
    /// Each stack builds lazily, when a worker first schedules its
    /// device, and scenarios are shared by `Arc`: a 10k-device fleet
    /// cycling over a few scenarios must not hold 10k copies of their
    /// event lists in its run queues.
    fn queue<S: SensorPath<Report = PipelineReport>>(
        &self,
        tasks: &mut Vec<QueuedDevice>,
        devices: Range<usize>,
        scenarios: &[S::Scenario],
        base: &S::Config,
        sinks: &Sinks,
    ) {
        let scenarios: Vec<Arc<S::Scenario>> = scenarios.iter().cloned().map(Arc::new).collect();
        for (i, device) in devices.enumerate() {
            let mut config = base.clone();
            let (telemetry, faults, ingest) = S::planes(&mut config);
            *telemetry = self.device_telemetry(*telemetry, device);
            if let Some(spec) = self.config.faults {
                *faults = Some(spec.for_device(device as u64));
            }
            if let Some(plane) = &self.config.ingest {
                *ingest = Some(IngestHook::new(Arc::clone(plane), device as u64));
            }
            let scenario = Arc::clone(&scenarios[i % scenarios.len()]);
            let models = self.models.clone();
            let (telemetry, health) = (sinks.telemetry.clone(), sinks.monitor(device));
            tasks.push(QueuedDevice::new(device, move || {
                let mut pipeline = SecureDevice::<S>::with_models(config, &models)?;
                let progress = pipeline.begin_scenario();
                Ok(Box::new(FleetDeviceTask {
                    device,
                    scenario,
                    pipeline,
                    progress: Some(progress),
                    telemetry,
                    health,
                }) as Box<dyn DeviceTask>)
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perisec_workload::scenario::Scenario;
    use std::sync::Arc;

    #[test]
    fn shared_models_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedModels>();
        assert_send_sync::<FleetReport>();
    }

    #[test]
    fn fleet_cloud_decisions_survive_network_chaos() {
        use perisec_relay::netsim::FaultSpec;
        let faults = FaultSpec {
            drop_permille: 100,
            duplicate_permille: 150,
            reorder_permille: 80,
            corrupt_permille: 100,
            outage: Some((3, 6)),
            ..FaultSpec::none(0xC4A05)
        };
        let config = |faults, workers| FleetConfig {
            devices: 3,
            pipeline: PipelineConfig {
                train_utterances: 60,
                batch_windows: 2,
                ..PipelineConfig::default()
            },
            workers,
            faults,
            ..FleetConfig::of(0)
        };
        let models = SharedModels::for_config(&config(None, 1).pipeline).unwrap();
        let scenarios = Scenario::fleet(3, 5, 0.5, SimDuration::from_secs(1), 0xE20);
        let run = |faults, workers| {
            PipelineFleet::with_models(config(faults, workers), models.clone())
                .run(&scenarios)
                .unwrap()
        };

        let healthy = run(None, 2);
        let faulted = run(Some(faults), 2);
        // The chaos was real (the cloud saw redeliveries or rejected
        // corrupt records) yet the decision stream is byte-identical.
        assert!(
            faulted.total_redelivered_records() + faulted.total_rejected_records() > 0,
            "fault spec injected no observable chaos"
        );
        assert_eq!(
            healthy.cloud_decisions_json(),
            faulted.cloud_decisions_json(),
            "network chaos changed the cloud's decisions"
        );
        assert_eq!(healthy.total_utterances(), faulted.total_utterances());
        // And the faulted run itself is worker-count invariant.
        let faulted_serial = run(Some(faults), 1);
        assert_eq!(faulted_serial.to_json(), faulted.to_json());
    }

    #[test]
    fn fleet_runs_concurrent_devices_off_one_model_set() {
        let fleet = PipelineFleet::new(FleetConfig {
            devices: 4,
            pipeline: PipelineConfig {
                train_utterances: 60,
                batch_windows: 4,
                ..PipelineConfig::default()
            },
            ..FleetConfig::of(0)
        })
        .unwrap();
        let scenarios = Scenario::fleet(4, 6, 0.5, SimDuration::from_secs(2), 0xF1EE7);
        let report = fleet.run(&scenarios).unwrap();

        assert_eq!(report.device_count(), 4);
        assert_eq!(report.total_utterances(), 24);
        assert!(report.total_sensitive_utterances() > 0);
        assert!(report.leakage_rate() < 0.5);
        assert!(report.total_smc_calls() >= 4);
        assert!(report.mean_end_to_end() > SimDuration::ZERO);
        assert!(report.total_energy_mj() > 0.0);
        // Devices got distinct scenarios, in order.
        for (i, device) in report.devices().iter().enumerate() {
            assert_eq!(device.device, i);
            assert_eq!(device.scenario, scenarios[i].name);
        }
        // One model set shared by reference, not copied: building another
        // pipeline from the fleet's models bumps the weights' refcount.
        let audio = fleet.models().audio().unwrap();
        let before = Arc::strong_count(&audio.classifier);
        let _pipeline = crate::pipeline::SecurePipeline::with_models(
            fleet.config().pipeline.clone(),
            fleet.models(),
        )
        .unwrap();
        assert_eq!(Arc::strong_count(&audio.classifier), before + 1);
    }

    #[test]
    fn fleet_rejects_degenerate_configurations() {
        assert!(PipelineFleet::new(FleetConfig {
            devices: 0,
            ..FleetConfig::default()
        })
        .is_err());
        // `with_models` skips `new`'s validation; `run` must still refuse.
        let models =
            SharedModels::train(perisec_ml::classifier::Architecture::Cnn, 16, 0xF1EE).unwrap();
        let zero_fleet = PipelineFleet::with_models(
            FleetConfig {
                devices: 0,
                ..FleetConfig::default()
            },
            models,
        );
        let scenarios = Scenario::fleet(1, 2, 0.5, SimDuration::from_secs(1), 1);
        assert!(zero_fleet.run(&scenarios).is_err());
        let fleet = PipelineFleet::new(FleetConfig {
            devices: 1,
            pipeline: PipelineConfig {
                train_utterances: 30,
                ..PipelineConfig::default()
            },
            ..FleetConfig::of(0)
        })
        .unwrap();
        assert!(fleet.run(&[]).is_err());
        // Camera devices without camera scenarios are rejected too.
        let mixed = PipelineFleet::with_models(FleetConfig::mixed(0, 1), fleet.models().clone());
        assert!(mixed.run_mixed(&[], &[]).is_err());
        // run() on a config with camera devices refuses instead of
        // silently running an audio-only subset of the fleet.
        let mixed = PipelineFleet::with_models(FleetConfig::mixed(1, 1), fleet.models().clone());
        let scenarios = Scenario::fleet(1, 2, 0.5, SimDuration::from_secs(1), 2);
        assert!(mixed.run(&scenarios).is_err());
    }

    #[test]
    fn camera_only_fleets_never_train_speech_models() {
        let fleet = PipelineFleet::new(FleetConfig::mixed(0, 2)).unwrap();
        // Construction deferred everything: no audio models exist yet.
        assert!(format!("{:?}", fleet.models()).contains("audio_trained: false"));
        let cameras = perisec_workload::scenario::CameraScenario::fleet_cameras(
            2,
            4,
            0.5,
            SimDuration::from_secs(1),
            0xCA0,
        );
        let report = fleet.run_mixed(&[], &cameras).unwrap();
        assert_eq!(report.device_count_of(Modality::Camera), 2);
        assert_eq!(report.leaked_sensitive_utterances(), 0);
        // Running the camera devices trained the frame classifier but
        // still no speech models, so the fleet never asked for a speech
        // synthesizer or rendered its waveform table.
        let debug = format!("{:?}", fleet.models());
        assert!(debug.contains("vision_trained: true"));
        assert!(debug.contains("audio_trained: false"));
    }

    #[test]
    fn mixed_fleet_runs_both_modalities_off_one_model_set() {
        let fleet = PipelineFleet::new(FleetConfig {
            devices: 2,
            pipeline: PipelineConfig {
                train_utterances: 60,
                batch_windows: 4,
                ..PipelineConfig::default()
            },
            camera_devices: 2,
            camera_pipeline: crate::pipeline::CameraPipelineConfig {
                batch_windows: 4,
                ..crate::pipeline::CameraPipelineConfig::default()
            },
            ..FleetConfig::of(0)
        })
        .unwrap();
        let audio = Scenario::fleet(2, 6, 0.5, SimDuration::from_secs(2), 0xA1);
        let cameras = perisec_workload::scenario::CameraScenario::fleet_cameras(
            2,
            6,
            0.5,
            SimDuration::from_secs(2),
            0xCA,
        );
        let (report, stats) = fleet.run_mixed_stats(&audio, &cameras).unwrap();

        assert_eq!(report.device_count(), 4);
        assert_eq!(report.device_count_of(Modality::Audio), 2);
        assert_eq!(report.device_count_of(Modality::Camera), 2);
        assert_eq!(report.total_utterances(), 24);
        // The executor really bounded residency: never more than one
        // built stack per worker.
        assert!(stats.peak_resident <= stats.workers);
        assert_eq!(stats.completed, 4);
        // Both modalities filter: most sensitive traffic is stopped.
        assert!(report.total_sensitive_utterances() > 0);
        assert!(report.leakage_rate() < 0.5);
        // Camera devices relay verdicts only — no payload bytes anywhere
        // in their cloud reports.
        for device in report.devices() {
            if device.modality == Modality::Camera {
                assert!(device
                    .report
                    .cloud
                    .report
                    .events
                    .iter()
                    .all(|e| e.audio_bytes == 0));
            }
        }
        // One model set: the frame classifier was trained once on first
        // use and every later request hands back the very same weights.
        let a = fleet.models().vision().unwrap();
        let b = fleet.models().vision().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fleet_report_exposes_latency_percentiles() {
        let fleet = PipelineFleet::new(FleetConfig {
            devices: 2,
            pipeline: PipelineConfig {
                train_utterances: 60,
                batch_windows: 2,
                ..PipelineConfig::default()
            },
            ..FleetConfig::of(0)
        })
        .unwrap();
        let scenarios = Scenario::fleet(2, 6, 0.5, SimDuration::from_secs(1), 0x9E);
        let report = fleet.run(&scenarios).unwrap();
        let percentiles = report.latency_percentiles();
        assert!(percentiles.p50 > SimDuration::ZERO);
        assert!(percentiles.p50 <= percentiles.p95);
        assert!(percentiles.p95 <= percentiles.p99);
        assert_eq!(report.p50_end_to_end(), percentiles.p50);
        assert_eq!(report.p95_end_to_end(), percentiles.p95);
        assert_eq!(report.p99_end_to_end(), percentiles.p99);
        assert_eq!(report.mean_end_to_end(), percentiles.mean);
        // The cached figures are the same values a fresh computation
        // yields (the cache can never go stale on an assembled report).
        assert_eq!(
            LatencyPercentiles::from_sample(report.latency_sample()),
            percentiles
        );
        // The percentiles ride along in the serialized report.
        let json = report.to_json();
        assert!(json.contains("latency_percentiles"));
        assert!(json.contains("\"p99\""));
        assert!(json.contains("devices"));
        // An empty report yields zeroed percentiles, not a panic.
        assert_eq!(
            FleetReport::default().latency_percentiles(),
            crate::report::LatencyPercentiles::default()
        );
    }

    #[test]
    fn fleet_report_merges_device_outcomes() {
        let fleet = PipelineFleet::new(FleetConfig {
            devices: 2,
            pipeline: PipelineConfig {
                train_utterances: 60,
                ..PipelineConfig::default()
            },
            ..FleetConfig::of(0)
        })
        .unwrap();
        // Fewer scenarios than devices: they wrap around.
        let scenarios = Scenario::fleet(1, 4, 0.0, SimDuration::from_secs(1), 42);
        let report = fleet.run(&scenarios).unwrap();
        assert_eq!(report.device_count(), 2);
        assert_eq!(report.total_utterances(), 8);
        assert_eq!(report.total_sensitive_utterances(), 0);
        assert_eq!(report.leakage_rate(), 0.0);
        // The merged report serializes and round-trips.
        assert!(report.to_json().contains("devices"));
        use serde::{Deserialize as _, Serialize as _};
        let round = FleetReport::from_value(&report.to_value()).unwrap();
        assert_eq!(round, report);
    }

    #[test]
    fn fleet_telemetry_folds_devices_without_perturbing_the_report() {
        let fleet = |telemetry: TelemetryConfig, trace_devices: BTreeSet<usize>| {
            PipelineFleet::new(FleetConfig {
                devices: 3,
                pipeline: PipelineConfig {
                    train_utterances: 60,
                    batch_windows: 4,
                    ..PipelineConfig::default()
                },
                telemetry,
                trace_devices,
                ..FleetConfig::of(0)
            })
            .unwrap()
        };
        let scenarios = Scenario::fleet(3, 4, 0.5, SimDuration::from_secs(1), 0x7E1E);

        let observed = fleet(TelemetryConfig::metrics(), BTreeSet::from([1]));
        let (report, _, telemetry) = observed.run_mixed_telemetry(&scenarios, &[]).unwrap();
        assert_eq!(telemetry.devices, 3);
        // Metrics flowed from every layer: pipeline stages, SMC crossings
        // and TA inference all contributed histograms.
        assert!(telemetry.histograms.contains_key("smc.call"));
        assert!(telemetry.histograms.contains_key("ta.classify"));
        assert!(telemetry.counters.get("pipeline.windows").copied() > Some(0));
        // Only the designated deep-dive device retained spans.
        assert!(telemetry.trace(1).is_some());
        assert!(telemetry.trace(0).is_none());
        assert_eq!(telemetry.dropped_spans, 0);
        // Zero perturbation: the functional report is byte-identical to a
        // run with the telemetry plane off.
        let baseline = fleet(TelemetryConfig::default(), BTreeSet::new());
        let silent = baseline.run_mixed(&scenarios, &[]).unwrap();
        assert_eq!(silent.to_json(), report.to_json());
        // The combined export embeds the telemetry section.
        let combined = report.to_json_with_telemetry(&telemetry);
        assert!(combined.contains("\"telemetry\""));
        assert!(combined.contains("smc.call"));
    }

    #[test]
    fn health_plane_judges_slos_without_perturbing_the_report() {
        use perisec_telemetry::{HealthState, SloSpec};

        let fleet = |health: Option<HealthConfig>| {
            PipelineFleet::new(FleetConfig {
                devices: 2,
                pipeline: PipelineConfig {
                    train_utterances: 60,
                    batch_windows: 4,
                    ..PipelineConfig::default()
                },
                health,
                ..FleetConfig::of(0)
            })
            .unwrap()
        };
        let scenarios = Scenario::fleet(2, 6, 0.5, SimDuration::from_secs(1), 0x8EA1);

        // A health run without a health config is refused, not silently
        // reported as an all-healthy fleet.
        assert!(fleet(None).run_mixed_health(&scenarios, &[]).is_err());

        // Generous objectives: every device finishes Healthy with an
        // empty journal — and the functional report is byte-identical to
        // a plane-off run (health observes, never steers).
        let generous = HealthConfig {
            slos: vec![SloSpec::p95("tee-filter", SimDuration::from_secs(10))],
            ..HealthConfig::with_window(SimDuration::from_secs(1))
        };
        let (report, _, telemetry, health) = fleet(Some(generous))
            .run_mixed_health(&scenarios, &[])
            .unwrap();
        assert_eq!(health.devices, 2);
        assert_eq!(health.healthy, 2);
        assert!(health.alerts.is_empty(), "{}", health.to_table());
        assert!(!health.epochs.is_empty());
        // The health plane forced the metrics plane on (the fleet's own
        // telemetry config is off) so it had series to judge.
        assert!(telemetry.histograms.contains_key("tee-filter"));
        let silent = fleet(None).run_mixed(&scenarios, &[]).unwrap();
        assert_eq!(silent.to_json(), report.to_json());

        // An unattainable objective demotes every device and fills the
        // journal with breaches.
        let strict = HealthConfig {
            slos: vec![SloSpec::p50("tee-filter", SimDuration::from_nanos(1))],
            ..HealthConfig::with_window(SimDuration::from_secs(1))
        };
        let (_, _, _, judged) = fleet(Some(strict))
            .run_mixed_health(&scenarios, &[])
            .unwrap();
        assert_eq!(judged.healthy, 0);
        assert!(judged.transitions_to(HealthState::Degraded) >= 2);
        assert!(judged.alerts_of("slo_breach") > 0);
    }

    #[test]
    fn worker_counts_change_nothing_but_the_schedule() {
        let models =
            SharedModels::train(perisec_ml::classifier::Architecture::Cnn, 60, 0xF1E).unwrap();
        let cameras = perisec_workload::scenario::CameraScenario::fleet_cameras(
            6,
            4,
            0.5,
            SimDuration::from_secs(1),
            0xF1E,
        );
        let mut jsons = Vec::new();
        for workers in [1usize, 2, 8] {
            let fleet = PipelineFleet::with_models(
                FleetConfig {
                    workers,
                    ..FleetConfig::mixed(0, 6)
                },
                models.clone(),
            );
            let (report, stats) = fleet.run_mixed_stats(&[], &cameras).unwrap();
            assert!(stats.workers <= workers.max(1));
            jsons.push(report.to_json());
        }
        assert_eq!(jsons[0], jsons[1]);
        assert_eq!(jsons[1], jsons[2]);
    }
}
