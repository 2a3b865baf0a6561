//! The sharded secure vision pipeline: one camera, N secure cores.
//!
//! High-fps cameras outrun a single vision TA long before microphones do
//! (ROADMAP: "sharded vision TAs"). This pipeline fans one camera's frame
//! stream out across a [`TeePool`]: per secure core a camera PTA, a
//! vision TA session and a capture/filter shard, all relaying through
//! one network fabric to **one** cloud — so the privacy ledger of a
//! sharded device reads exactly like an unsharded one. The vision TAs
//! share one [`FrameCnn`]; with [`ShardedCameraConfig::dedup_models`] the
//! weights are charged to the shared carve-out **once**
//! ([`perisec_optee::TeeCore::register_ta_shared`]) instead of once per
//! session.
//!
//! Wall-clock semantics: each core advances its own virtual clock, so a
//! run's end-to-end virtual time is the *maximum* over cores — cores run
//! concurrently — and a device "keeps up" with a high-fps stream when
//! that maximum stays within the scenario's duration plus one event
//! period of grace.

use std::sync::Arc;

use perisec_core::filter_ta::{default_cloud_host, default_psk, MAX_BATCH_WINDOWS};
use perisec_core::pipeline::{CameraPipelineConfig, SharedModels};
use perisec_core::policy::PrivacyPolicy;
use perisec_core::report::{CloudOutcome, PipelineReport, WorkloadSummary};
use perisec_core::source::SharedSceneQueue;
use perisec_core::stage::{
    PipelineStage, SecureFilterStage, SecureFrameCaptureStage, SecureRelayStage,
};
use perisec_core::vision_ta::{self, VisionTa, VISION_TA_NAME};
use perisec_core::{CoreError, Result};
use perisec_devices::camera::CameraSensor;
use perisec_ml::classifier::Architecture;
use perisec_ml::int8::QuantFrameCnn;
use perisec_ml::quant::QuantMode;
use perisec_ml::vision::FrameCnn;
use perisec_optee::{Supplicant, TaUuid, TeeClient, TeeParam, TeeParams, TeeSessionHandle};
use perisec_relay::cloud::MockCloudService;
use perisec_relay::netsim::NetworkFabric;
use perisec_secure_driver::camera::SecureCameraDriver;
use perisec_secure_driver::camera_pta::{cmd as camera_cmd, CameraPta};
use perisec_tcb::memory::SecureRamFootprint;
use perisec_telemetry::PressureMonitor;
use perisec_tz::power::{Component, ComponentEnergy, EnergyReport};
use perisec_tz::stats::TzStatsSnapshot;
use perisec_tz::time::{SimDuration, SimInstant};
use perisec_workload::scenario::CameraScenario;

use serde::{Deserialize, Serialize};

use crate::batcher::AdaptiveBatcher;
use crate::pool::{TeePool, TeePoolConfig};
use crate::stage::{ShardedFilterStage, ShardedFrameCaptureStage};

/// The camera sensor seed every shard (and the unsharded reference
/// pipeline) uses, so sharded and unsharded runs face the same imaging
/// chain.
const SENSOR_SEED: u64 = 0x5EC2;

/// The per-window fixed cost — the window's amortized share of one TEE
/// crossing plus dispatch — expressed in frame-equivalents of
/// secure-world inference time. This is the weight correction the steal
/// pass applies so that very small window shares stop looking free: when
/// windows shrink towards a single frame (or the model towards a few
/// MACs), the crossing share dwarfs the inference and a frames-only
/// weight misjudges every steal. The crossing is paid once per batch of
/// `batch_windows` windows, so each window carries `crossing / batch`; a
/// pure function of the cost model, the classifier's MAC count and the
/// batch size, so the mirrored capture/filter schedulers derive the same
/// value.
pub fn window_overhead_frames(
    cost: &perisec_tz::cost::CostModel,
    frame_flops: u64,
    batch_windows: usize,
) -> u64 {
    let crossing = AdaptiveBatcher::crossing_overhead(cost).as_nanos() as f64;
    let per_window = crossing / batch_windows.max(1) as f64;
    let frame_ns =
        cost.compute_per_flop.as_nanos() as f64 * cost.secure_compute_penalty * frame_flops as f64;
    if frame_ns <= 0.0 {
        return 0;
    }
    (per_window / frame_ns).round() as u64
}

/// Configuration of the sharded vision pipeline.
#[derive(Debug, Clone)]
pub struct ShardedCameraConfig {
    /// Per-shard camera pipeline parameters (policy, training spec, and
    /// the *fixed* batch size when no SLO is given). The sharded stack
    /// refuses `ingest`, `degrade`, an enabled `telemetry`,
    /// `constrained_platform` and `secure_ram_kib`: it has no ingest hook,
    /// degradation injector or tracer, and its platform comes from
    /// [`ShardedCameraConfig::pool`] alone.
    pub camera: CameraPipelineConfig,
    /// The secure-core pool to shard across.
    pub pool: TeePoolConfig,
    /// Charge the shared frame-classifier weights to the carve-out once
    /// (`true`) or once per co-resident session (`false`, the ablation
    /// E14 measures against).
    pub dedup_models: bool,
    /// When set, an [`AdaptiveBatcher`] picks each crossing's batch size
    /// from queue depth against this per-window latency SLO instead of
    /// using the fixed `camera.batch_windows`.
    pub latency_slo: Option<SimDuration>,
    /// Close the observability loop on the sharded batcher too: when set
    /// (and `latency_slo` is — the spec is inert without a batcher), a
    /// [`perisec_telemetry::PressureMonitor`] watches each crossing's
    /// per-window share of the *whole* fanned filter step and feeds its
    /// Healthy/Degraded/Critical verdict into the batcher, which clips
    /// its curve under pressure. This catches cost the batcher's own
    /// EWMA over TA-internal times misses (relay stalls, steal-pass
    /// imbalance across cores).
    pub slo_pressure: Option<perisec_telemetry::SloSpec>,
    /// Let an idle session steal queued windows from a backlogged sibling
    /// (the scheduler's deterministic rebalance pass — see
    /// [`crate::scheduler::SessionScheduler::assign_with_stealing`]).
    /// Off by default: placement then matches the historical greedy
    /// scheduler exactly.
    pub work_stealing: bool,
}

impl Default for ShardedCameraConfig {
    fn default() -> Self {
        ShardedCameraConfig {
            camera: CameraPipelineConfig::default(),
            pool: TeePoolConfig::default(),
            dedup_models: true,
            latency_slo: None,
            slo_pressure: None,
            work_stealing: false,
        }
    }
}

/// Per-core accounting of one sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreUtilization {
    /// Core index within the pool.
    pub core: usize,
    /// Virtual time the core spent on the run (run-relative; setup is
    /// excluded).
    pub virtual_time: SimDuration,
    /// World switches the core performed during the run.
    pub world_switches: u64,
    /// SMCs the core served during the run.
    pub smc_calls: u64,
    /// Secure-world CPU busy time the run charged to the core.
    pub secure_busy: SimDuration,
    /// Secure busy time over the core's run time (0 when idle).
    pub utilization: f64,
}

/// The report of one sharded run: the familiar [`PipelineReport`] (with
/// pool-aggregated TEE counters; virtual time, energy and cloud bytes
/// are all **run-relative** — setup and earlier runs on the same
/// pipeline are excluded) plus the scheduler-specific extras E14 prints.
#[derive(Debug, Clone)]
pub struct ShardedRunReport {
    /// The merged pipeline report.
    pub report: PipelineReport,
    /// Per-core utilization, in core order.
    pub per_core: Vec<CoreUtilization>,
    /// The shared carve-out at the end of the run, dedup counters
    /// included.
    pub secure_ram: SecureRamFootprint,
    /// Windows moved by the scheduler's steal pass during the run (zero
    /// unless [`ShardedCameraConfig::work_stealing`] is on).
    pub stolen_windows: u64,
}

impl ShardedRunReport {
    /// Whether the device kept up with the stream: its slowest core
    /// finished within `deadline` of virtual time. Callers derive the
    /// deadline from the scenario (duration plus one event period of
    /// grace) — the frame budget of E14.
    pub fn kept_up(&self, deadline: SimDuration) -> bool {
        self.report.virtual_time <= deadline
    }
}

/// The secure camera pipeline sharded across a pool of secure cores.
pub struct ShardedVisionPipeline {
    config: ShardedCameraConfig,
    pool: TeePool,
    cloud: Arc<MockCloudService>,
    fabric: NetworkFabric,
    sessions: Vec<(TeeClient, TeeSessionHandle)>,
    capture: ShardedFrameCaptureStage,
    filter: ShardedFilterStage,
    relay: SecureRelayStage,
    batcher: Option<AdaptiveBatcher>,
    pressure: Option<PressureMonitor>,
}

impl std::fmt::Debug for ShardedVisionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedVisionPipeline")
            .field("shards", &self.pool.len())
            .field("dedup_models", &self.config.dedup_models)
            .field("adaptive", &self.batcher.is_some())
            .finish()
    }
}

impl ShardedVisionPipeline {
    /// Builds the sharded stack, training a fresh frame classifier.
    ///
    /// # Errors
    ///
    /// Fails if the classifier cannot be trained, the pool configuration
    /// is degenerate, or a TEE component cannot be registered.
    pub fn new(config: ShardedCameraConfig) -> Result<Self> {
        let models = SharedModels::deferred(Architecture::Cnn, 16, config.camera.corpus_seed)
            .with_vision_spec(config.camera.train_frames, config.camera.corpus_seed);
        ShardedVisionPipeline::with_models(config, &models)
    }

    /// Builds the sharded stack around a shared model set — the fleet
    /// path: every shard session (and every other device) hands out
    /// `Arc`s of the same frame classifier.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedVisionPipeline::new`].
    pub fn with_models(config: ShardedCameraConfig, models: &SharedModels) -> Result<Self> {
        let vision = models.vision()?;
        // The fleet path reuses the model set's cached int8 form.
        let int8 = match config.camera.quant_mode {
            QuantMode::Int8 => Some(models.vision_int8()?),
            QuantMode::F32 => None,
        };
        ShardedVisionPipeline::build(config, vision, int8)
    }

    /// Builds the sharded stack around an existing trained classifier
    /// (quantizing it on the spot in int8 mode).
    ///
    /// # Errors
    ///
    /// Same as [`ShardedVisionPipeline::new`].
    pub fn with_vision_model(config: ShardedCameraConfig, vision: Arc<FrameCnn>) -> Result<Self> {
        let int8 = match config.camera.quant_mode {
            QuantMode::Int8 => QuantFrameCnn::from_trained(&vision).map(Arc::new),
            QuantMode::F32 => None,
        };
        ShardedVisionPipeline::build(config, vision, int8)
    }

    fn build(
        config: ShardedCameraConfig,
        vision: Arc<FrameCnn>,
        vision_int8: Option<Arc<QuantFrameCnn>>,
    ) -> Result<Self> {
        reject_unsupported(&config.camera)?;
        // Normal world, shared by every core: one fabric, one cloud.
        let fabric = NetworkFabric::new().with_faults(config.camera.faults);
        let cloud = MockCloudService::new(default_psk());
        fabric.register_service(MockCloudService::HOST, cloud.clone());

        let pool = TeePool::boot(&config.pool, |_| {
            let supplicant = Arc::new(Supplicant::new());
            supplicant.set_net_backend(Arc::new(fabric.clone()));
            supplicant
        })?;

        // The weights' content key: co-resident sessions holding the same
        // `Arc` share the same allocation. In int8 mode the *quantized*
        // bytes are what the sessions keep resident, so they are what the
        // shared reservation charges to the TZDRAM carve-out — the ~4x
        // residency drop shows up directly in [`SecureRamFootprint`].
        let (model_key, model_bytes) = match &vision_int8 {
            Some(int8) => (Arc::as_ptr(int8) as u64, int8.memory_bytes()),
            None => (Arc::as_ptr(&vision) as u64, vision.memory_bytes_f32()),
        };

        let mut sessions = Vec::with_capacity(pool.len());
        let mut capture_shards = Vec::with_capacity(pool.len());
        let mut filter_shards = Vec::with_capacity(pool.len());
        for handle in pool.cores() {
            let platform = handle.platform().clone();
            let core = handle.core();
            let scenes = SharedSceneQueue::new();
            let sensor = CameraSensor::smart_home("secure-camera", SENSOR_SEED)
                .map_err(perisec_kernel::KernelError::from)?;
            let driver = SecureCameraDriver::new(platform.clone(), sensor, scenes.source());
            let camera_pta: TaUuid = core
                .register_pta(Box::new(CameraPta::new(driver)))
                .map_err(CoreError::from)?;
            let ta = VisionTa::new(
                camera_pta,
                Arc::clone(&vision),
                vision_int8.clone(),
                config.camera.quant_mode,
                config.camera.policy,
                default_cloud_host(),
                default_psk(),
            )
            .with_retry(config.camera.retry);
            if config.dedup_models {
                core.register_ta_shared(Box::new(ta), model_key, model_bytes)
                    .map_err(CoreError::from)?;
            } else {
                core.register_ta(Box::new(ta)).map_err(CoreError::from)?;
            }
            core.invoke_pta(camera_pta, camera_cmd::CONFIGURE, &mut TeeParams::new())
                .map_err(CoreError::from)?;
            core.invoke_pta(camera_pta, camera_cmd::START, &mut TeeParams::new())
                .map_err(CoreError::from)?;

            let client = TeeClient::connect(Arc::clone(core));
            let (session, _) = client
                .open_session(TaUuid::from_name(VISION_TA_NAME), TeeParams::new())
                .map_err(CoreError::from)?;
            capture_shards.push(SecureFrameCaptureStage::new(platform.clone(), scenes));
            filter_shards.push(SecureFilterStage::new(platform, client.clone(), session));
            sessions.push((client, session));
        }

        let batcher = config
            .latency_slo
            .map(|slo| AdaptiveBatcher::new(&config.pool.cost, slo, MAX_BATCH_WINDOWS));
        // The pressure spec is inert without a batcher to steer.
        let pressure = match (&batcher, config.slo_pressure) {
            (Some(_), Some(spec)) => Some(PressureMonitor::for_spec(spec)),
            _ => None,
        };
        let stealing = config.work_stealing;
        // The steal pass weighs each window by frames *plus* the fixed
        // crossing + dispatch cost (ROADMAP follow-on from the
        // work-stealing item); greedy-only placement keeps the historical
        // frames-only weights, so existing placements are byte-stable.
        let overhead = if stealing {
            window_overhead_frames(
                &config.pool.cost,
                vision.flops_per_inference(),
                config.camera.batch_windows,
            )
        } else {
            0
        };
        Ok(ShardedVisionPipeline {
            config,
            pool,
            cloud,
            fabric,
            sessions,
            capture: ShardedFrameCaptureStage::new(capture_shards)
                .with_stealing(stealing)
                .with_window_overhead(overhead),
            filter: ShardedFilterStage::new(filter_shards)
                .with_stealing(stealing)
                .with_window_overhead(overhead),
            relay: SecureRelayStage::new(),
            batcher,
            pressure,
        })
    }

    /// The slowest core's virtual clock reading — the fleet-facing "now"
    /// of a device whose cores run concurrently (the same max-over-cores
    /// convention the run report's `virtual_time` uses).
    fn fleet_now(&self) -> SimInstant {
        self.pool
            .cores()
            .iter()
            .map(|handle| handle.platform().clock().now())
            .max()
            .unwrap_or(SimInstant::EPOCH)
    }

    /// The current SLO-pressure verdict, when the monitor is configured
    /// (`None` without [`ShardedCameraConfig::slo_pressure`]).
    pub fn pressure_state(&self) -> Option<perisec_telemetry::HealthState> {
        self.pressure.as_ref().map(PressureMonitor::state)
    }

    /// The secure-core pool.
    pub fn pool(&self) -> &TeePool {
        &self.pool
    }

    /// The mock cloud every shard relays to.
    pub fn cloud(&self) -> &Arc<MockCloudService> {
        &self.cloud
    }

    /// Number of shards (TA sessions).
    pub fn shard_count(&self) -> usize {
        self.pool.len()
    }

    /// Installs a new privacy policy in **every** shard's vision TA.
    ///
    /// # Errors
    ///
    /// Propagates the first failing TEE invocation.
    pub fn set_policy(&mut self, policy: PrivacyPolicy) -> Result<()> {
        let (mode, threshold) = policy.to_values();
        for (client, session) in &self.sessions {
            let params = TeeParams::new().with(
                0,
                TeeParam::ValueInput {
                    a: mode,
                    b: threshold,
                },
            );
            client
                .invoke(session, vision_ta::cmd::SET_POLICY, params)
                .map_err(CoreError::from)?;
        }
        self.config.camera.policy = policy;
        Ok(())
    }

    /// Starts a resumable scenario replay: resets the cloud ledger and
    /// records run-relative marks per core and for the network — every
    /// figure of the final report describes *this* run; setup time
    /// (session opens, driver configuration) and earlier runs on the same
    /// pipeline must not blur the budget question.
    pub fn begin_scenario(&mut self) -> ShardedScenarioProgress {
        self.cloud.reset();
        ShardedScenarioProgress {
            before: self.pool.snapshots(),
            bytes_before: self.fabric.stats().bytes_sent,
            stolen_before: self.capture.stolen_windows(),
            run_start: self
                .pool
                .cores()
                .iter()
                .map(|handle| {
                    (
                        handle.platform().clock().now(),
                        handle.platform().energy_report(),
                    )
                })
                .collect(),
            next_event: 0,
        }
    }

    /// Drives **one** batch of the scenario across the pool — one fanned
    /// TEE crossing — and advances the cursor. Returns whether events
    /// remain. The batch size is the fixed `camera.batch_windows` unless
    /// the config carries a latency SLO, in which case the adaptive
    /// batcher picks it from the remaining queue depth. The fleet
    /// executor's yield point for sharded camera devices.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn step_scenario(
        &mut self,
        scenario: &CameraScenario,
        progress: &mut ShardedScenarioProgress,
    ) -> Result<bool> {
        if progress.next_event >= scenario.events.len() {
            return Ok(false);
        }
        let fixed_batch = self.config.camera.batch_windows.max(1);
        let depth = scenario.events.len() - progress.next_event;
        let batch = match &self.batcher {
            Some(batcher) => batcher.pick_batch(depth),
            None => fixed_batch,
        }
        .min(depth);
        let chunk = scenario.events[progress.next_event..progress.next_event + batch].to_vec();
        let windows = chunk.len() as u64;
        let prepared = self.capture.process(chunk)?;
        let filter_start = self.fleet_now();
        let filtered = self.filter.process(prepared.into())?;
        let filter_end = self.fleet_now();
        if let Some(batcher) = &mut self.batcher {
            if windows > 0 && !filtered.per_utterance.is_empty() {
                let mean = filtered.per_utterance.iter().copied().sum::<SimDuration>()
                    / filtered.per_utterance.len() as u64;
                batcher.observe(mean);
            }
            if let Some(pressure) = &mut self.pressure {
                // The monitor sees the per-window share of the whole
                // fanned crossing (slowest core to slowest core), not the
                // TA-internal per-utterance times the EWMA averages — so
                // crossing overhead and cross-core imbalance count.
                pressure.observe(filter_end.duration_since(filter_start) / windows.max(1));
                batcher.set_pressure(pressure.advance(filter_end));
            }
            // Relay backlog overrides any SLO verdict: a shard's bounded
            // unacked buffer is backing up, so fall to single-window
            // probes until the network drains it.
            if filtered.backlog > 0 {
                batcher.set_pressure(perisec_telemetry::HealthState::Critical);
            }
        }
        let backlog = filtered.backlog;
        self.relay.process(filtered)?;
        progress.next_event += batch;
        let more = progress.next_event < scenario.events.len();
        if !more && backlog > 0 {
            // The scenario ended with unacked records still buffered in
            // some shard: a blocking drain on every shard retires them,
            // so the report never misses a verdict the network delayed.
            // Skipped on a clean finish — the healthy path pays no extra
            // TEE crossings.
            self.filter.drain_relay()?;
        }
        Ok(more)
    }

    /// Assembles the run report of a stepped-to-completion replay.
    pub fn finish_scenario(
        &mut self,
        scenario: &CameraScenario,
        progress: ShardedScenarioProgress,
    ) -> ShardedRunReport {
        let ShardedScenarioProgress {
            before,
            bytes_before,
            stolen_before,
            run_start,
            next_event: _,
        } = progress;
        let latency = self.relay.take_breakdown();
        let tz: TzStatsSnapshot = self.pool.aggregate_delta(&before);
        let mut per_core = Vec::with_capacity(self.pool.len());
        let mut energy_reports = Vec::with_capacity(self.pool.len());
        let mut run_elapsed_max = SimDuration::ZERO;
        for (core_index, (handle, earlier)) in self.pool.cores().iter().zip(&before).enumerate() {
            let snapshot = handle.platform().stats().snapshot().delta_since(earlier);
            let (started, energy_before) = &run_start[core_index];
            let energy = diff_energy(&handle.platform().energy_report(), energy_before);
            let elapsed = handle.platform().clock().elapsed_since(*started);
            run_elapsed_max = run_elapsed_max.max(elapsed);
            let secure_busy = energy
                .per_component
                .get(&Component::CpuSecureWorld)
                .map(|c| c.busy)
                .unwrap_or(SimDuration::ZERO);
            let utilization = if elapsed.is_zero() {
                0.0
            } else {
                secure_busy.as_secs_f64() / elapsed.as_secs_f64()
            };
            per_core.push(CoreUtilization {
                core: core_index,
                virtual_time: elapsed,
                world_switches: snapshot.world_switches,
                smc_calls: snapshot.smc_calls,
                secure_busy,
                utilization,
            });
            energy_reports.push(energy);
        }

        let report = PipelineReport {
            pipeline: "secure-camera-sharded".to_owned(),
            workload: WorkloadSummary {
                utterances: scenario.len(),
                sensitive_utterances: scenario.sensitive_count(),
            },
            latency,
            cloud: CloudOutcome {
                report: self.cloud.report(),
                sensitive_ids: scenario.sensitive_ids(),
            },
            tz,
            energy: merge_energy(energy_reports),
            // Run-relative, max over cores: the slowest core's virtual
            // time spent on this scenario (cores run concurrently, and
            // pipeline setup must not count against the frame budget).
            virtual_time: run_elapsed_max,
            bytes_to_cloud: self.fabric.stats().bytes_sent - bytes_before,
        };
        ShardedRunReport {
            report,
            per_core,
            secure_ram: SecureRamFootprint::measure(self.pool.secure_ram()),
            stolen_windows: self.capture.stolen_windows() - stolen_before,
        }
    }

    /// Replays a camera scenario end to end across the pool and reports
    /// on it — `begin`, `step` per crossing, `finish`.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn run_scenario(&mut self, scenario: &CameraScenario) -> Result<ShardedRunReport> {
        let mut progress = self.begin_scenario();
        while self.step_scenario(scenario, &mut progress)? {}
        Ok(self.finish_scenario(scenario, progress))
    }
}

/// Refuses, by name, the first camera-config field the sharded stack
/// would otherwise ignore (see [`ShardedCameraConfig::camera`]).
fn reject_unsupported(camera: &CameraPipelineConfig) -> Result<()> {
    let set = [
        ("camera.ingest", camera.ingest.is_some()),
        ("camera.degrade", camera.degrade.is_some()),
        ("camera.telemetry", camera.telemetry.enabled),
        ("camera.constrained_platform", camera.constrained_platform),
        ("camera.secure_ram_kib", camera.secure_ram_kib.is_some()),
    ];
    match set.iter().find(|(_, is_set)| *is_set) {
        Some((field, _)) => Err(CoreError::Config {
            reason: format!(
                "the sharded vision pipeline does not support {field}: it has no \
                 ingest hook, degradation injector or tracer, and its platform \
                 comes from ShardedCameraConfig::pool"
            ),
        }),
        None => Ok(()),
    }
}

/// Cursor over one sharded scenario replay: run-relative marks per core
/// plus the next event to dispatch — the sharded twin of
/// `perisec_core::pipeline::ScenarioProgress`.
#[derive(Debug)]
pub struct ShardedScenarioProgress {
    before: Vec<TzStatsSnapshot>,
    bytes_before: u64,
    stolen_before: u64,
    run_start: Vec<(SimInstant, EnergyReport)>,
    next_event: usize,
}

/// Energy accrued between two reports of one core's meter: window, busy
/// time and energy all subtract (floats clamped at zero against rounding
/// noise), so a run's energy covers the run — not setup, not earlier
/// runs on the same pipeline.
fn diff_energy(after: &EnergyReport, before: &EnergyReport) -> EnergyReport {
    let mut per_component = std::collections::BTreeMap::new();
    for (component, late) in &after.per_component {
        let early = before.per_component.get(component);
        per_component.insert(
            *component,
            ComponentEnergy {
                busy: late.busy - early.map(|e| e.busy).unwrap_or(SimDuration::ZERO),
                energy_mj: (late.energy_mj - early.map(|e| e.energy_mj).unwrap_or(0.0)).max(0.0),
            },
        );
    }
    EnergyReport {
        window: after.window - before.window,
        total_mj: (after.total_mj - before.total_mj).max(0.0),
        per_component,
    }
}

/// Merges per-core energy reports: cores draw power concurrently, so the
/// observation window is the longest core's, while busy time and energy
/// add up.
fn merge_energy(reports: Vec<EnergyReport>) -> EnergyReport {
    let mut merged = EnergyReport {
        window: SimDuration::ZERO,
        total_mj: 0.0,
        per_component: std::collections::BTreeMap::new(),
    };
    for report in reports {
        merged.window = merged.window.max(report.window);
        merged.total_mj += report.total_mj;
        for (component, energy) in report.per_component {
            let entry = merged
                .per_component
                .entry(component)
                .or_insert(ComponentEnergy {
                    busy: SimDuration::ZERO,
                    energy_mj: 0.0,
                });
            entry.busy += energy.busy;
            entry.energy_mj += energy.energy_mj;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_overhead_derivation_scales_with_model_and_batch() {
        let cost = perisec_tz::cost::CostModel::iot_quad_node();
        // A tiny model at batch 1: the crossing dwarfs per-frame
        // inference and the fixed cost dominates the weight.
        assert!(window_overhead_frames(&cost, 100, 1) > 10);
        // The production frame CNN at batch >= 4: the amortized crossing
        // share stays below one frame-equivalent, so historical
        // frames-only placements are preserved.
        assert_eq!(window_overhead_frames(&cost, 12_000, 4), 0);
        // Bigger batches amortize the crossing further.
        assert!(window_overhead_frames(&cost, 100, 8) < window_overhead_frames(&cost, 100, 1));
        // A free cost model degenerates to frames-only weighting.
        assert_eq!(
            window_overhead_frames(&perisec_tz::cost::CostModel::free(), 100, 1),
            0
        );
    }

    fn small_config(cores: usize) -> ShardedCameraConfig {
        ShardedCameraConfig {
            camera: CameraPipelineConfig {
                batch_windows: 2,
                ..CameraPipelineConfig::default()
            },
            pool: TeePoolConfig::jetson(cores),
            ..ShardedCameraConfig::default()
        }
    }

    /// Builds a two-shard stack around an untrained classifier after
    /// `set` edits its camera config, and checks that the build is
    /// refused by an error naming `field`.
    fn assert_refused(field: &str, set: impl FnOnce(&mut CameraPipelineConfig)) {
        let mut config = small_config(2);
        set(&mut config.camera);
        let vision = Arc::new(FrameCnn::new(perisec_ml::vision::VisionConfig::smart_home()));
        let error = ShardedVisionPipeline::with_vision_model(config, vision)
            .expect_err("an unsupported camera field was accepted")
            .to_string();
        assert!(error.contains(field), "{error}");
    }

    #[test]
    fn refuses_an_ingest_hook() {
        #[derive(Debug)]
        struct NoPlane;
        impl perisec_relay::attest::SessionIngest for NoPlane {
            fn handle(&self, _: u64, _: u64, _: &[u8]) -> Vec<u8> {
                Vec::new()
            }
            fn session_report(&self, _: u64) -> perisec_relay::cloud::CloudReport {
                Default::default()
            }
            fn reset_session(&self, _: u64) {}
        }
        let hook = perisec_core::IngestHook::new(Arc::new(NoPlane), 0);
        assert_refused("camera.ingest", |camera| camera.ingest = Some(hook));
    }

    #[test]
    fn refuses_a_degrade_spec() {
        let degrade = perisec_core::pipeline::DegradeSpec {
            after: SimDuration::ZERO,
            per_window: SimDuration::from_millis(1),
        };
        assert_refused("camera.degrade", |camera| camera.degrade = Some(degrade));
    }

    #[test]
    fn refuses_enabled_telemetry() {
        let metrics = perisec_telemetry::TelemetryConfig::metrics();
        assert_refused("camera.telemetry", |camera| camera.telemetry = metrics);
    }

    #[test]
    fn refuses_the_constrained_platform() {
        assert_refused("camera.constrained_platform", |camera| {
            camera.constrained_platform = true
        });
    }

    #[test]
    fn refuses_a_secure_ram_override() {
        assert_refused("camera.secure_ram_kib", |camera| {
            camera.secure_ram_kib = Some(4096)
        });
    }

    #[test]
    fn sharded_pipeline_filters_and_keeps_cores_busy() {
        let mut pipeline = ShardedVisionPipeline::new(small_config(2)).unwrap();
        let scenario = CameraScenario::mixed_scenes(12, 0.5, SimDuration::from_secs(2), 0x5C2D);
        assert!(scenario.sensitive_count() > 0);
        let run = pipeline.run_scenario(&scenario).unwrap();

        assert_eq!(run.report.workload.utterances, 12);
        assert_eq!(run.report.cloud.leaked_sensitive_utterances(), 0);
        assert!(run.report.cloud.received_utterances() >= 1);
        // Both cores really worked and reported coherent utilization.
        assert_eq!(run.per_core.len(), 2);
        for core in &run.per_core {
            assert!(core.smc_calls >= 1, "core {} never entered", core.core);
            assert!(core.secure_busy > SimDuration::ZERO);
            assert!(core.utilization > 0.0 && core.utilization <= 1.0);
        }
        // Wall time is the max over cores, not the sum.
        let max_core = run.per_core.iter().map(|c| c.virtual_time).max().unwrap();
        assert_eq!(run.report.virtual_time, max_core);
        // Verdict records only — no payload bytes at the cloud.
        assert!(run
            .report
            .cloud
            .report
            .events
            .iter()
            .all(|e| e.audio_bytes == 0 && e.encrypted));
    }

    #[test]
    fn dedup_charges_the_model_once_across_sessions() {
        let with_dedup = ShardedVisionPipeline::new(small_config(4)).unwrap();
        let without = ShardedVisionPipeline::new(ShardedCameraConfig {
            dedup_models: false,
            ..small_config(4)
        })
        .unwrap();
        let deduped = with_dedup.pool().secure_ram().bytes_in_use();
        let duplicated = without.pool().secure_ram().bytes_in_use();
        assert!(
            deduped < duplicated,
            "dedup {deduped} B should undercut duplicated {duplicated} B"
        );
        assert!(with_dedup.pool().secure_ram().dedup_saved_bytes() > 0);
        assert_eq!(with_dedup.pool().secure_ram().dedup_hits(), 3);
        assert_eq!(without.pool().secure_ram().dedup_hits(), 0);
    }

    #[test]
    fn adaptive_batcher_drives_the_run_within_slo() {
        let mut pipeline = ShardedVisionPipeline::new(ShardedCameraConfig {
            latency_slo: Some(SimDuration::from_millis(5)),
            ..small_config(2)
        })
        .unwrap();
        let scenario = CameraScenario::mixed_scenes(10, 0.4, SimDuration::from_millis(10), 0xADAB);
        let run = pipeline.run_scenario(&scenario).unwrap();
        assert_eq!(run.report.cloud.leaked_sensitive_utterances(), 0);
        assert_eq!(run.report.workload.utterances, 10);
        assert!(run.report.latency.p99_end_to_end() > SimDuration::ZERO);
    }

    #[test]
    fn slo_pressure_steers_the_sharded_batcher_without_changing_outcomes() {
        use perisec_telemetry::{HealthState, SloSpec};

        let scenario = CameraScenario::mixed_scenes(16, 0.4, SimDuration::from_millis(10), 0x9E55);
        let base = ShardedCameraConfig {
            latency_slo: Some(SimDuration::from_millis(5)),
            ..small_config(2)
        };
        let mut plain = ShardedVisionPipeline::new(base.clone()).unwrap();
        let a = plain.run_scenario(&scenario).unwrap();
        assert_eq!(plain.pressure_state(), None);

        // An unattainable objective: every observed crossing breaches, so
        // the monitor demotes and the batcher runs clipped — same
        // verdicts at the cloud, never fewer crossings than the pure
        // curve.
        let mut pressured = ShardedVisionPipeline::new(ShardedCameraConfig {
            slo_pressure: Some(SloSpec::p95("shard.filter", SimDuration::from_nanos(1))),
            ..base.clone()
        })
        .unwrap();
        let b = pressured.run_scenario(&scenario).unwrap();
        assert_ne!(pressured.pressure_state(), Some(HealthState::Healthy));
        assert_eq!(
            a.report.cloud.received_utterances(),
            b.report.cloud.received_utterances()
        );
        assert_eq!(
            a.report.cloud.leaked_sensitive_utterances(),
            b.report.cloud.leaked_sensitive_utterances()
        );
        assert!(b.report.tz.smc_calls >= a.report.tz.smc_calls);

        // Without a latency SLO there is no batcher, so the spec is
        // inert and no monitor is built.
        let inert = ShardedVisionPipeline::new(ShardedCameraConfig {
            latency_slo: None,
            slo_pressure: Some(SloSpec::p95("shard.filter", SimDuration::from_nanos(1))),
            ..small_config(2)
        })
        .unwrap();
        assert_eq!(inert.pressure_state(), None);
    }

    #[test]
    fn repeated_runs_report_run_relative_figures() {
        let mut pipeline = ShardedVisionPipeline::new(small_config(2)).unwrap();
        let scenario = CameraScenario::mixed_scenes(6, 0.4, SimDuration::from_millis(50), 0x2E);
        let first = pipeline.run_scenario(&scenario).unwrap();
        let second = pipeline.run_scenario(&scenario).unwrap();
        // Same scenario, same decisions: the second report must describe
        // only its own run, not accumulate the first one's traffic or
        // energy. The second run can only be cheaper — the channel
        // handshake happened in the first, and replayed (past) event
        // timestamps leave no idle gaps — never the sum of both runs.
        assert!(first.report.bytes_to_cloud > 0);
        assert!(second.report.bytes_to_cloud > 0);
        assert!(second.report.bytes_to_cloud <= first.report.bytes_to_cloud);
        assert!(second.report.energy.total_mj <= first.report.energy.total_mj);
        assert!(second.report.energy.window <= first.report.energy.window);
        assert!(second.report.virtual_time <= first.report.virtual_time);
    }

    #[test]
    fn policy_updates_reach_every_shard() {
        let mut pipeline = ShardedVisionPipeline::new(small_config(2)).unwrap();
        let scenario = CameraScenario::mixed_scenes(8, 1.0, SimDuration::from_secs(1), 0xA11);
        pipeline.set_policy(PrivacyPolicy::allow_all()).unwrap();
        let permissive = pipeline.run_scenario(&scenario).unwrap();
        assert!(permissive.report.cloud.leakage_rate() > 0.5);
        pipeline
            .set_policy(PrivacyPolicy::block_sensitive())
            .unwrap();
        let strict = pipeline.run_scenario(&scenario).unwrap();
        assert_eq!(strict.report.cloud.leaked_sensitive_utterances(), 0);
    }
}
