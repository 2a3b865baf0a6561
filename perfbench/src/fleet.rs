//! The three fleet workloads: `audio_fleet`, `camera_fleet` and
//! `camera_plane_chaos`. A fleet is a closed batch job — every device is
//! queued at start on `WORKERS` executor threads — driven through
//! `PipelineFleet::run_mixed_stats` (or `run_mixed_telemetry` in the
//! traced run).

use std::sync::Arc;
use std::time::Instant;

use perisec::core::fleet::{FleetConfig, FleetReport, PipelineFleet};
use perisec::core::pipeline::{
    CameraPipelineConfig, PipelineConfig, SecureCameraPipeline, SecurePipeline, SharedModels,
};
use perisec::core::{ExecutorStats, IngestHook, VISION_TA_NAME};
use perisec::devices::camera::CameraSensor;
use perisec::ingest::{IngestPlane, IngestPlaneConfig, ShardFaultSpec};
use perisec::ml::plan::FeaturePlan;
use perisec::relay::measurement_of;
use perisec::relay::netsim::FaultSpec;
use perisec::telemetry::{FleetTelemetry, TelemetryConfig};
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::{CameraScenario, Scenario};

use crate::host::{self, Fnv};
use crate::report::{ChildReport, DeviceOutcome};
use crate::spans::SpanLog;
use crate::Role;

/// Fleet executor workers: one per core of the 2-core reference host.
pub const WORKERS: usize = 2;
/// Events driven through one TEE crossing.
const BATCH: usize = 4;
/// Shards of the chaos workload's ingest plane.
const CHAOS_SHARDS: usize = 4;
/// Seed of the camera the secure pipeline builds (its frames depend on
/// it), reused so the replayed captures render the same sensor.
const PIPELINE_CAMERA_SEED: u64 = 0x5EC2;

/// Which fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// Audio devices on the direct cloud path, no faults.
    Audio,
    /// Camera devices on the direct cloud path, no faults.
    Camera,
    /// Camera devices through a crashing multi-shard ingest plane over a
    /// lossy, duplicating link.
    CameraPlaneChaos,
}

/// How big one run of a fleet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSize {
    /// Devices in the fleet.
    pub devices: usize,
    /// Utterances or one-frame camera windows per device.
    pub events: usize,
    /// Devices replayed one by one under spans in the traced run.
    pub sample: usize,
}

/// The generated inputs and built planes of one run; everything here is
/// made before the timer starts.
struct Prepared {
    models: SharedModels,
    audio: Vec<Scenario>,
    cameras: Vec<CameraScenario>,
    plane: Option<Arc<IngestPlane>>,
}

fn audio_pipeline() -> PipelineConfig {
    PipelineConfig {
        batch_windows: BATCH,
        ..PipelineConfig::default()
    }
}

fn camera_pipeline() -> CameraPipelineConfig {
    CameraPipelineConfig {
        batch_windows: BATCH,
        ..CameraPipelineConfig::default()
    }
}

/// The chaos link: drops and duplicates, salted per device by the fleet.
fn chaos_link(seed: u64) -> FaultSpec {
    FaultSpec {
        drop_permille: 100,
        duplicate_permille: 150,
        ..FaultSpec::none(seed)
    }
}

/// The chaos plane: every shard crashes once inside the stretch of
/// virtual time in which each device relays (its second camera event
/// lands at 33.3 ms; on a clean link the hello, attestation and first
/// record follow at about 33.46, 33.52 and 33.57 ms), so devices see
/// their shard go dark between attesting and sending, and must
/// re-attest. The window is not jittered: every device meets the same
/// crash, and only the per-device link faults vary with the seed.
fn chaos_plane(sessions: usize, seed: u64) -> Arc<IngestPlane> {
    IngestPlane::new(
        IngestPlaneConfig::new(CHAOS_SHARDS, sessions)
            .accepting(vec![measurement_of(VISION_TA_NAME)])
            .with_faults(ShardFaultSpec::single(seed, 33_530_000, 30_000)),
    )
}

fn prepare(kind: FleetKind, size: FleetSize, seed: u64, role: Role) -> Result<Prepared, String> {
    let camera = camera_pipeline();
    let models = match kind {
        FleetKind::Audio => SharedModels::for_config(&audio_pipeline()).map_err(err)?,
        FleetKind::Camera | FleetKind::CameraPlaneChaos => {
            let models = SharedModels::deferred_for_config(&audio_pipeline())
                .with_vision_spec(camera.train_frames, camera.corpus_seed);
            models.vision_int8().map_err(err)?;
            models
        }
    };
    let (audio, cameras) = match kind {
        FleetKind::Audio => (
            Scenario::fleet(
                size.devices,
                size.events,
                0.3,
                SimDuration::from_secs(1),
                seed,
            ),
            Vec::new(),
        ),
        FleetKind::Camera | FleetKind::CameraPlaneChaos => (
            Vec::new(),
            CameraScenario::fleet_high_fps(size.devices, size.events, 1, 30, 0.4, seed),
        ),
    };
    // The reference of the chaos workload is the fault-free direct run.
    let plane = (kind == FleetKind::CameraPlaneChaos && role != Role::Reference)
        .then(|| chaos_plane(size.devices, seed));
    Ok(Prepared {
        models,
        audio,
        cameras,
        plane,
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn fleet_config(
    kind: FleetKind,
    size: FleetSize,
    seed: u64,
    role: Role,
    plane: Option<&Arc<IngestPlane>>,
) -> FleetConfig {
    let (audio_devices, camera_devices) = match kind {
        FleetKind::Audio => (size.devices, 0),
        FleetKind::Camera | FleetKind::CameraPlaneChaos => (0, size.devices),
    };
    FleetConfig {
        devices: audio_devices,
        pipeline: audio_pipeline(),
        camera_devices,
        camera_pipeline: camera_pipeline(),
        // The reference runs on one worker: the determinism contract
        // says the schedule cannot change a decision.
        workers: if role == Role::Reference { 1 } else { WORKERS },
        telemetry: if role == Role::Traced {
            TelemetryConfig::metrics()
        } else {
            TelemetryConfig::default()
        },
        faults: plane.map(|_| chaos_link(seed)),
        ingest: plane.map(|p| Arc::clone(p) as _),
        ..FleetConfig::of(0)
    }
}

/// Runs one child of a fleet workload: set-up, one timed fleet run, the
/// outcome the checker needs and, in the traced role, the layer metrics.
///
/// # Errors
///
/// Fails when set-up fails; a failed fleet run is reported (as `error`)
/// for the checker to count, not returned.
pub fn run(
    kind: FleetKind,
    size: FleetSize,
    seed: u64,
    role: Role,
    log: &mut SpanLog,
) -> Result<ChildReport, String> {
    let (prepared, setup_s) = host::repeat_setup(|| prepare(kind, size, seed, role))?;
    let fleet = PipelineFleet::with_models(
        fleet_config(kind, size, seed, role, prepared.plane.as_ref()),
        prepared.models.clone(),
    );
    let mut out = ChildReport::default();
    out.set("setup_s", setup_s);

    let rss_before = host::rss_mb();
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let result = if role == Role::Traced {
        fleet
            .run_mixed_telemetry(&prepared.audio, &prepared.cameras)
            .map(|(report, stats, telemetry)| (report, stats, Some(telemetry)))
    } else {
        fleet
            .run_mixed_stats(&prepared.audio, &prepared.cameras)
            .map(|(report, stats)| (report, stats, None))
    };
    let round_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let (report, stats, telemetry) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            out.set("error", 1.0);
            out.set("events", (size.devices * size.events) as f64);
            return Ok(out);
        }
    };
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set(
        "memory.rss_kb_per_device",
        (host::peak_rss_mb() - rss_before) * 1024.0 / size.devices as f64,
    );
    record_outcome(&mut out, &report, &stats, round_s, cpu_s);
    if let Some(plane) = &prepared.plane {
        record_plane(&mut out, plane);
    }
    if let Some(telemetry) = telemetry {
        record_telemetry(&mut out, &telemetry, &report);
    }
    drop(report);
    if role == Role::Traced {
        replay_sample(kind, size, seed, &prepared, log)?;
        record_spans(&mut out, log);
    }
    Ok(out)
}

fn record_outcome(
    out: &mut ChildReport,
    report: &FleetReport,
    stats: &ExecutorStats,
    round_s: f64,
    cpu_s: f64,
) {
    let events = report.total_utterances() as f64;
    out.set("events", events);
    out.set("round_s", round_s);
    out.set("events_per_s", events / round_s);
    out.set(
        "executor.cpu_busy_share",
        cpu_s / (round_s * stats.workers.max(1) as f64),
    );
    out.set("executor.idle_parks", stats.idle_parks as f64);
    out.set("executor.steals", stats.tasks_stolen() as f64);
    out.set("executor.step_slices", stats.step_slices as f64);
    out.set("executor.peak_resident", stats.peak_resident as f64);
    let latency = report.latency_percentiles();
    out.set("sim_latency_mean_ms", ms(latency.mean));
    out.set("sim.latency_p50_ms", ms(latency.p50));
    out.set("sim.latency_p99_ms", ms(latency.p99));
    let per_event = |total: f64| total / events.max(1.0);
    out.set(
        "tz.world_switches_per_event",
        per_event(report.total_world_switches() as f64),
    );
    out.set(
        "tz.smc_calls_per_event",
        per_event(report.total_smc_calls() as f64),
    );
    let rpcs: u64 = report
        .devices()
        .iter()
        .map(|d| d.report.tz.supplicant_rpcs)
        .sum();
    out.set("tz.supplicant_rpcs_per_event", per_event(rpcs as f64));
    out.set(
        "tz.energy_mj_per_event",
        per_event(report.total_energy_mj()),
    );
    out.set(
        "check.leaked_sensitive",
        report.leaked_sensitive_utterances() as f64,
    );
    out.set(
        "check.cloud_payload_bytes",
        report.total_payload_bytes() as f64,
    );
    out.set(
        "relay.redelivered",
        report.total_redelivered_records() as f64,
    );
    out.set("relay.rejected", report.total_rejected_records() as f64);
    out.digest = host::digest(report.cloud_decisions_json().as_bytes());
    out.devices = report
        .devices()
        .iter()
        .map(|d| {
            let events = &d.report.cloud.report.events;
            let mut digest = Fnv::default();
            for e in events {
                digest
                    .write(&e.dialog_id.to_le_bytes())
                    .write(e.text.as_deref().unwrap_or("\u{0}").as_bytes())
                    .write(&(e.audio_bytes as u64).to_le_bytes())
                    .write(&[u8::from(e.encrypted)]);
            }
            DeviceOutcome {
                events: events.len() as u64,
                digest: digest.hex(),
                leaked: d.report.cloud.leaked_sensitive_utterances() as u64,
                payload_bytes: events.iter().map(|e| e.audio_bytes as u64).sum(),
            }
        })
        .collect();
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Plane counters and the committed-per-shard balance.
fn record_plane(out: &mut ChildReport, plane: &IngestPlane) {
    let counters = plane.counters();
    out.set(
        "ingest.stale_epoch_rejects",
        counters.stale_epoch_rejects as f64,
    );
    out.set(
        "ingest.backpressure_rejects",
        counters.backpressure_rejects as f64,
    );
    out.set("ingest.attest_grants", counters.attest_grants as f64);
    out.set("attest_rejects", counters.attest_rejects as f64);
    out.set(
        "ingest.shard_skew",
        shard_skew(&plane.committed_per_shard()),
    );
}

/// Max over mean of the records committed per shard (1 = balanced).
pub(crate) fn shard_skew(committed: &[u64]) -> f64 {
    let total: u64 = committed.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / committed.len() as f64;
    committed.iter().copied().max().unwrap_or(0) as f64 / mean
}

/// The virtual-time spans and counters the program's own tracer folded.
fn record_telemetry(out: &mut ChildReport, telemetry: &FleetTelemetry, report: &FleetReport) {
    for (span, metric) in SIM_SPANS {
        let mean = telemetry
            .histograms
            .get(span)
            .map_or(0.0, |h| h.mean().as_nanos() as f64 / 1e3);
        out.set(metric, mean);
    }
    let counter = |name: &str| telemetry.counters.get(name).copied().unwrap_or(0) as f64;
    // Windows each PROCESS_BATCH command carried into the TEE.
    let crossings = telemetry
        .histograms
        .get("tee-filter")
        .map_or(0, |h| h.count()) as f64;
    out.set(
        "optee.batched_commands_per_crossing",
        counter("pipeline.windows") / crossings.max(1.0),
    );
    out.set(
        "relay.retries_per_record",
        counter("relay.retries") / (report.total_utterances() as f64).max(1.0),
    );
}

/// Span names of the program's virtual-time tracer and the metric each
/// mean is reported under.
const SIM_SPANS: [(&str, &str); 11] = [
    ("secure-capture", "sim.secure-capture_us"),
    ("secure-frame-capture", "sim.secure-frame-capture_us"),
    ("tee-filter", "sim.tee-filter_us"),
    ("secure-relay", "sim.secure-relay_us"),
    ("smc.call", "sim.smc.call_us"),
    ("tee.invoke_batch", "sim.tee.invoke_batch_us"),
    ("tee.rpc", "sim.tee.rpc_us"),
    ("ta.mfcc", "sim.ta.mfcc_us"),
    ("ta.stt", "sim.ta.stt_us"),
    ("ta.classify", "sim.ta.classify_us"),
    ("relay.retry", "sim.relay.retry_us"),
];

/// Replays `size.sample` devices one by one under spans: the stack build,
/// every step and the finish through the public pipeline calls, then the
/// render, capture and ML calls each step made, timed alone so the
/// step's remainder (capture, TEE crossing, relay simulation) shows as
/// `core.step_residual_us`.
fn replay_sample(
    kind: FleetKind,
    size: FleetSize,
    seed: u64,
    prepared: &Prepared,
    log: &mut SpanLog,
) -> Result<(), String> {
    let models = &prepared.models;
    // A fresh plane: the fleet's sessions already hold state.
    let plane = prepared
        .plane
        .as_ref()
        .map(|_| chaos_plane(size.devices, seed));
    let mut plan = FeaturePlan::new();
    let sample = size.sample.clamp(1, size.devices);
    for k in 0..sample {
        let device = k * size.devices / sample;
        let owner = device as u64;
        let root = log.enter("device", owner);
        match kind {
            FleetKind::Audio => {
                let scenario = &prepared.audio[device];
                let build = log.enter("core.build", owner);
                let mut pipeline =
                    SecurePipeline::with_models(audio_pipeline(), models).map_err(err)?;
                let mut progress = pipeline.begin_scenario();
                log.exit(build);
                loop {
                    let step = log.enter("core.step", owner);
                    let more = pipeline
                        .step_scenario(scenario, &mut progress)
                        .map_err(err)?;
                    log.exit(step);
                    if !more {
                        break;
                    }
                }
                let finish = log.enter("core.finish", owner);
                let report = pipeline.finish_scenario(scenario, progress);
                drop(pipeline);
                log.exit(finish);
                std::hint::black_box(report);
                let audio = models.audio().map_err(err)?;
                let classifier = audio
                    .classifier_int8
                    .as_ref()
                    .ok_or("the CNN classifier has no int8 form")?;
                let replay = log.enter("replay", owner);
                for event in &scenario.events {
                    let rendered = log.leaf("workload.render", owner, || {
                        audio.synth.render_tokens(&event.utterance.tokens)
                    });
                    let tokens = log.leaf("ml.stt", owner, || {
                        audio
                            .stt
                            .transcribe_to_tokens_int8_with(rendered.samples(), &mut plan)
                    });
                    let p = log.leaf("ml.classify", owner, || {
                        classifier.predict_with(&tokens, &mut plan)
                    });
                    std::hint::black_box(p.map_err(err)?);
                }
                log.exit(replay);
            }
            FleetKind::Camera | FleetKind::CameraPlaneChaos => {
                let scenario = &prepared.cameras[device];
                let mut config = camera_pipeline();
                if let Some(plane) = &plane {
                    config.faults = Some(chaos_link(seed).for_device(owner));
                    config.ingest = Some(IngestHook::new(Arc::clone(plane) as _, owner));
                }
                let build = log.enter("core.build", owner);
                let mut pipeline =
                    SecureCameraPipeline::with_models(config, models).map_err(err)?;
                let mut progress = pipeline.begin_scenario();
                log.exit(build);
                loop {
                    let step = log.enter("core.step", owner);
                    let more = pipeline
                        .step_scenario(scenario, &mut progress)
                        .map_err(err)?;
                    log.exit(step);
                    if !more {
                        break;
                    }
                }
                let finish = log.enter("core.finish", owner);
                let report = pipeline.finish_scenario(scenario, progress);
                drop(pipeline);
                log.exit(finish);
                std::hint::black_box(report);
                let vision = models.vision_int8().map_err(err)?;
                let mut sensor =
                    CameraSensor::smart_home("replay-camera", PIPELINE_CAMERA_SEED).map_err(err)?;
                sensor.start();
                let replay = log.enter("replay", owner);
                for event in &scenario.events {
                    for _ in 0..event.frames.max(1) {
                        let frame = log
                            .leaf("devices.frame_capture", owner, || {
                                sensor.capture_frame(event.scene)
                            })
                            .map_err(err)?;
                        let p = log.leaf("ml.frame_classify", owner, || {
                            vision.predict_with(&frame.pixels, &mut plan)
                        });
                        std::hint::black_box(p.map_err(err)?);
                    }
                }
                log.exit(replay);
            }
        }
        log.exit(root);
    }
    Ok(())
}

/// Host-time layer metrics from the sampled devices' spans.
fn record_spans(out: &mut ChildReport, log: &SpanLog) {
    let totals = log.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    for (span, metric) in [
        ("workload.render", "workload.render_us"),
        ("ml.stt", "ml.stt_us"),
        ("ml.classify", "ml.classify_us"),
        ("ml.frame_classify", "ml.frame_classify_us"),
        ("devices.frame_capture", "devices.frame_capture_us"),
        ("core.build", "core.build_us"),
        ("core.step", "core.step_us"),
        ("core.finish", "core.finish_us"),
    ] {
        out.set(metric, get(span).mean_us());
    }
    let ns = |name: &str| get(name).total_ns as f64;
    let workload = ns("workload.render");
    let ml = ns("ml.stt") + ns("ml.classify") + ns("ml.frame_classify");
    let devices = ns("devices.frame_capture");
    let steps = get("core.step");
    let residual = steps.total_ns as f64 - (workload + ml + devices);
    out.set(
        "core.step_residual_us",
        residual / (steps.count.max(1) as f64) / 1e3,
    );
    // A device's host cost is its build, steps and finish; the replayed
    // calls re-time the part of the steps that belongs to other layers.
    let device = ns("core.build") + steps.total_ns as f64 + ns("core.finish");
    let pct = |x: f64| 100.0 * x / device.max(1.0);
    out.set("self.workload_pct", pct(workload));
    out.set("self.ml_pct", pct(ml));
    out.set("self.devices_pct", pct(devices));
    out.set("self.core_pct", pct(device - workload - ml - devices));
}
