//! Golden digest of the secure devices' outputs, audio and camera.
//!
//! The byte-identity suites compare runs of one build against each
//! other: workers 1 vs 8, plane vs direct, chaos vs clean. None of them
//! notices a change that moves every run the same way. This test hashes
//! what the devices report and compares it against a constant recorded
//! before the two secure pipeline types were merged into one generic
//! device, so any refactor of the device stack must leave these bytes
//! unchanged:
//!
//! * the `to_json` report and the cloud decisions of a direct-path mixed
//!   fleet: 3 audio devices with an adaptive batcher, SLO pressure and
//!   injected degradation, and 3 cameras with injected degradation;
//! * the same two outputs for that fleet routed through a crashing
//!   4-shard ingest plane over a lossy link;
//! * the reports of one self-trained audio pipeline and one
//!   self-trained camera pipeline.
//!
//! A second digest pins the camera sharded across a pool of secure
//! cores, recorded before that device became an instantiation of the
//! same generic device: each run's report, per-core figures, carve-out
//! footprint and stolen windows, over E14's shard sweep, E15's greedy
//! and work-stealing placements, an SLO-pressured batcher, an f32 run
//! without model dedup, and a lossy link with a policy change between
//! two runs on one device.
//!
//! A third digest pins the filter TA's branches that the first two do
//! not reach, recorded before the two filter TAs became one: the f32
//! classifier, the Transformer's int8-to-f32 fallback, µ-law decoding,
//! the constrained platform, redaction, and a `SET_POLICY` between two
//! runs on one device, for audio and for frames. It hashes each run's
//! report and the TA's `GET_STATS` counters read through a fresh
//! normal-world session.
//!
//! A mismatch means a device computes something different — never noise.

use std::sync::Arc;

use perisec::core::fleet::{FleetConfig, FleetReport, PipelineFleet};
use perisec::core::pipeline::SharedModels;
use perisec::core::pipeline::{
    CameraPipelineConfig, DegradeSpec, PipelineConfig, SecureCameraPipeline, SecurePipeline,
};
use perisec::core::pipeline::{SecureDevice, SensorPath};
use perisec::core::pipeline::{ShardedCameraConfig, ShardedRunReport, ShardedVisionPipeline};
use perisec::core::policy::PrivacyPolicy;
use perisec::core::pool::TeePoolConfig;
use perisec::core::{FILTER_TA_NAME, VISION_TA_NAME};
use perisec::devices::codec::AudioEncoding;
use perisec::ingest::{IngestPlane, IngestPlaneConfig, ShardFaultSpec};
use perisec::ml::classifier::Architecture;
use perisec::ml::quant::QuantMode;
use perisec::optee::{TaUuid, TeeClient, TeeParams};
use perisec::relay::measurement_of;
use perisec::relay::netsim::FaultSpec;
use perisec::telemetry::{HealthState, SloSpec};
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::{CameraScenario, Scenario};

const SEED: u64 = 0x60_1DE2;
const AUDIO: usize = 3;
const CAMERAS: usize = 3;
const EVENTS: usize = 12;

/// FNV-1a over length-prefixed byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for byte in (data.len() as u64).to_le_bytes().iter().chain(data) {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn fleet(&mut self, report: &FleetReport) {
        self.bytes(report.to_json().as_bytes());
        self.bytes(report.cloud_decisions_json().as_bytes());
    }

    fn sharded(&mut self, run: &ShardedRunReport) {
        self.bytes(run.report.to_json().as_bytes());
        self.bytes(format!("{:?}", run.per_core).as_bytes());
        self.bytes(format!("{:?}", run.secure_ram).as_bytes());
        self.bytes(&run.stolen_windows.to_le_bytes());
    }
}

/// Digest recorded before the merge; see the module docs.
const GOLDEN_DIGEST: u64 = 0x5a39_ea88_8636_f91c;

/// Digest of the sharded camera runs, recorded before the sharded camera
/// became a generic device; see the module docs.
const SHARDED_GOLDEN_DIGEST: u64 = 0xaf81_ad05_99ad_52de;

/// Digest of the filter TA's branches, recorded before the two filter TAs
/// became one; see the module docs.
const TA_BRANCHES_GOLDEN_DIGEST: u64 = 0xaef4_73ca_d4de_84e2;

fn degrade() -> Option<DegradeSpec> {
    Some(DegradeSpec {
        after: SimDuration::from_secs(2),
        per_window: SimDuration::from_millis(30),
    })
}

fn audio_config() -> PipelineConfig {
    PipelineConfig {
        train_utterances: 40,
        batch_windows: 2,
        ..PipelineConfig::default()
    }
}

fn camera_config() -> CameraPipelineConfig {
    CameraPipelineConfig {
        train_frames: 60,
        batch_windows: 2,
        ..CameraPipelineConfig::default()
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        devices: AUDIO,
        pipeline: PipelineConfig {
            latency_slo: Some(SimDuration::from_millis(60)),
            slo_pressure: Some(SloSpec::p95("service", SimDuration::from_millis(20))),
            degrade: degrade(),
            ..audio_config()
        },
        camera_devices: CAMERAS,
        camera_pipeline: CameraPipelineConfig {
            degrade: degrade(),
            ..camera_config()
        },
        workers: 2,
        ..FleetConfig::of(0)
    }
}

#[test]
fn secure_devices_match_the_golden_digest() {
    let spacing = SimDuration::from_secs(1);
    let audio = Scenario::fleet(AUDIO, EVENTS, 0.5, spacing, SEED);
    let cameras = CameraScenario::fleet_cameras(CAMERAS, EVENTS, 0.4, spacing, SEED);
    let mut digest = Fnv::new();

    let fleet = PipelineFleet::new(fleet_config()).expect("models train");
    let direct = fleet.run_mixed(&audio, &cameras);
    digest.fleet(&direct.expect("direct fleet runs"));

    let plane = IngestPlane::new(
        IngestPlaneConfig::new(4, AUDIO + CAMERAS)
            .accepting(vec![
                measurement_of(FILTER_TA_NAME),
                measurement_of(VISION_TA_NAME),
            ])
            .with_faults(ShardFaultSpec::single(SEED, 2_500_000_000, 400_000_000)),
    );
    let routed = PipelineFleet::with_models(
        FleetConfig {
            faults: Some(FaultSpec {
                drop_permille: 100,
                duplicate_permille: 150,
                ..FaultSpec::none(SEED)
            }),
            ingest: Some(Arc::clone(&plane) as _),
            ..fleet_config()
        },
        fleet.models().clone(),
    );
    let routed = routed.run_mixed(&audio, &cameras);
    digest.fleet(&routed.expect("plane fleet runs"));
    assert!(
        plane.counters().stale_epoch_rejects > 0,
        "the crash windows fenced nothing"
    );

    let scenario = Scenario::mixed(EVENTS, 0.5, spacing, SEED);
    let report = SecurePipeline::new(audio_config())
        .expect("audio pipeline builds")
        .run_scenario(&scenario)
        .expect("audio scenario runs");
    digest.bytes(report.to_json().as_bytes());

    let scenario = CameraScenario::mixed_scenes(EVENTS, 0.5, spacing, SEED);
    let report = SecureCameraPipeline::new(camera_config())
        .expect("camera pipeline builds")
        .run_scenario(&scenario)
        .expect("camera scenario runs");
    digest.bytes(report.to_json().as_bytes());

    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "secure device digest changed: {:#018x}",
        digest.0
    );
}

/// A sharded camera on `cores` quad-node cores at `batch_windows` events
/// per crossing.
fn sharded_config(cores: usize, batch_windows: usize) -> ShardedCameraConfig {
    ShardedCameraConfig {
        camera: CameraPipelineConfig {
            batch_windows,
            ..CameraPipelineConfig::default()
        },
        pool: TeePoolConfig::iot_quad_node(cores),
        ..ShardedCameraConfig::default()
    }
}

#[test]
fn sharded_camera_matches_the_golden_digest() {
    let models = SharedModels::deferred(Architecture::Cnn, 16, 0xE14).with_vision_spec(120, 0xE14);
    let stream = CameraScenario::high_fps(48, 4, 12_000, 0.4, 0xE14);
    let run = |config: ShardedCameraConfig, models: &SharedModels, scenario: &CameraScenario| {
        ShardedVisionPipeline::with_models(config, models)
            .expect("sharded camera builds")
            .run_scenario(scenario)
            .expect("sharded scenario runs")
    };
    let mut digest = Fnv::new();

    // E14's shard sweep.
    for cores in [1usize, 2, 4] {
        digest.sharded(&run(sharded_config(cores, 4), &models, &stream));
    }

    // E15's placement table: greedy, then work stealing, on a ragged mix.
    let placement_models =
        SharedModels::deferred(Architecture::Cnn, 16, 0x57EA).with_vision_spec(120, 0x57EA);
    let ragged = CameraScenario::ragged_high_fps(64, 4, 20, 96_000, 0.4, 0xBEEF);
    for work_stealing in [false, true] {
        let placed = run(
            ShardedCameraConfig {
                work_stealing,
                ..sharded_config(2, 8)
            },
            &placement_models,
            &ragged,
        );
        assert_eq!(placed.stolen_windows > 0, work_stealing, "steal pass");
        digest.sharded(&placed);
    }

    // An adaptive batcher under SLO pressure.
    let mut pressured = ShardedVisionPipeline::with_models(
        ShardedCameraConfig {
            latency_slo: Some(SimDuration::from_millis(2)),
            slo_pressure: Some(SloSpec::p95("shard.filter", SimDuration::from_micros(50))),
            ..sharded_config(2, 4)
        },
        &models,
    )
    .expect("pressured camera builds");
    digest.sharded(&pressured.run_scenario(&stream).expect("pressured run"));
    assert_ne!(
        pressured.pressure_state(),
        Some(HealthState::Healthy),
        "the pressure monitor never left Healthy"
    );

    // Per-session weights in f32.
    digest.sharded(&run(
        ShardedCameraConfig {
            camera: CameraPipelineConfig {
                quant_mode: QuantMode::F32,
                batch_windows: 4,
                ..CameraPipelineConfig::default()
            },
            dedup_models: false,
            ..sharded_config(4, 4)
        },
        &models,
        &stream,
    ));

    // A lossy, duplicating link, then a policy change on the same device.
    let mut lossy = ShardedVisionPipeline::with_models(
        ShardedCameraConfig {
            camera: CameraPipelineConfig {
                faults: Some(FaultSpec {
                    drop_permille: 200,
                    duplicate_permille: 150,
                    ..FaultSpec::none(0xE14)
                }),
                batch_windows: 4,
                ..CameraPipelineConfig::default()
            },
            ..sharded_config(2, 4)
        },
        &models,
    )
    .expect("lossy camera builds");
    let first = lossy.run_scenario(&stream).expect("lossy run");
    assert!(
        first.report.cloud.report.redelivered_records > 0,
        "the lossy link redelivered nothing"
    );
    digest.sharded(&first);
    lossy
        .set_policy(PrivacyPolicy::allow_all())
        .expect("policy installs");
    digest.sharded(&lossy.run_scenario(&stream).expect("permissive run"));

    assert_eq!(
        digest.0, SHARDED_GOLDEN_DIGEST,
        "sharded camera digest changed: {:#018x}",
        digest.0
    );
}

/// `GET_STATS` of the filter TA on `device`'s core, read through a fresh
/// normal-world session: `(windows, forwarded)` and `(dropped, redacted)`.
fn ta_stats<S: SensorPath>(device: &SecureDevice<S>, ta_name: &str) -> [u64; 4] {
    /// `GET_STATS` has this id in every filter TA.
    const GET_STATS: u32 = 2;
    let client = TeeClient::connect(Arc::clone(device.tee_core()));
    let (session, _) = client
        .open_session(TaUuid::from_name(ta_name), TeeParams::new())
        .expect("the filter TA opens a session");
    let reply = client
        .invoke(&session, GET_STATS, TeeParams::new())
        .expect("GET_STATS answers");
    let ((a, b), (c, d)) = (
        reply.get(0).as_values().expect("slot 0"),
        reply.get(1).as_values().expect("slot 1"),
    );
    [a, b, c, d]
}

#[test]
fn filter_ta_branches_match_the_golden_digest() {
    let spacing = SimDuration::from_secs(1);
    let mut digest = Fnv::new();

    // Audio: each device runs a mixed scenario, takes a policy change,
    // and runs it again.
    let scenario = Scenario::mixed(EVENTS, 0.5, spacing, SEED);
    let cnn = SharedModels::deferred(Architecture::Cnn, 40, SEED);
    let transformer = SharedModels::deferred(Architecture::Transformer, 40, SEED);
    let audio_cases = [
        (
            &cnn,
            PipelineConfig {
                encoding: AudioEncoding::MuLaw,
                quant_mode: QuantMode::F32,
                policy: PrivacyPolicy::redact_sensitive(),
                ..audio_config()
            },
        ),
        (
            &transformer,
            PipelineConfig {
                architecture: Architecture::Transformer,
                quant_mode: QuantMode::Int8,
                ..audio_config()
            },
        ),
        (
            &cnn,
            PipelineConfig {
                encoding: AudioEncoding::MuLaw,
                quant_mode: QuantMode::Int8,
                constrained_platform: true,
                ..audio_config()
            },
        ),
    ];
    for (models, config) in audio_cases {
        let mut device = SecurePipeline::with_models(config, models).expect("audio device builds");
        let first = device.run_scenario(&scenario).expect("audio scenario runs");
        digest.bytes(first.to_json().as_bytes());
        device
            .set_policy(PrivacyPolicy::allow_all())
            .expect("policy installs");
        let second = device.run_scenario(&scenario).expect("audio rerun runs");
        digest.bytes(second.to_json().as_bytes());
        for value in ta_stats(&device, FILTER_TA_NAME) {
            digest.bytes(&value.to_le_bytes());
        }
    }

    // Frames: redaction maps to forwarding, then everything is allowed.
    let scenes = CameraScenario::mixed_scenes(EVENTS, 0.5, spacing, SEED);
    let frames = SharedModels::deferred(Architecture::Cnn, 40, SEED).with_vision_spec(60, SEED);
    for quant_mode in [QuantMode::F32, QuantMode::Int8] {
        let config = CameraPipelineConfig {
            policy: PrivacyPolicy::redact_sensitive(),
            quant_mode,
            ..camera_config()
        };
        let mut device =
            SecureCameraPipeline::with_models(config, &frames).expect("camera device builds");
        let first = device.run_scenario(&scenes).expect("camera scenario runs");
        digest.bytes(first.to_json().as_bytes());
        device
            .set_policy(PrivacyPolicy::allow_all())
            .expect("policy installs");
        let second = device.run_scenario(&scenes).expect("camera rerun runs");
        digest.bytes(second.to_json().as_bytes());
        // The fourth camera slot is left out: frame windows are never
        // redacted.
        for value in &ta_stats(&device, VISION_TA_NAME)[..3] {
            digest.bytes(&value.to_le_bytes());
        }
    }

    assert_eq!(
        digest.0, TA_BRANCHES_GOLDEN_DIGEST,
        "filter TA branch digest changed: {:#018x}",
        digest.0
    );
}
