//! Every `FleetConfig` plane, honoured by every device kind.
//!
//! A fleet plane is a fleet-wide setting that `PipelineFleet` applies to
//! each device it queues: link faults, a shared ingest plane, the
//! telemetry fold with per-device span capture, and the health plane.
//! For an audio-only and a camera-only fleet, each test turns one plane
//! on and compares the run with the same fleet with the plane off:
//!
//! * the plane must have an observable effect, so no device kind can
//!   silently ignore it;
//! * the outcome must not change where the contract says it cannot —
//!   the whole `to_json` report under the observation planes, the
//!   cloud's decision stream under the planes that change the link.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use perisec::core::fleet::{FleetConfig, FleetReport, PipelineFleet};
use perisec::core::pipeline::{CameraPipelineConfig, PipelineConfig, SharedModels};
use perisec::core::{FILTER_TA_NAME, VISION_TA_NAME};
use perisec::ingest::{IngestPlane, IngestPlaneConfig};
use perisec::ml::classifier::Architecture;
use perisec::relay::attest::SessionIngest;
use perisec::relay::measurement_of;
use perisec::relay::netsim::FaultSpec;
use perisec::telemetry::{HealthConfig, SloSpec, TelemetryConfig};
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::{CameraScenario, Scenario};

const DEVICES: usize = 3;
const SEED: u64 = 0xF1A9;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Audio,
    Camera,
}

/// One model set for every fleet here, trained once for both kinds.
fn models() -> &'static SharedModels {
    static MODELS: OnceLock<SharedModels> = OnceLock::new();
    MODELS.get_or_init(|| {
        let camera = CameraPipelineConfig::default();
        let models = SharedModels::deferred(Architecture::Cnn, 60, SEED)
            .with_vision_spec(camera.train_frames, camera.corpus_seed);
        models.audio().expect("speech models train");
        models.vision().expect("frame classifier trains");
        models
    })
}

/// The plane-off fleet of one kind.
fn config(kind: Kind) -> FleetConfig {
    let (devices, camera_devices) = match kind {
        Kind::Audio => (DEVICES, 0),
        Kind::Camera => (0, DEVICES),
    };
    FleetConfig {
        devices,
        pipeline: PipelineConfig {
            batch_windows: 2,
            ..PipelineConfig::default()
        },
        camera_devices,
        camera_pipeline: CameraPipelineConfig {
            batch_windows: 2,
            ..CameraPipelineConfig::default()
        },
        workers: 2,
        ..FleetConfig::of(0)
    }
}

fn fleet(config: FleetConfig) -> PipelineFleet {
    PipelineFleet::with_models(config, models().clone())
}

fn scenarios(kind: Kind) -> (Vec<Scenario>, Vec<CameraScenario>) {
    let spacing = SimDuration::from_secs(1);
    match kind {
        Kind::Audio => (Scenario::fleet(DEVICES, 6, 0.5, spacing, SEED), Vec::new()),
        Kind::Camera => (
            Vec::new(),
            CameraScenario::fleet_cameras(DEVICES, 6, 0.4, spacing, SEED),
        ),
    }
}

fn run(kind: Kind, config: FleetConfig) -> FleetReport {
    let (audio, cameras) = scenarios(kind);
    fleet(config).run_mixed(&audio, &cameras).unwrap()
}

fn faults_change_the_link_not_the_decisions(kind: Kind) {
    let faults = FaultSpec {
        drop_permille: 100,
        duplicate_permille: 150,
        reorder_permille: 80,
        corrupt_permille: 100,
        outage: Some((3, 6)),
        ..FaultSpec::none(SEED)
    };
    let clean = run(kind, config(kind));
    let faulted = run(
        kind,
        FleetConfig {
            faults: Some(faults),
            ..config(kind)
        },
    );
    assert!(
        faulted.total_redelivered_records() + faulted.total_rejected_records() > 0,
        "{kind:?}: the fault plane injected no observable chaos"
    );
    assert_eq!(
        clean.cloud_decisions_json(),
        faulted.cloud_decisions_json(),
        "{kind:?}: link chaos changed the cloud's decisions"
    );
}

fn ingest_commits_the_direct_decisions(kind: Kind) {
    let ta = match kind {
        Kind::Audio => FILTER_TA_NAME,
        Kind::Camera => VISION_TA_NAME,
    };
    let plane =
        IngestPlane::new(IngestPlaneConfig::new(2, DEVICES).accepting(vec![measurement_of(ta)]));
    let direct = run(kind, config(kind));
    let routed = run(
        kind,
        FleetConfig {
            ingest: Some(Arc::clone(&plane) as _),
            ..config(kind)
        },
    );
    let committed: u64 = (0..DEVICES as u64)
        .map(|session| plane.session_report(session).committed_records)
        .sum();
    assert!(
        committed > 0,
        "{kind:?}: the ingest plane committed nothing"
    );
    assert_eq!(
        direct.cloud_decisions_json(),
        routed.cloud_decisions_json(),
        "{kind:?}: the ingest plane changed the cloud's decisions"
    );
}

fn telemetry_folds_every_device_and_traces_only_the_chosen_one(kind: Kind) {
    let traced = 1;
    let silent = run(kind, config(kind));
    let (audio, cameras) = scenarios(kind);
    let (report, _, fold) = fleet(FleetConfig {
        telemetry: TelemetryConfig::metrics(),
        trace_devices: BTreeSet::from([traced]),
        ..config(kind)
    })
    .run_mixed_telemetry(&audio, &cameras)
    .unwrap();
    assert_eq!(fold.devices, DEVICES as u64, "{kind:?}");
    assert!(fold.histograms.contains_key("smc.call"), "{kind:?}");
    for device in 0..DEVICES {
        assert_eq!(
            fold.trace(device).is_some(),
            device == traced,
            "{kind:?}: span capture on device {device}"
        );
    }
    assert_eq!(
        silent.to_json(),
        report.to_json(),
        "{kind:?}: telemetry perturbed the report"
    );
}

fn health_monitors_every_device(kind: Kind) {
    let silent = run(kind, config(kind));
    let health = HealthConfig {
        slos: vec![SloSpec::p95("tee-filter", SimDuration::from_secs(10))],
        ..HealthConfig::with_window(SimDuration::from_secs(1))
    };
    let (audio, cameras) = scenarios(kind);
    let monitored = fleet(FleetConfig {
        health: Some(health),
        ..config(kind)
    });
    let (report, _, _, judged) = monitored.run_mixed_health(&audio, &cameras).unwrap();
    assert_eq!(judged.devices, DEVICES as u64, "{kind:?}");
    assert!(!judged.epochs.is_empty(), "{kind:?}: no epoch was cut");
    assert_eq!(
        silent.to_json(),
        report.to_json(),
        "{kind:?}: the health plane perturbed the report"
    );
    // Only a health run forces the tracer's metrics on: with telemetry
    // off, the same health-set fleet's telemetry run folds no metrics.
    let (report, _, fold) = monitored.run_mixed_telemetry(&audio, &cameras).unwrap();
    assert!(
        fold.histograms.is_empty(),
        "{kind:?}: histograms recorded with telemetry off"
    );
    assert!(
        fold.counters.is_empty(),
        "{kind:?}: counters recorded with telemetry off"
    );
    assert_eq!(silent.to_json(), report.to_json(), "{kind:?}");
}

#[test]
fn audio_fleet_honours_faults() {
    faults_change_the_link_not_the_decisions(Kind::Audio);
}

#[test]
fn camera_fleet_honours_faults() {
    faults_change_the_link_not_the_decisions(Kind::Camera);
}

#[test]
fn audio_fleet_honours_ingest() {
    ingest_commits_the_direct_decisions(Kind::Audio);
}

#[test]
fn camera_fleet_honours_ingest() {
    ingest_commits_the_direct_decisions(Kind::Camera);
}

#[test]
fn audio_fleet_honours_telemetry_and_trace_devices() {
    telemetry_folds_every_device_and_traces_only_the_chosen_one(Kind::Audio);
}

#[test]
fn camera_fleet_honours_telemetry_and_trace_devices() {
    telemetry_folds_every_device_and_traces_only_the_chosen_one(Kind::Camera);
}

#[test]
fn audio_fleet_honours_health() {
    health_monitors_every_device(Kind::Audio);
}

#[test]
fn camera_fleet_honours_health() {
    health_monitors_every_device(Kind::Camera);
}
