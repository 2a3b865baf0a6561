//! A finished device frees its whole TEE stack.
//!
//! Every pipeline boots a `TeeCore` whose SMC handler lives in the
//! platform's secure monitor, and the core owns that platform. These
//! tests pin that the handler does not keep the core alive: dropping a
//! pipeline drops its core, its TAs and PTAs, its drivers and every
//! carve-out reservation they held. For fleets, which build and drop one
//! stack per device, they pin that a finished run leaves no stack behind:
//! the shared model `Arc`s are back to the counts they had before the run.

use std::sync::{Arc, OnceLock, Weak};

use perisec::core::fleet::{FleetConfig, PipelineFleet};
use perisec::core::pipeline::{
    CameraPipelineConfig, PipelineConfig, SecureCameraPipeline, SecurePipeline, SharedModels,
};
use perisec::core::pipeline::{ShardedCameraConfig, ShardedVisionPipeline};
use perisec::core::{IngestHook, VISION_TA_NAME};
use perisec::ingest::{IngestPlane, IngestPlaneConfig};
use perisec::ml::classifier::Architecture;
use perisec::optee::TeeCore;
use perisec::relay::attest::SessionIngest;
use perisec::relay::measurement_of;
use perisec::tz::secure_mem::SecureRam;
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::{CameraScenario, Scenario};

const SEED: u64 = 0x57AC;

/// A model set for both device kinds, trained up front.
fn train() -> SharedModels {
    let camera = CameraPipelineConfig::default();
    let models = SharedModels::deferred(Architecture::Cnn, 30, SEED)
        .with_vision_spec(camera.train_frames, camera.corpus_seed);
    models.audio().expect("speech models train");
    models.vision_int8().expect("frame classifier trains");
    models
}

/// The model set the single-pipeline tests share.
fn models() -> &'static SharedModels {
    static MODELS: OnceLock<SharedModels> = OnceLock::new();
    MODELS.get_or_init(train)
}

fn camera_config() -> CameraPipelineConfig {
    CameraPipelineConfig {
        batch_windows: 2,
        ..CameraPipelineConfig::default()
    }
}

fn camera_scenario() -> CameraScenario {
    CameraScenario::mixed_scenes(4, 0.5, SimDuration::from_millis(100), SEED)
}

/// Drops `stack` and checks that every core in `cores` went with it and
/// that `ram`, the carve-out those cores reserved from, is empty again.
fn assert_freed<T>(stack: T, cores: Vec<Weak<TeeCore>>, ram: &SecureRam) {
    assert!(ram.bytes_in_use() > 0, "the stack reserved no secure RAM");
    drop(stack);
    for (index, core) in cores.iter().enumerate() {
        assert!(
            core.upgrade().is_none(),
            "tee core {index} outlived its pipeline"
        );
    }
    assert_eq!(
        ram.bytes_in_use(),
        0,
        "the carve-out still holds reservations"
    );
}

#[test]
fn audio_pipeline_frees_its_stack() {
    let mut pipeline = SecurePipeline::with_models(
        PipelineConfig {
            batch_windows: 2,
            ..PipelineConfig::default()
        },
        models(),
    )
    .unwrap();
    pipeline
        .run_scenario(&Scenario::mixed(4, 0.5, SimDuration::from_secs(1), SEED))
        .unwrap();
    let cores = vec![Arc::downgrade(pipeline.tee_core())];
    let ram = pipeline.platform().secure_ram().clone();
    assert_freed(pipeline, cores, &ram);
}

#[test]
fn camera_pipeline_frees_its_stack_on_the_direct_path() {
    let mut pipeline = SecureCameraPipeline::with_models(camera_config(), models()).unwrap();
    pipeline.run_scenario(&camera_scenario()).unwrap();
    let cores = vec![Arc::downgrade(pipeline.tee_core())];
    let ram = pipeline.platform().secure_ram().clone();
    assert_freed(pipeline, cores, &ram);
}

#[test]
fn camera_pipeline_frees_its_stack_through_the_plane() {
    let plane = IngestPlane::new(
        IngestPlaneConfig::new(2, 1).accepting(vec![measurement_of(VISION_TA_NAME)]),
    );
    let mut pipeline = SecureCameraPipeline::with_models(
        CameraPipelineConfig {
            ingest: Some(IngestHook::new(Arc::clone(&plane) as _, 0)),
            ..camera_config()
        },
        models(),
    )
    .unwrap();
    pipeline.run_scenario(&camera_scenario()).unwrap();
    assert!(plane.session_report(0).committed_records > 0);
    let cores = vec![Arc::downgrade(pipeline.tee_core())];
    let ram = pipeline.platform().secure_ram().clone();
    assert_freed(pipeline, cores, &ram);
}

#[test]
fn sharded_pipeline_frees_every_core() {
    let mut pipeline = ShardedVisionPipeline::with_models(
        ShardedCameraConfig {
            camera: camera_config(),
            ..ShardedCameraConfig::default()
        },
        models(),
    )
    .unwrap();
    pipeline.run_scenario(&camera_scenario()).unwrap();
    let cores: Vec<_> = pipeline
        .pool()
        .cores()
        .iter()
        .map(|handle| Arc::downgrade(handle.core()))
        .collect();
    assert!(cores.len() >= 2, "the pool booted one core");
    let ram = pipeline.pool().secure_ram().clone();
    assert_freed(pipeline, cores, &ram);
}

/// Strong counts of every shared model `Arc` a device stack can hold.
fn model_counts(models: &SharedModels) -> [usize; 4] {
    let audio = models.audio().unwrap();
    let vision = models.vision_int8().unwrap();
    let int8 = audio
        .classifier_int8
        .as_ref()
        .expect("the CNN classifier has an int8 form");
    [
        Arc::strong_count(&audio.stt),
        Arc::strong_count(&audio.classifier),
        Arc::strong_count(int8),
        Arc::strong_count(&vision),
    ]
}

#[test]
fn a_finished_fleet_holds_no_device_stack() {
    // A model set of its own: the other tests' live pipelines hold
    // handles onto the shared one while this test counts.
    let models = train();
    let audio = Scenario::fleet(3, 2, 0.5, SimDuration::from_secs(1), SEED);
    let cameras = CameraScenario::fleet_high_fps(5, 2, 1, 30, 0.4, SEED);
    for workers in [1, 2] {
        let fleet = PipelineFleet::with_models(
            FleetConfig {
                devices: audio.len(),
                pipeline: PipelineConfig {
                    batch_windows: 2,
                    ..PipelineConfig::default()
                },
                camera_devices: cameras.len(),
                camera_pipeline: camera_config(),
                workers,
                ..FleetConfig::of(0)
            },
            models.clone(),
        );
        let before = model_counts(&models);
        let report = fleet.run_mixed(&audio, &cameras).unwrap();
        assert_eq!(report.device_count(), audio.len() + cameras.len());
        assert_eq!(
            model_counts(&models),
            before,
            "workers {workers}: device stacks still hold the shared models"
        );
    }
}
