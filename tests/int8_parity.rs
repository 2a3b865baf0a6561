//! Int8-vs-f32 deployment parity and residency acceptance.
//!
//! The int8 fast path may change *cost* — host wall-clock and secure-RAM
//! residency — but never *outcome*. These tests pin the contract on the
//! seed corpus:
//!
//! * an int8-mode fleet produces the **same cloud decisions and zero
//!   leaks** as the f32-mode fleet, for both modalities;
//! * the quantized resident model bytes are **strictly below** the f32
//!   residency, in the unsharded pipelines' carve-outs and in the sharded
//!   pool's deduplicated footprint (the E14 dedup gates still hold).

use perisec::core::fleet::{FleetConfig, PipelineFleet};
use perisec::core::pipeline::{
    CameraPipelineConfig, PipelineConfig, SecureCameraPipeline, SecurePipeline, SharedModels,
};
use perisec::core::pipeline::{ShardedCameraConfig, ShardedVisionPipeline};
use perisec::core::pool::TeePoolConfig;
use perisec::ml::quant::QuantMode;
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::{CameraScenario, Scenario};

fn audio_config(quant_mode: QuantMode) -> PipelineConfig {
    PipelineConfig {
        train_utterances: 120,
        batch_windows: 4,
        quant_mode,
        ..PipelineConfig::default()
    }
}

fn camera_config(quant_mode: QuantMode) -> CameraPipelineConfig {
    CameraPipelineConfig {
        batch_windows: 4,
        quant_mode,
        ..CameraPipelineConfig::default()
    }
}

#[test]
fn int8_mode_fleets_match_f32_cloud_decisions_with_zero_leaks() {
    // One trained model set for both modes: the int8 form is quantized
    // once from the same weights, so outcomes can only differ through the
    // integer arithmetic itself.
    let models = SharedModels::for_config(&audio_config(QuantMode::Int8)).expect("models train");
    models.vision().expect("frame classifier trains");

    let audio = Scenario::fleet(3, 8, 0.4, SimDuration::from_secs(2), 0x18A7);
    let cameras = CameraScenario::fleet_cameras(3, 8, 0.4, SimDuration::from_secs(2), 0x18A7);
    assert!(audio.iter().any(|s| s.sensitive_count() > 0));
    assert!(cameras.iter().any(|s| s.sensitive_count() > 0));

    let run = |mode: QuantMode| {
        let fleet = PipelineFleet::with_models(
            FleetConfig {
                devices: 3,
                pipeline: audio_config(mode),
                camera_devices: 3,
                camera_pipeline: camera_config(mode),
                ..FleetConfig::of(0)
            },
            models.clone(),
        );
        fleet.run_mixed(&audio, &cameras).expect("mixed fleet runs")
    };
    let int8 = run(QuantMode::Int8);
    let f32 = run(QuantMode::F32);

    // Zero leaks in both modes.
    assert_eq!(int8.leaked_sensitive_utterances(), 0);
    assert_eq!(f32.leaked_sensitive_utterances(), 0);
    // Identical cloud decisions, device by device.
    assert_eq!(int8.device_count(), f32.device_count());
    for (a, b) in int8.devices().iter().zip(f32.devices()) {
        assert_eq!(a.device, b.device);
        assert_eq!(
            a.report.cloud.report.received_dialog_ids(),
            b.report.cloud.report.received_dialog_ids(),
            "device {} diverged between int8 and f32 modes",
            a.device
        );
    }
    // Virtual-time accounting is mode-independent (both modes charge the
    // same MAC count), so the simulated figures agree too.
    assert_eq!(int8.total_world_switches(), f32.total_world_switches());
    assert_eq!(int8.mean_end_to_end(), f32.mean_end_to_end());
}

#[test]
fn int8_mode_shrinks_secure_ram_residency() {
    let models = SharedModels::for_config(&audio_config(QuantMode::Int8)).expect("models train");

    // Audio pipeline: the filter TA's declared data segment (and with it
    // the carve-out reservation) shrinks with the quantized weights.
    let int8 = SecurePipeline::with_models(audio_config(QuantMode::Int8), &models)
        .expect("int8 pipeline builds");
    let f32 = SecurePipeline::with_models(audio_config(QuantMode::F32), &models)
        .expect("f32 pipeline builds");
    let int8_ram = int8.platform().secure_ram().bytes_in_use();
    let f32_ram = f32.platform().secure_ram().bytes_in_use();
    assert!(
        int8_ram < f32_ram,
        "int8 residency {int8_ram} B not below f32 {f32_ram} B"
    );

    // Camera pipeline, same contract.
    let int8_cam = SecureCameraPipeline::with_models(camera_config(QuantMode::Int8), &models)
        .expect("int8 camera builds");
    let f32_cam = SecureCameraPipeline::with_models(camera_config(QuantMode::F32), &models)
        .expect("f32 camera builds");
    assert!(
        int8_cam.platform().secure_ram().bytes_in_use()
            < f32_cam.platform().secure_ram().bytes_in_use()
    );
}

#[test]
fn sharded_int8_pool_keeps_the_dedup_gates_and_shrinks_residency() {
    let models = SharedModels::deferred_for_config(&audio_config(QuantMode::Int8));
    let sharded = |mode: QuantMode, dedup: bool| {
        ShardedVisionPipeline::with_models(
            ShardedCameraConfig {
                camera: camera_config(mode),
                pool: TeePoolConfig::iot_quad_node(4),
                dedup_models: dedup,
                ..ShardedCameraConfig::default()
            },
            &models,
        )
        .expect("sharded pipeline builds")
    };

    // The quantized weights are what reserve_shared charges: int8 dedup
    // residency sits strictly below f32 dedup residency...
    let int8 = sharded(QuantMode::Int8, true);
    let f32 = sharded(QuantMode::F32, true);
    let int8_ram = int8.pool().secure_ram().bytes_in_use();
    let f32_ram = f32.pool().secure_ram().bytes_in_use();
    assert!(
        int8_ram < f32_ram,
        "sharded int8 residency {int8_ram} B not below f32 {f32_ram} B"
    );
    // ...and the E14 dedup invariant holds within int8 mode: dedup
    // strictly below duplicate residency, with real shared hits.
    let int8_dup = sharded(QuantMode::Int8, false);
    assert!(int8_ram < int8_dup.pool().secure_ram().bytes_in_use());
    assert_eq!(int8.pool().secure_ram().dedup_hits(), 3);
    assert!(int8.pool().secure_ram().dedup_saved_bytes() > 0);

    // And the sharded int8 run still filters identically to f32.
    let scenario = CameraScenario::mixed_scenes(12, 0.5, SimDuration::from_secs(2), 0x18A8);
    let mut int8 = int8;
    let mut f32 = f32;
    let a = int8.run_scenario(&scenario).expect("int8 run");
    let b = f32.run_scenario(&scenario).expect("f32 run");
    assert_eq!(a.report.cloud.leaked_sensitive_utterances(), 0);
    assert_eq!(
        a.report.cloud.report.received_dialog_ids(),
        b.report.cloud.report.received_dialog_ids()
    );
}
