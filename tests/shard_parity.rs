//! Sharded-vs-unsharded parity and scale-out acceptance — the multi-core
//! scheduler's mirror of `tests/batch_parity.rs`.
//!
//! The sharding contract: fanning one camera's stream across N TA
//! sessions changes *throughput*, never *outcome*.
//!
//! * identical cloud outcomes (same dialog ids received, zero sensitive
//!   leaks) for shards in {1, 2, 4, 8}, and identical to the unsharded
//!   `SecureCameraPipeline`;
//! * every shard session really participates (per-core SMCs > 0);
//! * on the quad-core IoT gateway a high-fps stream misses its frame
//!   budget with one session and meets it with two or four;
//! * with >= 2 co-resident sessions, secure-RAM residency with model
//!   dedup stays strictly below residency without it.

use perisec::core::pipeline::{CameraPipelineConfig, SecureCameraPipeline, SharedModels};
use perisec::core::pipeline::{ShardedCameraConfig, ShardedVisionPipeline};
use perisec::core::pool::TeePoolConfig;
use perisec::ml::classifier::Architecture;
use perisec::workload::scenario::CameraScenario;

fn camera_config(batch_windows: usize) -> CameraPipelineConfig {
    CameraPipelineConfig {
        batch_windows,
        ..CameraPipelineConfig::default()
    }
}

fn sharded_config(shards: usize, pool: TeePoolConfig) -> ShardedCameraConfig {
    ShardedCameraConfig {
        camera: camera_config(4),
        pool: TeePoolConfig {
            cores: shards,
            ..pool
        },
        ..ShardedCameraConfig::default()
    }
}

#[test]
fn sharding_preserves_cloud_outcomes_across_shard_counts() {
    // One model set for every run, so outcomes can only differ through
    // the sharding itself.
    let models =
        SharedModels::deferred(Architecture::Cnn, 16, 0x5A2D).with_vision_spec(120, 0x5A2D);
    let scenario = CameraScenario::high_fps(32, 4, 12_000, 0.4, 0x5A2D);
    assert!(scenario.sensitive_count() > 0);

    let mut unsharded =
        SecureCameraPipeline::with_models(camera_config(4), &models).expect("unsharded builds");
    let reference = unsharded.run_scenario(&scenario).expect("unsharded runs");
    assert_eq!(reference.cloud.leaked_sensitive_utterances(), 0);
    let reference_ids = reference.cloud.report.received_dialog_ids();
    assert!(!reference_ids.is_empty());

    for shards in [1usize, 2, 4, 8] {
        let mut pipeline = ShardedVisionPipeline::with_models(
            sharded_config(shards, TeePoolConfig::jetson(shards)),
            &models,
        )
        .expect("sharded pipeline builds");
        let run = pipeline.run_scenario(&scenario).expect("sharded run");

        // The privacy ledger is identical to the unsharded pipeline's.
        assert_eq!(
            run.report.cloud.leaked_sensitive_utterances(),
            0,
            "{shards} shards leaked sensitive content"
        );
        assert_eq!(
            run.report.cloud.report.received_dialog_ids(),
            reference_ids,
            "cloud outcome diverged at {shards} shards"
        );
        // Verdict records only — pixels never cross outward.
        assert!(run
            .report
            .cloud
            .report
            .events
            .iter()
            .all(|e| e.audio_bytes == 0 && e.encrypted));
        // Every session actually served windows through its own core.
        assert_eq!(run.per_core.len(), shards);
        for core in &run.per_core {
            assert!(core.smc_calls > 0, "core {} of {shards} idle", core.core);
            assert!(core.utilization > 0.0);
        }
        assert_eq!(run.report.workload.utterances, scenario.len());
    }
}

#[test]
fn high_fps_stream_needs_at_least_two_shards_on_the_quad_node() {
    let models = SharedModels::deferred(Architecture::Cnn, 16, 0xE14).with_vision_spec(120, 0xE14);
    let scenario = CameraScenario::high_fps(48, 4, 12_000, 0.4, 0xE14);
    let deadline = scenario.duration() + scenario.event_spacing();

    let mut met = Vec::new();
    let mut clocks = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut pipeline = ShardedVisionPipeline::with_models(
            sharded_config(shards, TeePoolConfig::iot_quad_node(shards)),
            &models,
        )
        .expect("sharded pipeline builds");
        let run = pipeline.run_scenario(&scenario).expect("sharded run");
        assert_eq!(run.report.cloud.leaked_sensitive_utterances(), 0);
        met.push(run.kept_up(deadline));
        clocks.push(run.report.virtual_time);
    }
    // One session is outrun by the stream; two and four keep up.
    assert!(
        !met[0],
        "single session unexpectedly met the frame budget ({} <= {deadline})",
        clocks[0]
    );
    assert!(
        met[1],
        "2 shards missed the budget ({} > {deadline})",
        clocks[1]
    );
    assert!(
        met[2],
        "4 shards missed the budget ({} > {deadline})",
        clocks[2]
    );
    // More shards never slow the device down.
    assert!(clocks[1] < clocks[0]);
    assert!(clocks[2] <= clocks[1]);
}

#[test]
fn work_stealing_cuts_tail_latency_on_ragged_mixes_without_changing_outcomes() {
    // A bursty sensor: window frame counts vary 4..=20, so greedy
    // least-loaded placement strands heavy windows on already-loaded
    // sessions. The 96 kfps average rate outruns the two-session pool,
    // so the run clock is the processing makespan — the regime where
    // placement quality shows up as tail latency.
    let models =
        SharedModels::deferred(Architecture::Cnn, 16, 0x57EA).with_vision_spec(120, 0x57EA);
    let scenario = CameraScenario::ragged_high_fps(64, 4, 20, 96_000, 0.4, 0xBEEF);

    let config = |stealing: bool| ShardedCameraConfig {
        camera: camera_config(8),
        pool: TeePoolConfig::iot_quad_node(2),
        work_stealing: stealing,
        ..ShardedCameraConfig::default()
    };
    let mut greedy_pipeline =
        ShardedVisionPipeline::with_models(config(false), &models).expect("greedy builds");
    let greedy = greedy_pipeline
        .run_scenario(&scenario)
        .expect("greedy runs");
    let mut stealing_pipeline =
        ShardedVisionPipeline::with_models(config(true), &models).expect("stealing builds");
    let stealing = stealing_pipeline
        .run_scenario(&scenario)
        .expect("stealing runs");

    // The steal pass really fired on this mix, and only on the stealing
    // pipeline.
    assert_eq!(greedy.stolen_windows, 0);
    assert!(
        stealing.stolen_windows > 0,
        "ragged mix triggered no steals"
    );
    // Rebalancing changes placement, never outcome: the same windows
    // reach the cloud and nothing sensitive leaks.
    assert_eq!(stealing.report.cloud.leaked_sensitive_utterances(), 0);
    assert_eq!(
        stealing.report.cloud.report.received_dialog_ids(),
        greedy.report.cloud.report.received_dialog_ids(),
        "stealing diverged the cloud outcome"
    );
    // The point of the pass: the slowest core finishes earlier, so the
    // run clock and the p99 window latency both drop.
    assert!(
        stealing.report.virtual_time < greedy.report.virtual_time,
        "stealing run clock {} did not beat greedy {}",
        stealing.report.virtual_time,
        greedy.report.virtual_time
    );
    assert!(
        stealing.report.latency.p99_end_to_end() < greedy.report.latency.p99_end_to_end(),
        "stealing p99 {} did not beat greedy {}",
        stealing.report.latency.p99_end_to_end(),
        greedy.report.latency.p99_end_to_end()
    );
}

#[test]
fn model_dedup_strictly_undercuts_duplicate_reservations() {
    let models = SharedModels::deferred(Architecture::Cnn, 16, 0xDEDA).with_vision_spec(96, 0xDEDA);
    for shards in [2usize, 4] {
        let with_dedup = ShardedVisionPipeline::with_models(
            sharded_config(shards, TeePoolConfig::jetson(shards)),
            &models,
        )
        .expect("dedup pipeline builds");
        let without_dedup = ShardedVisionPipeline::with_models(
            ShardedCameraConfig {
                dedup_models: false,
                ..sharded_config(shards, TeePoolConfig::jetson(shards))
            },
            &models,
        )
        .expect("no-dedup pipeline builds");
        let deduped = with_dedup.pool().secure_ram().bytes_in_use();
        let duplicated = without_dedup.pool().secure_ram().bytes_in_use();
        assert!(
            deduped < duplicated,
            "{shards} sessions: dedup {deduped} B not below duplicated {duplicated} B"
        );
        // The dedup counters account for the gap (up to one allocation
        // alignment per session: the split into private + shared parts
        // may round each part up separately).
        let accounted = deduped as u64 + with_dedup.pool().secure_ram().dedup_saved_bytes();
        assert!(accounted >= duplicated as u64);
        assert!(accounted <= duplicated as u64 + 64 * shards as u64);
        assert_eq!(
            with_dedup.pool().secure_ram().dedup_hits(),
            shards as u64 - 1
        );
    }
}
