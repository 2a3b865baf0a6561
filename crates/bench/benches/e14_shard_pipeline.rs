//! Criterion bench behind experiment E14: host-time cost of driving a
//! high-fps camera scenario through the sharded pipeline as the shard
//! count grows, and of the scheduler's placement primitive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use perisec_core::pipeline::{
    CameraPipelineConfig, ShardedCameraConfig, ShardedVisionPipeline, SharedModels,
};
use perisec_core::pool::TeePoolConfig;
use perisec_core::scheduler::SessionScheduler;
use perisec_ml::classifier::Architecture;
use perisec_workload::scenario::CameraScenario;

fn bench_sharded_run(c: &mut Criterion) {
    let models = SharedModels::deferred(Architecture::Cnn, 16, 14).with_vision_spec(96, 14);
    let scenario = CameraScenario::high_fps(16, 2, 9_000, 0.4, 0xBE14);
    let mut group = c.benchmark_group("e14_sharded_run");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            let mut pipeline = ShardedVisionPipeline::with_models(
                ShardedCameraConfig {
                    camera: CameraPipelineConfig {
                        batch_windows: 4,
                        ..CameraPipelineConfig::default()
                    },
                    pool: TeePoolConfig::jetson(shards),
                    ..ShardedCameraConfig::default()
                },
                &models,
            )
            .unwrap();
            b.iter(|| pipeline.run_scenario(&scenario).unwrap());
        });
    }
    group.finish();
}

fn bench_scheduler_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_scheduler_primitives");
    group.bench_function("assign_1k_windows_8_sessions", |b| {
        let weights = vec![2u64; 1_000];
        b.iter(|| {
            let mut scheduler = SessionScheduler::new(8);
            scheduler.assign(&weights)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sharded_run, bench_scheduler_primitives);
criterion_main!(benches);
