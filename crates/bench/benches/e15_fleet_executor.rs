//! Criterion bench behind experiment E15: host-time cost of running a
//! camera fleet on the bounded work-stealing executor as the worker pool
//! grows, plus the scheduler's steal pass on ragged batches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use perisec_core::fleet::{FleetConfig, PipelineFleet};
use perisec_core::pipeline::{CameraPipelineConfig, SharedModels};
use perisec_core::scheduler::SessionScheduler;
use perisec_ml::classifier::Architecture;
use perisec_tz::time::SimDuration;
use perisec_workload::scenario::CameraScenario;

fn bench_fleet_harnesses(c: &mut Criterion) {
    let models = SharedModels::deferred(Architecture::Cnn, 16, 15).with_vision_spec(96, 15);
    models.vision().unwrap();
    let devices = 64usize;
    let cameras = CameraScenario::fleet_cameras(devices, 2, 0.4, SimDuration::from_secs(1), 0xBE15);
    let fleet = |workers: usize| {
        PipelineFleet::with_models(
            FleetConfig {
                workers,
                camera_pipeline: CameraPipelineConfig {
                    batch_windows: 4,
                    ..CameraPipelineConfig::default()
                },
                ..FleetConfig::mixed(0, devices)
            },
            models.clone(),
        )
    };
    let mut group = c.benchmark_group("e15_fleet_harness");
    group.sample_size(10);
    for workers in [2usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("executor_workers", workers),
            &workers,
            |b, &workers| {
                let fleet = fleet(workers);
                b.iter(|| fleet.run_mixed(&[], &cameras).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_steal_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_steal_pass");
    // A ragged weight stream: the regime where the steal pass does work.
    let weights: Vec<u64> = (0..1_000u64).map(|i| i * 7 % 31 + 1).collect();
    group.bench_function("assign_1k_ragged_8_sessions", |b| {
        b.iter(|| {
            let mut scheduler = SessionScheduler::new(8);
            scheduler.assign(&weights)
        });
    });
    group.bench_function("assign_with_stealing_1k_ragged_8_sessions", |b| {
        b.iter(|| {
            let mut scheduler = SessionScheduler::new(8);
            scheduler.assign_with_stealing(&weights)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fleet_harnesses, bench_steal_pass);
criterion_main!(benches);
