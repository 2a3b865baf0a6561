//! Criterion bench behind experiment E13: host-time cost of the frame
//! path — featurization + classification per scene kind, and the camera
//! PTA's batched window capture on a booted core.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use perisec_core::pipeline::SharedModels;
use perisec_devices::camera::{CameraSensor, FixedScene, SceneKind};
use perisec_ml::classifier::Architecture;
use perisec_ml::vision::FrameCnn;
use perisec_optee::{Supplicant, TeeCore, TeeParam, TeeParams};
use perisec_secure_driver::camera::SecureCameraDriver;
use perisec_secure_driver::camera_pta::{cmd, CameraPta};
use perisec_secure_driver::pta::encode_windows_request;
use perisec_tz::platform::Platform;

/// Trains through the same path the pipelines use, so the bench measures
/// exactly the model the vision TA ships.
fn trained_frame_cnn() -> Arc<FrameCnn> {
    SharedModels::deferred(Architecture::Cnn, 16, 13)
        .with_vision_spec(96, 13)
        .vision()
        .unwrap()
}

fn bench_frame_inference(c: &mut Criterion) {
    let cnn = trained_frame_cnn();
    let mut camera = CameraSensor::smart_home("bench-cam-2", 14).unwrap();
    camera.start();

    let mut group = c.benchmark_group("e13_frame_inference");
    group.sample_size(30);
    for scene in SceneKind::ALL {
        let frame = camera.capture_frame(scene).unwrap();
        group.bench_with_input(
            BenchmarkId::new("predict", format!("{scene:?}")),
            &frame.pixels,
            |b, pixels| {
                b.iter(|| cnn.predict(pixels).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_secure_frame_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_secure_frame_capture");
    group.sample_size(20);
    for batch in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("capture_frame_batch", batch),
            &batch,
            |b, &batch| {
                let platform = Platform::jetson_agx_xavier();
                let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
                let sensor = CameraSensor::smart_home("bench-cam-3", 15).unwrap();
                let driver = SecureCameraDriver::new(
                    platform,
                    sensor,
                    Box::new(FixedScene(SceneKind::Person)),
                );
                let uuid = core.register_pta(Box::new(CameraPta::new(driver))).unwrap();
                for command in [cmd::CONFIGURE, cmd::START] {
                    core.invoke_pta(uuid, command, &mut TeeParams::new())
                        .unwrap();
                }
                let request = encode_windows_request(&vec![2usize; batch]);
                b.iter(|| {
                    let mut params =
                        TeeParams::new().with(0, TeeParam::MemRefInput(request.clone()));
                    core.invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut params)
                        .unwrap();
                    params
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_frame_inference, bench_secure_frame_capture);
criterion_main!(benches);
