//! Criterion bench behind experiment E2: host-time cost of one capture
//! period through the baseline (kernel) and secure (TEE) drivers, of
//! batched windows through the I2S PTA, and of the batch a fleet audio
//! device captures.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use perisec_core::SharedPlayback;
use perisec_devices::codec::AudioEncoding;
use perisec_devices::mic::Microphone;
use perisec_devices::signal::{SignalSource, SineSource};
use perisec_kernel::i2s_driver::BaselineI2sDriver;
use perisec_kernel::pcm::PcmHwParams;
use perisec_kernel::trace::FunctionTracer;
use perisec_optee::{Supplicant, TaUuid, TeeCore, TeeParam, TeeParams};
use perisec_secure_driver::driver::SecureI2sDriver;
use perisec_secure_driver::pta::{cmd, encode_windows_request};
use perisec_secure_driver::I2sPta;
use perisec_tz::platform::Platform;

/// Periods in one fleet utterance's window: a 2.7 s utterance at 160
/// frames per period.
const FLEET_WINDOW_PERIODS: usize = 272;

fn mic() -> Microphone {
    Microphone::speech_mic("bench-mic", Box::new(SineSource::new(440.0, 16_000, 0.6))).unwrap()
}

/// An I2S PTA on a booted core, capturing 160-frame PCM periods from
/// `source`.
fn running_pta(source: Box<dyn SignalSource>) -> (Arc<TeeCore>, TaUuid) {
    let platform = Platform::jetson_agx_xavier();
    let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
    let mic = Microphone::speech_mic("bench-mic", source).unwrap();
    let uuid = core
        .register_pta(Box::new(I2sPta::new(SecureI2sDriver::new(platform, mic))))
        .unwrap();
    let mut configure = TeeParams::new().with(0, TeeParam::ValueInput { a: 160, b: 0 });
    core.invoke_pta(uuid, cmd::CONFIGURE, &mut configure)
        .unwrap();
    core.invoke_pta(uuid, cmd::START, &mut TeeParams::new())
        .unwrap();
    (core, uuid)
}

fn bench_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_capture_throughput");
    group.sample_size(20);
    for &period_frames in &[160usize, 640, 2560] {
        group.bench_with_input(
            BenchmarkId::new("baseline_driver", period_frames),
            &period_frames,
            |b, &period_frames| {
                let mut driver = BaselineI2sDriver::new(
                    Platform::jetson_agx_xavier(),
                    mic(),
                    FunctionTracer::new(),
                );
                driver.probe().unwrap();
                driver
                    .configure(PcmHwParams {
                        period_frames,
                        ..PcmHwParams::voice_default()
                    })
                    .unwrap();
                driver.start().unwrap();
                b.iter(|| driver.capture_periods(4).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("secure_driver", period_frames),
            &period_frames,
            |b, &period_frames| {
                let mut driver = SecureI2sDriver::new(Platform::jetson_agx_xavier(), mic());
                driver
                    .configure(period_frames, AudioEncoding::PcmLe16)
                    .unwrap();
                driver.start().unwrap();
                b.iter(|| driver.capture_periods(4).unwrap());
            },
        );
    }
    // Batch sweep: N four-period windows per PTA capture (one dispatch for
    // the whole batch) versus N separate `capture_periods` calls.
    for &batch in &[1usize, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("secure_driver_batched_windows", batch),
            &batch,
            |b, &batch| {
                let (core, uuid) = running_pta(Box::new(SineSource::new(440.0, 16_000, 0.6)));
                let request = encode_windows_request(&vec![4usize; batch]);
                b.iter(|| {
                    let mut params =
                        TeeParams::new().with(0, TeeParam::MemRefInput(request.clone()));
                    core.invoke_pta(uuid, cmd::CAPTURE_BATCH, &mut params)
                        .unwrap();
                    params
                });
            },
        );
    }
    group.bench_function("secure_pta_fleet_batch", bench_fleet_batch);
    group.finish();
}

/// What one `audio_fleet` device captures per step: a four-window
/// `CAPTURE_BATCH` of 272-period windows through the PTA on a booted core,
/// from a shared playback queue the iteration refills the way the
/// capture stage does (each utterance padded to its whole window).
fn bench_fleet_batch(b: &mut criterion::Bencher) {
    let playback = SharedPlayback::new();
    let (core, uuid) = running_pta(playback.source());

    let window_samples = FLEET_WINDOW_PERIODS * 160;
    let utterance: Vec<i16> = (0..window_samples - 100)
        .map(|i| ((i as f64 * 0.17).sin() * 12_000.0) as i16)
        .collect();
    let windows = [FLEET_WINDOW_PERIODS; 4];
    let request = encode_windows_request(&windows);
    b.iter(|| {
        for _ in windows {
            playback.push_padded(&utterance, window_samples);
        }
        let mut params = TeeParams::new().with(0, TeeParam::MemRefInput(request.clone()));
        core.invoke_pta(uuid, cmd::CAPTURE_BATCH, &mut params)
            .unwrap();
        params
    });
}

criterion_group!(benches, bench_capture);
criterion_main!(benches);
