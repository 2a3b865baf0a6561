//! Criterion bench behind experiment E7: host-time cost of the simulated
//! TEE transition primitives (world switch, SMC, PTA dispatch, supplicant
//! RPC) — complements the virtual-time table of `experiments e7`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use perisec_devices::mic::Microphone;
use perisec_devices::signal::SineSource;
use perisec_optee::{RpcRequest, Supplicant, TeeClient, TeeCore, TeeParams};
use perisec_secure_driver::driver::SecureI2sDriver;
use perisec_secure_driver::pta::I2sPta;
use perisec_tz::monitor::{smc_func, SmcCall, SmcResult};
use perisec_tz::platform::Platform;
use perisec_tz::world::World;

fn bench_transitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_tee_transitions");
    group.sample_size(50);

    let platform = Platform::jetson_agx_xavier();
    group.bench_function("world_switch_round_trip", |b| {
        b.iter(|| {
            platform.monitor().world_switch(World::Secure);
            platform.monitor().world_switch(World::Normal);
        });
    });

    let platform = Platform::jetson_agx_xavier();
    platform.monitor().register_handler(
        smc_func::GET_REVISION,
        Arc::new(|_: &SmcCall| SmcResult::value(0)),
    );
    group.bench_function("smc_noop_handler", |b| {
        b.iter(|| {
            platform
                .monitor()
                .smc(SmcCall::new(smc_func::GET_REVISION))
                .unwrap()
        });
    });

    let platform = Platform::jetson_agx_xavier();
    let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
    let mic = Microphone::speech_mic("mic", Box::new(SineSource::new(440.0, 16_000, 0.5))).unwrap();
    let pta = core
        .register_pta(Box::new(I2sPta::new(SecureI2sDriver::new(platform, mic))))
        .unwrap();
    group.bench_function("pta_stats_dispatch", |b| {
        b.iter(|| {
            core.invoke_pta(
                pta,
                perisec_secure_driver::pta::cmd::STATS,
                &mut TeeParams::new(),
            )
            .unwrap()
        });
    });
    group.bench_function("supplicant_fs_rpc", |b| {
        b.iter(|| {
            core.supplicant_rpc(RpcRequest::FsWrite {
                path: "bench".into(),
                data: vec![0u8; 64],
            })
            .unwrap()
        });
    });
    group.finish();
}

/// Batch sweep over `TeeClient::invoke_batched`: the host-time cost of
/// dispatching N PTA commands through one SMC, versus N separate SMCs.
fn bench_batched_invocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_batched_invocation");
    group.sample_size(30);

    let platform = Platform::jetson_agx_xavier();
    let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
    let mic = Microphone::speech_mic("mic", Box::new(SineSource::new(440.0, 16_000, 0.5))).unwrap();
    let pta = core
        .register_pta(Box::new(I2sPta::new(SecureI2sDriver::new(platform, mic))))
        .unwrap();
    let client = TeeClient::connect(core);
    let (session, _) = client.open_session(pta, TeeParams::new()).unwrap();

    for &batch in &[1usize, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("one_smc_for_batch", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let calls = (0..batch)
                        .map(|_| (perisec_secure_driver::pta::cmd::STATS, TeeParams::new()))
                        .collect();
                    client.invoke_batched(&session, calls).unwrap()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("one_smc_per_call", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    for _ in 0..batch {
                        client
                            .invoke(
                                &session,
                                perisec_secure_driver::pta::cmd::STATS,
                                TeeParams::new(),
                            )
                            .unwrap();
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_transitions, bench_batched_invocation);
criterion_main!(benches);
