//! The experiments of the evaluation: E1–E10 measure what the paper
//! promises, E11–E21 the batching, fleet, vision, executor, int8,
//! telemetry, health, chaos and ingest-plane extensions. Each returns an
//! [`Outcome`]; E11, E13–E16 and E18–E21 check their own gates on the
//! values they computed.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use perisec_core::pipeline::{BaselinePipeline, PipelineConfig, SecurePipeline, SharedModels};
use perisec_core::policy::{FilterMode, PrivacyPolicy};
use perisec_devices::codec::AudioEncoding;
use perisec_devices::mic::Microphone;
use perisec_kernel::catalog::DriverCatalog;
use perisec_kernel::i2s_driver::BaselineI2sDriver;
use perisec_kernel::pcm::PcmHwParams;
use perisec_kernel::trace::FunctionTracer;
use perisec_ml::classifier::{Architecture, SensitiveClassifier, TrainConfig};
use perisec_ml::quant::quantize_classifier;
use perisec_optee::{Supplicant, TeeCore, TeeParams};
use perisec_secure_driver::driver::SecureI2sDriver;
use perisec_secure_driver::PORTED_FUNCTIONS;
use perisec_tcb::analysis::TcbAnalysis;
use perisec_tcb::prune::{PruneStrategy, PrunedImage};
use perisec_tcb::report::TcbReport;
use perisec_tz::platform::Platform;
use perisec_tz::time::SimDuration;
use perisec_tz::world::World;
use perisec_workload::corpus::{to_training_examples, CorpusGenerator};
use perisec_workload::scenario::Scenario;
use perisec_workload::vocab::Vocabulary;

/// What one experiment produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The markdown report.
    pub markdown: String,
    /// Files to write to the working directory, as `(name, contents)`.
    pub files: Vec<(&'static str, String)>,
    /// One line per gate the run failed; empty when every gate held.
    pub failed: Vec<String>,
}

impl Outcome {
    /// Records `what` as a failed gate unless the gate holds.
    fn gate(&mut self, holds: bool, what: impl Into<String>) {
        if !holds {
            self.failed.push(what.into());
        }
    }
}

impl From<String> for Outcome {
    fn from(markdown: String) -> Self {
        Outcome {
            markdown,
            ..Outcome::default()
        }
    }
}

/// A steady test tone used by the driver-level experiments (the content of
/// the audio does not matter for throughput/scaling measurements).
fn sine_source() -> Box<dyn perisec_devices::signal::SignalSource> {
    Box::new(perisec_devices::signal::SineSource::new(440.0, 16_000, 0.6))
}

/// E1 — TCB reduction: traced per-task function sets vs the full driver.
pub fn run_e1_tcb() -> Outcome {
    let platform = Platform::jetson_agx_xavier();
    let mic = Microphone::speech_mic("mic", sine_source()).expect("valid mic config");
    let tracer = FunctionTracer::new();
    tracer.enable();
    let mut driver = BaselineI2sDriver::new(platform, mic, tracer.clone());
    driver.probe().expect("probe succeeds");

    tracer.begin_task("record");
    driver
        .configure(PcmHwParams::voice_default())
        .expect("configure");
    driver.start().expect("start");
    driver.capture_periods(10).expect("capture");
    driver.stop();
    tracer.end_task();
    tracer.begin_task("playback");
    driver.run_playback_task();
    tracer.end_task();
    tracer.begin_task("mixer-controls");
    driver.run_mixer_task();
    tracer.end_task();
    tracer.begin_task("power-management");
    driver.run_pm_cycle();
    tracer.end_task();

    let catalog = DriverCatalog::tegra_audio_stack();
    let analysis = TcbAnalysis::analyze(&catalog, &tracer.log());
    let full = PrunedImage::build(&catalog, &PruneStrategy::KeepAll);
    let record_fns: BTreeSet<String> = analysis
        .task("record")
        .map(|t| t.functions.clone())
        .unwrap_or_default();
    let pruned = PrunedImage::build(
        &catalog,
        &PruneStrategy::TracedFunctions {
            functions: record_fns,
        },
    );
    let report = TcbReport {
        analysis,
        full_image: full,
        pruned_image: pruned,
    };
    let mut out = String::from("## E1 — TCB reduction via kernel tracing\n\n");
    out.push_str(&report.to_markdown());
    let gap = report.analysis.coverage_gap("record", PORTED_FUNCTIONS);
    let _ = writeln!(
        out,
        "\nSecure-driver port covers the traced record task: {}",
        if gap.is_empty() { "yes" } else { "NO (gap!)" }
    );
    out.into()
}

/// E2 — capture throughput (CPU cost per captured byte), secure vs
/// baseline driver, across period sizes.
pub fn run_e2_throughput() -> Outcome {
    let mut out = String::from("## E2 — capture throughput vs period size\n\n");
    out.push_str("| period (frames) | buffer (bytes) | baseline MB/s of CPU | secure MB/s of CPU | overhead |\n|---|---|---|---|---|\n");
    for &period_frames in &[64usize, 160, 320, 640, 1280, 2560] {
        // Baseline driver.
        let platform = Platform::jetson_agx_xavier();
        let mic = Microphone::speech_mic("mic", sine_source()).expect("mic");
        let tracer = FunctionTracer::new();
        let mut baseline = BaselineI2sDriver::new(platform, mic, tracer);
        baseline.probe().expect("probe");
        baseline
            .configure(PcmHwParams {
                period_frames,
                ..PcmHwParams::voice_default()
            })
            .expect("configure");
        baseline.start().expect("start");
        let outcome = baseline.capture_periods(50).expect("capture");
        let baseline_tput = outcome.cpu_throughput_bytes_per_sec() / 1e6;

        // Secure driver (same total audio).
        let platform = Platform::jetson_agx_xavier();
        let mic = Microphone::speech_mic("mic", sine_source()).expect("mic");
        let mut secure = SecureI2sDriver::new(platform.clone(), mic);
        secure
            .configure(period_frames, AudioEncoding::PcmLe16)
            .expect("configure");
        secure.start().expect("start");
        let (encoded, report) = secure.capture_periods(50).expect("capture");
        let secure_tput = encoded.len() as f64 / report.cpu_time.as_secs_f64() / 1e6;

        let _ = writeln!(
            out,
            "| {period_frames} | {} | {baseline_tput:.1} | {secure_tput:.1} | {:.2}x |",
            period_frames * 2,
            baseline_tput / secure_tput
        );
    }
    out.into()
}

/// E3 — end-to-end latency breakdown per utterance, secure vs baseline.
pub fn run_e3_latency() -> Outcome {
    let scenario = Scenario::mixed(10, 0.5, SimDuration::from_secs(10), 0xE3);
    let mut secure = SecurePipeline::new(PipelineConfig::default()).expect("secure pipeline");
    let secure_report = secure.run_scenario(&scenario).expect("secure run");
    let mut baseline = BaselinePipeline::new(PipelineConfig::default()).expect("baseline pipeline");
    let baseline_report = baseline.run_scenario(&scenario).expect("baseline run");

    let n = scenario.len() as u64;
    let mut out = String::from("## E3 — end-to-end latency breakdown (mean per utterance)\n\n");
    out.push_str("| stage | baseline | secure |\n|---|---|---|\n");
    let rows = [
        (
            "driver capture (CPU)",
            baseline_report.latency.capture_cpu / n,
            secure_report.latency.capture_cpu / n,
        ),
        (
            "ML (STT + classify)",
            baseline_report.latency.ml / n,
            secure_report.latency.ml / n,
        ),
        (
            "relay (TLS + supplicant)",
            baseline_report.latency.relay / n,
            secure_report.latency.relay / n,
        ),
        (
            "end-to-end processing",
            baseline_report.latency.mean_end_to_end(),
            secure_report.latency.mean_end_to_end(),
        ),
        (
            "p99 processing",
            baseline_report.latency.p99_end_to_end(),
            secure_report.latency.p99_end_to_end(),
        ),
    ];
    for (name, base, sec) in rows {
        let _ = writeln!(out, "| {name} | {base} | {sec} |");
    }
    let _ = writeln!(
        out,
        "\nWorld switches: baseline {} vs secure {}; SMCs: {} vs {}; supplicant RPCs: {} vs {}.",
        baseline_report.tz.world_switches,
        secure_report.tz.world_switches,
        baseline_report.tz.smc_calls,
        secure_report.tz.smc_calls,
        baseline_report.tz.supplicant_rpcs,
        secure_report.tz.supplicant_rpcs,
    );
    out.into()
}

/// E4 — classifier quality per architecture.
pub fn run_e4_accuracy() -> Outcome {
    let vocabulary = Vocabulary::smart_home();
    let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, 0xE4);
    let (train, test) = generator.train_test_split(300, 120);
    let train = to_training_examples(&train);
    let test = to_training_examples(&test);
    let mut out = String::from("## E4 — sensitive-content classifier quality\n\n");
    out.push_str("| architecture | accuracy | precision | recall | f1 | parameters | inference flops (8 tokens) |\n|---|---|---|---|---|---|---|\n");
    for arch in Architecture::ALL {
        let mut classifier = SensitiveClassifier::new(arch, TrainConfig::small(vocabulary.len()));
        classifier.fit(&train).expect("training succeeds");
        let metrics = classifier.evaluate(&test).expect("evaluation succeeds");
        let _ = writeln!(
            out,
            "| {arch} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {} |",
            metrics.accuracy(),
            metrics.precision(),
            metrics.recall(),
            metrics.f1(),
            classifier.parameter_count(),
            classifier.flops_per_inference(8)
        );
    }
    out.into()
}

/// E5 — model memory vs the TEE secure-RAM budget, f32 vs int8.
pub fn run_e5_model_memory() -> Outcome {
    let vocabulary = Vocabulary::smart_home();
    let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, 0xE5);
    let (train, test) = generator.train_test_split(200, 100);
    let train = to_training_examples(&train);
    let test = to_training_examples(&test);
    let budgets_kib = [2 * 1024usize, 32 * 1024];
    let mut out = String::from("## E5 — model footprint vs secure-memory budget\n\n");
    out.push_str("| architecture | config | f32 KiB | int8 KiB | accuracy f32 | accuracy int8 | fits 2 MiB TEE | fits 32 MiB TEE |\n|---|---|---|---|---|---|---|---|\n");
    for arch in Architecture::ALL {
        for (label, config) in [
            ("small", TrainConfig::small(vocabulary.len())),
            ("large", TrainConfig::large(vocabulary.len())),
        ] {
            let mut classifier = SensitiveClassifier::new(arch, config);
            classifier.fit(&train).expect("training succeeds");
            let acc_f32 = classifier.evaluate(&test).expect("eval").accuracy();
            let f32_bytes = classifier.memory_bytes_f32();
            let (quantized, report) = quantize_classifier(classifier);
            let acc_int8 = quantized.evaluate(&test).expect("eval").accuracy();
            let _ = writeln!(
                out,
                "| {arch} | {label} | {} | {} | {:.3} | {:.3} | {} | {} |",
                f32_bytes / 1024,
                report.int8_bytes / 1024,
                acc_f32,
                acc_int8,
                if report.int8_bytes < budgets_kib[0] * 1024 {
                    "yes"
                } else {
                    "no"
                },
                if report.int8_bytes < budgets_kib[1] * 1024 {
                    "yes"
                } else {
                    "no"
                },
            );
        }
    }
    out.into()
}

/// E6 — energy per utterance and average power, secure vs baseline.
pub fn run_e6_power() -> Outcome {
    let scenario = Scenario::mixed(20, 0.4, SimDuration::from_secs(3), 0xE6);
    let mut secure = SecurePipeline::new(PipelineConfig::default()).expect("secure pipeline");
    let secure_report = secure.run_scenario(&scenario).expect("secure run");
    let mut baseline = BaselinePipeline::new(PipelineConfig::default()).expect("baseline pipeline");
    let baseline_report = baseline.run_scenario(&scenario).expect("baseline run");
    let mut out = String::from("## E6 — energy and power over a 60 s scenario\n\n");
    out.push_str("| metric | baseline | secure | increase |\n|---|---|---|---|\n");
    let _ = writeln!(
        out,
        "| total energy (mJ) | {:.0} | {:.0} | {:.1}% |",
        baseline_report.energy.total_mj,
        secure_report.energy.total_mj,
        100.0 * (secure_report.energy.total_mj / baseline_report.energy.total_mj - 1.0)
    );
    let _ = writeln!(
        out,
        "| energy per utterance (mJ) | {:.0} | {:.0} | {:.1}% |",
        baseline_report.energy_per_utterance_mj(),
        secure_report.energy_per_utterance_mj(),
        100.0
            * (secure_report.energy_per_utterance_mj() / baseline_report.energy_per_utterance_mj()
                - 1.0)
    );
    let _ = writeln!(
        out,
        "| average power (mW) | {:.0} | {:.0} | {:.1}% |",
        baseline_report.energy.average_power_mw(),
        secure_report.energy.average_power_mw(),
        100.0
            * (secure_report.energy.average_power_mw() / baseline_report.energy.average_power_mw()
                - 1.0)
    );
    let _ = writeln!(
        out,
        "| secure-world CPU energy (mJ) | {:.0} | {:.0} | — |",
        baseline_report
            .energy
            .component_mj(perisec_tz::power::Component::CpuSecureWorld),
        secure_report
            .energy
            .component_mj(perisec_tz::power::Component::CpuSecureWorld),
    );
    out.into()
}

/// E7 — world-switch and TEE-dispatch microbenchmarks (virtual-time cost of
/// each primitive).
pub fn run_e7_worldswitch() -> Outcome {
    let mut out =
        String::from("## E7 — TEE transition microbenchmarks (virtual time per operation)\n\n");
    out.push_str("| operation | cost |\n|---|---|\n");

    // Raw world switch.
    let platform = Platform::jetson_agx_xavier();
    let before = platform.clock().now();
    for _ in 0..100 {
        platform.monitor().world_switch(World::Secure);
        platform.monitor().world_switch(World::Normal);
    }
    let per_round_trip = platform.clock().elapsed_since(before) / 100;
    let _ = writeln!(out, "| world-switch round trip | {per_round_trip} |");

    // SMC with a registered no-op handler.
    let platform = Platform::jetson_agx_xavier();
    platform.monitor().register_handler(
        perisec_tz::monitor::smc_func::GET_REVISION,
        std::sync::Arc::new(|_: &perisec_tz::monitor::SmcCall| {
            perisec_tz::monitor::SmcResult::value(0)
        }),
    );
    let before = platform.clock().now();
    for _ in 0..100 {
        platform
            .monitor()
            .smc(perisec_tz::monitor::SmcCall::new(
                perisec_tz::monitor::smc_func::GET_REVISION,
            ))
            .expect("smc");
    }
    let _ = writeln!(
        out,
        "| SMC round trip (no-op handler) | {} |",
        platform.clock().elapsed_since(before) / 100
    );

    // TEE core primitives.
    let platform = Platform::jetson_agx_xavier();
    let core = TeeCore::boot(platform.clone(), std::sync::Arc::new(Supplicant::new()));
    let mic = Microphone::speech_mic("mic", sine_source()).expect("mic");
    let pta = core
        .register_pta(Box::new(perisec_secure_driver::pta::I2sPta::new(
            SecureI2sDriver::new(platform.clone(), mic),
        )))
        .expect("register pta");
    let before = platform.clock().now();
    for _ in 0..100 {
        let _ = core.invoke_pta(
            pta,
            perisec_secure_driver::pta::cmd::STATS,
            &mut TeeParams::new(),
        );
    }
    let _ = writeln!(
        out,
        "| PTA command dispatch (secure world) | {} |",
        platform.clock().elapsed_since(before) / 100
    );

    let before = platform.clock().now();
    for _ in 0..20 {
        core.supplicant_rpc(perisec_optee::RpcRequest::FsWrite {
            path: "bench".into(),
            data: vec![0u8; 64],
        })
        .expect("rpc");
    }
    let _ = writeln!(
        out,
        "| supplicant RPC round trip | {} |",
        platform.clock().elapsed_since(before) / 20
    );

    let cost = platform.cost();
    let _ = writeln!(
        out,
        "| TA session open (model parameter) | {} |",
        cost.session_open
    );
    let _ = writeln!(
        out,
        "| TA command dispatch (model parameter) | {} |",
        cost.ta_dispatch
    );
    out.into()
}

/// E8 — privacy leakage under different policies, secure vs baseline.
pub fn run_e8_leakage() -> Outcome {
    let scenario = Scenario::mixed(24, 0.5, SimDuration::from_secs(5), 0xE8);
    let mut out = String::from("## E8 — sensitive utterances leaked to the cloud\n\n");
    out.push_str("| pipeline / policy | utterances | sensitive | reached cloud | sensitive leaked | leakage rate |\n|---|---|---|---|---|---|\n");

    let mut baseline = BaselinePipeline::new(PipelineConfig::default()).expect("baseline");
    let report = baseline.run_scenario(&scenario).expect("baseline run");
    let _ = writeln!(
        out,
        "| baseline (no TEE, no filter) | {} | {} | {} | {} | {:.0}% |",
        report.workload.utterances,
        report.workload.sensitive_utterances,
        report.cloud.received_utterances(),
        report.cloud.leaked_sensitive_utterances(),
        100.0 * report.cloud.leakage_rate()
    );

    for (label, policy) in [
        (
            "perisec, allow-all (ablation)",
            PrivacyPolicy {
                mode: FilterMode::AllowAll,
                threshold: 0.5,
                lexical_guard: false,
            },
        ),
        ("perisec, block-sensitive", PrivacyPolicy::block_sensitive()),
        (
            "perisec, redact-sensitive",
            PrivacyPolicy::redact_sensitive(),
        ),
        (
            "perisec, block-all (ablation)",
            PrivacyPolicy {
                mode: FilterMode::BlockAll,
                threshold: 0.5,
                lexical_guard: true,
            },
        ),
    ] {
        let mut secure = SecurePipeline::new(PipelineConfig {
            policy,
            ..PipelineConfig::default()
        })
        .expect("secure pipeline");
        let report = secure.run_scenario(&scenario).expect("secure run");
        let _ = writeln!(
            out,
            "| {label} | {} | {} | {} | {} | {:.0}% |",
            report.workload.utterances,
            report.workload.sensitive_utterances,
            report.cloud.received_utterances(),
            report.cloud.leaked_sensitive_utterances(),
            100.0 * report.cloud.leakage_rate()
        );
    }
    out.into()
}

/// E9 — scalability: aggregate throughput and processing latency as the
/// number of concurrent capture streams grows.
pub fn run_e9_scalability() -> Outcome {
    let mut out = String::from("## E9 — scaling the number of peripheral streams\n\n");
    out.push_str("| streams | total periods | secure CPU time | aggregate capture MB/s | secure RAM in use (KiB) |\n|---|---|---|---|---|\n");
    for &streams in &[1usize, 2, 4, 8, 16] {
        let platform = Platform::jetson_agx_xavier();
        let mut drivers: Vec<SecureI2sDriver> = (0..streams)
            .map(|i| {
                let mic = Microphone::speech_mic(format!("mic{i}"), sine_source()).expect("mic");
                let mut d = SecureI2sDriver::new(platform.clone(), mic);
                d.configure(160, AudioEncoding::PcmLe16).expect("configure");
                d.start().expect("start");
                d
            })
            .collect();
        let before = platform.clock().now();
        let mut total_bytes = 0usize;
        let mut total_periods = 0usize;
        for d in drivers.iter_mut() {
            let (bytes, report) = d.capture_periods(50).expect("capture");
            total_bytes += bytes.len();
            total_periods += report.periods;
        }
        let cpu = platform.clock().elapsed_since(before);
        let _ = writeln!(
            out,
            "| {streams} | {total_periods} | {cpu} | {:.1} | {} |",
            total_bytes as f64 / cpu.as_secs_f64() / 1e6,
            platform.secure_ram().bytes_in_use() / 1024
        );
    }
    out.into()
}

/// E10 — secure image and runtime secure-memory footprint, full vs pruned
/// driver and per-model.
pub fn run_e10_footprint() -> Outcome {
    let catalog = DriverCatalog::tegra_audio_stack();
    let full = PrunedImage::build(&catalog, &PruneStrategy::KeepAll);
    let ported: BTreeSet<String> = PORTED_FUNCTIONS.iter().map(|s| s.to_string()).collect();
    let pruned = PrunedImage::build(
        &catalog,
        &PruneStrategy::TracedFunctions { functions: ported },
    );

    let mut out = String::from("## E10 — OP-TEE image and secure-RAM footprint\n\n");
    out.push_str("| item | size |\n|---|---|\n");
    let _ = writeln!(
        out,
        "| OP-TEE image, full driver ported | {} KiB |",
        full.image_bytes / 1024
    );
    let _ = writeln!(
        out,
        "| OP-TEE image, traced-minimal driver | {} KiB |",
        pruned.image_bytes / 1024
    );
    let _ = writeln!(
        out,
        "| driver portion reduction | {:.1}x |",
        pruned.driver_reduction_vs(&full)
    );

    // Runtime secure-RAM usage of the deployed stack.
    let pipeline = SecurePipeline::new(PipelineConfig::default()).expect("pipeline");
    let in_use = pipeline.platform().secure_ram().bytes_in_use();
    let capacity = pipeline.platform().secure_ram().capacity();
    let _ = writeln!(
        out,
        "| runtime secure RAM (PTA + filter TA + I/O buffers) | {} KiB of {} KiB ({:.1}%) |",
        in_use / 1024,
        capacity / 1024,
        100.0 * in_use as f64 / capacity as f64
    );
    for descriptor in pipeline.tee_core().descriptors() {
        let _ = writeln!(
            out,
            "| declared footprint of {} | {} KiB |",
            descriptor.name,
            descriptor.footprint_bytes() / 1024
        );
    }
    // Model footprints per architecture.
    for arch in Architecture::ALL {
        let classifier = SharedModels::train(arch, 40, 0xE10)
            .expect("train")
            .audio()
            .expect("audio models")
            .classifier;
        let _ = writeln!(
            out,
            "| {arch} classifier weights (f32) | {} KiB |",
            classifier.memory_bytes_f32() / 1024
        );
    }
    out.into()
}

/// E11 — TEE-transition amortization: world switches, SMCs and supplicant
/// RPCs per utterance as the pipeline batch size sweeps up.
pub fn run_e11_batch_sweep() -> Outcome {
    let mut out = String::from(
        "## E11 — batched world transitions (per-utterance TEE cost vs batch size)\n\n",
    );
    out.push_str(
        "| batch | SMCs/utt | world switches/utt | supplicant RPCs/utt | leaked sensitive |\n\
         |---|---|---|---|---|\n",
    );
    let models = SharedModels::train(Architecture::Cnn, 60, 0xE11).expect("train");
    let scenario = Scenario::mixed(16, 0.25, SimDuration::from_secs(2), 0xE11);
    let utterances = scenario.len() as f64;
    let mut outcome = Outcome::default();
    for batch in [1usize, 2, 4, 8, 16] {
        let mut pipeline = SecurePipeline::with_models(
            PipelineConfig {
                batch_windows: batch,
                ..PipelineConfig::default()
            },
            &models,
        )
        .expect("pipeline");
        let report = pipeline.run_scenario(&scenario).expect("run");
        let leaked = report.cloud.leaked_sensitive_utterances();
        let _ = writeln!(
            out,
            "| {batch} | {:.2} | {:.2} | {:.2} | {leaked} |",
            report.tz.smc_calls as f64 / utterances,
            report.tz.world_switches as f64 / utterances,
            report.tz.supplicant_rpcs as f64 / utterances,
        );
        outcome.gate(leaked == 0, format!("batch {batch}: {leaked} leaked"));
    }
    outcome.markdown = out;
    outcome
}

/// E12 — fleet throughput: M concurrent device pipelines sharing one
/// trained model set.
pub fn run_e12_fleet() -> Outcome {
    use perisec_core::fleet::{FleetConfig, PipelineFleet};

    let mut out =
        String::from("## E12 — multi-device fleet (shared models, concurrent pipelines)\n\n");
    out.push_str(
        "| devices | utterances | leaked | switches/utt | mean latency | host time |\n\
         |---|---|---|---|---|---|\n",
    );
    let models = SharedModels::train(Architecture::Cnn, 60, 0xE12).expect("train");
    for devices in [2usize, 4, 8] {
        let fleet = PipelineFleet::with_models(
            FleetConfig {
                devices,
                pipeline: PipelineConfig {
                    batch_windows: 8,
                    ..PipelineConfig::default()
                },
                ..FleetConfig::of(0)
            },
            models.clone(),
        );
        let scenarios = Scenario::fleet(devices, 8, 0.25, SimDuration::from_secs(2), 0xE12);
        let host_start = std::time::Instant::now();
        let report = fleet.run(&scenarios).expect("fleet run");
        let host_elapsed = host_start.elapsed();
        let _ = writeln!(
            out,
            "| {devices} | {} | {} | {:.2} | {} | {:.0} ms |",
            report.total_utterances(),
            report.leaked_sensitive_utterances(),
            report.world_switches_per_utterance(),
            report.mean_end_to_end(),
            host_elapsed.as_secs_f64() * 1000.0,
        );
    }
    out.into()
}

/// E13 — the vision pipeline: camera batch sweep (per-event TEE cost and
/// privacy outcome as the batch grows), a mixed audio+camera fleet off one
/// shared model set, and the camera path's TCB accounting.
pub fn run_e13_vision() -> Outcome {
    use perisec_core::fleet::{FleetConfig, PipelineFleet};
    use perisec_core::pipeline::{CameraPipelineConfig, SecureCameraPipeline};
    use perisec_secure_driver::PORTED_CAMERA_FUNCTIONS;
    use perisec_tcb::analysis::TaskTcb;
    use perisec_workload::scenario::CameraScenario;

    let mut out =
        String::from("## E13 — secure vision pipeline (camera batch sweep + mixed fleet)\n\n");

    // Part 1: batch sweep. Outcomes must be identical at every batch size
    // and no pixel may reach the cloud.
    out.push_str(
        "| batch | SMCs/event | world switches/event | sensitive scenes | leaked | non-sensitive delivered | payload bytes at cloud |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let models = SharedModels::train(Architecture::Cnn, 60, 0xE13).expect("train");
    let scenario = CameraScenario::mixed_scenes(16, 0.4, SimDuration::from_secs(2), 0xE13);
    let events = scenario.len() as f64;
    let neutral = scenario.len() - scenario.sensitive_count();
    let mut outcome = Outcome::default();
    for batch in [1usize, 2, 4, 8] {
        let mut pipeline = SecureCameraPipeline::with_models(
            CameraPipelineConfig {
                batch_windows: batch,
                ..CameraPipelineConfig::default()
            },
            &models,
        )
        .expect("camera pipeline");
        let report = pipeline.run_scenario(&scenario).expect("camera run");
        let payload: usize = report
            .cloud
            .report
            .events
            .iter()
            .map(|e| e.audio_bytes)
            .sum();
        let leaked = report.cloud.leaked_sensitive_utterances();
        let _ = writeln!(
            out,
            "| {batch} | {:.2} | {:.2} | {} | {leaked} | {}/{} | {payload} |",
            report.tz.smc_calls as f64 / events,
            report.tz.world_switches as f64 / events,
            scenario.sensitive_count(),
            report.cloud.received_utterances(),
            neutral,
        );
        outcome.gate(leaked == 0, format!("batch {batch}: {leaked} leaked"));
        outcome.gate(
            payload == 0,
            format!("batch {batch}: {payload} payload bytes"),
        );
    }

    // Part 2: a mixed audio+camera fleet sharing one model set.
    out.push_str("\n### Mixed audio+camera fleet (shared models)\n\n");
    out.push_str(
        "| audio devices | camera devices | utterances+scenes | leaked | switches/event | mean latency |\n\
         |---|---|---|---|---|---|\n",
    );
    for (audio_devices, camera_devices) in [(2usize, 2usize), (4, 4)] {
        let fleet = PipelineFleet::with_models(
            FleetConfig {
                devices: audio_devices,
                pipeline: PipelineConfig {
                    batch_windows: 8,
                    ..PipelineConfig::default()
                },
                camera_devices,
                camera_pipeline: CameraPipelineConfig {
                    batch_windows: 8,
                    ..CameraPipelineConfig::default()
                },
                ..FleetConfig::of(0)
            },
            models.clone(),
        );
        let audio = Scenario::fleet(audio_devices, 8, 0.25, SimDuration::from_secs(2), 0xE13);
        let cameras = CameraScenario::fleet_cameras(
            camera_devices,
            8,
            0.25,
            SimDuration::from_secs(2),
            0xE13,
        );
        let report = fleet.run_mixed(&audio, &cameras).expect("mixed fleet run");
        let _ = writeln!(
            out,
            "| {audio_devices} | {camera_devices} | {} | {} | {:.2} | {} |",
            report.total_utterances(),
            report.leaked_sensitive_utterances(),
            report.world_switches_per_utterance(),
            report.mean_end_to_end(),
        );
    }

    // Part 3: camera-path TCB accounting, mirroring E1's audio numbers.
    let camera_catalog = DriverCatalog::tegra_camera_stack();
    let camera_task =
        TaskTcb::from_ported(&camera_catalog, "record-frames", PORTED_CAMERA_FUNCTIONS);
    let _ = writeln!(
        out,
        "\nCamera TCB: the ported frame-capture set is {} functions / {} loc of the {}-loc camera stack ({:.1}% — ISP and media controller stay untrusted).",
        camera_task.functions.len(),
        camera_task.loc,
        camera_catalog.total_loc(),
        100.0 * camera_task.loc_fraction(camera_catalog.total_loc()),
    );
    outcome.markdown = out;
    outcome
}

/// E14 — the multi-core TEE scheduler: one high-fps camera sharded
/// across N vision-TA sessions on a secure-core pool, with secure-RAM
/// model dedup. The sweep shows the frame budget flipping from missed to
/// met as sessions are added, at identical privacy outcomes and strictly
/// lower secure-RAM residency than without dedup.
pub fn run_e14_shard_sweep() -> Outcome {
    use perisec_core::pipeline::{CameraPipelineConfig, SecureCameraPipeline, SharedModels};
    use perisec_core::pipeline::{ShardedCameraConfig, ShardedVisionPipeline};
    use perisec_core::pool::TeePoolConfig;
    use perisec_workload::scenario::CameraScenario;

    let mut out = String::from(
        "## E14 — multi-core TEE scheduler (shard sweep, model dedup, frame budget)\n\n",
    );

    // A high-speed vision sensor on the quad-core IoT gateway: 4-frame
    // windows at 12 kfps (machine-vision territory), so windows arrive
    // every 333 µs — faster than one vision-TA session can classify them.
    let scenario = CameraScenario::high_fps(48, 4, 12_000, 0.4, 0xE14);
    let deadline = scenario.duration() + scenario.event_spacing();
    let events = scenario.len() as f64;
    let neutral = scenario.len() - scenario.sensitive_count();
    let models = SharedModels::deferred(Architecture::Cnn, 16, 0xE14).with_vision_spec(120, 0xE14);
    let _ = writeln!(
        out,
        "Stream: {} windows of 4 frames at 12000 fps (one window per {}), \
         frame budget = stream duration + one window period = {}.\n",
        scenario.len(),
        scenario.event_spacing(),
        deadline,
    );

    // The unsharded reference outcome the sweep must reproduce.
    let mut reference = SecureCameraPipeline::with_models(
        CameraPipelineConfig {
            batch_windows: 4,
            ..CameraPipelineConfig::default()
        },
        &models,
    )
    .expect("reference camera pipeline");
    let reference_ids = reference
        .run_scenario(&scenario)
        .expect("reference run")
        .cloud
        .report
        .received_dialog_ids();

    out.push_str(
        "| shards | SMCs/event | switches/event | leaked | delivered | payload bytes | \
         RAM KiB (dedup) | RAM KiB (no dedup) | run clock | budget | outcome vs unsharded |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut utilization_lines = String::new();
    let mut outcome = Outcome::default();
    for shards in [1usize, 2, 4] {
        let mut pipeline = ShardedVisionPipeline::with_models(
            ShardedCameraConfig {
                camera: CameraPipelineConfig {
                    batch_windows: 4,
                    ..CameraPipelineConfig::default()
                },
                pool: TeePoolConfig::iot_quad_node(shards),
                ..ShardedCameraConfig::default()
            },
            &models,
        )
        .expect("sharded pipeline");
        let run = pipeline.run_scenario(&scenario).expect("sharded run");
        let payload: usize = run
            .report
            .cloud
            .report
            .events
            .iter()
            .map(|e| e.audio_bytes)
            .sum();
        let leaked = run.report.cloud.leaked_sensitive_utterances();
        let ram_dedup_kib = run.secure_ram.in_use_bytes / 1024;
        let ram_plain_kib = run.secure_ram.bytes_without_dedup() / 1024;
        let _ = writeln!(
            out,
            "| {shards} | {:.2} | {:.2} | {leaked} | {}/{} | {payload} | {ram_dedup_kib} | {ram_plain_kib} | {} | {} | {} |",
            run.report.tz.smc_calls as f64 / events,
            run.report.tz.world_switches as f64 / events,
            run.report.cloud.received_utterances(),
            neutral,
            run.report.virtual_time,
            if run.kept_up(deadline) {
                "met"
            } else {
                "MISSED"
            },
            if run.report.cloud.report.received_dialog_ids() == reference_ids {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        outcome.gate(leaked == 0, format!("{shards} shards: {leaked} leaked"));
        outcome.gate(
            payload == 0,
            format!("{shards} shards: {payload} payload bytes"),
        );
        outcome.gate(
            shards < 2 || ram_dedup_kib < ram_plain_kib,
            format!("{shards} shards: RAM {ram_dedup_kib} KiB with dedup, {ram_plain_kib} without"),
        );
        let _ = writeln!(
            utilization_lines,
            "- {shards} shard(s): {}",
            run.per_core
                .iter()
                .map(|c| format!(
                    "core {} at {:.0}% ({} switches)",
                    c.core,
                    100.0 * c.utilization,
                    c.world_switches
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    out.push_str("\n### Per-core utilization\n\n");
    out.push_str(&utilization_lines);

    // Adaptive batching: the batcher walks the E11 cost curve from the
    // latency side — a generous SLO buys big batches (few crossings), a
    // tight SLO forces small ones.
    out.push_str("\n### Adaptive batching (2 shards, SLO sweep)\n\n");
    out.push_str(
        "| per-window SLO | switches/event | p95 latency | p99 latency |\n|---|---|---|---|\n",
    );
    for slo_us in [400u64, 2_000, 20_000] {
        let mut pipeline = ShardedVisionPipeline::with_models(
            ShardedCameraConfig {
                camera: CameraPipelineConfig::default(),
                pool: TeePoolConfig::iot_quad_node(2),
                latency_slo: Some(SimDuration::from_micros(slo_us)),
                ..ShardedCameraConfig::default()
            },
            &models,
        )
        .expect("adaptive pipeline");
        let run = pipeline.run_scenario(&scenario).expect("adaptive run");
        let _ = writeln!(
            out,
            "| {} | {:.2} | {} | {} |",
            SimDuration::from_micros(slo_us),
            run.report.tz.world_switches as f64 / events,
            run.report.latency.p95_end_to_end(),
            run.report.latency.p99_end_to_end(),
        );
    }
    outcome.markdown = out;
    outcome
}

/// Strong counts of the shared model `Arc`s a resident device stack holds
/// (training the audio models if they have not been yet).
fn model_handle_counts(models: &perisec_core::pipeline::SharedModels) -> Vec<usize> {
    use std::sync::Arc;
    let audio = models.audio().expect("train speech models");
    let mut counts = vec![
        Arc::strong_count(&audio.stt),
        Arc::strong_count(&audio.classifier),
    ];
    counts.extend(audio.classifier_int8.as_ref().map(Arc::strong_count));
    counts.push(Arc::strong_count(
        &models.vision_int8().expect("quantize frame classifier"),
    ));
    counts
}

/// E15 — the bounded fleet executor: camera fleets of four-digit device
/// counts on a fixed worker pool, their reports byte-identical across
/// worker counts, a 10k+ device mega-fleet on 8 workers, and the session
/// scheduler's work-stealing pass on a ragged high-fps mix.
pub fn run_e15_fleet_executor() -> Outcome {
    use perisec_core::fleet::{FleetConfig, PipelineFleet};
    use perisec_core::pipeline::{CameraPipelineConfig, SharedModels};
    use perisec_core::pipeline::{ShardedCameraConfig, ShardedVisionPipeline};
    use perisec_core::pool::TeePoolConfig;
    use perisec_workload::scenario::CameraScenario;

    let mut out = String::from("## E15 — bounded fleet executor\n\n");

    // Part 1: camera fleets on 8 workers. Camera devices carry the
    // table: their per-device work is small, so executor overhead would
    // show rather than drown in ML time. The 1024-device fleet also runs
    // on one worker: the schedule may change host cost, never the report.
    out.push_str(
        "| devices | workers | host ms | resident stacks | leaked | payload bytes |\n\
         |---|---|---|---|---|---|\n",
    );
    let models = SharedModels::deferred(Architecture::Cnn, 60, 0xE15).with_vision_spec(120, 0xE15);
    models.vision().expect("train frame classifier");
    let camera_pipeline = CameraPipelineConfig {
        batch_windows: 4,
        ..CameraPipelineConfig::default()
    };
    let fleet = |devices: usize, workers: usize| {
        PipelineFleet::with_models(
            FleetConfig {
                workers,
                camera_pipeline: camera_pipeline.clone(),
                ..FleetConfig::mixed(0, devices)
            },
            models.clone(),
        )
    };
    let mut outcome = Outcome::default();
    let mut identical_at_1024 = false;
    for devices in [256usize, 1024] {
        // Two one-frame windows per device.
        let cameras = CameraScenario::fleet_high_fps(devices, 2, 1, 30, 0.4, 0xE15);
        let (pooled, stats) = fleet(devices, 8)
            .run_mixed_stats(&[], &cameras)
            .expect("executor fleet");
        let leaked = pooled.leaked_sensitive_utterances();
        let payload = pooled.total_payload_bytes();
        let (resident, workers) = (stats.peak_resident, stats.workers);
        let _ = writeln!(
            out,
            "| {devices} | {workers} | {:.0} | {resident} | {leaked} | {payload} |",
            stats.host_millis,
        );
        outcome.gate(leaked == 0, format!("{devices} devices: {leaked} leaked"));
        outcome.gate(
            payload == 0,
            format!("{devices} devices: {payload} payload bytes"),
        );
        outcome.gate(
            resident <= workers,
            format!("{devices} devices: {resident} stacks resident on {workers} workers"),
        );
        if devices == 1024 {
            let serial = fleet(devices, 1)
                .run_mixed(&[], &cameras)
                .expect("one-worker fleet");
            identical_at_1024 = pooled.to_json() == serial.to_json();
        }
    }
    let _ = writeln!(
        out,
        "\nReports byte-identical across workers 1 and 8 at 1024 devices: {}",
        if identical_at_1024 {
            "yes"
        } else {
            "NO (bug!)"
        },
    );
    outcome.gate(identical_at_1024, "reports differ between 1 and 8 workers");

    // Part 2: the 10k-device mega fleet — mixed audio+camera, all on 8
    // workers, residency bounded by the pool.
    out.push_str("\n### Mega fleet: 10k+ mixed devices on 8 workers\n\n");
    out.push_str(
        "| devices | audio | cameras | workers | utterances | leaked | payload bytes | resident stacks | host ms |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let audio_devices = 128usize;
    let camera_devices = 10_112usize;
    let audio = Scenario::mega_fleet(
        audio_devices,
        2,
        0.4,
        perisec_tz::time::SimDuration::from_secs(1),
        0xE15,
    );
    let cameras = CameraScenario::fleet_high_fps(camera_devices, 2, 1, 30, 0.4, 0xE15);
    // Every resident device stack holds a handle on each shared model of
    // its kind, so the handle counts after the run, against those before
    // it, show whether the finished devices' stacks were freed.
    let handles_before = model_handle_counts(&models);
    let fleet = PipelineFleet::with_models(
        FleetConfig {
            devices: audio_devices,
            pipeline: PipelineConfig {
                batch_windows: 4,
                ..PipelineConfig::default()
            },
            camera_devices,
            camera_pipeline,
            workers: 8,
            ..FleetConfig::of(0)
        },
        models.clone(),
    );
    let (mega, stats) = fleet.run_mixed_stats(&audio, &cameras).expect("mega fleet");
    let held: usize = model_handle_counts(&models)
        .iter()
        .zip(&handles_before)
        .map(|(after, before)| after.saturating_sub(*before))
        .sum();
    let (devices, leaked, payload) = (
        mega.device_count(),
        mega.leaked_sensitive_utterances(),
        mega.total_payload_bytes(),
    );
    let (resident, workers) = (stats.peak_resident, stats.workers);
    let _ = writeln!(
        out,
        "| {devices} | {audio_devices} | {camera_devices} | {workers} | {} | {leaked} | {payload} | {resident} | {:.0} |",
        mega.total_utterances(),
        stats.host_millis,
    );
    outcome.gate(devices >= 10_000, format!("mega fleet: {devices} devices"));
    outcome.gate(leaked == 0, format!("mega fleet: {leaked} leaked"));
    outcome.gate(payload == 0, format!("mega fleet: {payload} payload bytes"));
    outcome.gate(
        resident <= workers,
        format!("mega fleet: {resident} stacks resident on {workers} workers"),
    );
    let _ = writeln!(
        out,
        "\nThe executor held {} of the {} device stacks resident at once — one per \
         worker.",
        stats.peak_resident,
        mega.device_count(),
    );
    let _ = writeln!(
        out,
        "\nDevice stacks released after the mega fleet: {}",
        if held == 0 {
            "yes".to_owned()
        } else {
            format!("NO ({held} model handles still held)")
        },
    );
    outcome.gate(held == 0, format!("{held} model handles still held"));

    // Part 3: the session scheduler's work-stealing pass on a ragged
    // high-fps mix — an idle TEE core steals queued windows from a
    // backlogged sibling, deterministically.
    out.push_str("\n### Session work stealing (ragged high-fps mix, 2 secure cores)\n\n");
    out.push_str(
        "| placement | steals | p95 | p99 | run clock | leaked |\n|---|---|---|---|---|---|\n",
    );
    let vision_models =
        SharedModels::deferred(Architecture::Cnn, 16, 0x57EA).with_vision_spec(120, 0x57EA);
    let ragged = CameraScenario::ragged_high_fps(64, 4, 20, 96_000, 0.4, 0xBEEF);
    let mut p99 = Vec::new();
    for stealing in [false, true] {
        let mut pipeline = ShardedVisionPipeline::with_models(
            ShardedCameraConfig {
                camera: CameraPipelineConfig {
                    batch_windows: 8,
                    ..CameraPipelineConfig::default()
                },
                pool: TeePoolConfig::iot_quad_node(2),
                work_stealing: stealing,
                ..ShardedCameraConfig::default()
            },
            &vision_models,
        )
        .expect("sharded pipeline");
        let run = pipeline.run_scenario(&ragged).expect("ragged run");
        let placement = if stealing { "work-stealing" } else { "greedy" };
        let leaked = run.report.cloud.leaked_sensitive_utterances();
        let _ = writeln!(
            out,
            "| {placement} | {} | {} | {} | {} | {leaked} |",
            run.stolen_windows,
            run.report.latency.p95_end_to_end(),
            run.report.latency.p99_end_to_end(),
            run.report.virtual_time,
        );
        outcome.gate(leaked == 0, format!("{placement}: {leaked} leaked"));
        p99.push(run.report.latency.p99_end_to_end());
    }
    let _ = writeln!(
        out,
        "\nWork stealing cut p99 window latency from {} to {} on the ragged mix \
         at identical cloud outcomes.",
        p99[0], p99[1],
    );
    outcome.markdown = out;
    outcome
}

/// E16 — the int8 inference fast path: per-window / per-frame host cost
/// of the fused integer kernels against the f32 baseline, accuracy delta,
/// cloud-decision parity, secure-RAM residency, and both modes swept over
/// the E15 mega-fleet. Its outcome carries the `BENCH_E16.json` record
/// that seeds the perf trajectory.
pub fn run_e16_int8_inference() -> Outcome {
    use perisec_core::fleet::{FleetConfig, PipelineFleet};
    use perisec_core::pipeline::transcribe_corpus;
    use perisec_core::pipeline::{CameraPipelineConfig, SecurePipeline, SharedModels};
    use perisec_core::pipeline::{ShardedCameraConfig, ShardedVisionPipeline};
    use perisec_core::pool::TeePoolConfig;
    use perisec_devices::camera::{CameraSensor, SceneKind};
    use perisec_ml::plan::FeaturePlan;
    use perisec_ml::quant::QuantMode;
    use perisec_workload::scenario::CameraScenario;
    use std::time::Instant;

    let mut out = String::from(
        "## E16 — int8 inference fast path (fused integer kernels vs the f32 baseline)\n\n",
    );

    // One trained model set; the int8 forms are quantized once from the
    // same weights (train once, quantize once).
    let models = SharedModels::train(Architecture::Cnn, 160, 0xE16).expect("train");
    let audio = models.audio().expect("audio models");
    let classifier = &audio.classifier;
    let int8 = audio
        .classifier_int8
        .as_ref()
        .expect("cnn classifiers quantize");
    let vision = models.vision().expect("frame classifier");
    let vision_int8 = models.vision_int8().expect("frame classifier quantizes");

    // Part 1: per-window classifier inference on this host. The windows
    // are the STT's *decoded* token sequences for a held-out corpus —
    // exactly what the filter TA hands the classifier at runtime.
    let vocabulary = Vocabulary::smart_home();
    let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, 0x16E6);
    let (eval, _) = generator.train_test_split(192, 1);
    let eval = transcribe_corpus(&audio.synth, &audio.stt, &eval).expect("decode eval corpus");
    let windows: Vec<&[usize]> = eval.iter().map(|(tokens, _)| tokens.as_slice()).collect();
    let mut plan = FeaturePlan::new();
    // Warm both paths (and the plan's high-water marks) before timing.
    for tokens in &windows {
        let _ = classifier.predict(tokens).expect("f32 predict");
        let _ = int8.predict_with(tokens, &mut plan).expect("int8 predict");
    }
    let reps = 40usize;
    let started = Instant::now();
    for _ in 0..reps {
        for tokens in &windows {
            std::hint::black_box(classifier.predict(tokens).expect("f32 predict"));
        }
    }
    let ns_window_f32 = started.elapsed().as_nanos() as f64 / (reps * windows.len()) as f64;
    let started = Instant::now();
    for _ in 0..reps {
        for tokens in &windows {
            std::hint::black_box(int8.predict_with(tokens, &mut plan).expect("int8 predict"));
        }
    }
    let ns_window_int8 = started.elapsed().as_nanos() as f64 / (reps * windows.len()) as f64;
    let window_speedup = ns_window_f32 / ns_window_int8.max(1.0);

    // Part 2: per-frame vision inference on this host.
    let mut camera = CameraSensor::smart_home("e16-cam", 0xE16).expect("camera");
    camera.start();
    let frames: Vec<(Vec<u8>, bool)> = (0..96)
        .map(|i| {
            let scene = SceneKind::ALL[i % SceneKind::ALL.len()];
            let frame = camera.capture_frame(scene).expect("frame");
            (frame.pixels, scene.is_sensitive())
        })
        .collect();
    for (pixels, _) in &frames {
        let _ = vision.predict(pixels).expect("f32 frame");
        let _ = vision_int8
            .predict_with(pixels, &mut plan)
            .expect("int8 frame");
    }
    let started = Instant::now();
    for _ in 0..reps {
        for (pixels, _) in &frames {
            std::hint::black_box(vision.predict(pixels).expect("f32 frame"));
        }
    }
    let ns_frame_f32 = started.elapsed().as_nanos() as f64 / (reps * frames.len()) as f64;
    let started = Instant::now();
    for _ in 0..reps {
        for (pixels, _) in &frames {
            std::hint::black_box(
                vision_int8
                    .predict_with(pixels, &mut plan)
                    .expect("int8 frame"),
            );
        }
    }
    let ns_frame_int8 = started.elapsed().as_nanos() as f64 / (reps * frames.len()) as f64;
    let frame_speedup = ns_frame_f32 / ns_frame_int8.max(1.0);

    let mut outcome = Outcome::default();
    outcome.gate(
        window_speedup >= 2.5,
        format!("window speedup {window_speedup:.2}x"),
    );
    outcome.gate(
        frame_speedup >= 1.4,
        format!("frame speedup {frame_speedup:.2}x"),
    );
    out.push_str("| metric | f32 | int8 | speedup |\n|---|---|---|---|\n");
    let _ = writeln!(
        out,
        "| classifier ns/window | {ns_window_f32:.0} | {ns_window_int8:.0} | {window_speedup:.2}x |"
    );
    let _ = writeln!(
        out,
        "| frame CNN ns/frame | {ns_frame_f32:.0} | {ns_frame_int8:.0} | {frame_speedup:.2}x |"
    );

    // Part 3: accuracy. Same evaluation sets, both representations.
    let acc_f32 = classifier.evaluate(&eval).expect("eval").accuracy();
    let int8_correct = eval
        .iter()
        .filter(|(tokens, label)| {
            int8.is_sensitive_with(tokens, &mut plan).expect("int8") == *label
        })
        .count();
    let acc_int8 = int8_correct as f64 / eval.len() as f64;
    let accuracy_delta_points = (acc_f32 - acc_int8).abs() * 100.0;
    let vis_f32_correct = frames
        .iter()
        .filter(|(pixels, label)| vision.is_sensitive(pixels).expect("f32") == *label)
        .count();
    let vis_int8_correct = frames
        .iter()
        .filter(|(pixels, label)| {
            vision_int8
                .is_sensitive_with(pixels, &mut plan)
                .expect("int8")
                == *label
        })
        .count();
    let vis_acc_f32 = vis_f32_correct as f64 / frames.len() as f64;
    let vis_acc_int8 = vis_int8_correct as f64 / frames.len() as f64;
    let vision_delta_points = (vis_acc_f32 - vis_acc_int8).abs() * 100.0;
    let _ = writeln!(
        out,
        "| classifier accuracy | {acc_f32:.3} | {acc_int8:.3} | delta {accuracy_delta_points:.1} pt |"
    );
    let _ = writeln!(
        out,
        "| frame CNN accuracy | {vis_acc_f32:.3} | {vis_acc_int8:.3} | delta {vision_delta_points:.1} pt |"
    );
    outcome.gate(
        accuracy_delta_points <= 1.0,
        format!("classifier accuracy delta {accuracy_delta_points:.2} pt"),
    );
    outcome.gate(
        vision_delta_points <= 1.0,
        format!("frame CNN accuracy delta {vision_delta_points:.2} pt"),
    );

    // Part 4: resident model bytes and secure-RAM occupancy per mode.
    let resident_f32 = classifier.memory_bytes_f32();
    let resident_int8 = int8.memory_bytes();
    let pipeline_for = |mode: QuantMode| {
        SecurePipeline::with_models(
            PipelineConfig {
                quant_mode: mode,
                batch_windows: 4,
                ..PipelineConfig::default()
            },
            &models,
        )
        .expect("pipeline builds")
    };
    let ram_int8 = pipeline_for(QuantMode::Int8)
        .platform()
        .secure_ram()
        .bytes_in_use();
    let ram_f32 = pipeline_for(QuantMode::F32)
        .platform()
        .secure_ram()
        .bytes_in_use();
    let sharded_for = |mode: QuantMode| {
        ShardedVisionPipeline::with_models(
            ShardedCameraConfig {
                camera: CameraPipelineConfig {
                    quant_mode: mode,
                    batch_windows: 4,
                    ..CameraPipelineConfig::default()
                },
                pool: TeePoolConfig::iot_quad_node(2),
                ..ShardedCameraConfig::default()
            },
            &models,
        )
        .expect("sharded pipeline builds")
    };
    let pool_ram_int8 = sharded_for(QuantMode::Int8)
        .pool()
        .secure_ram()
        .bytes_in_use();
    let pool_ram_f32 = sharded_for(QuantMode::F32)
        .pool()
        .secure_ram()
        .bytes_in_use();
    let _ = writeln!(
        out,
        "| classifier resident bytes | {resident_f32} | {resident_int8} | {:.2}x smaller |",
        resident_f32 as f64 / resident_int8 as f64
    );
    let _ = writeln!(
        out,
        "| audio pipeline secure RAM (B) | {ram_f32} | {ram_int8} | {:.2}x smaller |",
        ram_f32 as f64 / ram_int8 as f64
    );
    let _ = writeln!(
        out,
        "| 2-shard vision pool secure RAM (B) | {pool_ram_f32} | {pool_ram_int8} | {:.2}x smaller |",
        pool_ram_f32 as f64 / pool_ram_int8 as f64
    );
    for (row, f32_bytes, int8_bytes) in [
        ("classifier resident bytes", resident_f32, resident_int8),
        ("audio pipeline secure RAM", ram_f32, ram_int8),
        ("vision pool secure RAM", pool_ram_f32, pool_ram_int8),
    ] {
        outcome.gate(
            int8_bytes < f32_bytes,
            format!("{row}: int8 {int8_bytes} B, f32 {f32_bytes} B"),
        );
    }

    // E17: the kernel-variant sweep — the retained scalar oracles against
    // the runtime-dispatched kernels (AVX2 intrinsics on capable hosts,
    // the chunked portable form elsewhere), on the exact shapes the
    // deployed models drive (conv dot spans = kernel_width x embed_dim
    // for widths 1..4; the two head matmul shapes). Dispatched and scalar
    // are bit-identical (pinned by proptests); this measures what the
    // dispatched form buys on this host.
    let (kernel_dot_speedup, kernel_matmul_speedup);
    let (kernel_dot_ns_scalar, kernel_dot_ns_dispatched);
    let (kernel_matmul_ns_scalar, kernel_matmul_ns_dispatched);
    {
        use perisec_ml::quant::{dot_i8, dot_i8_ref, quantize_activations, QuantizedMatrix};
        use perisec_ml::tensor::Matrix;
        out.push_str(
            "\n### E17 — int8 kernel variants (scalar oracle vs dispatched kernel)\n\n\
             | kernel | shape | scalar ns | dispatched ns | speedup |\n|---|---|---|---|---|\n",
        );
        let mut dot_totals = (0.0f64, 0.0f64);
        for span in [48usize, 96, 144, 192] {
            let a: Vec<i8> = (0..span)
                .map(|i| ((i * 37 % 255) as i32 - 127) as i8)
                .collect();
            let b: Vec<i8> = (0..span)
                .map(|i| ((i * 91 % 255) as i32 - 127) as i8)
                .collect();
            let iters = 200_000usize;
            let time = |f: fn(&[i8], &[i8]) -> i32| -> f64 {
                for _ in 0..1_000 {
                    std::hint::black_box(f(std::hint::black_box(&a), std::hint::black_box(&b)));
                }
                let started = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f(std::hint::black_box(&a), std::hint::black_box(&b)));
                }
                started.elapsed().as_nanos() as f64 / iters as f64
            };
            let scalar = time(dot_i8_ref);
            let dispatched = time(dot_i8);
            dot_totals.0 += scalar;
            dot_totals.1 += dispatched;
            let _ = writeln!(
                out,
                "| dot_i8 | {span} | {scalar:.1} | {dispatched:.1} | {:.2}x |",
                scalar / dispatched.max(1e-9)
            );
        }
        let mut matmul_totals = (0.0f64, 0.0f64);
        for (rows, cols) in [(96usize, 32usize), (104, 24)] {
            let w = QuantizedMatrix::quantize_per_col(&Matrix::random(rows, cols, 1.2, 0xE17));
            let x: Vec<f32> = (0..rows).map(|i| ((i % 13) as f32 - 6.0) * 0.21).collect();
            let mut x_q = Vec::new();
            let x_scale = quantize_activations(&x, &mut x_q);
            let (mut acc, mut o) = (Vec::new(), Vec::new());
            let iters = 20_000usize;
            let mut time = |dispatched: bool| -> f64 {
                for _ in 0..500 {
                    let r = if dispatched {
                        w.matmul_i8(&x_q, x_scale, &mut acc, &mut o)
                    } else {
                        w.matmul_i8_ref(&x_q, x_scale, &mut acc, &mut o)
                    };
                    r.expect("matmul");
                    std::hint::black_box(&o);
                }
                let started = Instant::now();
                for _ in 0..iters {
                    let r = if dispatched {
                        w.matmul_i8(&x_q, x_scale, &mut acc, &mut o)
                    } else {
                        w.matmul_i8_ref(&x_q, x_scale, &mut acc, &mut o)
                    };
                    r.expect("matmul");
                    std::hint::black_box(&o);
                }
                started.elapsed().as_nanos() as f64 / iters as f64
            };
            let scalar = time(false);
            let dispatched = time(true);
            matmul_totals.0 += scalar;
            matmul_totals.1 += dispatched;
            let _ = writeln!(
                out,
                "| matmul_i8 | {rows}x{cols} | {scalar:.1} | {dispatched:.1} | {:.2}x |",
                scalar / dispatched.max(1e-9)
            );
        }
        kernel_dot_speedup = dot_totals.0 / dot_totals.1.max(1e-9);
        kernel_matmul_speedup = matmul_totals.0 / matmul_totals.1.max(1e-9);
        kernel_dot_ns_scalar = dot_totals.0;
        kernel_dot_ns_dispatched = dot_totals.1;
        kernel_matmul_ns_scalar = matmul_totals.0;
        kernel_matmul_ns_dispatched = matmul_totals.1;
        let _ = writeln!(
            out,
            "| dot_i8 (all spans) | — | {kernel_dot_ns_scalar:.1} | {kernel_dot_ns_dispatched:.1} | {kernel_dot_speedup:.2}x |"
        );
        let _ = writeln!(
            out,
            "| matmul_i8 (all shapes) | — | {kernel_matmul_ns_scalar:.1} | {kernel_matmul_ns_dispatched:.1} | {kernel_matmul_speedup:.2}x |"
        );
    }

    // Part 5: both modes over the E15 mega-fleet (128 audio + 10,112
    // camera devices on 8 workers). Decisions must match device by
    // device; the wall-clock difference is the fleet-scale payoff.
    let audio_devices = 128usize;
    let camera_devices = 10_112usize;
    let audio_scenarios =
        Scenario::mega_fleet(audio_devices, 2, 0.4, SimDuration::from_secs(1), 0xE16);
    let camera_scenarios = CameraScenario::fleet_high_fps(camera_devices, 2, 1, 30, 0.4, 0xE16);
    let fleet_for = |mode: QuantMode| {
        PipelineFleet::with_models(
            FleetConfig {
                devices: audio_devices,
                pipeline: PipelineConfig {
                    batch_windows: 4,
                    quant_mode: mode,
                    ..PipelineConfig::default()
                },
                camera_devices,
                camera_pipeline: CameraPipelineConfig {
                    batch_windows: 4,
                    quant_mode: mode,
                    ..CameraPipelineConfig::default()
                },
                workers: 8,
                ..FleetConfig::of(0)
            },
            models.clone(),
        )
    };
    out.push_str(
        "\n### E15 mega-fleet, both modes (10,240 devices, 8 workers)\n\n\
         | mode | devices | utterances | leaked | payload bytes | host ms |\n\
         |---|---|---|---|---|---|\n",
    );
    struct FleetSummary {
        devices: usize,
        leaked: usize,
        received_ids: Vec<Vec<u64>>,
    }
    // The default (int8) mode runs first: sequential 10k-device runs in
    // one process degrade (allocator growth, sustained-load throttling),
    // so the second slot is systematically slower whichever mode sits in
    // it — which is why no cross-mode wall-clock ratio is derived below.
    let mut fleet_ms = [0.0f64; 2];
    let mut summaries = Vec::new();
    for (i, mode) in [QuantMode::Int8, QuantMode::F32].into_iter().enumerate() {
        let fleet = fleet_for(mode);
        let started = Instant::now();
        let report = fleet
            .run_mixed(&audio_scenarios, &camera_scenarios)
            .expect("mega fleet runs");
        fleet_ms[i] = started.elapsed().as_secs_f64() * 1000.0;
        let (devices, leaked, payload) = (
            report.device_count(),
            report.leaked_sensitive_utterances(),
            report.total_payload_bytes(),
        );
        let _ = writeln!(
            out,
            "| {mode} | {devices} | {} | {leaked} | {payload} | {:.0} |",
            report.total_utterances(),
            fleet_ms[i],
        );
        outcome.gate(devices >= 10_000, format!("{mode}: {devices} devices"));
        outcome.gate(leaked == 0, format!("{mode}: {leaked} leaked"));
        outcome.gate(payload == 0, format!("{mode}: {payload} payload bytes"));
        // Keep only the decision summary: retaining the first mode's full
        // 10k-device report while the second mode runs would skew the
        // second run's allocator behaviour.
        summaries.push(FleetSummary {
            devices,
            leaked,
            received_ids: report
                .devices()
                .iter()
                .map(|d| d.report.cloud.report.received_dialog_ids())
                .collect(),
        });
    }
    let leaked_int8 = summaries[0].leaked;
    let leaked_f32 = summaries[1].leaked;
    let decisions_identical = summaries[0].received_ids == summaries[1].received_ids;
    outcome.gate(decisions_identical, "int8 and f32 cloud decisions differ");
    let _ = writeln!(
        out,
        "\nPer-window classifier inference speedup {window_speedup:.2}x (the acceptance metric); \
         per-frame {frame_speedup:.2}x — AVX2 patch pooling plus the branch-free padded int8 \
         convolution put the frame path well past the pooling bound the scalar build sat at. \
         Kernel variants: dispatched dot_i8 {kernel_dot_speedup:.2}x, dispatched matmul_i8 \
         {kernel_matmul_speedup:.2}x over the scalar oracles (bit-identical results, proptest-pinned). \
         The mega-fleet host times are informational, not a mode \
         comparison: at 2 windows per device, per-device pipeline *construction* (sessions, \
         drivers, carve-out setup — mode-independent) dominates, and the second sequential run \
         is systematically slower whichever mode occupies it. Cloud decisions across modes: {}.",
        if decisions_identical {
            "identical"
        } else {
            "DIVERGED (bug!)"
        },
    );

    // The JSON trajectory record CI checks in as BENCH_E16.json.
    let json = format!(
        "{{\n  \"experiment\": \"E16\",\n  \"ns_per_window_f32\": {ns_window_f32:.1},\n  \
         \"ns_per_window_int8\": {ns_window_int8:.1},\n  \"window_speedup\": {window_speedup:.3},\n  \
         \"ns_per_frame_f32\": {ns_frame_f32:.1},\n  \"ns_per_frame_int8\": {ns_frame_int8:.1},\n  \
         \"frame_speedup\": {frame_speedup:.3},\n  \"accuracy_f32\": {acc_f32:.4},\n  \
         \"accuracy_int8\": {acc_int8:.4},\n  \"accuracy_delta_points\": {accuracy_delta_points:.2},\n  \
         \"vision_accuracy_f32\": {vis_acc_f32:.4},\n  \"vision_accuracy_int8\": {vis_acc_int8:.4},\n  \
         \"vision_accuracy_delta_points\": {vision_delta_points:.2},\n  \
         \"resident_model_bytes_f32\": {resident_f32},\n  \"resident_model_bytes_int8\": {resident_int8},\n  \
         \"audio_secure_ram_bytes_f32\": {ram_f32},\n  \"audio_secure_ram_bytes_int8\": {ram_int8},\n  \
         \"pool_secure_ram_bytes_f32\": {pool_ram_f32},\n  \"pool_secure_ram_bytes_int8\": {pool_ram_int8},\n  \
         \"fleet_devices\": {devices},\n  \"fleet_wall_clock_ms_int8\": {int8_ms:.0},\n  \
         \"fleet_wall_clock_ms_f32\": {f32_ms:.0},\n  \
         \"fleet_leaked_f32\": {leaked_f32},\n  \"fleet_leaked_int8\": {leaked_int8},\n  \
         \"kernel_dot_i8_ns_scalar\": {kernel_dot_ns_scalar:.1},\n  \
         \"kernel_dot_i8_ns_dispatched\": {kernel_dot_ns_dispatched:.1},\n  \
         \"kernel_dot_i8_speedup\": {kernel_dot_speedup:.3},\n  \
         \"kernel_matmul_i8_ns_scalar\": {kernel_matmul_ns_scalar:.1},\n  \
         \"kernel_matmul_i8_ns_dispatched\": {kernel_matmul_ns_dispatched:.1},\n  \
         \"kernel_matmul_i8_speedup\": {kernel_matmul_speedup:.3},\n  \
         \"cloud_decisions_identical\": {decisions_identical}\n}}\n",
        devices = summaries[0].devices,
        int8_ms = fleet_ms[0],
        f32_ms = fleet_ms[1],
    );
    outcome.markdown = out;
    outcome.files.push(("BENCH_E16.json", json));
    outcome
}

/// E18 — the fleet telemetry plane: virtual-time span tracing, bounded
/// log-bucket histograms, and chrome-trace export. Measures the plane's
/// wall-clock overhead on a 1024-device fleet (gate: <= 5%), pins the
/// zero-perturbation contract (the `FleetReport` is byte-identical with
/// telemetry on and off, at every worker count) and the fold's
/// worker-count invariance, deep-dives one device into a chrome trace,
/// and runs the plane over the E15 mega fleet with flat metric memory.
/// Its outcome carries the committed `TRACE_E18.json` chrome trace.
pub fn run_e18_telemetry() -> Outcome {
    use perisec_core::fleet::{FleetConfig, PipelineFleet};
    use perisec_core::pipeline::{CameraPipelineConfig, SharedModels};
    use perisec_telemetry::export::{chrome_trace_json, folded_stacks};
    use perisec_telemetry::TelemetryConfig;
    use perisec_workload::scenario::CameraScenario;

    let mut out = String::from(
        "## E18 — fleet telemetry plane (virtual-time spans, bounded histograms, chrome-trace export)\n\n",
    );

    // Part 1: overhead of the metrics plane on a 1024-device fleet.
    // Modes alternate within each round and each mode keeps its best of
    // five runs — the same discipline as E16's mode sweep, so allocator
    // warm-up and cache state cannot be billed to whichever mode runs
    // second; an unmeasured warm-up round precedes the five measured ones
    // for the same reason. Four one-frame windows per device keep host
    // scheduler jitter small against the per-run wall clock.
    out.push_str(
        "| telemetry | best host ms (of 5) | span events | leaked |\n\
         |---|---|---|---|\n",
    );
    let models = SharedModels::deferred(Architecture::Cnn, 60, 0xE18).with_vision_spec(120, 0xE18);
    models.vision().expect("train frame classifier");
    let camera_pipeline = CameraPipelineConfig {
        batch_windows: 4,
        ..CameraPipelineConfig::default()
    };
    let devices = 1024usize;
    let cameras = CameraScenario::fleet_high_fps(devices, 4, 1, 30, 0.4, 0xE18);
    let fleet_for = |telemetry: TelemetryConfig| {
        PipelineFleet::with_models(
            FleetConfig {
                workers: 8,
                camera_pipeline: camera_pipeline.clone(),
                telemetry,
                ..FleetConfig::mixed(0, devices)
            },
            models.clone(),
        )
    };
    let off_fleet = fleet_for(TelemetryConfig::default());
    let on_fleet = fleet_for(TelemetryConfig::metrics());
    let mut off_ms = f64::MAX;
    let mut on_ms = f64::MAX;
    let mut overhead_pct = f64::MAX;
    let mut off_json = String::new();
    let mut on_json = String::new();
    let mut fold = perisec_telemetry::FleetTelemetry::new();
    for round in 0..6 {
        let (report, stats) = off_fleet
            .run_mixed_stats(&[], &cameras)
            .expect("telemetry-off fleet");
        let round_off = stats.host_millis;
        off_json = report.to_json();
        let (report, stats, telemetry) = on_fleet
            .run_mixed_telemetry(&[], &cameras)
            .expect("telemetry-on fleet");
        let round_on = stats.host_millis;
        on_json = report.to_json();
        fold = telemetry;
        if round > 0 {
            off_ms = off_ms.min(round_off);
            on_ms = on_ms.min(round_on);
            // Pairing within a round keeps drifting host load out of the
            // comparison; taking the best pair keeps one-off load spikes
            // out. A real, constant telemetry cost shows up in *every*
            // pair, so the best pair still bounds it.
            overhead_pct = overhead_pct.min((round_on - round_off) / round_off.max(0.001) * 100.0);
        }
    }
    let span_events: u64 = fold
        .histograms
        .values()
        .map(perisec_telemetry::LogHistogram::count)
        .sum();
    let identical = off_json == on_json;
    let mut outcome = Outcome::default();
    outcome.gate(overhead_pct <= 5.0, format!("overhead {overhead_pct:.2}%"));
    outcome.gate(identical, "telemetry changed the fleet report");
    let _ = writeln!(out, "| off | {off_ms:.0} | — | 0 |");
    let _ = writeln!(out, "| metrics | {on_ms:.0} | {span_events} | 0 |");
    let _ = writeln!(
        out,
        "\nTelemetry overhead at 1024 devices: {overhead_pct:.2}% \
         (best of 5 paired rounds; best off {off_ms:.0} ms, best metrics {on_ms:.0} ms; \
         gate <= 5%).",
    );
    let _ = writeln!(
        out,
        "Reports byte-identical with telemetry on: {}.",
        if identical { "yes" } else { "NO (bug!)" },
    );

    // Part 2: the determinism contract across worker counts — the report
    // must not notice the telemetry plane, and the fold must not notice
    // the schedule.
    out.push_str("\n### Determinism: worker counts\n\n");
    out.push_str(
        "| workers | report on == off | fold == 1-worker fold |\n\
         |---|---|---|\n",
    );
    let small = CameraScenario::fleet_high_fps(24, 2, 1, 30, 0.4, 0x0E18);
    let mut reference_fold: Option<perisec_telemetry::FleetTelemetry> = None;
    let mut all_deterministic = true;
    for workers in [1usize, 2, 8] {
        let silent = PipelineFleet::with_models(
            FleetConfig {
                workers,
                camera_pipeline: camera_pipeline.clone(),
                ..FleetConfig::mixed(0, 24)
            },
            models.clone(),
        );
        let observed = PipelineFleet::with_models(
            FleetConfig {
                workers,
                camera_pipeline: camera_pipeline.clone(),
                telemetry: TelemetryConfig::metrics(),
                ..FleetConfig::mixed(0, 24)
            },
            models.clone(),
        );
        let off = silent.run_mixed(&[], &small).expect("silent fleet");
        let (on, _, telemetry) = observed
            .run_mixed_telemetry(&[], &small)
            .expect("observed fleet");
        let report_ok = off.to_json() == on.to_json();
        let fold_ok = match &reference_fold {
            None => {
                reference_fold = Some(telemetry);
                true
            }
            Some(reference) => telemetry == *reference,
        };
        all_deterministic &= report_ok && fold_ok;
        let _ = writeln!(
            out,
            "| {workers} | {} | {} |",
            if report_ok { "yes" } else { "NO (bug!)" },
            if fold_ok { "yes" } else { "NO (bug!)" },
        );
        outcome.gate(report_ok, format!("{workers} workers: report on != off"));
        outcome.gate(fold_ok, format!("{workers} workers: fold != 1-worker fold"));
    }
    let _ = writeln!(
        out,
        "\nTelemetry determinism across workers: {}.",
        if all_deterministic {
            "intact"
        } else {
            "BROKEN (bug!)"
        },
    );

    // Part 3: a single-device deep dive — full span capture on one audio
    // pipeline, exported as a chrome trace (the committed TRACE_E18.json)
    // and folded flamegraph stacks.
    out.push_str("\n### Single-device deep dive (chrome trace + flamegraph)\n\n");
    let mut deep_config = PipelineConfig {
        train_utterances: 120,
        batch_windows: 4,
        ..PipelineConfig::default()
    };
    deep_config.telemetry = TelemetryConfig::tracing();
    let mut deep = SecurePipeline::new(deep_config).expect("deep-dive pipeline");
    let scenario = &Scenario::fleet(1, 8, 0.5, SimDuration::from_secs(2), 0xE18)[0];
    deep.run_scenario(scenario).expect("deep-dive run");
    let telemetry = deep.take_telemetry();
    out.push_str("| span | count | p50 | p95 | max |\n|---|---|---|---|---|\n");
    for (name, histogram) in &telemetry.histograms {
        let _ = writeln!(
            out,
            "| {name} | {} | {} | {} | {} |",
            histogram.count(),
            histogram.percentile(0.50),
            histogram.percentile(0.95),
            histogram.max(),
        );
    }
    let trace_json = chrome_trace_json(&telemetry.spans, 0);
    // Self-validation: the export must parse back as JSON and carry one
    // trace event per captured span.
    let trace_parses = serde_json::from_str::<serde::value::Value>(&trace_json)
        .ok()
        .and_then(|v| {
            v.field("traceEvents")
                .ok()
                .and_then(|e| e.as_array().map(|events| events.len()))
        })
        == Some(telemetry.spans.len());
    let _ = writeln!(
        out,
        "\nDeep-dive device: {} spans captured, {} dropped; chrome trace parses: {}.",
        telemetry.spans.len(),
        telemetry.dropped_spans,
        if trace_parses { "yes" } else { "NO (bug!)" },
    );
    outcome.gate(trace_parses, "the chrome trace does not parse");
    let folded = folded_stacks(&telemetry.spans);
    let mut stacks: Vec<&str> = folded.lines().collect();
    stacks.sort_by_key(|line| {
        std::cmp::Reverse(
            line.rsplit(' ')
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .unwrap_or(0),
        )
    });
    out.push_str("\nTop folded stacks (stack self-ns, flamegraph.pl input):\n\n```\n");
    for line in stacks.iter().take(5) {
        let _ = writeln!(out, "{line}");
    }
    out.push_str("```\n");

    // Part 4: the telemetry plane over the E15 mega fleet — metrics for
    // all 10,240 devices plus one traced device, on 8 workers. The point
    // is the memory bound: per-name histograms and counters, flat in the
    // device count.
    out.push_str("\n### Mega fleet with the telemetry plane on (10k+ devices, 8 workers)\n\n");
    out.push_str(
        "| devices | workers | span events | dropped | metrics bytes | traced | leaked |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let audio_devices = 128usize;
    let camera_devices = 10_112usize;
    let audio = Scenario::mega_fleet(
        audio_devices,
        2,
        0.4,
        perisec_tz::time::SimDuration::from_secs(1),
        0xE18,
    );
    let mega_cameras = CameraScenario::fleet_high_fps(camera_devices, 2, 1, 30, 0.4, 0xE18);
    let mega_fleet = PipelineFleet::with_models(
        FleetConfig {
            devices: audio_devices,
            pipeline: PipelineConfig {
                batch_windows: 4,
                ..PipelineConfig::default()
            },
            camera_devices,
            camera_pipeline,
            workers: 8,
            telemetry: TelemetryConfig::metrics(),
            trace_devices: std::collections::BTreeSet::from([0]),
            ..FleetConfig::of(0)
        },
        models,
    );
    let (mega, stats, mega_telemetry) = mega_fleet
        .run_mixed_telemetry(&audio, &mega_cameras)
        .expect("mega fleet");
    let mega_events: u64 = mega_telemetry
        .histograms
        .values()
        .map(perisec_telemetry::LogHistogram::count)
        .sum();
    let (devices, dropped, metrics_bytes, leaked) = (
        mega.device_count(),
        mega_telemetry.dropped_spans,
        mega_telemetry.metrics_memory_bytes(),
        mega.leaked_sensitive_utterances(),
    );
    let _ = writeln!(
        out,
        "| {devices} | {} | {mega_events} | {dropped} | {metrics_bytes} | {} | {leaked} |",
        stats.workers,
        mega_telemetry.traces.len(),
    );
    outcome.gate(devices >= 10_000, format!("mega fleet: {devices} devices"));
    outcome.gate(dropped == 0, format!("mega fleet: {dropped} dropped spans"));
    outcome.gate(
        metrics_bytes <= 65_536,
        format!("mega fleet: {metrics_bytes} metrics bytes"),
    );
    outcome.gate(leaked == 0, format!("mega fleet: {leaked} leaked"));
    let _ = writeln!(
        out,
        "\nMega-fleet metrics memory: {} bytes for {} devices ({} span events) — \
         per-name histograms, flat in the device count.",
        metrics_bytes, devices, mega_events,
    );
    outcome.markdown = out;
    outcome.files.push(("TRACE_E18.json", trace_json));
    outcome
}

/// E19 — the live fleet health plane: virtual-time epoch snapshots, SLO
/// hysteresis, deterministic anomaly alerts, and the plane's overhead.
///
/// Four claims, each gated:
/// 1. A healthy fleet produces an **empty** alert journal.
/// 2. Injected degradation fires the same alerts at the same virtual
///    timestamps no matter the worker count (journal byte-identity).
/// 3. The functional `FleetReport` is byte-identical with the plane on
///    or off — health observes, it never steers the workload.
/// 4. The plane's host overhead stays within the 5% telemetry gate.
pub fn run_e19_health_plane() -> Outcome {
    use perisec_core::fleet::{FleetConfig, PipelineFleet};
    use perisec_core::pipeline::{CameraPipelineConfig, DegradeSpec, SharedModels};
    use perisec_telemetry::{HealthConfig, HealthState, SloSpec};
    use perisec_workload::scenario::CameraScenario;

    let mut out = String::from(
        "## E19 — live fleet health plane (virtual-time epochs, SLO hysteresis, \
         deterministic alerts)\n\n",
    );

    let models = SharedModels::deferred(Architecture::Cnn, 60, 0xE19).with_vision_spec(120, 0xE19);
    models.audio().expect("train speech models");
    models.vision().expect("train frame classifier");

    // Part 1: state census of a healthy mixed fleet under attainable
    // objectives — the journal must come back empty.
    out.push_str("### Healthy fleet census\n\n");
    let generous = HealthConfig {
        slos: vec![SloSpec::p95("tee-filter", SimDuration::from_secs(5))],
        ..HealthConfig::with_window(SimDuration::from_secs(1))
    };
    let audio_pipeline = PipelineConfig {
        batch_windows: 4,
        ..PipelineConfig::default()
    };
    let camera_pipeline = CameraPipelineConfig {
        batch_windows: 4,
        ..CameraPipelineConfig::default()
    };
    let healthy_fleet = PipelineFleet::with_models(
        FleetConfig {
            devices: 128,
            pipeline: audio_pipeline.clone(),
            camera_devices: 128,
            camera_pipeline: camera_pipeline.clone(),
            workers: 8,
            health: Some(generous.clone()),
            ..FleetConfig::of(0)
        },
        models.clone(),
    );
    let healthy_audio = Scenario::mega_fleet(128, 2, 0.4, SimDuration::from_secs(1), 0xE19);
    let healthy_cameras = CameraScenario::fleet_high_fps(128, 4, 1, 30, 0.4, 0xE19);
    let (_, _, _, census) = healthy_fleet
        .run_mixed_health(&healthy_audio, &healthy_cameras)
        .expect("healthy fleet");
    out.push_str(
        "| devices | healthy | degraded | critical | journal entries |\n|---|---|---|---|---|\n",
    );
    let _ = writeln!(
        out,
        "| {} | {} | {} | {} | {} |",
        census.devices,
        census.healthy,
        census.degraded,
        census.critical,
        census.alerts.len(),
    );
    let healthy_alerts = census.alerts.len();
    let _ = writeln!(
        out,
        "\nHealthy-fleet alert journal entries: {healthy_alerts} (gate: 0)."
    );
    let mut outcome = Outcome::default();
    outcome.gate(
        healthy_alerts == 0,
        format!("healthy fleet: {healthy_alerts} alerts"),
    );

    // Part 2: injected degradation — after 2 s of virtual time every
    // audio device's filter crossings slow by 10 ms per window, tearing
    // a 5 ms p95 objective. The alerts must land at identical virtual
    // timestamps at every worker count: the journal is a pure function
    // of the workload, not of the host schedule.
    out.push_str("\n### Injected degradation across worker counts\n\n");
    let strict = HealthConfig {
        slos: vec![SloSpec::p95("tee-filter", SimDuration::from_millis(5))],
        ..HealthConfig::with_window(SimDuration::from_secs(1))
    };
    let degraded_pipeline = PipelineConfig {
        batch_windows: 4,
        degrade: Some(DegradeSpec {
            after: SimDuration::from_secs(2),
            per_window: SimDuration::from_millis(10),
        }),
        ..PipelineConfig::default()
    };
    let degraded_fleet = |workers: usize, health: Option<HealthConfig>| {
        PipelineFleet::with_models(
            FleetConfig {
                devices: 12,
                pipeline: degraded_pipeline.clone(),
                workers,
                health,
                ..FleetConfig::of(0)
            },
            models.clone(),
        )
    };
    let degraded_audio = Scenario::fleet(12, 6, 0.5, SimDuration::from_secs(1), 0xE19);
    out.push_str("| workers | alerts | degraded transitions | journal == 1-worker journal |\n|---|---|---|---|\n");
    let mut reference_journal: Option<String> = None;
    let mut journals_identical = true;
    let mut degraded_transitions = 0usize;
    let mut sample_table = String::new();
    for workers in [1usize, 2, 8] {
        let (_, _, _, health) = degraded_fleet(workers, Some(strict.clone()))
            .run_mixed_health(&degraded_audio, &[])
            .expect("degraded fleet");
        let journal = health.alert_journal_json();
        let identical = match &reference_journal {
            None => {
                degraded_transitions = health.transitions_to(HealthState::Degraded);
                sample_table = health.to_table();
                reference_journal = Some(journal);
                true
            }
            Some(reference) => journal == *reference,
        };
        journals_identical &= identical;
        let _ = writeln!(
            out,
            "| {workers} | {} | {} | {} |",
            health.alerts.len(),
            health.transitions_to(HealthState::Degraded),
            if identical { "yes" } else { "NO (bug!)" },
        );
        outcome.gate(
            identical,
            format!("{workers} workers: journal != 1-worker journal"),
        );
    }
    outcome.gate(
        degraded_transitions >= 1,
        "injected degradation fired no Degraded transition",
    );
    let _ = writeln!(
        out,
        "\nDegraded transitions under injected degradation: {degraded_transitions} (gate: >= 1)."
    );
    let _ = writeln!(
        out,
        "Alert journals byte-identical across worker counts: {}.",
        if journals_identical {
            "yes"
        } else {
            "NO (bug!)"
        },
    );
    out.push_str("\nOne-worker health table (virtual-time journal):\n\n```\n");
    out.push_str(&sample_table);
    out.push_str("```\n");

    // Part 3: zero perturbation — the functional report with the plane
    // on is byte-for-byte the report of a silent run, degradation and
    // all.
    let (report_on, _, _, _) = degraded_fleet(2, Some(strict.clone()))
        .run_mixed_health(&degraded_audio, &[])
        .expect("health-on fleet");
    let report_off = degraded_fleet(2, None)
        .run_mixed(&degraded_audio, &[])
        .expect("health-off fleet");
    let unperturbed = report_on.to_json() == report_off.to_json();
    let _ = writeln!(
        out,
        "\nReports byte-identical with the health plane on: {}.",
        if unperturbed { "yes" } else { "NO (bug!)" },
    );
    outcome.gate(unperturbed, "the health plane changed the fleet report");

    // Part 4: the plane's host cost on a 1024-device verdict-only camera
    // fleet — paired best-of-5 rounds after an unmeasured warm-up, the
    // E18/E16 discipline. The health fleet also arms the payload
    // tripwire: a verdict-only fleet must never relay raw payload bytes,
    // so its zero alert count doubles as the privacy claim, per epoch.
    out.push_str("\n### Health-plane overhead (1024 cameras, 8 workers)\n\n");
    let overhead_health = HealthConfig {
        slos: vec![SloSpec::p95("tee-filter", SimDuration::from_secs(5))],
        expect_zero_payload: true,
        ..HealthConfig::with_window(SimDuration::from_secs(1))
    };
    let overhead_fleet = |health: Option<HealthConfig>| {
        PipelineFleet::with_models(
            FleetConfig {
                workers: 8,
                camera_pipeline: camera_pipeline.clone(),
                health,
                ..FleetConfig::mixed(0, 1024)
            },
            models.clone(),
        )
    };
    let overhead_cameras = CameraScenario::fleet_high_fps(1024, 4, 1, 30, 0.4, 0x0E19);
    let off_fleet = overhead_fleet(None);
    let on_fleet = overhead_fleet(Some(overhead_health));
    let mut off_ms = f64::MAX;
    let mut on_ms = f64::MAX;
    let mut overhead_pct = f64::MAX;
    let mut tripwire_alerts = 0usize;
    for round in 0..6 {
        let (_, stats) = off_fleet
            .run_mixed_stats(&[], &overhead_cameras)
            .expect("health-off fleet");
        let round_off = stats.host_millis;
        let (_, stats, _, health) = on_fleet
            .run_mixed_health(&[], &overhead_cameras)
            .expect("health-on fleet");
        let round_on = stats.host_millis;
        tripwire_alerts = health.alerts.len();
        if round > 0 {
            off_ms = off_ms.min(round_off);
            on_ms = on_ms.min(round_on);
            overhead_pct = overhead_pct.min((round_on - round_off) / round_off.max(0.001) * 100.0);
        }
    }
    out.push_str("| health plane | best host ms (of 5) |\n|---|---|\n");
    let _ = writeln!(out, "| off | {off_ms:.0} |");
    let _ = writeln!(out, "| on | {on_ms:.0} |");
    let _ = writeln!(
        out,
        "\nHealth plane overhead at 1024 devices: {overhead_pct:.2}% \
         (best of 5 paired rounds; best off {off_ms:.0} ms, best on {on_ms:.0} ms; gate <= 5%).",
    );
    let _ = writeln!(
        out,
        "Payload tripwire alerts on the verdict-only camera fleet: {tripwire_alerts} (gate: 0).",
    );
    outcome.gate(overhead_pct <= 5.0, format!("overhead {overhead_pct:.2}%"));
    outcome.gate(
        tripwire_alerts == 0,
        format!("{tripwire_alerts} payload tripwire alerts"),
    );
    outcome.markdown = out;
    outcome
}

/// E20 — fault-tolerant sealed relay: deterministic network chaos,
/// virtual-time retry/backoff, replay-safe idempotent cloud ingest.
///
/// Three claims, each gated:
/// 1. Under 10% drop plus duplication, reordering, corruption and one
///    outage window, the cloud's committed decision stream is
///    **byte-identical** to the fault-free run at every worker count —
///    no verdict lost, none double-counted, despite visible
///    redeliveries and loud corruption rejects.
/// 2. The outage drill fires at least one `retry_storm` alert, and the
///    alert journal is byte-identical across worker counts: chaos is a
///    pure function of `(seed, device, send sequence)`, never of the
///    host schedule.
/// 3. A zero-rate `FaultSpec` is a no-op — wiring the chaos plane in
///    costs nothing when every rate is zero.
pub fn run_e20_fault_tolerance() -> Outcome {
    use perisec_core::fleet::{FleetConfig, PipelineFleet};
    use perisec_core::pipeline::{CameraPipelineConfig, SharedModels};
    use perisec_relay::netsim::FaultSpec;
    use perisec_telemetry::{HealthConfig, SloSpec};
    use perisec_workload::scenario::CameraScenario;

    let mut out = String::from(
        "## E20 — fault-tolerant sealed relay (deterministic chaos, virtual-time \
         retries, idempotent ingest)\n\n",
    );

    let models = SharedModels::deferred(Architecture::Cnn, 60, 0xE20).with_vision_spec(120, 0xE20);
    models.audio().expect("train speech models");
    models.vision().expect("train frame classifier");

    // The drill: 10% drop, plus duplication, reordering, corruption and
    // one outage window in per-device send-sequence space. Send
    // sequences are consumed by retransmissions too, so the outage
    // always terminates — the retry machine walks out of the window.
    let faults = FaultSpec {
        drop_permille: 100,
        duplicate_permille: 60,
        reorder_permille: 40,
        corrupt_permille: 40,
        outage: Some((2, 6)),
        ..FaultSpec::none(0xE20)
    };
    let audio_pipeline = PipelineConfig {
        batch_windows: 2,
        ..PipelineConfig::default()
    };
    let camera_pipeline = CameraPipelineConfig {
        batch_windows: 2,
        ..CameraPipelineConfig::default()
    };
    // Generous latency SLO (nothing should demote) but a live retry
    // tripwire: three retransmissions inside one epoch is a storm.
    let health = HealthConfig {
        slos: vec![SloSpec::p95("tee-filter", SimDuration::from_secs(5))],
        retry_storm_threshold: 3,
        ..HealthConfig::with_window(SimDuration::from_secs(1))
    };
    let audio_devices = 256;
    let camera_devices = 768;
    let fleet = |faults: Option<FaultSpec>, workers: usize| {
        PipelineFleet::with_models(
            FleetConfig {
                devices: audio_devices,
                pipeline: audio_pipeline.clone(),
                camera_devices,
                camera_pipeline: camera_pipeline.clone(),
                workers,
                health: Some(health.clone()),
                faults,
                ..FleetConfig::of(0)
            },
            models.clone(),
        )
    };
    let audio = Scenario::fleet(audio_devices, 4, 0.5, SimDuration::from_secs(1), 0xE20);
    let cameras = CameraScenario::fleet_high_fps(camera_devices, 4, 1, 30, 0.4, 0xE20);

    // Fault-free reference: the decision stream every chaotic run must
    // reproduce byte-for-byte.
    let reference = fleet(None, 8)
        .run_mixed(&audio, &cameras)
        .expect("fault-free reference fleet");
    let reference_decisions = reference.cloud_decisions_json();
    let reference_events: usize = reference
        .devices()
        .iter()
        .map(|d| d.report.cloud.report.events.len())
        .sum();

    out.push_str(&format!(
        "### Chaos drill: {}-device mixed fleet, 10% drop + duplication + \
         corruption + one outage window\n\n",
        audio_devices + camera_devices
    ));
    out.push_str(
        "| workers | committed | redelivered | rejected | retry-storm alerts | \
         decisions == fault-free | journal == workers=1 |\n|---|---|---|---|---|---|---|\n",
    );
    let mut decisions_identical = true;
    let mut journals_identical = true;
    let mut reference_journal: Option<String> = None;
    let mut min_storms = usize::MAX;
    let mut max_lost = 0usize;
    let mut max_duplicated = 0usize;
    let mut total_redelivered = 0u64;
    let mut total_rejected = 0u64;
    let mut outcome = Outcome::default();
    for workers in [1usize, 2, 8] {
        let (report, _, _, census) = fleet(Some(faults), workers)
            .run_mixed_health(&audio, &cameras)
            .expect("chaos fleet");
        let decisions = report.cloud_decisions_json();
        let journal = census.alert_journal_json();
        let events: usize = report
            .devices()
            .iter()
            .map(|d| d.report.cloud.report.events.len())
            .sum();
        let committed: u64 = report
            .devices()
            .iter()
            .map(|d| d.report.cloud.report.committed_records)
            .sum();
        let redelivered = report.total_redelivered_records();
        let rejected = report.total_rejected_records();
        let storms = census.alerts_of("retry_storm");
        let matches_reference = decisions == reference_decisions;
        decisions_identical &= matches_reference;
        let matches_serial = match &reference_journal {
            None => {
                reference_journal = Some(journal);
                true
            }
            Some(first) => *first == journal,
        };
        journals_identical &= matches_serial;
        min_storms = min_storms.min(storms);
        max_lost = max_lost.max(reference_events.saturating_sub(events));
        max_duplicated = max_duplicated.max(events.saturating_sub(reference_events));
        total_redelivered += redelivered;
        total_rejected += rejected;
        let _ = writeln!(
            out,
            "| {workers} | {committed} | {redelivered} | {rejected} | {storms} | {} | {} |",
            if matches_reference { "yes" } else { "NO" },
            if matches_serial { "yes" } else { "NO" },
        );
        outcome.gate(
            matches_reference,
            format!("{workers} workers: decisions != fault-free"),
        );
        outcome.gate(
            matches_serial,
            format!("{workers} workers: journal != 1-worker journal"),
        );
    }
    outcome.gate(max_lost == 0, format!("{max_lost} verdicts lost"));
    outcome.gate(max_duplicated == 0, format!("{max_duplicated} duplicates"));
    outcome.gate(total_redelivered >= 1, "no redelivered record");
    outcome.gate(total_rejected >= 1, "no rejected record");
    outcome.gate(min_storms >= 1, "no retry-storm alert");
    let _ = writeln!(
        out,
        "\nCloud decisions byte-identical to the fault-free run at every worker \
         count: {}.",
        if decisions_identical { "yes" } else { "NO" }
    );
    let _ = writeln!(out, "Verdicts lost under chaos: {max_lost} (gate: 0).");
    let _ = writeln!(
        out,
        "Duplicate cloud decisions: {max_duplicated} (gate: 0)."
    );
    let _ = writeln!(
        out,
        "Redelivered records across the drill: {total_redelivered} (gate: > 0)."
    );
    let _ = writeln!(
        out,
        "Rejected (corrupted) records across the drill: {total_rejected} (gate: > 0)."
    );
    let _ = writeln!(
        out,
        "Retry-storm alerts under the outage drill: {min_storms} (gate: >= 1)."
    );
    let _ = writeln!(
        out,
        "Retry/alert journals byte-identical across worker counts: {}.",
        if journals_identical { "yes" } else { "NO" }
    );

    // Part 2: a zero-rate FaultSpec must be indistinguishable from no
    // fault plane at all — the chaos hook costs nothing when disarmed.
    out.push_str("\n### Zero-rate chaos is a no-op\n\n");
    let quiet_pipeline = PipelineConfig {
        batch_windows: 2,
        ..PipelineConfig::default()
    };
    let quiet_config = |faults: Option<FaultSpec>| FleetConfig {
        devices: 12,
        pipeline: quiet_pipeline.clone(),
        workers: 2,
        faults,
        ..FleetConfig::of(0)
    };
    let quiet_audio = Scenario::fleet(12, 4, 0.5, SimDuration::from_secs(1), 0xE20);
    let plain = PipelineFleet::with_models(quiet_config(None), models.clone())
        .run_mixed(&quiet_audio, &[])
        .expect("plain fleet");
    let disarmed =
        PipelineFleet::with_models(quiet_config(Some(FaultSpec::none(0xE20))), models.clone())
            .run_mixed(&quiet_audio, &[])
            .expect("disarmed-chaos fleet");
    let disarmed_is_noop = plain.to_json() == disarmed.to_json();
    let _ = writeln!(
        out,
        "Zero-rate FaultSpec leaves the report byte-identical: {}.",
        if disarmed_is_noop { "yes" } else { "NO" }
    );
    outcome.gate(disarmed_is_noop, "a zero-rate FaultSpec changed the report");
    outcome.markdown = out;
    outcome
}

/// E21 — the attested sharded ingest plane. Three parts:
///
/// 1. The crash drill: an audio fleet routed through a 2-shard plane
///    whose shards crash and restart mid-run, layered with a lossy
///    link. Sessions re-attest under bumped epochs, redeliveries are
///    absorbed idempotently, and the cloud decision stream stays
///    byte-identical to the direct (plane-less) path at workers 1/2/8.
/// 2. The mega-fleet: 100k+ wire-level device sessions against an
///    8-shard plane with two crash windows per shard — every committed
///    record survives exactly once.
/// 3. Shard scaling: the modeled service throughput grows with the
///    shard count because commit work parallelises across journals.
pub fn run_e21_ingest_plane() -> Outcome {
    use std::sync::Arc;

    use perisec_core::fleet::{FleetConfig, PipelineFleet};
    use perisec_core::pipeline::SharedModels;
    use perisec_core::FILTER_TA_NAME;
    use perisec_ingest::{IngestPlane, IngestPlaneConfig, ShardFaultSpec};
    use perisec_relay::attest::{
        encode_attest_request, encode_ingest_record, SessionIngest, ATTEST_SEQ_BASE,
    };
    use perisec_relay::avs::AvsEvent;
    use perisec_relay::netsim::FaultSpec;
    use perisec_relay::{measurement_of, IngestReply, SecureChannelClient, PSK_LEN};

    let mut out = String::from(
        "## E21 — attested sharded ingest plane (epoch-fenced recovery, replay-safe \
         re-attestation, bounded backpressure)\n\n",
    );

    // --- Part 1: crash drill with byte-identity across worker counts ---
    let models = SharedModels::deferred(Architecture::Cnn, 60, 0xE21);
    models.audio().expect("train speech models");
    let pipeline = PipelineConfig {
        batch_windows: 2,
        ..PipelineConfig::default()
    };
    let devices = 8;
    let scenarios = Scenario::fleet(devices, 10, 0.3, SimDuration::from_secs(1), 0xE21);
    // Lossy link layered on top of the crashing plane: duplicated
    // requests land on the shards as redeliveries, dropped ones force
    // retransmissions through the retry machine.
    let link_faults = FaultSpec {
        drop_permille: 150,
        duplicate_permille: 200,
        ..FaultSpec::none(0xE21)
    };

    let direct = PipelineFleet::with_models(
        FleetConfig {
            devices,
            pipeline: pipeline.clone(),
            workers: 8,
            ..FleetConfig::of(0)
        },
        models.clone(),
    )
    .run(&scenarios)
    .expect("direct reference fleet");
    let reference_decisions = direct.cloud_decisions_json();
    let reference_events: usize = direct
        .devices()
        .iter()
        .map(|d| d.report.cloud.report.events.len())
        .sum();

    out.push_str(&format!(
        "### Crash drill: {devices}-device fleet through a 2-shard plane, shards \
         killed and restarted mid-run, 15% loss + 20% duplication on the link\n\n",
    ));
    out.push_str(
        "| workers | committed | redelivered | stale-epoch rejects | attest grants | \
         decisions == direct |\n|---|---|---|---|---|---|\n",
    );
    let mut identical = true;
    let mut min_stale = u64::MAX;
    let mut total_redelivered = 0u64;
    let mut max_lost = 0usize;
    let mut max_duplicated = 0usize;
    let mut outcome = Outcome::default();
    for workers in [1usize, 2, 8] {
        let plane = IngestPlane::new(
            IngestPlaneConfig::new(2, devices)
                .accepting(vec![measurement_of(FILTER_TA_NAME)])
                .with_faults(ShardFaultSpec::single(0xE21, 1_500_000_000, 150_000_000)),
        );
        let report = PipelineFleet::with_models(
            FleetConfig {
                devices,
                pipeline: pipeline.clone(),
                workers,
                ingest: Some(Arc::clone(&plane) as _),
                faults: Some(link_faults),
                ..FleetConfig::of(0)
            },
            models.clone(),
        )
        .run(&scenarios)
        .expect("plane-routed fleet");
        let decisions = report.cloud_decisions_json();
        let events: usize = report
            .devices()
            .iter()
            .map(|d| d.report.cloud.report.events.len())
            .sum();
        let counters = plane.counters();
        let matches_reference = decisions == reference_decisions;
        identical &= matches_reference;
        min_stale = min_stale.min(counters.stale_epoch_rejects);
        total_redelivered += counters.redelivered;
        max_lost = max_lost.max(reference_events.saturating_sub(events));
        max_duplicated = max_duplicated.max(events.saturating_sub(reference_events));
        let _ = writeln!(
            out,
            "| {workers} | {} | {} | {} | {} | {} |",
            plane.total_committed(),
            counters.redelivered,
            counters.stale_epoch_rejects,
            counters.attest_grants,
            if matches_reference { "yes" } else { "NO" },
        );
        outcome.gate(
            matches_reference,
            format!("{workers} workers: decisions != direct"),
        );
    }
    outcome.gate(max_lost == 0, format!("{max_lost} verdicts lost"));
    outcome.gate(max_duplicated == 0, format!("{max_duplicated} duplicates"));
    outcome.gate(min_stale >= 1, "no stale-epoch reject in the drill");
    outcome.gate(total_redelivered >= 1, "no redelivered record");
    let _ = writeln!(
        out,
        "\nCloud decisions byte-identical to the direct path at every worker count: {}.",
        if identical { "yes" } else { "NO" }
    );
    let _ = writeln!(
        out,
        "Verdicts lost across the crash drill: {max_lost} (gate: 0)."
    );
    let _ = writeln!(
        out,
        "Duplicate verdicts across the crash drill: {max_duplicated} (gate: 0)."
    );
    let _ = writeln!(
        out,
        "Stale-epoch rejects under the crash drill: {min_stale} (gate: > 0)."
    );
    let _ = writeln!(
        out,
        "Redelivered records absorbed idempotently: {total_redelivered} (gate: > 0)."
    );

    // --- Part 2: the 100k-session mega-fleet, wire level ----------------
    // Each session speaks the plane's wire protocol directly (handshake,
    // attest, sealed records with epoch prefixes) with a retry loop that
    // walks out of crash windows via exponential backoff and re-attests
    // whenever the restarted shard fences its epoch.
    const SESSIONS: u64 = 100_000;
    const RECORDS: u64 = 2;
    const _: () = assert!(SESSIONS == 100_000 && SESSIONS * RECORDS == 200_000);
    const SPACING_NS: u64 = 10_000;
    let ta = measurement_of(FILTER_TA_NAME);
    let mega = IngestPlane::new(
        IngestPlaneConfig::new(8, SESSIONS as usize)
            .accepting(vec![ta])
            .with_faults(ShardFaultSpec {
                seed: 0xE21,
                crashes_per_shard: 2,
                first_crash_ns: 500_000_000,
                crash_period_ns: 700_000_000,
                downtime_ns: 10_000_000,
            }),
    );
    let started = std::time::Instant::now();
    for session in 0..SESSIONS {
        let mut now_ns = session * RECORDS * SPACING_NS;
        let mut client = SecureChannelClient::new([0x5a; PSK_LEN], session + 1);
        // Handshake, retrying through any crash window.
        loop {
            let hello = client.client_hello();
            let reply = mega.handle(session, now_ns, &hello);
            if !reply.is_empty() {
                client.process_server_hello(&reply).expect("server hello");
                break;
            }
            now_ns += SPACING_NS.max(1_000_000);
        }
        let mut counter = 1u64;
        let mut epoch;
        loop {
            let wire = client
                .seal_at(
                    ATTEST_SEQ_BASE + counter,
                    &encode_attest_request(&ta, counter),
                )
                .expect("seal attest");
            let reply = mega.handle(session, now_ns, &wire);
            if reply.is_empty() {
                now_ns += SPACING_NS.max(1_000_000);
                continue;
            }
            let (_, plain) = client.open_explicit(&reply).expect("attest reply");
            match IngestReply::decode(&plain) {
                Some(IngestReply::AttestGrant { epoch: granted }) => {
                    epoch = granted;
                    break;
                }
                other => panic!("mega-fleet attest refused: {other:?}"),
            }
        }
        for seq in 0..RECORDS {
            let event = AvsEvent::TextMessage {
                dialog_id: session * RECORDS + seq,
                text: String::from("verdict"),
            };
            let mut backoff = SPACING_NS;
            loop {
                let wire = client
                    .seal_at(seq, &encode_ingest_record(epoch, &event.encode()))
                    .expect("seal record");
                let reply = mega.handle(session, now_ns, &wire);
                if reply.is_empty() {
                    // Shard dark: wait out virtual time, doubling the step.
                    now_ns += backoff;
                    backoff = (backoff * 2).min(4_000_000);
                    continue;
                }
                let (_, plain) = client.open_explicit(&reply).expect("record reply");
                match IngestReply::decode(&plain) {
                    Some(IngestReply::Ack(_)) => break,
                    Some(IngestReply::NeedAttest) | Some(IngestReply::StaleEpoch { .. }) => {
                        counter += 1;
                        let wire = client
                            .seal_at(
                                ATTEST_SEQ_BASE + counter,
                                &encode_attest_request(&ta, counter),
                            )
                            .expect("seal re-attest");
                        let reply = mega.handle(session, now_ns, &wire);
                        if reply.is_empty() {
                            now_ns += backoff;
                            continue;
                        }
                        let (_, plain) = client.open_explicit(&reply).expect("re-attest reply");
                        match IngestReply::decode(&plain) {
                            Some(IngestReply::AttestGrant { epoch: granted }) => epoch = granted,
                            other => panic!("mega-fleet re-attest refused: {other:?}"),
                        }
                    }
                    other => panic!("mega-fleet unexpected reply: {other:?}"),
                }
            }
            now_ns += SPACING_NS;
        }
    }
    let elapsed = started.elapsed();
    let counters = mega.counters();
    let expected = SESSIONS * RECORDS;
    let committed = mega.total_committed();
    out.push_str(&format!(
        "\n### Mega-fleet: {SESSIONS} wire-level sessions, 8 shards, two crash \
         windows per shard\n\n"
    ));
    let _ = writeln!(
        out,
        "Mega-fleet sessions: {SESSIONS} (gate: >= 100000), host runtime {:.1}s.",
        elapsed.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "Committed exactly once: {committed} of {expected} (gate: all, no loss, no dup)."
    );
    let _ = writeln!(
        out,
        "Mega-fleet stale-epoch rejects: {} (gate: > 0).",
        counters.stale_epoch_rejects
    );
    let _ = writeln!(
        out,
        "Mega-fleet attest grants: {} (gate: >= {SESSIONS}).",
        counters.attest_grants
    );
    outcome.gate(
        committed == expected,
        format!("mega fleet: {committed} of {expected} records committed"),
    );
    let stale = counters.stale_epoch_rejects;
    outcome.gate(stale >= 1, "no stale-epoch reject in the mega fleet");

    // --- Part 3: shard balance ------------------------------------------
    // Wire-level load against 4 shards. The busiest shard's commit work
    // bounds the makespan, so the plane scales with its shard count only
    // as far as placement spreads the committed records: busiest / mean
    // committed per shard is 1.0 for a perfect spread and 4.0 when one
    // shard takes everything.
    const SCALE_SHARDS: usize = 4;
    const SCALE_SESSIONS: u64 = 16;
    const SCALE_RECORDS: u64 = 400;
    const _: () = assert!(SCALE_SESSIONS * SCALE_RECORDS == 6_400);
    fn mega_handshake(
        plane: &std::sync::Arc<perisec_ingest::IngestPlane>,
        session: u64,
        client: &mut perisec_relay::SecureChannelClient,
    ) -> bool {
        use perisec_relay::attest::SessionIngest;
        let hello = client.client_hello();
        let reply = plane.handle(session, 0, &hello);
        if reply.is_empty() {
            return false;
        }
        client.process_server_hello(&reply).is_ok()
    }
    let plane = IngestPlane::new(
        IngestPlaneConfig::new(SCALE_SHARDS, SCALE_SESSIONS as usize).accepting(vec![ta]),
    );
    for session in 0..SCALE_SESSIONS {
        let mut client = SecureChannelClient::new([0x5a; PSK_LEN], session + 1);
        let reply = mega_handshake(&plane, session, &mut client);
        assert!(reply, "scaling handshake");
        let wire = client
            .seal_at(ATTEST_SEQ_BASE + 1, &encode_attest_request(&ta, 1))
            .expect("seal attest");
        let reply = plane.handle(session, 0, &wire);
        let (_, plain) = client.open_explicit(&reply).expect("attest reply");
        assert!(matches!(
            IngestReply::decode(&plain),
            Some(IngestReply::AttestGrant { .. })
        ));
        for seq in 0..SCALE_RECORDS {
            let event = AvsEvent::TextMessage {
                dialog_id: seq,
                text: String::from("scale"),
            };
            let wire = client
                .seal_at(seq, &encode_ingest_record(1, &event.encode()))
                .expect("seal record");
            let reply = plane.handle(session, seq * SPACING_NS, &wire);
            let (_, plain) = client.open_explicit(&reply).expect("record reply");
            assert!(matches!(
                IngestReply::decode(&plain),
                Some(IngestReply::Ack(_))
            ));
        }
    }
    let per_shard = plane.committed_per_shard();
    let total = plane.total_committed();
    let sent = SCALE_SESSIONS * SCALE_RECORDS;
    let busiest = per_shard.iter().copied().max().unwrap_or(0);
    let balance = busiest as f64 * SCALE_SHARDS as f64 / total.max(1) as f64;
    out.push_str("\n### Shard balance: records committed per shard\n\n");
    out.push_str("| shard | committed records |\n|---|---|\n");
    for (shard, committed) in per_shard.iter().enumerate() {
        let _ = writeln!(out, "| {shard} | {committed} |");
    }
    let _ = writeln!(
        out,
        "\nCommitted across {SCALE_SHARDS} shards: {total} of {sent}."
    );
    let _ = writeln!(
        out,
        "Shard balance at {SCALE_SHARDS} shards, busiest / mean committed: {balance:.2} (gate: <= 2.0)."
    );
    outcome.gate(
        total == sent,
        format!("{total} of {sent} records committed across {SCALE_SHARDS} shards"),
    );
    outcome.gate(balance <= 2.0, format!("shard balance {balance:.2}"));
    outcome.markdown = out;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_experiments_produce_tables() {
        // Only the cheap experiments are exercised in unit tests; the full
        // set runs through the `experiments` binary and integration tests.
        let e1 = run_e1_tcb().markdown;
        assert!(e1.contains("| record |"));
        assert!(e1.contains("yes"));
        let e2 = run_e2_throughput().markdown;
        assert!(e2.lines().count() > 6);
        let e7 = run_e7_worldswitch().markdown;
        assert!(e7.contains("SMC round trip"));
        let e9 = run_e9_scalability().markdown;
        assert!(e9.contains("| 16 |"));
        let e10_header = "## E10";
        assert!(run_e10_footprint().markdown.contains(e10_header));
    }
}
