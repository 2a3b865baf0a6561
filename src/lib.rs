//! # perisec — TEE-protected peripheral data pipelines for IoT
//!
//! This facade crate re-exports the entire `perisec` workspace, a
//! reproduction of *"Enhancing IoT Security and Privacy with Trusted
//! Execution Environments and Machine Learning"* (DSN 2023 Doctoral Forum).
//!
//! The workspace models a TrustZone-class IoT platform in which hardware
//! peripheral drivers are ported into an OP-TEE-like trusted execution
//! environment, an in-TEE machine-learning stage transcribes and classifies
//! the peripheral data stream, and only non-sensitive content is relayed to
//! an untrusted cloud service.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`tz`] | `perisec-tz` | TrustZone machine model: worlds, SMC monitor, TZASC, secure RAM, cost & power models |
//! | [`devices`] | `perisec-devices` | I2S bus, MEMS microphone, camera, DMA engine, codec |
//! | [`kernel`] | `perisec-kernel` | Normal-world kernel substrate, ALSA-like PCM, baseline I2S driver, ftrace-like tracer |
//! | [`optee`] | `perisec-optee` | OP-TEE simulator: sessions, TAs, PTAs, supplicant RPC, secure storage, crypto |
//! | [`secure_driver`] | `perisec-secure-driver` | The I2S driver ported into the TEE plus its PTA bridge |
//! | [`ml`] | `perisec-ml` | Tensors, layers, training, MFCC, keyword STT, CNN/Transformer/hybrid classifiers, quantization |
//! | [`workload`] | `perisec-workload` | Synthetic labelled speech corpus and scenario generators |
//! | [`relay`] | `perisec-relay` | TLS-like secure channel, AVS-style cloud API, mock cloud service |
//! | [`tcb`] | `perisec-tcb` | Trace analysis, call graphs, driver pruning, secure-memory accounting, TCB reports |
//! | [`core`] | `perisec-core` | The paper's contribution: policy engine, privacy filter, end-to-end pipelines (one secure core or a sharded pool of them), metrics |
//! | [`telemetry`] | `perisec-telemetry` | Observability plane: virtual-time span tracer, bounded log-bucket histograms, order-invariant fleet fold, chrome-trace/flamegraph export |
//! | [`ingest`] | `perisec-ingest` | Sharded attested ingest plane: epoch-fenced sessions, append-only journals, deterministic crash/recovery, bounded backpressure |
//!
//! ## Quickstart
//!
//! ```
//! use perisec::core::pipeline::{SecurePipeline, PipelineConfig};
//! use perisec::workload::scenario::Scenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::smart_speaker_morning(7);
//! let mut pipeline = SecurePipeline::new(PipelineConfig::default())?;
//! let report = pipeline.run_scenario(&scenario)?;
//! assert!(report.cloud.leaked_sensitive_utterances() <= report.workload.sensitive_utterances);
//! # Ok(())
//! # }
//! ```

pub use perisec_core as core;
pub use perisec_devices as devices;
pub use perisec_ingest as ingest;
pub use perisec_kernel as kernel;
pub use perisec_ml as ml;
pub use perisec_optee as optee;
pub use perisec_relay as relay;
pub use perisec_secure_driver as secure_driver;
pub use perisec_tcb as tcb;
pub use perisec_telemetry as telemetry;
pub use perisec_tz as tz;
pub use perisec_workload as workload;
