//! # perisec-core — the paper's end-to-end secure peripheral pipeline
//!
//! This crate composes every substrate into the system of the paper's
//! Fig. 1 and its untrusted baseline:
//!
//! * [`policy`] — the privacy policy: what counts as sensitive and what to
//!   do with it (drop, redact, forward);
//! * [`source`] — a shared playback signal source so scenario runners can
//!   feed utterances into a microphone owned by the secure driver;
//! * [`filter_ta`] — [`filter_ta::FilterTa`], the trusted application at
//!   the heart of the design, written once for every sensor: pulls a batch
//!   of windows from its sensor's PTA, classifies each window in the TA,
//!   applies the policy, and relays only permitted content to the cloud
//!   over the TLS-like channel through the TEE supplicant. A
//!   [`filter_ta::WindowFilter`] holds what differs per sensor;
//!   [`filter_ta::SpeechFilter`] transcribes audio with the in-TA STT and
//!   classifies the transcript (CNN / Transformer / hybrid);
//! * [`stage`] — the staged architecture: capture → filter → relay behind
//!   the [`stage::PipelineStage`] trait, with batch-aware TEE crossings;
//! * [`pipeline`] — [`pipeline::SecureDevice`], the proposed design for
//!   any sensor a [`pipeline::SensorPath`] describes, with
//!   [`pipeline::SecurePipeline`] (speech),
//!   [`pipeline::SecureCameraPipeline`] (frames) and
//!   [`pipeline::ShardedVisionPipeline`] (frames fanned out across a pool
//!   of secure cores) as its three instantiations, and
//!   [`pipeline::BaselinePipeline`] (driver in the untrusted kernel, no
//!   filtering); all run `perisec-workload` scenarios and are assembled
//!   from the stages;
//! * [`pool`] — [`pool::TeePool`]: N secure cores, each its own platform
//!   and TEE core, all charging allocations against one shared TZDRAM
//!   carve-out;
//! * [`scheduler`] — [`scheduler::SessionScheduler`]: deterministic
//!   least-loaded placement of a device's events onto its lanes, with an
//!   opt-in work-stealing pass;
//! * [`vision_ta`] — [`vision_ta::FrameFilter`], the camera's window
//!   filter: classifies frames with the in-TA frame CNN, so the vision TA
//!   relays only sealed verdict records — never pixels;
//! * [`executor`] — the fleet executor: [`executor::run_devices`] runs
//!   a fleet's devices on a fixed worker pool, each worker taking the
//!   next device off one shared counter and running it to the end, so
//!   fleet scale is a function of work, not thread count;
//! * [`batcher`] — [`batcher::AdaptiveBatcher`]: picks each TEE
//!   crossing's batch size from queue depth against a latency SLO;
//! * [`fleet`] — [`fleet::PipelineFleet`]: M concurrent device pipelines
//!   (audio, camera, or a mix) sharing one trained model set, multiplexed
//!   onto the executor, with merged fleet reports;
//! * [`ingest`] — [`ingest::IngestHook`]: one device's handle onto a
//!   fleet-shared sharded attested ingest plane (`perisec-ingest`),
//!   routing the TA's relay records to an epoch-fenced shard under the
//!   cloud hostname instead of a per-device mock cloud;
//! * [`report`] — per-run reports: stage latencies, world-switch and
//!   energy accounting, and the privacy-leakage summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
mod cloud_channel;
pub mod executor;
pub mod filter_ta;
pub mod fleet;
pub mod ingest;
pub mod pipeline;
pub mod policy;
pub mod pool;
pub mod report;
pub mod scheduler;
pub mod source;
pub mod stage;
pub mod vision_ta;

pub use batcher::AdaptiveBatcher;
pub use executor::ExecutorStats;
pub use filter_ta::{FilterTa, FILTER_TA_NAME};
pub use fleet::{DeviceReport, FleetConfig, FleetReport, Modality, PipelineFleet};
pub use ingest::IngestHook;
pub use pipeline::{
    BaselinePipeline, CameraPipelineConfig, PipelineConfig, SecureCameraPipeline, SecureDevice,
    SecurePipeline, SensorPath, ShardedCameraConfig, ShardedVisionPipeline, SharedModels,
};
pub use policy::{FilterDecision, FilterMode, PrivacyPolicy};
pub use pool::{TeePool, TeePoolConfig};
pub use report::{CloudOutcome, LatencyBreakdown, PipelineReport, WorkloadSummary};
pub use scheduler::SessionScheduler;
pub use source::{SharedPlayback, SharedSceneQueue};
pub use stage::{FilteredBatch, PipelineStage, PreparedBatch, WindowSpec, WindowVerdict};
pub use vision_ta::VISION_TA_NAME;

use std::error::Error;
use std::fmt;

/// Errors raised while assembling or running a pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The TEE stack reported an error.
    Tee(perisec_optee::TeeError),
    /// The kernel substrate reported an error.
    Kernel(perisec_kernel::KernelError),
    /// The ML stack reported an error.
    Ml(perisec_ml::MlError),
    /// The relay stack reported an error.
    Relay(perisec_relay::RelayError),
    /// Pipeline configuration was inconsistent.
    Config {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Tee(e) => write!(f, "tee error: {e}"),
            CoreError::Kernel(e) => write!(f, "kernel error: {e}"),
            CoreError::Ml(e) => write!(f, "ml error: {e}"),
            CoreError::Relay(e) => write!(f, "relay error: {e}"),
            CoreError::Config { reason } => write!(f, "configuration error: {reason}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Tee(e) => Some(e),
            CoreError::Kernel(e) => Some(e),
            CoreError::Ml(e) => Some(e),
            CoreError::Relay(e) => Some(e),
            CoreError::Config { .. } => None,
        }
    }
}

impl From<perisec_optee::TeeError> for CoreError {
    fn from(e: perisec_optee::TeeError) -> Self {
        CoreError::Tee(e)
    }
}

impl From<perisec_kernel::KernelError> for CoreError {
    fn from(e: perisec_kernel::KernelError) -> Self {
        CoreError::Kernel(e)
    }
}

impl From<perisec_ml::MlError> for CoreError {
    fn from(e: perisec_ml::MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<perisec_relay::RelayError> for CoreError {
    fn from(e: perisec_relay::RelayError) -> Self {
        CoreError::Relay(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_error_wraps_layer_errors() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<CoreError>();
        let e = CoreError::from(perisec_ml::MlError::NotTrained);
        assert!(e.to_string().contains("ml error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
