//! # perisec-sched — the multi-core TEE scheduler
//!
//! One device, several secure cores: this crate scales a single device's
//! sensor stream *out* across multiple TA sessions instead of merely
//! batching it through one. It is the scale-out half of the paper's §V
//! mitigations — where batching (PR 1) amortizes the cost of each TEE
//! crossing, sharding multiplies how many crossings per second the device
//! can absorb, and secure-RAM model dedup keeps N co-resident sessions
//! from paying N copies of the same weights.
//!
//! * [`pool`] — [`pool::TeePool`]: N secure cores, each its own
//!   [`perisec_tz::platform::Platform`] (clock, monitor, world counters)
//!   and [`perisec_optee::TeeCore`], all charging allocations against
//!   **one** shared TZDRAM carve-out;
//! * [`scheduler`] — [`scheduler::SessionScheduler`]: deterministic
//!   least-loaded placement of capture windows onto per-core TA sessions,
//!   with an opt-in work-stealing rebalance pass
//!   ([`scheduler::SessionScheduler::assign_with_stealing`]) that lets an
//!   idle session take queued windows from a backlogged sibling, every
//!   steal recorded as a [`scheduler::WindowSteal`];
//! * [`stage`] — [`stage::ShardedFrameCaptureStage`] and
//!   [`stage::ShardedFilterStage`], implementing the existing
//!   [`perisec_core::stage::PipelineStage`] trait, plus
//!   [`stage::merge_verdicts`]: order-invariant verdict merging (max
//!   probability, most restrictive decision, per dialog id);
//! * [`batcher`] — [`batcher::AdaptiveBatcher`] (re-exported from
//!   `perisec_core::batcher`, which also drives the audio pipeline):
//!   picks `batch_windows` per shard from queue depth against a latency
//!   SLO using the E11 cost curve;
//! * [`pipeline`] — [`pipeline::ShardedVisionPipeline`]: the secure
//!   camera pipeline fanned out across a pool, end to end. It is the one
//!   way to run a sharded camera: fleets
//!   ([`perisec_core::fleet::PipelineFleet`]) run single-session devices
//!   only.
//!
//! The sharding contract, pinned by `tests/shard_parity.rs` and the
//! property tests: sharding changes *throughput*, never *outcome* — the
//! same windows reach the cloud (and none of the sensitive ones do) for
//! every shard count, and merged verdicts are invariant under any
//! permutation of shard replies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod pipeline;
pub mod pool;
pub mod scheduler;
pub mod stage;

pub use batcher::AdaptiveBatcher;
pub use pipeline::{
    CoreUtilization, ShardedCameraConfig, ShardedRunReport, ShardedScenarioProgress,
    ShardedVisionPipeline,
};
pub use pool::{TeeCoreHandle, TeePool, TeePoolConfig};
pub use scheduler::{SessionLoad, SessionScheduler, WindowSteal};
pub use stage::{
    merge_verdicts, ShardInput, ShardedFilterStage, ShardedFrameCaptureStage, ShardedPreparedBatch,
};
