//! # perisec-ingest — the sharded attested ingest plane
//!
//! The paper's cloud endpoint is a single trusted ingest point; at the
//! fleet north star it has to be a sharded service that keeps the
//! zero-leak, exactly-once verdict contract *through* shard failures,
//! not only through lossy links. This crate supplies that plane:
//!
//! * [`fault`] — [`ShardFaultSpec`], whole-shard crash/restart windows
//!   in virtual time as a pure function of a seed (the shard-level
//!   sibling of the link layer's `FaultSpec`);
//! * `shard` — the journaled, attestation-gated per-session ingest
//!   state machine: volatile channel/stash tier rebuilt from an
//!   append-only journal on every crash, commit logic shared
//!   byte-for-byte with the direct `MockCloudService`;
//! * [`plane`] — [`IngestPlane`]: deterministic session→shard placement
//!   via the scheduler's least-loaded seam, plus per-shard telemetry
//!   folds, health reports and the modeled-throughput figure E21 gates
//!   on.
//!
//! The trust story, per the edge-to-cloud confidential-computing
//! literature: a session may only deposit records after attesting its
//! TA measurement together with a *monotonic counter*; each grant
//! carries a *session epoch*. Crashing a shard wipes its volatile tier,
//! so the session must re-attest (a strictly higher counter, a bumped
//! epoch) before any new record is accepted — records sealed under the
//! superseded epoch are rejected loudly, never replayed into a
//! rolled-back dedup window, while already-committed records are
//! re-acked from the journal without being recorded twice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod plane;
pub(crate) mod shard;

pub use fault::ShardFaultSpec;
pub use plane::{IngestPlane, IngestPlaneConfig};
pub use shard::ShardCounters;
