//! # perisec-tcb — trusted-computing-base minimization
//!
//! Plan item 2 of the paper: a kernel tracing mechanism logs which driver
//! functions run for a given task; the logs are analyzed "to identify a
//! minimal set of executed functions necessary for the task to complete",
//! and conditional compilation excludes everything else from the OP-TEE
//! image.
//!
//! This crate is the analysis half of that workflow:
//!
//! * [`analysis`] — combine a [`perisec_kernel::DriverCatalog`] with a
//!   [`perisec_kernel::TraceLog`] to compute per-task minimal function
//!   sets and the lines-of-code reduction;
//! * [`prune`] — build a pruned "driver image" (the set of functions that
//!   survive conditional compilation) and estimate the resulting OP-TEE
//!   image size;
//! * [`memory`] — secure-RAM residency accounting for co-resident TA
//!   sessions, including the model-dedup saving the multi-core scheduler
//!   relies on;
//! * [`report`] — serializable reports and the markdown tables experiment
//!   E1 prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod memory;
pub mod prune;
pub mod report;

pub use analysis::{TaskTcb, TcbAnalysis};
pub use memory::SecureRamFootprint;
pub use prune::{PruneStrategy, PrunedImage};
pub use report::TcbReport;
