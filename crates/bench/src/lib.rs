//! # perisec-bench — the experiment harness
//!
//! The paper contains no measured evaluation ("We are yet to perform
//! concrete experiments", §III); this crate operationalizes the evaluation
//! it promises. Each `run_eN` function runs one experiment and returns an
//! [`Outcome`]: its markdown tables, the files it writes and the gates it
//! failed. The `experiments` binary runs them by id (`experiments e11
//! e14`), and exits non-zero if a gate failed.
//!
//! Criterion benches (under `benches/`) cover the microbenchmark side:
//! world-switch primitives, capture throughput, crypto, and ML inference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod loc;

pub use experiments::*;
