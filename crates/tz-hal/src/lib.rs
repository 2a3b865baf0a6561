//! # perisec-tz — TrustZone-class machine model
//!
//! This crate models the hardware substrate the paper assumes: an ARM
//! TrustZone platform (the NVIDIA Jetson AGX Xavier in the paper's
//! proof-of-concept) partitioned into a *normal world* running an untrusted
//! OS and a *secure world* running OP-TEE.
//!
//! The model is **behavioural, not cycle-accurate**: it reproduces the
//! quantities the paper's evaluation depends on —
//!
//! * the number of **secure monitor calls (SMCs)** and **world switches**
//!   a workload performs, and the time they cost ([`monitor`], [`cost`]);
//! * the **secure-RAM carve-out** created by the TrustZone address space
//!   controller and the pressure on it ([`tzasc`], [`secure_mem`]);
//! * the **energy** drawn by platform components over a run ([`power`]);
//! * a virtual **clock** shared by every simulated component ([`time`]).
//!
//! The central type is [`platform::Platform`], which bundles a clock, cost
//! model, TZASC, secure-RAM allocator, secure monitor, power meter and
//! statistics into one shareable handle. Higher layers (the OP-TEE
//! simulator, the kernel substrate, the device models) all charge their
//! costs against the same platform so that end-to-end experiments observe a
//! consistent timeline.
//!
//! ```
//! use perisec_tz::platform::Platform;
//! use perisec_tz::world::World;
//!
//! let platform = Platform::jetson_agx_xavier();
//! // A round trip into the secure world is accounted for on the shared clock.
//! let before = platform.clock().now();
//! platform.monitor().world_switch(World::Secure);
//! platform.monitor().world_switch(World::Normal);
//! assert!(platform.clock().now() > before);
//! assert_eq!(platform.stats().world_switches(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod monitor;
pub mod platform;
pub mod power;
pub mod secure_mem;
pub mod stats;
pub mod time;
pub mod tzasc;
pub mod world;

pub use cost::CostModel;
pub use error::TzError;
pub use monitor::{SecureMonitor, SmcCall, SmcResult};
pub use platform::{Platform, PlatformSpec};
pub use power::{Component, EnergyMeter, PowerModel};
pub use secure_mem::{SecureBuf, SecureRam, SecureReservation};
pub use stats::TzStats;
pub use time::{SimClock, SimDuration, SimInstant};
pub use tzasc::{MemoryRegion, SecurityAttr, Tzasc};
pub use world::World;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TzError>;
