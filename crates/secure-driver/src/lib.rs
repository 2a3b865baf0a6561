//! # perisec-secure-driver — the peripheral drivers ported into the TEE
//!
//! The heart of the paper's design: "Our design ports the full driver
//! software into OP-TEE. As such, the secure hardware device driver
//! associated with the peripheral device reads this potentially sensitive
//! data into its I/O buffers. TrustZone provides an address space
//! controller capable of carving out secure RAM memory from which a secure
//! driver's I/O buffers are allocated." (§II)
//!
//! In practice (plan items 2 and 3) only the *minimal, traced* subset of
//! each driver is ported. This crate contains both peripheral modalities
//! the paper motivates:
//!
//! * [`driver`] — [`driver::SecureI2sDriver`], the capture-only audio
//!   driver that runs in the secure world, allocates its I/O buffers from
//!   the TrustZone carve-out, and charges secure-world costs for its work;
//! * [`pta`] — [`pta::I2sPta`], the pseudo trusted application that exposes
//!   the audio driver to userland TAs over GlobalPlatform-style commands,
//!   exactly as the paper's Fig. 1 steps 3–4 describe, and the
//!   batch-capture framing both PTAs serve;
//! * [`camera`] — [`camera::SecureCameraDriver`], the capture-only camera
//!   driver (frames into secure memory, FIQ-routed frame interrupts);
//! * [`camera_pta`] — [`camera_pta::CameraPta`], the camera PTA, whose
//!   batched `CAPTURE_FRAME_BATCH` command speaks the same framing and
//!   feeds the vision TA.
//!
//! The kernel-function sets these ports correspond to are exported as
//! [`driver::PORTED_FUNCTIONS`] and [`camera::PORTED_CAMERA_FUNCTIONS`];
//! `perisec-tcb` compares them against the full driver catalogs to
//! quantify the TCB reduction per modality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod camera;
pub mod camera_pta;
pub mod driver;
pub mod pta;

pub use camera::{SecureCameraDriver, SecureFrameReport, PORTED_CAMERA_FUNCTIONS};
pub use camera_pta::{CameraPta, CAMERA_PTA_NAME};
pub use driver::{SecureCaptureReport, SecureDriverState, SecureI2sDriver, PORTED_FUNCTIONS};
pub use pta::{I2sPta, I2S_PTA_NAME};
