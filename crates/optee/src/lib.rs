//! # perisec-optee — an OP-TEE-like trusted execution environment simulator
//!
//! The paper's design "is based on OP-TEE, an open source TEE implementation
//! for securing applications based on TrustZone technology" (§II). This
//! crate reproduces the OP-TEE concepts that design uses, on top of the
//! TrustZone machine model of `perisec-tz`:
//!
//! * [`tee`] — the TEE core: TA/PTA registries, sessions, command dispatch,
//!   secure-memory accounting per TA, and RPC into the normal world;
//! * [`ta`] — the trusted-application framework (GlobalPlatform-flavoured
//!   `open_session` / `invoke` / `close_session`, plus the internal API a TA
//!   sees through [`ta::TaEnv`]);
//! * [`pta`] — pseudo trusted applications: secure, OS-privileged modules
//!   that bridge TAs and low-level code such as the ported device driver;
//! * [`client`] — the normal-world client API (the analogue of `libteec`),
//!   which funnels every call through the secure monitor so world switches
//!   and cross-world copies are accounted;
//! * [`supplicant`] — the normal-world `tee-supplicant` daemon providing
//!   file-system and network services to the secure world via RPC;
//! * [`storage`] — TA secure storage (encrypted objects persisted through
//!   the supplicant, as in OP-TEE's REE-FS storage);
//! * [`crypto`] — from-scratch SHA-256 / HMAC / HKDF / ChaCha20-Poly1305
//!   used by secure storage and by the relay's TLS-like channel;
//! * [`param`], [`uuid`] — command parameters and TA identifiers.

// Unsafe is denied crate-wide. The only unsafe code is the two calls in
// `crypto` that run a SHA-256 or ChaCha20 kernel right after detecting the
// host instructions it needs; each is allowed on its own, and the kernels
// themselves are safe `#[target_feature]` functions.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod crypto;
pub mod param;
pub mod pta;
pub mod storage;
pub mod supplicant;
pub mod ta;
pub mod tee;
pub mod uuid;

pub use client::{TeeClient, TeeSessionHandle};
pub use param::{TeeParam, TeeParams};
pub use pta::{PseudoTa, PtaEnv};
pub use storage::SecureStorage;
pub use supplicant::{NetBackend, RpcReply, RpcRequest, Supplicant};
pub use ta::{TaDescriptor, TaEnv, TrustedApp};
pub use tee::{SessionId, TeeCore};
pub use uuid::TaUuid;

use std::error::Error;
use std::fmt;

/// TEE error codes, mirroring the GlobalPlatform `TEE_ERROR_*` family the
/// paper's software stack would use.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TeeError {
    /// The referenced TA, PTA, session or object does not exist.
    ItemNotFound {
        /// What was being looked up.
        what: String,
    },
    /// Parameters did not match what the command expects.
    BadParameters {
        /// Explanation of the mismatch.
        reason: String,
    },
    /// The caller is not allowed to perform the operation.
    AccessDenied {
        /// Explanation.
        reason: String,
    },
    /// Secure memory could not be allocated.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
    },
    /// The target TA panicked or is otherwise unusable.
    TargetDead,
    /// A security check failed (e.g. storage authentication).
    SecurityViolation {
        /// Explanation.
        reason: String,
    },
    /// Communication with the normal world failed.
    Communication {
        /// Explanation.
        reason: String,
    },
    /// The peer or transport is saturated; the caller should back off
    /// and retry rather than treat the operation as failed.
    Busy {
        /// Socket the backpressure was reported on.
        socket: u64,
        /// Queue depth at the moment of rejection.
        depth: usize,
    },
    /// Generic failure with a free-form message.
    Generic {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for TeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeeError::ItemNotFound { what } => write!(f, "item not found: {what}"),
            TeeError::BadParameters { reason } => write!(f, "bad parameters: {reason}"),
            TeeError::AccessDenied { reason } => write!(f, "access denied: {reason}"),
            TeeError::OutOfMemory { requested } => {
                write!(f, "out of secure memory (requested {requested} bytes)")
            }
            TeeError::TargetDead => write!(f, "target trusted application is dead"),
            TeeError::SecurityViolation { reason } => write!(f, "security violation: {reason}"),
            TeeError::Communication { reason } => write!(f, "communication error: {reason}"),
            TeeError::Busy { socket, depth } => write!(
                f,
                "backpressure: response queue full on socket {socket} (depth {depth})"
            ),
            TeeError::Generic { reason } => write!(f, "tee error: {reason}"),
        }
    }
}

impl Error for TeeError {}

impl From<perisec_tz::TzError> for TeeError {
    fn from(e: perisec_tz::TzError) -> Self {
        match e {
            perisec_tz::TzError::SecureRamExhausted { requested, .. } => {
                TeeError::OutOfMemory { requested }
            }
            other => TeeError::Generic {
                reason: other.to_string(),
            },
        }
    }
}

/// Convenience result alias for TEE operations.
pub type TeeResult<T> = std::result::Result<T, TeeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tee_error_is_well_behaved() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<TeeError>();
        let e = TeeError::OutOfMemory { requested: 4096 };
        assert!(e.to_string().contains("4096"));
    }

    #[test]
    fn secure_ram_exhaustion_maps_to_out_of_memory() {
        let tz = perisec_tz::TzError::SecureRamExhausted {
            requested: 100,
            available: 10,
        };
        assert!(matches!(
            TeeError::from(tz),
            TeeError::OutOfMemory { requested: 100 }
        ));
        let tz = perisec_tz::TzError::UnmappedAddress { addr: 0x10 };
        assert!(matches!(TeeError::from(tz), TeeError::Generic { .. }));
    }
}
