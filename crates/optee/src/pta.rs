//! Pseudo trusted applications.
//!
//! A PTA is "a secure module with OS-level privileges that could serve as
//! an intermediary between a TA (no OS-level privileges) and low-level code
//! like device driver software" (§II). Unlike TAs, PTAs are statically
//! linked into the OP-TEE core, have no separate session state, and may
//! touch hardware directly.
//!
//! `perisec-secure-driver` implements the paper's I2S driver PTA against
//! this trait.

use perisec_tz::platform::Platform;
use perisec_tz::secure_mem::SecureBuf;
use perisec_tz::time::SimDuration;
use perisec_tz::world::World;

use crate::param::TeeParams;
use crate::ta::TaDescriptor;
use crate::{TeeError, TeeResult};

/// The interface a pseudo TA implements.
pub trait PseudoTa: Send {
    /// The PTA's descriptor (its declared footprint is reserved from secure
    /// RAM at registration, like a TA's).
    fn descriptor(&self) -> TaDescriptor;

    /// Handles one command invocation.
    ///
    /// # Errors
    ///
    /// Command-specific; see each PTA's documentation.
    fn invoke(&mut self, env: &mut PtaEnv<'_>, cmd: u32, params: &mut TeeParams) -> TeeResult<()>;
}

/// The environment handed to a PTA for one call. PTAs run at OP-TEE kernel
/// privilege: they see the platform directly (secure RAM, TZASC, clock) but
/// have no supplicant or storage access of their own.
pub struct PtaEnv<'a> {
    platform: &'a Platform,
    caller: World,
}

impl std::fmt::Debug for PtaEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PtaEnv")
            .field("caller", &self.caller)
            .finish()
    }
}

impl<'a> PtaEnv<'a> {
    pub(crate) fn new(platform: &'a Platform, caller: World) -> Self {
        PtaEnv { platform, caller }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The world the call came from. [`World::Normal`] is a command a
    /// normal-world client sent through [`crate::client::TeeClient`] (in
    /// OP-TEE, `ts_get_calling_session()` returns NULL for it);
    /// [`World::Secure`] is a TA calling through
    /// [`crate::ta::TaEnv::invoke_pta`] or the core's own secure-side
    /// entry points. A PTA that holds sensor data must not hand it to the
    /// normal world.
    pub fn caller(&self) -> World {
        self.caller
    }

    /// Charges secure-world CPU time.
    pub fn charge_cpu(&self, duration: SimDuration) {
        self.platform.charge_cpu(World::Secure, duration);
    }

    /// Charges `flops` of secure-world compute, returning the time charged.
    pub fn charge_compute(&self, flops: u64) -> SimDuration {
        self.platform.charge_compute(World::Secure, flops)
    }

    /// Allocates a buffer from secure RAM (e.g. the secure driver's I/O
    /// buffers).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::OutOfMemory`] when the carve-out is exhausted.
    pub fn secure_alloc(&self, bytes: usize) -> TeeResult<SecureBuf> {
        self.platform
            .secure_ram()
            .alloc(bytes)
            .map_err(TeeError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perisec_tz::platform::Platform;

    #[test]
    fn pta_env_exposes_platform_services() {
        let platform = Platform::jetson_agx_xavier();
        let env = PtaEnv::new(&platform, World::Secure);
        assert_eq!(env.caller(), World::Secure);
        let before = platform.clock().now();
        env.charge_cpu(SimDuration::from_micros(3));
        env.charge_compute(1_000);
        assert!(platform.clock().now() > before);
        let buf = env.secure_alloc(4096).unwrap();
        assert_eq!(buf.len(), 4096);
    }
}
