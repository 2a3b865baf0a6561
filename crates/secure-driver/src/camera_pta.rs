//! The camera pseudo trusted application.
//!
//! The camera-modality sibling of [`crate::pta::I2sPta`]: it owns the
//! [`SecureCameraDriver`] and exposes configure / start / batched frame
//! capture / stop / stats commands to userland TAs (the filter TA in
//! `perisec-core`, serving frames). Its batched capture is served by the
//! same code as the I2S PTA's, in the same framing (see [`crate::pta`]),
//! with windows counted in frames. The pixel data it returns never leaves the secure
//! world — its only consumer is the filter TA, which relays verdicts, not
//! frames. A normal-world caller gets `STATS` only; every other command
//! is refused with [`TeeError::AccessDenied`] before the driver is
//! touched.

use perisec_optee::{PseudoTa, PtaEnv, TaDescriptor, TeeError, TeeParam, TeeParams, TeeResult};

use crate::camera::SecureCameraDriver;
use crate::pta::serve_capture_batch;

/// Registered name of the camera PTA (its UUID is derived from this).
pub const CAMERA_PTA_NAME: &str = "perisec.camera-pta";

/// Command identifiers understood by the camera PTA.
pub mod cmd {
    /// Configure capture: allocates the secure frame buffers.
    pub const CONFIGURE: u32 = 0;
    /// Start the frame stream.
    pub const START: u32 = 1;
    /// Stop the frame stream.
    pub const STOP: u32 = 3;
    /// Query cumulative statistics: returns `(frames, bytes)` and
    /// `(secure_irqs, 0)` in two value outputs. The only command served
    /// to a normal-world caller.
    pub const STATS: u32 = 4;
    /// Release all resources.
    pub const SHUTDOWN: u32 = 5;
    /// Batched frame capture, the I2S PTA's
    /// [`CAPTURE_BATCH`](crate::pta::cmd::CAPTURE_BATCH) with windows
    /// counted in frames: param 0 is an input memref encoding the window
    /// lengths (see [`crate::pta::encode_windows_request`]); returns the
    /// per-window pixels and accounting in an output memref (see
    /// [`crate::pta::decode_windows_reply`]) and the aggregate
    /// `(wire_ns, cpu_ns)` in a value output.
    pub const CAPTURE_FRAME_BATCH: u32 = crate::pta::cmd::CAPTURE_BATCH;
}

/// The pseudo trusted application owning the secure camera driver.
pub struct CameraPta {
    driver: SecureCameraDriver,
}

impl std::fmt::Debug for CameraPta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CameraPta")
            .field("driver", &self.driver)
            .finish()
    }
}

impl CameraPta {
    /// Wraps a secure camera driver in the PTA interface.
    pub fn new(driver: SecureCameraDriver) -> Self {
        CameraPta { driver }
    }

    /// Read access to the wrapped driver (for tests and reports).
    pub fn driver(&self) -> &SecureCameraDriver {
        &self.driver
    }
}

impl PseudoTa for CameraPta {
    fn descriptor(&self) -> TaDescriptor {
        TaDescriptor::new(CAMERA_PTA_NAME, 16, 96)
    }

    fn invoke(&mut self, env: &mut PtaEnv<'_>, cmd: u32, params: &mut TeeParams) -> TeeResult<()> {
        crate::pta::admit(env, CAMERA_PTA_NAME, cmd, cmd::STATS)?;
        match cmd {
            cmd::CONFIGURE => self.driver.configure(),
            cmd::START => self.driver.start(),
            cmd::CAPTURE_FRAME_BATCH => {
                serve_capture_batch(params, self.driver.frame_bytes(), |frames, out| {
                    let report = self.driver.capture_window_into(frames, out)?;
                    Ok((report.wire_time, report.cpu_time))
                })
            }
            cmd::STOP => {
                self.driver.stop();
                Ok(())
            }
            cmd::STATS => {
                let stats = self.driver.stats();
                params.set(
                    0,
                    TeeParam::ValueOutput {
                        a: stats.frames_captured,
                        b: stats.bytes_delivered,
                    },
                );
                params.set(
                    1,
                    TeeParam::ValueOutput {
                        a: stats.secure_irqs,
                        b: 0,
                    },
                );
                Ok(())
            }
            cmd::SHUTDOWN => {
                self.driver.shutdown();
                Ok(())
            }
            other => Err(TeeError::ItemNotFound {
                what: format!("camera pta command {other}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pta::{decode_windows_reply, encode_windows_request};
    use perisec_devices::camera::{CameraSensor, FixedScene, SceneKind};
    use perisec_optee::{Supplicant, TaUuid, TeeCore};
    use perisec_tz::platform::Platform;
    use perisec_tz::time::SimDuration;
    use std::sync::Arc;

    fn registered_pta() -> (Arc<TeeCore>, TaUuid) {
        let platform = Platform::jetson_agx_xavier();
        let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
        let sensor = CameraSensor::smart_home("cam", 9).unwrap();
        let pta = CameraPta::new(SecureCameraDriver::new(
            platform,
            sensor,
            Box::new(FixedScene(SceneKind::Person)),
        ));
        let uuid = core.register_pta(Box::new(pta)).unwrap();
        (core, uuid)
    }

    #[test]
    fn full_frame_capture_flow_through_the_pta_interface() {
        let (core, uuid) = registered_pta();
        core.invoke_pta(uuid, cmd::CONFIGURE, &mut TeeParams::new())
            .unwrap();
        core.invoke_pta(uuid, cmd::START, &mut TeeParams::new())
            .unwrap();

        let windows = [2usize, 1, 3];
        let mut p =
            TeeParams::new().with(0, TeeParam::MemRefInput(encode_windows_request(&windows)));
        core.invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .unwrap();
        let replies = decode_windows_reply(p.get(1).as_memref().unwrap()).unwrap();
        assert_eq!(replies.len(), 3);
        for (reply, frames) in replies.iter().zip(windows) {
            assert_eq!(reply.data.len(), frames * 64 * 48);
            // 15 fps: one frame interval of sensor time per frame.
            assert_eq!(
                reply.wire_ns,
                (SimDuration::from_secs_f64(1.0 / 15.0) * frames as u64).as_nanos()
            );
            assert!(reply.cpu_ns > 0);
        }
        let (wire_total, cpu_total) = p.get(2).as_values().unwrap();
        assert_eq!(wire_total, replies.iter().map(|r| r.wire_ns).sum::<u64>());
        assert_eq!(cpu_total, replies.iter().map(|r| r.cpu_ns).sum::<u64>());

        // The batch shows up in cumulative stats as 6 frames.
        let mut p = TeeParams::new();
        core.invoke_pta(uuid, cmd::STATS, &mut p).unwrap();
        assert_eq!(p.get(0).as_values().unwrap(), (6, 6 * 64 * 48));
        assert_eq!(p.get(1).as_values().unwrap(), (6, 0));
        core.invoke_pta(uuid, cmd::STOP, &mut TeeParams::new())
            .unwrap();
        core.invoke_pta(uuid, cmd::SHUTDOWN, &mut TeeParams::new())
            .unwrap();
    }

    #[test]
    fn bad_commands_and_parameters_are_rejected() {
        let (core, uuid) = registered_pta();
        assert!(core.invoke_pta(uuid, 99, &mut TeeParams::new()).is_err());
        // Batch capture without a memref.
        assert!(core
            .invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut TeeParams::new())
            .is_err());
        // Capture before configure/start.
        let mut p = TeeParams::new().with(0, TeeParam::MemRefInput(encode_windows_request(&[1])));
        assert!(core
            .invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .is_err());
    }
}
