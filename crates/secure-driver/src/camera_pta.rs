//! The camera pseudo trusted application.
//!
//! The camera-modality sibling of [`crate::pta::I2sPta`]: it owns the
//! [`SecureCameraDriver`] and exposes configure / start / batched frame
//! capture / stop / stats commands to userland TAs (the vision TA in
//! `perisec-core`). The pixel data it returns never leaves the secure
//! world — its only consumer is the vision TA, which relays verdicts, not
//! frames. A normal-world caller gets `STATS` only; every other command
//! is refused with [`TeeError::AccessDenied`] before the driver is
//! touched.

use perisec_optee::{PseudoTa, PtaEnv, TaDescriptor, TeeError, TeeParam, TeeParams, TeeResult};

use crate::camera::{FrameWindowCapture, SecureCameraDriver};

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
    /// Batched frame capture: param 0 is an input memref encoding the
    /// window lengths in frames (see
    /// [`super::encode_frames_request`]); returns the
    /// per-window pixels and accounting in an output memref (see
    /// [`super::decode_frame_windows_reply`]) and the
    /// aggregate `(wire_ns, cpu_ns)` in a value output.
    pub const CAPTURE_FRAME_BATCH: u32 = 6;
}

/// Encodes a batch frame-capture request: each window length in frames as
/// a little-endian `u32`.
pub fn encode_frames_request(windows: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(windows.len() * 4);
    for &w in windows {
        out.extend_from_slice(&(w as u32).to_le_bytes());
    }
    out
}

/// Decodes a batch frame-capture request produced by
/// [`encode_frames_request`].
///
/// # Errors
///
/// Returns [`TeeError::BadParameters`] for an empty or ragged buffer.
pub fn decode_frames_request(data: &[u8]) -> TeeResult<Vec<usize>> {
    if data.is_empty() || !data.len().is_multiple_of(4) {
        return Err(TeeError::BadParameters {
            reason: "frame window list must be a non-empty multiple of 4 bytes".to_owned(),
        });
    }
    Ok(data
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize)
        .collect())
}

/// Encodes a batch frame-capture reply: per window, a `u32` pixel byte
/// length, a `u32` frame count, the frame geometry as two `u16`s, the
/// `(wire_ns, cpu_ns)` accounting as two `u64`s, then the pixels.
pub fn encode_frame_windows_reply(
    captures: &[FrameWindowCapture],
    width: u16,
    height: u16,
) -> Vec<u8> {
    let mut out = Vec::new();
    for capture in captures {
        out.extend_from_slice(&(capture.pixels.len() as u32).to_le_bytes());
        out.extend_from_slice(&(capture.frames as u32).to_le_bytes());
        out.extend_from_slice(&width.to_le_bytes());
        out.extend_from_slice(&height.to_le_bytes());
        out.extend_from_slice(&capture.report.wire_time.as_nanos().to_le_bytes());
        out.extend_from_slice(&capture.report.cpu_time.as_nanos().to_le_bytes());
        out.extend_from_slice(&capture.pixels);
    }
    out
}

/// One decoded window of a batch frame-capture reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameWindowReply {
    /// Row-major grayscale pixels, frames concatenated.
    pub pixels: Vec<u8>,
    /// Number of frames in the window.
    pub frames: usize,
    /// Frame width in pixels.
    pub width: u16,
    /// Frame height in pixels.
    pub height: u16,
    /// Sensor wire time of the window, in nanoseconds.
    pub wire_ns: u64,
    /// Secure CPU time charged for the window, in nanoseconds.
    pub cpu_ns: u64,
}

/// Decodes a batch frame-capture reply produced by
/// [`encode_frame_windows_reply`].
///
/// # Errors
///
/// Returns [`TeeError::Communication`] for truncated buffers.
pub fn decode_frame_windows_reply(data: &[u8]) -> TeeResult<Vec<FrameWindowReply>> {
    const HEADER: usize = 4 + 4 + 2 + 2 + 8 + 8;
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        if data.len() < offset + HEADER {
            return Err(TeeError::Communication {
                reason: "frame batch reply header truncated".to_owned(),
            });
        }
        let len =
            u32::from_le_bytes(data[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let frames =
            u32::from_le_bytes(data[offset + 4..offset + 8].try_into().expect("4 bytes")) as usize;
        let width = u16::from_le_bytes(data[offset + 8..offset + 10].try_into().expect("2 bytes"));
        let height =
            u16::from_le_bytes(data[offset + 10..offset + 12].try_into().expect("2 bytes"));
        let wire_ns =
            u64::from_le_bytes(data[offset + 12..offset + 20].try_into().expect("8 bytes"));
        let cpu_ns =
            u64::from_le_bytes(data[offset + 20..offset + 28].try_into().expect("8 bytes"));
        offset += HEADER;
        if data.len() < offset + len {
            return Err(TeeError::Communication {
                reason: "frame batch reply pixels truncated".to_owned(),
            });
        }
        out.push(FrameWindowReply {
            pixels: data[offset..offset + len].to_vec(),
            frames,
            width,
            height,
            wire_ns,
            cpu_ns,
        });
        offset += len;
    }
    Ok(out)
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
                let windows = decode_frames_request(params.get(0).as_memref().ok_or(
                    TeeError::BadParameters {
                        reason: "capture-frame-batch expects a memref parameter".to_owned(),
                    },
                )?)?;
                let (captures, total) = self.driver.capture_windows(&windows)?;
                params.set(
                    1,
                    TeeParam::MemRefOutput(encode_frame_windows_reply(
                        &captures,
                        self.driver.width() as u16,
                        self.driver.height() as u16,
                    )),
                );
                params.set(
                    2,
                    TeeParam::ValueOutput {
                        a: total.wire_time.as_nanos(),
                        b: total.cpu_time.as_nanos(),
                    },
                );
                Ok(())
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
    use perisec_devices::camera::{CameraSensor, FixedScene, SceneKind};
    use perisec_optee::{Supplicant, TaUuid, TeeCore};
    use perisec_tz::platform::Platform;
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

        let windows = [2usize, 1];
        let mut p =
            TeeParams::new().with(0, TeeParam::MemRefInput(encode_frames_request(&windows)));
        core.invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .unwrap();
        let replies = decode_frame_windows_reply(p.get(1).as_memref().unwrap()).unwrap();
        assert_eq!(replies.len(), 2);
        for (reply, frames) in replies.iter().zip(windows) {
            assert_eq!(reply.frames, frames);
            assert_eq!(reply.width, 64);
            assert_eq!(reply.height, 48);
            assert_eq!(reply.pixels.len(), frames * 64 * 48);
            assert!(reply.wire_ns > 0);
            assert!(reply.cpu_ns > 0);
        }
        let (wire_total, _) = p.get(2).as_values().unwrap();
        assert_eq!(wire_total, replies.iter().map(|r| r.wire_ns).sum::<u64>());

        let mut p = TeeParams::new();
        core.invoke_pta(uuid, cmd::STATS, &mut p).unwrap();
        assert_eq!(p.get(0).as_values().unwrap().0, 3);
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
        let mut p =
            TeeParams::new().with(0, TeeParam::MemRefInput(encode_frames_request(&[1usize])));
        assert!(core
            .invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .is_err());
    }

    #[test]
    fn frame_batch_framing_round_trips_and_rejects_garbage() {
        let windows = vec![1usize, 4, 9];
        assert_eq!(
            decode_frames_request(&encode_frames_request(&windows)).unwrap(),
            windows
        );
        assert!(decode_frames_request(&[]).is_err());
        assert!(decode_frames_request(&[1, 2, 3]).is_err());
        assert!(decode_frame_windows_reply(&[0u8; 11]).is_err());
        // Header promising more pixels than present is rejected.
        let mut bogus = vec![0u8; 28];
        bogus[0] = 200;
        assert!(decode_frame_windows_reply(&bogus).is_err());
    }
}
