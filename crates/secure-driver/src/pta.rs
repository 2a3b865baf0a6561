//! The I2S pseudo trusted application.
//!
//! "OP-TEE provides a secure interface called a pseudo trusted application
//! (PTA) which is a secure module with OS-level privileges that could serve
//! as an intermediary between a TA (no OS-level privileges) and low-level
//! code like device driver software." (§II)
//!
//! [`I2sPta`] is that intermediary: it owns the [`SecureI2sDriver`] and
//! exposes configure / start / capture / stop / stats commands to userland
//! TAs (the filter TA in `perisec-core`) and, for management purposes, to
//! the normal-world client.

use perisec_devices::codec::AudioEncoding;
use perisec_optee::{PseudoTa, PtaEnv, TaDescriptor, TeeError, TeeParam, TeeParams, TeeResult};

use crate::driver::{SecureDriverState, SecureI2sDriver, WindowCapture};

/// Registered name of the I2S PTA (its UUID is derived from this).
pub const I2S_PTA_NAME: &str = "perisec.i2s-pta";

/// Command identifiers understood by the PTA.
pub mod cmd {
    /// Configure capture: value param `a` = period frames, `b` = encoding
    /// (0 = PCM, 1 = µ-law).
    pub const CONFIGURE: u32 = 0;
    /// Start the capture stream.
    pub const START: u32 = 1;
    /// Capture: value param `a` = number of periods; returns the encoded
    /// audio in an output memref and `(wire_ns, cpu_ns)` in a value output.
    pub const CAPTURE: u32 = 2;
    /// Stop the capture stream.
    pub const STOP: u32 = 3;
    /// Query cumulative statistics: returns `(frames, bytes)` and
    /// `(periods, secure_irqs)` in two value outputs.
    pub const STATS: u32 = 4;
    /// Release all resources.
    pub const SHUTDOWN: u32 = 5;
    /// Batched capture: param 0 is an input memref encoding the window
    /// lengths (see [`super::encode_windows_request`]); returns the
    /// per-window audio and accounting in an output memref (see
    /// [`super::decode_windows_reply`]) and the aggregate
    /// `(wire_ns, cpu_ns)` in a value output.
    pub const CAPTURE_BATCH: u32 = 6;
}

/// Encodes a batch-capture request: each window length in periods as a
/// little-endian `u32`.
pub fn encode_windows_request(windows: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(windows.len() * 4);
    for &w in windows {
        out.extend_from_slice(&(w as u32).to_le_bytes());
    }
    out
}

/// Decodes a batch-capture request produced by [`encode_windows_request`].
///
/// # Errors
///
/// Returns [`TeeError::BadParameters`] for a ragged buffer.
pub fn decode_windows_request(data: &[u8]) -> TeeResult<Vec<usize>> {
    if data.is_empty() || !data.len().is_multiple_of(4) {
        return Err(TeeError::BadParameters {
            reason: "window list must be a non-empty multiple of 4 bytes".to_owned(),
        });
    }
    Ok(data
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize)
        .collect())
}

/// Encodes a batch-capture reply: per window, a `u32` length, the
/// `(wire_ns, cpu_ns)` accounting as two `u64`s, then the encoded audio.
pub fn encode_windows_reply(captures: &[WindowCapture]) -> Vec<u8> {
    let mut out = Vec::new();
    for capture in captures {
        out.extend_from_slice(&(capture.encoded.len() as u32).to_le_bytes());
        out.extend_from_slice(&capture.report.wire_time.as_nanos().to_le_bytes());
        out.extend_from_slice(&capture.report.cpu_time.as_nanos().to_le_bytes());
        out.extend_from_slice(&capture.encoded);
    }
    out
}

/// One decoded window of a batch-capture reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowReply {
    /// Encoded audio of the window.
    pub encoded: Vec<u8>,
    /// Time the window's audio occupied the I2S wire, in nanoseconds.
    pub wire_ns: u64,
    /// Secure CPU time charged for the window, in nanoseconds.
    pub cpu_ns: u64,
}

/// Decodes a batch-capture reply produced by [`encode_windows_reply`].
///
/// # Errors
///
/// Returns [`TeeError::Communication`] for truncated buffers.
pub fn decode_windows_reply(data: &[u8]) -> TeeResult<Vec<WindowReply>> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        if data.len() < offset + 20 {
            return Err(TeeError::Communication {
                reason: "batch reply header truncated".to_owned(),
            });
        }
        let len =
            u32::from_le_bytes(data[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let wire_ns =
            u64::from_le_bytes(data[offset + 4..offset + 12].try_into().expect("8 bytes"));
        let cpu_ns =
            u64::from_le_bytes(data[offset + 12..offset + 20].try_into().expect("8 bytes"));
        offset += 20;
        if data.len() < offset + len {
            return Err(TeeError::Communication {
                reason: "batch reply audio truncated".to_owned(),
            });
        }
        out.push(WindowReply {
            encoded: data[offset..offset + len].to_vec(),
            wire_ns,
            cpu_ns,
        });
        offset += len;
    }
    Ok(out)
}

/// The pseudo trusted application owning the secure I2S driver.
pub struct I2sPta {
    driver: SecureI2sDriver,
}

impl std::fmt::Debug for I2sPta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("I2sPta")
            .field("driver", &self.driver)
            .finish()
    }
}

impl I2sPta {
    /// Wraps a secure driver in the PTA interface.
    pub fn new(driver: SecureI2sDriver) -> Self {
        I2sPta { driver }
    }

    /// Read access to the wrapped driver (for tests and reports).
    pub fn driver(&self) -> &SecureI2sDriver {
        &self.driver
    }

    /// Mutable access to the wrapped driver (scenario runners use this to
    /// swap the microphone's signal source).
    pub fn driver_mut(&mut self) -> &mut SecureI2sDriver {
        &mut self.driver
    }
}

impl PseudoTa for I2sPta {
    fn descriptor(&self) -> TaDescriptor {
        TaDescriptor::new(I2S_PTA_NAME, 16, 64)
    }

    fn invoke(&mut self, _env: &mut PtaEnv<'_>, cmd: u32, params: &mut TeeParams) -> TeeResult<()> {
        match cmd {
            cmd::CONFIGURE => {
                let (period_frames, encoding) =
                    params.get(0).as_values().ok_or(TeeError::BadParameters {
                        reason: "configure expects a value parameter".to_owned(),
                    })?;
                let encoding = match encoding {
                    0 => AudioEncoding::PcmLe16,
                    1 => AudioEncoding::MuLaw,
                    other => {
                        return Err(TeeError::BadParameters {
                            reason: format!("unknown encoding {other}"),
                        })
                    }
                };
                self.driver.configure(period_frames as usize, encoding)
            }
            cmd::START => self.driver.start(),
            cmd::CAPTURE => {
                let (periods, _) = params.get(0).as_values().ok_or(TeeError::BadParameters {
                    reason: "capture expects a value parameter".to_owned(),
                })?;
                let (encoded, report) = self.driver.capture_periods(periods as usize)?;
                params.set(1, TeeParam::MemRefOutput(encoded));
                params.set(
                    2,
                    TeeParam::ValueOutput {
                        a: report.wire_time.as_nanos(),
                        b: report.cpu_time.as_nanos(),
                    },
                );
                Ok(())
            }
            cmd::CAPTURE_BATCH => {
                let windows = decode_windows_request(params.get(0).as_memref().ok_or(
                    TeeError::BadParameters {
                        reason: "capture-batch expects a memref parameter".to_owned(),
                    },
                )?)?;
                let (captures, total) = self.driver.capture_windows(&windows)?;
                params.set(1, TeeParam::MemRefOutput(encode_windows_reply(&captures)));
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
                        a: stats.periods,
                        b: stats.secure_irqs,
                    },
                );
                Ok(())
            }
            cmd::SHUTDOWN => {
                self.driver.shutdown();
                Ok(())
            }
            other => Err(TeeError::ItemNotFound {
                what: format!("i2s pta command {other}"),
            }),
        }
    }
}

/// Convenience check used by callers that want to verify the PTA is usable
/// before streaming.
pub fn is_ready(state: SecureDriverState) -> bool {
    state == SecureDriverState::Running
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SecureI2sDriver;
    use perisec_devices::mic::Microphone;
    use perisec_devices::signal::SineSource;
    use perisec_optee::{Supplicant, TaUuid, TeeCore};
    use perisec_tz::platform::Platform;
    use std::sync::Arc;

    fn registered_pta() -> (Arc<TeeCore>, TaUuid) {
        let platform = Platform::jetson_agx_xavier();
        let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
        let mic =
            Microphone::speech_mic("mic", Box::new(SineSource::new(440.0, 16_000, 0.6))).unwrap();
        let pta = I2sPta::new(SecureI2sDriver::new(platform, mic));
        let uuid = core.register_pta(Box::new(pta)).unwrap();
        (core, uuid)
    }

    #[test]
    fn full_capture_flow_through_the_pta_interface() {
        let (core, uuid) = registered_pta();
        // Configure: 160-frame periods, PCM encoding.
        let mut p = TeeParams::new().with(0, TeeParam::ValueInput { a: 160, b: 0 });
        core.invoke_pta(uuid, cmd::CONFIGURE, &mut p).unwrap();
        core.invoke_pta(uuid, cmd::START, &mut TeeParams::new())
            .unwrap();

        let mut p = TeeParams::new().with(0, TeeParam::ValueInput { a: 5, b: 0 });
        core.invoke_pta(uuid, cmd::CAPTURE, &mut p).unwrap();
        let audio = p.get(1).as_memref().unwrap();
        assert_eq!(audio.len(), 5 * 160 * 2);
        let (wire_ns, cpu_ns) = p.get(2).as_values().unwrap();
        assert_eq!(wire_ns, 50_000_000);
        assert!(cpu_ns > 0);

        let mut p = TeeParams::new();
        core.invoke_pta(uuid, cmd::STATS, &mut p).unwrap();
        assert_eq!(p.get(0).as_values().unwrap().0, 5 * 160);
        core.invoke_pta(uuid, cmd::STOP, &mut TeeParams::new())
            .unwrap();
        core.invoke_pta(uuid, cmd::SHUTDOWN, &mut TeeParams::new())
            .unwrap();
    }

    #[test]
    fn bad_commands_and_parameters_are_rejected() {
        let (core, uuid) = registered_pta();
        assert!(core.invoke_pta(uuid, 99, &mut TeeParams::new()).is_err());
        // Configure without a value parameter.
        assert!(core
            .invoke_pta(uuid, cmd::CONFIGURE, &mut TeeParams::new())
            .is_err());
        // Unknown encoding.
        let mut p = TeeParams::new().with(0, TeeParam::ValueInput { a: 160, b: 9 });
        assert!(core.invoke_pta(uuid, cmd::CONFIGURE, &mut p).is_err());
        // Capture before start.
        let mut p = TeeParams::new().with(0, TeeParam::ValueInput { a: 1, b: 0 });
        assert!(core.invoke_pta(uuid, cmd::CAPTURE, &mut p).is_err());
    }

    #[test]
    fn batched_capture_returns_per_window_audio() {
        let (core, uuid) = registered_pta();
        let mut p = TeeParams::new().with(0, TeeParam::ValueInput { a: 160, b: 0 });
        core.invoke_pta(uuid, cmd::CONFIGURE, &mut p).unwrap();
        core.invoke_pta(uuid, cmd::START, &mut TeeParams::new())
            .unwrap();

        let windows = [3usize, 5, 2];
        let mut p =
            TeeParams::new().with(0, TeeParam::MemRefInput(encode_windows_request(&windows)));
        core.invoke_pta(uuid, cmd::CAPTURE_BATCH, &mut p).unwrap();
        let replies = decode_windows_reply(p.get(1).as_memref().unwrap()).unwrap();
        assert_eq!(replies.len(), 3);
        for (reply, periods) in replies.iter().zip(windows) {
            assert_eq!(reply.encoded.len(), periods * 160 * 2);
            // 10 ms per 160-frame period at 16 kHz.
            assert_eq!(reply.wire_ns, periods as u64 * 10_000_000);
            assert!(reply.cpu_ns > 0);
        }
        let (wire_total, cpu_total) = p.get(2).as_values().unwrap();
        assert_eq!(wire_total, 10 * 10_000_000);
        assert_eq!(cpu_total, replies.iter().map(|r| r.cpu_ns).sum::<u64>());

        // The batch shows up in cumulative stats as 10 periods.
        let mut p = TeeParams::new();
        core.invoke_pta(uuid, cmd::STATS, &mut p).unwrap();
        assert_eq!(p.get(1).as_values().unwrap().0, 10);
    }

    #[test]
    fn batch_framing_round_trips_and_rejects_garbage() {
        let windows = vec![1usize, 7, 42];
        assert_eq!(
            decode_windows_request(&encode_windows_request(&windows)).unwrap(),
            windows
        );
        assert!(decode_windows_request(&[]).is_err());
        assert!(decode_windows_request(&[1, 2, 3]).is_err());
        assert!(decode_windows_reply(&[0u8; 7]).is_err());
    }

    #[test]
    fn readiness_helper_tracks_state() {
        assert!(!is_ready(SecureDriverState::Idle));
        assert!(!is_ready(SecureDriverState::Configured));
        assert!(is_ready(SecureDriverState::Running));
    }
}
