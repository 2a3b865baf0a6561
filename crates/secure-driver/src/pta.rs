//! The I2S pseudo trusted application, and the batch-capture framing both
//! sensor PTAs serve.
//!
//! "OP-TEE provides a secure interface called a pseudo trusted application
//! (PTA) which is a secure module with OS-level privileges that could serve
//! as an intermediary between a TA (no OS-level privileges) and low-level
//! code like device driver software." (§II)
//!
//! [`I2sPta`] is that intermediary: it owns the [`SecureI2sDriver`] and
//! exposes configure / start / batched capture / stop / stats commands to
//! userland TAs (the filter TA in `perisec-core`). A normal-world client
//! may open a session on it too, but gets `STATS` only: every other
//! command is refused with [`TeeError::AccessDenied`] before the driver is
//! touched, so raw audio never crosses to the normal world.
//!
//! Both sensor PTAs answer a batched capture with the same code: the
//! request is a list of window lengths in the sensor's units (see
//! [`encode_windows_request`]), and the reply holds each window's bytes
//! after a 20-byte header (see [`decode_windows_reply`]). The whole reply
//! is reserved with checked arithmetic before the first capture, so a
//! window too long to hold is refused with [`TeeError::OutOfMemory`].

use perisec_devices::codec::AudioEncoding;
use perisec_optee::{PseudoTa, PtaEnv, TaDescriptor, TeeError, TeeParam, TeeParams, TeeResult};
use perisec_tz::time::SimDuration;
use perisec_tz::world::World;

use crate::driver::{SecureDriverState, SecureI2sDriver};

/// Registered name of the I2S PTA (its UUID is derived from this).
pub const I2S_PTA_NAME: &str = "perisec.i2s-pta";

/// Command identifiers understood by the PTA.
pub mod cmd {
    /// Configure capture: value param `a` = period frames, `b` = encoding
    /// (0 = PCM, 1 = µ-law).
    pub const CONFIGURE: u32 = 0;
    /// Start the capture stream.
    pub const START: u32 = 1;
    /// Stop the capture stream.
    pub const STOP: u32 = 3;
    /// Query cumulative statistics: returns `(frames, bytes)` and
    /// `(periods, secure_irqs)` in two value outputs. The only command
    /// served to a normal-world caller.
    pub const STATS: u32 = 4;
    /// Release all resources.
    pub const SHUTDOWN: u32 = 5;
    /// Batched capture: param 0 is an input memref encoding the window
    /// lengths in periods (see [`super::encode_windows_request`]); returns
    /// the per-window audio and accounting in an output memref (see
    /// [`super::decode_windows_reply`]) and the aggregate
    /// `(wire_ns, cpu_ns)` in a value output. The camera PTA's batched
    /// capture has the same id and framing.
    pub const CAPTURE_BATCH: u32 = 6;
}

/// Refuses every command but `stats` from a normal-world caller. The other
/// commands drive the sensor or return its data, which must stay in the
/// secure world.
pub(crate) fn admit(env: &PtaEnv<'_>, pta: &str, cmd: u32, stats: u32) -> TeeResult<()> {
    if env.caller() == World::Normal && cmd != stats {
        return Err(TeeError::AccessDenied {
            reason: format!("{pta} serves only STATS to the normal world, not command {cmd}"),
        });
    }
    Ok(())
}

/// Encodes a batch-capture request: each window length, in the sensor's
/// units (periods or frames), as a little-endian `u32`.
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
/// Returns [`TeeError::BadParameters`] for an empty or ragged buffer.
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

/// Bytes of a window's header in a batch-capture reply: a `u32` data
/// length, then `wire_ns` and `cpu_ns` as `u64`s, all little-endian. The
/// window's data follows its header.
const WINDOW_HEADER_BYTES: usize = 20;

/// A window's header in a batch-capture reply.
fn window_header(data_len: usize, wire_ns: u64, cpu_ns: u64) -> [u8; WINDOW_HEADER_BYTES] {
    let mut header = [0u8; WINDOW_HEADER_BYTES];
    header[..4].copy_from_slice(&(data_len as u32).to_le_bytes());
    header[4..12].copy_from_slice(&wire_ns.to_le_bytes());
    header[12..].copy_from_slice(&cpu_ns.to_le_bytes());
    header
}

/// One decoded window of a batch-capture reply, borrowed from the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowReply<'a> {
    /// The window's data: encoded audio, or frames of grayscale pixels.
    pub data: &'a [u8],
    /// Time the window occupied the sensor interface, in nanoseconds.
    pub wire_ns: u64,
    /// Secure CPU time charged for the window, in nanoseconds.
    pub cpu_ns: u64,
}

/// Decodes a batch-capture reply of either PTA into windows that borrow
/// their data from `data`. Per window the reply holds a `u32` data length,
/// `wire_ns` and `cpu_ns` as `u64`s, all little-endian, then the data.
///
/// # Errors
///
/// Returns [`TeeError::Communication`] for a truncated header or truncated
/// data.
pub fn decode_windows_reply(data: &[u8]) -> TeeResult<Vec<WindowReply<'_>>> {
    let mut out = Vec::new();
    let mut rest = data;
    while !rest.is_empty() {
        let (header, tail) = rest
            .split_first_chunk::<WINDOW_HEADER_BYTES>()
            .ok_or_else(|| TeeError::Communication {
                reason: "batch reply header truncated".to_owned(),
            })?;
        let (len, times) = header.split_at(4);
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        let (wire_ns, cpu_ns) = times.split_at(8);
        if tail.len() < len {
            return Err(TeeError::Communication {
                reason: "batch reply data truncated".to_owned(),
            });
        }
        let (window, tail) = tail.split_at(len);
        out.push(WindowReply {
            data: window,
            wire_ns: u64::from_le_bytes(wire_ns.try_into().expect("8 bytes")),
            cpu_ns: u64::from_le_bytes(cpu_ns.try_into().expect("8 bytes")),
        });
        rest = tail;
    }
    Ok(out)
}

/// Serves a batched capture: the capture command of both sensor PTAs.
///
/// Param 0 holds the window list (see [`decode_windows_request`]), each
/// window a length in units of `unit_bytes` bytes. The whole reply is
/// reserved before the first capture. The windows are captured in order:
/// `capture` appends one window's data to the reply, straight after the
/// window's header, and returns the window's `(wire, cpu)` times. Slot 1
/// gets the reply (see [`decode_windows_reply`]) and slot 2 the
/// `(wire_ns, cpu_ns)` summed over the batch, so the caller gets one
/// window per event while paying a single PTA dispatch for the batch.
///
/// # Errors
///
/// * [`TeeError::BadParameters`] for a missing memref, an empty or ragged
///   window list, a zero-length window or a reply size that overflows.
/// * [`TeeError::OutOfMemory`] when the reply cannot be reserved.
/// * The errors of `capture`.
pub(crate) fn serve_capture_batch(
    params: &mut TeeParams,
    unit_bytes: usize,
    mut capture: impl FnMut(usize, &mut Vec<u8>) -> TeeResult<(SimDuration, SimDuration)>,
) -> TeeResult<()> {
    let windows =
        decode_windows_request(params.get(0).as_memref().ok_or(TeeError::BadParameters {
            reason: "capture-batch expects a memref parameter".to_owned(),
        })?)?;
    if windows.contains(&0) {
        return Err(TeeError::BadParameters {
            reason: "capture windows must be at least one unit".to_owned(),
        });
    }
    let reply_bytes = windows
        .iter()
        .try_fold(0usize, |total, &units| {
            units
                .checked_mul(unit_bytes)?
                .checked_add(WINDOW_HEADER_BYTES)?
                .checked_add(total)
        })
        .ok_or_else(|| TeeError::BadParameters {
            reason: "capture batch reply would overflow".to_owned(),
        })?;
    let mut reply = Vec::new();
    reply
        .try_reserve_exact(reply_bytes)
        .map_err(|_| TeeError::OutOfMemory {
            requested: reply_bytes,
        })?;
    let (mut wire_total, mut cpu_total) = (SimDuration::ZERO, SimDuration::ZERO);
    for units in windows {
        let header = reply.len();
        reply.extend_from_slice(&[0; WINDOW_HEADER_BYTES]);
        let (wire, cpu) = capture(units, &mut reply)?;
        let data_len = reply.len() - header - WINDOW_HEADER_BYTES;
        reply[header..header + WINDOW_HEADER_BYTES].copy_from_slice(&window_header(
            data_len,
            wire.as_nanos(),
            cpu.as_nanos(),
        ));
        wire_total += wire;
        cpu_total += cpu;
    }
    params.set(1, TeeParam::MemRefOutput(reply));
    params.set(
        2,
        TeeParam::ValueOutput {
            a: wire_total.as_nanos(),
            b: cpu_total.as_nanos(),
        },
    );
    Ok(())
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

    fn invoke(&mut self, env: &mut PtaEnv<'_>, cmd: u32, params: &mut TeeParams) -> TeeResult<()> {
        admit(env, I2S_PTA_NAME, cmd, cmd::STATS)?;
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
            cmd::CAPTURE_BATCH => serve_capture_batch(
                params,
                self.driver.period_encoded_bytes(),
                |periods, out| {
                    let report = self.driver.capture_window_into(periods, out)?;
                    Ok((report.wire_time, report.cpu_time))
                },
            ),
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
    use proptest::prelude::*;
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

        // A one-window batch of 5 periods.
        let mut p = TeeParams::new().with(0, TeeParam::MemRefInput(encode_windows_request(&[5])));
        core.invoke_pta(uuid, cmd::CAPTURE_BATCH, &mut p).unwrap();
        let replies = decode_windows_reply(p.get(1).as_memref().unwrap()).unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].data.len(), 5 * 160 * 2);
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
        let mut p = TeeParams::new().with(0, TeeParam::MemRefInput(encode_windows_request(&[1])));
        assert!(core.invoke_pta(uuid, cmd::CAPTURE_BATCH, &mut p).is_err());
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
            assert_eq!(reply.data.len(), periods * 160 * 2);
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

    /// Frames decoded windows back into reply bytes.
    fn encode_windows_reply(windows: &[WindowReply<'_>]) -> Vec<u8> {
        let mut out = Vec::new();
        for w in windows {
            out.extend_from_slice(&window_header(w.data.len(), w.wire_ns, w.cpu_ns));
            out.extend_from_slice(w.data);
        }
        out
    }

    /// A running I2S or camera PTA on a booted core, and its batched
    /// capture command.
    fn running_ptas() -> Vec<(Arc<TeeCore>, TaUuid, u32)> {
        use crate::camera::SecureCameraDriver;
        use crate::camera_pta::{self, CameraPta};
        use perisec_devices::camera::{CameraSensor, FixedScene, SceneKind};

        let (i2s_core, i2s) = registered_pta();
        let mut p = TeeParams::new().with(0, TeeParam::ValueInput { a: 160, b: 0 });
        i2s_core.invoke_pta(i2s, cmd::CONFIGURE, &mut p).unwrap();

        let platform = Platform::jetson_agx_xavier();
        let camera_core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
        let sensor = CameraSensor::smart_home("cam", 9).unwrap();
        let driver =
            SecureCameraDriver::new(platform, sensor, Box::new(FixedScene(SceneKind::Pet)));
        let camera = camera_core
            .register_pta(Box::new(CameraPta::new(driver)))
            .unwrap();
        for camera_cmd in [camera_pta::cmd::CONFIGURE, camera_pta::cmd::START] {
            camera_core
                .invoke_pta(camera, camera_cmd, &mut TeeParams::new())
                .unwrap();
        }
        i2s_core
            .invoke_pta(i2s, cmd::START, &mut TeeParams::new())
            .unwrap();
        vec![
            (i2s_core, i2s, cmd::CAPTURE_BATCH),
            (camera_core, camera, camera_pta::cmd::CAPTURE_FRAME_BATCH),
        ]
    }

    /// A PTA's `STATS`, which has the same id on both PTAs.
    fn pta_stats(core: &TeeCore, uuid: TaUuid) -> [(u64, u64); 2] {
        let mut p = TeeParams::new();
        core.invoke_pta(uuid, cmd::STATS, &mut p).unwrap();
        [p.get(0).as_values().unwrap(), p.get(1).as_values().unwrap()]
    }

    #[test]
    fn both_ptas_refuse_bad_windows_before_capturing() {
        for (core, uuid, capture) in running_ptas() {
            let before = pta_stats(&core, uuid);
            // An empty list, a ragged list and a zero-length window are bad
            // parameters; a `u32::MAX`-unit window cannot be reserved.
            let cases = [
                (Vec::new(), false),
                (vec![1, 2, 3], false),
                (encode_windows_request(&[2, 0]), false),
                (encode_windows_request(&[1, u32::MAX as usize]), true),
            ];
            for (request, out_of_memory) in cases {
                let mut p = TeeParams::new().with(0, TeeParam::MemRefInput(request.clone()));
                let refused = core.invoke_pta(uuid, capture, &mut p).unwrap_err();
                assert_eq!(
                    matches!(refused, TeeError::OutOfMemory { .. }),
                    out_of_memory,
                    "{request:?}: {refused:?}"
                );
                assert_eq!(
                    matches!(refused, TeeError::BadParameters { .. }),
                    !out_of_memory,
                    "{request:?}: {refused:?}"
                );
                assert!(p.get(1).as_memref().is_none());
                assert_eq!(pta_stats(&core, uuid), before);
            }
            // The PTA still captures afterwards.
            let mut p =
                TeeParams::new().with(0, TeeParam::MemRefInput(encode_windows_request(&[1])));
            core.invoke_pta(uuid, capture, &mut p).unwrap();
            assert_ne!(pta_stats(&core, uuid), before);
        }
    }

    proptest! {
        #[test]
        fn request_decoding_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            match decode_windows_request(&bytes) {
                Ok(windows) => {
                    prop_assert!(!bytes.is_empty() && bytes.len() % 4 == 0);
                    prop_assert_eq!(encode_windows_request(&windows), bytes);
                }
                Err(e) => {
                    prop_assert!(bytes.is_empty() || bytes.len() % 4 != 0);
                    prop_assert!(matches!(e, TeeError::BadParameters { .. }), "{:?}", e);
                }
            }
        }

        #[test]
        fn reply_decoding_is_total(
            audio in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..6),
            times in proptest::collection::vec(any::<u64>(), 12..13),
            flip in any::<usize>(),
            garbage in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let windows: Vec<WindowReply<'_>> = audio
                .iter()
                .zip(times.chunks_exact(2))
                .map(|(data, t)| WindowReply { data, wire_ns: t[0], cpu_ns: t[1] })
                .collect();
            let reply = encode_windows_reply(&windows);
            prop_assert_eq!(decode_windows_reply(&reply).unwrap(), windows.clone());

            // Cutting the reply anywhere but a window boundary truncates a
            // header or a window's audio.
            let mut boundaries = vec![0];
            for w in &windows {
                boundaries.push(boundaries.last().unwrap() + WINDOW_HEADER_BYTES + w.data.len());
            }
            for cut in 0..reply.len() {
                let decoded = decode_windows_reply(&reply[..cut]);
                if boundaries.contains(&cut) {
                    prop_assert!(decoded.is_ok(), "cut at boundary {}", cut);
                } else {
                    prop_assert!(decoded.is_err(), "cut at {} of {} accepted", cut, reply.len());
                }
            }

            // Whatever a corrupted reply or random bytes decode to frames
            // back to the same bytes.
            let mut corrupted = reply;
            if !corrupted.is_empty() {
                let at = flip % corrupted.len();
                corrupted[at] ^= (flip >> 32) as u8 | 1;
            }
            for bytes in [&corrupted, &garbage] {
                if let Ok(decoded) = decode_windows_reply(bytes) {
                    prop_assert_eq!(&encode_windows_reply(&decoded), bytes);
                }
            }
        }
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
