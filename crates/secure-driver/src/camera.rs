//! The capture-only camera driver running inside OP-TEE.
//!
//! The paper names cameras alongside microphones as the peripherals whose
//! data leaks private information. This driver is the camera-modality
//! sibling of [`crate::driver::SecureI2sDriver`]: frame readout and the
//! period bookkeeping land in the *secure* world (FIQ-routed frame
//! interrupts, secure CPU time, I/O buffers in the TrustZone carve-out),
//! so the untrusted OS never observes raw pixels.
//!
//! What the camera sees is fed in through a [`SceneSource`] — the image
//! analogue of the playback queue feeding the secure microphone — so
//! scenario runners schedule scenes without the driver learning the
//! ground-truth labels.

use perisec_devices::camera::{CameraSensor, SceneSource};
use perisec_devices::dma::DmaChannel;
use perisec_optee::{TeeError, TeeResult};
use perisec_tz::platform::Platform;
use perisec_tz::power::Component;
use perisec_tz::secure_mem::SecureBuf;
use perisec_tz::time::SimDuration;
use perisec_tz::world::World;

use serde::{Deserialize, Serialize};

use crate::driver::SecureDriverState;

/// The kernel-driver functions whose functionality was ported into this
/// secure camera driver — the minimal "capture a frame" set of the Tegra
/// VI/CSI camera stack, mirroring [`crate::driver::PORTED_FUNCTIONS`] for
/// the audio path. ISP processing, format negotiation beyond raw
/// grayscale, and the media-controller plumbing stay in the normal world
/// or are compiled out.
pub const PORTED_CAMERA_FUNCTIONS: &[&str] = &[
    // core init
    "tegra_vi_probe",
    "tegra_vi_init_regmap",
    "tegra_vi_clk_get",
    "tegra_vi_clk_enable",
    "tegra_vi_clk_disable",
    "tegra_vi_reset_control",
    // capture path
    "tegra_channel_capture_setup",
    "tegra_channel_set_format",
    "tegra_channel_start_streaming",
    "tegra_channel_stop_streaming",
    "tegra_channel_capture_frame",
    "tegra_channel_frame_irq_handler",
    "tegra_channel_read_surface",
    "tegra_csi_start_streaming",
    "tegra_csi_stop_streaming",
    "tegra_csi_error_recover",
    // sensor control used while configuring the capture path
    "imx219_set_mode",
    "imx219_start_streaming",
    "imx219_stop_streaming",
    // dma glue
    "tegra_vi_syncpt_wait",
    "tegra_vi_buffer_queue",
    "tegra_vi_buffer_done",
];

/// Fixed secure-world CPU cost of the per-frame bookkeeping.
const PER_FRAME_DRIVER_OVERHEAD: SimDuration = SimDuration::from_micros(8);

/// Accounting for one secure frame-capture call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SecureFrameReport {
    /// Time the frames occupied on the sensor interface (exposure +
    /// readout, one frame interval per frame).
    pub wire_time: SimDuration,
    /// Secure-world CPU time charged for moving and bookkeeping.
    pub cpu_time: SimDuration,
    /// Frames captured.
    pub frames: usize,
    /// Pixel bytes produced.
    pub pixel_bytes: usize,
    /// Secure interrupts taken.
    pub secure_irqs: u64,
}

/// Cumulative statistics of the secure camera driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SecureCameraStats {
    /// Total frames captured.
    pub frames_captured: u64,
    /// Total secure interrupts taken.
    pub secure_irqs: u64,
    /// Total pixel bytes handed to the PTA interface.
    pub bytes_delivered: u64,
}

/// The secure, capture-only camera driver.
pub struct SecureCameraDriver {
    platform: Platform,
    sensor: CameraSensor,
    scenes: Box<dyn SceneSource>,
    dma: DmaChannel,
    state: SecureDriverState,
    io_buffer: Option<SecureBuf>,
    stats: SecureCameraStats,
}

impl std::fmt::Debug for SecureCameraDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureCameraDriver")
            .field("state", &self.state)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SecureCameraDriver {
    /// Creates the secure driver for `sensor` on `platform`, drawing
    /// scenes from `scenes`.
    pub fn new(platform: Platform, sensor: CameraSensor, scenes: Box<dyn SceneSource>) -> Self {
        SecureCameraDriver {
            platform,
            sensor,
            scenes,
            dma: DmaChannel::default(),
            state: SecureDriverState::Idle,
            io_buffer: None,
            stats: SecureCameraStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> SecureDriverState {
        self.state
    }

    /// Bytes of one grayscale frame.
    pub fn frame_bytes(&self) -> usize {
        self.sensor.width() as usize * self.sensor.height() as usize
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SecureCameraStats {
        self.stats
    }

    /// Simulated physical address of the secure I/O buffer, if configured.
    pub fn io_buffer_addr(&self) -> Option<u64> {
        self.io_buffer.as_ref().map(|b| b.addr())
    }

    /// Configures capture: allocates the secure frame buffers
    /// (double-buffered) from the TrustZone carve-out.
    ///
    /// # Errors
    ///
    /// * [`TeeError::BadParameters`] while the stream is running.
    /// * [`TeeError::OutOfMemory`] if the carve-out cannot hold the
    ///   frame buffers.
    pub fn configure(&mut self) -> TeeResult<()> {
        if self.state == SecureDriverState::Running {
            return Err(TeeError::BadParameters {
                reason: "cannot reconfigure a running camera stream".to_owned(),
            });
        }
        let io = self
            .platform
            .secure_ram()
            .alloc(self.frame_bytes() * 2)
            .map_err(TeeError::from)?;
        let pages = io.len().div_ceil(4096);
        self.platform.charge_cpu(
            World::Secure,
            self.platform.cost().secure_page_alloc * pages as u64,
        );
        self.platform
            .charge_cpu(World::Secure, SimDuration::from_micros(50));
        self.io_buffer = Some(io);
        self.state = SecureDriverState::Configured;
        Ok(())
    }

    /// Starts the frame stream.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadParameters`] unless the driver is configured.
    pub fn start(&mut self) -> TeeResult<()> {
        if self.state == SecureDriverState::Idle {
            return Err(TeeError::BadParameters {
                reason: "camera driver is not configured".to_owned(),
            });
        }
        self.platform
            .charge_cpu(World::Secure, SimDuration::from_micros(25));
        self.sensor.start();
        self.state = SecureDriverState::Running;
        Ok(())
    }

    /// Stops the frame stream (back to configured).
    pub fn stop(&mut self) {
        if self.state == SecureDriverState::Running {
            self.platform
                .charge_cpu(World::Secure, SimDuration::from_micros(15));
            self.sensor.stop();
            self.state = SecureDriverState::Configured;
        }
    }

    /// Captures one window of `frames` consecutive frames of whatever the
    /// scene source presents and appends their pixels to `out`, returning
    /// the window's accounting. This is the loop behind the camera PTA's
    /// batched capture, once per window.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadParameters`] if the stream is not running or
    /// `frames` is zero, or a wrapped device error. A device error
    /// part-way through a window keeps what was charged before it; `out`
    /// is left as it was, and the cumulative statistics do not count the
    /// window.
    pub fn capture_window_into(
        &mut self,
        frames: usize,
        out: &mut Vec<u8>,
    ) -> TeeResult<SecureFrameReport> {
        if self.state != SecureDriverState::Running {
            return Err(TeeError::BadParameters {
                reason: format!("frame capture requested while driver is {}", self.state),
            });
        }
        if frames == 0 {
            return Err(TeeError::BadParameters {
                reason: "frame capture needs at least one frame".to_owned(),
            });
        }
        let start = out.len();
        let mut report = SecureFrameReport {
            frames,
            ..SecureFrameReport::default()
        };
        let cpu_before = self.platform.clock().now();
        for _ in 0..frames {
            if let Err(e) = self.capture_frame_into(out, &mut report) {
                out.truncate(start);
                return Err(e);
            }
        }
        report.pixel_bytes = out.len() - start;
        report.cpu_time = self.platform.clock().elapsed_since(cpu_before);

        self.stats.frames_captured += frames as u64;
        self.stats.secure_irqs += report.secure_irqs;
        self.stats.bytes_delivered += report.pixel_bytes as u64;
        Ok(report)
    }

    /// One frame: sensor readout straight into the tail of `out`, DMA of
    /// those bytes into the secure frame buffer, and the frame-done
    /// interrupt and unpack, each charged as it happens. On error `out`
    /// may hold a partial frame; the window truncates it.
    fn capture_frame_into(
        &mut self,
        out: &mut Vec<u8>,
        report: &mut SecureFrameReport,
    ) -> TeeResult<()> {
        // 1. One frame arrives over the sensor interface.
        let start = out.len();
        out.resize(start + self.frame_bytes(), 0);
        let pixels = &mut out[start..];
        self.sensor
            .capture_from_into(self.scenes.as_mut(), pixels)
            .map_err(|e| TeeError::Generic {
                reason: e.to_string(),
            })?;
        let wire = self.sensor.frame_interval();
        report.wire_time += wire;
        self.platform.record_device_busy(Component::Camera, wire);

        // 2. DMA moves it into the secure frame buffer, two pixels per
        //    16-bit word.
        let io = self
            .io_buffer
            .as_mut()
            .expect("configured driver has io buffer");
        let transfer = self
            .dma
            .transfer_bytes(pixels, io.as_mut_slice())
            .map_err(|e| TeeError::Generic {
                reason: e.to_string(),
            })?;
        self.platform
            .record_device_busy(Component::DmaEngine, transfer.bus_time);

        // 3. Secure (FIQ-routed) frame-done interrupt plus bookkeeping.
        self.platform.stats().record_secure_irq();
        report.secure_irqs += 1;
        self.platform
            .charge_cpu(World::Secure, self.platform.cost().secure_irq_entry);
        self.platform
            .charge_cpu(World::Secure, PER_FRAME_DRIVER_OVERHEAD);

        // 4. The driver securely unpacks the surface into the TA-visible
        //    layout: charged as secure compute over the frame bytes.
        self.platform
            .charge_compute(World::Secure, pixels.len() as u64 / 4);
        Ok(())
    }

    /// Releases the secure frame buffers.
    pub fn shutdown(&mut self) {
        self.stop();
        self.io_buffer = None;
        self.state = SecureDriverState::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perisec_devices::camera::{FixedScene, SceneKind};

    fn secure_camera(platform: &Platform, scene: SceneKind) -> SecureCameraDriver {
        let sensor = CameraSensor::smart_home("secure-cam", 7).unwrap();
        SecureCameraDriver::new(platform.clone(), sensor, Box::new(FixedScene(scene)))
    }

    #[test]
    fn configure_allocates_frame_buffers_in_the_carveout() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_camera(&platform, SceneKind::EmptyRoom);
        assert!(d.io_buffer_addr().is_none());
        d.configure().unwrap();
        let addr = d.io_buffer_addr().unwrap();
        assert!(platform
            .check_access(addr, 64, World::Normal, false)
            .is_err());
        assert!(platform.check_access(addr, 64, World::Secure, true).is_ok());
        assert!(platform.secure_ram().bytes_in_use() >= 64 * 48 * 2);
    }

    #[test]
    fn capture_produces_pixels_and_secure_costs() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_camera(&platform, SceneKind::Person);
        d.configure().unwrap();
        d.start().unwrap();
        let mut pixels = vec![7u8; 5];
        let report = d.capture_window_into(3, &mut pixels).unwrap();
        assert_eq!(&pixels[..5], &[7u8; 5]);
        assert_eq!(pixels.len() - 5, 3 * 64 * 48);
        assert_eq!(report.pixel_bytes, 3 * 64 * 48);
        assert_eq!(report.frames, 3);
        assert_eq!(report.secure_irqs, 3);
        // 15 fps: three frames occupy three frame intervals of sensor time.
        assert_eq!(report.wire_time, SimDuration::from_secs_f64(1.0 / 15.0) * 3);
        assert!(report.cpu_time > SimDuration::ZERO);
        assert_eq!(platform.stats().snapshot().secure_irqs, 3);
        assert!(
            platform
                .energy_report()
                .component_mj(Component::CpuSecureWorld)
                > 0.0
        );
    }

    /// Presents `Person`, `Document`, `Pet`, `EmptyRoom` in turn.
    struct EveryScene(usize);

    impl SceneSource for EveryScene {
        fn next_scene(&mut self) -> SceneKind {
            let scene = [
                SceneKind::Person,
                SceneKind::Document,
                SceneKind::Pet,
                SceneKind::EmptyRoom,
            ][self.0 % 4];
            self.0 += 1;
            scene
        }
    }

    #[test]
    fn odd_sized_frames_keep_their_recorded_accounting() {
        // A 7x5 frame is 35 bytes, so each DMA moves a zero pad byte. Every
        // value below was recorded from the driver that packed each frame
        // into 16-bit words before its DMA.
        let platform = Platform::jetson_agx_xavier();
        let sensor = CameraSensor::new("odd-cam", 7, 5, 15, 11).unwrap();
        let mut d = SecureCameraDriver::new(platform.clone(), sensor, Box::new(EveryScene(0)));
        d.configure().unwrap();
        d.start().unwrap();
        let mut out = vec![9u8; 3];
        let report = d.capture_window_into(3, &mut out).unwrap();
        assert_eq!(
            report,
            SecureFrameReport {
                wire_time: SimDuration::from_nanos(200_000_001),
                cpu_time: SimDuration::from_nanos(28_533),
                frames: 3,
                pixel_bytes: 105,
                secure_irqs: 3,
            }
        );
        assert_eq!(
            d.stats(),
            SecureCameraStats {
                frames_captured: 3,
                secure_irqs: 3,
                bytes_delivered: 105,
            }
        );
        assert_eq!(platform.clock().now().as_nanos(), 106_533);
        let energy = platform.energy_report();
        assert_eq!(energy.window.as_nanos(), 106_533);
        assert_eq!(energy.total_mj.to_bits(), 0x3ff0_3068_dea1_f296);
        let busy_and_mj: Vec<(Component, u64, u64)> = energy
            .per_component
            .iter()
            .map(|(&c, e)| (c, e.busy.as_nanos(), e.energy_mj.to_bits()))
            .collect();
        assert_eq!(
            busy_and_mj,
            vec![
                (Component::CpuNormalWorld, 0, 0x3fa3_1739_01a9_4d6c),
                (Component::CpuSecureWorld, 106_533, 0x3fe1_0b97_7857_29b3),
                (Component::Dram, 0, 0x3fb0_5d0c_4a91_1dca),
                (Component::I2sController, 0, 0x3f41_7451_609a_ca71),
                (Component::Microphone, 0, 0x3f0b_ed4f_00f7_aa4f),
                (Component::Camera, 200_000_001, 0x3fb9_e8a8_cb65_c480),
                (Component::DmaEngine, 183, 0x3f2e_c1e2_0d25_d856),
                (Component::Network, 0, 0x3f83_a2db_8cae_23c0),
                (Component::Baseline, 0, 0x3fd1_0b97_7857_29b3),
            ]
        );
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for &b in &out {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!((out.len(), fnv), (108, 0xae5a_90fa_107e_de0b));
    }

    #[test]
    fn capture_requires_configuration_and_start() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_camera(&platform, SceneKind::EmptyRoom);
        let mut out = Vec::new();
        assert!(d.start().is_err());
        assert!(d.capture_window_into(1, &mut out).is_err());
        d.configure().unwrap();
        assert!(d.capture_window_into(1, &mut out).is_err());
        assert!(out.is_empty());
        d.start().unwrap();
        assert!(d.capture_window_into(1, &mut out).is_ok());
        assert!(d.capture_window_into(0, &mut out).is_err());
        assert_eq!(out.len(), 64 * 48);
        assert!(d.configure().is_err());
        d.stop();
        assert!(d.configure().is_ok());
    }

    #[test]
    fn shutdown_releases_secure_memory() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_camera(&platform, SceneKind::Pet);
        d.configure().unwrap();
        let used = platform.secure_ram().bytes_in_use();
        assert!(used > 0);
        d.shutdown();
        assert!(platform.secure_ram().bytes_in_use() < used);
        assert_eq!(d.state(), SecureDriverState::Idle);
    }

    #[test]
    fn ported_camera_functions_are_capture_only() {
        for f in PORTED_CAMERA_FUNCTIONS {
            assert!(!f.contains("isp"), "{f} should not be ported");
            assert!(!f.contains("media_controller"), "{f} should not be ported");
        }
        assert!(PORTED_CAMERA_FUNCTIONS.len() >= 20);
    }
}
