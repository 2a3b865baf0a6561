//! The capture-only I2S driver running inside OP-TEE.
//!
//! Functionally this mirrors the baseline driver's capture path, but every
//! cost lands in the *secure* world: interrupts arrive as secure (FIQ)
//! interrupts, the period bookkeeping and the encode step are secure CPU
//! time (with the secure compute penalty), and the I/O buffers live in the
//! TrustZone carve-out, so the untrusted OS cannot observe the raw audio.
//!
//! A window is captured in runs of up to `RUN_PERIODS` (16) periods. The
//! microphone reads a run with one fill of its signal source straight
//! into a sample buffer the driver reuses, which therefore holds a fixed
//! number of periods, never a whole window. The driver then DMAs each
//! period of the run into the secure I/O buffer and encodes the run onto
//! the end of the caller's output in one pass. Every per-period cost is
//! the one a period-by-period loop adds: each period's wire time (the sum
//! of its FIFO chunks'), DMA bus time, encode compute, interrupt and
//! bookkeeping. A window's costs are summed over its periods and charged
//! after the last one, once per cost term. The clock and the energy meter
//! add integer nanoseconds, so this charges exactly what one charge per
//! period would; nothing reads either of them between the periods of a
//! window. The unit tests keep the period-by-period loop over the
//! per-chunk FIFO copies as the oracle.

use perisec_devices::audio::AudioFormat;
use perisec_devices::codec::AudioEncoding;
use perisec_devices::dma::DmaChannel;
use perisec_devices::mic::Microphone;
use perisec_optee::{TeeError, TeeResult};
use perisec_tz::platform::Platform;
use perisec_tz::power::Component;
use perisec_tz::secure_mem::SecureBuf;
use perisec_tz::time::SimDuration;
use perisec_tz::world::World;

use serde::{Deserialize, Serialize};

/// The kernel-driver functions whose functionality was ported into this
/// secure driver — i.e. the minimal "record a sound" set identified by the
/// paper's tracing methodology (plan item 2). Everything else in the full
/// driver catalog stays in the normal world or is compiled out.
pub const PORTED_FUNCTIONS: &[&str] = &[
    // core init
    "tegra210_i2s_probe",
    "tegra210_i2s_init_regmap",
    "tegra210_i2s_clk_get",
    "tegra210_i2s_clk_enable",
    "tegra210_i2s_clk_disable",
    "tegra210_i2s_reset_control",
    // capture path
    "tegra210_i2s_startup_capture",
    "tegra210_i2s_hw_params",
    "tegra210_i2s_set_fmt",
    "tegra210_i2s_set_clock_rate",
    "tegra210_i2s_set_timing",
    "tegra210_i2s_rx_fifo_enable",
    "tegra210_i2s_rx_fifo_disable",
    "tegra210_i2s_trigger_start_capture",
    "tegra210_i2s_trigger_stop_capture",
    "tegra210_i2s_rx_irq_handler",
    "tegra210_i2s_read_fifo",
    "tegra210_i2s_capture_pointer",
    "tegra210_i2s_sample_convert",
    // audio-hub routing and machine-driver fixups used while configuring
    // the capture path
    "tegra210_ahub_route_setup",
    "tegra210_xbar_connect",
    "tegra_machine_hw_params_fixup",
    // dma glue
    "tegra210_admaif_hw_params",
    "tegra210_admaif_trigger",
    "tegra210_admaif_pcm_pointer",
    "tegra_adma_alloc_chan",
    "tegra_adma_prep_cyclic",
    "tegra_adma_issue_pending",
    "tegra_adma_terminate_all",
    "tegra_adma_irq_handler",
    "tegra_adma_period_complete",
];

/// Fixed secure-world CPU cost of the per-period bookkeeping.
const PER_PERIOD_DRIVER_OVERHEAD: SimDuration = SimDuration::from_micros(5);

/// Periods the driver reads from the microphone at once: its sample
/// buffer holds at most this many.
const RUN_PERIODS: usize = 16;

/// Lifecycle state of the secure driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SecureDriverState {
    /// Created, not configured.
    Idle,
    /// Configured: secure I/O buffers allocated, format fixed.
    Configured,
    /// Capturing.
    Running,
}

impl std::fmt::Display for SecureDriverState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SecureDriverState::Idle => "idle",
            SecureDriverState::Configured => "configured",
            SecureDriverState::Running => "running",
        };
        write!(f, "{s}")
    }
}

/// Accounting for one secure capture call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SecureCaptureReport {
    /// Time the audio occupied on the I2S wire.
    pub wire_time: SimDuration,
    /// Secure-world CPU time charged for moving, bookkeeping and encoding.
    pub cpu_time: SimDuration,
    /// Periods processed.
    pub periods: usize,
    /// Bytes produced after encoding.
    pub encoded_bytes: usize,
    /// Secure interrupts taken.
    pub secure_irqs: u64,
}

/// Cumulative statistics of the secure driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SecureDriverStats {
    /// Total frames captured.
    pub frames_captured: u64,
    /// Total periods processed.
    pub periods: u64,
    /// Total secure interrupts taken.
    pub secure_irqs: u64,
    /// Total encoded bytes handed to the PTA interface.
    pub bytes_delivered: u64,
}

/// A window's costs, summed over its completed periods until
/// [`SecureI2sDriver::charge_window`] charges them.
#[derive(Debug, Clone, Copy, Default)]
struct WindowTally {
    periods: u64,
    samples: u64,
    wire_time: SimDuration,
    dma_time: SimDuration,
    encode_time: SimDuration,
}

/// The secure, capture-only I2S driver.
pub struct SecureI2sDriver {
    platform: Platform,
    mic: Microphone,
    dma: DmaChannel,
    state: SecureDriverState,
    period_frames: usize,
    encoding: AudioEncoding,
    io_buffer: Option<SecureBuf>,
    /// A run of up to `RUN_PERIODS` periods' samples, reused across runs.
    samples: Vec<i16>,
    stats: SecureDriverStats,
}

impl std::fmt::Debug for SecureI2sDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureI2sDriver")
            .field("state", &self.state)
            .field("period_frames", &self.period_frames)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SecureI2sDriver {
    /// Creates the secure driver for `mic` on `platform`.
    pub fn new(platform: Platform, mic: Microphone) -> Self {
        SecureI2sDriver {
            platform,
            mic,
            dma: DmaChannel::default(),
            state: SecureDriverState::Idle,
            period_frames: 160,
            encoding: AudioEncoding::PcmLe16,
            io_buffer: None,
            samples: Vec::new(),
            stats: SecureDriverStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> SecureDriverState {
        self.state
    }

    /// Capture format of the underlying microphone.
    pub fn format(&self) -> AudioFormat {
        self.mic.format()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SecureDriverStats {
        self.stats
    }

    /// Encoding applied before data leaves the driver.
    pub fn encoding(&self) -> AudioEncoding {
        self.encoding
    }

    /// Encoded bytes one period produces.
    pub(crate) fn period_encoded_bytes(&self) -> usize {
        self.period_frames * self.format().channels as usize * self.encoding.bytes_per_sample()
    }

    /// Access to the microphone (used by scenario runners to swap the
    /// signal source between utterances).
    pub fn mic_mut(&mut self) -> &mut Microphone {
        &mut self.mic
    }

    /// Simulated physical address of the secure I/O buffer, if configured.
    /// Useful in tests that verify the buffer really lies in the TrustZone
    /// carve-out.
    pub fn io_buffer_addr(&self) -> Option<u64> {
        self.io_buffer.as_ref().map(|b| b.addr())
    }

    /// Configures capture: fixes the period size and encoding and allocates
    /// the secure I/O buffers (double-buffered periods) from the carve-out.
    ///
    /// # Errors
    ///
    /// * [`TeeError::BadParameters`] for a zero period.
    /// * [`TeeError::OutOfMemory`] if the secure carve-out cannot hold the
    ///   I/O buffers.
    pub fn configure(&mut self, period_frames: usize, encoding: AudioEncoding) -> TeeResult<()> {
        if period_frames == 0 {
            return Err(TeeError::BadParameters {
                reason: "period must be at least one frame".to_owned(),
            });
        }
        if self.state == SecureDriverState::Running {
            return Err(TeeError::BadParameters {
                reason: "cannot reconfigure a running capture stream".to_owned(),
            });
        }
        let period_bytes = period_frames * self.format().bytes_per_frame();
        let io = self
            .platform
            .secure_ram()
            .alloc(period_bytes * 2)
            .map_err(TeeError::from)?;
        // Charge the secure page allocations for the buffer.
        let pages = io.len().div_ceil(4096);
        self.platform.charge_cpu(
            World::Secure,
            self.platform.cost().secure_page_alloc * pages as u64,
        );
        self.platform
            .charge_cpu(World::Secure, SimDuration::from_micros(40));
        self.io_buffer = Some(io);
        self.period_frames = period_frames;
        self.encoding = encoding;
        self.mic.power_on();
        self.state = SecureDriverState::Configured;
        Ok(())
    }

    /// Starts the capture stream.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadParameters`] unless the driver is configured.
    pub fn start(&mut self) -> TeeResult<()> {
        if self.state == SecureDriverState::Idle {
            return Err(TeeError::BadParameters {
                reason: "driver is not configured".to_owned(),
            });
        }
        self.platform
            .charge_cpu(World::Secure, SimDuration::from_micros(20));
        self.mic.start_capture().map_err(|e| TeeError::Generic {
            reason: e.to_string(),
        })?;
        self.state = SecureDriverState::Running;
        Ok(())
    }

    /// Stops the capture stream (back to configured).
    pub fn stop(&mut self) {
        if self.state == SecureDriverState::Running {
            self.platform
                .charge_cpu(World::Secure, SimDuration::from_micros(15));
            self.mic.stop_capture();
            self.state = SecureDriverState::Configured;
        }
    }

    /// Captures `periods` periods, encodes them, and returns the encoded
    /// bytes plus the capture accounting.
    ///
    /// # Errors
    ///
    /// Same as [`SecureI2sDriver::capture_window_into`].
    pub fn capture_periods(&mut self, periods: usize) -> TeeResult<(Vec<u8>, SecureCaptureReport)> {
        let mut encoded = Vec::new();
        let report = self.capture_window_into(periods, &mut encoded)?;
        Ok((encoded, report))
    }

    /// Captures one window of `periods` periods and appends its encoded
    /// audio to `out`, returning the window's accounting. This is the
    /// loop behind the PTA's `CAPTURE_BATCH`, once per window.
    ///
    /// The window is captured in runs of up to 16 periods: one microphone
    /// read of the run into the driver's sample buffer, one DMA transfer
    /// per period into the secure I/O buffer and one encode of the run
    /// onto `out`. The window's costs are charged after its last period:
    /// the wire and DMA busy time once per component, each secure CPU
    /// term once at its sum over the periods, and the periods' secure
    /// interrupts in one count. `cpu_time` is the clock time that elapses
    /// across the window.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadParameters`] if the stream is not running,
    /// or a wrapped device error. A device error part-way through a window
    /// still charges the periods completed before it; `out` is left as it
    /// was, and the cumulative statistics do not count the window.
    pub fn capture_window_into(
        &mut self,
        periods: usize,
        out: &mut Vec<u8>,
    ) -> TeeResult<SecureCaptureReport> {
        if self.state != SecureDriverState::Running {
            return Err(TeeError::BadParameters {
                reason: format!("capture requested while driver is {}", self.state),
            });
        }
        let start = out.len();
        let cpu_before = self.platform.clock().now();
        let mut tally = WindowTally::default();
        let mut outcome = Ok(());
        let mut left = periods;
        while left > 0 {
            let run = left.min(RUN_PERIODS);
            if let Err(e) = self.capture_run(run, out, &mut tally) {
                outcome = Err(e);
                break;
            }
            left -= run;
        }
        self.charge_window(&tally);
        if let Err(e) = outcome {
            out.truncate(start);
            return Err(e);
        }
        let report = SecureCaptureReport {
            wire_time: tally.wire_time,
            cpu_time: self.platform.clock().elapsed_since(cpu_before),
            periods,
            encoded_bytes: out.len() - start,
            secure_irqs: tally.periods,
        };
        self.stats.frames_captured += tally.samples / u64::from(self.format().channels);
        self.stats.periods += periods as u64;
        self.stats.secure_irqs += report.secure_irqs;
        self.stats.bytes_delivered += report.encoded_bytes as u64;
        Ok(report)
    }

    /// `run` periods: one microphone read into the sample buffer, a DMA
    /// transfer of each period into the secure I/O buffer, and one encode
    /// of the run onto `out`. Adds the periods' costs to `tally` without
    /// charging them.
    fn capture_run(
        &mut self,
        run: usize,
        out: &mut Vec<u8>,
        tally: &mut WindowTally,
    ) -> TeeResult<()> {
        let period_samples = self.period_frames * self.format().channels as usize;
        let run_samples = run * period_samples;
        if self.samples.len() < run_samples {
            self.samples.resize(run_samples, 0);
        }
        let samples = &mut self.samples[..run_samples];

        // 1. The run arrives over the wire.
        tally.wire_time += self
            .mic
            .capture_periods_into(run, self.period_frames, samples)
            .map_err(device_error)?;

        // 2. DMA moves each period into the secure I/O buffer. The driver
        //    "securely processes (e.g., encoding an audio signal)" each
        //    period: charged as secure compute over the period's samples,
        //    converted to time per period because the conversion rounds.
        let io = self
            .io_buffer
            .as_mut()
            .expect("configured driver has io buffer");
        let encode_flops = period_samples as u64;
        let encode_time = self.platform.cost().compute(encode_flops, true);
        for period in samples.chunks_exact(period_samples) {
            let transfer = self
                .dma
                .transfer(period, io.as_mut_slice())
                .map_err(device_error)?;
            tally.periods += 1;
            tally.samples += encode_flops;
            tally.dma_time += transfer.bus_time;
            tally.encode_time += encode_time;
        }

        // 3. The run is encoded in one pass.
        self.encoding.encode_into(samples, out);
        Ok(())
    }

    /// Charges a window's periods: device busy time, the secure (FIQ)
    /// period interrupts with their bookkeeping, and the encode compute.
    fn charge_window(&self, tally: &WindowTally) {
        let platform = &self.platform;
        platform.record_device_busy(Component::Microphone, tally.wire_time);
        platform.record_device_busy(Component::I2sController, tally.wire_time);
        platform.record_device_busy(Component::DmaEngine, tally.dma_time);
        platform.stats().record_secure_irqs(tally.periods);
        platform.charge_cpu(
            World::Secure,
            platform.cost().secure_irq_entry * tally.periods,
        );
        platform.charge_cpu(World::Secure, PER_PERIOD_DRIVER_OVERHEAD * tally.periods);
        platform.charge_cpu(World::Secure, tally.encode_time);
    }

    /// Releases the secure I/O buffers and powers the microphone down.
    pub fn shutdown(&mut self) {
        self.stop();
        self.io_buffer = None;
        self.mic.power_off();
        self.state = SecureDriverState::Idle;
    }
}

fn device_error(e: perisec_devices::DeviceError) -> TeeError {
    TeeError::Generic {
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perisec_devices::i2s::{I2sBus, I2sConfig};
    use perisec_devices::mic::MicStats;
    use perisec_devices::signal::{PlaybackSource, SignalSource, SineSource};
    use perisec_tz::world::World;
    use proptest::prelude::*;

    /// The microphone's per-chunk copy loop through the FIFO, kept as the
    /// oracle of its direct read: a bus of its own, fed the same signal,
    /// with the statistics that loop kept.
    struct ChunkLoopMic {
        bus: I2sBus,
        stats: MicStats,
    }

    impl ChunkLoopMic {
        fn new(config: I2sConfig, source: Box<dyn SignalSource>) -> Self {
            let mut bus = I2sBus::new(config, source).unwrap();
            bus.controller().enable();
            ChunkLoopMic {
                bus,
                stats: MicStats::default(),
            }
        }

        fn capture_into(&mut self, frames: usize, out: &mut Vec<i16>) -> SimDuration {
            let channels = self.bus.config().format.channels as usize;
            let chunk_frames = (self.bus.config().fifo_depth / channels).max(1);
            out.reserve(frames * channels);
            let mut elapsed = SimDuration::ZERO;
            let mut remaining = frames;
            while remaining > 0 {
                let n = remaining.min(chunk_frames);
                elapsed += self.bus.transfer_frames(n);
                self.bus.controller().drain_into(out, n * channels);
                remaining -= n;
            }
            self.stats.frames_captured += frames as u64;
            self.stats.chunks += 1;
            self.stats.overrun_samples = self.bus.controller_ref().overrun_samples();
            elapsed
        }
    }

    impl SecureI2sDriver {
        /// The period-by-period window loop the runs replaced, kept as
        /// their oracle, with every period captured through `mic`'s chunk
        /// loop rather than the driver's own microphone.
        fn capture_window_ref(
            &mut self,
            mic: &mut ChunkLoopMic,
            periods: usize,
            out: &mut Vec<u8>,
        ) -> SecureCaptureReport {
            assert_eq!(self.state, SecureDriverState::Running);
            let start = out.len();
            let cpu_before = self.platform.clock().now();
            let mut tally = WindowTally::default();
            for _ in 0..periods {
                self.capture_period(mic, out, &mut tally);
            }
            self.charge_window(&tally);
            let report = SecureCaptureReport {
                wire_time: tally.wire_time,
                cpu_time: self.platform.clock().elapsed_since(cpu_before),
                periods,
                encoded_bytes: out.len() - start,
                secure_irqs: tally.periods,
            };
            self.stats.frames_captured += tally.samples / u64::from(self.format().channels);
            self.stats.periods += periods as u64;
            self.stats.secure_irqs += report.secure_irqs;
            self.stats.bytes_delivered += report.encoded_bytes as u64;
            report
        }

        /// One period: capture, DMA into the secure I/O buffer, encode
        /// onto `out`. Adds the period's costs to `tally`.
        fn capture_period(
            &mut self,
            mic: &mut ChunkLoopMic,
            out: &mut Vec<u8>,
            tally: &mut WindowTally,
        ) {
            self.samples.clear();
            let wire = mic.capture_into(self.period_frames, &mut self.samples);
            let io = self.io_buffer.as_mut().unwrap();
            let transfer = self.dma.transfer(&self.samples, io.as_mut_slice()).unwrap();
            self.encoding.encode_into(&self.samples, out);
            let encode_flops = self.samples.len() as u64;
            tally.periods += 1;
            tally.samples += encode_flops;
            tally.wire_time += wire;
            tally.dma_time += transfer.bus_time;
            tally.encode_time += self.platform.cost().compute(encode_flops, true);
        }
    }

    /// A configured, running driver on a fresh platform, and the platform.
    fn running_driver(
        platform: fn() -> Platform,
        config: I2sConfig,
        source: Box<dyn SignalSource>,
        period_frames: usize,
        encoding: AudioEncoding,
    ) -> (SecureI2sDriver, Platform) {
        let platform = platform();
        let mic = Microphone::new("mic", config, source).unwrap();
        let mut driver = SecureI2sDriver::new(platform.clone(), mic);
        driver.configure(period_frames, encoding).unwrap();
        driver.start().unwrap();
        (driver, platform)
    }

    /// Captures `windows` with the run capture and with the oracle, on
    /// twin platforms fed the same clip, and checks after every window
    /// that everything either side can observe agrees.
    fn same_windows(
        platform: fn() -> Platform,
        config: I2sConfig,
        period_frames: usize,
        encoding: AudioEncoding,
        windows: &[usize],
        clip: &[i16],
    ) -> std::result::Result<(), String> {
        let playback = || Box::new(PlaybackSource::new(clip.to_vec(), "clip"));
        let (mut runs, runs_platform) =
            running_driver(platform, config, playback(), period_frames, encoding);
        let (mut oracle, oracle_platform) = running_driver(
            platform,
            config,
            Box::new(SineSource::new(440.0, 16_000, 1.0)),
            period_frames,
            encoding,
        );
        let mut mic = ChunkLoopMic::new(config, playback());
        for (index, &periods) in windows.iter().enumerate() {
            let (mut got, mut want) = (vec![0xA5u8; 5], vec![0xA5u8; 5]);
            let report = runs.capture_window_into(periods, &mut got).unwrap();
            let oracle_report = oracle.capture_window_ref(&mut mic, periods, &mut want);
            prop_assert_eq!(&got, &want, "encoded bytes of window {}", index);
            prop_assert_eq!(report, oracle_report, "report of window {}", index);
            let io = |d: &SecureI2sDriver| d.io_buffer.as_ref().unwrap().as_slice().to_vec();
            prop_assert_eq!(io(&runs), io(&oracle), "samples in the I/O buffer");
            prop_assert_eq!(runs.mic.stats(), mic.stats);
            let (c, o) = (runs.mic.controller(), mic.bus.controller_ref());
            prop_assert_eq!(c.received_samples(), o.received_samples());
            prop_assert_eq!(c.overrun_samples(), o.overrun_samples());
            prop_assert_eq!(c.fifo_level(), o.fifo_level());
            prop_assert_eq!(runs.dma.transfer_count(), oracle.dma.transfer_count());
            prop_assert_eq!(runs.dma.bytes_moved(), oracle.dma.bytes_moved());
            prop_assert_eq!(runs.stats(), oracle.stats());
            prop_assert_eq!(
                runs_platform.stats().snapshot(),
                oracle_platform.stats().snapshot()
            );
            let (energy, oracle_energy) = (
                runs_platform.energy_report(),
                oracle_platform.energy_report(),
            );
            for (component, share) in &energy.per_component {
                prop_assert_eq!(
                    share.busy,
                    oracle_energy.per_component[component].busy,
                    "{:?} busy",
                    component
                );
            }
            prop_assert_eq!(energy.total_mj.to_bits(), oracle_energy.total_mj.to_bits());
            prop_assert_eq!(runs_platform.clock().now(), oracle_platform.clock().now());
            // The sample buffer holds one run at most, never the window.
            prop_assert!(runs.samples.len() <= RUN_PERIODS * period_frames * 2);
        }
        Ok(())
    }

    proptest! {
        /// The run capture against the period-by-period chunk loop: every
        /// FIFO from one frame to 128 samples, 16 kHz mono and 48 kHz
        /// stereo, periods of 1 to 400 frames and always of 161 (whose
        /// 48 kHz chunks and encode compute round), windows of 1 to 20
        /// periods (so one run, or a full run and a partial one), both
        /// encodings and both secure compute penalties, fed a clip that
        /// runs dry anywhere in the windows, mid-frame included.
        #[test]
        fn run_capture_matches_the_period_by_period_chunk_loop(
            stereo in any::<bool>(),
            depth_pick in 0usize..128,
            period_pick in 1usize..401,
            windows in proptest::collection::vec(1usize..21, 1..4),
            dry_at in 0.0f64..1.0,
            mulaw in any::<bool>(),
            constrained in any::<bool>(),
            seed in any::<u16>(),
        ) {
            let format = if stereo {
                AudioFormat::hifi_48khz_stereo()
            } else {
                AudioFormat::speech_16khz_mono()
            };
            let channels = format.channels as usize;
            let config = I2sConfig {
                format,
                fifo_depth: channels + depth_pick % (129 - channels),
                ..I2sConfig::microphone_default()
            };
            let encoding = if mulaw { AudioEncoding::MuLaw } else { AudioEncoding::PcmLe16 };
            let platform = if constrained {
                Platform::constrained_mcu
            } else {
                Platform::jetson_agx_xavier
            };
            for period_frames in [period_pick, 161] {
                let total = windows.iter().sum::<usize>() * period_frames * channels;
                let clip: Vec<i16> = (0..(total as f64 * dry_at) as usize)
                    .map(|i| (i as u16).wrapping_mul(40_503).wrapping_add(seed) as i16)
                    .collect();
                same_windows(platform, config, period_frames, encoding, &windows, &clip)?;
            }
        }
    }

    #[test]
    fn a_long_window_reuses_a_buffer_of_one_run() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_driver(&platform);
        d.configure(160, AudioEncoding::PcmLe16).unwrap();
        d.start().unwrap();
        let (encoded, report) = d.capture_periods(272).unwrap();
        assert_eq!(report.periods, 272);
        assert_eq!(encoded.len(), 272 * 160 * 2);
        assert_eq!(d.samples.len(), RUN_PERIODS * 160);
        assert_eq!(d.mic_mut().stats().chunks, 272);
        assert_eq!(d.dma.transfer_count(), 272);
    }

    fn secure_driver(platform: &Platform) -> SecureI2sDriver {
        let mic =
            Microphone::speech_mic("secure-mic", Box::new(SineSource::new(440.0, 16_000, 0.6)))
                .unwrap();
        SecureI2sDriver::new(platform.clone(), mic)
    }

    #[test]
    fn configure_allocates_io_buffers_in_the_carveout() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_driver(&platform);
        assert!(d.io_buffer_addr().is_none());
        d.configure(160, AudioEncoding::PcmLe16).unwrap();
        let addr = d.io_buffer_addr().unwrap();
        // The buffer must be inaccessible to the normal world.
        assert!(platform
            .check_access(addr, 64, World::Normal, false)
            .is_err());
        assert!(platform.check_access(addr, 64, World::Secure, true).is_ok());
        assert!(platform.secure_ram().bytes_in_use() >= 160 * 2 * 2);
    }

    #[test]
    fn capture_produces_encoded_audio_and_secure_costs() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_driver(&platform);
        d.configure(160, AudioEncoding::PcmLe16).unwrap();
        d.start().unwrap();
        let (encoded, report) = d.capture_periods(10).unwrap();
        assert_eq!(report.periods, 10);
        assert_eq!(report.wire_time, SimDuration::from_millis(100));
        assert_eq!(encoded.len(), 1600 * 2);
        assert_eq!(report.secure_irqs, 10);
        assert!(report.cpu_time > SimDuration::ZERO);
        assert_eq!(platform.stats().snapshot().secure_irqs, 10);
        // Secure CPU energy was attributed.
        assert!(
            platform
                .energy_report()
                .component_mj(Component::CpuSecureWorld)
                > 0.0
        );
    }

    #[test]
    fn mulaw_encoding_halves_the_delivered_bytes() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_driver(&platform);
        d.configure(160, AudioEncoding::MuLaw).unwrap();
        d.start().unwrap();
        let (encoded, _) = d.capture_periods(5).unwrap();
        assert_eq!(encoded.len(), 5 * 160);
    }

    #[test]
    fn capture_requires_configuration_and_start() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_driver(&platform);
        assert!(d.start().is_err());
        assert!(d.capture_periods(1).is_err());
        d.configure(160, AudioEncoding::PcmLe16).unwrap();
        assert!(d.capture_periods(1).is_err());
        d.start().unwrap();
        assert!(d.capture_periods(1).is_ok());
        assert!(d.configure(320, AudioEncoding::PcmLe16).is_err());
        d.stop();
        assert!(d.configure(320, AudioEncoding::PcmLe16).is_ok());
    }

    #[test]
    fn a_failed_capture_leaves_output_stats_and_clock_alone() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_driver(&platform);
        d.configure(160, AudioEncoding::PcmLe16).unwrap();
        d.start().unwrap();
        // The microphone stops under a running driver: the first period
        // fails, so the window charges and records nothing.
        d.mic_mut().stop_capture();
        let mut out = vec![7u8; 3];
        let before = platform.clock().now();
        assert!(d.capture_window_into(4, &mut out).is_err());
        assert_eq!(out, vec![7u8; 3]);
        assert_eq!(d.stats(), SecureDriverStats::default());
        assert_eq!(platform.clock().now(), before);
        assert_eq!(platform.stats().snapshot().secure_irqs, 0);
    }

    #[test]
    fn configure_fails_when_secure_ram_is_exhausted() {
        // A platform with a tiny carve-out cannot hold the I/O buffers.
        let platform = Platform::builder().secure_ram_kib(1).build();
        let mut d = secure_driver(&platform);
        let err = d.configure(16_000, AudioEncoding::PcmLe16).unwrap_err();
        assert!(matches!(err, TeeError::OutOfMemory { .. }));
        assert_eq!(d.state(), SecureDriverState::Idle);
    }

    #[test]
    fn shutdown_releases_secure_memory() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_driver(&platform);
        d.configure(160, AudioEncoding::PcmLe16).unwrap();
        let used = platform.secure_ram().bytes_in_use();
        assert!(used > 0);
        d.shutdown();
        assert!(platform.secure_ram().bytes_in_use() < used);
        assert_eq!(d.state(), SecureDriverState::Idle);
    }

    #[test]
    fn ported_functions_are_a_strict_subset_of_capture_needs() {
        // The ported set must not contain playback, mixer, USB or HDA
        // functionality.
        for f in PORTED_FUNCTIONS {
            assert!(!f.contains("playback"), "{f} should not be ported");
            assert!(!f.contains("tx_"), "{f} should not be ported");
            assert!(!f.contains("usb"), "{f} should not be ported");
            assert!(!f.contains("hda"), "{f} should not be ported");
            assert!(!f.contains("mixer"), "{f} should not be ported");
        }
        assert!(PORTED_FUNCTIONS.len() > 20);
    }

    #[test]
    fn cumulative_stats_accumulate() {
        let platform = Platform::jetson_agx_xavier();
        let mut d = secure_driver(&platform);
        d.configure(160, AudioEncoding::PcmLe16).unwrap();
        d.start().unwrap();
        d.capture_periods(3).unwrap();
        d.capture_periods(2).unwrap();
        let stats = d.stats();
        assert_eq!(stats.periods, 5);
        assert_eq!(stats.frames_captured, 5 * 160);
        assert_eq!(stats.secure_irqs, 5);
        assert_eq!(stats.bytes_delivered, 5 * 160 * 2);
    }
}
