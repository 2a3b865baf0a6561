//! Inter-IC Sound (I2S) bus and controller model.
//!
//! The paper chose I2S "because it is lightweight, contrary to more complex
//! protocols like USB" (§III). The model captures the properties the driver
//! depends on:
//!
//! * the bus carries fixed-size sample words framed by a word-select clock
//!   at the sample rate;
//! * the SoC-side controller receives words into a small hardware FIFO;
//! * if the CPU/DMA does not drain the FIFO fast enough, samples are
//!   dropped and an overrun is latched — the phenomenon that makes the
//!   secure-world driver's latency budget interesting.
//!
//! The FIFO models chunk timing and counters; a capture's samples no
//! longer pass through it. A consumer that drains the FIFO after every
//! FIFO-sized chunk (the microphone, see [`crate::mic`]) finds it empty
//! at each chunk boundary, so every chunk is accepted whole and nothing
//! overruns: the samples are the source's next ones, in order. The bus
//! therefore reads a whole capture with one [`SignalSource::fill`]
//! straight into the consumer's buffer and counts the samples as
//! received, and the wire time is the sum of the chunks' wire times,
//! each rounded on its own. [`I2sConfig::validate`] refuses a FIFO
//! shallower than one frame, the one shape in which a chunk would not
//! fit.
//!
//! The per-chunk model stays public, and the tests run it as the oracle
//! of the direct read: [`I2sBus::transfer_frames`] fills a chunk buffer
//! it reuses, the controller accepts the part that fits the FIFO's free
//! space in one copy and counts the rest as overruns, and
//! [`I2sController::drain_into`] appends the oldest samples to the
//! caller's buffer.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use perisec_tz::time::SimDuration;

use crate::audio::AudioFormat;
use crate::signal::SignalSource;
use crate::{DeviceError, Result};

/// Bus role of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum I2sRole {
    /// The controller drives the bit and word-select clocks.
    Master,
    /// The external device drives the clocks.
    Slave,
}

/// Static configuration of an I2S link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct I2sConfig {
    /// PCM format carried on the bus.
    pub format: AudioFormat,
    /// Role of the SoC-side controller.
    pub role: I2sRole,
    /// Capacity of the controller receive FIFO, in samples.
    pub fifo_depth: usize,
}

impl I2sConfig {
    /// Configuration used by the paper's microphone use case: 16 kHz mono
    /// capture, SoC as master, a 64-sample receive FIFO (typical of Tegra
    /// I2S blocks).
    pub fn microphone_default() -> Self {
        I2sConfig {
            format: AudioFormat::speech_16khz_mono(),
            role: I2sRole::Master,
            fifo_depth: 64,
        }
    }

    /// Bit-clock frequency implied by the format (word size × channels ×
    /// sample rate).
    pub fn bit_clock_hz(&self) -> u64 {
        self.format.bits_per_sample as u64
            * self.format.channels as u64
            * self.format.sample_rate_hz as u64
    }

    /// Wire time of `frames` frames carried in FIFO-sized chunks (as many
    /// frames as the FIFO holds): each chunk's duration, rounded to the
    /// nanosecond on its own, summed. This is what the
    /// [`I2sBus::transfer_frames`] calls of a consumer that drains the
    /// FIFO after every chunk add up to.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO cannot hold one frame, a configuration
    /// [`I2sConfig::validate`] refuses.
    pub(crate) fn transfer_time(&self, frames: usize) -> SimDuration {
        let chunk = self.fifo_depth / self.format.channels as usize;
        self.format.duration_of_frames(chunk) * (frames / chunk) as u64
            + self.format.duration_of_frames(frames % chunk)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnsupportedConfig`] for a FIFO that cannot
    /// hold one frame, zero sample rates, channel counts other than 1 or
    /// 2, or sample widths other than 16 bits (the only width the models
    /// produce).
    pub fn validate(&self) -> Result<()> {
        if self.format.sample_rate_hz == 0 {
            return Err(DeviceError::UnsupportedConfig {
                reason: "sample rate must be non-zero".to_owned(),
            });
        }
        if self.format.bits_per_sample != 16 {
            return Err(DeviceError::UnsupportedConfig {
                reason: format!(
                    "only 16-bit samples are supported, got {}",
                    self.format.bits_per_sample
                ),
            });
        }
        if self.format.channels == 0 || self.format.channels > 2 {
            return Err(DeviceError::UnsupportedConfig {
                reason: format!("i2s carries 1 or 2 channels, got {}", self.format.channels),
            });
        }
        // A shallower FIFO overruns on every frame: a chunk is at least
        // one frame.
        if self.fifo_depth < self.format.channels as usize {
            return Err(DeviceError::UnsupportedConfig {
                reason: format!(
                    "fifo depth must hold one frame ({} samples), got {}",
                    self.format.channels, self.fifo_depth
                ),
            });
        }
        Ok(())
    }
}

impl Default for I2sConfig {
    fn default() -> Self {
        I2sConfig::microphone_default()
    }
}

/// The SoC-side I2S controller: receive FIFO plus overrun accounting.
#[derive(Debug)]
pub struct I2sController {
    config: I2sConfig,
    fifo: VecDeque<i16>,
    overrun_samples: u64,
    received_samples: u64,
    enabled: bool,
}

impl I2sController {
    /// Creates a controller with the given configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`I2sConfig::validate`] failures.
    pub fn new(config: I2sConfig) -> Result<Self> {
        config.validate()?;
        Ok(I2sController {
            config,
            fifo: VecDeque::with_capacity(config.fifo_depth),
            overrun_samples: 0,
            received_samples: 0,
            enabled: false,
        })
    }

    /// The controller configuration.
    pub fn config(&self) -> I2sConfig {
        self.config
    }

    /// Enables reception.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Disables reception and clears the FIFO.
    pub fn disable(&mut self) {
        self.enabled = false;
        self.fifo.clear();
    }

    /// Whether reception is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Pushes samples arriving from the bus into the FIFO. The first
    /// samples up to the free space are accepted; the rest are dropped and
    /// counted as overruns. Returns the number of samples accepted.
    pub fn receive(&mut self, samples: &[i16]) -> usize {
        if !self.enabled {
            return 0;
        }
        let free = self.config.fifo_depth.saturating_sub(self.fifo.len());
        let accepted = free.min(samples.len());
        self.fifo.extend(&samples[..accepted]);
        self.overrun_samples += (samples.len() - accepted) as u64;
        self.received_samples += accepted as u64;
        accepted
    }

    /// Moves up to `max` samples from the FIFO (oldest first) onto the end
    /// of `out`, returning how many moved.
    pub fn drain_into(&mut self, out: &mut Vec<i16>, max: usize) -> usize {
        let n = max.min(self.fifo.len());
        let (front, back) = self.fifo.as_slices();
        let from_front = n.min(front.len());
        out.extend_from_slice(&front[..from_front]);
        out.extend_from_slice(&back[..n - from_front]);
        self.fifo.drain(..n);
        n
    }

    /// Number of samples currently waiting in the FIFO.
    pub fn fifo_level(&self) -> usize {
        self.fifo.len()
    }

    /// Samples dropped because the FIFO was full.
    pub fn overrun_samples(&self) -> u64 {
        self.overrun_samples
    }

    /// Samples successfully received since creation.
    pub fn received_samples(&self) -> u64 {
        self.received_samples
    }
}

/// An I2S link: an external device (signal source) wired to a controller.
///
/// [`I2sBus::transfer_frames`] models the passage of real time on the bus:
/// the attached device produces `frames` samples-per-channel, they are
/// shifted into the controller FIFO, and the call reports how long that
/// takes on the wire. The caller (the driver / DMA model) is responsible
/// for draining the FIFO between transfers; this is exactly where the
/// baseline and secure drivers differ in how much latency they can afford.
pub struct I2sBus {
    config: I2sConfig,
    source: Box<dyn SignalSource>,
    controller: I2sController,
    /// The samples of one transfer, reused across transfers.
    chunk: Vec<i16>,
}

impl std::fmt::Debug for I2sBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("I2sBus")
            .field("config", &self.config)
            .field("source", &self.source.describe())
            .field("controller_fifo", &self.controller.fifo_level())
            .finish()
    }
}

impl I2sBus {
    /// Wires `source` to a new controller with `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(config: I2sConfig, source: Box<dyn SignalSource>) -> Result<Self> {
        let controller = I2sController::new(config)?;
        Ok(I2sBus {
            config,
            source,
            controller,
            chunk: Vec::new(),
        })
    }

    /// The bus configuration.
    pub fn config(&self) -> I2sConfig {
        self.config
    }

    /// Access to the controller (e.g. for the driver to drain the FIFO).
    pub fn controller(&mut self) -> &mut I2sController {
        &mut self.controller
    }

    /// Read-only access to the controller.
    pub fn controller_ref(&self) -> &I2sController {
        &self.controller
    }

    /// Replaces the attached signal source, returning the previous one.
    pub fn set_source(&mut self, source: Box<dyn SignalSource>) -> Box<dyn SignalSource> {
        std::mem::replace(&mut self.source, source)
    }

    /// Reads the next `out.len()` samples from the source straight into
    /// `out` and counts them as received: the samples and counters of
    /// transferring them chunk by chunk to a consumer that drains each
    /// chunk as it lands (see the module docs). The caller keeps the
    /// FIFO empty and the controller enabled, and times the transfer
    /// with [`I2sConfig::transfer_time`].
    pub(crate) fn stream_into(&mut self, out: &mut [i16]) {
        debug_assert!(self.controller.is_enabled() && self.controller.fifo.is_empty());
        self.source.fill(out);
        self.controller.received_samples += out.len() as u64;
    }

    /// Transfers `frames` frames across the bus into the controller FIFO.
    ///
    /// Returns the wire time consumed. Samples that overflow the FIFO are
    /// dropped by the controller (see [`I2sController::receive`]).
    pub fn transfer_frames(&mut self, frames: usize) -> SimDuration {
        if frames == 0 || !self.controller.is_enabled() {
            return SimDuration::ZERO;
        }
        let samples = frames * self.config.format.channels as usize;
        if self.chunk.len() < samples {
            self.chunk.resize(samples, 0);
        }
        let chunk = &mut self.chunk[..samples];
        self.source.fill(chunk);
        self.controller.receive(chunk);
        self.config.format.duration_of_frames(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{SilenceSource, SineSource};
    use proptest::prelude::*;

    fn drain(ctrl: &mut I2sController, max: usize) -> Vec<i16> {
        let mut out = Vec::new();
        ctrl.drain_into(&mut out, max);
        out
    }

    /// The per-sample `receive` loop the slice path replaced, kept as the
    /// FIFO oracle.
    fn receive_ref(ctrl: &mut I2sController, samples: &[i16]) -> usize {
        if !ctrl.enabled {
            return 0;
        }
        let mut accepted = 0;
        for &s in samples {
            if ctrl.fifo.len() < ctrl.config.fifo_depth {
                ctrl.fifo.push_back(s);
                accepted += 1;
            } else {
                ctrl.overrun_samples += 1;
            }
        }
        ctrl.received_samples += accepted as u64;
        accepted
    }

    /// The collecting `drain` the appending one replaced.
    fn drain_ref(ctrl: &mut I2sController, max: usize) -> Vec<i16> {
        let n = max.min(ctrl.fifo.len());
        ctrl.fifo.drain(..n).collect()
    }

    proptest! {
        #[test]
        fn fifo_matches_the_per_sample_oracle(
            depth in 1usize..129,
            incoming in proptest::collection::vec(0usize..200, 1..40),
            drains in proptest::collection::vec(0usize..200, 40..41),
            seed in any::<u16>(),
        ) {
            let config = I2sConfig {
                fifo_depth: depth,
                ..I2sConfig::microphone_default()
            };
            let mut ctrl = I2sController::new(config).unwrap();
            let mut oracle = I2sController::new(config).unwrap();
            ctrl.enable();
            oracle.enable();
            let mut next = seed as i16;
            for (step, (&incoming, &max)) in incoming.iter().zip(&drains).enumerate() {
                let samples: Vec<i16> = (0..incoming)
                    .map(|_| {
                        next = next.wrapping_add(1);
                        next
                    })
                    .collect();
                prop_assert_eq!(
                    ctrl.receive(&samples),
                    receive_ref(&mut oracle, &samples),
                    "accepted at step {}", step
                );
                prop_assert_eq!(ctrl.overrun_samples(), oracle.overrun_samples());
                prop_assert_eq!(ctrl.received_samples(), oracle.received_samples());
                // Appending must keep what the buffer already held.
                let mut out = vec![-1, -2];
                let moved = ctrl.drain_into(&mut out, max);
                let want = drain_ref(&mut oracle, max);
                prop_assert_eq!(moved, want.len());
                prop_assert_eq!(&out[..2], &[-1, -2]);
                prop_assert_eq!(&out[2..], &want[..], "drained at step {}", step);
                prop_assert_eq!(ctrl.fifo_level(), oracle.fifo_level());
            }
        }
    }

    #[test]
    fn config_validation_catches_bad_configs() {
        let mut c = I2sConfig::microphone_default();
        assert!(c.validate().is_ok());
        c.fifo_depth = 0;
        assert!(c.validate().is_err());
        let mut c = I2sConfig::microphone_default();
        c.format.bits_per_sample = 24;
        assert!(c.validate().is_err());
        let mut c = I2sConfig::microphone_default();
        c.format.channels = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn a_fifo_shallower_than_a_frame_is_refused() {
        // A stereo frame is two samples: a one-sample FIFO used to be
        // accepted and then dropped half of every frame as overruns.
        let shallow = I2sConfig {
            format: AudioFormat::hifi_48khz_stereo(),
            fifo_depth: 1,
            ..I2sConfig::microphone_default()
        };
        assert!(matches!(
            shallow.validate(),
            Err(DeviceError::UnsupportedConfig { .. })
        ));
        assert!(I2sBus::new(shallow, Box::new(SilenceSource)).is_err());
        let one_frame = I2sConfig {
            fifo_depth: 2,
            ..shallow
        };
        assert!(one_frame.validate().is_ok());
    }

    #[test]
    fn transfer_time_sums_the_chunks_wire_times() {
        // 48 kHz stereo through a 64-sample FIFO: 32-frame chunks of
        // 666,667 ns each, so a 161-frame period is five of them plus one
        // 20,833 ns frame, not the 3,354,167 ns of 161 frames at once.
        let config = I2sConfig {
            format: AudioFormat::hifi_48khz_stereo(),
            ..I2sConfig::microphone_default()
        };
        assert_eq!(config.transfer_time(0), SimDuration::ZERO);
        assert_eq!(config.transfer_time(32), SimDuration::from_nanos(666_667));
        assert_eq!(
            config.transfer_time(161),
            SimDuration::from_nanos(5 * 666_667 + 20_833)
        );
        let mut bus = I2sBus::new(config, Box::new(SilenceSource)).unwrap();
        bus.controller().enable();
        let chunked: SimDuration = [32, 32, 32, 32, 32, 1]
            .iter()
            .map(|&frames| bus.transfer_frames(frames))
            .sum();
        assert_eq!(chunked, config.transfer_time(161));
    }

    #[test]
    fn bit_clock_matches_format() {
        let c = I2sConfig::microphone_default();
        assert_eq!(c.bit_clock_hz(), 16 * 16_000);
    }

    #[test]
    fn controller_rejects_input_when_disabled() {
        let mut ctrl = I2sController::new(I2sConfig::microphone_default()).unwrap();
        assert_eq!(ctrl.receive(&[1, 2, 3]), 0);
        ctrl.enable();
        assert_eq!(ctrl.receive(&[1, 2, 3]), 3);
        assert_eq!(ctrl.fifo_level(), 3);
        ctrl.disable();
        assert_eq!(ctrl.fifo_level(), 0);
    }

    #[test]
    fn fifo_overruns_are_counted_not_lost_silently() {
        let config = I2sConfig {
            fifo_depth: 4,
            ..I2sConfig::microphone_default()
        };
        let mut ctrl = I2sController::new(config).unwrap();
        ctrl.enable();
        let accepted = ctrl.receive(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(accepted, 4);
        assert_eq!(ctrl.overrun_samples(), 2);
        assert_eq!(drain(&mut ctrl, 10), vec![1, 2, 3, 4]);
    }

    #[test]
    fn bus_transfer_returns_wire_time_and_fills_fifo() {
        let config = I2sConfig {
            fifo_depth: 1024,
            ..I2sConfig::microphone_default()
        };
        let mut bus = I2sBus::new(config, Box::new(SineSource::new(440.0, 16_000, 0.5))).unwrap();
        bus.controller().enable();
        let t = bus.transfer_frames(160); // 10 ms at 16 kHz
        assert_eq!(t, SimDuration::from_millis(10));
        assert_eq!(bus.controller_ref().fifo_level(), 160);
        let drained = drain(bus.controller(), 160);
        assert_eq!(drained.len(), 160);
        assert!(drained.iter().any(|&s| s != 0));
    }

    #[test]
    fn transfer_on_disabled_controller_is_a_noop() {
        let mut bus =
            I2sBus::new(I2sConfig::microphone_default(), Box::new(SilenceSource)).unwrap();
        assert_eq!(bus.transfer_frames(100), SimDuration::ZERO);
        assert_eq!(bus.controller_ref().fifo_level(), 0);
    }

    #[test]
    fn set_source_swaps_the_device() {
        let mut bus = I2sBus::new(
            I2sConfig {
                fifo_depth: 256,
                ..I2sConfig::microphone_default()
            },
            Box::new(SilenceSource),
        )
        .unwrap();
        bus.controller().enable();
        bus.transfer_frames(16);
        assert!(drain(bus.controller(), 16).iter().all(|&s| s == 0));
        let old = bus.set_source(Box::new(SineSource::new(1000.0, 16_000, 0.9)));
        assert!(old.describe().contains("silence"));
        bus.transfer_frames(64);
        assert!(drain(bus.controller(), 64).iter().any(|&s| s != 0));
    }
}
