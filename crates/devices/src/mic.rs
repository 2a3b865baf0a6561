//! MEMS digital microphone model.
//!
//! A thin device wrapper around an [`I2sBus`]: power state, capture
//! start/stop, and chunked capture that respects the controller FIFO. The
//! driver layers talk to this type: the TEE-ported driver in
//! `perisec-secure-driver` appends each period to a buffer it reuses
//! ([`Microphone::capture_into`]); the untrusted baseline in
//! `perisec-kernel` takes a fresh buffer per period
//! ([`Microphone::capture`]).

use serde::{Deserialize, Serialize};

use perisec_tz::time::SimDuration;

use crate::audio::{AudioBuffer, AudioFormat};
use crate::i2s::{I2sBus, I2sConfig};
use crate::signal::SignalSource;
use crate::{DeviceError, Result};

/// Power/operational state of the microphone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MicState {
    /// Powered down.
    Off,
    /// Powered, clocks running, not capturing.
    Standby,
    /// Actively capturing.
    Capturing,
}

impl std::fmt::Display for MicState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MicState::Off => write!(f, "off"),
            MicState::Standby => write!(f, "standby"),
            MicState::Capturing => write!(f, "capturing"),
        }
    }
}

/// Statistics of a microphone since power-on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MicStats {
    /// Frames captured and delivered.
    pub frames_captured: u64,
    /// Samples dropped in controller FIFO overruns.
    pub overrun_samples: u64,
    /// Number of capture chunks delivered.
    pub chunks: u64,
}

/// An I2S MEMS microphone (e.g. the Knowles part cited by the paper).
pub struct Microphone {
    name: String,
    bus: I2sBus,
    state: MicState,
    stats: MicStats,
}

impl std::fmt::Debug for Microphone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Microphone")
            .field("name", &self.name)
            .field("state", &self.state)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Microphone {
    /// Creates a microphone with the given name, I2S configuration and
    /// signal source.
    ///
    /// # Errors
    ///
    /// Propagates I2S configuration validation failures.
    pub fn new(
        name: impl Into<String>,
        config: I2sConfig,
        source: Box<dyn SignalSource>,
    ) -> Result<Self> {
        Ok(Microphone {
            name: name.into(),
            bus: I2sBus::new(config, source)?,
            state: MicState::Off,
            stats: MicStats::default(),
        })
    }

    /// Convenience constructor: 16 kHz mono microphone with the default
    /// FIFO depth.
    ///
    /// # Errors
    ///
    /// Propagates I2S configuration validation failures.
    pub fn speech_mic(name: impl Into<String>, source: Box<dyn SignalSource>) -> Result<Self> {
        Microphone::new(name, I2sConfig::microphone_default(), source)
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current state.
    pub fn state(&self) -> MicState {
        self.state
    }

    /// Capture format.
    pub fn format(&self) -> AudioFormat {
        self.bus.config().format
    }

    /// Statistics since creation.
    pub fn stats(&self) -> MicStats {
        self.stats
    }

    /// Powers the microphone on into standby.
    pub fn power_on(&mut self) {
        if self.state == MicState::Off {
            self.state = MicState::Standby;
        }
    }

    /// Powers the microphone off, stopping any capture.
    pub fn power_off(&mut self) {
        self.bus.controller().disable();
        self.state = MicState::Off;
    }

    /// Starts capturing.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidState`] if the microphone is off.
    pub fn start_capture(&mut self) -> Result<()> {
        match self.state {
            MicState::Off => Err(DeviceError::InvalidState {
                operation: "start capture".to_owned(),
                state: self.state.to_string(),
            }),
            MicState::Standby | MicState::Capturing => {
                self.bus.controller().enable();
                self.state = MicState::Capturing;
                Ok(())
            }
        }
    }

    /// Stops capturing (back to standby).
    pub fn stop_capture(&mut self) {
        if self.state == MicState::Capturing {
            self.bus.controller().disable();
            self.state = MicState::Standby;
        }
    }

    /// Replaces the signal source feeding the microphone (e.g. to play the
    /// next utterance of a scenario). Returns the previous source.
    pub fn set_source(&mut self, source: Box<dyn SignalSource>) -> Box<dyn SignalSource> {
        self.bus.set_source(source)
    }

    /// Captures `frames` frames in FIFO-sized chunks, appending the
    /// samples to `out` and returning the bus time it took.
    ///
    /// This models a well-behaved consumer that drains the FIFO every chunk
    /// (what the DMA engine or a polling driver does). Overruns can still
    /// occur if the configured chunk exceeds the FIFO depth. Each call
    /// counts as one delivered chunk in [`MicStats::chunks`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidState`] if the microphone is not
    /// capturing; `out` is untouched in that case.
    pub fn capture_into(&mut self, frames: usize, out: &mut Vec<i16>) -> Result<SimDuration> {
        if self.state != MicState::Capturing {
            return Err(DeviceError::InvalidState {
                operation: "capture".to_owned(),
                state: self.state.to_string(),
            });
        }
        let channels = self.format().channels as usize;
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
        Ok(elapsed)
    }

    /// Captures `frames` frames into a new buffer, returning the audio and
    /// the bus time it took (see [`Microphone::capture_into`]).
    ///
    /// # Errors
    ///
    /// Same as [`Microphone::capture_into`].
    pub fn capture(&mut self, frames: usize) -> Result<(AudioBuffer, SimDuration)> {
        let mut samples = Vec::new();
        let elapsed = self.capture_into(frames, &mut samples)?;
        Ok((AudioBuffer::new(self.format(), samples), elapsed))
    }

    /// Captures `duration` worth of audio.
    ///
    /// # Errors
    ///
    /// Same as [`Microphone::capture`].
    pub fn capture_duration(
        &mut self,
        duration: SimDuration,
    ) -> Result<(AudioBuffer, SimDuration)> {
        let frames = self.format().frames_in(duration);
        self.capture(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{SilenceSource, SineSource};

    fn test_mic() -> Microphone {
        Microphone::speech_mic("mic0", Box::new(SineSource::new(440.0, 16_000, 0.8))).unwrap()
    }

    #[test]
    fn lifecycle_transitions() {
        let mut mic = test_mic();
        assert_eq!(mic.state(), MicState::Off);
        assert!(mic.start_capture().is_err());
        mic.power_on();
        assert_eq!(mic.state(), MicState::Standby);
        mic.start_capture().unwrap();
        assert_eq!(mic.state(), MicState::Capturing);
        mic.stop_capture();
        assert_eq!(mic.state(), MicState::Standby);
        mic.power_off();
        assert_eq!(mic.state(), MicState::Off);
    }

    #[test]
    fn capture_returns_audio_of_requested_length() {
        let mut mic = test_mic();
        mic.power_on();
        mic.start_capture().unwrap();
        let (audio, wire_time) = mic.capture(1600).unwrap();
        assert_eq!(audio.frames(), 1600);
        assert_eq!(wire_time, SimDuration::from_millis(100));
        assert!(audio.rms() > 0.1);
        assert_eq!(mic.stats().frames_captured, 1600);
        assert_eq!(mic.stats().overrun_samples, 0);
    }

    #[test]
    fn capture_duration_matches_format() {
        let mut mic = test_mic();
        mic.power_on();
        mic.start_capture().unwrap();
        let (audio, _) = mic.capture_duration(SimDuration::from_millis(250)).unwrap();
        assert_eq!(audio.frames(), 4000);
        assert_eq!(audio.duration(), SimDuration::from_millis(250));
    }

    #[test]
    fn capture_when_not_capturing_is_an_error() {
        let mut mic = test_mic();
        mic.power_on();
        let err = mic.capture(100).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidState { .. }));
    }

    #[test]
    fn swapping_the_source_changes_captured_audio() {
        let mut mic = Microphone::speech_mic("mic0", Box::new(SilenceSource)).unwrap();
        mic.power_on();
        mic.start_capture().unwrap();
        let (silent, _) = mic.capture(800).unwrap();
        assert_eq!(silent.rms(), 0.0);
        mic.set_source(Box::new(SineSource::new(440.0, 16_000, 0.8)));
        let (tone, _) = mic.capture(800).unwrap();
        assert!(tone.rms() > 0.1);
    }
}
