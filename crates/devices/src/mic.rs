//! MEMS digital microphone model.
//!
//! A thin device wrapper around an [`I2sBus`]: power state, capture
//! start/stop, and capture that drains the controller FIFO after every
//! FIFO-sized chunk. The driver layers talk to this type: the TEE-ported
//! driver in `perisec-secure-driver` reads a run of periods into a buffer
//! it reuses ([`Microphone::capture_periods_into`]); the untrusted
//! baseline in `perisec-kernel` takes a fresh buffer per period
//! ([`Microphone::capture`]).
//!
//! The microphone owns its bus and drains every chunk it transfers, so
//! the FIFO is empty at each chunk boundary and, with no chunk larger
//! than the FIFO, nothing overruns. A capture is therefore one read of
//! the signal source straight into the caller's buffer, timed as its
//! chunks would be on the wire (see [`crate::i2s`]). The unit tests keep
//! the per-chunk copy loop through the FIFO as the oracle.

use serde::{Deserialize, Serialize};

use perisec_tz::time::SimDuration;

use crate::audio::{AudioBuffer, AudioFormat};
use crate::i2s::{I2sBus, I2sConfig, I2sController};
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

    /// Read-only view of the I2S controller: its FIFO level and sample
    /// counters.
    pub fn controller(&self) -> &I2sController {
        self.bus.controller_ref()
    }

    /// Captures `frames` frames in FIFO-sized chunks, appending the
    /// samples to `out` and returning the bus time it took.
    ///
    /// This models a well-behaved consumer that drains the FIFO every chunk
    /// (what the DMA engine or a polling driver does). Each call counts as
    /// one delivered chunk in [`MicStats::chunks`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidState`] if the microphone is not
    /// capturing; `out` is untouched in that case.
    pub fn capture_into(&mut self, frames: usize, out: &mut Vec<i16>) -> Result<SimDuration> {
        self.ensure_capturing()?;
        let start = out.len();
        out.resize(start + frames * self.format().channels as usize, 0);
        self.capture_periods_into(1, frames, &mut out[start..])
    }

    /// Captures `periods` back-to-back periods of `period_frames` frames
    /// into `out`, which holds exactly their samples, and returns the bus
    /// time they took. Each period is what one
    /// [`Microphone::capture_into`] of `period_frames` frames captures,
    /// and counts as one delivered chunk; the samples arrive in one read
    /// of the signal source.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidState`] if the microphone is not
    /// capturing; nothing is read or counted in that case.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly the periods' samples.
    pub fn capture_periods_into(
        &mut self,
        periods: usize,
        period_frames: usize,
        out: &mut [i16],
    ) -> Result<SimDuration> {
        self.ensure_capturing()?;
        let config = self.bus.config();
        assert_eq!(
            out.len(),
            periods * period_frames * config.format.channels as usize,
            "capture buffer must hold {periods} periods of {period_frames} frames"
        );
        self.bus.stream_into(out);
        self.stats.frames_captured += (periods * period_frames) as u64;
        self.stats.chunks += periods as u64;
        self.stats.overrun_samples = self.bus.controller_ref().overrun_samples();
        Ok(config.transfer_time(period_frames) * periods as u64)
    }

    /// Refuses a capture unless the microphone is capturing (and so its
    /// controller is enabled).
    fn ensure_capturing(&self) -> Result<()> {
        if self.state != MicState::Capturing {
            return Err(DeviceError::InvalidState {
                operation: "capture".to_owned(),
                state: self.state.to_string(),
            });
        }
        Ok(())
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
    use crate::signal::{PlaybackSource, SilenceSource, SineSource};
    use proptest::prelude::*;

    /// The per-chunk copy loop through the FIFO that the direct read
    /// replaced, kept as its oracle: each FIFO-sized chunk is transferred
    /// into the controller and drained onto `out`.
    fn capture_into_ref(
        mic: &mut Microphone,
        frames: usize,
        out: &mut Vec<i16>,
    ) -> Result<SimDuration> {
        mic.ensure_capturing()?;
        let channels = mic.format().channels as usize;
        let chunk_frames = (mic.bus.config().fifo_depth / channels).max(1);
        out.reserve(frames * channels);
        let mut elapsed = SimDuration::ZERO;
        let mut remaining = frames;
        while remaining > 0 {
            let n = remaining.min(chunk_frames);
            elapsed += mic.bus.transfer_frames(n);
            mic.bus.controller().drain_into(out, n * channels);
            remaining -= n;
        }
        mic.stats.frames_captured += frames as u64;
        mic.stats.chunks += 1;
        mic.stats.overrun_samples = mic.bus.controller_ref().overrun_samples();
        Ok(elapsed)
    }

    /// A capturing microphone playing `clip`, then silence.
    fn playback_mic(config: I2sConfig, clip: &[i16]) -> Microphone {
        let source = PlaybackSource::new(clip.to_vec(), "clip");
        let mut mic = Microphone::new("mic", config, Box::new(source)).unwrap();
        mic.power_on();
        mic.start_capture().unwrap();
        mic
    }

    /// Captures `runs` of periods on a direct microphone and on the chunk
    /// loop oracle, fed the same clip, and checks after every run that
    /// the samples, the wire time, the statistics and the controller's
    /// counters agree. Odd runs go through `capture_into`, one period per
    /// call; even ones through one `capture_periods_into`.
    fn same_capture(
        config: I2sConfig,
        period_frames: usize,
        runs: &[usize],
        clip: &[i16],
    ) -> std::result::Result<(), String> {
        let mut direct = playback_mic(config, clip);
        let mut oracle = playback_mic(config, clip);
        let period_samples = period_frames * config.format.channels as usize;
        for (index, &periods) in runs.iter().enumerate() {
            let mut got = vec![i16::MIN; 3];
            let wire = if index % 2 == 0 {
                got.resize(3 + periods * period_samples, i16::MIN);
                direct
                    .capture_periods_into(periods, period_frames, &mut got[3..])
                    .unwrap()
            } else {
                (0..periods)
                    .map(|_| direct.capture_into(period_frames, &mut got).unwrap())
                    .sum()
            };
            let mut want = vec![i16::MIN; 3];
            let oracle_wire: SimDuration = (0..periods)
                .map(|_| capture_into_ref(&mut oracle, period_frames, &mut want).unwrap())
                .sum();
            prop_assert_eq!(&got, &want, "samples of run {}", index);
            prop_assert_eq!(wire, oracle_wire, "wire time of run {}", index);
            prop_assert_eq!(direct.stats(), oracle.stats());
            let (d, o) = (direct.controller(), oracle.controller());
            prop_assert_eq!(d.received_samples(), o.received_samples());
            prop_assert_eq!(d.overrun_samples(), o.overrun_samples());
            prop_assert_eq!(d.fifo_level(), o.fifo_level());
        }
        Ok(())
    }

    proptest! {
        /// Every FIFO from one frame to 128 samples, 16 kHz mono and
        /// 48 kHz stereo, periods of 1 to 400 frames and always of 161
        /// (whose 48 kHz chunks round), runs of 1 to 20 periods, and a
        /// clip that runs dry anywhere in them, mid-frame included.
        #[test]
        fn direct_capture_matches_the_chunk_loop(
            stereo in any::<bool>(),
            depth_pick in 0usize..128,
            period_pick in 1usize..401,
            runs in proptest::collection::vec(1usize..21, 1..5),
            dry_at in 0.0f64..1.0,
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
            for period_frames in [period_pick, 161] {
                let total = runs.iter().sum::<usize>() * period_frames * channels;
                let clip: Vec<i16> = (0..(total as f64 * dry_at) as usize)
                    .map(|i| (i as u16).wrapping_mul(40_503).wrapping_add(seed) as i16)
                    .collect();
                same_capture(config, period_frames, &runs, &clip)?;
            }
        }
    }

    #[test]
    #[should_panic(expected = "capture buffer must hold 2 periods of 160 frames")]
    fn a_capture_buffer_of_the_wrong_size_is_refused() {
        let mut mic = playback_mic(I2sConfig::microphone_default(), &[1, 2, 3]);
        let _ = mic.capture_periods_into(2, 160, &mut [0; 319]);
    }

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
