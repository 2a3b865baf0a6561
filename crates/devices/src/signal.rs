//! Signal sources that feed the microphone model.
//!
//! The microphone does not know where its analog signal comes from; a
//! [`SignalSource`] provides the next chunk of samples. The workload crate
//! implements a source that renders labelled synthetic speech; this module
//! provides the basic sources used in unit tests and microbenchmarks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A producer of mono 16-bit PCM samples.
///
/// Implementations must be deterministic for a fixed construction (the
/// experiments rely on reproducible runs), and are expected to be infinite:
/// a source never "runs out", it keeps producing (silence if nothing else).
/// The stream must not depend on how it is chunked: filling `a` then `b`
/// gives the same samples as filling one slice of `a.len() + b.len()`.
pub trait SignalSource: Send {
    /// Overwrites `out` with the next `out.len()` samples.
    fn fill(&mut self, out: &mut [i16]);

    /// A short human-readable description of the source.
    fn describe(&self) -> String {
        "signal source".to_owned()
    }
}

/// A source that produces digital silence.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilenceSource;

impl SignalSource for SilenceSource {
    fn fill(&mut self, out: &mut [i16]) {
        out.fill(0);
    }

    fn describe(&self) -> String {
        "silence".to_owned()
    }
}

/// A pure sine tone.
#[derive(Debug, Clone)]
pub struct SineSource {
    freq_hz: f64,
    sample_rate_hz: f64,
    amplitude: f64,
    phase: f64,
}

impl SineSource {
    /// Creates a tone of `freq_hz` at `sample_rate_hz`, with `amplitude` in
    /// `[0, 1]` of full scale.
    pub fn new(freq_hz: f64, sample_rate_hz: u32, amplitude: f64) -> Self {
        SineSource {
            freq_hz,
            sample_rate_hz: sample_rate_hz as f64,
            amplitude: amplitude.clamp(0.0, 1.0),
            phase: 0.0,
        }
    }
}

impl SignalSource for SineSource {
    fn fill(&mut self, out: &mut [i16]) {
        let step = 2.0 * std::f64::consts::PI * self.freq_hz / self.sample_rate_hz;
        for sample in out {
            *sample = (self.phase.sin() * self.amplitude * i16::MAX as f64) as i16;
            self.phase += step;
            if self.phase > 2.0 * std::f64::consts::PI {
                self.phase -= 2.0 * std::f64::consts::PI;
            }
        }
    }

    fn describe(&self) -> String {
        format!("sine {}Hz", self.freq_hz)
    }
}

/// Uniform white noise with a fixed seed.
#[derive(Debug, Clone)]
pub struct WhiteNoiseSource {
    rng: SmallRng,
    amplitude: f64,
}

impl WhiteNoiseSource {
    /// Creates a noise source with the given seed and amplitude in `[0, 1]`.
    pub fn new(seed: u64, amplitude: f64) -> Self {
        WhiteNoiseSource {
            rng: SmallRng::seed_from_u64(seed),
            amplitude: amplitude.clamp(0.0, 1.0),
        }
    }
}

impl SignalSource for WhiteNoiseSource {
    fn fill(&mut self, out: &mut [i16]) {
        let scale = self.amplitude * i16::MAX as f64;
        for sample in out {
            *sample = (self.rng.gen_range(-1.0..=1.0) * scale) as i16;
        }
    }

    fn describe(&self) -> String {
        format!("white noise (amplitude {:.2})", self.amplitude)
    }
}

/// A source that plays back a fixed sample buffer and then loops silence.
///
/// The workload crate uses this to feed pre-rendered utterances into the
/// microphone.
#[derive(Debug, Clone)]
pub struct PlaybackSource {
    samples: Vec<i16>,
    position: usize,
    label: String,
}

impl PlaybackSource {
    /// Creates a playback source over `samples`.
    pub fn new(samples: Vec<i16>, label: impl Into<String>) -> Self {
        PlaybackSource {
            samples,
            position: 0,
            label: label.into(),
        }
    }

    /// Samples remaining before the source starts producing silence.
    pub fn remaining(&self) -> usize {
        self.samples.len() - self.position
    }

    /// Whether the recorded material has been fully played back.
    pub fn exhausted(&self) -> bool {
        self.position >= self.samples.len()
    }
}

impl SignalSource for PlaybackSource {
    fn fill(&mut self, out: &mut [i16]) {
        let available = self.remaining().min(out.len());
        let (played, silence) = out.split_at_mut(available);
        played.copy_from_slice(&self.samples[self.position..self.position + available]);
        silence.fill(0);
        self.position += available;
    }

    fn describe(&self) -> String {
        format!("playback '{}' ({} samples)", self.label, self.samples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The next `count` samples of `source`, in one fresh buffer.
    fn take(source: &mut dyn SignalSource, count: usize) -> Vec<i16> {
        let mut out = vec![i16::MIN; count];
        source.fill(&mut out);
        out
    }

    /// The per-call `next_samples` bodies the slice fills replaced, kept
    /// as stream oracles: same state, same expressions, one fresh `Vec`
    /// per call.
    fn sine_ref(s: &mut SineSource, count: usize) -> Vec<i16> {
        let mut out = Vec::with_capacity(count);
        let step = 2.0 * std::f64::consts::PI * s.freq_hz / s.sample_rate_hz;
        for _ in 0..count {
            let v = (s.phase.sin() * s.amplitude * i16::MAX as f64) as i16;
            out.push(v);
            s.phase += step;
            if s.phase > 2.0 * std::f64::consts::PI {
                s.phase -= 2.0 * std::f64::consts::PI;
            }
        }
        out
    }

    fn noise_ref(s: &mut WhiteNoiseSource, count: usize) -> Vec<i16> {
        let scale = s.amplitude * i16::MAX as f64;
        (0..count)
            .map(|_| (s.rng.gen_range(-1.0..=1.0) * scale) as i16)
            .collect()
    }

    fn playback_ref(s: &mut PlaybackSource, count: usize) -> Vec<i16> {
        let available = s.remaining().min(count);
        let mut out = s.samples[s.position..s.position + available].to_vec();
        s.position += available;
        out.resize(count, 0);
        out
    }

    /// Feeds `chunks` to `fill` and to `oracle` on twin sources and
    /// checks that the two streams agree sample for sample.
    fn same_stream<S: SignalSource + Clone>(
        source: S,
        chunks: &[usize],
        oracle: fn(&mut S, usize) -> Vec<i16>,
    ) -> std::result::Result<(), String> {
        let (mut filled, mut reference) = (source.clone(), source);
        for (index, &count) in chunks.iter().enumerate() {
            let got = take(&mut filled, count);
            let want = oracle(&mut reference, count);
            prop_assert_eq!(got, want, "chunk {} of {}", index, count);
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn fill_matches_the_per_call_oracles_under_any_chunking(
            chunks in proptest::collection::vec(0usize..300, 1..24),
            seed in any::<u64>(),
            freq in 20.0f64..7_900.0,
            amplitude in 0.0f64..1.0,
            clip in proptest::collection::vec(any::<i16>(), 0..2_000),
        ) {
            same_stream(SineSource::new(freq, 16_000, amplitude), &chunks, sine_ref)?;
            same_stream(WhiteNoiseSource::new(seed, amplitude), &chunks, noise_ref)?;
            same_stream(PlaybackSource::new(clip, "clip"), &chunks, playback_ref)?;
            let mut silence = SilenceSource;
            for &count in &chunks {
                prop_assert_eq!(take(&mut silence, count), vec![0; count]);
            }
        }
    }

    #[test]
    fn silence_is_all_zeros() {
        let mut s = SilenceSource;
        assert!(take(&mut s, 100).iter().all(|&v| v == 0));
        assert_eq!(take(&mut s, 0).len(), 0);
    }

    #[test]
    fn sine_has_expected_period() {
        // 1 kHz at 16 kHz: one period every 16 samples.
        let mut s = SineSource::new(1_000.0, 16_000, 0.9);
        let samples = take(&mut s, 16_000);
        assert_eq!(samples.len(), 16_000);
        // Sign changes ~2 per period => ~2000 zero crossings in one second.
        let crossings = samples
            .windows(2)
            .filter(|w| (w[0] >= 0) != (w[1] >= 0))
            .count();
        assert!((1900..2100).contains(&crossings), "crossings = {crossings}");
        let peak = samples.iter().map(|&v| v.unsigned_abs()).max().unwrap();
        assert!(peak > (0.85 * i16::MAX as f64) as u16);
    }

    #[test]
    fn noise_is_deterministic_for_a_seed() {
        let mut a = WhiteNoiseSource::new(7, 0.5);
        let mut b = WhiteNoiseSource::new(7, 0.5);
        assert_eq!(take(&mut a, 256), take(&mut b, 256));
        let mut c = WhiteNoiseSource::new(8, 0.5);
        assert_ne!(take(&mut a, 256), take(&mut c, 256));
    }

    #[test]
    fn playback_pads_with_silence_when_exhausted() {
        let mut p = PlaybackSource::new(vec![1, 2, 3], "clip");
        assert_eq!(take(&mut p, 2), vec![1, 2]);
        assert!(!p.exhausted());
        assert_eq!(take(&mut p, 4), vec![3, 0, 0, 0]);
        assert!(p.exhausted());
        assert_eq!(take(&mut p, 2), vec![0, 0]);
    }

    #[test]
    fn describe_mentions_the_source_kind() {
        assert!(SineSource::new(440.0, 16_000, 1.0)
            .describe()
            .contains("sine"));
        assert!(WhiteNoiseSource::new(1, 0.1).describe().contains("noise"));
        assert!(PlaybackSource::new(vec![], "x")
            .describe()
            .contains("playback"));
    }
}
