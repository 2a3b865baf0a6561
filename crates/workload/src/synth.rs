//! Per-word waveform synthesis.
//!
//! Each vocabulary word renders to a distinct, deterministic dual-tone
//! signature with a smooth amplitude envelope; utterances are words
//! separated by short silences. The signatures are chosen so that the MFCC
//! template matcher in `perisec-ml` can recover the word sequence from the
//! PCM stream — giving the repository an end-to-end audio → transcript →
//! classification path without real recordings.
//!
//! A word's rendering is a pure function of its token, so the synthesizer
//! renders each vocabulary word once, on first use, into a waveform table
//! that every clone shares; utterances are then silence plus copies.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use perisec_devices::audio::{AudioBuffer, AudioFormat};

use crate::vocab::Vocabulary;

/// Synthesis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Output sample rate.
    pub sample_rate_hz: u32,
    /// Duration of one word, in milliseconds.
    pub word_ms: u64,
    /// Silence between words, in milliseconds.
    pub gap_ms: u64,
    /// Peak amplitude as a fraction of full scale.
    pub amplitude: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            sample_rate_hz: 16_000,
            word_ms: 250,
            gap_ms: 120,
            amplitude: 0.8,
        }
    }
}

/// The deterministic speech synthesizer.
///
/// Cloning is cheap: clones share one waveform table.
#[derive(Clone)]
pub struct SpeechSynthesizer {
    vocabulary: Vocabulary,
    config: SynthConfig,
    /// [`SpeechSynthesizer::render_word`] of every vocabulary token, in
    /// token order. Built by the first render, so a synthesizer that
    /// never renders never pays for it.
    table: Arc<OnceLock<Vec<Vec<i16>>>>,
}

impl std::fmt::Debug for SpeechSynthesizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeechSynthesizer")
            .field("vocabulary", &self.vocabulary)
            .field("config", &self.config)
            .field("table_built", &self.table.get().is_some())
            .finish()
    }
}

impl SpeechSynthesizer {
    /// Creates a synthesizer over `vocabulary`.
    pub fn new(vocabulary: Vocabulary, config: SynthConfig) -> Self {
        SpeechSynthesizer {
            vocabulary,
            config,
            table: Arc::default(),
        }
    }

    /// Synthesizer with the default smart-home vocabulary and parameters.
    ///
    /// Every call returns a clone of one process-wide synthesizer, so all
    /// of them share a single waveform table (built by the first render).
    pub fn smart_home() -> Self {
        static SMART_HOME: OnceLock<SpeechSynthesizer> = OnceLock::new();
        SMART_HOME
            .get_or_init(|| {
                SpeechSynthesizer::new(Vocabulary::smart_home(), SynthConfig::default())
            })
            .clone()
    }

    /// The vocabulary in use.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The synthesis configuration.
    pub fn config(&self) -> SynthConfig {
        self.config
    }

    /// Output audio format.
    pub fn format(&self) -> AudioFormat {
        AudioFormat {
            sample_rate_hz: self.config.sample_rate_hz,
            channels: 1,
            bits_per_sample: 16,
        }
    }

    fn word_samples(&self) -> usize {
        (self.config.sample_rate_hz as u64 * self.config.word_ms / 1000) as usize
    }

    fn gap_samples(&self) -> usize {
        (self.config.sample_rate_hz as u64 * self.config.gap_ms / 1000) as usize
    }

    /// Renders a single word (by token id) to PCM.
    pub fn render_word(&self, token: usize) -> Vec<i16> {
        let rate = self.config.sample_rate_hz as f64;
        let n = self.word_samples();
        // Two formant-like tones derived from the token id; co-prime moduli
        // keep the (f1, f2) pairs distinct across the vocabulary. The
        // frequencies are spaced *geometrically*: the STT's mel filterbank
        // has log-frequency resolution, so linear spacing packs the upper
        // signatures into one mel channel and neighbouring tokens collide.
        let f1 = 280.0 * 1.17f64.powi((token % 13) as i32);
        let f2 = 1_150.0 * 1.14f64.powi((token % 7) as i32);
        let f3 = 2_600.0 + 90.0 * (token % 5) as f64;
        (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                let envelope = (std::f64::consts::PI * i as f64 / n as f64).sin();
                let v = 0.45 * (2.0 * std::f64::consts::PI * f1 * t).sin()
                    + 0.35 * (2.0 * std::f64::consts::PI * f2 * t).sin()
                    + 0.10 * (2.0 * std::f64::consts::PI * f3 * t).sin();
                (v * envelope * self.config.amplitude * i16::MAX as f64) as i16
            })
            .collect()
    }

    /// The shared waveform table, rendered on first use.
    fn table(&self) -> &[Vec<i16>] {
        self.table.get_or_init(|| {
            (0..self.vocabulary.len())
                .map(|token| self.render_word(token))
                .collect()
        })
    }

    /// Renders a token sequence to a full utterance (leading, inter-word
    /// and trailing silences included). Vocabulary words are copied from
    /// the waveform table; a token outside the vocabulary is rendered by
    /// [`SpeechSynthesizer::render_word`] directly.
    pub fn render_tokens(&self, tokens: &[usize]) -> AudioBuffer {
        let table = self.table();
        let gap = self.gap_samples();
        let mut samples = Vec::with_capacity(gap + tokens.len() * (self.word_samples() + gap));
        samples.resize(gap, 0i16);
        for &token in tokens {
            match table.get(token) {
                Some(word) => samples.extend_from_slice(word),
                None => samples.extend(self.render_word(token)),
            }
            samples.resize(samples.len() + gap, 0i16);
        }
        AudioBuffer::new(self.format(), samples)
    }

    /// Renders an utterance given by its words.
    ///
    /// Unknown words are skipped.
    pub fn render_words(&self, words: &[&str]) -> AudioBuffer {
        let tokens: Vec<usize> = words
            .iter()
            .filter_map(|w| self.vocabulary.token_of(w))
            .collect();
        self.render_tokens(&tokens)
    }

    /// Reference renderings of every vocabulary word, in token order — the
    /// training set for the keyword STT.
    pub fn reference_renderings(&self) -> Vec<(String, Vec<i16>)> {
        self.vocabulary
            .words()
            .iter()
            .zip(self.table())
            .map(|(word, samples)| (word.text.clone(), samples.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic_and_word_specific() {
        let synth = SpeechSynthesizer::smart_home();
        let a = synth.render_word(3);
        let b = synth.render_word(3);
        let c = synth.render_word(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 4_000);
    }

    #[test]
    fn utterance_length_matches_word_count() {
        let synth = SpeechSynthesizer::smart_home();
        let two = synth.render_tokens(&[1, 2]);
        let three = synth.render_tokens(&[1, 2, 3]);
        assert!(three.frames() > two.frames());
        // 2 words * 250 ms + 3 gaps * 120 ms = 860 ms
        assert_eq!(two.frames(), (0.86 * 16_000.0) as usize);
        assert!(two.rms() > 0.05);
    }

    #[test]
    fn render_words_skips_unknown_words() {
        let synth = SpeechSynthesizer::smart_home();
        let known = synth.render_words(&["lights", "kitchen"]);
        let with_unknown = synth.render_words(&["lights", "zzz-not-a-word", "kitchen"]);
        assert_eq!(known.frames(), with_unknown.frames());
    }

    #[test]
    fn reference_renderings_cover_the_vocabulary() {
        let synth = SpeechSynthesizer::smart_home();
        let refs = synth.reference_renderings();
        assert_eq!(refs.len(), synth.vocabulary().len());
        assert_eq!(refs[0].0, synth.vocabulary().word(0).unwrap().text);
    }

    /// The formula rendering of an utterance: per-word `render_word`
    /// joined by silences.
    fn rendered_by_formula(synth: &SpeechSynthesizer, tokens: &[usize]) -> Vec<i16> {
        let gap = vec![0i16; synth.gap_samples()];
        let mut samples = gap.clone();
        for &token in tokens {
            samples.extend(synth.render_word(token));
            samples.extend(&gap);
        }
        samples
    }

    #[test]
    fn table_renderings_equal_the_formula_for_every_token() {
        let synth = SpeechSynthesizer::new(Vocabulary::smart_home(), SynthConfig::default());
        let all: Vec<usize> = (0..synth.vocabulary().len()).collect();
        for &token in &all {
            assert_eq!(
                synth.render_tokens(&[token]).samples(),
                rendered_by_formula(&synth, &[token]),
                "token {token}"
            );
        }
        assert_eq!(
            synth.render_tokens(&all).samples(),
            rendered_by_formula(&synth, &all)
        );
        assert_eq!(
            synth.render_tokens(&[]).samples(),
            rendered_by_formula(&synth, &[])
        );
        // A token past the vocabulary still renders by the formula.
        let outside = [synth.vocabulary().len() + 3, 1];
        assert_eq!(
            synth.render_tokens(&outside).samples(),
            rendered_by_formula(&synth, &outside)
        );
    }

    #[test]
    fn reference_renderings_are_the_formula_renderings() {
        let synth = SpeechSynthesizer::smart_home();
        for (token, (text, samples)) in synth.reference_renderings().into_iter().enumerate() {
            assert_eq!(text, synth.vocabulary().word(token).unwrap().text);
            assert_eq!(samples, synth.render_word(token), "token {token}");
        }
    }

    #[test]
    fn clones_share_one_lazily_built_table() {
        let synth = SpeechSynthesizer::new(Vocabulary::smart_home(), SynthConfig::default());
        let clone = synth.clone();
        assert!(Arc::ptr_eq(&synth.table, &clone.table));
        assert!(synth.table.get().is_none(), "built before any render");
        clone.render_tokens(&[2]);
        assert!(
            synth.table.get().is_some(),
            "a clone's render fills the shared table"
        );
        assert!(Arc::ptr_eq(
            &SpeechSynthesizer::smart_home().table,
            &SpeechSynthesizer::smart_home().table
        ));
    }

    #[test]
    fn stt_round_trip_recovers_most_words() {
        // End-to-end check: synthesize -> transcribe with the ml crate's STT.
        use perisec_ml::stt::{KeywordStt, SttConfig};
        let synth = SpeechSynthesizer::smart_home();
        let stt = KeywordStt::train(&synth.reference_renderings(), SttConfig::default()).unwrap();
        let tokens = vec![5usize, 20, 40, 10];
        let audio = synth.render_tokens(&tokens);
        let recovered = stt.transcribe_to_tokens(audio.samples());
        let matching = recovered.iter().filter(|t| tokens.contains(t)).count();
        assert!(
            matching >= 3,
            "only {matching}/4 words recovered: {recovered:?} vs {tokens:?}"
        );
    }
}
