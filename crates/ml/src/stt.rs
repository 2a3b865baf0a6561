//! Keyword speech-to-text.
//!
//! The paper reuses large pre-trained speech recognizers (Whisper, fairseq
//! S2T) to transcribe the captured audio before classification. Those
//! cannot be shipped here, so the repository substitutes a compact,
//! self-trained keyword recognizer that plays the same architectural role:
//! audio in, token sequence out, running entirely inside the TA.
//!
//! The recognizer is a template matcher: each vocabulary word has an MFCC
//! "acoustic template" (the mean cepstral vector of its synthetic
//! rendering); incoming audio is segmented at silences via an energy-based
//! voice-activity detector, each segment's mean MFCC vector is compared to
//! the templates by cosine similarity, and the best match above a
//! confidence floor becomes the transcribed word.

use serde::{Deserialize, Serialize};

use crate::mfcc::{MfccConfig, MfccExtractor};
use crate::plan::FeaturePlan;
use crate::quant::{dot_i8, quantize_activations};
use crate::{MlError, Result};

/// A transcribed utterance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transcript {
    /// Recognized words, in order.
    pub words: Vec<String>,
    /// Per-word confidence (cosine similarity of the winning template).
    pub confidences: Vec<f32>,
    /// Number of speech segments detected (including unrecognized ones).
    pub segments: usize,
}

impl Transcript {
    /// The transcript as a single space-separated string.
    pub fn text(&self) -> String {
        self.words.join(" ")
    }

    /// Mean confidence over recognized words (zero if none).
    pub fn mean_confidence(&self) -> f32 {
        if self.confidences.is_empty() {
            0.0
        } else {
            self.confidences.iter().sum::<f32>() / self.confidences.len() as f32
        }
    }
}

/// Configuration of the keyword recognizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SttConfig {
    /// MFCC front-end configuration.
    pub mfcc: MfccConfig,
    /// Energy threshold (fraction of full scale RMS) separating speech from
    /// silence.
    pub vad_threshold: f64,
    /// Minimum speech segment length, in frames.
    pub min_segment_frames: usize,
    /// Minimum cosine similarity for a word to be accepted.
    pub confidence_floor: f32,
}

impl Default for SttConfig {
    fn default() -> Self {
        SttConfig {
            mfcc: MfccConfig::speech_16khz(),
            vad_threshold: 0.01,
            min_segment_frames: 2,
            confidence_floor: 0.55,
        }
    }
}

/// The keyword speech-to-text model.
#[derive(Debug, Clone)]
pub struct KeywordStt {
    config: SttConfig,
    extractor: MfccExtractor,
    templates: Vec<(String, Vec<f32>)>,
    /// Int8 deployment form of the templates, built once at train time:
    /// each template symmetrically quantized with its own scale, plus its
    /// precomputed quantized L2 norm. Cosine similarity is
    /// scale-invariant, so the per-template scales (and the segment
    /// mean's dynamic scale) cancel — the int8 matcher needs only the
    /// integer dot products and these norms.
    templates_q: Vec<(Vec<i8>, f32)>,
}

impl KeywordStt {
    /// Trains the recognizer from reference renderings of each vocabulary
    /// word.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BadTrainingData`] if the vocabulary is empty, the
    /// MFCC configuration is one the extractor cannot run (a frame length
    /// below 2 or not a power of two, or a zero hop) or a rendering is too
    /// short to produce MFCC frames.
    pub fn train(words: &[(String, Vec<i16>)], config: SttConfig) -> Result<Self> {
        if words.is_empty() {
            return Err(MlError::BadTrainingData {
                reason: "empty vocabulary".to_owned(),
            });
        }
        if let Some(reason) = config.mfcc.unsupported() {
            return Err(MlError::BadTrainingData {
                reason: format!("unsupported MFCC configuration: {reason}"),
            });
        }
        let extractor = MfccExtractor::new(config.mfcc);
        let mut templates = Vec::with_capacity(words.len());
        for (word, samples) in words {
            if extractor.frame_count(samples.len()) == 0 {
                return Err(MlError::BadTrainingData {
                    reason: format!("rendering of '{word}' is shorter than one analysis frame"),
                });
            }
            templates.push((
                word.clone(),
                Self::voiced_mean(&extractor, samples, config.vad_threshold),
            ));
        }
        let templates_q = templates
            .iter()
            .map(|(_, template)| {
                let mut q = Vec::with_capacity(template.len());
                quantize_activations(template, &mut q);
                let norm = (dot_i8(&q, &q) as f32).sqrt();
                (q, norm)
            })
            .collect();
        Ok(KeywordStt {
            config,
            extractor,
            templates,
            templates_q,
        })
    }

    /// Vocabulary size.
    pub fn vocabulary_size(&self) -> usize {
        self.templates.len()
    }

    /// The vocabulary words, in template order (the order defines the token
    /// ids used by the classifier).
    pub fn vocabulary(&self) -> Vec<String> {
        self.templates.iter().map(|(w, _)| w.clone()).collect()
    }

    /// Token id of a word, if it is in the vocabulary.
    pub fn token_of(&self, word: &str) -> Option<usize> {
        self.templates.iter().position(|(w, _)| w == word)
    }

    /// Approximate multiply-accumulate count of transcribing `samples_len`
    /// samples (MFCC + template matching), for cost accounting.
    pub fn flops_for(&self, samples_len: usize) -> u64 {
        self.mfcc_flops_for(samples_len) + self.matching_flops_for(samples_len)
    }

    /// The MFCC front-end share of [`KeywordStt::flops_for`]: FFT plus
    /// filterbank/DCT, excluding template matching. Lets cost accounting
    /// (and telemetry spans) attribute feature extraction separately from
    /// recognition.
    pub fn mfcc_flops_for(&self, samples_len: usize) -> u64 {
        let frames = self.extractor.frame_count(samples_len) as u64;
        let frame_len = self.config.mfcc.frame_len as u64;
        // FFT ~ n log n, filterbank + DCT ~ n_mels * n_coeffs.
        let fft = frames * frame_len * (frame_len as f64).log2() as u64;
        let cepstral = frames * (self.config.mfcc.n_mels * self.config.mfcc.n_coeffs) as u64;
        fft + cepstral
    }

    /// The template-matching share of [`KeywordStt::flops_for`]:
    /// ~ vocab * n_coeffs per frame.
    pub fn matching_flops_for(&self, samples_len: usize) -> u64 {
        let frames = self.extractor.frame_count(samples_len) as u64;
        frames * (self.templates.len() * self.config.mfcc.n_coeffs) as u64
    }

    /// Mean MFCC vector over the *voiced* frames only.
    ///
    /// Templates and recognition segments must be averaged the same way:
    /// a word's quiet attack/decay frames (the synthesizer's sine
    /// envelope) drag the plain mean towards silence, and VAD-derived
    /// segments clip those edges — so a full-rendering mean template and a
    /// segment mean diverge for the *same* word. Gating both sides on the
    /// VAD threshold removes that train/serve mismatch.
    fn voiced_mean(extractor: &MfccExtractor, samples: &[i16], vad_threshold: f64) -> Vec<f32> {
        let features = extractor.extract(samples);
        let energies = extractor.frame_energies(samples);
        let n_coeffs = features.cols().max(1);
        let mut mean = vec![0.0f32; n_coeffs];
        let mut voiced = 0usize;
        for (frame, &energy) in energies.iter().enumerate().take(features.rows()) {
            if energy > vad_threshold {
                for (acc, &v) in mean.iter_mut().zip(features.row(frame)) {
                    *acc += v;
                }
                voiced += 1;
            }
        }
        if voiced == 0 {
            return extractor.mean_vector(samples);
        }
        for v in &mut mean {
            *v /= voiced as f32;
        }
        mean
    }

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Splits the audio into speech segments using the energy-based VAD.
    /// Returns `(start_frame, end_frame)` pairs (end exclusive).
    pub fn segment(&self, samples: &[i16]) -> Vec<(usize, usize)> {
        let mut segments = Vec::new();
        self.segment_into(&self.extractor.frame_energies(samples), &mut segments);
        segments
    }

    /// The VAD state machine: replaces `bounds` with the runs of frames
    /// whose energy exceeds the threshold and that are at least
    /// `min_segment_frames` long, as `(start_frame, end_frame)` pairs.
    fn segment_into(&self, energies: &[f64], bounds: &mut Vec<(usize, usize)>) {
        bounds.clear();
        let mut start: Option<usize> = None;
        for (i, &e) in energies.iter().enumerate() {
            let speech = e > self.config.vad_threshold;
            match (speech, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    if i - s >= self.config.min_segment_frames {
                        bounds.push((s, i));
                    }
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            if energies.len() - s >= self.config.min_segment_frames {
                bounds.push((s, energies.len()));
            }
        }
    }

    /// Transcribes an utterance.
    pub fn transcribe(&self, samples: &[i16]) -> Transcript {
        let segments = self.segment(samples);
        let mut words = Vec::new();
        let mut confidences = Vec::new();
        for &(start_frame, end_frame) in &segments {
            let start = start_frame * self.config.mfcc.hop_len;
            let end = (end_frame * self.config.mfcc.hop_len + self.config.mfcc.frame_len)
                .min(samples.len());
            if end <= start {
                continue;
            }
            let vector = Self::voiced_mean(
                &self.extractor,
                &samples[start..end],
                self.config.vad_threshold,
            );
            let best = self
                .templates
                .iter()
                .map(|(word, template)| (word, Self::cosine(&vector, template)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((word, similarity)) = best {
                if similarity >= self.config.confidence_floor {
                    words.push(word.clone());
                    confidences.push(similarity);
                }
            }
        }
        Transcript {
            words,
            confidences,
            segments: segments.len(),
        }
    }

    /// Transcribes and maps the words to token ids (unknown words are
    /// dropped, which cannot happen for words recognized from the
    /// vocabulary's own templates).
    pub fn transcribe_to_tokens(&self, samples: &[i16]) -> Vec<usize> {
        self.transcribe(samples)
            .words
            .iter()
            .filter_map(|w| self.token_of(w))
            .collect()
    }

    /// Segments `samples` and leaves the [`KeywordStt::voiced_mean`] of
    /// each segment in `plan.mean`, one row per segment of `plan.bounds`,
    /// with every buffer coming from the plan.
    ///
    /// The allocating path re-extracts each segment's samples up to its
    /// `end` frame and re-gates them on their energies. Segment frame `j`
    /// *is* outer frame `start + j` (segments start on a hop boundary),
    /// frames `start..end` are all voiced and frame `end`, if present, is
    /// not. So a segment's voiced mean is the plain mean over exactly those
    /// frames, accumulated in the same order — bit-identical, and the
    /// all-frames fallback cannot arise. That lets one extraction pass run
    /// the window's voiced frames across segment boundaries, [`LANES`] at a
    /// time, and skip the unvoiced ones.
    ///
    /// [`LANES`]: crate::mfcc::LANES
    fn segment_means_into(&self, samples: &[i16], plan: &mut FeaturePlan) {
        self.extractor
            .frame_energies_into(samples, &mut plan.energies);
        self.segment_into(&plan.energies, &mut plan.bounds);
        // Taken so the extractor can borrow the plan mutably while the
        // voiced frames are listed from the bounds; handed back below.
        let bounds = std::mem::take(&mut plan.bounds);
        self.extractor.extract_frames_into(
            samples,
            bounds.iter().flat_map(|&(start, end)| start..end),
            plan,
        );
        let width = self.config.mfcc.n_coeffs.max(1);
        plan.mean.clear();
        plan.mean.resize(bounds.len() * width, 0.0);
        let mut rows = plan.mfcc.chunks_exact(width);
        for (mean, &(start, end)) in plan.mean.chunks_exact_mut(width).zip(&bounds) {
            let frames = end - start;
            for row in rows.by_ref().take(frames) {
                for (acc, &v) in mean.iter_mut().zip(row) {
                    *acc += v;
                }
            }
            for v in mean.iter_mut() {
                *v /= frames as f32;
            }
        }
        plan.bounds = bounds;
    }

    /// Best (token, similarity) for a segment mean, matched in f32 (the
    /// baseline arithmetic).
    fn match_segment_f32(&self, mean: &[f32]) -> Option<(usize, f32)> {
        self.templates
            .iter()
            .enumerate()
            .map(|(token, (_, template))| (token, Self::cosine(mean, template)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Best (token, similarity) for a segment mean, matched on the integer
    /// kernels: the mean is quantized once into `mean_q`, and every
    /// template comparison is one [`dot_i8`] against the precomputed
    /// quantized templates. The quantization scales cancel out of the
    /// cosine, so only int8 rounding separates this from
    /// [`KeywordStt::match_segment_f32`] — and the synthetic vocabulary's
    /// similarity margins dwarf that rounding (pinned by the
    /// decision-parity proptest).
    fn match_segment_int8(&self, mean: &[f32], mean_q: &mut Vec<i8>) -> Option<(usize, f32)> {
        quantize_activations(mean, mean_q);
        let norm_mean = (dot_i8(mean_q, mean_q) as f32).sqrt();
        self.templates_q
            .iter()
            .enumerate()
            .map(|(token, (template_q, norm_t))| {
                let denom = norm_mean * norm_t;
                let similarity = if denom == 0.0 {
                    0.0
                } else {
                    dot_i8(mean_q, template_q) as f32 / denom
                };
                (token, similarity)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// [`KeywordStt::transcribe_to_tokens`] over a caller-owned
    /// [`FeaturePlan`]: the same segmentation, template matching and tie
    /// handling, with the MFCC, energy, segment-bound and mean buffers
    /// all coming from the plan, and no word strings materialized — the
    /// winning template's index *is* the token id. The returned token
    /// list is the one remaining per-window allocation (it outlives the
    /// plan's scratch in the TA's policy stage). This is the path the
    /// filter TA drives once per capture window in f32 mode.
    pub fn transcribe_to_tokens_with(&self, samples: &[i16], plan: &mut FeaturePlan) -> Vec<usize> {
        self.tokens_with_impl(samples, plan, false)
    }

    /// [`KeywordStt::transcribe_to_tokens_with`] with the template
    /// matching on the int8 kernels (`KeywordStt::match_segment_int8`)
    /// — the filter TA's hot path in int8 mode. Segmentation and the
    /// MFCC front end are shared with the f32 path; only the final
    /// template comparison runs on quantized vectors.
    pub fn transcribe_to_tokens_int8_with(
        &self,
        samples: &[i16],
        plan: &mut FeaturePlan,
    ) -> Vec<usize> {
        self.tokens_with_impl(samples, plan, true)
    }

    fn tokens_with_impl(&self, samples: &[i16], plan: &mut FeaturePlan, int8: bool) -> Vec<usize> {
        self.segment_means_into(samples, plan);
        let mut tokens = Vec::new();
        for mean in plan.mean.chunks_exact(self.config.mfcc.n_coeffs.max(1)) {
            let best = if int8 {
                self.match_segment_int8(mean, &mut plan.mean_q)
            } else {
                self.match_segment_f32(mean)
            };
            if let Some((token, similarity)) = best {
                if similarity >= self.config.confidence_floor {
                    tokens.push(token);
                }
            }
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Renders a "word" as a dual-tone signature, the same scheme the
    /// workload crate uses.
    fn render_word(index: usize, duration_samples: usize) -> Vec<i16> {
        let rate = 16_000.0;
        let f1 = 300.0 + 150.0 * (index % 13) as f64;
        let f2 = 1_200.0 + 240.0 * (index % 7) as f64;
        (0..duration_samples)
            .map(|i| {
                let t = i as f64 / rate;
                let envelope = (std::f64::consts::PI * i as f64 / duration_samples as f64).sin();
                let v = 0.45 * (2.0 * std::f64::consts::PI * f1 * t).sin()
                    + 0.35 * (2.0 * std::f64::consts::PI * f2 * t).sin();
                (v * envelope * 0.8 * i16::MAX as f64) as i16
            })
            .collect()
    }

    fn vocabulary(n: usize) -> Vec<(String, Vec<i16>)> {
        (0..n)
            .map(|i| (format!("word{i}"), render_word(i, 4_000)))
            .collect()
    }

    fn silence(samples: usize) -> Vec<i16> {
        vec![0i16; samples]
    }

    #[test]
    fn training_rejects_degenerate_vocabularies() {
        assert!(KeywordStt::train(&[], SttConfig::default()).is_err());
        let too_short = vec![("x".to_owned(), vec![0i16; 10])];
        assert!(KeywordStt::train(&too_short, SttConfig::default()).is_err());
    }

    #[test]
    fn training_refuses_a_config_the_extractor_cannot_run() {
        let vocab = vocabulary(2);
        let base = SttConfig::default();
        for (frame_len, hop_len) in [(0, 1), (1, 1), (3, 1), (6, 2), (512, 0)] {
            let config = SttConfig {
                mfcc: MfccConfig {
                    frame_len,
                    hop_len,
                    ..base.mfcc
                },
                ..base
            };
            assert!(
                matches!(
                    KeywordStt::train(&vocab, config),
                    Err(MlError::BadTrainingData { .. })
                ),
                "frame_len {frame_len}, hop_len {hop_len}"
            );
        }
        let smallest = SttConfig {
            mfcc: MfccConfig {
                frame_len: 2,
                hop_len: 1,
                ..base.mfcc
            },
            ..base
        };
        let stt = KeywordStt::train(&vocab, smallest).expect("a 2-sample frame is supported");
        let mut plan = crate::plan::FeaturePlan::new();
        assert_eq!(
            stt.transcribe_to_tokens_with(&vocab[0].1, &mut plan),
            stt.transcribe_to_tokens(&vocab[0].1)
        );
    }

    #[test]
    fn recognizes_isolated_words_from_its_vocabulary() {
        let vocab = vocabulary(12);
        let stt = KeywordStt::train(&vocab, SttConfig::default()).unwrap();
        assert_eq!(stt.vocabulary_size(), 12);
        let mut correct = 0;
        for (i, (word, samples)) in vocab.iter().enumerate() {
            let transcript = stt.transcribe(samples);
            if transcript.words.first().map(String::as_str) == Some(word.as_str()) {
                correct += 1;
            }
            assert_eq!(stt.token_of(word), Some(i));
        }
        assert!(correct >= 10, "only {correct}/12 isolated words recognized");
    }

    #[test]
    fn transcribes_a_word_sequence_with_pauses() {
        let vocab = vocabulary(8);
        let stt = KeywordStt::train(&vocab, SttConfig::default()).unwrap();
        // "word2 word5 word1" with 100 ms silences in between.
        let mut samples = Vec::new();
        samples.extend(silence(1_600));
        samples.extend(&vocab[2].1);
        samples.extend(silence(1_600));
        samples.extend(&vocab[5].1);
        samples.extend(silence(1_600));
        samples.extend(&vocab[1].1);
        samples.extend(silence(1_600));
        let transcript = stt.transcribe(&samples);
        assert_eq!(transcript.segments, 3);
        assert_eq!(transcript.words, vec!["word2", "word5", "word1"]);
        assert_eq!(stt.transcribe_to_tokens(&samples), vec![2, 5, 1]);
        assert!(transcript.mean_confidence() > 0.5);
        assert_eq!(transcript.text(), "word2 word5 word1");
    }

    #[test]
    fn planned_transcription_matches_the_allocating_path() {
        let vocab = vocabulary(10);
        let stt = KeywordStt::train(&vocab, SttConfig::default()).unwrap();
        let mut plan = crate::plan::FeaturePlan::new();
        // Several different utterances reuse the same plan; results must
        // match the allocating path word for word, including empty audio.
        let mut samples = Vec::new();
        for &word in &[7usize, 0, 3] {
            samples.extend(silence(1_600));
            samples.extend(&vocab[word].1);
        }
        samples.extend(silence(1_600));
        for case in [&samples[..], &vocab[4].1[..], &silence(8_000)[..], &[]] {
            assert_eq!(
                stt.transcribe_to_tokens_with(case, &mut plan),
                stt.transcribe_to_tokens(case),
            );
        }
    }

    /// The bits of the allocating path's voiced mean of every VAD segment
    /// of `samples`. That path re-extracts each segment up to and
    /// including frame `end`, where the audio has one.
    fn allocating_segment_mean_bits(stt: &KeywordStt, samples: &[i16]) -> Vec<Vec<u32>> {
        let (hop, frame_len) = (stt.config.mfcc.hop_len, stt.config.mfcc.frame_len);
        stt.segment(samples)
            .into_iter()
            .map(|(start, end)| {
                let segment = &samples[start * hop..(end * hop + frame_len).min(samples.len())];
                KeywordStt::voiced_mean(&stt.extractor, segment, stt.config.vad_threshold)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect()
    }

    /// The bits of the segment means the planned path left in `plan`.
    fn planned_segment_mean_bits(stt: &KeywordStt, plan: &FeaturePlan) -> Vec<Vec<u32>> {
        plan.mean
            .chunks_exact(stt.config.mfcc.n_coeffs)
            .map(|mean| mean.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    proptest! {
        /// The planned path equals the allocating one, token for token and
        /// segment mean for segment mean, bit for bit. Each case builds two
        /// utterances of random words at a random gain, with random gaps
        /// between the words (about one in five of length zero, so words
        /// run together), and transcribes each whole and cut at a random
        /// sample (mostly mid-word), all through one plan, so every call
        /// starts on the scratch another utterance left.
        #[test]
        fn planned_transcription_matches_the_allocating_path_on_random_utterances(
            words in proptest::collection::vec(0usize..10, 0..10),
            gaps in proptest::collection::vec(0usize..3_000, 20..21),
            split in 0usize..10,
            gain in 0.02f64..1.0,
            cut in 0.0f64..1.0,
        ) {
            let vocab = vocabulary(10);
            let stt = KeywordStt::train(&vocab, SttConfig::default()).unwrap();
            let utterance = |words: &[usize], gaps: &[usize]| {
                let gap = |i: usize| silence(gaps[i].saturating_sub(600));
                let mut samples = Vec::new();
                for (i, &word) in words.iter().enumerate() {
                    samples.extend(gap(i));
                    samples.extend(vocab[word].1.iter().map(|&s| (f64::from(s) * gain) as i16));
                }
                samples.extend(gap(words.len()));
                samples
            };
            let (first, second) = words.split_at(split.min(words.len()));
            let (a, b) = (utterance(first, &gaps[..10]), utterance(second, &gaps[10..]));
            let clip = |samples: &[i16]| (samples.len() as f64 * cut) as usize;
            let mut plan = FeaturePlan::new();
            for case in [&a[..], &b[..], &a[..clip(&a)], &b[..clip(&b)], &a[..]] {
                prop_assert_eq!(
                    stt.transcribe_to_tokens_with(case, &mut plan),
                    stt.transcribe_to_tokens(case),
                    "tokens of {} samples", case.len()
                );
                prop_assert_eq!(
                    planned_segment_mean_bits(&stt, &plan),
                    allocating_segment_mean_bits(&stt, case),
                    "segment means of {} samples", case.len()
                );
            }
        }
    }

    #[test]
    fn segment_means_are_bit_identical_to_the_voiced_mean_of_the_segment() {
        let vocab = vocabulary(6);
        let stt = KeywordStt::train(&vocab, SttConfig::default()).unwrap();
        let mut samples = Vec::new();
        for &word in &[3usize, 0, 5] {
            samples.extend(silence(1_600));
            samples.extend(&vocab[word].1);
        }
        // The audio ends mid-word, so the last segment runs to the end.
        samples.extend(silence(1_600));
        samples.extend(&vocab[1].1[..2_000]);
        let segments = stt.segment(&samples);
        assert_eq!(segments.len(), 4);
        assert_eq!(
            segments[3].1,
            stt.extractor.frame_count(samples.len()),
            "last segment is clipped at the end of the audio"
        );
        let mut plan = FeaturePlan::new();
        stt.segment_means_into(&samples, &mut plan);
        assert_eq!(plan.bounds, segments);
        assert_eq!(
            planned_segment_mean_bits(&stt, &plan),
            allocating_segment_mean_bits(&stt, &samples)
        );
    }

    #[test]
    fn int8_template_matching_matches_the_f32_decisions() {
        let vocab = vocabulary(12);
        let stt = KeywordStt::train(&vocab, SttConfig::default()).unwrap();
        let mut plan = crate::plan::FeaturePlan::new();
        // Every vocabulary word, a multi-word utterance, silence and empty
        // audio: the int8 matcher must produce the same token streams.
        for (_, samples) in &vocab {
            assert_eq!(
                stt.transcribe_to_tokens_int8_with(samples, &mut plan),
                stt.transcribe_to_tokens(samples),
            );
        }
        let mut samples = Vec::new();
        for &word in &[11usize, 2, 6, 9] {
            samples.extend(silence(1_600));
            samples.extend(&vocab[word].1);
        }
        assert_eq!(
            stt.transcribe_to_tokens_int8_with(&samples, &mut plan),
            vec![11, 2, 6, 9]
        );
        assert!(stt
            .transcribe_to_tokens_int8_with(&silence(8_000), &mut plan)
            .is_empty());
        assert!(stt
            .transcribe_to_tokens_int8_with(&[], &mut plan)
            .is_empty());
    }

    #[test]
    fn silence_produces_an_empty_transcript() {
        let stt = KeywordStt::train(&vocabulary(4), SttConfig::default()).unwrap();
        let transcript = stt.transcribe(&silence(16_000));
        assert!(transcript.words.is_empty());
        assert_eq!(transcript.segments, 0);
        assert_eq!(transcript.mean_confidence(), 0.0);
    }

    #[test]
    fn vad_segmentation_finds_speech_islands() {
        let stt = KeywordStt::train(&vocabulary(4), SttConfig::default()).unwrap();
        let mut samples = silence(3_200);
        samples.extend(render_word(0, 3_200));
        samples.extend(silence(3_200));
        let segments = stt.segment(&samples);
        assert_eq!(segments.len(), 1);
        let (start, end) = segments[0];
        assert!(start > 0);
        assert!(end > start);
    }

    #[test]
    fn flops_scale_with_audio_length() {
        let stt = KeywordStt::train(&vocabulary(4), SttConfig::default()).unwrap();
        assert!(stt.flops_for(32_000) > stt.flops_for(16_000));
        assert_eq!(stt.flops_for(0), 0);
    }
}
