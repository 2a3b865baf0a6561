//! Golden digest of the audio front end: rendered PCM, MFCC f32 bits and
//! decoded tokens.
//!
//! Render and MFCC are hot-path code that gets optimised, and every such
//! change must leave the samples, the features and the decisions
//! bit-identical. This test hashes all three over every vocabulary
//! rendering plus a few generated utterances and compares against a
//! constant recorded from the straightforward implementations (per-sample
//! rendering, an indexed radix-2 butterfly). A mismatch means the audio
//! path computes something different — never noise.

use perisec_ml::mfcc::{MfccConfig, MfccExtractor};
use perisec_ml::plan::FeaturePlan;
use perisec_ml::stt::{KeywordStt, SttConfig};
use perisec_workload::{CorpusGenerator, SpeechSynthesizer};

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn tokens(&mut self, tokens: &[usize]) {
        self.word(tokens.len() as u64);
        for &t in tokens {
            self.word(t as u64);
        }
    }
}

/// Digest recorded from the per-sample renderer and the indexed-butterfly
/// FFT; see the module docs.
const GOLDEN_DIGEST: u64 = 0x66ad_c21d_3ca5_4ff9;

#[test]
fn audio_front_end_matches_the_golden_digest() {
    let synth = SpeechSynthesizer::smart_home();
    let stt = KeywordStt::train(&synth.reference_renderings(), SttConfig::default())
        .expect("reference renderings train the STT");
    let extractor = MfccExtractor::new(MfccConfig::speech_16khz());
    let mut inputs: Vec<Vec<i16>> = synth
        .reference_renderings()
        .into_iter()
        .map(|(_, samples)| samples)
        .collect();
    let mut generator = CorpusGenerator::smart_home(0x5EED);
    inputs.extend(
        generator
            .generate(6)
            .iter()
            .map(|u| synth.render_tokens(&u.tokens).samples().to_vec()),
    );

    let mut plan = FeaturePlan::new();
    let mut digest = Fnv::new();
    for samples in &inputs {
        digest.word(samples.len() as u64);
        for &s in samples {
            digest.word(s as u16 as u64);
        }
        let mfcc = extractor.extract(samples);
        digest.word(mfcc.rows() as u64);
        for &v in mfcc.data() {
            digest.word(u64::from(v.to_bits()));
        }
        digest.tokens(&stt.transcribe_to_tokens(samples));
        digest.tokens(&stt.transcribe_to_tokens_with(samples, &mut plan));
        digest.tokens(&stt.transcribe_to_tokens_int8_with(samples, &mut plan));
    }
    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "audio front-end digest changed: {:#018x}",
        digest.0
    );
}
