//! Audio encoding helpers.
//!
//! The paper's secure driver "securely processes (e.g., encoding an audio
//! signal)" the captured data before handing it to the TA (§II). This
//! module provides that encoding step: raw PCM <-> little-endian bytes and
//! ITU-T G.711 µ-law companding, which roughly halves the bytes crossing the
//! PTA/TA boundary — relevant to the world-switch amortization experiments.

use crate::audio::AudioBuffer;

const MU_LAW_BIAS: i32 = 0x84;
const MU_LAW_CLIP: i32 = 32_635;

/// Writes `samples` into `dst` as little-endian bytes, two per sample.
/// Bytes of `dst` past `2 * samples.len()` are left as they are; samples
/// past `dst.len() / 2` are not written.
pub(crate) fn write_pcm_le(samples: &[i16], dst: &mut [u8]) {
    let (pairs, _) = dst.as_chunks_mut::<2>();
    for (pair, &sample) in pairs.iter_mut().zip(samples) {
        *pair = sample.to_le_bytes();
    }
}

/// Encodes interleaved PCM samples as little-endian bytes.
pub fn pcm_to_bytes(samples: &[i16]) -> Vec<u8> {
    let mut out = Vec::new();
    AudioEncoding::PcmLe16.encode_into(samples, &mut out);
    out
}

/// Decodes little-endian bytes back into PCM samples (odd trailing byte is
/// ignored).
pub fn bytes_to_pcm(bytes: &[u8]) -> Vec<i16> {
    let mut out = Vec::new();
    AudioEncoding::PcmLe16.decode_into(bytes, &mut out);
    out
}

/// Compresses one PCM sample to 8-bit µ-law.
pub fn mulaw_encode_sample(sample: i16) -> u8 {
    let mut pcm = sample as i32;
    let sign: u8 = if pcm < 0 {
        pcm = -pcm;
        0x80
    } else {
        0
    };
    if pcm > MU_LAW_CLIP {
        pcm = MU_LAW_CLIP;
    }
    pcm += MU_LAW_BIAS;
    let mut exponent: u8 = 7;
    let mut mask = 0x4000;
    while exponent > 0 && (pcm & mask) == 0 {
        exponent -= 1;
        mask >>= 1;
    }
    let mantissa = ((pcm >> (exponent + 3)) & 0x0F) as u8;
    !(sign | (exponent << 4) | mantissa)
}

/// Expands one 8-bit µ-law byte back to PCM.
pub fn mulaw_decode_sample(byte: u8) -> i16 {
    let byte = !byte;
    let sign = byte & 0x80;
    let exponent = (byte >> 4) & 0x07;
    let mantissa = byte & 0x0F;
    let mut pcm: i32 = (((mantissa as i32) << 3) + MU_LAW_BIAS) << exponent;
    pcm -= MU_LAW_BIAS;
    if sign != 0 {
        (-pcm) as i16
    } else {
        pcm as i16
    }
}

/// Encodes a whole buffer to µ-law.
pub fn mulaw_encode(samples: &[i16]) -> Vec<u8> {
    let mut out = Vec::new();
    AudioEncoding::MuLaw.encode_into(samples, &mut out);
    out
}

/// Decodes a µ-law byte stream to PCM.
pub fn mulaw_decode(bytes: &[u8]) -> Vec<i16> {
    let mut out = Vec::new();
    AudioEncoding::MuLaw.decode_into(bytes, &mut out);
    out
}

/// Encoding applied by the driver before data leaves its I/O buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AudioEncoding {
    /// Raw 16-bit little-endian PCM (2 bytes per sample).
    PcmLe16,
    /// 8-bit µ-law companded audio (1 byte per sample).
    MuLaw,
}

impl AudioEncoding {
    /// Bytes produced per input sample.
    pub fn bytes_per_sample(self) -> usize {
        match self {
            AudioEncoding::PcmLe16 => 2,
            AudioEncoding::MuLaw => 1,
        }
    }

    /// Encodes `samples` onto the end of `out`.
    pub fn encode_into(self, samples: &[i16], out: &mut Vec<u8>) {
        match self {
            AudioEncoding::PcmLe16 => {
                let start = out.len();
                out.resize(start + samples.len() * 2, 0);
                write_pcm_le(samples, &mut out[start..]);
            }
            AudioEncoding::MuLaw => out.extend(samples.iter().map(|&s| mulaw_encode_sample(s))),
        }
    }

    /// Decodes a byte stream produced by [`AudioEncoding::encode_into`]
    /// onto the end of `out` (an odd trailing PCM byte is ignored).
    pub fn decode_into(self, bytes: &[u8], out: &mut Vec<i16>) {
        match self {
            AudioEncoding::PcmLe16 => {
                let (pairs, _) = bytes.as_chunks::<2>();
                out.extend(pairs.iter().map(|&pair| i16::from_le_bytes(pair)));
            }
            AudioEncoding::MuLaw => out.extend(bytes.iter().map(|&b| mulaw_decode_sample(b))),
        }
    }

    /// Encodes an audio buffer into a new byte stream.
    pub fn encode(self, audio: &AudioBuffer) -> Vec<u8> {
        let mut out = Vec::with_capacity(audio.samples().len() * self.bytes_per_sample());
        self.encode_into(audio.samples(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audio::AudioFormat;

    #[test]
    fn pcm_bytes_round_trip() {
        let samples = vec![0i16, 1, -1, i16::MAX, i16::MIN, -12345];
        assert_eq!(bytes_to_pcm(&pcm_to_bytes(&samples)), samples);
    }

    #[test]
    fn mulaw_round_trip_is_close_for_speech_levels() {
        // µ-law is lossy; for moderate amplitudes the round-trip error must
        // stay small relative to the signal.
        for &amp in &[500i16, 2_000, 8_000, 20_000] {
            for i in 0..200 {
                let s = ((i as f64 / 200.0 * std::f64::consts::TAU).sin() * amp as f64) as i16;
                let rt = mulaw_decode_sample(mulaw_encode_sample(s));
                let err = (s as i32 - rt as i32).abs();
                assert!(
                    err <= (s.unsigned_abs() as i32 / 8) + 64,
                    "sample {s} decoded to {rt} (err {err})"
                );
            }
        }
    }

    #[test]
    fn mulaw_preserves_sign_and_monotonic_order_of_extremes() {
        assert!(mulaw_decode_sample(mulaw_encode_sample(i16::MAX)) > 30_000);
        assert!(mulaw_decode_sample(mulaw_encode_sample(-30_000)) < -28_000);
        assert!(mulaw_decode_sample(mulaw_encode_sample(0)).abs() < 16);
    }

    #[test]
    fn encoding_sizes_match_contract() {
        let audio = AudioBuffer::new(AudioFormat::speech_16khz_mono(), vec![100i16; 1_000]);
        let pcm = AudioEncoding::PcmLe16.encode(&audio);
        let mulaw = AudioEncoding::MuLaw.encode(&audio);
        assert_eq!(pcm.len(), 2_000);
        assert_eq!(mulaw.len(), 1_000);
        assert_eq!(AudioEncoding::PcmLe16.bytes_per_sample(), 2);
        assert_eq!(AudioEncoding::MuLaw.bytes_per_sample(), 1);
    }

    #[test]
    fn encoding_decode_round_trip_preserves_length_and_energy() {
        let format = AudioFormat::speech_16khz_mono();
        let samples: Vec<i16> = (0..1_600)
            .map(|i| ((i as f64 / 20.0).sin() * 9_000.0) as i16)
            .collect();
        let audio = AudioBuffer::new(format, samples);
        for encoding in [AudioEncoding::PcmLe16, AudioEncoding::MuLaw] {
            let encoded = encoding.encode(&audio);
            let mut samples = Vec::new();
            encoding.decode_into(&encoded, &mut samples);
            let decoded = AudioBuffer::new(format, samples);
            assert_eq!(decoded.frames(), audio.frames());
            assert!((decoded.rms() - audio.rms()).abs() < 0.02);
        }
    }
}
