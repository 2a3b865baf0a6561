//! The reusable feature-extraction and inference scratch plan.
//!
//! Every TA-side inference used to allocate its working buffers per
//! window: the MFCC front-end allocated FFT/power/log-mel vectors per
//! *frame*, the featurizers allocated their feature vectors per call, and
//! the dense heads allocated three matrices per prediction. On a 10k-device
//! fleet those allocations dominate the hot path. A [`FeaturePlan`] is the
//! caller-owned cure: one per TA session, holding every scratch buffer the
//! audio and vision paths need. Buffers grow to their high-water mark on
//! first use and are reused for the lifetime of the session — the
//! feature-extraction and classification stages perform **zero**
//! steady-state heap allocations (each audio window's returned token
//! list, the one value that outlives the scratch, remains the single
//! per-window allocation).
//!
//! The plan is deliberately dumb: plain `Vec`s, no lifetimes, no
//! generics. The precomputed *constants* of feature extraction (FFT
//! twiddles, bit-reversal permutation, Hamming window, mel filterbank,
//! DCT basis) live in [`crate::mfcc::MfccExtractor`], which is shared
//! read-only across sessions; the plan carries only the mutable state.

use crate::mfcc::LaneRow;

/// Caller-owned scratch for the TA inference hot path (audio front-end,
/// int8 activations, vision pooling). One per TA session; reused across
/// every window and frame that session processes.
#[derive(Debug, Default, Clone)]
pub struct FeaturePlan {
    /// FFT real parts of an MFCC lane group (`frame_len` rows of
    /// [`crate::mfcc::LANES`] frames), then its power spectrum in the first
    /// `frame_len / 2` rows.
    pub(crate) fft_re: Vec<LaneRow>,
    /// FFT imaginary parts of an MFCC lane group (`max(frame_len,
    /// n_mels)` rows), then its log mel energies in the first `n_mels`.
    pub(crate) fft_im: Vec<LaneRow>,
    /// Per-frame RMS energies of the current window.
    pub(crate) energies: Vec<f64>,
    /// VAD segment bounds `(start_frame, end_frame)` of the current window.
    pub(crate) bounds: Vec<(usize, usize)>,
    /// MFCC features, row-major `frames x n_coeffs`.
    pub(crate) mfcc: Vec<f32>,
    /// Mean cepstral vectors of the current window's VAD segments,
    /// row-major `segments x max(n_coeffs, 1)`.
    pub(crate) mean: Vec<f32>,
    /// Quantized input activations (embedding rows / feature vectors).
    pub(crate) x_q: Vec<i8>,
    /// Quantized hidden activations.
    pub(crate) act_q: Vec<i8>,
    /// i16 head activations (the dense head's high-fidelity path).
    pub(crate) act_q16: Vec<i16>,
    /// Quantized segment-mean cepstral vector (int8 template matching).
    pub(crate) mean_q: Vec<i8>,
    /// Zero-padded quantized patch-mean grid (int8 vision convolution).
    pub(crate) grid_q: Vec<i8>,
    /// i32 matmul accumulators.
    pub(crate) acc: Vec<i32>,
    /// Extracted feature vector (classifier input).
    pub(crate) features: Vec<f32>,
    /// Hidden-layer activations of the classification head.
    pub(crate) hidden: Vec<f32>,
    /// Output-layer activations of the classification head.
    pub(crate) out: Vec<f32>,
    /// Per-patch means of the current frame (vision path).
    pub(crate) means: Vec<f32>,
    /// Per-patch standard deviations of the current frame (vision path).
    pub(crate) stds: Vec<f32>,
}

impl FeaturePlan {
    /// Creates an empty plan. Buffers size themselves on first use and
    /// are retained at their high-water mark afterwards.
    pub fn new() -> Self {
        FeaturePlan::default()
    }

    /// Total bytes currently retained by the plan's scratch buffers —
    /// the per-session working-memory cost of allocation-free inference.
    pub fn retained_bytes(&self) -> usize {
        (self.fft_re.capacity() + self.fft_im.capacity()) * std::mem::size_of::<LaneRow>()
            + self.energies.capacity() * 8
            + self.bounds.capacity() * 16
            + self.mfcc.capacity() * 4
            + self.mean.capacity() * 4
            + self.x_q.capacity()
            + self.act_q.capacity()
            + self.act_q16.capacity() * 2
            + self.mean_q.capacity()
            + self.grid_q.capacity()
            + self.acc.capacity() * 4
            + self.features.capacity() * 4
            + self.hidden.capacity() * 4
            + self.out.capacity() * 4
            + self.means.capacity() * 4
            + self.stds.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_starts_empty_and_reports_retained_bytes() {
        let mut plan = FeaturePlan::new();
        assert_eq!(plan.retained_bytes(), 0);
        plan.features.reserve(16);
        plan.x_q.reserve(32);
        assert!(plan.retained_bytes() >= 16 * 4 + 32);
    }
}
