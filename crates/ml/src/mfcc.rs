//! Audio feature extraction: framing, FFT, mel filterbank, MFCC.
//!
//! The keyword speech-to-text model ([`crate::stt`]) operates on
//! mel-frequency cepstral coefficients, the standard front-end of small
//! speech recognizers. Everything — including the radix-2 FFT — is
//! implemented here.
//!
//! The pipeline runs in **f32 with precomputed tables**: the Hamming
//! window (pre-scaled by the i16 full-scale), every FFT twiddle factor
//! (tabulated per stage as two tables, real and imaginary parts, so the
//! butterfly loop has no dependent rotation recurrence, let alone
//! trigonometry), the mel filterbank taps and the DCT-II basis. Constants
//! are computed once in f64 and rounded to f32; the per-frame arithmetic
//! is pure single-precision, which halves the scratch bandwidth and
//! doubles the SIMD lane count on the TA hot path. Frame energies for VAD
//! are the one exception: the sums of squared i16 samples are **exact
//! integers**, with a single f64 divide and square root per frame at the
//! end. Each sample is squared once: the squares are summed per block of
//! `gcd(frame_len, hop_len)` samples (every frame starts on a block
//! boundary and spans whole blocks) and each frame adds up its blocks.
//! Integer addition gives the same sum in any grouping, so every frame's
//! sum, and so its energy, is the one a per-frame loop makes. A pair of
//! squares is at most 2^31 and fits a `u32`, which lets the block loop
//! vectorise (when optimised) as paired multiply-adds widened to `u64`.
//!
//! **Eight frames at a time.** Extraction runs frames in groups of eight
//! (`LANES`), one frame per lane. A group's buffers are a structure of
//! arrays: row `k` holds element `k` of every frame in the group, so
//! element `k` of lane `l` sits at flat index `k * 8 + l`. Each step is a
//! loop over rows whose body applies one expression to the eight lanes of
//! a row: the window multiply, the bit-reversal swaps, every butterfly
//! stage (len = 2 included), the power spectrum, each mel filter's taps
//! and each DCT coefficient. Within one frame, the FFT's first stages and
//! every sum are serial chains; across the lanes they vectorise. The
//! butterfly stages walk `len`-sized blocks split into
//! equal-length halves, so their loops carry no bounds checks. The power
//! spectrum is written in place over the real parts and the log-mel
//! energies over the imaginary parts, so a group's whole scratch is the
//! two FFT buffers.
//!
//! **Bit-identity.** Lanes never mix, and each lane evaluates exactly the
//! f32 expressions of the one-frame loop in the same order: the window
//! multiply, every butterfly's products and sums, `re*re + im*im`, each
//! filter's taps in order from `Iterator::sum`'s start value, `(e +
//! 1e-10).ln()` (scalar, per lane) and each DCT coefficient summed from
//! 0.0 in mel order. Nothing is reassociated and nothing is fused: Rust
//! never contracts `a * b + c` into a multiply-add, and the AVX2 form
//! enables `avx2` only, never `fma`. So the features are bit-identical to
//! the one-frame loop, and the zero lanes that pad a group's last frames
//! cannot change a real lane. The unit tests keep the one-frame loop and
//! the indexed butterfly as oracles.
//!
//! **Dispatch.** The kernel body is compiled twice: as is, and under
//! `#[target_feature(enable = "avx2")]`. Each group runs the AVX2 form
//! where the same runtime check as the int8 kernels ([`crate::quant`])
//! finds it, and the portable form otherwise. The portable form sits in a
//! function of its own (`#[inline(never)]`): inlined into its caller, it
//! measured 3.3–3.8 µs per frame against 2.3–2.6 µs out of line (release,
//! on a 2-vCPU Xeon with the AVX2 form switched off).

use serde::{Deserialize, Serialize};

use crate::plan::FeaturePlan;
use crate::tensor::Matrix;

/// Frames the extraction kernel runs at once, one per lane.
pub(crate) const LANES: usize = 8;

/// One row of a lane group: element `k` of each of its [`LANES`] frames.
pub(crate) type LaneRow = [f32; LANES];

/// Configuration of the MFCC front-end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MfccConfig {
    /// Sample rate of the input audio.
    pub sample_rate_hz: u32,
    /// Analysis frame length in samples (must be a power of two, at
    /// least 2).
    pub frame_len: usize,
    /// Hop between frames in samples.
    pub hop_len: usize,
    /// Number of mel filterbank channels.
    pub n_mels: usize,
    /// Number of cepstral coefficients to keep.
    pub n_coeffs: usize,
}

impl MfccConfig {
    /// Standard 16 kHz speech configuration: 32 ms frames, 16 ms hop,
    /// 40 mel channels, 20 coefficients. The channel count is chosen so
    /// that neighbouring synthetic word signatures land in distinct mel
    /// bins across the whole 0-8 kHz band (20 channels blur the upper
    /// formants together and the keyword STT's substitution rate soars).
    pub fn speech_16khz() -> Self {
        MfccConfig {
            sample_rate_hz: 16_000,
            frame_len: 512,
            hop_len: 256,
            n_mels: 40,
            n_coeffs: 20,
        }
    }

    /// Why [`MfccExtractor`] cannot run this configuration, if it cannot:
    /// the frame length must be a power of two of at least 2 (the Hamming
    /// window divides by `frame_len - 1`, and the mel filters need one
    /// FFT bin) and the hop must be non-zero.
    pub(crate) fn unsupported(&self) -> Option<&'static str> {
        if self.frame_len < 2 || !self.frame_len.is_power_of_two() {
            Some("frame_len must be a power of two of at least 2")
        } else if self.hop_len == 0 {
            Some("hop_len must be non-zero")
        } else {
            None
        }
    }
}

impl Default for MfccConfig {
    fn default() -> Self {
        MfccConfig::speech_16khz()
    }
}

/// In-place iterative radix-2 FFT over split re/im buffers (one-shot
/// plan; the extractor holds a persistent [`FftPlan`]).
///
/// # Panics
///
/// Panics if the length is not a power of two (guarded by the extractor).
#[cfg(test)]
fn fft_radix2(re: &mut [f32], im: &mut [f32]) {
    let n = re.len();
    let plan = FftPlan::new(n);
    plan.run(re, im);
}

/// The precomputed constants of one radix-2 FFT size: the bit-reversal
/// permutation and the **full twiddle tables** of every butterfly stage.
/// Building the plan costs one pass of f64 trigonometry at extractor
/// construction; every subsequent frame reuses it — the FFT hot loop
/// performs no `sin`/`cos` and no incremental rotation, just loads from
/// `n - 1` tabulated twiddles. The real and imaginary parts live in two
/// separate tables, so a stage's twiddles are two contiguous `f32` slices
/// that line up row for row with the block halves they multiply.
#[derive(Debug, Clone)]
struct FftPlan {
    n: usize,
    /// Swap targets of the bit-reversal permutation (`i < j` pairs only).
    swaps: Vec<(u32, u32)>,
    /// Twiddle cosines of stage `s` (len = 2^(s+1)): `len/2` values,
    /// flattened stage after stage (offset of stage `s` is `2^s - 1`).
    tw_re: Vec<f32>,
    /// Twiddle sines, laid out like `tw_re`.
    tw_im: Vec<f32>,
}

impl FftPlan {
    fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "fft length must be a power of two");
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let mut tw_re = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_im = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            for k in 0..len / 2 {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                tw_re.push(angle.cos() as f32);
                tw_im.push(angle.sin() as f32);
            }
            len <<= 1;
        }
        FftPlan {
            n,
            swaps,
            tw_re,
            tw_im,
        }
    }

    /// Runs the planned FFT in place over one frame: the one-frame form
    /// of [`FftPlan::run_lanes`], kept as the oracle the lane FFT and the
    /// extraction kernel are tested against.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ from the planned length.
    #[cfg(test)]
    fn run(&self, re: &mut [f32], im: &mut [f32]) {
        let n = self.n;
        assert_eq!(re.len(), n, "fft buffer does not match the plan");
        assert_eq!(im.len(), n, "fft buffer does not match the plan");
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            re.swap(i as usize, j as usize);
            im.swap(i as usize, j as usize);
        }
        // len = 2: one twiddle, and each block's halves are single
        // elements, so walk the adjacent pairs directly.
        let (w_re, w_im) = (self.tw_re[0], self.tw_im[0]);
        for (re, im) in re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2)) {
            let (even_re, even_im) = (re[0], im[0]);
            let odd_re = re[1] * w_re - im[1] * w_im;
            let odd_im = re[1] * w_im + im[1] * w_re;
            re[0] = even_re + odd_re;
            im[0] = even_im + odd_im;
            re[1] = even_re - odd_re;
            im[1] = even_im - odd_im;
        }
        // len >= 4: stage twiddles start at offset `half - 1`.
        let mut half = 2usize;
        while half < n {
            let len = 2 * half;
            let tw_re = &self.tw_re[half - 1..len - 1];
            let tw_im = &self.tw_im[half - 1..len - 1];
            for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
                butterflies(re, im, tw_re, tw_im);
            }
            half = len;
        }
    }

    /// Runs the planned FFT in place over a lane group: [`LANES`] frames
    /// at once, row `k` holding element `k` of each. Every lane evaluates
    /// the f32 expressions of the one-frame FFT in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ from the planned length.
    #[inline(always)]
    fn run_lanes(&self, re: &mut [LaneRow], im: &mut [LaneRow]) {
        let n = self.n;
        assert_eq!(re.len(), n, "fft buffer does not match the plan");
        assert_eq!(im.len(), n, "fft buffer does not match the plan");
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            re.swap(i as usize, j as usize);
            im.swap(i as usize, j as usize);
        }
        // len = 2: one twiddle, and each block's halves are single rows,
        // so walk the adjacent row pairs directly.
        let (w_re, w_im) = (self.tw_re[0], self.tw_im[0]);
        let (re_pairs, _) = re.as_chunks_mut::<2>();
        let (im_pairs, _) = im.as_chunks_mut::<2>();
        for ([lo_re, hi_re], [lo_im, hi_im]) in re_pairs.iter_mut().zip(im_pairs) {
            lane_butterfly(lo_re, lo_im, hi_re, hi_im, w_re, w_im);
        }
        // len >= 4: stage twiddles start at offset `half - 1`.
        let mut half = 2usize;
        while half < n {
            let len = 2 * half;
            let tw_re = &self.tw_re[half - 1..len - 1];
            let tw_im = &self.tw_im[half - 1..len - 1];
            for (re, im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
                let (lo_re, hi_re) = re.split_at_mut(half);
                let (lo_im, hi_im) = im.split_at_mut(half);
                for ((((lo_re, lo_im), (hi_re, hi_im)), &w_re), &w_im) in lo_re
                    .iter_mut()
                    .zip(lo_im)
                    .zip(hi_re.iter_mut().zip(hi_im))
                    .zip(tw_re)
                    .zip(tw_im)
                {
                    lane_butterfly(lo_re, lo_im, hi_re, hi_im, w_re, w_im);
                }
            }
            half = len;
        }
    }
}

/// One block of a butterfly stage: `re`/`im` hold `2 * half` values and
/// the twiddle slices `half`. Every slice is cut to exactly `half`
/// elements up front, so the indexed loop below carries no bounds checks
/// and the four disjoint `&mut` halves let it vectorise.
#[cfg(test)]
fn butterflies(re: &mut [f32], im: &mut [f32], tw_re: &[f32], tw_im: &[f32]) {
    let half = tw_re.len();
    let (lo_re, hi_re) = re.split_at_mut(half);
    let (lo_im, hi_im) = im.split_at_mut(half);
    let (hi_re, hi_im, tw_im) = (&mut hi_re[..half], &mut hi_im[..half], &tw_im[..half]);
    for k in 0..half {
        let (even_re, even_im) = (lo_re[k], lo_im[k]);
        let odd_re = hi_re[k] * tw_re[k] - hi_im[k] * tw_im[k];
        let odd_im = hi_re[k] * tw_im[k] + hi_im[k] * tw_re[k];
        lo_re[k] = even_re + odd_re;
        lo_im[k] = even_im + odd_im;
        hi_re[k] = even_re - odd_re;
        hi_im[k] = even_im - odd_im;
    }
}

/// One butterfly on every lane of a row pair, with the one-frame
/// butterfly's expressions: `lo` becomes `lo + w * hi` and `hi` becomes
/// `lo - w * hi`.
#[inline(always)]
fn lane_butterfly(
    lo_re: &mut LaneRow,
    lo_im: &mut LaneRow,
    hi_re: &mut LaneRow,
    hi_im: &mut LaneRow,
    w_re: f32,
    w_im: f32,
) {
    for l in 0..LANES {
        let (even_re, even_im) = (lo_re[l], lo_im[l]);
        let odd_re = hi_re[l] * w_re - hi_im[l] * w_im;
        let odd_im = hi_re[l] * w_im + hi_im[l] * w_re;
        lo_re[l] = even_re + odd_re;
        lo_im[l] = even_im + odd_im;
        hi_re[l] = even_re - odd_re;
        hi_im[l] = even_im - odd_im;
    }
}

/// The exact sum of the squares of `block`. A square of an `i16` is at
/// most 2^30, so a pair of them fits a `u32` (as a multiply-add of 16-bit
/// lanes makes it), and the pairs add up in `u64`.
fn sum_of_squares(block: &[i16]) -> u64 {
    let square = |s: i16| (i32::from(s) * i32::from(s)) as u32;
    let (pairs, odd) = block.as_chunks::<2>();
    let pairs: u64 = pairs
        .iter()
        .map(|&[a, b]| u64::from(square(a) + square(b)))
        .sum();
    pairs + odd.iter().map(|&s| u64::from(square(s))).sum::<u64>()
}

fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// The MFCC front-end.
///
/// Construction precomputes every constant of the pipeline — the
/// pre-scaled Hamming window, the mel filterbank taps, the FFT plan
/// (bit-reversal + full twiddle tables) and the DCT-II basis — so
/// extraction touches no trigonometry and runs entirely in f32. Paired
/// with a [`FeaturePlan`]'s scratch buffers
/// ([`MfccExtractor::extract_into`]), a warm extractor processes frames
/// with **zero** heap allocations.
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    config: MfccConfig,
    /// Hamming window pre-divided by the i16 full scale: one multiply
    /// turns a raw sample into a windowed, normalized f32.
    window: Vec<f32>,
    filterbank: Vec<Vec<(usize, f32)>>,
    fft: FftPlan,
    /// DCT-II basis, row-major `n_coeffs x n_mels`.
    dct: Vec<f32>,
}

impl MfccExtractor {
    /// Builds the extractor (precomputes the Hamming window and the mel
    /// filterbank).
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` is not a power of two, or is below 2, or if
    /// `hop_len` is zero.
    pub fn new(config: MfccConfig) -> Self {
        if let Some(reason) = config.unsupported() {
            panic!("unsupported MFCC configuration: {reason}");
        }
        let window: Vec<f32> = (0..config.frame_len)
            .map(|i| {
                let hamming = 0.54
                    - 0.46
                        * (2.0 * std::f64::consts::PI * i as f64 / (config.frame_len - 1) as f64)
                            .cos();
                (hamming / i16::MAX as f64) as f32
            })
            .collect();
        // Triangular mel filters over the FFT bins.
        let n_bins = config.frame_len / 2;
        let f_max = config.sample_rate_hz as f64 / 2.0;
        let mel_max = hz_to_mel(f_max);
        let mel_points: Vec<f64> = (0..config.n_mels + 2)
            .map(|i| mel_to_hz(mel_max * i as f64 / (config.n_mels + 1) as f64))
            .collect();
        let bin_of = |hz: f64| -> usize { ((hz / f_max) * (n_bins as f64 - 1.0)).round() as usize };
        let mut filterbank = Vec::with_capacity(config.n_mels);
        for m in 1..=config.n_mels {
            let left = bin_of(mel_points[m - 1]);
            let centre = bin_of(mel_points[m]).max(left + 1);
            let right = bin_of(mel_points[m + 1])
                .max(centre + 1)
                .min(n_bins - 1)
                .max(centre + 1);
            let mut taps = Vec::new();
            for b in left..=right.min(n_bins - 1) {
                let w = if b <= centre {
                    (b - left) as f64 / (centre - left) as f64
                } else {
                    (right - b) as f64 / (right - centre) as f64
                };
                if w > 0.0 {
                    taps.push((b, w as f32));
                }
            }
            filterbank.push(taps);
        }
        let dct = (0..config.n_coeffs)
            .flat_map(|c| {
                (0..config.n_mels).map(move |m| {
                    (std::f64::consts::PI * c as f64 * (m as f64 + 0.5) / config.n_mels as f64)
                        .cos() as f32
                })
            })
            .collect();
        MfccExtractor {
            config,
            window,
            filterbank,
            fft: FftPlan::new(config.frame_len),
            dct,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> MfccConfig {
        self.config
    }

    /// Number of frames that `samples.len()` samples produce.
    pub fn frame_count(&self, samples: usize) -> usize {
        if samples < self.config.frame_len {
            0
        } else {
            (samples - self.config.frame_len) / self.config.hop_len + 1
        }
    }

    /// Per-frame RMS energy (used for voice-activity segmentation).
    pub fn frame_energies(&self, samples: &[i16]) -> Vec<f64> {
        let mut out = Vec::new();
        self.frame_energies_into(samples, &mut out);
        out
    }

    /// [`MfccExtractor::frame_energies`] into a caller-owned buffer —
    /// allocation-free once the buffer is warm. The per-frame sum of
    /// squared samples is an exact integer, formed from per-block sums
    /// (see the module docs); only the final normalization and square
    /// root touch floating point.
    pub fn frame_energies_into(&self, samples: &[i16], out: &mut Vec<f64>) {
        let MfccConfig {
            frame_len, hop_len, ..
        } = self.config;
        let frames = self.frame_count(samples.len());
        // The gcd of a power of two and the hop, capped at 2^22 samples so
        // that a block's sum (at most 2^52) is exact in the f64 slot that
        // holds it.
        let log_block = hop_len.trailing_zeros().min(frame_len.trailing_zeros());
        let block = 1usize << log_block.min(22);
        let (frame_blocks, hop_blocks) = (frame_len / block, hop_len / block);
        let blocks = frames
            .checked_sub(1)
            .map_or(0, |last| last * hop_blocks + frame_blocks);
        // The block sums go after the energies and are cut off at the end.
        out.clear();
        out.resize(frames + blocks, 0.0);
        let (energies, block_sums) = out.split_at_mut(frames);
        for (sum, chunk) in block_sums.iter_mut().zip(samples.chunks_exact(block)) {
            *sum = sum_of_squares(chunk) as f64;
        }
        let full_scale = i16::MAX as f64 * i16::MAX as f64;
        for (frame, energy) in energies.iter_mut().enumerate() {
            let first = frame * hop_blocks;
            let sum_sq: u64 = block_sums[first..first + frame_blocks]
                .iter()
                .map(|&sum| sum as u64)
                .sum();
            *energy = (sum_sq as f64 / (full_scale * frame_len as f64)).sqrt();
        }
        out.truncate(frames);
    }

    /// Extracts MFCC features: one row per frame, `n_coeffs` columns.
    /// Returns an empty (0-row) matrix for audio shorter than one frame.
    pub fn extract(&self, samples: &[i16]) -> Matrix {
        let mut plan = FeaturePlan::new();
        let frames = self.extract_into(samples, &mut plan);
        Matrix::from_vec(frames, self.config.n_coeffs, plan.mfcc)
            .expect("extract_into produced a full feature grid")
    }

    /// Extracts MFCC features into the plan's scratch: on return,
    /// `plan.mfcc` holds the features row-major (`frames x n_coeffs`) and
    /// the frame count is returned. The arithmetic is identical to
    /// [`MfccExtractor::extract`]; the difference is that a warm plan
    /// makes the call allocation-free — the lane group and feature
    /// buffers are reused.
    pub fn extract_into(&self, samples: &[i16], plan: &mut FeaturePlan) -> usize {
        self.extract_frames_into(samples, 0..self.frame_count(samples.len()), plan)
    }

    /// Extracts the MFCC of the listed frames (indices counted in hops,
    /// each a whole frame of `samples`) into `plan.mfcc`, one row per
    /// listed frame in list order, and returns the number of rows. The
    /// frames run [`LANES`] at a time, so a list of any shape leaves at
    /// most its last group partial.
    ///
    /// # Panics
    ///
    /// Panics if a listed frame runs past the end of `samples`.
    pub(crate) fn extract_frames_into(
        &self,
        samples: &[i16],
        frames: impl IntoIterator<Item = usize>,
        plan: &mut FeaturePlan,
    ) -> usize {
        let MfccConfig {
            frame_len,
            hop_len,
            n_mels,
            n_coeffs,
            ..
        } = self.config;
        let mut frames = frames.into_iter();
        let mut rows = 0;
        plan.mfcc.clear();
        loop {
            let mut starts = [0usize; LANES];
            let mut lanes = 0;
            for (start, frame) in starts.iter_mut().zip(&mut frames) {
                *start = frame * hop_len;
                lanes += 1;
            }
            if lanes == 0 {
                return rows;
            }
            plan.fft_re.resize(frame_len, [0.0; LANES]);
            plan.fft_im.resize(frame_len.max(n_mels), [0.0; LANES]);
            plan.mfcc.resize((rows + lanes) * n_coeffs, 0.0);
            self.extract_group(
                samples,
                &starts[..lanes],
                &mut plan.fft_re,
                &mut plan.fft_im,
                &mut plan.mfcc[rows * n_coeffs..],
            );
            rows += lanes;
        }
    }

    /// Runs one lane group — the frames of `samples` at the offsets
    /// `starts`, at most [`LANES`] of them — through the AVX2 form of the
    /// kernel where the host has AVX2 and the portable form otherwise,
    /// writing one row of `out` per frame.
    fn extract_group(
        &self,
        samples: &[i16],
        starts: &[usize],
        re: &mut [LaneRow],
        im: &mut [LaneRow],
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if crate::quant::x86::avx2_available() {
            // SAFETY: the AVX2 form needs nothing but AVX2, which the
            // host has (checked on the line above).
            #[allow(unsafe_code)]
            unsafe {
                self.extract_group_avx2(samples, starts, re, im, out);
            }
            return;
        }
        self.extract_group_portable(samples, starts, re, im, out);
    }

    /// The portable form of the kernel. It stays out of line, where it
    /// runs faster than inlined (see the module docs).
    #[inline(never)]
    fn extract_group_portable(
        &self,
        samples: &[i16],
        starts: &[usize],
        re: &mut [LaneRow],
        im: &mut [LaneRow],
        out: &mut [f32],
    ) {
        self.group_kernel(samples, starts, re, im, out);
    }

    /// The kernel compiled for AVX2. It enables `avx2` only, never `fma`,
    /// so no multiply-add instruction can stand in for a multiply and an
    /// add.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2")]
    unsafe fn extract_group_avx2(
        &self,
        samples: &[i16],
        starts: &[usize],
        re: &mut [LaneRow],
        im: &mut [LaneRow],
        out: &mut [f32],
    ) {
        self.group_kernel(samples, starts, re, im, out);
    }

    /// The kernel body both forms compile: window, FFT, power spectrum,
    /// log-mel energies and DCT for up to [`LANES`] frames, each lane in
    /// the one-frame order of operations (see the module docs). Lanes
    /// past `starts.len()` are zero and their rows are not written.
    /// `re` holds `frame_len` rows and `im` `max(frame_len, n_mels)`;
    /// `out` has room for `starts.len()` rows of `n_coeffs`.
    #[inline(always)]
    fn group_kernel(
        &self,
        samples: &[i16],
        starts: &[usize],
        re: &mut [LaneRow],
        im: &mut [LaneRow],
        out: &mut [f32],
    ) {
        let MfccConfig {
            frame_len: n,
            n_mels,
            n_coeffs,
            ..
        } = self.config;
        let n_bins = n / 2;
        // Window. It carries the 1/i16::MAX normalization, so this is one
        // multiply per sample.
        if starts.len() < LANES {
            re.fill([0.0; LANES]);
        }
        for (lane, &start) in starts.iter().enumerate() {
            let frame = &samples[start..start + n];
            for ((row, &s), &w) in re.iter_mut().zip(frame).zip(&self.window) {
                row[lane] = s as f32 * w;
            }
        }
        im[..n].fill([0.0; LANES]);
        self.fft.run_lanes(re, &mut im[..n]);
        // Power spectrum (first half), over the real parts.
        for (re, im) in re[..n_bins].iter_mut().zip(&im[..n_bins]) {
            for l in 0..LANES {
                re[l] = re[l] * re[l] + im[l] * im[l];
            }
        }
        // Mel filterbank energies, log compressed, over the imaginary
        // parts (the power spectrum has consumed them).
        let power = &re[..n_bins];
        for (taps, log_mel) in self.filterbank.iter().zip(im.iter_mut()) {
            // `Iterator::sum` over f32, which the one-frame loop used,
            // folds from -0.0.
            let mut e = [-0.0f32; LANES];
            for &(b, w) in taps {
                for (e, &p) in e.iter_mut().zip(&power[b]) {
                    *e += p * w;
                }
            }
            for (log_mel, e) in log_mel.iter_mut().zip(e) {
                *log_mel = (e + 1e-10).ln();
            }
        }
        // DCT-II to cepstral coefficients via the precomputed basis.
        let log_mel = &im[..n_mels];
        for c in 0..n_coeffs {
            let basis = &self.dct[c * n_mels..(c + 1) * n_mels];
            let mut acc = [0.0f32; LANES];
            for (lm, &b) in log_mel.iter().zip(basis) {
                for l in 0..LANES {
                    acc[l] += lm[l] * b;
                }
            }
            for (row, &v) in out.chunks_exact_mut(n_coeffs).zip(&acc[..starts.len()]) {
                row[c] = v;
            }
        }
    }

    /// Mean MFCC vector over all frames (zero vector if no frames).
    pub fn mean_vector(&self, samples: &[i16]) -> Vec<f32> {
        let features = self.extract(samples);
        if features.rows() == 0 {
            return vec![0.0; self.config.n_coeffs];
        }
        features.mean_rows().data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The indexed radix-2 butterfly loop the planned FFT replaced, kept as
    /// the bit-identity oracle: same tables, same f32 expressions, with
    /// every element addressed by index.
    fn fft_ref(plan: &FftPlan, re: &mut [f32], im: &mut [f32]) {
        let n = plan.n;
        if n <= 1 {
            return;
        }
        for &(i, j) in &plan.swaps {
            re.swap(i as usize, j as usize);
            im.swap(i as usize, j as usize);
        }
        let mut len = 2usize;
        let mut stage_offset = 0usize;
        while len <= n {
            let half = len / 2;
            let mut i = 0;
            while i < n {
                for k in 0..half {
                    let w_re = plan.tw_re[stage_offset + k];
                    let w_im = plan.tw_im[stage_offset + k];
                    let even_re = re[i + k];
                    let even_im = im[i + k];
                    let odd_re = re[i + k + half] * w_re - im[i + k + half] * w_im;
                    let odd_im = re[i + k + half] * w_im + im[i + k + half] * w_re;
                    re[i + k] = even_re + odd_re;
                    im[i + k] = even_im + odd_im;
                    re[i + k + half] = even_re - odd_re;
                    im[i + k + half] = even_im - odd_im;
                }
                i += len;
            }
            stage_offset += half;
            len <<= 1;
        }
    }

    /// Seeded splitmix64 values in roughly [-scale, scale], with exact
    /// zeros of both signs sprinkled in.
    fn random_signal(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        splitmix(seed)
            .take(n)
            .map(|z| match z % 29 {
                0 => 0.0,
                1 => -0.0,
                _ => ((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32 * scale,
            })
            .collect()
    }

    /// A seeded splitmix64 stream.
    fn splitmix(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    proptest! {
        /// The planned FFT equals the indexed oracle bit for bit, at every
        /// power-of-two size from 2 to 1024 and on complex inputs of any
        /// magnitude.
        #[test]
        fn planned_fft_is_bit_identical_to_the_indexed_oracle(
            seed in any::<u64>(),
            scale in 1.0e-3f32..1.0e4,
        ) {
            for log_n in 1..=10 {
                let n = 1usize << log_n;
                let plan = FftPlan::new(n);
                let mut re = random_signal(n, seed, scale);
                let mut im = random_signal(n, seed ^ 0xA5A5_A5A5, scale);
                let (mut re_ref, mut im_ref) = (re.clone(), im.clone());
                plan.run(&mut re, &mut im);
                fft_ref(&plan, &mut re_ref, &mut im_ref);
                for k in 0..n {
                    prop_assert_eq!(re[k].to_bits(), re_ref[k].to_bits(), "re[{}] at n={}", k, n);
                    prop_assert_eq!(im[k].to_bits(), im_ref[k].to_bits(), "im[{}] at n={}", k, n);
                }
                // The lane FFT, each lane its own signal.
                let lanes: Vec<(Vec<f32>, Vec<f32>)> = (0..LANES as u64)
                    .map(|l| {
                        let lane_seed = seed.wrapping_add(l.wrapping_mul(0x9E37_79B9));
                        (random_signal(n, lane_seed, scale), random_signal(n, !lane_seed, scale))
                    })
                    .collect();
                let mut lane_re = vec![[0.0f32; LANES]; n];
                let mut lane_im = vec![[0.0f32; LANES]; n];
                for (l, (re, im)) in lanes.iter().enumerate() {
                    for k in 0..n {
                        lane_re[k][l] = re[k];
                        lane_im[k][l] = im[k];
                    }
                }
                plan.run_lanes(&mut lane_re, &mut lane_im);
                for (l, (re, im)) in lanes.iter().enumerate() {
                    let (mut re_ref, mut im_ref) = (re.clone(), im.clone());
                    fft_ref(&plan, &mut re_ref, &mut im_ref);
                    for k in 0..n {
                        prop_assert_eq!(lane_re[k][l].to_bits(), re_ref[k].to_bits(), "lane {} re[{}] at n={}", l, k, n);
                        prop_assert_eq!(lane_im[k][l].to_bits(), im_ref[k].to_bits(), "lane {} im[{}] at n={}", l, k, n);
                    }
                }
            }
        }
    }

    /// The one-frame extraction body the lane kernel replaced, kept as its
    /// bit-identity oracle: window, planned FFT, power spectrum, each
    /// filter's taps through `Iterator::sum`, `ln`, and the DCT.
    fn extract_frame_ref(ex: &MfccExtractor, frame: &[i16]) -> Vec<f32> {
        let MfccConfig {
            frame_len,
            n_mels,
            n_coeffs,
            ..
        } = ex.config;
        let n_bins = frame_len / 2;
        let mut re: Vec<f32> = frame
            .iter()
            .zip(ex.window.iter())
            .map(|(&s, &w)| s as f32 * w)
            .collect();
        let mut im = vec![0.0f32; frame_len];
        ex.fft.run(&mut re, &mut im);
        let power: Vec<f32> = re[..n_bins]
            .iter()
            .zip(&im[..n_bins])
            .map(|(&re, &im)| re * re + im * im)
            .collect();
        let log_mel: Vec<f32> = ex
            .filterbank
            .iter()
            .map(|taps| {
                let e: f32 = taps.iter().map(|&(b, w)| power[b] * w).sum();
                (e + 1e-10).ln()
            })
            .collect();
        (0..n_coeffs)
            .map(|c| {
                let basis = &ex.dct[c * n_mels..(c + 1) * n_mels];
                let mut acc = 0.0f32;
                for (&lm, &b) in log_mel.iter().zip(basis) {
                    acc += lm * b;
                }
                acc
            })
            .collect()
    }

    /// One form of the group kernel, called directly.
    type Arm = fn(&MfccExtractor, &[i16], &[usize], &mut [LaneRow], &mut [LaneRow], &mut [f32]);

    /// Runs `frames` through one form of the kernel, [`LANES`] at a time.
    fn extract_with_arm(
        ex: &MfccExtractor,
        samples: &[i16],
        frames: &[usize],
        arm: Arm,
    ) -> Vec<f32> {
        let MfccConfig {
            frame_len,
            hop_len,
            n_mels,
            n_coeffs,
            ..
        } = ex.config;
        let mut re = vec![[0.0f32; LANES]; frame_len];
        let mut im = vec![[0.0f32; LANES]; frame_len.max(n_mels)];
        let mut out = vec![0.0f32; frames.len() * n_coeffs];
        for (group, rows) in frames.chunks(LANES).zip(out.chunks_mut(LANES * n_coeffs)) {
            let starts: Vec<usize> = group.iter().map(|&f| f * hop_len).collect();
            arm(ex, samples, &starts, &mut re, &mut im, rows);
        }
        out
    }

    /// Seeded i16 signals: uniform over the whole range, silence, or a
    /// full-scale square wave through `i16::MIN`, 0 and `i16::MAX`.
    fn random_pcm(len: usize, seed: u64, kind: u8) -> Vec<i16> {
        splitmix(seed)
            .take(len)
            .map(|z| match kind {
                0 => z as i16,
                1 => 0,
                _ => [i16::MIN, 0, i16::MAX][(z % 3) as usize],
            })
            .collect()
    }

    proptest! {
        /// Every form of the lane kernel — the dispatched path, the
        /// portable arm and (on an AVX2 host) the AVX2 arm — equals the
        /// one-frame oracle bit for bit, on any frame list: runs with gaps
        /// between them and a last group of 1 to 7 frames. Half the cases
        /// run the speech configuration, the rest frames of 2 to 1024
        /// samples with any hop, mel and coefficient counts.
        #[test]
        fn lane_kernel_is_bit_identical_to_the_per_frame_oracle(
            speech in any::<bool>(),
            log_n in 1u32..=10,
            hop_div in 1usize..=8,
            n_mels in 1usize..=48,
            n_coeffs in 1usize..=24,
            len in 0usize..6_000,
            kind in 0u8..3,
            seed in any::<u64>(),
            keep_per_mille in 0u64..=1_000,
        ) {
            let config = if speech {
                MfccConfig::speech_16khz()
            } else {
                let frame_len = 1usize << log_n;
                MfccConfig {
                    sample_rate_hz: 16_000,
                    frame_len,
                    hop_len: (frame_len / hop_div).max(1),
                    n_mels,
                    n_coeffs,
                }
            };
            let ex = MfccExtractor::new(config);
            let samples = random_pcm(len, seed, kind);
            let frames: Vec<usize> = (0..ex.frame_count(len))
                .filter(|&f| {
                    let z = (seed ^ f as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (z >> 32) % 1_000 < keep_per_mille
                })
                .collect();
            let hop = config.hop_len;
            let want: Vec<u32> = frames
                .iter()
                .flat_map(|&f| extract_frame_ref(&ex, &samples[f * hop..f * hop + config.frame_len]))
                .map(f32::to_bits)
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut plan = FeaturePlan::new();
            let rows = ex.extract_frames_into(&samples, frames.iter().copied(), &mut plan);
            prop_assert_eq!(rows, frames.len());
            prop_assert_eq!(bits(&plan.mfcc), want.clone(), "dispatched");
            let portable = extract_with_arm(&ex, &samples, &frames, MfccExtractor::extract_group_portable);
            prop_assert_eq!(bits(&portable), want.clone(), "portable arm");
            #[cfg(target_arch = "x86_64")]
            if crate::quant::x86::avx2_available() {
                #[allow(unsafe_code)]
                let avx2 = extract_with_arm(&ex, &samples, &frames, |ex, samples, starts, re, im, out| {
                    // SAFETY: AVX2 presence checked above.
                    unsafe { ex.extract_group_avx2(samples, starts, re, im, out) }
                });
                prop_assert_eq!(bits(&avx2), want, "AVX2 arm");
            }
        }
    }

    fn tone(freq: f64, len: usize, rate: f64, amplitude: f64) -> Vec<i16> {
        (0..len)
            .map(|i| {
                ((2.0 * std::f64::consts::PI * freq * i as f64 / rate).sin()
                    * amplitude
                    * i16::MAX as f64) as i16
            })
            .collect()
    }

    #[test]
    fn fft_of_pure_tone_peaks_at_the_right_bin() {
        let n = 512usize;
        let rate = 16_000.0;
        let freq = 1_000.0;
        let samples = tone(freq, n, rate, 0.9);
        let mut re: Vec<f32> = samples
            .iter()
            .map(|&s| s as f32 / i16::MAX as f32)
            .collect();
        let mut im = vec![0.0f32; n];
        fft_radix2(&mut re, &mut im);
        let mags: Vec<f32> = (0..n / 2)
            .map(|i| (re[i] * re[i] + im[i] * im[i]).sqrt())
            .collect();
        let peak_bin = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let expected_bin = (freq / rate * n as f64).round() as usize;
        assert!(
            (peak_bin as i64 - expected_bin as i64).abs() <= 1,
            "peak at bin {peak_bin}, expected {expected_bin}"
        );
    }

    #[test]
    fn planned_fft_matches_an_f64_reference() {
        // The tabulated-twiddle f32 FFT against a straightforward f64 DFT:
        // per-bin error stays at single-precision noise level relative to
        // the signal, across non-trivial inputs.
        let n = 256usize;
        let input: Vec<f64> = (0..n)
            .map(|i| {
                (2.0 * std::f64::consts::PI * 13.0 * i as f64 / n as f64).sin() * 0.7
                    + (2.0 * std::f64::consts::PI * 57.0 * i as f64 / n as f64).cos() * 0.2
            })
            .collect();
        let mut re: Vec<f32> = input.iter().map(|&v| v as f32).collect();
        let mut im = vec![0.0f32; n];
        fft_radix2(&mut re, &mut im);
        for bin in 0..n {
            let (mut want_re, mut want_im) = (0.0f64, 0.0f64);
            for (i, &v) in input.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (bin * i) as f64 / n as f64;
                want_re += v * angle.cos();
                want_im += v * angle.sin();
            }
            assert!(
                (re[bin] as f64 - want_re).abs() < 1e-2 && (im[bin] as f64 - want_im).abs() < 1e-2,
                "bin {bin}: ({}, {}) vs f64 ({want_re}, {want_im})",
                re[bin],
                im[bin]
            );
        }
    }

    /// The per-frame loop the block sums replaced, kept as the energy
    /// oracle: each frame's squares summed in `i64`, then the same divide
    /// and square root.
    fn frame_energies_ref(ex: &MfccExtractor, samples: &[i16]) -> Vec<f64> {
        let full_scale = i16::MAX as f64 * i16::MAX as f64;
        (0..ex.frame_count(samples.len()))
            .map(|f| {
                let start = f * ex.config.hop_len;
                let frame = &samples[start..start + ex.config.frame_len];
                let sum_sq: i64 = frame
                    .iter()
                    .map(|&s| {
                        let v = i64::from(s);
                        v * v
                    })
                    .sum();
                (sum_sq as f64 / (full_scale * frame.len() as f64)).sqrt()
            })
            .collect()
    }

    proptest! {
        /// The block-sum energies equal the per-frame oracle bit for bit,
        /// for frames of 2 to 1024 samples and hops from 1 to twice the
        /// frame (so hops that do not divide the frame and hops longer
        /// than it), over uniform, silent, all-`i16::MIN` and alternating
        /// full-scale audio. `i16::MIN` squared twice is 2^31, which only
        /// an unsigned pair sum holds.
        #[test]
        fn frame_energies_are_bit_identical_to_the_per_frame_oracle(
            log_frame in 1u32..11,
            hop_pick in 0usize..2048,
            len in 0usize..6001,
            seed in any::<u64>(),
            kind in 0u8..4,
        ) {
            let frame_len = 1usize << log_frame;
            let hop_len = hop_pick % (2 * frame_len) + 1;
            let ex = MfccExtractor::new(MfccConfig {
                frame_len,
                hop_len,
                ..MfccConfig::speech_16khz()
            });
            let samples: Vec<i16> = match kind {
                0 => random_pcm(len, seed, 0),
                1 => vec![0; len],
                2 => vec![i16::MIN; len],
                _ => (0..len).map(|i| if i % 2 == 0 { i16::MAX } else { i16::MIN }).collect(),
            };
            let want = frame_energies_ref(&ex, &samples);
            // A warm buffer holding stale values must not leak into the
            // result.
            let mut got = vec![f64::NAN; 7];
            ex.frame_energies_into(&samples, &mut got);
            prop_assert_eq!(got.len(), want.len());
            for (frame, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "frame {}", frame);
            }
        }
    }

    #[test]
    fn planned_extraction_reuses_scratch_and_matches() {
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let mut plan = crate::plan::FeaturePlan::new();
        for freq in [300.0, 1_000.0, 2_400.0] {
            let samples = tone(freq, 4_096, 16_000.0, 0.7);
            let frames = ex.extract_into(&samples, &mut plan);
            let reference = ex.extract(&samples);
            assert_eq!(frames, reference.rows());
            assert_eq!(plan.mfcc, reference.data());
            let mut energies = Vec::new();
            ex.frame_energies_into(&samples, &mut energies);
            assert_eq!(energies, ex.frame_energies(&samples));
        }
    }

    #[test]
    #[should_panic(expected = "frame_len must be a power of two of at least 2")]
    fn a_one_sample_frame_is_refused_at_construction() {
        MfccExtractor::new(MfccConfig {
            frame_len: 1,
            ..MfccConfig::speech_16khz()
        });
    }

    #[test]
    fn frame_count_and_short_audio() {
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        assert_eq!(ex.frame_count(100), 0);
        assert_eq!(ex.frame_count(512), 1);
        assert_eq!(ex.frame_count(512 + 256), 2);
        assert_eq!(ex.extract(&[0i16; 100]).rows(), 0);
        assert_eq!(
            ex.mean_vector(&[0i16; 100]).len(),
            MfccConfig::speech_16khz().n_coeffs
        );
    }

    #[test]
    fn different_tones_have_different_mfcc_signatures() {
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let low = ex.mean_vector(&tone(300.0, 4_096, 16_000.0, 0.7));
        let high = ex.mean_vector(&tone(3_000.0, 4_096, 16_000.0, 0.7));
        let same_low = ex.mean_vector(&tone(300.0, 4_096, 16_000.0, 0.7));
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        assert!(dist(&low, &high) > 5.0 * dist(&low, &same_low).max(1e-3));
    }

    #[test]
    fn energies_reflect_amplitude() {
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let loud = tone(500.0, 2_048, 16_000.0, 0.8);
        let soft = tone(500.0, 2_048, 16_000.0, 0.05);
        let quiet = vec![0i16; 2_048];
        let e_loud: f64 = ex.frame_energies(&loud).iter().sum();
        let e_soft: f64 = ex.frame_energies(&soft).iter().sum();
        let e_quiet: f64 = ex.frame_energies(&quiet).iter().sum();
        assert!(e_loud > e_soft);
        assert!(e_soft > e_quiet);
        assert!(e_quiet < 1e-9);
    }

    #[test]
    fn mfcc_is_amplitude_robust_but_frequency_sensitive() {
        // The log compression makes MFCC far more sensitive to spectral
        // shape than to level, which is what the template matcher needs.
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let ref_tone = ex.mean_vector(&tone(800.0, 4_096, 16_000.0, 0.8));
        let quieter = ex.mean_vector(&tone(800.0, 4_096, 16_000.0, 0.4));
        let other = ex.mean_vector(&tone(2_400.0, 4_096, 16_000.0, 0.8));
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        assert!(dist(&ref_tone, &quieter) < dist(&ref_tone, &other));
    }
}
