//! The in-TA vision stack: frame featurization and the frame classifier.
//!
//! The paper names cameras alongside microphones as the peripherals whose
//! data leaks private information (images of people, documents). The
//! vision TA therefore needs the image-side counterpart of the text
//! classifiers: a featurizer that maps a grayscale frame to a fixed-size
//! vector, plus a trainable binary head deciding "does this frame show
//! something sensitive?".
//!
//! The featurizer follows the same pre-training substitution as the text
//! extractors (see the crate documentation): its structure carries the
//! signal, its convolution weights are fixed and seeded, and only the
//! dense head is trained.
//!
//! * **Patch pooling** — the frame is divided into a grid of square
//!   patches; per-patch mean and standard deviation capture where the
//!   light is and how busy each region is (a person is a dark
//!   high-contrast blob, a document is a page of high-frequency stripes,
//!   an empty room is flat).
//! * **Small 2-D convolution** — a bank of seeded 3x3 filters slides over
//!   the patch-mean grid; ReLU + global max pooling summarizes the
//!   spatial structure (edges and blobs) the raw patch statistics miss.

use serde::{Deserialize, Serialize};

use crate::head::{ClassifierHead, HeadTrainConfig};
use crate::tensor::Matrix;
use crate::{MlError, Result};

/// Pools one grayscale frame into per-patch mean / standard deviation,
/// straight from the u8 pixels with integer accumulators — no per-pixel
/// f64 conversion. Shared by the f32 featurizer and the int8
/// [`crate::int8::QuantFrameCnn`], so the patch statistics both modes
/// feed their heads are **bit-identical**; the modes can only diverge in
/// the convolution and head arithmetic.
///
/// Each pixel row is read once, sequentially: the inner loop walks
/// `patch`-wide chunks of the row and feeds per-patch `u32` sum /
/// sum-of-squares accumulators, a shape that autovectorizes. The integer
/// sums are exact; one divide and one square root per *patch* (not per
/// pixel) produce the f32 statistics.
///
/// Caller guarantees `pixels.len() == config.width * config.height` and
/// `config.patch <= 256` (`256 * 256 * 255^2` is the `u32` exactness
/// bound for the squared sums).
///
/// On AVX2 hosts with `patch == 8` frames whose rows are whole 32-byte
/// groups of patches, dispatches to a `vpsadbw`/`vpmaddwd` kernel; the
/// integer sums are exact either way, so the statistics stay
/// bit-identical to [`pool_patches_into_ref`].
pub fn pool_patches_into(
    pixels: &[u8],
    config: &VisionConfig,
    means: &mut Vec<f32>,
    stds: &mut Vec<f32>,
) {
    #[cfg(target_arch = "x86_64")]
    if config.patch == 8
        && config.width == config.grid_cols() * 8
        && config.width.is_multiple_of(32)
        && crate::quant::x86::avx2_available()
    {
        // SAFETY: AVX2 presence checked; the geometry guards above give
        // the kernel whole 32-byte pixel-row groups.
        #[allow(unsafe_code)]
        unsafe {
            pool_patches_avx2(pixels, config, means, stds);
        }
        return;
    }
    pool_patches_into_ref(pixels, config, means, stds);
}

/// The portable form of [`pool_patches_into`] — the oracle the AVX2
/// kernel is tested bit-identical against, and the path every non-AVX2
/// host or irregular geometry takes.
pub fn pool_patches_into_ref(
    pixels: &[u8],
    config: &VisionConfig,
    means: &mut Vec<f32>,
    stds: &mut Vec<f32>,
) {
    let (cols, rows, patch) = (config.grid_cols(), config.grid_rows(), config.patch);
    debug_assert_eq!(pixels.len(), config.width * config.height);
    debug_assert!(patch <= 256, "u32 sum-of-squares exactness bound");
    means.clear();
    means.resize(rows * cols, 0.0);
    stds.clear();
    stds.resize(rows * cols, 0.0);
    assert!(cols <= 64, "patch grid wider than the pooling accumulators");
    let mut sums = [0u32; 64];
    let mut sum_sqs = [0u32; 64];
    for gy in 0..rows {
        sums[..cols].fill(0);
        sum_sqs[..cols].fill(0);
        for py in 0..patch {
            let row_start = (gy * patch + py) * config.width;
            let row = &pixels[row_start..row_start + cols * patch];
            for (gx, chunk) in row.chunks_exact(patch).enumerate() {
                let (mut s, mut sq) = (0u32, 0u32);
                for &p in chunk {
                    let p = u32::from(p);
                    s += p;
                    sq += p * p;
                }
                sums[gx] += s;
                sum_sqs[gx] += sq;
            }
        }
        patch_stats_row(&sums[..cols], &sum_sqs[..cols], patch, gy, means, stds);
    }
}

/// Shared epilogue of both pooling forms: exact integer sums in, f32
/// mean / standard deviation out. One divide and one square root per
/// patch; factored out so the two forms cannot drift numerically.
#[inline]
fn patch_stats_row(
    sums: &[u32],
    sum_sqs: &[u32],
    patch: usize,
    gy: usize,
    means: &mut [f32],
    stds: &mut [f32],
) {
    let cols = sums.len();
    let n = (patch * patch) as f64;
    for gx in 0..cols {
        let mean = sums[gx] as f64 / (255.0 * n);
        let mean_sq = sum_sqs[gx] as f64 / (255.0 * 255.0 * n);
        let var = (mean_sq - mean * mean).max(0.0);
        means[gy * cols + gx] = mean as f32;
        stds[gy * cols + gx] = var.sqrt() as f32;
    }
}

/// AVX2 form of [`pool_patches_into`] for `patch == 8` frames:
/// [`crate::quant::x86::pool_row_sums_patch8`] produces the per-patch
/// integer sums one grid row at a time, the shared epilogue converts
/// them.
///
/// # Safety
///
/// Caller must ensure AVX2 is available, `patch == 8`,
/// `width == grid_cols * 8` and `width % 32 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn pool_patches_avx2(
    pixels: &[u8],
    config: &VisionConfig,
    means: &mut Vec<f32>,
    stds: &mut Vec<f32>,
) {
    let (cols, rows) = (config.grid_cols(), config.grid_rows());
    debug_assert_eq!(pixels.len(), config.width * config.height);
    means.clear();
    means.resize(rows * cols, 0.0);
    stds.clear();
    stds.resize(rows * cols, 0.0);
    assert!(cols <= 64, "patch grid wider than the pooling accumulators");
    let mut sums = [0u32; 64];
    let mut sum_sqs = [0u32; 64];
    for gy in 0..rows {
        let start = gy * 8 * config.width;
        crate::quant::x86::pool_row_sums_patch8(
            &pixels[start..start + 8 * config.width],
            config.width,
            &mut sums[..cols],
            &mut sum_sqs[..cols],
        );
        patch_stats_row(&sums[..cols], &sum_sqs[..cols], 8, gy, means, stds);
    }
}

/// Configuration of the frame classifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VisionConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Patch edge length in pixels (patches are square).
    pub patch: usize,
    /// Number of 3x3 convolution filters over the patch-mean grid.
    pub conv_channels: usize,
    /// Seed for the fixed convolution weights.
    pub seed: u64,
    /// Hidden width of the trainable head.
    pub head_hidden_dim: usize,
    /// Head training hyper-parameters.
    pub head: HeadTrainConfig,
}

impl VisionConfig {
    /// The configuration matching the smart-home camera (64x48 frames,
    /// 8-pixel patches), sized to stay far inside TEE memory budgets.
    pub fn smart_home() -> Self {
        VisionConfig {
            width: 64,
            height: 48,
            patch: 8,
            conv_channels: 8,
            seed: 0xCA3E5A,
            head_hidden_dim: 24,
            head: HeadTrainConfig::default(),
        }
    }

    /// Patch-grid width.
    pub fn grid_cols(&self) -> usize {
        self.width / self.patch
    }

    /// Patch-grid height.
    pub fn grid_rows(&self) -> usize {
        self.height / self.patch
    }
}

/// The fixed (seeded) frame featurizer: patch pooling plus a small 2-D
/// convolution over the patch-mean grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameFeaturizer {
    config: VisionConfig,
    /// `conv_channels` filters of 3x3 weights, flattened row-major.
    filters: Matrix,
}

impl FrameFeaturizer {
    /// Builds the featurizer for the configured geometry.
    ///
    /// # Panics
    ///
    /// Panics on a patch edge above 256 pixels: patch pooling accumulates
    /// squared pixel values in `u32`, which is exact only up to
    /// `256 * 256 * 255^2`.
    pub fn new(config: VisionConfig) -> Self {
        assert!(
            config.patch <= 256,
            "patch pooling supports patch edges up to 256 pixels, got {}",
            config.patch
        );
        FrameFeaturizer {
            config,
            filters: Matrix::random(config.conv_channels.max(1), 9, 0.6, config.seed),
        }
    }

    /// Width of the produced feature vector: per-patch mean and standard
    /// deviation plus one max-pooled activation per convolution channel.
    pub fn feature_dim(&self) -> usize {
        2 * self.config.grid_cols() * self.config.grid_rows() + self.config.conv_channels
    }

    /// Expected pixel-buffer length.
    pub fn frame_len(&self) -> usize {
        self.config.width * self.config.height
    }

    /// Featurizes one grayscale frame (row-major, one byte per pixel).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `pixels` does not match the
    /// configured geometry.
    pub fn extract(&self, pixels: &[u8]) -> Result<Matrix> {
        let mut plan = crate::plan::FeaturePlan::new();
        self.extract_into(pixels, &mut plan)?;
        Matrix::from_vec(1, plan.features.len(), plan.features)
    }

    /// [`FrameFeaturizer::extract`] into the plan's scratch buffers: on
    /// return `plan.features` holds the feature vector. Identical
    /// arithmetic; a warm plan makes the call allocation-free, which is
    /// what the vision TA's per-frame hot path needs.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `pixels` does not match the
    /// configured geometry.
    pub fn extract_into(&self, pixels: &[u8], plan: &mut crate::plan::FeaturePlan) -> Result<()> {
        if pixels.len() != self.frame_len() {
            return Err(MlError::ShapeMismatch {
                reason: format!(
                    "frame has {} pixels, featurizer expects {}x{}",
                    pixels.len(),
                    self.config.width,
                    self.config.height
                ),
            });
        }
        let (cols, rows) = (self.config.grid_cols(), self.config.grid_rows());
        pool_patches_into(pixels, &self.config, &mut plan.means, &mut plan.stds);

        // Small 2-D convolution over the (zero-padded) patch-mean grid,
        // ReLU, global max pool per channel, straight into the feature
        // vector after the patch statistics.
        plan.features.clear();
        plan.features.extend_from_slice(&plan.means);
        plan.features.extend_from_slice(&plan.stds);
        let means = &plan.means;
        let grid_at = |x: isize, y: isize| -> f32 {
            if x < 0 || y < 0 || x >= cols as isize || y >= rows as isize {
                0.0
            } else {
                means[y as usize * cols + x as usize]
            }
        };
        for ch in 0..self.config.conv_channels {
            let w = self.filters.row(ch);
            let mut best = 0.0f32;
            for gy in 0..rows as isize {
                for gx in 0..cols as isize {
                    let mut acc = 0.0f32;
                    for ky in -1..=1isize {
                        for kx in -1..=1isize {
                            let weight = w[((ky + 1) * 3 + (kx + 1)) as usize];
                            acc += weight * grid_at(gx + kx, gy + ky);
                        }
                    }
                    best = best.max(acc); // ReLU folded into the max with 0
                }
            }
            plan.features.push(best);
        }
        Ok(())
    }

    /// Approximate multiply-accumulate count of one extraction.
    pub fn flops(&self) -> u64 {
        let pooling = self.frame_len() as u64 * 2;
        let conv =
            (self.config.grid_cols() * self.config.grid_rows() * 9 * self.config.conv_channels)
                as u64;
        pooling + conv
    }

    /// Fixed parameter count (the convolution filters).
    pub fn parameter_count(&self) -> usize {
        self.filters.len()
    }

    /// The fixed convolution filters (used by int8 conversion).
    pub(crate) fn filters(&self) -> &Matrix {
        &self.filters
    }
}

/// The frame classifier hosted by the vision TA: fixed featurizer plus a
/// trained binary head — the image-side sibling of
/// [`crate::classifier::SensitiveClassifier`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameCnn {
    featurizer: FrameFeaturizer,
    head: ClassifierHead,
    config: VisionConfig,
    threshold: f32,
}

impl FrameCnn {
    /// Creates an untrained frame classifier.
    pub fn new(config: VisionConfig) -> Self {
        let featurizer = FrameFeaturizer::new(config);
        let head = ClassifierHead::new(
            featurizer.feature_dim(),
            config.head_hidden_dim,
            config.seed + 2000,
        );
        FrameCnn {
            featurizer,
            head,
            config,
            threshold: 0.5,
        }
    }

    /// The configuration the classifier was built with.
    pub fn config(&self) -> &VisionConfig {
        &self.config
    }

    /// Whether [`FrameCnn::fit`] has been called.
    pub fn is_trained(&self) -> bool {
        self.head.is_trained()
    }

    /// Expected pixel-buffer length per frame.
    pub fn frame_len(&self) -> usize {
        self.featurizer.frame_len()
    }

    /// Trains the head on labelled frames (`pixels`, `sensitive`).
    /// Returns the final-epoch training loss.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BadTrainingData`] for an empty corpus and
    /// [`MlError::ShapeMismatch`] for frames of the wrong geometry.
    pub fn fit(&mut self, examples: &[(Vec<u8>, bool)]) -> Result<f32> {
        if examples.is_empty() {
            return Err(MlError::BadTrainingData {
                reason: "empty frame corpus".to_owned(),
            });
        }
        let mut features = Vec::with_capacity(examples.len());
        let mut labels = Vec::with_capacity(examples.len());
        for (pixels, label) in examples {
            features.push(self.featurizer.extract(pixels)?);
            labels.push(*label);
        }
        self.head.train(&features, &labels, &self.config.head)
    }

    /// Probability that the frame shows sensitive content.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotTrained`] before [`FrameCnn::fit`] and
    /// [`MlError::ShapeMismatch`] for frames of the wrong geometry.
    pub fn predict(&self, pixels: &[u8]) -> Result<f32> {
        if !self.is_trained() {
            return Err(MlError::NotTrained);
        }
        let features = self.featurizer.extract(pixels)?;
        self.head.predict(&features)
    }

    /// [`FrameCnn::predict`] over a caller-owned
    /// [`FeaturePlan`](crate::plan::FeaturePlan): the same arithmetic with
    /// the featurizer and head scratch reused — the vision TA's
    /// allocation-free per-frame path.
    ///
    /// # Errors
    ///
    /// Same as [`FrameCnn::predict`].
    pub fn predict_with(&self, pixels: &[u8], plan: &mut crate::plan::FeaturePlan) -> Result<f32> {
        if !self.is_trained() {
            return Err(MlError::NotTrained);
        }
        self.featurizer.extract_into(pixels, plan)?;
        self.head.predict_features(&plan.features, &mut plan.hidden)
    }

    /// Binary decision using the configured threshold.
    ///
    /// # Errors
    ///
    /// Same as [`FrameCnn::predict`].
    pub fn is_sensitive(&self, pixels: &[u8]) -> Result<bool> {
        Ok(self.predict(pixels)? >= self.threshold)
    }

    /// Total parameter count (featurizer + head).
    pub fn parameter_count(&self) -> usize {
        self.featurizer.parameter_count() + self.head.parameter_count()
    }

    /// Memory footprint in bytes at 32-bit precision.
    pub fn memory_bytes_f32(&self) -> usize {
        self.parameter_count() * 4
    }

    /// Approximate multiply-accumulate count of one frame inference.
    pub fn flops_per_inference(&self) -> u64 {
        self.featurizer.flops() + self.head.flops()
    }

    /// Read access for int8 conversion.
    pub(crate) fn parts(&self) -> (&FrameFeaturizer, &ClassifierHead) {
        (&self.featurizer, &self.head)
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature of the synthetic camera: flat frames are non-sensitive,
    /// striped and blobbed frames are sensitive (documents / people).
    fn frame_corpus(n: usize, seed: u64) -> Vec<(Vec<u8>, bool)> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = VisionConfig::smart_home();
        (0..n)
            .map(|i| {
                let sensitive = i % 2 == 0;
                let mut pixels = vec![0u8; config.width * config.height];
                for (idx, p) in pixels.iter_mut().enumerate() {
                    let y = idx / config.width;
                    *p = if sensitive {
                        // High-frequency stripes, like a document.
                        if y % 4 < 2 {
                            220u8.saturating_add(rng.gen_range(0..20))
                        } else {
                            40u8.saturating_add(rng.gen_range(0..20))
                        }
                    } else {
                        120u8.saturating_add(rng.gen_range(0..10))
                    };
                }
                (pixels, sensitive)
            })
            .collect()
    }

    #[test]
    fn featurizer_produces_fixed_width_deterministic_features() {
        let f = FrameFeaturizer::new(VisionConfig::smart_home());
        let frame = vec![128u8; f.frame_len()];
        let a = f.extract(&frame).unwrap();
        assert_eq!(a.rows(), 1);
        assert_eq!(a.cols(), f.feature_dim());
        assert_eq!(f.extract(&frame).unwrap(), a);
        // 64x48 with 8-pixel patches: 8x6 grid, 2 stats each, 8 channels.
        assert_eq!(f.feature_dim(), 2 * 8 * 6 + 8);
        assert!(f.flops() > 0);
        assert!(f.parameter_count() > 0);
        // Wrong geometry is rejected, not mangled.
        assert!(f.extract(&frame[1..]).is_err());
    }

    #[test]
    fn distinct_scenes_have_distinct_features() {
        let f = FrameFeaturizer::new(VisionConfig::smart_home());
        let flat = vec![120u8; f.frame_len()];
        let striped: Vec<u8> = (0..f.frame_len())
            .map(|i| if (i / 64) % 4 < 2 { 230 } else { 40 })
            .collect();
        assert_ne!(f.extract(&flat).unwrap(), f.extract(&striped).unwrap());
    }

    #[test]
    fn untrained_classifier_refuses_to_predict() {
        let c = FrameCnn::new(VisionConfig::smart_home());
        let frame = vec![0u8; c.frame_len()];
        assert!(matches!(c.predict(&frame), Err(MlError::NotTrained)));
        assert!(!c.is_trained());
    }

    #[test]
    fn frame_cnn_learns_the_synthetic_task() {
        let train = frame_corpus(80, 1);
        let test = frame_corpus(40, 2);
        let mut c = FrameCnn::new(VisionConfig::smart_home());
        c.fit(&train).unwrap();
        let correct = test
            .iter()
            .filter(|(pixels, label)| c.is_sensitive(pixels).unwrap() == *label)
            .count();
        assert!(
            correct as f64 / test.len() as f64 > 0.9,
            "accuracy {correct}/{}",
            test.len()
        );
        assert!(c.memory_bytes_f32() > 0);
        assert!(c.flops_per_inference() > 0);
    }

    #[test]
    fn empty_corpus_and_bad_frames_are_rejected() {
        let mut c = FrameCnn::new(VisionConfig::smart_home());
        assert!(matches!(c.fit(&[]), Err(MlError::BadTrainingData { .. })));
        assert!(c.fit(&[(vec![0u8; 3], true)]).is_err());
    }
}
