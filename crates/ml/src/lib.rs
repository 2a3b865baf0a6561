//! # perisec-ml — the machine-learning stack that runs inside the TA
//!
//! Plan item 4 of the paper: the TA hosts "a pre-trained ML classifier
//! capable of determining potentially sensitive information", fed either
//! directly (images) or through "a pre-trained speech recognition model
//! [that transcribes] the audio signals received from the device driver",
//! and considers three classifier architectures — CNNs, Transformers, and a
//! hybrid CNN-Transformer.
//!
//! Everything here is implemented from scratch in safe Rust; there are no
//! external ML dependencies and no downloaded checkpoints:
//!
//! * [`tensor`] — a small dense-matrix type with the operations the models
//!   need;
//! * [`layers`] — dense layers, embeddings, 1-D convolutions, single-head
//!   self-attention, layer norm and pooling;
//! * [`models`] — the three feature extractors the paper names: a text CNN,
//!   a Transformer encoder, and a hybrid CNN→Transformer;
//! * [`head`] — the trainable classification head (dense-ReLU-dense,
//!   Adam + binary cross-entropy, backpropagated in one fused pass);
//! * [`classifier`] — [`classifier::SensitiveClassifier`], which combines
//!   an extractor and a head, trains on a labelled token corpus, predicts,
//!   and reports quality metrics and resource footprints;
//! * [`quant`] — 8-bit post-training quantization, the paper's "smaller ML
//!   models" mitigation for tight secure memory, plus the fused
//!   i8 x i8 -> i32 matmul kernel and the [`quant::QuantMode`] knob;
//! * [`int8`] — the integer inference engine: quantized deployment forms
//!   of the TA classifiers whose forward passes never dequantize;
//! * [`plan`] — the reusable [`plan::FeaturePlan`] scratch that makes
//!   steady-state TA inference allocation-free;
//! * [`mfcc`] — framing, FFT, mel filterbank and DCT for audio features;
//! * [`stt`] — a lightweight keyword speech-to-text model (template
//!   matching over MFCC features) standing in for the pre-trained speech
//!   recognizers the paper cites;
//! * [`vision`] — the image-side stack: a patch-pooling + small-2D-conv
//!   frame featurizer and the [`vision::FrameCnn`] frame classifier hosted
//!   by the vision TA.
//!
//! ## Pre-training substitution
//!
//! The paper reuses large pre-trained models (Whisper, fairseq S2T,
//! HuggingFace Transformers). Shipping those is impossible here, so the
//! repository *trains its own small models* on the synthetic corpus from
//! `perisec-workload`: the convolutional / attention feature extractors use
//! fixed, seeded random weights (random-feature extractors) and the dense
//! classification head is trained with Adam. This preserves what the
//! evaluation needs — three architecturally distinct classifiers whose
//! accuracy, latency and memory can be compared inside the TEE — without
//! external artifacts.

// Unsafe is denied crate-wide and allowed back only for the `quant::x86`
// intrinsic kernels and their runtime-dispatch call sites. Everything
// else in the crate must stay safe Rust, and every unsafe block carries
// a SAFETY comment tied to a proptest pinning the kernel bit-identical
// to its scalar oracle.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod head;
pub mod int8;
pub mod layers;
pub mod mfcc;
pub mod models;
pub mod plan;
pub mod quant;
pub mod stt;
pub mod tensor;
pub mod vision;

pub use classifier::{Architecture, ClassifierMetrics, SensitiveClassifier, TrainConfig};
pub use int8::{QuantFrameCnn, QuantSensitiveClassifier};
pub use mfcc::{MfccConfig, MfccExtractor};
pub use plan::FeaturePlan;
pub use quant::QuantMode;
pub use stt::{KeywordStt, Transcript};
pub use tensor::Matrix;
pub use vision::{FrameCnn, FrameFeaturizer, VisionConfig};

use std::error::Error;
use std::fmt;

/// Errors raised by the ML stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MlError {
    /// Dimensions of an operation did not line up.
    ShapeMismatch {
        /// Description of the mismatch.
        reason: String,
    },
    /// A model was used before it was trained / initialized.
    NotTrained,
    /// Training data was empty or degenerate.
    BadTrainingData {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ShapeMismatch { reason } => write!(f, "shape mismatch: {reason}"),
            MlError::NotTrained => write!(f, "model has not been trained"),
            MlError::BadTrainingData { reason } => write!(f, "bad training data: {reason}"),
        }
    }
}

impl Error for MlError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, MlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ml_error_is_well_behaved() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<MlError>();
        assert!(MlError::NotTrained.to_string().contains("trained"));
    }
}
