//! Feature extractors: the three architectures named by the paper.
//!
//! Each extractor maps a token sequence to a fixed-size feature vector; the
//! trainable head in [`crate::head`] turns that vector into the binary
//! sensitive / non-sensitive decision. The extractors use seeded random
//! weights (see the crate-level documentation for why this substitution is
//! appropriate); what distinguishes them is their *structure*, which is
//! exactly what the paper proposes to compare:
//!
//! * [`TextCnn`] — embedding → parallel 1-D convolutions of several widths
//!   → global max pooling (the classic text-CNN of the paper's ref. \[1\]);
//! * [`TransformerEncoder`] — embedding + positional encoding → self-
//!   attention blocks with residuals and layer norm → mean pooling
//!   (ref. \[24\]);
//! * [`HybridCnnTransformer`] — "use the CNN model as a feature extractor
//!   and the transformer as a classifier" (§IV.4): convolution first, then
//!   an attention block over the convolution's positional outputs.

use serde::{Deserialize, Serialize};

use crate::layers::{add_positional_encoding, Conv1d, Dense, Embedding, LayerNorm, SelfAttention};
use crate::tensor::Matrix;
use crate::Result;

/// Common interface of the three feature extractors.
pub trait FeatureExtractor {
    /// Maps a token sequence to a feature vector (`1 x feature_dim`).
    ///
    /// # Errors
    ///
    /// Returns a shape error only if the extractor was constructed
    /// inconsistently; extraction over any token sequence (including the
    /// empty one) succeeds.
    fn extract(&self, tokens: &[usize]) -> Result<Matrix>;

    /// Width of the feature vector.
    fn feature_dim(&self) -> usize;

    /// Total parameter count (for memory-footprint reports).
    fn parameter_count(&self) -> usize;

    /// Approximate multiply-accumulate count of one extraction over a
    /// sequence of `len` tokens (for cost accounting).
    fn flops(&self, len: usize) -> u64;
}

/// Configuration shared by the extractor constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Vocabulary size of the token stream.
    pub vocab_size: usize,
    /// Embedding width.
    pub embed_dim: usize,
    /// Hidden width (convolution channels / attention dim).
    pub hidden_dim: usize,
    /// Random seed for the fixed extractor weights.
    pub seed: u64,
}

impl ModelConfig {
    /// A small configuration that fits comfortably in TEE memory.
    pub fn small(vocab_size: usize) -> Self {
        ModelConfig {
            vocab_size,
            embed_dim: 48,
            hidden_dim: 96,
            seed: 0x5eed,
        }
    }

    /// A larger configuration used in the memory-pressure sweeps.
    pub fn large(vocab_size: usize) -> Self {
        ModelConfig {
            vocab_size,
            embed_dim: 128,
            hidden_dim: 192,
            seed: 0x5eed,
        }
    }
}

/// The text-CNN extractor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextCnn {
    embedding: Embedding,
    convs: Vec<Conv1d>,
}

impl TextCnn {
    /// Builds the extractor: convolutions of widths 1, 2, 3 and 4 tokens.
    /// The width-1 (unigram) filters matter most for the privacy task:
    /// sensitivity is often carried by a *single* word, and max pooling
    /// over unigram channels detects its presence regardless of context,
    /// which wider-only filter banks dilute.
    pub fn new(config: ModelConfig) -> Self {
        let embedding = Embedding::new(config.vocab_size, config.embed_dim, config.seed);
        let per_width = config.hidden_dim / 4;
        let convs = [1usize, 2, 3, 4]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                Conv1d::new(
                    config.embed_dim,
                    per_width.max(1),
                    w,
                    config.seed + i as u64 + 1,
                )
            })
            .collect();
        TextCnn { embedding, convs }
    }

    pub(crate) fn embedding_mut(&mut self) -> &mut Embedding {
        &mut self.embedding
    }

    pub(crate) fn convs_mut(&mut self) -> &mut [Conv1d] {
        &mut self.convs
    }

    pub(crate) fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    pub(crate) fn convs(&self) -> &[Conv1d] {
        &self.convs
    }
}

impl FeatureExtractor for TextCnn {
    fn extract(&self, tokens: &[usize]) -> Result<Matrix> {
        let x = self.embedding.lookup(tokens);
        let mut features = Vec::new();
        for conv in &self.convs {
            let activations = conv.forward(&x)?;
            features.extend_from_slice(activations.max_rows().data());
        }
        Matrix::from_vec(1, features.len(), features)
    }

    fn feature_dim(&self) -> usize {
        self.convs.iter().map(Conv1d::channels).sum()
    }

    fn parameter_count(&self) -> usize {
        self.embedding.parameter_count()
            + self
                .convs
                .iter()
                .map(Conv1d::parameter_count)
                .sum::<usize>()
    }

    fn flops(&self, len: usize) -> u64 {
        self.convs.iter().map(|c| c.flops(len)).sum()
    }
}

/// The Transformer-encoder extractor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformerEncoder {
    embedding: Embedding,
    input_proj: Dense,
    attention: Vec<SelfAttention>,
    norms: Vec<LayerNorm>,
    ffn: Vec<Dense>,
}

impl TransformerEncoder {
    /// Builds a two-block encoder of width `hidden_dim`.
    pub fn new(config: ModelConfig) -> Self {
        let blocks = 2;
        let embedding = Embedding::new(config.vocab_size, config.embed_dim, config.seed);
        let input_proj = Dense::new(config.embed_dim, config.hidden_dim, config.seed + 10);
        let attention = (0..blocks)
            .map(|i| SelfAttention::new(config.hidden_dim, config.seed + 20 + i as u64))
            .collect();
        let norms = (0..blocks * 2)
            .map(|_| LayerNorm::new(config.hidden_dim))
            .collect();
        let ffn = (0..blocks)
            .map(|i| {
                Dense::new(
                    config.hidden_dim,
                    config.hidden_dim,
                    config.seed + 40 + i as u64,
                )
            })
            .collect();
        TransformerEncoder {
            embedding,
            input_proj,
            attention,
            norms,
            ffn,
        }
    }

    pub(crate) fn embedding_mut(&mut self) -> &mut Embedding {
        &mut self.embedding
    }

    pub(crate) fn input_proj_mut(&mut self) -> &mut Dense {
        &mut self.input_proj
    }

    pub(crate) fn attention_mut(&mut self) -> &mut [SelfAttention] {
        &mut self.attention
    }

    pub(crate) fn ffn_mut(&mut self) -> &mut [Dense] {
        &mut self.ffn
    }
}

impl FeatureExtractor for TransformerEncoder {
    fn extract(&self, tokens: &[usize]) -> Result<Matrix> {
        if tokens.is_empty() {
            return Ok(Matrix::zeros(1, self.feature_dim()));
        }
        let embedded = self.embedding.lookup(tokens);
        let mut x = self
            .input_proj
            .forward(&add_positional_encoding(&embedded))?;
        for (i, attn) in self.attention.iter().enumerate() {
            let attended = attn.forward(&x)?;
            x = self.norms[2 * i].forward(&x.add(&attended)?)?;
            let transformed = self.ffn[i].forward(&x)?.map(crate::layers::relu);
            x = self.norms[2 * i + 1].forward(&x.add(&transformed)?)?;
        }
        Ok(x.mean_rows())
    }

    fn feature_dim(&self) -> usize {
        self.input_proj.output_dim()
    }

    fn parameter_count(&self) -> usize {
        self.embedding.parameter_count()
            + self.input_proj.parameter_count()
            + self
                .attention
                .iter()
                .map(SelfAttention::parameter_count)
                .sum::<usize>()
            + self.ffn.iter().map(Dense::parameter_count).sum::<usize>()
    }

    fn flops(&self, len: usize) -> u64 {
        let len = len.max(1);
        self.input_proj.flops(len)
            + self.attention.iter().map(|a| a.flops(len)).sum::<u64>()
            + self.ffn.iter().map(|f| f.flops(len)).sum::<u64>()
    }
}

/// The hybrid CNN→Transformer extractor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridCnnTransformer {
    embedding: Embedding,
    conv: Conv1d,
    attention: SelfAttention,
    norm: LayerNorm,
}

impl HybridCnnTransformer {
    /// Builds the hybrid extractor.
    pub fn new(config: ModelConfig) -> Self {
        HybridCnnTransformer {
            embedding: Embedding::new(config.vocab_size, config.embed_dim, config.seed),
            conv: Conv1d::new(config.embed_dim, config.hidden_dim, 3, config.seed + 70),
            attention: SelfAttention::new(config.hidden_dim, config.seed + 80),
            norm: LayerNorm::new(config.hidden_dim),
        }
    }

    pub(crate) fn embedding_mut(&mut self) -> &mut Embedding {
        &mut self.embedding
    }

    pub(crate) fn conv_mut(&mut self) -> &mut Conv1d {
        &mut self.conv
    }

    pub(crate) fn attention_mut(&mut self) -> &mut SelfAttention {
        &mut self.attention
    }
}

impl FeatureExtractor for HybridCnnTransformer {
    fn extract(&self, tokens: &[usize]) -> Result<Matrix> {
        let embedded = self.embedding.lookup(tokens);
        let conv_out = self.conv.forward(&embedded)?;
        let attended = self.attention.forward(&conv_out)?;
        let fused = self.norm.forward(&conv_out.add(&attended)?)?;
        // Max pooling over positions: the classifier cares about the
        // *presence* of sensitive phrases anywhere in the utterance.
        Ok(fused.max_rows())
    }

    fn feature_dim(&self) -> usize {
        self.conv.channels()
    }

    fn parameter_count(&self) -> usize {
        self.embedding.parameter_count()
            + self.conv.parameter_count()
            + self.attention.parameter_count()
    }

    fn flops(&self, len: usize) -> u64 {
        let positions = len.saturating_sub(2).max(1);
        self.conv.flops(len) + self.attention.flops(positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ModelConfig {
        ModelConfig::small(64)
    }

    fn check_extractor<E: FeatureExtractor>(e: &E) {
        let tokens = vec![1usize, 5, 9, 2, 7, 3];
        let features = e.extract(&tokens).unwrap();
        assert_eq!(features.rows(), 1);
        assert_eq!(features.cols(), e.feature_dim());
        // Deterministic.
        assert_eq!(e.extract(&tokens).unwrap(), features);
        // Different inputs give different features.
        let other = e.extract(&[4usize, 4, 4, 4, 4, 4]).unwrap();
        assert_ne!(other, features);
        // Degenerate inputs do not panic.
        assert_eq!(e.extract(&[]).unwrap().cols(), e.feature_dim());
        assert_eq!(e.extract(&[1]).unwrap().cols(), e.feature_dim());
        assert!(e.parameter_count() > 0);
        assert!(e.flops(6) > 0);
    }

    #[test]
    fn cnn_extractor_contract() {
        check_extractor(&TextCnn::new(config()));
    }

    #[test]
    fn transformer_extractor_contract() {
        check_extractor(&TransformerEncoder::new(config()));
    }

    #[test]
    fn hybrid_extractor_contract() {
        check_extractor(&HybridCnnTransformer::new(config()));
    }

    #[test]
    fn larger_configs_have_more_parameters_and_flops() {
        let small = TransformerEncoder::new(ModelConfig::small(64));
        let large = TransformerEncoder::new(ModelConfig::large(64));
        assert!(large.parameter_count() > small.parameter_count());
        assert!(large.flops(10) > small.flops(10));
    }

    #[test]
    fn architectures_have_distinct_costs() {
        let cnn = TextCnn::new(config());
        let transformer = TransformerEncoder::new(config());
        let hybrid = HybridCnnTransformer::new(config());
        // The transformer is the most expensive per token, the CNN the
        // cheapest — the trade-off the paper expects to navigate.
        assert!(transformer.flops(12) > hybrid.flops(12));
        assert!(hybrid.flops(12) > cnn.flops(12));
    }
}
