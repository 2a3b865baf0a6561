//! Neural-network layers.
//!
//! Forward passes for every layer the three classifier architectures need.
//! The trainable head's backward pass is fused into
//! [`crate::head::ClassifierHead::train`] ([`crate::head`] gives the order
//! it keeps); the batched dense backward it replaced, `dense_backward`,
//! stays at the end of this module, compiled for tests only, as that
//! loop's oracle.

use serde::{Deserialize, Serialize};

use crate::tensor::Matrix;
use crate::{MlError, Result};

/// Rectified linear unit.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of ReLU (with the convention relu'(0) = 0).
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Hyperbolic tangent.
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// A fully connected layer with optional gradient support.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix (`input_dim x output_dim`).
    pub weights: Matrix,
    /// Bias vector (`output_dim`).
    pub bias: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with seeded Xavier-ish random weights.
    pub fn new(input_dim: usize, output_dim: usize, seed: u64) -> Self {
        let scale = (6.0 / (input_dim + output_dim) as f32).sqrt();
        Dense {
            weights: Matrix::random(input_dim, output_dim, scale, seed),
            bias: vec![0.0; output_dim],
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass: `x (n x in) -> n x out`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `x` has the wrong width.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        x.matmul(&self.weights)?.add_row_broadcast(&self.bias)
    }

    /// Multiply-accumulate count of one forward pass over `n` rows.
    pub fn flops(&self, n: usize) -> u64 {
        (n * self.weights.rows() * self.weights.cols()) as u64
    }
}

/// Token embedding table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    table: Matrix,
}

impl Embedding {
    /// Creates an embedding of `vocab_size x dim` with seeded random values.
    pub fn new(vocab_size: usize, dim: usize, seed: u64) -> Self {
        Embedding {
            table: Matrix::random(vocab_size, dim, 0.5, seed),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.table.rows()
    }

    /// Number of parameters.
    pub fn parameter_count(&self) -> usize {
        self.table.len()
    }

    /// Mutable access to the embedding table (used by quantization).
    pub(crate) fn table_mut(&mut self) -> &mut Matrix {
        &mut self.table
    }

    /// Read access to the embedding table (used by int8 conversion).
    pub(crate) fn table(&self) -> &Matrix {
        &self.table
    }

    /// Looks up a token sequence, producing a `len x dim` matrix. Unknown
    /// token ids map to the zero vector.
    pub fn lookup(&self, tokens: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(tokens.len(), self.dim());
        for (i, &t) in tokens.iter().enumerate() {
            if t < self.table.rows() {
                out.row_mut(i).copy_from_slice(self.table.row(t));
            }
        }
        out
    }
}

/// Sinusoidal positional encoding added to a sequence of embeddings.
pub fn add_positional_encoding(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    let dim = x.cols();
    for pos in 0..x.rows() {
        for i in 0..dim {
            let angle = pos as f32 / 10_000f32.powf((2 * (i / 2)) as f32 / dim as f32);
            let enc = if i % 2 == 0 { angle.sin() } else { angle.cos() };
            let v = out.get(pos, i) + enc;
            out.set(pos, i, v);
        }
    }
    out
}

/// Layer normalization over each row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerNorm {
    /// Per-feature scale.
    pub gamma: Vec<f32>,
    /// Per-feature shift.
    pub beta: Vec<f32>,
    /// Numerical stabilizer.
    pub epsilon: f32,
}

impl LayerNorm {
    /// Creates an identity layer norm of the given width.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            epsilon: 1e-5,
        }
    }

    /// Normalizes each row to zero mean / unit variance, then scales and
    /// shifts.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if the width differs from the
    /// layer's.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.gamma.len() {
            return Err(MlError::ShapeMismatch {
                reason: format!(
                    "layer norm of width {} applied to {}",
                    self.gamma.len(),
                    x.cols()
                ),
            });
        }
        let mut out = x.clone();
        for r in 0..x.rows() {
            let row = out.row_mut(r);
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            let var: f32 =
                row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / row.len() as f32;
            let denom = (var + self.epsilon).sqrt();
            for (i, v) in row.iter_mut().enumerate() {
                *v = (*v - mean) / denom * self.gamma[i] + self.beta[i];
            }
        }
        Ok(out)
    }
}

/// A bank of 1-D convolution filters over a token-embedding sequence
/// (the text-CNN building block: filters of a fixed width slide over the
/// sequence dimension and max-pool to one value per filter).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv1d {
    /// Filter width in tokens.
    pub kernel_width: usize,
    /// One filter per output channel: each is `kernel_width * input_dim`
    /// weights stored row-major.
    pub filters: Matrix,
    /// Per-filter bias.
    pub bias: Vec<f32>,
    input_dim: usize,
}

impl Conv1d {
    /// Creates a convolution bank.
    pub fn new(input_dim: usize, channels: usize, kernel_width: usize, seed: u64) -> Self {
        let scale = (2.0 / (kernel_width * input_dim) as f32).sqrt();
        Conv1d {
            kernel_width,
            filters: Matrix::random(channels, kernel_width * input_dim, scale, seed),
            bias: vec![0.0; channels],
            input_dim,
        }
    }

    /// Number of output channels.
    pub fn channels(&self) -> usize {
        self.filters.rows()
    }

    /// Embedding width the filters were built for.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of parameters.
    pub fn parameter_count(&self) -> usize {
        self.filters.len() + self.bias.len()
    }

    /// Applies the filters over the sequence and ReLU, returning a
    /// `positions x channels` matrix (positions = `len - width + 1`, or a
    /// single zero row if the sequence is shorter than the kernel).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if the embedding width differs
    /// from the one the filters were built for.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.input_dim {
            return Err(MlError::ShapeMismatch {
                reason: format!(
                    "conv1d expects embedding dim {}, got {}",
                    self.input_dim,
                    x.cols()
                ),
            });
        }
        if x.rows() < self.kernel_width {
            return Ok(Matrix::zeros(1, self.channels()));
        }
        let positions = x.rows() - self.kernel_width + 1;
        let mut out = Matrix::zeros(positions, self.channels());
        for p in 0..positions {
            for ch in 0..self.channels() {
                let filter = self.filters.row(ch);
                let mut acc = self.bias[ch];
                for k in 0..self.kernel_width {
                    let emb = x.row(p + k);
                    let w = &filter[k * self.input_dim..(k + 1) * self.input_dim];
                    for (a, b) in emb.iter().zip(w.iter()) {
                        acc += a * b;
                    }
                }
                out.set(p, ch, relu(acc));
            }
        }
        Ok(out)
    }

    /// Multiply-accumulate count for a sequence of length `len`.
    pub fn flops(&self, len: usize) -> u64 {
        let positions = len.saturating_sub(self.kernel_width - 1).max(1);
        (positions * self.channels() * self.kernel_width * self.input_dim) as u64
    }
}

/// Single-head scaled dot-product self-attention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelfAttention {
    /// Query projection.
    pub wq: Dense,
    /// Key projection.
    pub wk: Dense,
    /// Value projection.
    pub wv: Dense,
    /// Output projection.
    pub wo: Dense,
}

impl SelfAttention {
    /// Creates an attention block of width `dim`.
    pub fn new(dim: usize, seed: u64) -> Self {
        SelfAttention {
            wq: Dense::new(dim, dim, seed ^ 0x51),
            wk: Dense::new(dim, dim, seed ^ 0x52),
            wv: Dense::new(dim, dim, seed ^ 0x53),
            wo: Dense::new(dim, dim, seed ^ 0x54),
        }
    }

    /// Number of parameters.
    pub fn parameter_count(&self) -> usize {
        self.wq.parameter_count()
            + self.wk.parameter_count()
            + self.wv.parameter_count()
            + self.wo.parameter_count()
    }

    /// Forward pass over a `len x dim` sequence.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if the width differs from the
    /// block's.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        let q = self.wq.forward(x)?;
        let k = self.wk.forward(x)?;
        let v = self.wv.forward(x)?;
        let scale = 1.0 / (x.cols() as f32).sqrt();
        let scores = q.matmul(&k.transpose())?.scale(scale).softmax_rows();
        let context = scores.matmul(&v)?;
        self.wo.forward(&context)
    }

    /// Multiply-accumulate count for a sequence of length `len` and width
    /// `dim`.
    pub fn flops(&self, len: usize) -> u64 {
        let dim = self.wq.input_dim();
        // Four projections plus two len x len matmuls.
        (4 * len * dim * dim + 2 * len * len * dim) as u64
    }
}

/// Gradients of a dense layer produced by [`dense_backward`].
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct DenseGrad {
    /// Gradient with respect to the weights.
    pub d_weights: Matrix,
    /// Gradient with respect to the bias.
    pub d_bias: Vec<f32>,
    /// Gradient with respect to the input (propagated upstream).
    pub d_input: Matrix,
}

/// Backward pass of a dense layer: the batched oracle of the fused
/// backward pass in [`crate::head::ClassifierHead::train`].
///
/// `input` is the forward input (`n x in`), `d_output` is the gradient of
/// the loss with respect to the layer output (`n x out`).
///
/// # Errors
///
/// Returns [`MlError::ShapeMismatch`] on inconsistent shapes.
#[cfg(test)]
pub(crate) fn dense_backward(
    layer: &Dense,
    input: &Matrix,
    d_output: &Matrix,
) -> Result<DenseGrad> {
    let d_weights = input.transpose().matmul(d_output)?;
    let mut d_bias = vec![0.0f32; layer.bias.len()];
    for r in 0..d_output.rows() {
        for (c, grad) in d_bias.iter_mut().enumerate().take(d_output.cols()) {
            *grad += d_output.get(r, c);
        }
    }
    let d_input = d_output.matmul(&layer.weights.transpose())?;
    Ok(DenseGrad {
        d_weights,
        d_bias,
        d_input,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations_behave() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.99);
        assert!(tanh(0.0).abs() < 1e-6);
    }

    #[test]
    fn dense_forward_shapes_and_flops() {
        let layer = Dense::new(4, 3, 1);
        let x = Matrix::random(2, 4, 1.0, 2);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.rows(), 2);
        assert_eq!(y.cols(), 3);
        assert_eq!(layer.parameter_count(), 4 * 3 + 3);
        assert_eq!(layer.flops(2), 24);
        assert!(layer.forward(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn dense_backward_gradient_check() {
        // Numerical gradient check on a tiny layer and squared loss.
        let mut layer = Dense::new(3, 2, 7);
        let x = Matrix::random(4, 3, 1.0, 8);
        let target = Matrix::random(4, 2, 1.0, 9);
        let loss = |l: &Dense| -> f32 {
            let y = l.forward(&x).unwrap();
            y.data()
                .iter()
                .zip(target.data().iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                * 0.5
        };
        let y = layer.forward(&x).unwrap();
        let d_output = Matrix::from_vec(
            4,
            2,
            y.data()
                .iter()
                .zip(target.data().iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
        .unwrap();
        let grad = dense_backward(&layer, &x, &d_output).unwrap();
        // Check a few weight gradients numerically.
        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let orig = layer.weights.get(r, c);
            layer.weights.set(r, c, orig + eps);
            let plus = loss(&layer);
            layer.weights.set(r, c, orig - eps);
            let minus = loss(&layer);
            layer.weights.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grad.d_weights.get(r, c);
            assert!(
                (numeric - analytic).abs() < 0.02 * (1.0 + numeric.abs()),
                "grad mismatch at ({r},{c}): numeric {numeric}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn embedding_lookup_handles_unknown_tokens() {
        let emb = Embedding::new(10, 4, 3);
        let x = emb.lookup(&[0, 3, 99]);
        assert_eq!(x.rows(), 3);
        assert_eq!(x.cols(), 4);
        assert_eq!(x.row(0), emb.table.row(0));
        assert!(x.row(2).iter().all(|&v| v == 0.0));
        assert_eq!(emb.vocab_size(), 10);
        assert_eq!(emb.parameter_count(), 40);
    }

    #[test]
    fn positional_encoding_changes_rows_differently() {
        let x = Matrix::zeros(4, 8);
        let enc = add_positional_encoding(&x);
        assert_ne!(enc.row(1), enc.row(2));
        // Position 0 sin components are zero, cos components are one.
        assert_eq!(enc.get(0, 0), 0.0);
        assert_eq!(enc.get(0, 1), 1.0);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = ln.forward(&x).unwrap();
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .row(0)
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
        assert!(ln.forward(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn conv1d_shapes_and_short_sequences() {
        let conv = Conv1d::new(8, 6, 3, 5);
        let x = Matrix::random(10, 8, 1.0, 6);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.rows(), 8);
        assert_eq!(y.cols(), 6);
        assert!(
            y.data().iter().all(|&v| v >= 0.0),
            "relu output must be non-negative"
        );
        // Shorter than the kernel: single zero row.
        let y = conv.forward(&Matrix::random(2, 8, 1.0, 7)).unwrap();
        assert_eq!(y.rows(), 1);
        assert!(conv.forward(&Matrix::zeros(4, 9)).is_err());
        assert!(conv.flops(10) > 0);
    }

    #[test]
    fn attention_preserves_shape_and_mixes_positions() {
        let attn = SelfAttention::new(8, 11);
        let x = Matrix::random(5, 8, 1.0, 12);
        let y = attn.forward(&x).unwrap();
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 8);
        // Changing one input position changes other output positions
        // (information mixes through attention).
        let mut x2 = x.clone();
        for v in x2.row_mut(0) {
            *v += 1.0;
        }
        let y2 = attn.forward(&x2).unwrap();
        assert_ne!(y.row(4), y2.row(4));
        assert!(attn.flops(5) > 0);
        assert!(attn.parameter_count() > 0);
    }
}
