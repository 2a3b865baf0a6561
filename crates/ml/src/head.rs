//! The trainable classification head.
//!
//! A two-layer perceptron (dense → ReLU → dense → sigmoid) trained with
//! Adam on binary cross-entropy. The feature extractors in
//! [`crate::models`] are fixed; this head is what "training" means for the
//! repository's classifiers (see the crate documentation for the
//! pre-training substitution rationale).
//!
//! [`ClassifierHead::train`] runs each mini-batch as one fused pass over
//! its rows, read in place from the feature vectors, into scratch
//! allocated once per call. Every value keeps the f32 expression and
//! summation order of the batched tensor path it replaced (batch matrix,
//! [`Matrix::matmul`], broadcast bias, a dense backward per layer), so
//! training yields the same bits:
//! - every sum starts at `+0.0` and adds its terms in ascending index:
//!   feature, hidden unit or batch row;
//! - a term whose left factor is exactly zero is skipped, as
//!   [`Matrix::matmul`] skips it, and a bias is added after the products;
//! - the output layer's input gradient is `0.0 + d_logit * w` (`+0.0`
//!   when `d_logit` is zero) and is multiplied by [`relu_grad`];
//! - `d_logit = (p - y) / batch_len` with `p` unclamped, and the loss is
//!   summed in batch order.
//!
//! That batched path is kept in this module's tests as the oracle a
//! proptest compares every weight, Adam moment and loss against, bit for
//! bit.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::layers::{relu, relu_grad, sigmoid, Dense};
use crate::tensor::Matrix;
use crate::{MlError, Result};

/// Hyper-parameters for head training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadTrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Shuffling / init seed.
    pub seed: u64,
}

impl Default for HeadTrainConfig {
    fn default() -> Self {
        HeadTrainConfig {
            epochs: 40,
            batch_size: 16,
            learning_rate: 3e-3,
            seed: 17,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamState {
    fn new(len: usize) -> Self {
        AdamState {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        const BETA1: f32 = 0.9;
        const BETA2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let t = self.t as f32;
        for i in 0..params.len() {
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * grads[i];
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * grads[i] * grads[i];
            let m_hat = self.m[i] / (1.0 - BETA1.powf(t));
            let v_hat = self.v[i] / (1.0 - BETA2.powf(t));
            params[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// The binary classification head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifierHead {
    hidden: Dense,
    output: Dense,
    adam_hidden_w: AdamState,
    adam_hidden_b: AdamState,
    adam_output_w: AdamState,
    adam_output_b: AdamState,
    trained: bool,
}

impl ClassifierHead {
    /// Creates an untrained head for `feature_dim` inputs with
    /// `hidden_dim` hidden units.
    pub fn new(feature_dim: usize, hidden_dim: usize, seed: u64) -> Self {
        let hidden = Dense::new(feature_dim, hidden_dim, seed);
        let output = Dense::new(hidden_dim, 1, seed + 1);
        let adam_hidden_w = AdamState::new(hidden.weights.len());
        let adam_hidden_b = AdamState::new(hidden.bias.len());
        let adam_output_w = AdamState::new(output.weights.len());
        let adam_output_b = AdamState::new(output.bias.len());
        ClassifierHead {
            hidden,
            output,
            adam_hidden_w,
            adam_hidden_b,
            adam_output_w,
            adam_output_b,
            trained: false,
        }
    }

    /// Whether the head has been trained.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Number of parameters.
    pub fn parameter_count(&self) -> usize {
        self.hidden.parameter_count() + self.output.parameter_count()
    }

    /// Multiply-accumulate count of one prediction.
    pub fn flops(&self) -> u64 {
        self.hidden.flops(1) + self.output.flops(1)
    }

    /// Probability that the feature vector is "sensitive".
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `features` is not
    /// `1 x feature_dim`.
    pub fn predict(&self, features: &Matrix) -> Result<f32> {
        let h = self.hidden.forward(features)?.map(relu);
        let o = self.output.forward(&h)?;
        Ok(sigmoid(o.get(0, 0)))
    }

    /// The allocation-free prediction path: identical arithmetic to
    /// [`ClassifierHead::predict`], but over a feature slice with the
    /// hidden activations held in caller-owned scratch — the TA hot path
    /// stops paying three matrix allocations per window.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] if `features.len()` differs from
    /// the head's input width.
    pub fn predict_features(&self, features: &[f32], hidden: &mut Vec<f32>) -> Result<f32> {
        if features.len() != self.hidden.input_dim() {
            return Err(MlError::ShapeMismatch {
                reason: format!(
                    "head of width {} applied to {} features",
                    self.hidden.input_dim(),
                    features.len()
                ),
            });
        }
        hidden.clear();
        hidden.resize(self.hidden.output_dim(), 0.0);
        // hidden = relu(x * W1 + b1), k-outer over the row-major weights
        // in exactly [`Matrix::matmul`]'s accumulation order (bias added
        // after the products) so the two paths agree bit for bit.
        for (k, &x) in features.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let row = self.hidden.weights.row(k);
            for (h, &w) in hidden.iter_mut().zip(row) {
                *h += x * w;
            }
        }
        let mut logit = 0.0f32;
        for (k, &h) in hidden.iter().enumerate() {
            let h = relu(h + self.hidden.bias[k]);
            logit += h * self.output.weights.get(k, 0);
        }
        Ok(sigmoid(logit + self.output.bias[0]))
    }

    /// Trains the head on `(feature, label)` pairs. Returns the mean loss
    /// of the final epoch.
    ///
    /// Each mini-batch is one fused pass that keeps the batched tensor
    /// path's bits (the module documentation lists the order it keeps).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::BadTrainingData`] if the dataset is empty or has
    /// inconsistent widths.
    pub fn train(
        &mut self,
        features: &[Matrix],
        labels: &[bool],
        config: &HeadTrainConfig,
    ) -> Result<f32> {
        if features.is_empty() || features.len() != labels.len() {
            return Err(MlError::BadTrainingData {
                reason: format!("{} feature rows vs {} labels", features.len(), labels.len()),
            });
        }
        let width = self.hidden.input_dim();
        if features.iter().any(|f| f.cols() != width || f.rows() != 1) {
            return Err(MlError::BadTrainingData {
                reason: format!("all feature vectors must be 1x{width}"),
            });
        }
        let hidden_dim = self.hidden.output_dim();
        // One row's activations and hidden-layer gradient, and the batch's
        // parameter gradients (the output layer has a single unit).
        let mut h = vec![0.0f32; hidden_dim];
        let mut d_hidden = vec![0.0f32; hidden_dim];
        let mut d_w1 = vec![0.0f32; width * hidden_dim];
        let mut d_b1 = vec![0.0f32; hidden_dim];
        let mut d_w2 = vec![0.0f32; hidden_dim];
        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut final_loss = 0.0;
        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(config.batch_size.max(1)) {
                d_w1.fill(0.0);
                d_b1.fill(0.0);
                d_w2.fill(0.0);
                let mut d_b2 = 0.0f32;
                for &idx in batch {
                    let x = features[idx].row(0);
                    let y = if labels[idx] { 1.0 } else { 0.0 };
                    // Forward: h = relu(x * W1 + b1), p = sigmoid(h * W2 + b2).
                    h.fill(0.0);
                    for (k, &a) in x.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        for (hj, &w) in h.iter_mut().zip(self.hidden.weights.row(k)) {
                            *hj += a * w;
                        }
                    }
                    for (hj, &b) in h.iter_mut().zip(&self.hidden.bias) {
                        *hj = relu(*hj + b);
                    }
                    let mut logit = 0.0f32;
                    for (&hk, &w) in h.iter().zip(self.output.weights.data()) {
                        if hk != 0.0 {
                            logit += hk * w;
                        }
                    }
                    let p = sigmoid(logit + self.output.bias[0]);
                    // Binary cross-entropy loss and gradient d(loss)/d(logit) = p - y.
                    let pc = p.clamp(1e-6, 1.0 - 1e-6);
                    epoch_loss += -(y * pc.ln() + (1.0 - y) * (1.0 - pc).ln());
                    let d_logit = (p - y) / batch.len() as f32;
                    // Backward through the output layer, the ReLU (relu_grad
                    // of h is relu_grad of its pre-activation) and the
                    // hidden layer, whose input gradient nothing reads.
                    d_b2 += d_logit;
                    let w2 = self.output.weights.data();
                    for (j, &hj) in h.iter().enumerate() {
                        if hj != 0.0 {
                            d_w2[j] += hj * d_logit;
                        }
                        let d_input = if d_logit == 0.0 {
                            0.0
                        } else {
                            0.0 + d_logit * w2[j]
                        };
                        d_hidden[j] = d_input * relu_grad(hj);
                        d_b1[j] += d_hidden[j];
                    }
                    for (k, &a) in x.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let row = &mut d_w1[k * hidden_dim..(k + 1) * hidden_dim];
                        for (g, &dh) in row.iter_mut().zip(&d_hidden) {
                            *g += a * dh;
                        }
                    }
                }
                self.adam_output_w.step(
                    self.output.weights.data_mut(),
                    &d_w2,
                    config.learning_rate,
                );
                self.adam_output_b.step(
                    &mut self.output.bias,
                    std::slice::from_ref(&d_b2),
                    config.learning_rate,
                );
                self.adam_hidden_w.step(
                    self.hidden.weights.data_mut(),
                    &d_w1,
                    config.learning_rate,
                );
                self.adam_hidden_b
                    .step(&mut self.hidden.bias, &d_b1, config.learning_rate);
            }
            final_loss = epoch_loss / features.len() as f32;
        }
        self.trained = true;
        Ok(final_loss)
    }

    /// The two dense layers (used by quantization).
    pub fn layers(&self) -> (&Dense, &Dense) {
        (&self.hidden, &self.output)
    }

    /// Mutable access to the two dense layers (used by quantization).
    pub(crate) fn layers_mut(&mut self) -> (&mut Dense, &mut Dense) {
        (&mut self.hidden, &mut self.output)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::Rng;

    use super::*;
    use crate::layers::dense_backward;

    /// The batched tensor path [`ClassifierHead::train`] replaced, kept as
    /// its oracle: each mini-batch is copied into a matrix and pushed
    /// through [`Dense::forward`] and [`dense_backward`], allocating every
    /// intermediate. Expects data `train` has validated.
    fn train_batched(
        head: &mut ClassifierHead,
        features: &[Matrix],
        labels: &[bool],
        config: &HeadTrainConfig,
    ) -> Result<f32> {
        let width = head.hidden.input_dim();
        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut final_loss = 0.0;
        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(config.batch_size.max(1)) {
                // Assemble the batch.
                let mut x = Matrix::zeros(batch.len(), width);
                let mut y = vec![0.0f32; batch.len()];
                for (i, &idx) in batch.iter().enumerate() {
                    x.row_mut(i).copy_from_slice(features[idx].row(0));
                    y[i] = if labels[idx] { 1.0 } else { 0.0 };
                }
                // Forward.
                let h_pre = head.hidden.forward(&x)?;
                let h = h_pre.map(relu);
                let o = head.output.forward(&h)?;
                let p: Vec<f32> = o.data().iter().map(|&v| sigmoid(v)).collect();
                // Binary cross-entropy loss and gradient d(loss)/d(logit) = p - y.
                let mut d_logit = Matrix::zeros(batch.len(), 1);
                for i in 0..batch.len() {
                    let pi = p[i].clamp(1e-6, 1.0 - 1e-6);
                    epoch_loss += -(y[i] * pi.ln() + (1.0 - y[i]) * (1.0 - pi).ln());
                    d_logit.set(i, 0, (p[i] - y[i]) / batch.len() as f32);
                }
                // Backward through output layer.
                let out_grad = dense_backward(&head.output, &h, &d_logit)?;
                // Backward through ReLU and hidden layer.
                let mut d_hidden = out_grad.d_input.clone();
                for r in 0..d_hidden.rows() {
                    for c in 0..d_hidden.cols() {
                        let g = d_hidden.get(r, c) * relu_grad(h_pre.get(r, c));
                        d_hidden.set(r, c, g);
                    }
                }
                let hidden_grad = dense_backward(&head.hidden, &x, &d_hidden)?;
                // Adam updates.
                head.adam_output_w.step(
                    head.output.weights.data_mut(),
                    out_grad.d_weights.data(),
                    config.learning_rate,
                );
                head.adam_output_b.step(
                    &mut head.output.bias,
                    &out_grad.d_bias,
                    config.learning_rate,
                );
                head.adam_hidden_w.step(
                    head.hidden.weights.data_mut(),
                    hidden_grad.d_weights.data(),
                    config.learning_rate,
                );
                head.adam_hidden_b.step(
                    &mut head.hidden.bias,
                    &hidden_grad.d_bias,
                    config.learning_rate,
                );
            }
            final_loss = epoch_loss / features.len() as f32;
        }
        head.trained = true;
        Ok(final_loss)
    }

    /// Every trained value of a head as raw bits, by name: `==` on `f32`
    /// would equate `-0.0` and `+0.0`.
    fn trained_bits(head: &ClassifierHead) -> Vec<(&'static str, Vec<u64>)> {
        let bits = |values: &[f32]| -> Vec<u64> {
            values.iter().map(|v| u64::from(v.to_bits())).collect()
        };
        let mut out = vec![
            ("hidden weights", bits(head.hidden.weights.data())),
            ("hidden bias", bits(&head.hidden.bias)),
            ("output weights", bits(head.output.weights.data())),
            ("output bias", bits(&head.output.bias)),
        ];
        for (name, adam) in [
            ("hidden weights Adam", &head.adam_hidden_w),
            ("hidden bias Adam", &head.adam_hidden_b),
            ("output weights Adam", &head.adam_output_w),
            ("output bias Adam", &head.adam_output_b),
        ] {
            let mut state = bits(&adam.m);
            state.extend(bits(&adam.v));
            state.push(adam.t);
            out.push((name, state));
        }
        out
    }

    /// Trains one clone of `head` with [`ClassifierHead::train`] and one
    /// with the oracle, and names the first value whose bits differ.
    fn fused_matches_oracle(
        head: &ClassifierHead,
        features: &[Matrix],
        labels: &[bool],
        config: &HeadTrainConfig,
    ) -> std::result::Result<(), String> {
        let mut fused = head.clone();
        let mut oracle = head.clone();
        let fused_loss = fused.train(features, labels, config).unwrap();
        let oracle_loss = train_batched(&mut oracle, features, labels, config).unwrap();
        if fused_loss.to_bits() != oracle_loss.to_bits() {
            return Err(format!("loss {fused_loss:e} vs {oracle_loss:e}"));
        }
        let oracle_bits = trained_bits(&oracle);
        for ((name, got), (_, want)) in trained_bits(&fused).into_iter().zip(oracle_bits) {
            if got != want {
                return Err(format!("{name} bits differ: {got:x?} vs {want:x?}"));
            }
        }
        assert!(fused.is_trained() && oracle.is_trained());
        Ok(())
    }

    /// A labelled corpus whose features mix ordinary values with exact
    /// `0.0`, `-0.0`, subnormals and magnitudes large enough to saturate
    /// the sigmoid to exactly 0 or 1 (so `p` differs from its clamp and
    /// some `d_logit` are exactly zero), each of either sign.
    fn edge_value_dataset(rows: usize, width: usize, seed: u64) -> (Vec<Matrix>, Vec<bool>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let features = (0..rows)
            .map(|_| {
                let values = (0..width)
                    .map(|_| {
                        let magnitude = match rng.gen_range(0..8u32) {
                            0 => 0.0,
                            1 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                            2 => rng.gen_range(200.0f32..2000.0),
                            _ => rng.gen_range(0.0f32..2.0),
                        };
                        if rng.gen_bool(0.5) {
                            -magnitude
                        } else {
                            magnitude
                        }
                    })
                    .collect();
                Matrix::from_vec(1, width, values).expect("1 x width values")
            })
            .collect();
        let labels = (0..rows).map(|_| rng.gen_bool(0.5)).collect();
        (features, labels)
    }

    proptest! {
        /// The fused loop trains every weight, bias, Adam moment and the
        /// loss to the batched oracle's bits. Two poisons make the rules
        /// that finite values cannot show visible:
        /// - `zero_column`: feature 0 is zero in every row and its hidden
        ///   weights are infinite, so only the forward zero-skip keeps
        ///   `0 * inf` out of the hidden sums;
        /// - `dead_unit`: hidden unit 0 never fires (its bias is -1e30)
        ///   and its output weight is infinite, so its input gradient is
        ///   `±inf` (or `+0.0` where `d_logit` is zero) and `relu_grad`
        ///   turns that into NaN, which the zero-skips on `d_logit` and on
        ///   zero features keep out of the rest (a select would give 0).
        #[test]
        fn fused_training_matches_the_batched_oracle_bit_for_bit(
            width in 1usize..10,
            hidden_dim in 1usize..9,
            rows in 1usize..40,
            batch_size in 0usize..12,
            epochs in 1usize..4,
            seed in 0u64..1 << 32,
            zero_column in any::<bool>(),
            dead_unit in any::<bool>(),
        ) {
            let (mut features, labels) = edge_value_dataset(rows, width, seed);
            let mut head = ClassifierHead::new(width, hidden_dim, seed);
            if zero_column {
                for f in &mut features {
                    f.set(0, 0, 0.0);
                }
                head.hidden.weights.row_mut(0).fill(f32::INFINITY);
            }
            if dead_unit {
                head.hidden.bias[0] = -1e30;
                head.output.weights.set(0, 0, f32::INFINITY);
            }
            let config = HeadTrainConfig {
                epochs,
                batch_size,
                learning_rate: 3e-3,
                seed,
            };
            fused_matches_oracle(&head, &features, &labels, &config)?;
        }
    }

    /// A row whose `p` saturates to its label has `d_logit == 0.0`: the
    /// dead unit's input gradient must then be `+0.0`, not `0 * inf`.
    #[test]
    fn a_zero_d_logit_gives_the_output_layer_a_zero_input_gradient() {
        let mut head = ClassifierHead::new(1, 2, 7);
        head.hidden.weights = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        head.hidden.bias = vec![-1e30, 0.0];
        head.output.weights = Matrix::from_vec(2, 1, vec![f32::INFINITY, 1.0]).unwrap();
        head.output.bias = vec![0.0];
        // logit = 100, so p = 1.0 exactly and the label matches it.
        let features = [Matrix::from_vec(1, 1, vec![100.0]).unwrap()];
        let config = HeadTrainConfig {
            epochs: 1,
            ..HeadTrainConfig::default()
        };
        fused_matches_oracle(&head, &features, &[true], &config).unwrap();
        let mut trained = head.clone();
        trained.train(&features, &[true], &config).unwrap();
        assert_eq!(trained.adam_hidden_b.m[0].to_bits(), 0);
    }

    /// A linearly separable toy problem: label = (sum of features > 0).
    fn toy_dataset(n: usize, dim: usize, seed: u64) -> (Vec<Matrix>, Vec<bool>) {
        let mut features = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let m = Matrix::random(1, dim, 1.0, seed + i as u64);
            let sum: f32 = m.data().iter().sum();
            labels.push(sum > 0.0);
            features.push(m);
        }
        (features, labels)
    }

    #[test]
    fn head_learns_a_separable_problem() {
        let (features, labels) = toy_dataset(200, 8, 100);
        let mut head = ClassifierHead::new(8, 16, 1);
        assert!(!head.is_trained());
        let loss = head
            .train(
                &features,
                &labels,
                &HeadTrainConfig {
                    epochs: 60,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(head.is_trained());
        assert!(loss < 0.3, "final loss too high: {loss}");
        let correct = features
            .iter()
            .zip(labels.iter())
            .filter(|(f, &l)| (head.predict(f).unwrap() > 0.5) == l)
            .count();
        assert!(
            correct as f64 / features.len() as f64 > 0.9,
            "training accuracy {correct}/{}",
            features.len()
        );
    }

    #[test]
    fn training_rejects_bad_data() {
        let mut head = ClassifierHead::new(4, 8, 2);
        assert!(matches!(
            head.train(&[], &[], &HeadTrainConfig::default()),
            Err(MlError::BadTrainingData { .. })
        ));
        let features = vec![Matrix::zeros(1, 4)];
        assert!(head
            .train(&features, &[true, false], &HeadTrainConfig::default())
            .is_err());
        let wrong_width = vec![Matrix::zeros(1, 5)];
        assert!(head
            .train(&wrong_width, &[true], &HeadTrainConfig::default())
            .is_err());
    }

    #[test]
    fn prediction_shape_is_validated() {
        let head = ClassifierHead::new(4, 8, 3);
        assert!(head.predict(&Matrix::zeros(1, 4)).is_ok());
        assert!(head.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn scratch_prediction_matches_matrix_prediction() {
        let (features, labels) = toy_dataset(60, 8, 42);
        let mut head = ClassifierHead::new(8, 16, 5);
        head.train(&features, &labels, &HeadTrainConfig::default())
            .unwrap();
        let mut hidden = Vec::new();
        for f in &features {
            let dense = head.predict(f).unwrap();
            let scratch = head.predict_features(f.row(0), &mut hidden).unwrap();
            assert_eq!(dense, scratch, "paths diverge");
        }
        assert!(head.predict_features(&[0.0; 5], &mut hidden).is_err());
    }

    #[test]
    fn footprint_accessors() {
        let head = ClassifierHead::new(16, 32, 4);
        assert_eq!(head.parameter_count(), 16 * 32 + 32 + 32 + 1);
        assert!(head.flops() > 0);
    }
}
