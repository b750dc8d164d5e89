//! Neural-network layers: quantizable 1-D convolution, quantizable linear,
//! and batch normalization with running statistics.
//!
//! Each layer owns [`ParamRef`]s into a [`ParamStore`]. Its `forward`
//! records onto an autodiff [`Tape`]; quantized layers wrap their parameters
//! in fake-quantization nodes (QAT). For inference a layer hands out its
//! parameters in the form a compiled plan runs: the conv and linear layers
//! their fake-quantized `(weight, bias)` through `quantized_params`, batch
//! norm its running statistics folded into a per-channel affine through
//! [`BatchNorm1d::folded_affine`]. So the deployed (quantized) model is
//! exactly what was trained. `Linear::eval_forward` also runs a linear
//! layer on plain tensors, for the search encoder's MLP.
//!
//! Convolutions run through [`lightts_tensor::conv`], whose forward and
//! backward passes each run one GEMM-lowered kernel, whatever the layer
//! shape or batch size. All transient buffers (fake-quantized weights,
//! activation tensors) come from the thread-local [`lightts_tensor::pool`],
//! which makes steady-state QAT training steps allocation-free.

use crate::init::he_normal;
use crate::{Bindings, Mode, NnError, ParamRef, ParamStore, Result};
use lightts_tensor::quant::fake_quantize;
use lightts_tensor::tape::{Tape, Var};
use lightts_tensor::Tensor;
use rand::Rng;

/// A "same"-padded 1-D convolution with bias and a storage bit-width.
#[derive(Debug, Clone)]
pub struct Conv1d {
    weight: ParamRef,
    bias: ParamRef,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    bits: u8,
}

impl Conv1d {
    /// Creates a convolution layer, registering its parameters in `store`.
    ///
    /// `bits` is the storage bit-width (32 = full precision), the paper's
    /// per-layer `W_j` dimension of the search space.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        bits: u8,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 {
            return Err(NnError::BadConfig {
                what: format!("Conv1d {name}: zero-sized dimension"),
            });
        }
        if bits == 0 || bits > 32 {
            return Err(NnError::BadConfig {
                what: format!("Conv1d {name}: bits must be 1..=32, got {bits}"),
            });
        }
        let fan_in = in_channels * kernel;
        let w = he_normal(rng, &[out_channels, in_channels, kernel], fan_in);
        let weight = store.register(format!("{name}.weight"), w, bits);
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_channels]), bits);
        Ok(Conv1d { weight, bias, in_channels, out_channels, kernel, bits })
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Kernel (filter) length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Storage bit-width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of scalar parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel + self.out_channels
    }

    /// Training forward: records conv + bias onto the tape.
    pub fn forward(
        &self,
        tape: &mut Tape,
        bind: &mut Bindings,
        store: &ParamStore,
        x: Var,
    ) -> Result<Var> {
        let w = bind.bind(tape, store, self.weight)?;
        let b = bind.bind(tape, store, self.bias)?;
        let y = tape.conv1d(x, w)?;
        Ok(tape.add_bias(y, b)?)
    }

    /// The (fake-)quantized `(weight, bias)` pair the forward computes with.
    ///
    /// Inference engines call this once at model-compile time so the
    /// per-request hot path skips re-quantizing parameters on every call.
    /// The returned tensors are bitwise identical to the values the tape's
    /// fake-quantization nodes give [`forward`](Self::forward).
    pub fn quantized_params(&self, store: &ParamStore) -> Result<(Tensor, Tensor)> {
        let w = fake_quantize(&store.get(self.weight)?.value, self.bits)?;
        let b = fake_quantize(&store.get(self.bias)?.value, self.bits)?;
        Ok((w, b))
    }
}

/// A fully-connected layer `y = x W + b` with a storage bit-width.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamRef,
    bias: ParamRef,
    in_features: usize,
    out_features: usize,
    bits: u8,
}

impl Linear {
    /// Creates a linear layer, registering parameters in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        in_features: usize,
        out_features: usize,
        bits: u8,
    ) -> Result<Self> {
        Self::with_name(store, rng, "linear", in_features, out_features, bits)
    }

    /// Creates a named linear layer.
    pub fn with_name<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        in_features: usize,
        out_features: usize,
        bits: u8,
    ) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::BadConfig {
                what: format!("Linear {name}: zero-sized dimension"),
            });
        }
        if bits == 0 || bits > 32 {
            return Err(NnError::BadConfig {
                what: format!("Linear {name}: bits must be 1..=32, got {bits}"),
            });
        }
        let w = he_normal(rng, &[in_features, out_features], in_features);
        let weight = store.register(format!("{name}.weight"), w, bits);
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_features]), bits);
        Ok(Linear { weight, bias, in_features, out_features, bits })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Storage bit-width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.in_features * self.out_features + self.out_features
    }

    /// Training forward: `x[b,in] @ W[in,out] + bias`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        bind: &mut Bindings,
        store: &ParamStore,
        x: Var,
    ) -> Result<Var> {
        let w = bind.bind(tape, store, self.weight)?;
        let b = bind.bind(tape, store, self.bias)?;
        let y = tape.matmul(x, w)?;
        Ok(tape.add_bias(y, b)?)
    }

    /// The (fake-)quantized `(weight, bias)` pair the forward computes with.
    ///
    /// Same contract as [`Conv1d::quantized_params`]: compile-time hoisting
    /// of the per-call quantization, bitwise identical results.
    pub fn quantized_params(&self, store: &ParamStore) -> Result<(Tensor, Tensor)> {
        let w = fake_quantize(&store.get(self.weight)?.value, self.bits)?;
        let b = fake_quantize(&store.get(self.bias)?.value, self.bits)?;
        Ok((w, b))
    }

    /// Inference forward on plain tensors with (fake-)quantized weights.
    pub fn eval_forward(&self, store: &ParamStore, x: &Tensor) -> Result<Tensor> {
        let (w, b) = self.quantized_params(store)?;
        let y = x.matmul(&w)?;
        let (batch, k) = (y.dims()[0], y.dims()[1]);
        let mut out = y.into_vec();
        for bi in 0..batch {
            for ci in 0..k {
                out[bi * k + ci] += b.data()[ci];
            }
        }
        Ok(Tensor::from_vec(out, &[batch, k])?)
    }
}

/// Batch normalization over `[batch, channels, length]` with running
/// statistics for inference.
///
/// γ/β are kept at full precision (standard practice — they are a negligible
/// fraction of model size and quantizing them destabilizes training).
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: ParamRef,
    beta: ParamRef,
    channels: usize,
    eps: f32,
    momentum: f32,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `channels` channels.
    pub fn new(store: &mut ParamStore, name: &str, channels: usize) -> Result<Self> {
        if channels == 0 {
            return Err(NnError::BadConfig { what: format!("BatchNorm1d {name}: zero channels") });
        }
        let gamma = store.register(format!("{name}.gamma"), Tensor::ones(&[channels]), 32);
        let beta = store.register(format!("{name}.beta"), Tensor::zeros(&[channels]), 32);
        Ok(BatchNorm1d {
            gamma,
            beta,
            channels,
            eps: 1e-5,
            momentum: 0.1,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
        })
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of scalar parameters (γ and β).
    pub fn num_params(&self) -> usize {
        2 * self.channels
    }

    /// The running `(mean, variance)` statistics used at inference.
    pub fn running_stats(&self) -> (&[f32], &[f32]) {
        (&self.running_mean, &self.running_var)
    }

    /// Overwrites the running statistics (model loading).
    pub fn set_running_stats(&mut self, mean: &[f32], var: &[f32]) -> Result<()> {
        if mean.len() != self.channels || var.len() != self.channels {
            return Err(NnError::BadConfig {
                what: format!(
                    "running stats length {}/{} != channels {}",
                    mean.len(),
                    var.len(),
                    self.channels
                ),
            });
        }
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
        Ok(())
    }

    /// Training/eval forward on the tape.
    ///
    /// In [`Mode::Train`] the layer uses batch statistics and updates its
    /// running averages (hence `&mut self`); in [`Mode::Eval`] it applies the
    /// running statistics as a per-channel affine transform.
    pub fn forward(
        &mut self,
        tape: &mut Tape,
        bind: &mut Bindings,
        store: &ParamStore,
        x: Var,
        mode: Mode,
    ) -> Result<Var> {
        match mode {
            Mode::Train => {
                let g = bind.bind(tape, store, self.gamma)?;
                let b = bind.bind(tape, store, self.beta)?;
                let (y, mean, var) = tape.batch_norm(x, g, b, self.eps)?;
                for c in 0..self.channels {
                    self.running_mean[c] =
                        (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                    self.running_var[c] =
                        (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
                }
                Ok(y)
            }
            Mode::Eval => {
                // The folded affine, `x * scale[c] + shift[c]`, recorded as
                // a constant: the compiled plan applies the same two steps.
                let (scale, shift) = self.folded_affine(store)?;
                let mut y = tape.value(x)?.clone();
                let l = y.dims()[2];
                let rows = y.data_mut().chunks_exact_mut(l);
                for (row, c) in rows.zip((0..self.channels).cycle()) {
                    for v in row {
                        *v = *v * scale[c] + shift[c];
                    }
                }
                Ok(tape.constant(y))
            }
        }
    }

    /// Folds γ/β and the running statistics into per-channel `(scale,
    /// shift)` vectors: `y = x * scale[c] + shift[c]`, what [`Mode::Eval`]
    /// applies. Inference engines hoist this out of the per-request loop.
    pub fn folded_affine(&self, store: &ParamStore) -> Result<(Vec<f32>, Vec<f32>)> {
        let g = &store.get(self.gamma)?.value;
        let be = &store.get(self.beta)?.value;
        let mut scale = vec![0.0f32; self.channels];
        let mut shift = vec![0.0f32; self.channels];
        for ci in 0..self.channels {
            let inv = 1.0 / (self.running_var[ci] + self.eps).sqrt();
            scale[ci] = g.data()[ci] * inv;
            shift[ci] = be.data()[ci] - self.running_mean[ci] * scale[ci];
        }
        Ok((scale, shift))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_tensor::rng::seeded;

    #[test]
    fn conv_layer_shapes_and_params() {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, &mut rng, "c", 2, 4, 5, 8).unwrap();
        assert_eq!(conv.num_params(), 4 * 2 * 5 + 4);
        assert_eq!(store.size_bits(), (4 * 2 * 5 + 4) * 8);

        let (w, b) = conv.quantized_params(&store).unwrap();
        assert_eq!((w.dims(), b.dims()), (&[4, 2, 5][..], &[4][..]));
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[3, 2, 7]));
        let y = conv.forward(&mut tape, &mut Bindings::new(), &store, x).unwrap();
        assert_eq!(tape.value(y).unwrap().dims(), &[3, 4, 7]);
    }

    /// The tape forward of `conv` on `x`, and the same conv computed from
    /// [`Conv1d::quantized_params`]: kernel output plus bias.
    fn tape_and_quantized_conv(conv: &Conv1d, store: &ParamStore, x: &Tensor) -> [Tensor; 2] {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let yv = conv.forward(&mut tape, &mut Bindings::new(), store, xv).unwrap();
        let (w, b) = conv.quantized_params(store).unwrap();
        let mut y = lightts_tensor::conv::conv1d_forward(x, &w).unwrap();
        let l = y.dims()[2];
        for (row, &bias) in y.data_mut().chunks_exact_mut(l).zip(b.data().iter().cycle()) {
            row.iter_mut().for_each(|v| *v += bias);
        }
        [tape.value(yv).unwrap().clone(), y]
    }

    #[test]
    fn conv_rejects_bad_config() {
        let mut rng = seeded(1);
        let mut store = ParamStore::new();
        assert!(Conv1d::new(&mut store, &mut rng, "c", 0, 4, 5, 8).is_err());
        assert!(Conv1d::new(&mut store, &mut rng, "c", 2, 4, 5, 0).is_err());
        assert!(Conv1d::new(&mut store, &mut rng, "c", 2, 4, 5, 33).is_err());
    }

    #[test]
    fn conv_train_and_eval_agree_at_32_bits() {
        let mut rng = seeded(2);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, &mut rng, "c", 1, 2, 3, 32).unwrap();
        let x = Tensor::randn(&mut rng, &[2, 1, 6], 1.0);

        // at 32 bits the inference parameters are the stored ones
        let (w, b) = conv.quantized_params(&store).unwrap();
        assert_eq!(&w, &store.get(conv.weight).unwrap().value);
        assert_eq!(&b, &store.get(conv.bias).unwrap().value);
        let [y_train, y_eval] = tape_and_quantized_conv(&conv, &store, &x);
        assert_eq!(y_train, y_eval);
    }

    #[test]
    fn quantized_conv_uses_quantized_weights_in_both_paths() {
        let mut rng = seeded(3);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, &mut rng, "c", 1, 2, 3, 4).unwrap();
        let x = Tensor::randn(&mut rng, &[1, 1, 5], 1.0);

        // at 4 bits the inference weights are the quantized ones, not the
        // stored shadow weights, and the tape forward computes with them
        let (w, _) = conv.quantized_params(&store).unwrap();
        assert_ne!(&w, &store.get(conv.weight).unwrap().value);
        let [y_train, y_eval] = tape_and_quantized_conv(&conv, &store, &x);
        assert_eq!(y_train, y_eval, "train/eval quantized paths diverge");
    }

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = seeded(4);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, 3, 2, 32).unwrap();
        let x = Tensor::ones(&[1, 3]);
        let y = lin.eval_forward(&store, &x).unwrap();
        // y = Σ_i W[i, j] + b[j]
        let w = &store.get(lin.weight).unwrap().value;
        for j in 0..2 {
            let expect: f32 = (0..3).map(|i| w.get(&[i, j]).unwrap()).sum();
            assert!((y.get(&[0, j]).unwrap() - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn batchnorm_train_updates_running_stats() {
        let mut rng = seeded(5);
        let mut store = ParamStore::new();
        let mut bn = BatchNorm1d::new(&mut store, "bn", 2).unwrap();
        let x = Tensor::randn(&mut rng, &[4, 2, 8], 2.0).add_scalar(3.0);
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let xv = tape.constant(x);
        let before = bn.running_mean.clone();
        let _ = bn.forward(&mut tape, &mut bind, &store, xv, Mode::Train).unwrap();
        assert_ne!(bn.running_mean, before);
        assert!(bn.running_mean[0] > 0.0, "running mean should drift toward 3");
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = seeded(6);
        let mut store = ParamStore::new();
        let mut bn = BatchNorm1d::new(&mut store, "bn", 1).unwrap();
        // train several steps on shifted data so running stats converge
        for _ in 0..50 {
            let x = Tensor::randn(&mut rng, &[8, 1, 16], 1.0).add_scalar(5.0);
            let mut tape = Tape::new();
            let mut bind = Bindings::new();
            let xv = tape.constant(x);
            let _ = bn.forward(&mut tape, &mut bind, &store, xv, Mode::Train).unwrap();
        }
        // eval on data with the same distribution: output mean ≈ 0, and the
        // running statistics stay put
        let x = Tensor::randn(&mut rng, &[8, 1, 16], 1.0).add_scalar(5.0);
        let stats = (bn.running_mean.clone(), bn.running_var.clone());
        let mut tape = Tape::new();
        let xv = tape.constant(x);
        let yv = bn.forward(&mut tape, &mut Bindings::new(), &store, xv, Mode::Eval).unwrap();
        let y = tape.value(yv).unwrap();
        assert!(y.mean().abs() < 0.5, "eval mean was {}", y.mean());
        assert_eq!((bn.running_mean, bn.running_var), stats);
    }

    #[test]
    fn linear_train_path_produces_grads_for_both_params() {
        let mut rng = seeded(7);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, 3, 2, 8).unwrap();
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let xv = tape.constant(Tensor::ones(&[4, 3]));
        let y = lin.forward(&mut tape, &mut bind, &store, xv).unwrap();
        let loss = tape.mean(y).unwrap();
        let grads = tape.backward(loss).unwrap();
        let collected = bind.collect_grads(grads);
        assert_eq!(collected.len(), 2);
    }
}
