//! # lightts-nn
//!
//! Neural-network building blocks for the LightTS reproduction: layers
//! (1-D convolution, linear, batch normalization), losses, optimizers
//! (SGD and Adam, as used in the paper's Section 4.1.5), and
//! quantization-aware training with per-layer bit-widths.
//!
//! Design: parameters live in a [`ParamStore`]; layers hold [`ParamRef`]
//! handles into the store. Each forward pass *binds* the parameters onto a
//! fresh autodiff [`Tape`](lightts_tensor::tape::Tape) (optionally wrapped in
//! a fake-quantization node when the layer is quantized), and after
//! `backward` the optimizer applies the gradients back to the store through
//! the recorded [`Bindings`]. This keeps layers free of interior mutability
//! and makes quantization-aware training a one-line concern per layer.
//!
//! ```
//! use lightts_nn::{ParamStore, layers::Linear, optim::{Sgd, Optimizer}, Bindings};
//! use lightts_tensor::{tape::Tape, Tensor, rng::seeded};
//!
//! let mut rng = seeded(0);
//! let mut store = ParamStore::new();
//! let lin = Linear::new(&mut store, &mut rng, 4, 2, 32).unwrap();
//! let mut opt = Sgd::new(0.1, 0.0);
//!
//! let x = Tensor::ones(&[8, 4]);
//! let mut tape = Tape::new();
//! let mut bind = Bindings::new();
//! let xv = tape.constant(x);
//! let y = lin.forward(&mut tape, &mut bind, &store, xv).unwrap();
//! let loss = tape.mean(y).unwrap();
//! let grads = tape.backward(loss).unwrap();
//! opt.step(&mut store, &bind.collect_grads(grads)).unwrap();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod param;

pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod serialize;
pub mod size;

pub use error::NnError;
pub use param::{Bindings, Param, ParamRef, ParamStore};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NnError>;

/// Whether a forward pass is for training (batch statistics) or inference
/// (running statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training mode: batch-norm uses batch statistics and updates running
    /// averages.
    Train,
    /// Evaluation mode: batch-norm applies its running statistics as the
    /// folded affine of [`layers::BatchNorm1d::folded_affine`]. Inference
    /// runs the compiled plans of `lightts-models`, not the tape; a network
    /// taped in this mode is the reference those plans are tested against,
    /// bit for bit.
    Eval,
}
