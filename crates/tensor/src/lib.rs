//! # lightts-tensor
//!
//! Dense `f32` tensors, a tape-based reverse-mode automatic-differentiation
//! engine, and the small amount of linear algebra (Cholesky factorization,
//! triangular solves) needed by the LightTS reproduction.
//!
//! The LightTS paper trains quantized InceptionTime students with
//! back-propagation (Algorithm 1) and fits Gaussian processes for the encoded
//! multi-objective Bayesian optimization (Section 3.3.3). Both substrates are
//! provided here from scratch:
//!
//! * [`Tensor`] — an owned, contiguous, row-major `f32` n-d array with the
//!   element-wise, reduction, and convolution kernels used by the neural
//!   classifiers.
//! * [`tape::Tape`] — a define-by-run autodiff tape. Every operation is an
//!   explicit [`tape::Op`] variant with a hand-written backward rule, verified
//!   against finite differences by property tests.
//! * [`linalg`] — Cholesky decomposition and triangular solves for the GP
//!   estimator, and the dense layers' matmul on the register tile.
//! * [`quant`] — uniform quantization (paper Figure 4) shared by the
//!   quantization-aware training op and the model-size accounting.
//! * [`pool`] — a grow-only, size-bucketed buffer pool backing every tensor
//!   allocation, so steady-state training and serving loops perform zero
//!   transient heap allocations (hit/miss counters included).
//! * [`simd`] — the runtime-dispatched vector backends (AVX2+FMA, AVX-512
//!   for the two register tiles, and the scalar oracle) every inner loop
//!   above lowers onto, selected once per process via detection,
//!   `LIGHTTS_SIMD`, or [`simd::set_simd_backend`]; `docs/NUMERICS.md`
//!   documents exactly which kernels stay bitwise identical across
//!   backends (AVX-512 gives AVX2's bits on every kernel).
//!
//! Every kernel runs on the calling thread. The students are small enough
//! (a few filters over tens of steps) that one kernel call costs less than
//! handing it to another thread; parallelism lives at coarse grain instead,
//! in ensemble training and in the serve shards.
//!
//! # Example
//!
//! ```
//! use lightts_tensor::{Tensor, tape::Tape};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(), true);
//! let y = tape.scale(x, 2.0).unwrap();
//! let s = tape.sum(y).unwrap();
//! let grads = tape.backward(s).unwrap();
//! assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0, 2.0]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod shape;
mod tensor;

pub mod conv;
pub mod linalg;
pub mod pool;
pub mod qint;
pub mod quant;
pub mod rng;
pub mod simd;
pub mod tape;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
