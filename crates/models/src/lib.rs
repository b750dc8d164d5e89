//! # lightts-models
//!
//! Time-series classifiers for the LightTS reproduction.
//!
//! * [`inception`] — the InceptionTime convolutional classifier (paper
//!   Section 2.2): the default base model *and* the quantized student
//!   architecture. Fully configurable per block (layers, filter length,
//!   bit-width), matching the search space of Section 3.3.1.
//! * [`nondeep`] — the three non-deep base-model families of Section 4.1.4:
//!   the Temporal Dictionary Ensemble (TDE), the Canonical Interval Forest
//!   (CIF), and the Time Series Forest (Forest), built on a from-scratch
//!   decision-tree substrate.
//! * [`inference`] — the compiled, tape-free f32 inference plan:
//!   pre-quantized weights, folded batch-norm, reusable scratch buffers,
//!   bitwise identical to the training network's forward in `Mode::Eval`.
//!   It is the one f32 inference forward: the serving layer runs it, and
//!   `InceptionTime::logits` compiles and runs it for every evaluation.
//! * [`qinference`] — the true-int8 sibling of [`inference`]: weights
//!   stored as `i8` codes, conv/linear executed in `i8×i8→i32` integer
//!   kernels, gated by a golden-fixture parity test against the f32 plan.
//! * [`ensemble`] — N-member ensembles with per-member class distributions
//!   (the teachers of Figure 6) and parallel teacher training.
//! * [`metrics`] — Accuracy and Top-5 Accuracy (Section 4.1.2).
//!
//! All classifiers implement [`Classifier`]: they map a batch of series to a
//! class *distribution* per series — the only requirement LightTS places on
//! base models ("It is only required that the base models output class
//! distributions", Section 3.1).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod classifier;
mod error;

pub mod ensemble;
pub mod forecaster;
pub mod inception;
pub mod inference;
pub mod metrics;
pub mod nondeep;
mod plan;
pub mod qinference;

pub use classifier::Classifier;
pub use error::ModelError;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ModelError>;
