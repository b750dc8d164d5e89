//! # lightts
//!
//! **LightTS: Lightweight Time Series Classification with Adaptive Ensemble
//! Distillation** — a from-scratch Rust reproduction of the SIGMOD 2023
//! paper by Campos et al.
//!
//! LightTS compresses a large ensemble of time-series classifiers into a
//! single lightweight (quantized) model while keeping competitive accuracy.
//! It supports the paper's two problem scenarios:
//!
//! 1. **A student setting is given** (layers, filter lengths, bit-widths):
//!    [`LightTs::distill`] runs adaptive ensemble distillation with
//!    confident Gumbel teacher removal (paper Section 3.2) and returns the
//!    best student found.
//! 2. **Only a storage budget is known**: [`LightTs::pareto_frontier`]
//!    explores the student search space with encoded multi-objective
//!    Bayesian optimization (Section 3.3) and returns the accuracy/size
//!    Pareto frontier; [`LightTs::select_for_budget`] then picks the best
//!    setting under a byte budget.
//!
//! ```no_run
//! use lightts::prelude::*;
//!
//! // data: any UCR-style splits (here: the synthetic Adiac analogue)
//! let spec = lightts::data::archive::table1("Adiac").unwrap();
//! let splits = spec.generate(Scale::quick());
//!
//! // teachers: an ensemble of 10 InceptionTime base models
//! let cfg = EnsembleTrainConfig::default();
//! let ensemble = train_ensemble(BaseModelKind::InceptionTime, &splits.train, &cfg).unwrap();
//!
//! // scenario 1: distill into a 3×3-block 8-bit student
//! let lightts = LightTs::new(LightTsConfig::default());
//! let outcome = lightts.distill(&splits, &ensemble, 8).unwrap();
//! println!("student size: {} bytes", outcome.student.size_bits() / 8);
//! ```
//!
//! The sub-crates are re-exported under short names: [`tensor`], [`nn`],
//! [`data`], [`models`], [`distill`], [`search`], [`serve`], [`stats`];
//! the kernels' SIMD backend is configured through [`runtime`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use lightts_data as data;
pub use lightts_distill as distill;
pub use lightts_models as models;
pub use lightts_nn as nn;
pub use lightts_search as search;
pub use lightts_serve as serve;
pub use lightts_stats as stats;
pub use lightts_tensor as tensor;

mod error;
mod pipeline;
pub mod runtime;

pub use error::LightTsError;
pub use pipeline::{LightTs, LightTsConfig, OracleStats, ParetoRun};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LightTsError>;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::data::{archive, LabeledDataset, Scale, Splits, TimeSeries};
    pub use crate::distill::{
        aed::AedConfig, method::DistillOpts, run_method, trainer::StudentTrainOpts, DistillOutcome,
        Method, TeacherProbs,
    };
    pub use crate::models::ensemble::{
        train_ensemble, BaseModelKind, Ensemble, EnsembleTrainConfig,
    };
    pub use crate::models::inception::{BlockSpec, InceptionConfig, InceptionTime, TrainConfig};
    pub use crate::models::metrics::{accuracy, top_k_accuracy};
    pub use crate::models::Classifier;
    pub use crate::search::mobo::{MoboConfig, SpaceRepr};
    pub use crate::search::pareto::best_under_budget;
    pub use crate::search::{Evaluated, SearchSpace, StudentSetting};
    pub use crate::serve::{ModelRegistry, ServeConfig, Server};
    pub use crate::{LightTs, LightTsConfig, ParetoRun};
}
