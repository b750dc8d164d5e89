//! Error type for model construction, training, and inference.

use lightts_data::DataError;
use lightts_nn::NnError;
use lightts_obs::checkpoint::DecodeError;
use lightts_tensor::TensorError;
use std::fmt;

/// Errors produced by classifiers.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying layer/optimizer operation failed.
    Nn(NnError),
    /// An underlying dataset operation failed.
    Data(DataError),
    /// A model was configured inconsistently.
    BadConfig {
        /// Description of the violated constraint.
        what: String,
    },
    /// The model was used before being trained.
    NotTrained {
        /// The model that was queried.
        model: &'static str,
    },
    /// The model cannot be compiled for the requested inference plan kind
    /// (e.g. an i8 plan was requested for a model trained without ≤ 8-bit
    /// quantization metadata).
    UnsupportedPlan {
        /// Description of the unsupported combination.
        what: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tensor(e) => write!(f, "tensor error: {e}"),
            Self::Nn(e) => write!(f, "nn error: {e}"),
            Self::Data(e) => write!(f, "data error: {e}"),
            Self::BadConfig { what } => write!(f, "bad model configuration: {what}"),
            Self::NotTrained { model } => write!(f, "{model} used before training"),
            Self::UnsupportedPlan { what } => write!(f, "unsupported inference plan: {what}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Tensor(e) => Some(e),
            Self::Nn(e) => Some(e),
            Self::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ModelError {
    fn from(e: TensorError) -> Self {
        ModelError::Tensor(e)
    }
}

impl From<NnError> for ModelError {
    fn from(e: NnError) -> Self {
        ModelError::Nn(e)
    }
}

impl From<DecodeError> for ModelError {
    fn from(e: DecodeError) -> Self {
        ModelError::BadConfig { what: format!("load: {e}") }
    }
}

impl From<DataError> for ModelError {
    fn from(e: DataError) -> Self {
        ModelError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_work() {
        let e: ModelError = TensorError::Empty { op: "x" }.into();
        assert!(matches!(e, ModelError::Tensor(_)));
        let e: ModelError = NnError::BadConfig { what: "w".into() }.into();
        assert!(matches!(e, ModelError::Nn(_)));
        let e: ModelError = DataError::Empty { op: "x" }.into();
        assert!(matches!(e, ModelError::Data(_)));
    }
}
