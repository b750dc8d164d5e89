//! Error type for distillation.

use lightts_data::DataError;
use lightts_models::ModelError;
use lightts_nn::NnError;
use lightts_obs::checkpoint::DecodeError;
use lightts_tensor::TensorError;
use std::fmt;

/// Errors produced by distillation methods.
#[derive(Debug, Clone, PartialEq)]
pub enum DistillError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying layer/optimizer operation failed.
    Nn(NnError),
    /// An underlying dataset operation failed.
    Data(DataError),
    /// An underlying model operation failed.
    Model(ModelError),
    /// Inconsistent distillation inputs (teacher/student/class mismatches).
    BadInput {
        /// Description of the inconsistency.
        what: String,
    },
    /// Writing or reading a training checkpoint failed (I/O error,
    /// corrupted snapshot, or a snapshot from an incompatible run).
    Checkpoint {
        /// Description of the failure.
        what: String,
    },
    /// An injected fault fired (a `lightts_obs::failpoint` with an `err`
    /// action) — only ever seen under chaos testing.
    Fault {
        /// The failpoint's description of the injection.
        what: String,
    },
}

impl fmt::Display for DistillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tensor(e) => write!(f, "tensor error: {e}"),
            Self::Nn(e) => write!(f, "nn error: {e}"),
            Self::Data(e) => write!(f, "data error: {e}"),
            Self::Model(e) => write!(f, "model error: {e}"),
            Self::BadInput { what } => write!(f, "bad distillation input: {what}"),
            Self::Checkpoint { what } => write!(f, "checkpoint error: {what}"),
            Self::Fault { what } => write!(f, "injected fault: {what}"),
        }
    }
}

impl std::error::Error for DistillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Tensor(e) => Some(e),
            Self::Nn(e) => Some(e),
            Self::Data(e) => Some(e),
            Self::Model(e) => Some(e),
            Self::BadInput { .. } | Self::Checkpoint { .. } | Self::Fault { .. } => None,
        }
    }
}

impl From<TensorError> for DistillError {
    fn from(e: TensorError) -> Self {
        DistillError::Tensor(e)
    }
}

impl From<NnError> for DistillError {
    fn from(e: NnError) -> Self {
        DistillError::Nn(e)
    }
}

impl From<DataError> for DistillError {
    fn from(e: DataError) -> Self {
        DistillError::Data(e)
    }
}

impl From<ModelError> for DistillError {
    fn from(e: ModelError) -> Self {
        DistillError::Model(e)
    }
}

impl From<DecodeError> for DistillError {
    fn from(e: DecodeError) -> Self {
        DistillError::Checkpoint { what: e.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: DistillError = TensorError::Empty { op: "x" }.into();
        assert!(matches!(e, DistillError::Tensor(_)));
        let e: DistillError = ModelError::NotTrained { model: "m" }.into();
        assert!(e.to_string().contains('m'));
    }
}
