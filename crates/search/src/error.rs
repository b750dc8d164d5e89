//! Error type for the search crate.

use lightts_models::ModelError;
use lightts_nn::NnError;
use lightts_obs::checkpoint::DecodeError;
use lightts_tensor::TensorError;
use std::fmt;

/// Errors produced by search-space handling, GP fitting, and MOBO.
#[derive(Debug)]
pub enum SearchError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying layer/optimizer operation failed.
    Nn(NnError),
    /// An underlying model operation failed.
    Model(ModelError),
    /// An invalid search-space or optimizer configuration.
    BadConfig {
        /// Description of the violated constraint.
        what: String,
    },
    /// The injected accuracy evaluator failed.
    Evaluator {
        /// Stringified evaluator error.
        what: String,
    },
    /// Writing or reading a search checkpoint failed (I/O error, corrupted
    /// snapshot, or a snapshot from an incompatible run).
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

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tensor(e) => write!(f, "tensor error: {e}"),
            Self::Nn(e) => write!(f, "nn error: {e}"),
            Self::Model(e) => write!(f, "model error: {e}"),
            Self::BadConfig { what } => write!(f, "bad search configuration: {what}"),
            Self::Evaluator { what } => write!(f, "accuracy evaluator failed: {what}"),
            Self::Checkpoint { what } => write!(f, "checkpoint error: {what}"),
            Self::Fault { what } => write!(f, "injected fault: {what}"),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Tensor(e) => Some(e),
            Self::Nn(e) => Some(e),
            Self::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SearchError {
    fn from(e: TensorError) -> Self {
        SearchError::Tensor(e)
    }
}

impl From<NnError> for SearchError {
    fn from(e: NnError) -> Self {
        SearchError::Nn(e)
    }
}

impl From<ModelError> for SearchError {
    fn from(e: ModelError) -> Self {
        SearchError::Model(e)
    }
}

impl From<DecodeError> for SearchError {
    fn from(e: DecodeError) -> Self {
        SearchError::Checkpoint { what: e.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_works() {
        let e = SearchError::BadConfig { what: "empty space".into() };
        assert!(e.to_string().contains("empty space"));
    }
}
