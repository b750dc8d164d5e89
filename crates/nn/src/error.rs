//! Error type for the neural-network crate.

use lightts_obs::checkpoint::DecodeError;
use lightts_tensor::TensorError;
use std::fmt;

/// Errors produced by layer construction, forward passes, and optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A parameter reference did not belong to the given store.
    InvalidParam {
        /// The offending parameter index.
        index: usize,
        /// Number of parameters in the store.
        len: usize,
    },
    /// A layer was configured with an impossible shape or hyper-parameter.
    BadConfig {
        /// Description of the violated constraint.
        what: String,
    },
    /// The gradient for a bound parameter was missing after backward.
    MissingGradient {
        /// The parameter whose gradient was absent.
        index: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tensor(e) => write!(f, "tensor error: {e}"),
            Self::InvalidParam { index, len } => {
                write!(f, "parameter {index} invalid for store of length {len}")
            }
            Self::BadConfig { what } => write!(f, "bad layer configuration: {what}"),
            Self::MissingGradient { index } => {
                write!(f, "no gradient produced for parameter {index}")
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<DecodeError> for NnError {
    fn from(e: DecodeError) -> Self {
        NnError::BadConfig { what: e.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_error_converts() {
        let te = TensorError::Empty { op: "x" };
        let ne: NnError = te.clone().into();
        assert_eq!(ne, NnError::Tensor(te));
    }

    #[test]
    fn display_mentions_cause() {
        let e = NnError::BadConfig { what: "zero filters".into() };
        assert!(e.to_string().contains("zero filters"));
    }
}
