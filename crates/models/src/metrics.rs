//! Evaluation metrics (paper Section 4.1.2): Accuracy and Top-5 Accuracy.

use crate::{ModelError, Result};
use lightts_tensor::Tensor;

/// Fraction of rows whose highest-probability class equals the label.
pub fn accuracy(probs: &Tensor, labels: &[usize]) -> Result<f64> {
    top_k_accuracy(probs, labels, 1)
}

/// Fraction of rows whose label is among the `k` highest-probability
/// classes. The paper reports `k = 5` for many-class datasets.
///
/// If a dataset has at most `k` classes the metric saturates at 1.0, as the
/// paper observes for the 8-class `UWave`.
pub fn top_k_accuracy(probs: &Tensor, labels: &[usize], k: usize) -> Result<f64> {
    if probs.rank() != 2 {
        return Err(ModelError::BadConfig { what: "top_k_accuracy expects [batch, k]".into() });
    }
    let (b, classes) = (probs.dims()[0], probs.dims()[1]);
    if labels.len() != b {
        return Err(ModelError::BadConfig {
            what: format!("labels length {} != batch {b}", labels.len()),
        });
    }
    if k == 0 {
        return Err(ModelError::BadConfig { what: "k must be positive".into() });
    }
    let mut hits = 0usize;
    for (bi, &label) in labels.iter().enumerate() {
        if label >= classes {
            return Err(ModelError::BadConfig {
                what: format!("label {label} out of {classes} classes"),
            });
        }
        let row = &probs.data()[bi * classes..(bi + 1) * classes];
        let target_p = row[label];
        // rank of the label = number of classes with strictly higher prob
        let higher = row.iter().filter(|&&p| p > target_p).count();
        if higher < k {
            hits += 1;
        }
    }
    Ok(hits as f64 / b as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probs3() -> Tensor {
        // row 0: best class 2; row 1: best class 0; row 2: best class 1
        Tensor::from_vec(vec![0.1, 0.2, 0.7, 0.6, 0.3, 0.1, 0.2, 0.5, 0.3], &[3, 3]).unwrap()
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let p = probs3();
        assert_eq!(accuracy(&p, &[2, 0, 1]).unwrap(), 1.0);
        assert!((accuracy(&p, &[2, 0, 0]).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&p, &[0, 1, 2]).unwrap(), 0.0);
    }

    #[test]
    fn top_k_is_monotone_in_k() {
        let p = probs3();
        let labels = [1usize, 1, 0];
        let a1 = top_k_accuracy(&p, &labels, 1).unwrap();
        let a2 = top_k_accuracy(&p, &labels, 2).unwrap();
        let a3 = top_k_accuracy(&p, &labels, 3).unwrap();
        assert!(a1 <= a2 && a2 <= a3);
        assert_eq!(a3, 1.0);
    }

    #[test]
    fn top5_saturates_for_few_classes() {
        // UWave effect: ≤5 classes ⇒ top-5 accuracy is always 1.0
        let p = Tensor::full(&[4, 3], 1.0 / 3.0);
        assert_eq!(top_k_accuracy(&p, &[0, 1, 2, 0], 5).unwrap(), 1.0);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let p = probs3();
        assert!(top_k_accuracy(&p, &[0, 0], 1).is_err());
        assert!(top_k_accuracy(&p, &[0, 0, 9], 1).is_err());
        assert!(top_k_accuracy(&p, &[0, 0, 0], 0).is_err());
    }
}
