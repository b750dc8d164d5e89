//! Labeled datasets, splits, and batching (paper Sections 2.1.2–2.1.3).

use crate::{DataError, Result, TimeSeries};
use lightts_tensor::{pool, Tensor};

/// A batch of series ready for a classifier: a `[batch, dims, length]`
/// tensor plus the ground-truth label per row.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Input tensor `[batch, dims, length]`.
    pub inputs: Tensor,
    /// Ground-truth class per row.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Number of series in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// A labeled time-series set `D = {(T_i, l_i)}` (paper Section 2.1.2).
///
/// All series in a dataset share the same dimensionality and length
/// (UCR-style), which lets batches be dense tensors.
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    name: String,
    series: Vec<TimeSeries>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl LabeledDataset {
    /// Creates a dataset, validating label range and shape uniformity.
    pub fn new(
        name: impl Into<String>,
        series: Vec<TimeSeries>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self> {
        if series.len() != labels.len() {
            return Err(DataError::Inconsistent {
                what: format!("{} series but {} labels", series.len(), labels.len()),
            });
        }
        if series.is_empty() {
            return Err(DataError::Empty { op: "LabeledDataset::new" });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::Inconsistent {
                what: format!("label {bad} out of {num_classes} classes"),
            });
        }
        let (d0, l0) = (series[0].dims(), series[0].len());
        if series.iter().any(|s| s.dims() != d0 || s.len() != l0) {
            return Err(DataError::Inconsistent {
                what: "all series must share dims and length".into(),
            });
        }
        Ok(LabeledDataset { name: name.into(), series, labels, num_classes })
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of `(series, label)` pairs.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the dataset is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Number of classes `|L|`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Observation dimensionality `M`.
    pub fn dims(&self) -> usize {
        self.series[0].dims()
    }

    /// Series length `C`.
    pub fn series_len(&self) -> usize {
        self.series[0].len()
    }

    /// The `i`-th series.
    pub fn series(&self, i: usize) -> Result<&TimeSeries> {
        self.series.get(i).ok_or(DataError::OutOfRange { index: i, len: self.series.len() })
    }

    /// The `i`-th label.
    pub fn label(&self, i: usize) -> Result<usize> {
        self.labels
            .get(i)
            .copied()
            .ok_or(DataError::OutOfRange { index: i, len: self.labels.len() })
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Assembles the rows at `indices` into a dense batch.
    pub fn batch(&self, indices: &[usize]) -> Result<Batch> {
        if indices.is_empty() {
            return Err(DataError::Empty { op: "batch" });
        }
        let (m, l) = (self.dims(), self.series_len());
        let mut data = pool::take_empty(indices.len() * m * l);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let s = self.series(i)?;
            data.extend_from_slice(s.values().data());
            labels.push(self.label(i)?);
        }
        Ok(Batch { inputs: Tensor::from_vec(data, &[indices.len(), m, l])?, labels })
    }

    /// The whole dataset as one batch.
    pub fn full_batch(&self) -> Result<Batch> {
        let idx: Vec<usize> = (0..self.len()).collect();
        self.batch(&idx)
    }

    /// Returns a copy with every series z-normalized per dimension.
    pub fn z_normalized(&self) -> Self {
        LabeledDataset {
            name: self.name.clone(),
            series: self.series.iter().map(TimeSeries::z_normalized).collect(),
            labels: self.labels.clone(),
            num_classes: self.num_classes,
        }
    }

    /// Per-class counts (useful for stratification checks).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

/// The train/validation/test partition of a dataset (paper Table 1).
#[derive(Debug, Clone)]
pub struct Splits {
    /// Training split (inner-level AED optimization, Eq. 4).
    pub train: LabeledDataset,
    /// Validation split (outer-level λ optimization, Eq. 3).
    pub validation: LabeledDataset,
    /// Held-out test split (all reported accuracies).
    pub test: LabeledDataset,
}

impl Splits {
    /// The shared number of classes.
    pub fn num_classes(&self) -> usize {
        self.train.num_classes()
    }

    /// The shared dataset name.
    pub fn name(&self) -> &str {
        self.train.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, classes: usize) -> LabeledDataset {
        let series = (0..n)
            .map(|i| TimeSeries::univariate(vec![i as f32, 1.0, 2.0, 3.0]).unwrap())
            .collect();
        let labels = (0..n).map(|i| i % classes).collect();
        LabeledDataset::new("toy", series, labels, classes).unwrap()
    }

    #[test]
    fn construction_validates() {
        let s = vec![TimeSeries::univariate(vec![1.0, 2.0]).unwrap()];
        assert!(LabeledDataset::new("x", s.clone(), vec![0, 1], 2).is_err()); // count mismatch
        assert!(LabeledDataset::new("x", s.clone(), vec![5], 2).is_err()); // label range
        assert!(LabeledDataset::new("x", s, vec![1], 2).is_ok());
    }

    #[test]
    fn mixed_lengths_rejected() {
        let s = vec![
            TimeSeries::univariate(vec![1.0, 2.0]).unwrap(),
            TimeSeries::univariate(vec![1.0, 2.0, 3.0]).unwrap(),
        ];
        assert!(LabeledDataset::new("x", s, vec![0, 0], 1).is_err());
    }

    #[test]
    fn batch_layout() {
        let ds = toy(6, 3);
        let b = ds.batch(&[0, 3]).unwrap();
        assert_eq!(b.inputs.dims(), &[2, 1, 4]);
        assert_eq!(b.labels, vec![0, 0]);
        assert_eq!(b.inputs.get(&[1, 0, 0]).unwrap(), 3.0);
    }

    #[test]
    fn class_counts_sum_to_len() {
        let ds = toy(10, 3);
        let counts = ds.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn batch_rejects_bad_index() {
        let ds = toy(4, 2);
        assert!(ds.batch(&[9]).is_err());
        assert!(ds.batch(&[]).is_err());
    }

    #[test]
    fn z_normalized_preserves_structure() {
        let ds = toy(4, 2);
        let z = ds.z_normalized();
        assert_eq!(z.len(), 4);
        assert_eq!(z.num_classes(), 2);
        assert_eq!(z.series_len(), 4);
    }
}
