//! Forecasting datasets: sliding windows over long series.
//!
//! The paper notes (Section 3.2.1) that AED "can be applied to forecasting
//! by replacing the cross entropy term in Equation 2 by a forecasting error
//! term, e.g., mean square error". This module provides the data substrate
//! for that extension: a long (possibly multivariate) series is cut into
//! `(history window, horizon)` pairs, split chronologically into
//! train/validation/test so no future leaks into the past.

use crate::{DataError, Result};
use lightts_tensor::rng::{derive_seed, seeded};
use lightts_tensor::{pool, Tensor};
use rand::Rng;

/// A supervised forecasting dataset: inputs `[n, dims, history]` paired
/// with targets `[n, dims × horizon]` (horizon values per dimension,
/// flattened row-major).
#[derive(Debug, Clone)]
pub struct ForecastDataset {
    name: String,
    inputs: Tensor,
    targets: Tensor,
    dims: usize,
    history: usize,
    horizon: usize,
}

impl ForecastDataset {
    /// Number of `(window, horizon)` pairs.
    pub fn len(&self) -> usize {
        self.inputs.dims()[0]
    }

    /// Whether the dataset is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Input dimensionality `M`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// History window length.
    pub fn history(&self) -> usize {
        self.history
    }

    /// Forecast horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All input windows `[n, dims, history]`.
    pub fn inputs(&self) -> &Tensor {
        &self.inputs
    }

    /// All targets `[n, dims × horizon]`.
    pub fn targets(&self) -> &Tensor {
        &self.targets
    }

    /// The rows at `indices` as a `(inputs, targets)` batch.
    pub fn batch(&self, indices: &[usize]) -> Result<(Tensor, Tensor)> {
        if indices.is_empty() {
            return Err(DataError::Empty { op: "forecast batch" });
        }
        let (m, h) = (self.dims, self.history);
        let t_len = self.targets.dims()[1];
        let mut xin = pool::take_empty(indices.len() * m * h);
        let mut tout = pool::take_empty(indices.len() * t_len);
        for &i in indices {
            if i >= self.len() {
                return Err(DataError::OutOfRange { index: i, len: self.len() });
            }
            xin.extend_from_slice(&self.inputs.data()[i * m * h..(i + 1) * m * h]);
            tout.extend_from_slice(&self.targets.data()[i * t_len..(i + 1) * t_len]);
        }
        Ok((
            Tensor::from_vec(xin, &[indices.len(), m, h])?,
            Tensor::from_vec(tout, &[indices.len(), t_len])?,
        ))
    }
}

/// Chronological train/validation/test split of a forecasting task.
#[derive(Debug, Clone)]
pub struct ForecastSplits {
    /// Earliest windows.
    pub train: ForecastDataset,
    /// Middle windows.
    pub validation: ForecastDataset,
    /// Latest windows.
    pub test: ForecastDataset,
}

/// Cuts a `[dims, length]` series into overlapping windows and splits them
/// chronologically with the given fractions.
pub fn windows_from_series(
    name: &str,
    series: &Tensor,
    history: usize,
    horizon: usize,
    stride: usize,
    val_frac: f64,
    test_frac: f64,
) -> Result<ForecastSplits> {
    if series.rank() != 2 {
        return Err(DataError::Inconsistent {
            what: "forecasting source must be [dims, length]".into(),
        });
    }
    if history == 0 || horizon == 0 || stride == 0 {
        return Err(DataError::Inconsistent {
            what: "history, horizon, stride must be positive".into(),
        });
    }
    let (m, l) = (series.dims()[0], series.dims()[1]);
    if l < history + horizon {
        return Err(DataError::Inconsistent {
            what: format!("series length {l} < history {history} + horizon {horizon}"),
        });
    }
    let starts: Vec<usize> = (0..=(l - history - horizon)).step_by(stride).collect();
    let n = starts.len();
    if n < 3 {
        return Err(DataError::Inconsistent { what: "too few windows for three splits".into() });
    }
    let mut xin = Vec::with_capacity(n * m * history);
    let mut tout = Vec::with_capacity(n * m * horizon);
    for &s in &starts {
        for mi in 0..m {
            let row = &series.data()[mi * l..(mi + 1) * l];
            xin.extend_from_slice(&row[s..s + history]);
        }
        for mi in 0..m {
            let row = &series.data()[mi * l..(mi + 1) * l];
            tout.extend_from_slice(&row[s + history..s + history + horizon]);
        }
    }
    let make = |name: &str, lo: usize, hi: usize| -> Result<ForecastDataset> {
        let rows = hi - lo;
        Ok(ForecastDataset {
            name: name.to_string(),
            inputs: Tensor::from_vec(
                xin[lo * m * history..hi * m * history].to_vec(),
                &[rows, m, history],
            )?,
            targets: Tensor::from_vec(
                tout[lo * m * horizon..hi * m * horizon].to_vec(),
                &[rows, m * horizon],
            )?,
            dims: m,
            history,
            horizon,
        })
    };
    let n_test = ((n as f64 * test_frac) as usize).max(1);
    let n_val = ((n as f64 * val_frac) as usize).max(1);
    let n_train = n.checked_sub(n_test + n_val).filter(|&t| t > 0).ok_or_else(|| {
        DataError::Inconsistent { what: "split fractions leave no training windows".into() }
    })?;
    Ok(ForecastSplits {
        train: make(name, 0, n_train)?,
        validation: make(&format!("{name}-val"), n_train, n_train + n_val)?,
        test: make(&format!("{name}-test"), n_train + n_val, n)?,
    })
}

/// Generates a synthetic long series with trend, multiple seasonalities,
/// and noise — a standard forecasting benchmark shape.
pub fn synthetic_series(dims: usize, length: usize, noise: f32, seed: u64) -> Tensor {
    let mut data = Vec::with_capacity(dims * length);
    for mi in 0..dims {
        let mut rng = seeded(derive_seed(seed, mi as u64));
        let trend: f32 = rng.gen_range(-0.5..0.5) / length as f32;
        let p1: f32 = rng.gen_range(8.0..24.0);
        let p2: f32 = rng.gen_range(30.0..90.0);
        let a1: f32 = rng.gen_range(0.5..1.5);
        let a2: f32 = rng.gen_range(0.2..0.8);
        let phase1: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        let phase2: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
        for t in 0..length {
            let tf = t as f32;
            let clean = trend * tf
                + a1 * (std::f32::consts::TAU * tf / p1 + phase1).sin()
                + a2 * (std::f32::consts::TAU * tf / p2 + phase2).sin();
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            data.push(clean + g * noise);
        }
    }
    Tensor::from_vec(data, &[dims, length]).expect("consistent construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_chronological_and_aligned() {
        // series 0..29: window (history 4, horizon 2) starting at s has
        // input [s..s+4] and target [s+4..s+6]
        let series = Tensor::from_vec((0..30).map(|x| x as f32).collect(), &[1, 30]).unwrap();
        let s = windows_from_series("lin", &series, 4, 2, 1, 0.2, 0.2).unwrap();
        let (x, y) = s.train.batch(&[0]).unwrap();
        assert_eq!(x.data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(y.data(), &[4.0, 5.0]);
        // the test split holds the latest windows
        let (xt, _) = s.test.batch(&[s.test.len() - 1]).unwrap();
        assert_eq!(xt.data()[0], (30 - 4 - 2) as f32);
        assert_eq!(s.train.len() + s.validation.len() + s.test.len(), 25);
    }

    #[test]
    fn multivariate_windows_keep_dims_separate() {
        let series = Tensor::from_vec(
            (0..20).map(|x| x as f32).chain((100..120).map(|x| x as f32)).collect(),
            &[2, 20],
        )
        .unwrap();
        let s = windows_from_series("mv", &series, 3, 1, 2, 0.2, 0.2).unwrap();
        let (x, y) = s.train.batch(&[0]).unwrap();
        assert_eq!(x.dims(), &[1, 2, 3]);
        assert_eq!(x.data(), &[0.0, 1.0, 2.0, 100.0, 101.0, 102.0]);
        assert_eq!(y.data(), &[3.0, 103.0]);
    }

    #[test]
    fn rejects_bad_parameters() {
        let series = Tensor::zeros(&[1, 10]);
        assert!(windows_from_series("x", &series, 0, 1, 1, 0.2, 0.2).is_err());
        assert!(windows_from_series("x", &series, 8, 4, 1, 0.2, 0.2).is_err());
        assert!(windows_from_series("x", &Tensor::zeros(&[10]), 2, 1, 1, 0.2, 0.2).is_err());
        // fractions that eat everything
        let long = Tensor::zeros(&[1, 30]);
        assert!(windows_from_series("x", &long, 4, 2, 1, 0.9, 0.9).is_err());
    }

    #[test]
    fn synthetic_series_is_deterministic_and_structured() {
        let a = synthetic_series(2, 200, 0.1, 5);
        let b = synthetic_series(2, 200, 0.1, 5);
        assert_eq!(a, b);
        let c = synthetic_series(2, 200, 0.1, 6);
        assert_ne!(a, c);
        // seasonal: autocorrelation should be visible (sanity: non-constant)
        assert!(a.max() - a.min() > 0.5);
    }

    #[test]
    fn batch_checks_bounds() {
        let series = synthetic_series(1, 60, 0.05, 1);
        let s = windows_from_series("x", &series, 8, 2, 2, 0.2, 0.2).unwrap();
        assert!(s.train.batch(&[s.train.len()]).is_err());
        assert!(s.train.batch(&[]).is_err());
    }
}
