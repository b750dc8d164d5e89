//! AED for forecasting — the paper's Section 3.2.1 extension.
//!
//! "In addition to classification, the proposal can be applied to
//! forecasting by replacing the cross entropy term in Equation 2 by a
//! forecasting error term, e.g., mean square error." This module implements
//! exactly that: the student minimizes
//!
//! ```text
//! L = α·MSE(p_w, y) + (1 − α)·Σ_i λ̂_i · MSE(q_i, p_w)
//! ```
//!
//! through classification's own loops: the network's mini-batch loop
//! (`InceptionTime::train_epochs`), the Eq.-2 loss of `trainer` with MSE in
//! place of cross-entropy and KL, the bi-level λ loop behind
//! [`run_aed`](crate::aed::run_aed) (inner on train, outer on validation)
//! and the confident teacher-removal loop behind
//! [`lightts_removal`](crate::removal::lightts_removal), where the
//! selection score is *negative validation MSE* instead of accuracy.

use crate::aed::bilevel;
use crate::removal::remove_teachers;
use crate::trainer::eq2_loss;
use crate::weights::WeightTransform;
use crate::{DistillError, Result};
use lightts_data::forecast::ForecastSplits;
use lightts_models::forecaster::{ForecastConfig, Forecaster};
use lightts_nn::loss::mse;
use lightts_nn::optim::Adam;
use lightts_tensor::rng::seeded;
use lightts_tensor::tape::Tape;
use lightts_tensor::Tensor;

/// Per-teacher forecast predictions on the train and validation windows.
#[derive(Debug, Clone)]
pub struct ForecastTeachers {
    /// Predictions on the training windows, per teacher `[n_train, out]`.
    pub train: Vec<Tensor>,
    /// Predictions on the validation windows, per teacher `[n_val, out]`.
    pub val: Vec<Tensor>,
}

impl ForecastTeachers {
    /// Evaluates trained teacher forecasters on both splits.
    pub fn compute(teachers: &[Forecaster], splits: &ForecastSplits) -> Result<Self> {
        if teachers.is_empty() {
            return Err(DistillError::BadInput { what: "no forecast teachers".into() });
        }
        let train = teachers
            .iter()
            .map(|t| t.predict(splits.train.inputs()).map_err(DistillError::from))
            .collect::<Result<Vec<_>>>()?;
        let val = teachers
            .iter()
            .map(|t| t.predict(splits.validation.inputs()).map_err(DistillError::from))
            .collect::<Result<Vec<_>>>()?;
        Ok(ForecastTeachers { train, val })
    }

    /// Number of teachers.
    pub fn len(&self) -> usize {
        self.train.len()
    }

    /// Whether there are no teachers.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty()
    }

    /// Restriction to the teachers at `keep`.
    pub fn subset(&self, keep: &[usize]) -> Result<Self> {
        if keep.is_empty() {
            return Err(DistillError::BadInput { what: "empty teacher subset".into() });
        }
        let pick = |v: &[Tensor]| -> Result<Vec<Tensor>> {
            keep.iter()
                .map(|&i| {
                    v.get(i).cloned().ok_or(DistillError::BadInput {
                        what: format!("teacher {i} out of {}", v.len()),
                    })
                })
                .collect()
        };
        Ok(ForecastTeachers { train: pick(&self.train)?, val: pick(&self.val)? })
    }
}

/// Configuration of forecast AED.
#[derive(Debug, Clone, Copy)]
pub struct ForecastAedConfig {
    /// Loss mix α between ground-truth MSE and distillation MSE.
    pub alpha: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate (Adam).
    pub lr: f32,
    /// Inner epochs per outer λ update.
    pub v: usize,
    /// Outer λ learning rate.
    pub lambda_lr: f32,
    /// Weight parameterization.
    pub transform: WeightTransform,
    /// Seed.
    pub seed: u64,
}

impl Default for ForecastAedConfig {
    fn default() -> Self {
        ForecastAedConfig {
            alpha: 0.5,
            epochs: 24,
            batch_size: 32,
            lr: 0.01,
            v: 4,
            lambda_lr: 2.0,
            transform: WeightTransform::GumbelConfident { tau: 0.5 },
            seed: 17,
        }
    }
}

/// Outcome of one forecast-AED run.
pub struct ForecastAedResult {
    /// The trained quantized student forecaster.
    pub student: Forecaster,
    /// Final simplex weights λ̂.
    pub weights: Vec<f32>,
    /// Mean squared error on the validation windows (selection metric).
    pub val_mse: f32,
}

/// Runs bi-level forecast AED (Algorithm 1 with MSE terms).
pub fn run_forecast_aed(
    splits: &ForecastSplits,
    teachers: &ForecastTeachers,
    config: &ForecastConfig,
    cfg: &ForecastAedConfig,
) -> Result<ForecastAedResult> {
    let mut rng = seeded(cfg.seed);
    let mut student = Forecaster::new(config.clone(), &mut rng)?;
    let mut optimizer = Adam::new(cfg.lr);
    let train = &splits.train;
    let (_, weights) = bilevel(
        (cfg.epochs, cfg.v, cfg.lambda_lr, cfg.transform),
        [(&teachers.train, train.len()), (&teachers.val, splits.validation.len())],
        &mut student,
        &mut rng,
        |student, weights, rng, epochs| {
            Ok(student.net_mut().train_epochs(
                train.len(),
                cfg.batch_size,
                epochs,
                &mut optimizer,
                rng,
                |rows| Ok(train.batch(rows)?),
                |tape, pred, rows, y| {
                    let gt = tape.mse_to_target(pred, y)?;
                    let dist = |t: &mut Tape, q: &Tensor| t.mse_to_target(pred, q);
                    Ok(eq2_loss(tape, cfg.alpha, gt, &teachers.train, weights, rows, dist)?)
                },
            )?)
        },
        |student| {
            // distances are MSEs between teacher and student predictions on
            // the validation windows
            let p_val = student.predict(splits.validation.inputs())?;
            teachers.val.iter().map(|q| Ok(mse(q, &p_val)?)).collect()
        },
    )?;
    let val_mse = student.mse_on(&splits.validation)?;
    Ok(ForecastAedResult { student, weights, val_mse })
}

/// Forecast LightTS: AED with confident teacher removal, selecting the
/// round with the lowest validation MSE.
pub fn forecast_lightts(
    splits: &ForecastSplits,
    teachers: &ForecastTeachers,
    config: &ForecastConfig,
    cfg: &ForecastAedConfig,
) -> Result<ForecastAedResult> {
    let (best, _, _) = remove_teachers(teachers.len(), true, |kept| {
        let res = run_forecast_aed(splits, &teachers.subset(kept)?, config, cfg)?;
        Ok((res.weights.clone(), -f64::from(res.val_mse), res))
    })?;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_data::forecast::{synthetic_series, windows_from_series};

    fn task(seed: u64) -> ForecastSplits {
        let series = synthetic_series(1, 200, 0.05, seed);
        windows_from_series("fc", &series, 16, 2, 2, 0.15, 0.15).unwrap()
    }

    fn trained_teachers(splits: &ForecastSplits, n: usize, epochs: usize) -> Vec<Forecaster> {
        (0..n)
            .map(|i| {
                let cfg = ForecastConfig::for_task(&splits.train, 4, 32);
                let mut rng = seeded(100 + i as u64);
                let mut f = Forecaster::new(cfg, &mut rng).unwrap();
                f.fit(&splits.train, epochs, 0.01, 200 + i as u64).unwrap();
                f
            })
            .collect()
    }

    #[test]
    fn forecast_aed_distills_a_quantized_student() {
        let splits = task(1);
        let teachers = trained_teachers(&splits, 2, 15);
        let tprobs = ForecastTeachers::compute(&teachers, &splits).unwrap();
        let student_cfg = ForecastConfig::for_task(&splits.train, 4, 8);
        let cfg = ForecastAedConfig { epochs: 12, v: 4, ..Default::default() };
        let res = run_forecast_aed(&splits, &tprobs, &student_cfg, &cfg).unwrap();
        // the distilled student beats the mean-predictor baseline
        let mean = splits.train.targets().mean();
        let mut base = 0.0f32;
        for &v in splits.validation.targets().data() {
            base += (v - mean) * (v - mean);
        }
        base /= splits.validation.targets().len() as f32;
        assert!(res.val_mse < base, "student MSE {} vs baseline {base}", res.val_mse);
        let sum: f32 = res.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn bad_teacher_gets_downweighted_in_forecasting() {
        let splits = task(2);
        // teacher 0: trained; teacher 1: untrained (random predictions)
        let good = {
            let mut t = trained_teachers(&splits, 1, 15);
            t.pop().unwrap()
        };
        let bad = {
            let cfg = ForecastConfig::for_task(&splits.train, 4, 32);
            let mut rng = seeded(999);
            Forecaster::new(cfg, &mut rng).unwrap()
        };
        let tprobs = ForecastTeachers::compute(&[good, bad], &splits).unwrap();
        let student_cfg = ForecastConfig::for_task(&splits.train, 4, 32);
        let cfg = ForecastAedConfig {
            epochs: 12,
            v: 3,
            transform: WeightTransform::Softmax,
            ..Default::default()
        };
        let res = run_forecast_aed(&splits, &tprobs, &student_cfg, &cfg).unwrap();
        assert!(
            res.weights[0] > res.weights[1],
            "untrained teacher should be downweighted: {:?}",
            res.weights
        );
    }

    #[test]
    fn forecast_lightts_removal_never_hurts_selection() {
        let splits = task(3);
        let teachers = trained_teachers(&splits, 3, 10);
        let tprobs = ForecastTeachers::compute(&teachers, &splits).unwrap();
        let student_cfg = ForecastConfig::for_task(&splits.train, 4, 8);
        let cfg = ForecastAedConfig { epochs: 8, v: 4, ..Default::default() };
        let one = run_forecast_aed(&splits, &tprobs, &student_cfg, &cfg).unwrap();
        let best = forecast_lightts(&splits, &tprobs, &student_cfg, &cfg).unwrap();
        // the removal loop selects by val MSE, so it can only match or beat
        // the single run (same seed ⇒ first round identical)
        assert!(best.val_mse <= one.val_mse + 1e-6);
    }

    #[test]
    fn empty_teachers_rejected() {
        let splits = task(4);
        let empty = ForecastTeachers { train: vec![], val: vec![] };
        let student_cfg = ForecastConfig::for_task(&splits.train, 4, 8);
        assert!(run_forecast_aed(&splits, &empty, &student_cfg, &Default::default()).is_err());
        assert!(ForecastTeachers::compute(&[], &splits).is_err());
    }

    /// Zero predictions from `n` teachers, with `extra_rows` more training
    /// rows than the train split has.
    fn zero_teachers(splits: &ForecastSplits, n: usize, extra_rows: usize) -> ForecastTeachers {
        let out = splits.train.targets().dims()[1];
        ForecastTeachers {
            train: vec![Tensor::zeros(&[splits.train.len() + extra_rows, out]); n],
            val: vec![Tensor::zeros(&[splits.validation.len(), out]); n],
        }
    }

    fn quick_cfg() -> ForecastAedConfig {
        ForecastAedConfig {
            epochs: 4,
            v: 2,
            transform: WeightTransform::Softmax,
            ..Default::default()
        }
    }

    #[test]
    fn teacher_predictions_must_cover_exactly_the_train_split() {
        let splits = task(5);
        let student_cfg = ForecastConfig::for_task(&splits.train, 4, 8);
        let long = zero_teachers(&splits, 2, 3);
        assert!(run_forecast_aed(&splits, &long, &student_cfg, &quick_cfg()).is_err());
    }

    #[test]
    fn validation_predictions_must_match_training_teachers() {
        let splits = task(6);
        let student_cfg = ForecastConfig::for_task(&splits.train, 4, 8);
        let mut short = zero_teachers(&splits, 2, 0);
        short.val.pop();
        assert!(run_forecast_aed(&splits, &short, &student_cfg, &quick_cfg()).is_err());
    }
}
