//! Adaptive Ensemble Distillation — paper Algorithm 1.
//!
//! AED trains the quantized student under Eq. 2 while *learning* the teacher
//! weights by bi-level optimization:
//!
//! * **Inner level** (Eq. 4): with weights frozen, the student parameters
//!   `w` are trained on the **training** split for `v` epochs.
//! * **Outer level** (Eq. 3): with the student frozen, the per-teacher
//!   distances `Dist(q_i, p_w)` are measured on the **validation** split and
//!   the logits `λ` take one gradient step on
//!   `α·L_CE + (1−α)·Σ σ(λ)_i·Dist_i` — only the second term depends on λ,
//!   and its gradient is available in closed form through the weight
//!   transform (softmax or the Gumbel-confident chain of Section 3.2.2).
//!
//! Using the *validation* split for the outer level is what prevents λ from
//! overfitting the same data the student trains on, as the paper argues.

use crate::teacher::TeacherProbs;
use crate::trainer::{check_teachers, eval_student, train_student_epochs, StudentTrainOpts};
use crate::weights::{weight_entropy, WeightState, WeightTransform};
use crate::Result;
use lightts_data::Splits;
use lightts_models::inception::{InceptionConfig, InceptionTime};
use lightts_models::Classifier;
use lightts_nn::loss::kl_mean;
use lightts_obs as obs;
use lightts_tensor::rng::seeded;
use lightts_tensor::Tensor;
use rand::rngs::StdRng;

/// Configuration of one AED run.
#[derive(Debug, Clone, Copy)]
pub struct AedConfig {
    /// Inner-level training hyper-parameters (α, epochs, batch, lr).
    pub train: StudentTrainOpts,
    /// Inner epochs per outer λ update (the paper's `v`; 50 of 1500 epochs
    /// there, scaled proportionally here).
    pub v: usize,
    /// Learning rate of the outer λ step.
    pub lambda_lr: f32,
    /// Weight parameterization (softmax, or Gumbel-confident for removal).
    pub transform: WeightTransform,
}

impl Default for AedConfig {
    fn default() -> Self {
        AedConfig {
            train: StudentTrainOpts::default(),
            v: 6,
            lambda_lr: 2.0,
            transform: WeightTransform::GumbelConfident { tau: 0.5 },
        }
    }
}

/// Outcome of one AED run.
#[derive(Debug)]
pub struct AedResult {
    /// The trained quantized student.
    pub student: InceptionTime,
    /// Final raw teacher logits λ.
    pub lambda: Vec<f32>,
    /// Final simplex weights λ̂ (what the removal loop inspects).
    pub weights: Vec<f32>,
    /// Student accuracy on the validation split.
    pub val_accuracy: f64,
    /// Student top-5 accuracy on the validation split.
    pub val_top5: f64,
}

/// Runs Algorithm 1: bi-level AED with the given weight transform.
pub fn run_aed(
    splits: &Splits,
    teachers: &TeacherProbs,
    config: &InceptionConfig,
    cfg: &AedConfig,
) -> Result<AedResult> {
    let mut rng = seeded(cfg.train.seed);
    let mut student = InceptionTime::new(config.clone(), &mut rng)?;
    let mut optimizer = cfg.train.make_optimizer();
    let schedule = (cfg.train.epochs, cfg.v, cfg.lambda_lr, cfg.transform);
    let (lambda, weights) = bilevel(
        schedule,
        [(&teachers.train, splits.train.len()), (&teachers.val, splits.validation.len())],
        &mut student,
        &mut rng,
        |student, weights, rng, epochs| {
            let (train, opts) = (&splits.train, &cfg.train);
            let opt = optimizer.as_mut();
            train_student_epochs(student, train, &teachers.train, weights, opts, opt, rng, epochs)
        },
        |student| {
            let p_val = student.predict_proba_dataset(&splits.validation)?;
            teachers.val.iter().map(|q| Ok(kl_mean(q, &p_val)?)).collect()
        },
    )?;
    let (val_accuracy, val_top5) = eval_student(&student, &splits.validation)?;
    Ok(AedResult { student, lambda, weights, val_accuracy, val_top5 })
}

/// Algorithm 1's bi-level loop, shared by [`run_aed`] and forecasting's
/// [`run_forecast_aed`](crate::forecast::run_forecast_aed).
///
/// `teachers` holds the train and validation teacher tensors with their
/// split's row count; they are checked once here. Starting from uniform
/// weights, `inner` trains the student with frozen weights for `v`-epoch
/// slices of `epochs`, and between slices `distances` measures each
/// teacher's distance to the student on the validation split, from which
/// λ takes one `lambda_lr` step through `transform`. Returns the final
/// logits λ and weights λ̂.
pub(crate) fn bilevel<S>(
    (epochs, v, lambda_lr, transform): (usize, usize, f32, WeightTransform),
    teachers: [(&[Tensor], usize); 2],
    student: &mut S,
    rng: &mut StdRng,
    mut inner: impl FnMut(&mut S, &[f32], &mut StdRng, usize) -> Result<f32>,
    mut distances: impl FnMut(&S) -> Result<Vec<f32>>,
) -> Result<(Vec<f32>, Vec<f32>)> {
    let n = teachers[0].0.len();
    check_teachers(&teachers, n)?;

    // line 2: uniform initialization (zero logits ⇒ σ(λ) = 1/N)
    let mut lambda = vec![0.0f32; n];
    let mut state: WeightState = transform.weights(&lambda, rng);

    let v = v.max(1);
    let mut remaining = epochs;
    let outer_counter = obs::global().counter("aed.outer_steps");
    while remaining > 0 {
        let slice = v.min(remaining);
        // line 6: inner-level steps with frozen weights
        {
            let mut sp = obs::span!("aed.inner", { teachers: n, epochs: slice });
            let loss = inner(student, &state.weights, rng, slice)?;
            sp.record("loss", loss);
        }
        remaining -= slice;
        if remaining == 0 {
            break;
        }
        // line 8: outer-level λ step on the validation split
        let mut sp = obs::span!("aed.outer", { teachers: n });
        let grad = transform.grad(&state, &distances(student)?);
        for (l, g) in lambda.iter_mut().zip(grad.iter()) {
            *l -= lambda_lr * g;
        }
        state = transform.weights(&lambda, rng);
        outer_counter.inc();
        sp.record("weight_entropy", weight_entropy(&state.weights));
        sp.record("weights", format!("{:?}", state.weights));
    }
    Ok((lambda, state.weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_data::synth::{Generator, SynthConfig};
    use lightts_models::inception::BlockSpec;
    use lightts_tensor::Tensor;

    fn splits(classes: usize, seed: u64) -> Splits {
        let gen = Generator::new(
            SynthConfig { classes, dims: 1, length: 24, difficulty: 0.2, waveforms: 3 },
            seed,
        );
        gen.splits("aed-test", 48, 24, 24, seed + 1).unwrap()
    }

    fn student_cfg(classes: usize, bits: u8) -> InceptionConfig {
        InceptionConfig {
            blocks: vec![BlockSpec { layers: 2, filter_len: 8, bits }; 2],
            filters: 4,
            in_dims: 1,
            in_len: 24,
            num_classes: classes,
        }
    }

    /// Synthetic teachers: one oracle (smoothed labels), one anti-oracle.
    fn synthetic_teachers(s: &Splits, sharp: f32) -> TeacherProbs {
        let mk = |ds: &lightts_data::LabeledDataset, invert: bool| {
            let k = ds.num_classes();
            let mut t = Tensor::full(&[ds.len(), k], (1.0 - sharp) / (k as f32 - 1.0));
            for (i, &l) in ds.labels().iter().enumerate() {
                let target = if invert { (l + 1) % k } else { l };
                t.set(&[i, target], sharp).unwrap();
            }
            t
        };
        TeacherProbs::from_raw(
            vec![mk(&s.train, false), mk(&s.train, true)],
            vec![mk(&s.validation, false), mk(&s.validation, true)],
            s.validation.labels(),
        )
        .unwrap()
    }

    #[test]
    fn aed_learns_and_downweights_the_bad_teacher() {
        let s = splits(3, 100);
        let teachers = synthetic_teachers(&s, 0.85);
        let cfg = AedConfig {
            train: StudentTrainOpts { epochs: 24, batch_size: 16, ..Default::default() },
            v: 4,
            lambda_lr: 2.0,
            transform: WeightTransform::Softmax,
        };
        let res = run_aed(&s, &teachers, &student_cfg(3, 8), &cfg).unwrap();
        assert!(res.val_accuracy > 0.5, "val accuracy {}", res.val_accuracy);
        // the anti-oracle teacher (index 1) must end with the smaller weight
        assert!(
            res.weights[1] < res.weights[0],
            "anti-oracle weight {:?} not suppressed",
            res.weights
        );
        assert!(res.lambda[1] < res.lambda[0]);
    }

    #[test]
    fn gumbel_transform_also_trains() {
        let s = splits(2, 101);
        let teachers = synthetic_teachers(&s, 0.9);
        let cfg = AedConfig {
            train: StudentTrainOpts { epochs: 16, batch_size: 16, ..Default::default() },
            v: 4,
            lambda_lr: 2.0,
            transform: WeightTransform::GumbelConfident { tau: 0.5 },
        };
        let res = run_aed(&s, &teachers, &student_cfg(2, 8), &cfg).unwrap();
        assert!(res.val_accuracy > 0.5, "val accuracy {}", res.val_accuracy);
        let sum: f32 = res.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn single_teacher_degenerates_gracefully() {
        let s = splits(2, 102);
        let t = synthetic_teachers(&s, 0.9).subset(&[0]).unwrap();
        let cfg = AedConfig {
            train: StudentTrainOpts { epochs: 8, batch_size: 16, ..Default::default() },
            ..Default::default()
        };
        let res = run_aed(&s, &t, &student_cfg(2, 32), &cfg).unwrap();
        assert_eq!(res.weights.len(), 1);
        assert!((res.weights[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn validation_teachers_must_match_training_teachers() {
        let s = splits(2, 103);
        let mut t = synthetic_teachers(&s, 0.9);
        t.val.pop();
        let cfg = AedConfig {
            train: StudentTrainOpts { epochs: 4, batch_size: 16, ..Default::default() },
            v: 2,
            lambda_lr: 2.0,
            transform: WeightTransform::Softmax,
        };
        assert!(run_aed(&s, &t, &student_cfg(2, 8), &cfg).is_err());
    }
}
