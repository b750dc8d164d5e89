//! The shared quantized-student trainer.
//!
//! Every distillation method in this crate ultimately minimizes the AED
//! objective of paper Eq. 2,
//!
//! ```text
//! L = α·L_CE(p_w, y) + (1 − α)·Σ_i w_i · KL(q_i ‖ p_w)
//! ```
//!
//! differing only in how the teacher weights `w` are produced (uniform,
//! CAWPE, min-norm, reinforced, or AED's learned λ̂) and whether they change
//! during training. Routing all methods through this one trainer keeps the
//! comparison honest: accuracy differences in the experiment tables come
//! from the weighting strategy, not from trainer implementation drift.
//!
//! The trainer is the network's one mini-batch loop,
//! [`InceptionTime::train_epochs`], with the Eq.-2 loss built per batch;
//! forecasting ([`crate::forecast`]) builds the same loss with MSE terms.

use crate::{DistillError, Result};
use lightts_data::LabeledDataset;
use lightts_models::inception::{InceptionConfig, InceptionTime};
use lightts_models::metrics::{accuracy, top_k_accuracy};
use lightts_models::Classifier;
use lightts_nn::optim::{Adam, Optimizer, Sgd};
use lightts_obs as obs;
use lightts_tensor::rng::seeded;
use lightts_tensor::tape::{Tape, Var};
use lightts_tensor::Tensor;
use rand::rngs::StdRng;
use std::time::Instant;

/// Hyper-parameters of student training (paper Section 4.1.5).
#[derive(Debug, Clone, Copy)]
pub struct StudentTrainOpts {
    /// Loss mix `α` between cross-entropy and distillation (paper: 0.5).
    pub alpha: f32,
    /// Total training epochs.
    pub epochs: usize,
    /// Mini-batch size (paper: 64).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Use Adam instead of SGD+momentum. (The paper uses SGD over 1500
    /// epochs; at this reproduction's reduced epoch budget Adam reaches the
    /// same regime — see DESIGN.md.)
    pub adam: bool,
    /// Seed for shuffling and initialization.
    pub seed: u64,
}

impl Default for StudentTrainOpts {
    fn default() -> Self {
        StudentTrainOpts { alpha: 0.5, epochs: 36, batch_size: 32, lr: 0.01, adam: true, seed: 11 }
    }
}

impl StudentTrainOpts {
    /// Creates the optimizer this configuration asks for.
    pub fn make_optimizer(&self) -> Box<dyn Optimizer> {
        if self.adam {
            Box::new(Adam::new(self.lr))
        } else {
            Box::new(Sgd::new(self.lr, 0.9))
        }
    }
}

/// Validates teacher tensors: there is at least one teacher, and each
/// `(tensors, rows)` split holds one `[rows, _]` tensor per teacher,
/// `teachers` in all.
pub(crate) fn check_teachers(splits: &[(&[Tensor], usize)], teachers: usize) -> Result<()> {
    if teachers == 0 {
        return Err(DistillError::BadInput { what: "no teachers".into() });
    }
    for &(qs, rows) in splits {
        if qs.len() != teachers {
            return Err(DistillError::BadInput {
                what: format!("{} teacher tensors for {teachers} teachers", qs.len()),
            });
        }
        for (i, q) in qs.iter().enumerate() {
            if q.rank() != 2 || q.dims()[0] != rows {
                return Err(DistillError::BadInput {
                    what: format!("teacher {i} shape {:?} does not cover {rows} rows", q.dims()),
                });
            }
        }
    }
    Ok(())
}

/// Eq. 2 on the tape for one mini-batch,
/// `α·gt + (1−α)·Σ_i w_i·dist(q_i[rows])`, over the teachers whose weight
/// exceeds 1e-6. Classification passes cross-entropy and KL, forecasting
/// MSE and MSE.
pub(crate) fn eq2_loss(
    tape: &mut Tape,
    alpha: f32,
    gt: Var,
    teachers: &[Tensor],
    weights: &[f32],
    rows: &[usize],
    dist: impl Fn(&mut Tape, Tensor) -> lightts_tensor::Result<Var>,
) -> lightts_tensor::Result<Var> {
    let mut loss = tape.scale(gt, alpha)?;
    for (q, &w) in teachers.iter().zip(weights) {
        if w <= 1e-6 {
            continue;
        }
        let d = dist(tape, q.gather_rows(rows)?)?;
        let term = tape.scale(d, (1.0 - alpha) * w)?;
        loss = tape.add(loss, term)?;
    }
    Ok(loss)
}

/// Runs `epochs` epochs of Eq.-2 training with *fixed* teacher weights,
/// preserving optimizer state across calls (the AED inner level runs this in
/// `v`-epoch slices between λ updates). Each epoch is one pass of the
/// network's shared mini-batch loop, [`InceptionTime::train_epochs`].
///
/// Returns the mean loss of the final epoch.
#[allow(clippy::too_many_arguments)]
pub fn train_student_epochs(
    student: &mut InceptionTime,
    train: &LabeledDataset,
    q_train: &[Tensor],
    weights: &[f32],
    opts: &StudentTrainOpts,
    optimizer: &mut dyn Optimizer,
    rng: &mut StdRng,
    epochs: usize,
) -> Result<f32> {
    check_teachers(&[(q_train, train.len())], weights.len())?;
    let mut last_loss = f32::INFINITY;
    let epoch_counter = obs::global().counter("distill.epochs");
    let epoch_ns = obs::global().histogram("distill.epoch_ns");
    for epoch in 0..epochs {
        obs::failpoint::hit("trainer.epoch").map_err(|what| DistillError::Fault { what })?;
        let mut sp = obs::span!("trainer.epoch", { epoch: epoch, samples: train.len() });
        let t0 = Instant::now();
        last_loss = student.train_epochs(
            train.len(),
            opts.batch_size,
            1,
            optimizer,
            rng,
            |rows| Ok(train.batch(rows).map(|b| (b.inputs, b.labels))?),
            |tape, logits, rows, labels| {
                let logp = tape.log_softmax(logits)?;
                let ce = tape.nll_mean(logp, &labels)?;
                let kl = |t: &mut Tape, q: Tensor| t.kl_to_target(logp, q);
                Ok(eq2_loss(tape, opts.alpha, ce, q_train, weights, rows, kl)?)
            },
        )?;
        epoch_counter.inc();
        epoch_ns.record_duration(t0.elapsed());
        sp.record("loss", last_loss);
        sp.record("batches", train.len().div_ceil(opts.batch_size));
    }
    Ok(last_loss)
}

/// Builds a fresh student and trains it to completion with fixed weights
/// (the single-shot path used by the Classic-KD-style baselines).
pub fn train_student(
    config: &InceptionConfig,
    train: &LabeledDataset,
    q_train: &[Tensor],
    weights: &[f32],
    opts: &StudentTrainOpts,
) -> Result<InceptionTime> {
    let mut rng = seeded(opts.seed);
    let mut student = InceptionTime::new(config.clone(), &mut rng)?;
    let mut optimizer = opts.make_optimizer();
    train_student_epochs(
        &mut student,
        train,
        q_train,
        weights,
        opts,
        optimizer.as_mut(),
        &mut rng,
        opts.epochs,
    )?;
    Ok(student)
}

/// Evaluates a student: `(accuracy, top-5 accuracy)` on `ds`.
pub fn eval_student(student: &InceptionTime, ds: &LabeledDataset) -> Result<(f64, f64)> {
    let probs = student.predict_proba_dataset(ds)?;
    let acc = accuracy(&probs, ds.labels())?;
    let top5 = top_k_accuracy(&probs, ds.labels(), 5)?;
    obs::event!("trainer.eval", { samples: ds.len(), acc: acc, top5: top5 });
    Ok((acc, top5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_data::synth::{Generator, SynthConfig};
    use lightts_models::inception::BlockSpec;

    fn data(classes: usize, n: usize, seed: u64) -> LabeledDataset {
        let gen = Generator::new(
            SynthConfig { classes, dims: 1, length: 24, difficulty: 0.15, waveforms: 3 },
            seed,
        );
        gen.split("trainer-test", n, seed + 1).unwrap()
    }

    fn tiny_student(classes: usize, bits: u8) -> InceptionConfig {
        InceptionConfig {
            blocks: vec![BlockSpec { layers: 2, filter_len: 8, bits }; 2],
            filters: 4,
            in_dims: 1,
            in_len: 24,
            num_classes: classes,
        }
    }

    /// A perfect synthetic teacher: slightly smoothed one-hot labels.
    fn oracle_probs(ds: &LabeledDataset, sharp: f32) -> Tensor {
        let k = ds.num_classes();
        let mut t = Tensor::full(&[ds.len(), k], (1.0 - sharp) / (k as f32 - 1.0));
        for (i, &l) in ds.labels().iter().enumerate() {
            t.set(&[i, l], sharp).unwrap();
        }
        t
    }

    #[test]
    fn distillation_from_oracle_teacher_learns() {
        let train = data(3, 48, 90);
        let q = oracle_probs(&train, 0.9);
        let opts = StudentTrainOpts { epochs: 20, batch_size: 16, ..Default::default() };
        let student = train_student(&tiny_student(3, 8), &train, &[q], &[1.0], &opts).unwrap();
        let (acc, top5) = eval_student(&student, &train).unwrap();
        assert!(acc > 0.7, "distilled train accuracy {acc}");
        assert!(top5 >= acc);
    }

    #[test]
    fn zero_weight_teachers_are_skipped() {
        let train = data(2, 24, 91);
        let good = oracle_probs(&train, 0.9);
        // adversarial teacher: uniform — would slow learning if not skipped
        let bad = Tensor::full(&[train.len(), 2], 0.5);
        let opts = StudentTrainOpts { epochs: 10, batch_size: 12, ..Default::default() };
        let s =
            train_student(&tiny_student(2, 32), &train, &[good, bad], &[1.0, 0.0], &opts).unwrap();
        let (acc, _) = eval_student(&s, &train).unwrap();
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn mismatched_teacher_rows_rejected() {
        let train = data(2, 24, 92);
        let q = Tensor::full(&[10, 2], 0.5); // wrong row count
        let opts = StudentTrainOpts::default();
        assert!(train_student(&tiny_student(2, 32), &train, &[q], &[1.0], &opts).is_err());
    }

    #[test]
    fn zero_batch_size_is_an_error() {
        let train = data(2, 24, 95);
        let q = oracle_probs(&train, 0.9);
        let opts = StudentTrainOpts { epochs: 1, batch_size: 0, ..Default::default() };
        assert!(train_student(&tiny_student(2, 32), &train, &[q], &[1.0], &opts).is_err());
    }

    #[test]
    fn weight_count_must_match() {
        let train = data(2, 24, 93);
        let q = oracle_probs(&train, 0.9);
        let opts = StudentTrainOpts::default();
        assert!(train_student(&tiny_student(2, 32), &train, &[q], &[0.5, 0.5], &opts).is_err());
    }

    #[test]
    fn optimizer_state_persists_across_slices() {
        // Training in two 5-epoch slices with one optimizer should behave
        // like training; loss after slices should drop below the start.
        let train = data(2, 24, 94);
        let q = oracle_probs(&train, 0.9);
        let opts = StudentTrainOpts { epochs: 10, batch_size: 12, ..Default::default() };
        let mut rng = seeded(opts.seed);
        let mut student = InceptionTime::new(tiny_student(2, 8), &mut rng).unwrap();
        let mut optimizer = opts.make_optimizer();
        let first = train_student_epochs(
            &mut student,
            &train,
            std::slice::from_ref(&q),
            &[1.0],
            &opts,
            optimizer.as_mut(),
            &mut rng,
            5,
        )
        .unwrap();
        let second = train_student_epochs(
            &mut student,
            &train,
            &[q],
            &[1.0],
            &opts,
            optimizer.as_mut(),
            &mut rng,
            5,
        )
        .unwrap();
        assert!(second < first, "loss should keep dropping: {first} -> {second}");
    }
}
