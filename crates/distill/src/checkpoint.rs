//! Crash-safe student training: per-epoch checkpointing with bit-identical
//! resume.
//!
//! Distilling one student is cheap; distilling hundreds across a benchmark
//! sweep (or inside a MOBO search) is hours of compute a crash should not
//! forfeit. [`train_student_checkpointed`] wraps the shared
//! [`trainer`](crate::trainer) loop to snapshot after every epoch — the
//! full-precision shadow weights
//! ([`save_bytes_exact`](lightts_models::inception::InceptionTime::save_bytes_exact)),
//! the optimizer's momentum/moment state, and the RNG stream position —
//! through [`lightts_obs::checkpoint::atomic_write`], so the file on disk is
//! always a complete snapshot.
//!
//! **The resume contract is bit-identical:** a run killed at any epoch and
//! resumed from its checkpoint produces exactly the weights (every f32 bit)
//! of an uninterrupted run. This is what makes checkpointing trustworthy —
//! "approximately resumed" training silently changes results. The chaos
//! suite (`tests/chaos.rs` at the workspace root) proves the contract by
//! killing runs at several epochs via the `trainer.epoch` failpoint and
//! comparing against an oracle run.

use crate::trainer::{train_student_epochs, StudentTrainOpts};
use crate::{DistillError, Result};
use lightts_data::LabeledDataset;
use lightts_models::inception::{InceptionConfig, InceptionTime};
use lightts_obs::checkpoint::{atomic_write, read_checkpoint, SectionReader, SectionWriter};
use lightts_tensor::rng::{rng_from_state, rng_state, seeded};
use lightts_tensor::Tensor;
use std::path::Path;

/// Container kind tag for trainer checkpoints.
const KIND: &str = "distill.trainer";

fn ck(what: impl Into<String>) -> DistillError {
    DistillError::Checkpoint { what: what.into() }
}

/// Like [`train_student`](crate::trainer::train_student), but crash-safe:
/// snapshots to `ckpt` after every epoch and resumes from it if present.
///
/// * Fresh start (no file at `ckpt`): identical to `train_student`.
/// * Resume: picks up at the first uncompleted epoch; the final student is
///   **bit-identical** to an uninterrupted run with the same inputs.
/// * A checkpoint from a different student configuration is rejected with
///   [`DistillError::Checkpoint`] rather than silently continuing the
///   wrong run.
///
/// The checkpoint file is left in place on success (it then holds the
/// final epoch's state); callers that are done with it delete it.
pub fn train_student_checkpointed(
    config: &InceptionConfig,
    train: &LabeledDataset,
    q_train: &[Tensor],
    weights: &[f32],
    opts: &StudentTrainOpts,
    ckpt: &Path,
) -> Result<InceptionTime> {
    let mut optimizer = opts.make_optimizer();
    let (mut student, mut rng, start_epoch) =
        match read_checkpoint(ckpt).map_err(|e| ck(format!("reading {ckpt:?}: {e}")))? {
            Some(bytes) => {
                let r = SectionReader::parse(&bytes, KIND)?;
                let mut c = r.cursor("epoch")?;
                let epoch = c.u64()? as usize;
                c.finish()?;
                let student = InceptionTime::load_bytes_exact(r.require("student")?)?;
                if student.config() != config {
                    return Err(ck(format!(
                        "{ckpt:?} holds a different student configuration; refusing to resume"
                    )));
                }
                optimizer
                    .load_state_bytes(r.require("optimizer")?)
                    .map_err(|e| ck(format!("optimizer state: {e}")))?;
                let mut c = r.cursor("rng")?;
                let rng = rng_from_state([c.u64()?, c.u64()?, c.u64()?, c.u64()?]);
                c.finish()?;
                (student, rng, epoch)
            }
            None => {
                let mut rng = seeded(opts.seed);
                let student = InceptionTime::new(config.clone(), &mut rng)?;
                (student, rng, 0)
            }
        };
    for epoch in start_epoch..opts.epochs {
        train_student_epochs(
            &mut student,
            train,
            q_train,
            weights,
            opts,
            optimizer.as_mut(),
            &mut rng,
            1,
        )?;
        let mut w = SectionWriter::new(KIND);
        w.section("epoch", &((epoch + 1) as u64).to_le_bytes());
        w.section("student", &student.save_bytes_exact()?);
        w.section("optimizer", &optimizer.state_bytes());
        w.section("rng", &rng_state(&rng).map(u64::to_le_bytes).concat());
        atomic_write(ckpt, &w.finish()).map_err(|e| ck(format!("writing {ckpt:?}: {e}")))?;
    }
    Ok(student)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_student;
    use lightts_data::synth::{Generator, SynthConfig};
    use lightts_models::inception::BlockSpec;
    use std::path::PathBuf;

    fn data(classes: usize, n: usize, seed: u64) -> LabeledDataset {
        let gen = Generator::new(
            SynthConfig { classes, dims: 1, length: 24, difficulty: 0.15, waveforms: 3 },
            seed,
        );
        gen.split("ckpt-test", n, seed + 1).unwrap()
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

    fn oracle_probs(ds: &LabeledDataset, sharp: f32) -> Tensor {
        let k = ds.num_classes();
        let mut t = Tensor::full(&[ds.len(), k], (1.0 - sharp) / (k as f32 - 1.0));
        for (i, &l) in ds.labels().iter().enumerate() {
            t.set(&[i, l], sharp).unwrap();
        }
        t
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lightts-distill-{}-{name}", std::process::id()))
    }

    fn bits_of(m: &InceptionTime) -> Vec<u32> {
        m.store().iter().flat_map(|(_, p)| p.value.data().iter().map(|v| v.to_bits())).collect()
    }

    #[test]
    fn checkpointed_fresh_run_matches_plain_training_bitwise() {
        let train = data(2, 24, 95);
        let q = oracle_probs(&train, 0.9);
        let opts = StudentTrainOpts { epochs: 4, batch_size: 12, ..Default::default() };
        let cfg = tiny_student(2, 8);
        let plain = train_student(&cfg, &train, std::slice::from_ref(&q), &[1.0], &opts).unwrap();
        let path = tmp("fresh.ckpt");
        let _ = std::fs::remove_file(&path);
        let ckpt = train_student_checkpointed(&cfg, &train, &[q], &[1.0], &opts, &path).unwrap();
        assert_eq!(bits_of(&plain), bits_of(&ckpt));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_checkpoint_from_different_configuration() {
        let train = data(2, 24, 96);
        let q = oracle_probs(&train, 0.9);
        let opts = StudentTrainOpts { epochs: 1, batch_size: 12, ..Default::default() };
        let path = tmp("wrongcfg.ckpt");
        let _ = std::fs::remove_file(&path);
        let teachers = std::slice::from_ref(&q);
        train_student_checkpointed(&tiny_student(2, 8), &train, teachers, &[1.0], &opts, &path)
            .unwrap();
        // resuming with a different bit-width must refuse
        let err =
            train_student_checkpointed(&tiny_student(2, 4), &train, &[q], &[1.0], &opts, &path)
                .unwrap_err();
        assert!(matches!(err, DistillError::Checkpoint { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_checkpoint_is_a_typed_error() {
        let train = data(2, 24, 97);
        let q = oracle_probs(&train, 0.9);
        let opts = StudentTrainOpts { epochs: 1, batch_size: 12, ..Default::default() };
        let path = tmp("corrupt.ckpt");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let err =
            train_student_checkpointed(&tiny_student(2, 8), &train, &[q], &[1.0], &opts, &path)
                .unwrap_err();
        assert!(matches!(err, DistillError::Checkpoint { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
