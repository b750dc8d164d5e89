//! Golden-training regression tests: tiny seeded training runs must keep
//! producing the same bits across commits.
//!
//! `tests/golden_model.rs` pins inference on a fixed export, and
//! `tests/reproducibility.rs` compares two runs of one build. This file
//! pins *training*, with three recipes:
//!
//! - **Student:** data generation, the conv / batch-norm / fake-quant
//!   forward and backward passes, the losses, Adam and one outer λ step of
//!   Algorithm 1 all feed the student's full-precision snapshot
//!   (`save_bytes_exact`), which is compared against a committed fixture.
//! - **Teachers:** `train_ensemble` trains a two-member InceptionTime
//!   ensemble (per-member seeds through `derive_seed`, `InceptionTime::fit`
//!   with Adam), and `TeacherProbs::compute` evaluates it on the train and
//!   validation splits; the probabilities' bit patterns are compared against
//!   a second fixture.
//! - **Removal:** `lightts_removal` with the Gumbel-confident strategy runs
//!   AED on three teachers, drops the argmin-λ̂ teacher after each round and
//!   keeps the round with the best validation accuracy. Each round's kept
//!   set, accuracy and λ̂, the winner's kept set and its full-precision
//!   snapshot are compared against a third fixture.
//!
//! Any change to a kernel's reduction order, to the optimizer, to the seed
//! derivation or to the AED loop shows up here as a byte difference.
//!
//! The binary forces the scalar SIMD backend, so the fixtures do not
//! depend on whether the host has FMA (`docs/NUMERICS.md`). The student
//! and teacher recipes live in `recipes/mod.rs`; `golden_training_fused.rs`
//! pins them on the fused backends.
//!
//! To regenerate after an *intentional* change to the training numerics:
//!
//! ```text
//! cargo test --test golden_training -- --ignored regenerate_golden_training_fixture
//! cargo test --test golden_training -- --ignored regenerate_golden_teacher_fixture
//! cargo test --test golden_training -- --ignored regenerate_golden_removal_fixture
//! ```

mod recipes;

use lightts::distill::aed::AedConfig;
use lightts::distill::removal::{lightts_removal, RemovalStrategy};
use lightts::distill::trainer::StudentTrainOpts;
use lightts::distill::weights::WeightTransform;
use lightts::distill::TeacherProbs;
use lightts::models::inception::{BlockSpec, InceptionConfig};
use lightts::runtime::{set_simd_backend, SimdBackend};
use recipes::{assert_same_bytes, smoothed, splits, write_fixture, CLASSES, LEN};

/// The student recipe (`recipes::student_bytes`) on the scalar backend.
fn train_golden_student() -> Vec<u8> {
    set_simd_backend(SimdBackend::Scalar);
    recipes::student_bytes()
}

#[test]
fn seeded_aed_run_reproduces_committed_student_bytes() {
    let expected = include_bytes!("fixtures/golden_training_student.bin");
    assert_same_bytes("student snapshot", &train_golden_student(), expected);
}

/// Rewrites the committed fixture from the recipe above. Ignored by
/// default; run explicitly after an intentional numerics change.
#[test]
#[ignore = "writes the committed fixture file"]
fn regenerate_golden_training_fixture() {
    let bytes = train_golden_student();
    write_fixture("golden_training_student.bin", &bytes);
    assert_eq!(bytes, train_golden_student(), "the recipe must be deterministic");
}

/// The teacher recipe (`recipes::teacher_prob_bytes`) on the scalar
/// backend.
fn teacher_prob_bytes() -> Vec<u8> {
    set_simd_backend(SimdBackend::Scalar);
    recipes::teacher_prob_bytes()
}

#[test]
fn seeded_teacher_ensemble_reproduces_committed_probabilities() {
    let expected = include_bytes!("fixtures/golden_teacher_probs.bin");
    assert_same_bytes("teacher probabilities", &teacher_prob_bytes(), expected);
}

/// Rewrites the committed teacher fixture from the recipe above. Ignored by
/// default; run explicitly after an intentional numerics change.
#[test]
#[ignore = "writes the committed fixture file"]
fn regenerate_golden_teacher_fixture() {
    let bytes = teacher_prob_bytes();
    write_fixture("golden_teacher_probs.bin", &bytes);
    assert_eq!(bytes, teacher_prob_bytes(), "the recipe must be deterministic");
}

/// Runs the removal recipe: three smoothed-label teachers (faithful, shifted
/// by one class, shifted by two), an 8-bit student with two blocks, Adam,
/// 8 epochs with `v = 2` per round, and the Gumbel-confident strategy, so
/// three rounds run (3, 2 and 1 teachers). Returns, per round, the kept
/// teacher indices, the validation accuracy bits and the λ̂ bits, then the
/// winning round's kept indices and its student's full-precision snapshot.
fn removal_bytes() -> Vec<u8> {
    set_simd_backend(SimdBackend::Scalar);
    let s = splits();
    let shifts = [(0.9, 0), (0.7, 1), (0.6, 2)];
    let teachers = TeacherProbs::from_raw(
        shifts.iter().map(|&(sharp, shift)| smoothed(&s.train, sharp, shift)).collect(),
        shifts.iter().map(|&(sharp, shift)| smoothed(&s.validation, sharp, shift)).collect(),
        s.validation.labels(),
    )
    .unwrap();
    let student = InceptionConfig {
        blocks: vec![BlockSpec { layers: 2, filter_len: 8, bits: 8 }; 2],
        filters: 4,
        in_dims: 1,
        in_len: LEN,
        num_classes: CLASSES,
    };
    let cfg = AedConfig {
        train: StudentTrainOpts {
            epochs: 8,
            batch_size: 8,
            adam: true,
            seed: 9,
            ..Default::default()
        },
        v: 2,
        lambda_lr: 2.0,
        transform: WeightTransform::GumbelConfident { tau: 0.5 },
    };
    let res =
        lightts_removal(&s, &teachers, &student, &cfg, RemovalStrategy::GumbelConfident).unwrap();
    let indices = |kept: &[usize]| -> Vec<u8> {
        kept.iter().flat_map(|&k| (k as u32).to_le_bytes()).collect()
    };
    let mut out = Vec::new();
    for round in &res.history {
        out.extend(indices(&round.kept));
        out.extend(round.val_accuracy.to_bits().to_le_bytes());
        out.extend(round.weights.iter().flat_map(|w| w.to_bits().to_le_bytes()));
    }
    out.extend(indices(&res.kept));
    out.extend(res.student.save_bytes_exact().unwrap());
    out
}

#[test]
fn seeded_removal_run_reproduces_committed_rounds_and_student() {
    let expected = include_bytes!("fixtures/golden_removal.bin");
    assert_same_bytes("removal record", &removal_bytes(), expected);
}

/// Rewrites the committed removal fixture from the recipe above. Ignored by
/// default; run explicitly after an intentional numerics change.
#[test]
#[ignore = "writes the committed fixture file"]
fn regenerate_golden_removal_fixture() {
    let bytes = removal_bytes();
    write_fixture("golden_removal.bin", &bytes);
    assert_eq!(bytes, removal_bytes(), "the recipe must be deterministic");
}
