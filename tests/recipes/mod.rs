//! The seeded training recipes that the golden-training binaries pin:
//! `golden_training.rs` runs them on the scalar backend and
//! `golden_training_fused.rs` on the fused ones. Each recipe runs under
//! whatever SIMD backend the caller installed.

use lightts::data::synth::{Generator, SynthConfig};
use lightts::data::{LabeledDataset, Splits};
use lightts::distill::aed::{run_aed, AedConfig};
use lightts::distill::trainer::StudentTrainOpts;
use lightts::distill::weights::WeightTransform;
use lightts::distill::TeacherProbs;
use lightts::models::ensemble::{train_ensemble, BaseModelKind, EnsembleTrainConfig};
use lightts::models::inception::{BlockSpec, InceptionConfig, TrainConfig};
use lightts::tensor::Tensor;

pub const CLASSES: usize = 3;
pub const LEN: usize = 32;

pub fn splits() -> Splits {
    let gen = Generator::new(
        SynthConfig { classes: CLASSES, dims: 1, length: LEN, difficulty: 0.2, waveforms: 3 },
        2024,
    );
    gen.splits("golden-training", 24, 12, 12, 2025).unwrap()
}

/// Label-smoothed teacher: `sharp` on class `label + shift`, the rest spread
/// evenly over the other classes.
pub fn smoothed(ds: &LabeledDataset, sharp: f32, shift: usize) -> Tensor {
    let mut t = Tensor::full(&[ds.len(), CLASSES], (1.0 - sharp) / (CLASSES as f32 - 1.0));
    for (i, &l) in ds.labels().iter().enumerate() {
        t.set(&[i, (l + shift) % CLASSES], sharp).unwrap();
    }
    t
}

/// The student recipe: two smoothed-label teachers (one faithful, one
/// shifted by a class), an 8-bit student with two blocks, Adam, and 4
/// epochs with `v = 2`, so one outer λ step sits between two inner phases.
/// Returns the student's full-precision snapshot.
pub fn student_bytes() -> Vec<u8> {
    let s = splits();
    let teachers = TeacherProbs::from_raw(
        vec![smoothed(&s.train, 0.9, 0), smoothed(&s.train, 0.7, 1)],
        vec![smoothed(&s.validation, 0.9, 0), smoothed(&s.validation, 0.7, 1)],
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
            epochs: 4,
            batch_size: 8,
            adam: true,
            seed: 5,
            ..Default::default()
        },
        v: 2,
        lambda_lr: 2.0,
        transform: WeightTransform::Softmax,
    };
    let res = run_aed(&s, &teachers, &student, &cfg).unwrap();
    res.student.save_bytes_exact().unwrap()
}

/// The teacher recipe: a two-member InceptionTime ensemble (4 filters,
/// 3 epochs, batch 8, Adam) trained on the train split, then both members'
/// class distributions over the train and validation splits. Returns the
/// little-endian bit patterns of the train probabilities (member by member)
/// followed by the validation ones.
pub fn teacher_prob_bytes() -> Vec<u8> {
    let s = splits();
    let cfg = EnsembleTrainConfig {
        n_members: 2,
        seed: 11,
        filters: 4,
        inception: TrainConfig { epochs: 3, batch_size: 8, lr: 0.01, adam: true, seed: 0 },
        ..EnsembleTrainConfig::default()
    };
    let ensemble = train_ensemble(BaseModelKind::InceptionTime, &s.train, &cfg).unwrap();
    let probs = TeacherProbs::compute(&ensemble, &s).unwrap();
    probs
        .train
        .iter()
        .chain(&probs.val)
        .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect()
}

/// Panics at the first byte where `got` differs from the fixture `expected`.
pub fn assert_same_bytes(what: &str, got: &[u8], expected: &[u8]) {
    assert_eq!(got.len(), expected.len(), "{what} length changed");
    if let Some(i) = got.iter().zip(expected).position(|(a, b)| a != b) {
        panic!("{what} differs from the committed fixture first at byte {i}");
    }
}

/// Writes `bytes` to `tests/fixtures/<name>`.
pub fn write_fixture(name: &str, bytes: &[u8]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), bytes).unwrap();
}
