//! Golden-model regression test: a packed student export committed to the
//! repo must keep reloading byte-compatibly and reproducing its recorded
//! logits forever. This pins the export format (the `inception` container
//! kind with its bit-packed store) and the whole inference numerical path
//! against drift, under every SIMD backend (`docs/NUMERICS.md`).
//! `tests/golden_training.rs` does the same for a training run.
//!
//! To regenerate after an *intentional* format change (the scalar backend
//! records the logits without FMA, as the committed ones were):
//!
//! ```text
//! LIGHTTS_SIMD=scalar cargo test --test golden_model -- --ignored regenerate_golden_fixture
//! ```

use lightts::models::inception::{BlockSpec, InceptionConfig, InceptionTime};
use lightts::models::Classifier;
use lightts::tensor::rng::seeded;
use lightts::tensor::Tensor;

const BATCH: usize = 4;
const IN_DIMS: usize = 1;
const IN_LEN: usize = 32;
const CLASSES: usize = 6;

/// The golden student: random init from a fixed seed plus hand-set
/// batch-norm statistics (pure integer-derived — no libm, no training), so
/// regeneration is reproducible on any host.
fn golden_model() -> InceptionTime {
    let cfg = InceptionConfig {
        blocks: vec![
            BlockSpec { layers: 2, filter_len: 8, bits: 8 },
            BlockSpec { layers: 2, filter_len: 4, bits: 4 },
        ],
        filters: 4,
        in_dims: IN_DIMS,
        in_len: IN_LEN,
        num_classes: CLASSES,
    };
    let mut rng = seeded(0xC0FFEE);
    let mut model = InceptionTime::new(cfg, &mut rng).unwrap();
    for (i, c) in model.bn_channel_counts().iter().enumerate() {
        let mean: Vec<f32> = (0..*c).map(|j| 0.03 * j as f32 - 0.06).collect();
        let var: Vec<f32> = (0..*c).map(|j| 0.7 + 0.05 * j as f32).collect();
        model.set_bn_running_stats(i, &mean, &var).unwrap();
    }
    model
}

/// Deterministic input batch (pure integer arithmetic mapped to f32).
fn golden_inputs() -> Tensor {
    let data: Vec<f32> = (0..BATCH * IN_DIMS * IN_LEN)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 2000) as f32 / 1000.0 - 1.0)
        .collect();
    Tensor::from_vec(data, &[BATCH, IN_DIMS, IN_LEN]).unwrap()
}

#[test]
fn golden_fixture_reproduces_recorded_logits() {
    let packed: &[u8] = include_bytes!("fixtures/golden_student.bin");
    let expected: &str = include_str!("fixtures/golden_logits.tsv");

    let model = InceptionTime::load_bytes(packed).expect("golden fixture must keep loading");
    let logits = model.logits(&golden_inputs()).unwrap();
    assert_eq!(logits.dims(), &[BATCH, CLASSES]);

    let mut n_checked = 0usize;
    for (row, line) in expected.lines().enumerate() {
        for (col, field) in line.split('\t').enumerate() {
            let want: f32 = field.parse().expect("fixture field parses as f32");
            let got = logits.get(&[row, col]).unwrap();
            assert!(
                (want - got).abs() <= 1e-6,
                "logit [{row},{col}] drifted: recorded {want}, computed {got}"
            );
            n_checked += 1;
        }
    }
    assert_eq!(n_checked, BATCH * CLASSES, "fixture shape mismatch");

    // The probabilities (the serving output) stay consistent too.
    let probs = model.predict_proba(&golden_inputs()).unwrap();
    for r in 0..BATCH {
        let s: f32 = probs.row(r).unwrap().data().iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }
}

#[test]
fn golden_model_reexports_to_identical_bytes() {
    // save_bytes ∘ load_bytes must be the identity on the committed
    // artifact: guards against silent format-version or quantizer drift.
    let packed: &[u8] = include_bytes!("fixtures/golden_student.bin");
    let model = InceptionTime::load_bytes(packed).unwrap();
    let again = model.save_bytes().unwrap();
    assert_eq!(packed, &again[..], "re-export differs from committed fixture");
}

/// Regenerates `tests/fixtures/` from the deterministic recipe above.
/// Ignored by default; run explicitly after an intentional format change.
#[test]
#[ignore = "writes the committed fixture files"]
fn regenerate_golden_fixture() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).unwrap();
    let model = golden_model();
    let packed = model.save_bytes().unwrap();
    std::fs::write(dir.join("golden_student.bin"), &packed).unwrap();

    let logits = model.logits(&golden_inputs()).unwrap();
    let mut tsv = String::new();
    for r in 0..BATCH {
        let row: Vec<String> =
            (0..CLASSES).map(|c| format!("{}", logits.get(&[r, c]).unwrap())).collect();
        tsv.push_str(&row.join("\t"));
        tsv.push('\n');
    }
    std::fs::write(dir.join("golden_logits.tsv"), tsv).unwrap();

    // sanity: the files round-trip immediately
    let reloaded = InceptionTime::load_bytes(&packed).unwrap();
    let again = reloaded.logits(&golden_inputs()).unwrap();
    for (a, b) in logits.data().iter().zip(again.data().iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
