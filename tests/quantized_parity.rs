//! Accuracy-parity gate for the true-int8 inference path.
//!
//! The `QuantizedPlan` (`lightts::models::qinference`) trades f32 exactness
//! for 4x smaller weights and integer kernels; this suite pins *how much*
//! accuracy it is allowed to trade, against the same committed golden
//! student that anchors `tests/golden_model.rs`:
//!
//! * **argmax parity** — over [`SAMPLES`] deterministic inputs the i8 plan
//!   must pick the same class as the f32 plan on at least
//!   [`MIN_ARGMAX_AGREE`] of them (>= 99%);
//! * **logit tolerance** — every i8 logit must sit within [`LOGIT_TOL`] of
//!   its f32 counterpart (measured max on the golden model is ~0.0073; the
//!   gate leaves ~4x headroom for benign rounding differences in future
//!   f32 kernel work without letting real regressions through);
//! * **bitwise self-consistency** — the i8 path is in the *integer-exact*
//!   determinism class (`docs/NUMERICS.md`, "Quantized inference"), so its
//!   own logits are pinned to a committed fixture at 1e-6 like the f32
//!   golden logits, and batching must be bitwise invisible.
//!
//! CI runs this file inside its three whole-workspace test steps (plain,
//! with `LIGHTTS_OBS=1`, and with `LIGHTTS_SIMD=scalar`), so the fixture
//! comparison also proves the forced scalar backend agrees bitwise with
//! the SIMD backends end to end.
//!
//! To regenerate the fixture after an *intentional* quantizer change:
//!
//! ```text
//! cargo test --test quantized_parity -- --ignored regenerate_quantized_golden_fixture
//! ```

use lightts::models::inception::InceptionTime;
use lightts::models::inference::InferencePlan;
use lightts::models::qinference::QuantizedPlan;

const IN_DIMS: usize = 1;
const IN_LEN: usize = 32;
const CLASSES: usize = 6;

/// Number of deterministic parity samples the gate sweeps.
const SAMPLES: usize = 128;
/// The gate: >= 99% of [`SAMPLES`] must agree on argmax (127/128).
const MIN_ARGMAX_AGREE: usize = SAMPLES - SAMPLES / 100;
/// Per-logit absolute tolerance vs the f32 plan (see module docs).
const LOGIT_TOL: f32 = 0.03;

/// The fixture batch mirrors `tests/golden_model.rs` (4 samples).
const FIXTURE_BATCH: usize = 4;

fn golden_plans() -> (InferencePlan, QuantizedPlan) {
    let packed: &[u8] = include_bytes!("fixtures/golden_student.bin");
    let model = InceptionTime::load_bytes(packed).expect("golden fixture must keep loading");
    let f32_plan = model.compile().expect("golden model compiles to an f32 plan");
    let i8_plan = model
        .compile_quantized()
        .expect("golden model is trained at <= 8 bits, so the i8 plan must compile");
    (f32_plan, i8_plan)
}

/// Deterministic parity inputs (pure integer arithmetic mapped to f32) —
/// same generator family as `golden_inputs()` in `tests/golden_model.rs`,
/// extended to [`SAMPLES`] rows. The first [`FIXTURE_BATCH`] rows ARE the
/// golden inputs, so the fixture below doubles as a cross-check against
/// `tests/fixtures/golden_logits.tsv`.
fn parity_inputs() -> Vec<f32> {
    (0..SAMPLES * IN_DIMS * IN_LEN)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 2000) as f32 / 1000.0 - 1.0)
        .collect()
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// The headline gate: i8 argmax agrees with f32 on >= 99% of samples and
/// every logit stays within [`LOGIT_TOL`].
#[test]
fn i8_plan_tracks_f32_plan_within_parity_gate() {
    let (mut f32_plan, mut i8_plan) = golden_plans();
    let inputs = parity_inputs();

    let mut f32_logits = Vec::new();
    let mut i8_logits = Vec::new();
    f32_plan.logits_into(&inputs, SAMPLES, &mut f32_logits).unwrap();
    i8_plan.logits_into(&inputs, SAMPLES, &mut i8_logits).unwrap();
    assert_eq!(f32_logits.len(), SAMPLES * CLASSES);
    assert_eq!(i8_logits.len(), SAMPLES * CLASSES);

    let mut agree = 0usize;
    let mut max_abs_diff = 0.0f32;
    for s in 0..SAMPLES {
        let fr = &f32_logits[s * CLASSES..(s + 1) * CLASSES];
        let qr = &i8_logits[s * CLASSES..(s + 1) * CLASSES];
        if argmax(fr) == argmax(qr) {
            agree += 1;
        }
        for (f, q) in fr.iter().zip(qr) {
            max_abs_diff = max_abs_diff.max((f - q).abs());
        }
    }

    assert!(
        agree >= MIN_ARGMAX_AGREE,
        "i8 plan argmax agreed on only {agree}/{SAMPLES} samples (gate: >= {MIN_ARGMAX_AGREE})"
    );
    assert!(
        max_abs_diff <= LOGIT_TOL,
        "i8 logits drifted {max_abs_diff} from f32 (gate: <= {LOGIT_TOL})"
    );
}

/// The i8 path is integer-exact, so its logits on the golden inputs are
/// pinned to a committed fixture just as tightly as the f32 golden logits
/// — across feature configs and forced SIMD backends.
#[test]
fn i8_golden_fixture_reproduces_recorded_logits() {
    let expected: &str = include_str!("fixtures/golden_logits_i8.tsv");
    let (_, mut i8_plan) = golden_plans();

    let inputs = parity_inputs();
    let mut logits = Vec::new();
    i8_plan
        .logits_into(&inputs[..FIXTURE_BATCH * IN_DIMS * IN_LEN], FIXTURE_BATCH, &mut logits)
        .unwrap();

    let mut n_checked = 0usize;
    for (row, line) in expected.lines().enumerate() {
        for (col, field) in line.split('\t').enumerate() {
            let want: f32 = field.parse().expect("fixture field parses as f32");
            let got = logits[row * CLASSES + col];
            assert!(
                (want - got).abs() <= 1e-6,
                "i8 logit [{row},{col}] drifted: recorded {want}, computed {got}"
            );
            n_checked += 1;
        }
    }
    assert_eq!(n_checked, FIXTURE_BATCH * CLASSES, "fixture shape mismatch");
}

/// Batching is purely a throughput optimization for the i8 plan too: one
/// fused forward over all samples is bitwise identical to running each
/// sample alone (per-sample activation quantizers + exact integer
/// accumulation).
#[test]
fn i8_plan_batching_is_bitwise_invisible() {
    let (_, mut i8_plan) = golden_plans();
    let inputs = parity_inputs();

    let mut batched = Vec::new();
    i8_plan.logits_into(&inputs, SAMPLES, &mut batched).unwrap();

    let mut single = Vec::new();
    for s in 0..SAMPLES {
        let row = &inputs[s * IN_DIMS * IN_LEN..(s + 1) * IN_DIMS * IN_LEN];
        i8_plan.logits_into(row, 1, &mut single).unwrap();
        for c in 0..CLASSES {
            assert_eq!(
                batched[s * CLASSES + c].to_bits(),
                single[c].to_bits(),
                "sample {s} class {c}: batched vs single differ bitwise"
            );
        }
    }
}

/// Regenerates `tests/fixtures/golden_logits_i8.tsv` from the committed
/// golden student. Ignored by default; run explicitly after an intentional
/// change to the quantization scheme (and re-measure [`LOGIT_TOL`]).
#[test]
#[ignore = "writes the committed fixture file"]
fn regenerate_quantized_golden_fixture() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).unwrap();
    let (_, mut i8_plan) = golden_plans();

    let inputs = parity_inputs();
    let mut logits = Vec::new();
    i8_plan
        .logits_into(&inputs[..FIXTURE_BATCH * IN_DIMS * IN_LEN], FIXTURE_BATCH, &mut logits)
        .unwrap();

    let mut tsv = String::new();
    for r in 0..FIXTURE_BATCH {
        let row: Vec<String> =
            (0..CLASSES).map(|c| format!("{}", logits[r * CLASSES + c])).collect();
        tsv.push_str(&row.join("\t"));
        tsv.push('\n');
    }
    std::fs::write(dir.join("golden_logits_i8.tsv"), tsv).unwrap();
}
