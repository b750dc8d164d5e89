//! Golden-training regression tests on the fused SIMD backends.
//!
//! `golden_training.rs` forces the scalar backend, so it cannot see the
//! bits the workloads train with on an AVX2 or AVX-512 host, where every
//! conv pass and dense product fuses its multiply-adds. This binary runs
//! the same student and teacher recipes (`recipes/mod.rs`) under
//! `SimdBackend::Avx2`, and under `SimdBackend::Avx512` where the CPU has
//! AVX-512F/BW, and compares both with one pair of fixtures: the two fused
//! backends give the same bits (`docs/NUMERICS.md`). On a host without
//! AVX2+FMA each test prints a skip line and passes.
//!
//! The backend is process-wide, so this binary is separate from
//! `golden_training.rs` (whose tests force scalar concurrently), and every
//! test here holds one lock around it.
//!
//! To regenerate after an *intentional* change to the training numerics:
//!
//! ```text
//! cargo test --test golden_training_fused -- --ignored regenerate_fused_fixtures
//! ```

mod recipes;

use lightts::runtime::{cpu_supports, set_simd_backend, SimdBackend};
use recipes::{assert_same_bytes, write_fixture};
use std::sync::{Mutex, MutexGuard};

const STUDENT_FIXTURE: &str = "golden_training_student_fused.bin";
const TEACHER_FIXTURE: &str = "golden_teacher_probs_fused.bin";

/// Serializes the tests of this binary around the process-wide backend.
static BACKEND: Mutex<()> = Mutex::new(());

fn backend_lock() -> MutexGuard<'static, ()> {
    BACKEND.lock().unwrap_or_else(|e| e.into_inner())
}

/// The fused backends this CPU runs.
fn fused_backends() -> Vec<SimdBackend> {
    [SimdBackend::Avx2, SimdBackend::Avx512].into_iter().filter(|&bk| cpu_supports(bk)).collect()
}

/// Runs `recipe` under every fused backend the CPU runs and compares each
/// result with `expected`.
fn check_fused(what: &str, recipe: fn() -> Vec<u8>, expected: &[u8]) {
    let _guard = backend_lock();
    let backends = fused_backends();
    if backends.is_empty() {
        println!("skip: {what}: the CPU has no AVX2+FMA");
        return;
    }
    for bk in backends {
        assert_eq!(set_simd_backend(bk), bk);
        assert_same_bytes(&format!("{what} under {}", bk.name()), &recipe(), expected);
    }
}

#[test]
fn seeded_aed_run_reproduces_fused_student_bytes() {
    let expected = include_bytes!("fixtures/golden_training_student_fused.bin");
    check_fused("student snapshot", recipes::student_bytes, expected);
}

#[test]
fn seeded_teacher_ensemble_reproduces_fused_probabilities() {
    let expected = include_bytes!("fixtures/golden_teacher_probs_fused.bin");
    check_fused("teacher probabilities", recipes::teacher_prob_bytes, expected);
}

/// Rewrites both fused fixtures from the recipes under AVX2. Ignored by
/// default; run explicitly after an intentional numerics change.
#[test]
#[ignore = "writes the committed fixture files"]
fn regenerate_fused_fixtures() {
    let _guard = backend_lock();
    assert_eq!(set_simd_backend(SimdBackend::Avx2), SimdBackend::Avx2, "needs AVX2+FMA");
    for (name, recipe) in [
        (STUDENT_FIXTURE, recipes::student_bytes as fn() -> Vec<u8>),
        (TEACHER_FIXTURE, recipes::teacher_prob_bytes),
    ] {
        let bytes = recipe();
        assert_eq!(bytes, recipe(), "the recipe must be deterministic");
        write_fixture(name, &bytes);
    }
}
