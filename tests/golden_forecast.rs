//! Golden-forecasting regression test: a tiny seeded forecast-LightTS run
//! must keep producing the same student export, byte for byte.
//!
//! Two 32-bit teachers trained with `Forecaster::fit`, their predictions,
//! and `forecast_lightts` (MSE terms, Gumbel teacher removal) on an 8-bit
//! student feed the student's packed export (kind `forecaster`), which is
//! compared against a committed fixture; the fixture must also load and
//! re-export unchanged. The binary forces the scalar SIMD backend, so the
//! bytes do not depend on the host's FMA support (`docs/NUMERICS.md`).
//!
//! To regenerate after an *intentional* numerics or format change:
//!
//! ```text
//! cargo test --test golden_forecast -- --ignored regenerate_golden_forecast_fixture
//! ```

use lightts::data::forecast::{synthetic_series, windows_from_series};
use lightts::distill::forecast::{forecast_lightts, ForecastAedConfig, ForecastTeachers};
use lightts::models::forecaster::{ForecastConfig, Forecaster};
use lightts::models::inception::{BlockSpec, InceptionConfig};
use lightts::runtime::{set_simd_backend, SimdBackend};
use lightts::tensor::rng::seeded;

const FIXTURE: &[u8] = include_bytes!("fixtures/golden_forecast_student.bin");

/// Two blocks of two layers and four filters at `bits`, history 16,
/// horizon 2.
fn config(bits: u8) -> ForecastConfig {
    ForecastConfig {
        backbone: InceptionConfig {
            blocks: vec![BlockSpec { layers: 2, filter_len: 8, bits }; 2],
            filters: 4,
            in_dims: 1,
            in_len: 16,
            num_classes: 1,
        },
        out_len: 2,
    }
}

/// Teachers trained 3 epochs; the student 4 epochs with `v = 2`, so each
/// of its two removal rounds takes one outer λ step.
fn train_golden_student() -> Vec<u8> {
    set_simd_backend(SimdBackend::Scalar);
    let series = synthetic_series(1, 120, 0.05, 2024);
    let s = windows_from_series("golden-forecast", &series, 16, 2, 1, 0.2, 0.2).unwrap();
    let teachers: Vec<Forecaster> = (0..2)
        .map(|i| {
            let mut f = Forecaster::new(config(32), &mut seeded(100 + i)).unwrap();
            f.fit(&s.train, 3, 0.01, 200 + i).unwrap();
            f
        })
        .collect();
    let preds = ForecastTeachers::compute(&teachers, &s).unwrap();
    let cfg = ForecastAedConfig { epochs: 4, v: 2, ..ForecastAedConfig::default() };
    let res = forecast_lightts(&s, &preds, &config(8), &cfg).unwrap();
    res.student.save_bytes().unwrap()
}

#[test]
fn seeded_forecast_run_reproduces_committed_student_bytes() {
    let got = train_golden_student();
    assert_eq!(got.len(), FIXTURE.len(), "student export length changed");
    if let Some(i) = got.iter().zip(FIXTURE).position(|(a, b)| a != b) {
        panic!("student export differs from the committed fixture first at byte {i}");
    }
}

#[test]
fn committed_forecaster_reloads_and_reexports_unchanged() {
    let loaded = Forecaster::load_bytes(FIXTURE).unwrap();
    assert_eq!(loaded.config(), &config(8));
    assert!(loaded.save_bytes().unwrap() == FIXTURE, "re-export differs from the fixture");
}

/// Rewrites the committed fixture from the recipe above. Ignored by
/// default; run explicitly after an intentional numerics or format change.
#[test]
#[ignore = "writes the committed fixture file"]
fn regenerate_golden_forecast_fixture() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = train_golden_student();
    std::fs::write(dir.join("golden_forecast_student.bin"), &bytes).unwrap();
    assert_eq!(bytes, train_golden_student(), "the recipe must be deterministic");
}
