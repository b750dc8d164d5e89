//! Profiler coverage of a training step: every op of a distillation step
//! has a named `prof::scope`, forward and backward, so a profiled run can
//! say where its time went beyond the conv kernels.
//!
//! The profiler is process-global, and other binaries pin that a disabled
//! profiler creates no tree nodes, so this check lives alone in its own
//! binary: it enables profiling, trains one small distillation epoch
//! (8-bit blocks, so fake quantization runs; the Eq.-2 loss, so NLL and
//! KL both run; Adam) and one forecaster epoch (its MSE loss), and
//! requires each name in the collected stack paths.

use lightts::data::forecast::{synthetic_series, windows_from_series};
use lightts::data::synth::{Generator, SynthConfig};
use lightts::distill::trainer::{train_student, StudentTrainOpts};
use lightts::models::forecaster::{ForecastConfig, Forecaster};
use lightts::models::inception::{BlockSpec, InceptionConfig};
use lightts::tensor::rng::seeded;
use lightts::tensor::Tensor;
use lightts_obs::prof;

#[test]
fn a_distillation_step_opens_a_scope_for_every_op() {
    let gen = Generator::new(
        SynthConfig { classes: 3, dims: 1, length: 16, difficulty: 0.2, waveforms: 3 },
        7,
    );
    let train = gen.split("prof-scopes", 8, 11).unwrap();
    let q = Tensor::full(&[train.len(), 3], 1.0 / 3.0);
    let student = InceptionConfig {
        blocks: vec![BlockSpec { layers: 2, filter_len: 4, bits: 8 }; 2],
        filters: 2,
        in_dims: 1,
        in_len: 16,
        num_classes: 3,
    };
    let opts = StudentTrainOpts { epochs: 1, batch_size: 4, adam: true, ..Default::default() };
    let series = synthetic_series(1, 80, 0.05, 7);
    let windows = windows_from_series("prof-scopes", &series, 16, 2, 1, 0.2, 0.2).unwrap();
    let forecaster = ForecastConfig {
        backbone: InceptionConfig { num_classes: 1, ..student.clone() },
        out_len: 2,
    };
    let mut forecaster = Forecaster::new(forecaster, &mut seeded(3)).unwrap();

    prof::set_enabled(true);
    train_student(&student, &train, &[q], &[1.0], &opts).unwrap();
    forecaster.fit(&windows.train, 1, 0.01, 5).unwrap();
    prof::set_enabled(false);

    let paths: Vec<String> = prof::snapshot().into_iter().map(|e| e.path).collect();
    let seen = |name: &str| paths.iter().any(|p| p.split(';').any(|seg| seg == name));
    let ops =
        ["bn", "relu", "concat", "gap", "fake_quant", "bias", "log_softmax", "nll", "kl", "mse"];
    for op in ops {
        for pass in ["fwd", "bwd"] {
            let name = format!("{op}.{pass}");
            assert!(seen(&name), "no `{name}` scope in {paths:?}");
        }
    }
    for name in ["optim.step", "conv.lowered_fwd", "conv.lowered_bwd_weight"] {
        assert!(seen(name), "no `{name}` scope in {paths:?}");
    }
}
