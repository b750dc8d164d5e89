//! Criterion micro-benchmarks for the LightTS substrates.
//!
//! These cover the building blocks whose cost drives the experiments:
//! convolution kernels, quantized inference by bit-width (the paper's
//! "inference depends only on model size" claim), distillation epochs
//! (AED vs Classic KD, matching the Section 3.2.1 complexity analysis),
//! GP fitting/prediction as the evaluated set grows, the two skyline
//! algorithms, and synthetic dataset generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lightts::distill::teacher::TeacherProbs;
use lightts::distill::trainer::{train_student_epochs, StudentTrainOpts};
use lightts::prelude::*;
use lightts::search::gp::GaussianProcess;
use lightts::search::pareto::{pareto_frontier, skyline_bnl, Evaluated};
use lightts::tensor::conv::{conv1d_backward_weight, conv1d_forward};
use lightts::tensor::rng::seeded;
use lightts::tensor::Tensor;
use lightts_data::synth::{Generator, SynthConfig};
use std::hint::black_box;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = seeded(1);
    let mut g = c.benchmark_group("conv1d");
    for &(cin, cout, k, l) in &[(1usize, 8usize, 40usize, 64usize), (24, 8, 20, 64)] {
        let x = Tensor::randn(&mut rng, &[16, cin, l], 1.0);
        let w = Tensor::randn(&mut rng, &[cout, cin, k], 0.3);
        let dy = Tensor::randn(&mut rng, &[16, cout, l], 1.0);
        g.bench_function(BenchmarkId::new("forward", format!("{cin}x{cout}x{k}")), |b| {
            b.iter(|| black_box(conv1d_forward(&x, &w).unwrap()))
        });
        g.bench_function(BenchmarkId::new("backward_w", format!("{cin}x{cout}x{k}")), |b| {
            b.iter(|| black_box(conv1d_backward_weight(&dy, &x, w.dims()).unwrap()))
        });
    }
    g.finish();
}

fn bench_inference_by_bits(c: &mut Criterion) {
    let mut rng = seeded(2);
    let x = Tensor::randn(&mut rng, &[8, 1, 64], 1.0);
    let mut g = c.benchmark_group("inference");
    for bits in [4u8, 8, 16, 32] {
        let cfg = InceptionConfig::student(1, 64, 10, 6, bits);
        let model = InceptionTime::new(cfg, &mut rng).unwrap();
        g.bench_function(BenchmarkId::new("bits", bits), |b| {
            b.iter(|| black_box(model.predict_proba(&x).unwrap()))
        });
    }
    g.finish();
}

fn distill_fixture() -> (Splits, TeacherProbs, InceptionConfig) {
    let gen = Generator::new(
        SynthConfig { classes: 5, dims: 1, length: 48, difficulty: 0.3, waveforms: 3 },
        9,
    );
    let splits = gen.splits("bench", 64, 32, 32, 10).unwrap();
    let k = splits.num_classes();
    let smooth = |ds: &LabeledDataset, sharp: f32, rot: usize| {
        let mut t = Tensor::full(&[ds.len(), k], (1.0 - sharp) / (k as f32 - 1.0));
        for (i, &l) in ds.labels().iter().enumerate() {
            t.set(&[i, (l + rot) % k], sharp).unwrap();
        }
        t
    };
    let train: Vec<Tensor> = (0..5).map(|i| smooth(&splits.train, 0.8, i % 2)).collect();
    let val: Vec<Tensor> = (0..5).map(|i| smooth(&splits.validation, 0.8, i % 2)).collect();
    let labels = splits.validation.labels().to_vec();
    let teachers = TeacherProbs::from_raw(train, val, &labels).unwrap();
    let cfg = InceptionConfig::student(1, 48, 5, 6, 8);
    (splits, teachers, cfg)
}

fn bench_distill_epoch(c: &mut Criterion) {
    let (splits, teachers, cfg) = distill_fixture();
    let opts = StudentTrainOpts { epochs: 1, batch_size: 32, ..StudentTrainOpts::default() };
    let mut g = c.benchmark_group("distill_epoch");

    // AED epoch: N individual teacher distances
    g.bench_function("aed_5_teachers", |b| {
        b.iter(|| {
            let mut rng = seeded(3);
            let mut student = InceptionTime::new(cfg.clone(), &mut rng).unwrap();
            let mut opt = opts.make_optimizer();
            let w = vec![0.2f32; 5];
            train_student_epochs(
                &mut student,
                &splits.train,
                &teachers.train,
                &w,
                &opts,
                opt.as_mut(),
                &mut rng,
                1,
            )
            .unwrap()
        })
    });

    // Classic-KD epoch: one combined teacher
    let combined = teachers.combined_train(&[0.2; 5]).unwrap();
    g.bench_function("classic_1_teacher", |b| {
        b.iter(|| {
            let mut rng = seeded(3);
            let mut student = InceptionTime::new(cfg.clone(), &mut rng).unwrap();
            let mut opt = opts.make_optimizer();
            train_student_epochs(
                &mut student,
                &splits.train,
                std::slice::from_ref(&combined),
                &[1.0],
                &opts,
                opt.as_mut(),
                &mut rng,
                1,
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_gp(c: &mut Criterion) {
    let mut rng = seeded(4);
    let mut g = c.benchmark_group("gaussian_process");
    for n in [10usize, 25, 50] {
        let xs: Vec<Vec<f32>> =
            (0..n).map(|_| Tensor::randn(&mut rng, &[9], 1.0).into_vec()).collect();
        let ys: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        g.bench_function(BenchmarkId::new("fit", n), |b| {
            b.iter(|| black_box(GaussianProcess::fit(xs.clone(), &ys).unwrap()))
        });
        let gp = GaussianProcess::fit(xs.clone(), &ys).unwrap();
        let q = Tensor::randn(&mut rng, &[9], 1.0).into_vec();
        g.bench_function(BenchmarkId::new("predict", n), |b| {
            b.iter(|| black_box(gp.predict(&q).unwrap()))
        });
    }
    g.finish();
}

fn bench_skyline(c: &mut Criterion) {
    let pts: Vec<Evaluated> = (0..1000u64)
        .map(|i| {
            let a = ((i * 2654435761) % 1000) as f64 / 1000.0;
            Evaluated {
                setting: StudentSetting(vec![(1, 10, 4)]),
                accuracy: a,
                size_bits: (i * 40503) % 5000 + 1,
            }
        })
        .collect();
    let mut g = c.benchmark_group("skyline_1000pts");
    g.bench_function("sort_scan", |b| b.iter(|| black_box(pareto_frontier(&pts))));
    g.bench_function("block_nested_loop", |b| b.iter(|| black_box(skyline_bnl(&pts))));
    g.finish();
}

fn bench_datagen(c: &mut Criterion) {
    c.bench_function("synth_dataset_100x64", |b| {
        b.iter(|| {
            let gen = Generator::new(
                SynthConfig { classes: 10, dims: 1, length: 64, difficulty: 0.5, waveforms: 4 },
                7,
            );
            black_box(gen.split("bench", 100, 8).unwrap())
        })
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_conv, bench_inference_by_bits, bench_distill_epoch, bench_gp,
              bench_skyline, bench_datagen
}
criterion_main!(benches);
