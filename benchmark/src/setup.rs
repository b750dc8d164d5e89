//! The training set-up every workload shares: the Adiac analogue at quick
//! scale, five InceptionTime teachers, and their probabilities.
//!
//! The training problem is pinned: the data is the archive's Adiac
//! analogue and the teachers' and the search's seeds are constants, so
//! every run trains on the same problem and does the same work. The
//! workload seed varies only what leaves that work unchanged: the seeds of
//! the students `distill` trains, and in `serve` the order of the requests
//! and their arrival schedule. Seeding the data per run moved the search
//! trajectory, and with it the search's latency, and the test accuracy far
//! beyond any bound (over five seeds: search 12.6–21.3 s, accuracy
//! 0.22–0.36).

use crate::trace::Tracer;
use lightts::data::archive;
use lightts::distill::aed::AedConfig;
use lightts::distill::trainer::train_student;
use lightts::distill::weights::WeightTransform;
use lightts::prelude::*;
use lightts::search::encoder::EncoderConfig;
use lightts::tensor::rng::derive_seed;
use lightts::tensor::Tensor;
use std::time::Instant;

/// Ensemble size `N`.
pub const TEACHERS: usize = 5;
/// Convolution filters per layer of teachers and students.
pub const FILTERS: usize = 6;
/// Bit-width of the Scenario-1 student.
pub const STUDENT_BITS: u8 = 8;
/// Test series. Quick scale generates 48, too few for a steady accuracy
/// across seeds; the test split is only scored, so enlarging it leaves the
/// train and validation splits (and all training) at quick scale.
pub const TEST_SERIES: usize = 960;

/// Data and teachers for one seed.
pub struct Prepared {
    /// Train / validation / test splits.
    pub splits: Splits,
    /// Teacher probabilities on train and validation.
    pub teachers: TeacherProbs,
}

/// Seed of everything pinned: teachers, the search, and its oracle.
const PINNED: u64 = 0x11C5;

/// The pipeline at quick scale: 16 student epochs, `v = 4`, and the quick
/// encoded-MOBO search (`Q = 16`, `P = 5`, 192 candidates). `student_seed`
/// seeds the student's initialization and shuffling.
pub fn lightts(student_seed: u64) -> LightTs {
    LightTs::new(LightTsConfig {
        filters: FILTERS,
        distill: DistillOpts {
            aed: AedConfig {
                train: StudentTrainOpts {
                    alpha: 0.5,
                    epochs: 16,
                    batch_size: 32,
                    lr: 0.01,
                    adam: true,
                    seed: student_seed,
                },
                v: 4,
                lambda_lr: 2.0,
                transform: WeightTransform::GumbelConfident { tau: 0.5 },
            },
            loo_max_evals: 6,
            reinforced_episodes: 3,
            reinforced_lr: 4.0,
        },
        mobo: MoboConfig {
            q: 16,
            p_init: 5,
            candidates: 192,
            repr: SpaceRepr::TwoPhaseEncoder,
            encoder: EncoderConfig { epochs: 60, r_samples: 512, ..Default::default() },
            encoder_refresh: 10,
            seed: derive_seed(PINNED, 0x30B0),
        },
        oracle_with_removal: false,
    })
}

/// The Scenario-1 student for these splits: 3 blocks × 3 layers, filter
/// length 40, 8 bits.
pub fn student_config(splits: &Splits) -> InceptionConfig {
    InceptionConfig::student(
        splits.train.dims(),
        splits.train.series_len(),
        splits.num_classes(),
        FILTERS,
        STUDENT_BITS,
    )
}

/// The `distill` workload's student seed for repetition `rep` of a run
/// with workload seed `seed`.
pub fn student_seed(seed: u64, rep: u64) -> u64 {
    derive_seed(derive_seed(seed, 0x57), rep)
}

/// The `search` workload's pipeline: fully pinned, so every run searches
/// the same trajectory.
pub fn pinned_lightts() -> LightTs {
    lightts(derive_seed(PINNED, 0x57))
}

/// The student the `serve` workload serves: the Scenario-1 shape, trained
/// by Classic KD (uniform teacher weights) with the pinned student seed.
pub fn serve_student(prep: &Prepared, tracer: &Tracer) -> InceptionTime {
    let opts = pinned_lightts().config().distill.aed.train;
    let uniform = vec![1.0 / TEACHERS as f32; TEACHERS];
    let cfg = student_config(&prep.splits);
    let (train, targets) = (&prep.splits.train, &prep.teachers.train);
    tracer
        .span("distill.train_student", || train_student(&cfg, train, targets, &uniform, &opts))
        .expect("train the served student")
}

/// Generates the data, trains the teachers and computes their
/// probabilities, each inside its own span.
pub fn prepare(tracer: &Tracer) -> Prepared {
    let mut spec = archive::table1("Adiac").expect("Adiac is a Table 1 dataset");
    spec.paper_sizes.2 = 100_000;
    let scale = Scale { max_per_split: TEST_SERIES, ..Scale::quick() };
    let splits = tracer
        .span("data.try_generate", || spec.try_generate(scale))
        .expect("generate the Adiac analogue");
    assert_eq!(splits.test.len(), TEST_SERIES, "test split size");
    let cfg = EnsembleTrainConfig {
        n_members: TEACHERS,
        seed: derive_seed(PINNED, 0xEE),
        filters: FILTERS,
        inception: TrainConfig {
            epochs: 16,
            batch_size: 64,
            lr: 0.01,
            adam: true,
            seed: derive_seed(PINNED, 0xEF),
        },
        ..EnsembleTrainConfig::default()
    };
    let ensemble = tracer
        .span("models.train_ensemble", || {
            train_ensemble(BaseModelKind::InceptionTime, &splits.train, &cfg)
        })
        .expect("train the teacher ensemble");
    let teachers = tracer
        .span("distill.TeacherProbs::compute", || TeacherProbs::compute(&ensemble, &splits))
        .expect("compute teacher probabilities");
    Prepared { splits, teachers }
}

/// Runs [`prepare`] untraced; returns its wall time in seconds with it.
pub fn prepare_timed() -> (f64, Prepared) {
    let t0 = Instant::now();
    let p = prepare(&Tracer::new(false));
    (t0.elapsed().as_secs_f64(), p)
}

/// Runs [`prepare`] `reps` more times untraced. Returns each wall time in
/// seconds, and whether every repetition produced bitwise the teacher
/// probabilities of `first`.
///
/// Workloads run these after their measured calls and after reading the
/// peak memory. Each repetition trains the teachers on new threads, and
/// how the allocator reuses the memory of earlier ones varies from run to
/// run: after three set-ups and a search the peak spread 0.22 of its median
/// over ten seeds, after one set-up (in `serve`) 0.002.
pub fn prepare_again(first: &Prepared, reps: usize) -> (Vec<f64>, bool) {
    let mut times = Vec::with_capacity(reps);
    let mut same = true;
    for _ in 0..reps {
        let (t, p) = prepare_timed();
        times.push(t);
        same &= same_tensors(&first.teachers.train, &p.teachers.train)
            && same_tensors(&first.teachers.val, &p.teachers.val);
    }
    (times, same)
}

/// Whether two tensor lists hold bitwise the same values and shapes.
pub fn same_tensors(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| same_bits(x.data(), y.data()) && x.dims() == y.dims())
}

/// Whether two float slices are bitwise equal.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
