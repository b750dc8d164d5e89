//! Whole-stack observability integration test: with the in-memory sink
//! active, one tiny teacher fit, a tiny AED run, a tiny MOBO search, and a
//! serving round must together emit schema-valid JSONL covering the
//! teacher fit, trainer epochs, MOBO trials, and serve batches. A tiny
//! forecast LightTS run, traced on its own afterwards, must show the outer
//! λ steps and one `removal.round` decision per round. Every `aed.outer`
//! step records the weights λ̂ it leaves, one entry per teacher. Only
//! explicit compiles are traced: the registry's one `inference.compile`
//! span, and none from the evaluations training runs.
//!
//! Everything runs inside ONE `#[test]` because the sink is process-global
//! state; a second concurrent test in this binary would race it.

use lightts::distill::aed::{run_aed, AedConfig};
use lightts::distill::forecast::{forecast_lightts, ForecastAedConfig, ForecastTeachers};
use lightts::distill::trainer::StudentTrainOpts;
use lightts::distill::weights::WeightTransform;
use lightts::models::forecaster::ForecastConfig;
use lightts::models::inception::InceptionTime;
use lightts::prelude::*;
use lightts::search::mobo::run_mobo;
use lightts_data::forecast::{synthetic_series, windows_from_series, ForecastDataset};
use lightts_data::synth::{Generator, SynthConfig};
use lightts_data::LabeledDataset;
use lightts_obs::{self as obs, SinkTarget};
use lightts_tensor::rng::seeded;
use lightts_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};

fn splits(seed: u64) -> Splits {
    let gen = Generator::new(
        SynthConfig { classes: 3, dims: 1, length: 24, difficulty: 0.2, waveforms: 3 },
        seed,
    );
    gen.splits("obs-stack", 36, 18, 18, seed + 1).unwrap()
}

/// Synthetic teachers (one oracle, one anti-oracle), as in the AED tests —
/// cheap enough that the whole test stays well under a minute.
fn synthetic_teachers(s: &Splits, sharp: f32) -> TeacherProbs {
    let mk = |ds: &LabeledDataset, invert: bool| {
        let k = ds.num_classes();
        let mut t = Tensor::full(&[ds.len(), k], (1.0 - sharp) / (k as f32 - 1.0));
        for (i, &l) in ds.labels().iter().enumerate() {
            let target = if invert { (l + 1) % k } else { l };
            t.set(&[i, target], sharp).unwrap();
        }
        t
    };
    TeacherProbs::from_raw(
        vec![mk(&s.train, false), mk(&s.train, true)],
        vec![mk(&s.validation, false), mk(&s.validation, true)],
        s.validation.labels(),
    )
    .unwrap()
}

/// Requires an `aed.outer` span's `weights` field to render one λ̂ entry
/// per teacher of the step, as `removal.round` renders them.
fn check_outer_weights(fields: &BTreeMap<String, obs::jsonl::Json>, line: &str) {
    let teachers = fields["teachers"].as_num().unwrap() as usize;
    let weights = fields.get("weights").and_then(|w| w.as_str());
    let weights = weights.unwrap_or_else(|| panic!("aed.outer without weights: {line}"));
    let entries = weights.trim_matches(['[', ']']).split(", ").map(str::parse::<f32>);
    let entries = entries.collect::<Result<Vec<_>, _>>();
    assert_eq!(entries.map(|e| e.len()), Ok(teachers), "aed.outer weights: {line}");
}

#[test]
fn stack_emits_schema_valid_spans_for_training_search_and_serving() {
    obs::set_sink(SinkTarget::Memory);

    // --- teacher training: one tiny fit, one `teacher.fit` span ---
    let s = splits(900);
    let student_cfg = InceptionConfig::student(1, 24, 3, 2, 8);
    let mut teacher = InceptionTime::new(student_cfg.clone(), &mut seeded(903)).unwrap();
    let fit_cfg = TrainConfig { epochs: 1, batch_size: 16, ..TrainConfig::default() };
    teacher.fit(&s.train, &fit_cfg).unwrap();

    // --- training: a tiny AED run (2 inner slices, ≥1 outer λ step) ---
    let teachers = synthetic_teachers(&s, 0.85);
    let aed_cfg = AedConfig {
        train: StudentTrainOpts { epochs: 8, batch_size: 16, ..Default::default() },
        v: 4,
        lambda_lr: 2.0,
        transform: WeightTransform::Softmax,
    };
    run_aed(&s, &teachers, &student_cfg, &aed_cfg).unwrap();

    // --- search: a tiny MOBO run with a synthetic oracle (2 BO trials) ---
    let space = SearchSpace::paper_default(1, 24, 3, 4);
    let mobo_cfg = MoboConfig {
        q: 4,
        p_init: 2,
        candidates: 16,
        repr: SpaceRepr::Normalized,
        ..MoboConfig::default()
    };
    run_mobo(&space, |st| Ok(1.0 / (1.0 + space.size_bits(st) as f64)), &mobo_cfg).unwrap();

    // --- serving: a compiled student answers a few requests ---
    let mut rng = seeded(901);
    let student = InceptionTime::new(student_cfg, &mut rng).unwrap();
    let bytes = student.save_bytes().unwrap();
    let mut registry = ModelRegistry::new();
    registry.load_packed("student", &bytes).unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();
    let batch = s.test.full_batch().unwrap();
    let pendings: Vec<_> = (0..4)
        .map(|i| handle.submit("student", batch.inputs.data()[i * 24..(i + 1) * 24].to_vec()))
        .collect::<Result<_, _>>()
        .unwrap();
    for p in pendings {
        p.wait().unwrap();
    }
    server.shutdown(); // joins the scheduler, so all stats are recorded
    let stats = handle.stats();
    assert_eq!(stats.requests, 4);
    assert!(stats.latency_p50 <= stats.latency_p99);

    // --- every emitted line is schema-valid, and the three subsystems are
    //     all represented ---
    let lines = obs::take_memory();
    assert!(!lines.is_empty(), "memory sink captured nothing");
    let mut paths: BTreeSet<String> = BTreeSet::new();
    let (mut fits, mut compiles) = (0, 0);
    for line in &lines {
        obs::jsonl::validate_event_line(line)
            .unwrap_or_else(|e| panic!("invalid event line {line:?}: {e}"));
        let obj = obs::jsonl::parse(line).unwrap();
        let obj = obj.as_obj().unwrap();
        let path = obj["path"].as_str().unwrap().to_string();
        match path.as_str() {
            "teacher.fit" => {
                let fields = obj["fields"].as_obj().unwrap();
                assert!(fields.contains_key("loss"), "teacher.fit without a loss: {line}");
                fits += 1;
            }
            "aed.outer" => check_outer_weights(obj["fields"].as_obj().unwrap(), line),
            "inference.compile" => compiles += 1,
            _ => {}
        }
        paths.insert(path);
    }
    assert_eq!(fits, 1, "one teacher.fit span per fit call");
    assert_eq!(compiles, 1, "one inference.compile span, the registry's load_packed");
    for expected in ["trainer.epoch", "aed.inner", "aed.outer", "mobo.trial", "serve.batch"] {
        assert!(paths.contains(expected), "no {expected:?} event among paths {paths:?}");
    }

    // registry metrics moved alongside the spans
    let snap = obs::global().snapshot();
    assert!(snap.counter("distill.epochs").unwrap_or(0) >= 8);
    assert!(snap.counter("search.trials").unwrap_or(0) >= 2);
    assert!(stats.batches >= 1);
    assert!(stats.total_latency.as_nanos() > 0);

    // --- forecasting: two teachers (the targets shifted by 0.1 and by 1.0),
    //     two removal rounds of two inner slices each, traced on their own ---
    let series = synthetic_series(1, 120, 0.05, 902);
    let fs = windows_from_series("obs-forecast", &series, 16, 2, 2, 0.15, 0.15).unwrap();
    let shifted =
        |ds: &ForecastDataset| vec![ds.targets().add_scalar(0.1), ds.targets().add_scalar(1.0)];
    let teachers = ForecastTeachers { train: shifted(&fs.train), val: shifted(&fs.validation) };
    let forecast_cfg = ForecastAedConfig { epochs: 4, v: 2, ..ForecastAedConfig::default() };
    let student = ForecastConfig::for_task(&fs.train, 2, 8);
    forecast_lightts(&fs, &teachers, &student, &forecast_cfg).unwrap();
    let (mut outer, mut compiles) = (0, 0);
    let mut removed = Vec::new();
    for line in obs::take_memory() {
        obs::jsonl::validate_event_line(&line)
            .unwrap_or_else(|e| panic!("invalid event line {line:?}: {e}"));
        let obj = obs::jsonl::parse(&line).unwrap();
        let obj = obj.as_obj().unwrap();
        match obj["path"].as_str().unwrap() {
            "aed.outer" => {
                check_outer_weights(obj["fields"].as_obj().unwrap(), &line);
                outer += 1;
            }
            "removal.round" => {
                let fields = obj["fields"].as_obj().unwrap();
                removed.push(fields["removed"].as_str().unwrap().to_string());
            }
            "inference.compile" => compiles += 1,
            _ => {}
        }
    }
    assert_eq!(outer, 2, "one outer λ step per removal round");
    assert_eq!(compiles, 0, "evaluations compile untraced");
    assert_eq!(removed.len(), 2, "one removal.round event per round: {removed:?}");
    assert_ne!(removed[0], "none", "the first round removes a teacher");
    assert_eq!(removed[1], "none", "the last round keeps its one teacher");
}
