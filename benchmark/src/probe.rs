//! The per-layer probes every traced run makes, whatever its workload.
//!
//! Each probe times calls into one layer's public functions on the
//! Scenario-1 student shape and the run's own data and teachers: a
//! training epoch and its parts (`distill`, `models`, `tensor`, `nn`), the
//! conv kernels (`tensor`), the compiled plans (`models`), the search's own
//! steps at its sizes (`search`), and an in-process server without network
//! (`serve`). Together with the traced set-up they give every per-layer
//! metric but `obs.trace_overhead`, which the workload adds.

use crate::load::SplitMix64;
use crate::report::Outcome;
use crate::serve::{server_marks, Plan};
use crate::setup::{same_bits, Prepared, TEACHERS};
use crate::stats::median;
use crate::trace::{self, Tracer};
use lightts::distill::trainer::train_student_epochs;
use lightts::nn::loss::kl_mean;
use lightts::nn::optim::Optimizer;
use lightts::nn::{Bindings, Mode, ParamRef, ParamStore};
use lightts::prelude::*;
use lightts::search::acquisition::expected_improvement;
use lightts::search::encoder::train_encoder;
use lightts::search::gp::GaussianProcess;
use lightts::serve::{ModelRegistry, PlanKind, ServeConfig, Server};
use lightts::tensor::conv::{conv1d_backward_input, conv1d_backward_weight, conv1d_forward};
use lightts::tensor::rng::seeded;
use lightts::tensor::tape::Tape;
use lightts::tensor::{pool, Tensor};

/// Repetitions of each training-side probe.
const REPS: usize = 12;
/// Mini-batch of the forward / backward / conv probes.
const BATCH: usize = 32;
/// Repetitions of the plan probes at batch 1 (batch 16 runs a quarter as
/// many).
const PLAN_REPS: usize = 200;
/// Repetitions of the GP and acquisition probes (the encoder probe runs a
/// third as often: it is the slowest).
const SEARCH_REPS: usize = 9;
/// One-at-a-time requests of the in-process server probe.
const INPROC_REQUESTS: usize = 400;
/// Bursts of the in-process server probe, each of [`BURST`] requests
/// submitted before the first is awaited.
const BURSTS: usize = 25;
const BURST: usize = 16;

/// Runs every probe and reports the per-layer metrics they and the traced
/// set-up (`prepare` under `tracer`) measured.
pub fn layers(seed: u64, lt: &LightTs, prep: &Prepared, tracer: &Tracer, out: &mut Outcome) {
    let cfg = crate::setup::student_config(&prep.splits);
    let opts = lt.config().distill.aed.train;
    let (student, hit_ratio) = epochs(&opts, prep, &cfg, tracer);
    step(&opts, prep, &cfg, tracer);
    convs(seed, &cfg, tracer);
    let packed = student.save_bytes().expect("export the probe student");
    let rows = test_rows(seed, prep);
    plans(&packed, &rows, tracer);
    search(seed, lt, prep, tracer);
    let (stages, mean_batch) = serve_inproc(&packed, &rows, tracer, out);

    let spans = tracer.spans();
    let ms = |name| trace::median_ms(&spans, name);
    out.metric("data.generate_ms", trace::busy_s(&spans, "data.try_generate") * 1e3);
    out.metric(
        "models.teachers_s",
        trace::busy_s(&spans, "models.train_ensemble")
            + trace::busy_s(&spans, "distill.TeacherProbs::compute"),
    );
    out.metric("distill.epoch_ms", ms("distill.epoch_aed"));
    out.metric("distill.epoch_classic_ms", ms("distill.epoch_classic"));
    out.metric("distill.outer_ms", ms("distill.outer_step"));
    out.metric("models.forward_train_ms", ms("models.forward_train"));
    out.metric("tensor.backward_ms", ms("tensor.Tape::backward"));
    out.metric("nn.optim_ms", ms("nn.Optimizer::step"));
    out.metric("tensor.conv_fwd_ms", conv_sum_ms(&spans, "tensor.conv1d_forward"));
    out.metric("tensor.conv_bwd_input_ms", conv_sum_ms(&spans, "tensor.conv1d_backward_input"));
    out.metric("tensor.conv_bwd_weight_ms", conv_sum_ms(&spans, "tensor.conv1d_backward_weight"));
    out.metric("tensor.pool_hit_ratio", hit_ratio);
    let us = |name| ms(name) * 1e3;
    let (p1, p16) =
        (us("models.InferencePlan::logits_into(b1)"), us("models.InferencePlan::logits_into(b16)"));
    let (q1, q16) =
        (us("models.QuantizedPlan::logits_into(b1)"), us("models.QuantizedPlan::logits_into(b16)"));
    out.metric("models.plan_b1_us", p1);
    out.metric("models.plan_b16_us", p16);
    out.metric("models.qplan_b1_us", q1);
    out.metric("models.qplan_b16_us", q16);
    out.metric("models.plan_batch_gain", 16.0 * p1 / p16);
    out.metric("models.qplan_batch_gain", 16.0 * q1 / q16);
    out.metric("search.encoder_ms", ms("search.train_encoder"));
    out.metric("search.gp_fit_ms", ms("search.GaussianProcess::fit"));
    out.metric("search.acquisition_ms", ms("search.acquisition"));
    out.metric("serve.load_f32_ms", ms("serve.ModelRegistry::load_packed_as(f32)"));
    out.metric("serve.load_i8_ms", ms("serve.ModelRegistry::load_packed_as(i8)"));
    out.metric("serve.inproc_p50_us", us("serve.ServerHandle::predict"));
    for (name, (sum_ns, count)) in
        ["serve.queue_wait_us", "serve.fuse_us", "serve.forward_us", "serve.reply_us"]
            .into_iter()
            .zip(stages)
    {
        out.metric(name, sum_ns as f64 / count.max(1) as f64 / 1e3);
    }
    out.metric("serve.burst_mean_batch", mean_batch);
}

/// An optimizer that times each `step` of the one it wraps.
struct TimedOptimizer<'a> {
    inner: Box<dyn Optimizer>,
    tracer: &'a Tracer,
}

impl Optimizer for TimedOptimizer<'_> {
    fn step(
        &mut self,
        store: &mut ParamStore,
        grads: &[(ParamRef, Tensor)],
    ) -> lightts::nn::Result<()> {
        let inner = &mut self.inner;
        self.tracer.span("nn.Optimizer::step", || inner.step(store, grads))
    }
    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }
    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr)
    }
    fn state_bytes(&self) -> Vec<u8> {
        self.inner.state_bytes()
    }
    fn load_state_bytes(&mut self, bytes: &[u8]) -> lightts::nn::Result<()> {
        self.inner.load_state_bytes(bytes)
    }
}

/// One epoch at a time with the `N` teacher targets (AED's inner level) and
/// with one combined teacher (Classic KD), then the outer λ step's work.
/// Returns the student the AED epochs trained and the buffer pool's hit
/// ratio over one steady epoch.
fn epochs(
    opts: &StudentTrainOpts,
    prep: &Prepared,
    cfg: &InceptionConfig,
    tracer: &Tracer,
) -> (InceptionTime, f64) {
    let train = &prep.splits.train;
    let uniform = vec![1.0 / TEACHERS as f32; TEACHERS];
    let combined = prep.teachers.combined_train(&uniform).expect("combined teacher");
    let runs: [(&'static str, &[Tensor], &[f32]); 2] = [
        ("distill.epoch_aed", &prep.teachers.train, &uniform),
        ("distill.epoch_classic", std::slice::from_ref(&combined), &[1.0]),
    ];
    let mut student = None;
    let mut hit_ratio = f64::NAN;
    for (name, targets, weights) in runs {
        let mut rng = seeded(opts.seed);
        let mut s = InceptionTime::new(cfg.clone(), &mut rng).expect("build the student");
        let mut opt = TimedOptimizer { inner: opts.make_optimizer(), tracer };
        let mut epoch = || {
            train_student_epochs(&mut s, train, targets, weights, opts, &mut opt, &mut rng, 1)
                .expect("one epoch")
        };
        // the first epoch fills the buffer pool; the probe times steady ones
        epoch();
        for rep in 0..REPS {
            let (h0, m0) = (pool::pool_hits(), pool::pool_misses());
            tracer.span(name, &mut epoch);
            if rep == 0 && student.is_none() {
                let (hits, misses) = (pool::pool_hits() - h0, pool::pool_misses() - m0);
                hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
            }
        }
        student.get_or_insert(s);
    }

    let student = student.expect("the AED probe trained a student");
    let val = &prep.splits.validation;
    for _ in 0..REPS {
        tracer.span("distill.outer_step", || {
            let p_val = student.predict_proba_dataset(val).expect("validation probabilities");
            let d: Vec<f32> = prep
                .teachers
                .val
                .iter()
                .map(|q| kl_mean(q, &p_val).expect("teacher distance"))
                .collect();
            std::hint::black_box(d);
        });
    }
    (student, hit_ratio)
}

/// One Eq.-2 training step on a 32-series batch, split into the forward
/// pass and the tape's backward pass.
fn step(opts: &StudentTrainOpts, prep: &Prepared, cfg: &InceptionConfig, tracer: &Tracer) {
    let train = &prep.splits.train;
    let rows: Vec<usize> = (0..BATCH.min(train.len())).collect();
    let batch = train.batch(&rows).expect("probe batch");
    let targets: Vec<Tensor> =
        prep.teachers.train.iter().map(|q| q.gather_rows(&rows).expect("teacher rows")).collect();
    let w = (1.0 - opts.alpha) / TEACHERS as f32;
    let mut rng = seeded(opts.seed);
    let mut student = InceptionTime::new(cfg.clone(), &mut rng).expect("build the student");
    let mut tape = Tape::new();
    let mut bind = Bindings::new();
    for _ in 0..REPS + 1 {
        tape.reset();
        bind.reset();
        let logits = tracer
            .span("models.forward_train", || {
                student.forward_train(&mut tape, &mut bind, &batch.inputs, Mode::Train)
            })
            .expect("forward_train");
        let logp = tape.log_softmax(logits).expect("log_softmax");
        let ce = tape.nll_mean(logp, &batch.labels).expect("nll");
        let mut loss = tape.scale(ce, opts.alpha).expect("scale");
        for q in &targets {
            let kl = tape.kl_to_target(logp, q).expect("kl");
            let term = tape.scale(kl, w).expect("scale");
            loss = tape.add(loss, term).expect("add");
        }
        let grads = tracer.span("tensor.Tape::backward", || tape.backward(loss)).expect("backward");
        std::hint::black_box(grads);
    }
}

/// The dispatching conv kernels on each of the student's nine conv shapes
/// at batch 32, through the public entry points.
fn convs(seed: u64, cfg: &InceptionConfig, tracer: &Tracer) {
    let mut g = SplitMix64::new(seed, 0xC0);
    let mut rand = |dims: &[usize]| {
        let n: usize = dims.iter().product();
        let v: Vec<f32> = (0..n).map(|_| (g.unit() * 2.0 - 1.0) as f32).collect();
        Tensor::from_vec(v, dims).expect("probe tensor")
    };
    let l = cfg.in_len;
    let mut cin = cfg.in_dims;
    for block in &cfg.blocks {
        for layer in 0..block.layers {
            let k = block.kernel(layer, l);
            let x = rand(&[BATCH, cin, l]);
            let w = rand(&[cfg.filters, cin, k]);
            let dy = rand(&[BATCH, cfg.filters, l]);
            for _ in 0..REPS {
                let y = tracer.span("tensor.conv1d_forward", || conv1d_forward(&x, &w));
                let dx = tracer.span("tensor.conv1d_backward_input", || {
                    conv1d_backward_input(&dy, &w, x.dims())
                });
                let dw = tracer.span("tensor.conv1d_backward_weight", || {
                    conv1d_backward_weight(&dy, &x, w.dims())
                });
                std::hint::black_box((
                    y.expect("conv"),
                    dx.expect("conv dx"),
                    dw.expect("conv dw"),
                ));
            }
        }
        cin = block.layers * cfg.filters;
    }
}

/// Sum over the nine shapes of each shape's median time, in ms. Spans of
/// one shape are consecutive, [`REPS`] at a time.
fn conv_sum_ms(spans: &[trace::Span], name: &str) -> f64 {
    let d = trace::durations(spans, name);
    d.chunks(REPS).map(median).sum::<f64>() / 1e6
}

/// Sixteen test series in a seeded order, one row each.
fn test_rows(seed: u64, prep: &Prepared) -> Vec<Vec<f32>> {
    let test = &prep.splits.test;
    let order = crate::load::permutation(seed, test.len());
    order[..BURST].iter().map(|&i| test.batch(&[i]).expect("test row").inputs.into_vec()).collect()
}

/// The compiled plans in process, at batch 1 and batch 16.
fn plans(packed: &[u8], rows: &[Vec<f32>], tracer: &Tracer) {
    const SPANS: [(PlanKind, &str, &str); 2] = [
        (
            PlanKind::F32,
            "models.InferencePlan::logits_into(b1)",
            "models.InferencePlan::logits_into(b16)",
        ),
        (
            PlanKind::I8,
            "models.QuantizedPlan::logits_into(b1)",
            "models.QuantizedPlan::logits_into(b16)",
        ),
    ];
    let b16: Vec<f32> = rows.iter().flatten().copied().collect();
    let mut out = Vec::new();
    for (kind, b1_span, b16_span) in SPANS {
        let mut plan = Plan::compile(packed, kind);
        for rep in 0..PLAN_REPS {
            let x = &rows[rep % rows.len()];
            tracer.span(b1_span, || plan.logits(x, 1, &mut out));
            if rep % 4 == 0 {
                tracer.span(b16_span, || plan.logits(&b16, 16, &mut out));
            }
        }
    }
}

/// The search layer's own steps at the search's sizes: the two-phase
/// encoder and the GP on `Q` seeded settings with seeded accuracies, and
/// expected improvement over a candidate pool.
fn search(seed: u64, lt: &LightTs, prep: &Prepared, tracer: &Tracer) {
    let mobo = lt.config().mobo;
    let space = lt.default_space(&prep.splits);
    let mut g = SplitMix64::new(seed, 0x5EA);
    let mut rng = seeded(g.next_u64());
    let pairs: Vec<(StudentSetting, f64)> = space
        .sample_distinct(&mut rng, mobo.q)
        .into_iter()
        .map(|s| (s, 0.2 + 0.6 * g.unit()))
        .collect();
    let mut encoder = None;
    for _ in 0..SEARCH_REPS.div_ceil(3) {
        let enc = tracer
            .span("search.train_encoder", || train_encoder(&space, &pairs, &mobo.encoder, true))
            .expect("train the encoder");
        encoder = Some(enc);
    }
    let encoder = encoder.expect("the encoder probe ran");
    let x: Vec<Vec<f32>> =
        pairs.iter().map(|(s, _)| encoder.encode(&space, s).expect("encode a setting")).collect();
    let y: Vec<f32> = pairs.iter().map(|(_, a)| *a as f32).collect();
    let best = y.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut gp = None;
    for _ in 0..SEARCH_REPS {
        let fit =
            tracer.span("search.GaussianProcess::fit", || GaussianProcess::fit(x.clone(), &y));
        gp = Some(fit.expect("fit the GP"));
    }
    let gp = gp.expect("the GP probe ran");
    let pool: Vec<Vec<f32>> = space
        .sample_distinct(&mut rng, mobo.candidates)
        .iter()
        .map(|s| encoder.encode(&space, s).expect("encode a candidate"))
        .collect();
    for _ in 0..SEARCH_REPS {
        let ei = tracer.span("search.acquisition", || {
            pool.iter()
                .map(|c| gp.predict(c).map(|(m, v)| expected_improvement(m, v, best)))
                .collect::<Result<Vec<f32>, _>>()
        });
        std::hint::black_box(ei.expect("score the candidate pool"));
    }
}

/// The student on both plan kinds in an in-process server with the
/// benchmark's shard count: one request in flight, then bursts. Every
/// reply must equal its in-process plan's bit for bit. Returns the server's
/// stage histograms over the one-at-a-time requests, as (Σ ns, count) for
/// queue wait, fuse, forward and reply, and the mean batch of the bursts.
fn serve_inproc(
    packed: &[u8],
    rows: &[Vec<f32>],
    tracer: &Tracer,
    out: &mut Outcome,
) -> ([(u64, u64); 4], f64) {
    const MODELS: [(&str, PlanKind, &str); 2] = [
        ("f32", PlanKind::F32, "serve.ModelRegistry::load_packed_as(f32)"),
        ("i8", PlanKind::I8, "serve.ModelRegistry::load_packed_as(i8)"),
    ];
    let mut registry = ModelRegistry::new();
    let mut expected = Vec::new();
    for (name, kind, span) in MODELS {
        tracer.span(span, || registry.load_packed_as(name, packed, kind)).expect("load a model");
        let mut plan = Plan::compile(packed, kind);
        let mut probs = Vec::new();
        let rows: Vec<Vec<f32>> = rows
            .iter()
            .map(|x| {
                plan.proba(x, &mut probs);
                probs.clone()
            })
            .collect();
        expected.push(rows);
    }
    let cfg = ServeConfig { shards: crate::serve::SHARDS, ..ServeConfig::default() };
    let server = Server::start(registry, cfg);
    let handle = server.handle();
    let mut check = |i: usize, probs: &[f32]| {
        let (m, x) = (i % MODELS.len(), i % rows.len());
        out.check(same_bits(probs, &expected[m][x]), || {
            format!("in-process request {i} to {} differs from its plan", MODELS[m].0)
        });
    };
    let before = server_marks(&server);
    for i in 0..INPROC_REQUESTS {
        let probs = tracer
            .span("serve.ServerHandle::predict", || {
                handle.predict(MODELS[i % MODELS.len()].0, rows[i % rows.len()].clone())
            })
            .expect("in-process predict");
        check(i, &probs);
    }
    let lone = server_marks(&server);
    for _ in 0..BURSTS {
        let pending: Vec<_> = (0..BURST)
            .map(|i| {
                handle
                    .submit(MODELS[i % MODELS.len()].0, rows[i % rows.len()].clone())
                    .expect("submit a burst request")
            })
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            check(i, &p.wait().expect("burst reply"));
        }
    }
    let burst = server_marks(&server);
    server.shutdown();
    let stages =
        std::array::from_fn(|k| (lone.0[k].0 - before.0[k].0, lone.0[k].1 - before.0[k].1));
    let mean_batch = (burst.1 - lone.1) as f64 / (burst.2 - lone.2).max(1) as f64;
    (stages, mean_batch)
}
