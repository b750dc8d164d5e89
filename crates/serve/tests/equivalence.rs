//! Serving correctness: batched results are bitwise identical to
//! per-sample `predict_proba`, the serve path never constructs an autodiff
//! tape, and queue bookkeeping (routing, draining, stats) holds up.
//!
//! Every test in this file must stay tape-free: the zero-tape proof reads
//! a process-global counter, so a concurrently running test that trains a
//! model would pollute it. Models are therefore built from random init
//! plus hand-set batch-norm running statistics.

use lightts_models::inception::{BlockSpec, InceptionConfig, InceptionTime};
use lightts_models::{Classifier, ModelError};
use lightts_serve::{ModelRegistry, Pending, PlanKind, ServeConfig, ServeError, Server};
use lightts_tensor::rng::seeded;
use lightts_tensor::tape::tapes_created;
use lightts_tensor::Tensor;
use std::time::Duration;

const IN_DIMS: usize = 2;
const IN_LEN: usize = 16;

/// A small quantized student with non-trivial BN statistics, built without
/// ever touching the tape (no training).
fn build_model(seed: u64, classes: usize, bits: u8) -> InceptionTime {
    let cfg = InceptionConfig {
        blocks: vec![
            BlockSpec { layers: 2, filter_len: 8, bits },
            BlockSpec { layers: 2, filter_len: 4, bits },
        ],
        filters: 3,
        in_dims: IN_DIMS,
        in_len: IN_LEN,
        num_classes: classes,
    };
    let mut rng = seeded(seed);
    let mut model = InceptionTime::new(cfg, &mut rng).unwrap();
    for (i, c) in model.bn_channel_counts().iter().enumerate() {
        let mean: Vec<f32> = (0..*c).map(|j| 0.04 * j as f32 - 0.08).collect();
        let var: Vec<f32> = (0..*c).map(|j| 0.6 + 0.02 * j as f32).collect();
        model.set_bn_running_stats(i, &mean, &var).unwrap();
    }
    model
}

/// Deterministic pseudo-random sample `i` (pure integer arithmetic — no
/// platform-dependent libm).
fn sample(i: usize) -> Vec<f32> {
    (0..IN_DIMS * IN_LEN)
        .map(|j| {
            let h = (i as u64 * 1_000_003 + j as u64).wrapping_mul(2_654_435_761) % 2000;
            h as f32 / 1000.0 - 1.0
        })
        .collect()
}

fn reference_row(model: &InceptionTime, s: &[f32]) -> Vec<f32> {
    let x = Tensor::from_vec(s.to_vec(), &[1, IN_DIMS, IN_LEN]).unwrap();
    model.predict_proba(&x).unwrap().into_vec()
}

#[test]
fn batched_results_bitwise_equal_single_sample_inference() {
    let model = build_model(21, 4, 8);
    let mut registry = ModelRegistry::new();
    registry.load_packed("student", &model.save_bytes().unwrap()).unwrap();
    // Reload through the same packed bytes so the reference model is the
    // exact model being served.
    let served = InceptionTime::load_bytes(&model.save_bytes().unwrap()).unwrap();

    // Exercise every batch size the scheduler can form under max_batch=4:
    // j <= 4 queued requests fuse into one batch of j (long max_wait makes
    // formation deterministic once the queue is full; smaller j relies on
    // the deadline path).
    for max_batch in [1usize, 2, 4, 16] {
        let cfg =
            ServeConfig { max_batch, max_wait: Duration::from_millis(2), ..ServeConfig::default() };
        let mut reg = ModelRegistry::new();
        reg.load_packed("student", &model.save_bytes().unwrap()).unwrap();
        let server = Server::start(reg, cfg);
        let handle = server.handle();
        let n = 13; // not a multiple of any max_batch: forces partial batches
        let pendings: Vec<Pending> =
            (0..n).map(|i| handle.submit("student", sample(i)).unwrap()).collect();
        for (i, p) in pendings.into_iter().enumerate() {
            let got = p.wait().unwrap();
            let expect = reference_row(&served, &sample(i));
            assert_eq!(got.len(), expect.len());
            for (k, (a, b)) in expect.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "max_batch={max_batch} sample {i} elem {k}: {a} vs {b}"
                );
            }
        }
        let stats = server.stats();
        assert_eq!(stats.requests, n as u64);
        assert!(stats.batches >= n.div_ceil(max_batch) as u64);
        assert!(stats.max_batch <= max_batch);
        server.shutdown();
    }
}

#[test]
fn serve_path_performs_zero_tape_allocations() {
    let model = build_model(22, 3, 4);
    let mut registry = ModelRegistry::new();
    registry.load_packed("student", &model.save_bytes().unwrap()).unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();

    // Warm up (grows scratch buffers), then measure.
    handle.predict("student", sample(0)).unwrap();
    let before = tapes_created();
    let pendings: Vec<Pending> =
        (0..32).map(|i| handle.submit("student", sample(i)).unwrap()).collect();
    for p in pendings {
        p.wait().unwrap();
    }
    assert_eq!(tapes_created(), before, "the serve path constructed an autodiff Tape");
    server.shutdown();
}

#[test]
fn routes_between_multiple_models() {
    let m3 = build_model(31, 3, 8);
    let m5 = build_model(32, 5, 8);
    let mut registry = ModelRegistry::new();
    registry.register("three", &m3).unwrap();
    registry.register("five", &m5).unwrap();
    assert_eq!(registry.names(), vec!["three", "five"]);
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();
    let p3 = handle.predict("three", sample(1)).unwrap();
    let p5 = handle.predict("five", sample(1)).unwrap();
    assert_eq!(p3.len(), 3);
    assert_eq!(p5.len(), 5);
    assert_eq!(p3, reference_row(&m3, &sample(1)));
    assert_eq!(p5, reference_row(&m5, &sample(1)));
    server.shutdown();
}

#[test]
fn rejects_unknown_models_and_bad_lengths() {
    let model = build_model(41, 2, 8);
    let mut registry = ModelRegistry::new();
    registry.register("student", &model).unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();
    assert!(matches!(handle.predict("nope", sample(0)), Err(ServeError::UnknownModel { .. })));
    assert!(matches!(handle.predict("student", vec![1.0; 3]), Err(ServeError::BadRequest { .. })));
    // Valid requests still succeed afterwards.
    assert_eq!(handle.predict("student", sample(0)).unwrap().len(), 2);
    server.shutdown();
}

#[test]
fn shutdown_drains_accepted_requests_then_rejects() {
    let model = build_model(51, 3, 8);
    let mut registry = ModelRegistry::new();
    registry.register("student", &model).unwrap();
    // Long max_wait: pending requests would sit for 10s unless shutdown
    // drains them promptly.
    let cfg =
        ServeConfig { max_batch: 64, max_wait: Duration::from_secs(10), ..ServeConfig::default() };
    let server = Server::start(registry, cfg);
    let handle = server.handle();
    let pendings: Vec<Pending> =
        (0..5).map(|i| handle.submit("student", sample(i)).unwrap()).collect();
    server.shutdown();
    for p in pendings {
        assert!(p.wait().is_ok(), "accepted request dropped on shutdown");
    }
    assert!(matches!(handle.submit("student", sample(0)), Err(ServeError::Shutdown)));
}

#[test]
fn stats_track_latency_and_throughput() {
    let model = build_model(61, 3, 8);
    let mut registry = ModelRegistry::new();
    registry.register("student", &model).unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();
    let pendings: Vec<Pending> =
        (0..8).map(|i| handle.submit("student", sample(i)).unwrap()).collect();
    for p in pendings {
        p.wait().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.errors, 0);
    assert!(stats.batches >= 1);
    assert!(stats.mean_batch_size() >= 1.0);
    assert!(stats.total_latency > Duration::ZERO);
    assert!(stats.total_service > Duration::ZERO);
    assert!(stats.service_throughput() > 0.0);
    server.shutdown();
}

#[test]
fn rejects_non_finite_inputs_with_typed_error() {
    let model = build_model(81, 3, 8);
    let mut registry = ModelRegistry::new();
    registry.register("student", &model).unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();
    let mut bad = sample(0);
    bad[7] = f32::NAN;
    assert_eq!(handle.predict("student", bad), Err(ServeError::NonFiniteInput { index: 7 }));
    let mut bad = sample(0);
    bad[3] = f32::INFINITY;
    assert_eq!(handle.predict("student", bad), Err(ServeError::NonFiniteInput { index: 3 }));
    // Valid requests still succeed afterwards.
    assert_eq!(handle.predict("student", sample(0)).unwrap().len(), 3);
    server.shutdown();
}

#[test]
fn overload_sheds_with_typed_error_and_counter() {
    let model = build_model(82, 3, 8);
    let mut registry = ModelRegistry::new();
    registry.register("student", &model).unwrap();
    // max_batch larger than max_queue and a long max_wait: nothing drains
    // until the queue fills, so the admission bound is exercised exactly.
    let cfg = ServeConfig {
        max_batch: 1024,
        max_wait: Duration::from_secs(10),
        max_queue: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();
    let accepted: Vec<Pending> =
        (0..3).map(|i| handle.submit("student", sample(i)).unwrap()).collect();
    let shed = handle.submit("student", sample(3));
    assert_eq!(shed.err(), Some(ServeError::Overloaded { model: "student".into(), max_queue: 3 }));
    let stats = handle.stats();
    assert_eq!(stats.shed_overload, 1);
    // The accepted requests are still answered (shutdown drains).
    server.shutdown();
    for p in accepted {
        assert!(p.wait().is_ok());
    }
}

#[test]
fn expired_deadlines_are_shed_before_inference() {
    let model = build_model(83, 3, 8);
    let mut registry = ModelRegistry::new();
    registry.register("student", &model).unwrap();
    // max_wait far beyond the deadline: by the time the scheduler forms
    // the batch (after max_wait), every deadline has long expired.
    let cfg = ServeConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(50),
        max_queue: 64,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();
    let pendings: Vec<Pending> = (0..4)
        .map(|i| {
            handle.submit_with_deadline("student", sample(i), Duration::from_millis(1)).unwrap()
        })
        .collect();
    for p in pendings {
        assert_eq!(p.wait(), Err(ServeError::DeadlineExceeded));
    }
    let stats = handle.stats();
    assert_eq!(stats.shed_deadline, 4);
    assert_eq!(stats.requests, 0, "shed requests must not run inference");
    // A generous deadline still gets an answer.
    let ok =
        handle.submit_with_deadline("student", sample(0), Duration::from_secs(30)).unwrap().wait();
    assert!(ok.is_ok());
    server.shutdown();
}

#[test]
fn robustness_counters_appear_in_metrics_exposition() {
    let model = build_model(84, 3, 8);
    let mut registry = ModelRegistry::new();
    registry.register("student", &model).unwrap();
    let cfg = ServeConfig {
        max_batch: 1024,
        max_wait: Duration::from_secs(10),
        max_queue: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();
    let held = handle.submit("student", sample(0)).unwrap();
    assert!(handle.submit("student", sample(1)).is_err()); // shed: queue full
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("serve.shed_overload"), Some(1));
    assert_eq!(snap.counter("serve.shed_deadline"), Some(0));
    assert_eq!(snap.counter("serve.batch_panics"), Some(0));
    let prom = snap.render_prometheus();
    for name in ["serve_shed_overload", "serve_shed_deadline", "serve_batch_panics"] {
        assert!(prom.contains(name), "{name} missing from Prometheus exposition:\n{prom}");
    }
    server.shutdown();
    assert!(held.wait().is_ok());
}

/// Reference row through the int8 plan directly (per-sample, no server).
fn reference_row_i8(model: &InceptionTime, s: &[f32]) -> Vec<f32> {
    let mut plan = model.compile_quantized().unwrap();
    let mut out = Vec::new();
    plan.predict_proba_into(s, 1, &mut out).unwrap();
    out
}

#[test]
fn i8_plan_serving_is_batch_size_invariant_bitwise() {
    let model = build_model(91, 4, 8);
    let packed = model.save_bytes().unwrap();
    let served = InceptionTime::load_bytes(&packed).unwrap();
    for max_batch in [1usize, 2, 4, 16] {
        let cfg =
            ServeConfig { max_batch, max_wait: Duration::from_millis(2), ..ServeConfig::default() };
        let mut reg = ModelRegistry::new();
        reg.load_packed_as("student", &packed, PlanKind::I8).unwrap();
        assert_eq!(reg.plan_kind("student"), Some(PlanKind::I8));
        let server = Server::start(reg, cfg);
        let handle = server.handle();
        let n = 13; // not a multiple of any max_batch: forces partial batches
        let pendings: Vec<Pending> =
            (0..n).map(|i| handle.submit("student", sample(i)).unwrap()).collect();
        for (i, p) in pendings.into_iter().enumerate() {
            let got = p.wait().unwrap();
            let expect = reference_row_i8(&served, &sample(i));
            assert_eq!(got.len(), expect.len());
            for (k, (a, b)) in expect.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "i8 max_batch={max_batch} sample {i} elem {k}: {a} vs {b}"
                );
            }
        }
        let stats = server.stats();
        assert_eq!(stats.requests, n as u64);
        assert_eq!(stats.plan_i8_requests, n as u64);
        assert_eq!(stats.plan_f32_requests, 0);
        server.shutdown();
    }
}

#[test]
fn mixed_registry_routes_f32_and_i8_plans_correctly() {
    let model = build_model(92, 4, 8);
    let mut registry = ModelRegistry::new();
    registry.register_as("fast", &model, PlanKind::F32).unwrap();
    registry.register_as("small", &model, PlanKind::I8).unwrap();
    assert_eq!(registry.plan_kind("fast"), Some(PlanKind::F32));
    assert_eq!(registry.plan_kind("small"), Some(PlanKind::I8));
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();
    for i in 0..6 {
        let f = handle.predict("fast", sample(i)).unwrap();
        let q = handle.predict("small", sample(i)).unwrap();
        // Each lane reproduces its own reference bitwise; same model, two
        // resident plans, routed by name.
        assert_eq!(f, reference_row(&model, &sample(i)), "f32 lane, sample {i}");
        assert_eq!(q, reference_row_i8(&model, &sample(i)), "i8 lane, sample {i}");
    }
    let stats = server.stats();
    assert_eq!(stats.plan_f32_requests, 6);
    assert_eq!(stats.plan_i8_requests, 6);
    assert_eq!(stats.requests, 12);
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("serve.plan_f32_requests"), Some(6));
    assert_eq!(snap.counter("serve.plan_i8_requests"), Some(6));
    server.shutdown();
}

#[test]
fn unsupported_plan_kind_is_a_typed_registration_error() {
    // A model packed with 32-bit (and 16-bit) quantization metadata cannot
    // serve the i8 plan: registration must fail with a typed error — never
    // a panic — and leave the registry unchanged.
    for bits in [16u8, 32] {
        let model = build_model(93, 3, bits);
        let packed = model.save_bytes().unwrap();
        let mut registry = ModelRegistry::new();
        match registry.load_packed_as("student", &packed, PlanKind::I8) {
            Err(ServeError::Model(ModelError::UnsupportedPlan { .. })) => {}
            other => panic!("bits={bits}: expected UnsupportedPlan, got {other:?}"),
        }
        assert!(registry.is_empty(), "failed registration must not leave an entry");
        // The same bytes still load fine as f32.
        registry.load_packed_as("student", &packed, PlanKind::F32).unwrap();
        assert_eq!(registry.plan_kind("student"), Some(PlanKind::F32));
    }
}

#[test]
fn malformed_packed_bytes_surface_typed_errors_for_both_plan_kinds() {
    let model = build_model(94, 3, 8);
    let packed = model.save_bytes().unwrap();
    for kind in [PlanKind::F32, PlanKind::I8] {
        let mut registry = ModelRegistry::new();
        // Truncated container.
        assert!(registry.load_packed_as("m", &packed[..packed.len() / 2], kind).is_err());
        // Corrupted magic.
        let mut bad = packed.clone();
        bad[0] ^= 0xFF;
        assert!(registry.load_packed_as("m", &bad, kind).is_err());
        assert!(registry.is_empty());
    }
}

#[test]
fn metrics_expose_tensor_pool_gauges_after_traffic() {
    let model = build_model(71, 3, 8);
    let mut registry = ModelRegistry::new();
    registry.register("student", &model).unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let handle = server.handle();
    for i in 0..4 {
        handle.predict("student", sample(i)).unwrap();
    }
    // stats() snapshots the registry, which refreshes the pool gauges.
    let _ = server.stats();
    let snap = server.metrics().snapshot();
    let gauge = |name: &str| snap.gauge(name).unwrap_or_else(|| panic!("missing gauge {name}"));
    // The scheduler's pooled scratch guarantees a non-trivial high-water
    // mark, and hits+misses covers every pooled take it performed.
    assert!(gauge("serve.pool_high_water_bytes") > 0);
    assert!(gauge("serve.pool_hits") + gauge("serve.pool_misses") > 0);
    server.shutdown();
}
