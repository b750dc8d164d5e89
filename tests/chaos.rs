//! Chaos suite: deterministic fault injection across the stack.
//!
//! These tests arm `lightts_obs::failpoint`s — the same hooks
//! `LIGHTTS_FAILPOINTS` drives from the environment — to prove the
//! robustness contracts of this PR end to end:
//!
//! * a panic inside one serve batch fails only that batch, and requests
//!   after it get **bitwise identical** answers to requests before it;
//! * a panic escaping a whole scheduler *shard* (the `serve.shard`
//!   failpoint) kills only that shard: its requests fail with a
//!   shard-tagged `SchedulerDied`, sibling shards keep answering bitwise
//!   identically, and the server still shuts down cleanly;
//! * the supervisor **respawns** a killed shard and the reborn shard
//!   answers bitwise identically to its pre-death self; a shard that
//!   exhausts its restart budget is permanently failed and `/healthz`
//!   degrades;
//! * while a shard is down, keyed requests **reroute** deterministically
//!   to the surviving sibling; per-model **circuit breakers** open after
//!   consecutive batch failures and close on a successful probe; retries
//!   never violate their deadline budget; and a randomized kill soak under
//!   concurrent load heals back to full strength with oracle-exact bits;
//! * a distillation run killed at any epoch resumes from its checkpoint to
//!   the exact (every f32 bit) weights of an uninterrupted run;
//! * a MOBO search killed at any trial resumes to the exact trial sequence
//!   and frontier of an uninterrupted run;
//! * admission control never accepts more than `max_queue` requests, and
//!   everything it does accept is answered (property-based);
//! * a failed checkpoint write surfaces as a typed error, not a corrupt
//!   file.
//!
//! Failpoints are process-global, so every test that arms them (or that
//! must not trip over someone else's arming) takes [`CHAOS_LOCK`].

use lightts_distill::checkpoint::train_student_checkpointed;
use lightts_distill::trainer::{train_student, StudentTrainOpts};
use lightts_distill::DistillError;
use lightts_models::inception::{BlockSpec, InceptionConfig, InceptionTime};
use lightts_models::Classifier;
use lightts_obs::failpoint;
use lightts_search::mobo::{run_mobo, run_mobo_resumable, MoboConfig, MoboOutcome, SpaceRepr};
use lightts_search::space::SearchSpace;
use lightts_search::SearchError;
use lightts_serve::{ModelRegistry, RetryPolicy, ServeConfig, ServeError, Server};
use lightts_tensor::rng::seeded;
use lightts_tensor::Tensor;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes every test in this binary: failpoints are process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lightts-chaos-{}-{name}", std::process::id()))
}

// ---------------------------------------------------------------- serving --

const IN_DIMS: usize = 2;
const IN_LEN: usize = 16;

/// A small quantized student with hand-set BN statistics (no training).
fn build_model(seed: u64, classes: usize) -> InceptionTime {
    let cfg = InceptionConfig {
        blocks: vec![
            BlockSpec { layers: 2, filter_len: 8, bits: 8 },
            BlockSpec { layers: 2, filter_len: 4, bits: 4 },
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

/// Deterministic pseudo-random sample `i` (integer arithmetic only).
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

/// A panic in one batch's forward pass must fail only that batch: the
/// scheduler survives, and every batch served *after* the panic returns
/// rows bitwise identical to the rows served *before* it.
#[test]
fn batch_panic_fails_one_batch_and_later_answers_stay_bit_identical() {
    let _g = lock();
    let model = build_model(71, 4);
    let mut registry = ModelRegistry::new();
    registry.load_packed("student", &model.save_bytes().unwrap()).unwrap();
    let reference = InceptionTime::load_bytes(&model.save_bytes().unwrap()).unwrap();

    // max_batch = group size and a long max_wait: each group of 4 requests,
    // submitted together, forms exactly one batch — so "the second batch"
    // is a deterministic notion and panic@2 targets group 2 alone.
    let cfg =
        ServeConfig { max_batch: 4, max_wait: Duration::from_secs(5), ..ServeConfig::default() };
    let server = Server::start(registry, cfg);
    let handle = server.handle();

    failpoint::set_failpoints("serve.batch=panic@2").unwrap();
    let run_group = |g: usize| -> Vec<Result<Vec<f32>, ServeError>> {
        let pendings: Vec<_> =
            (0..4).map(|i| handle.submit("student", sample(g * 4 + i)).unwrap()).collect();
        pendings.into_iter().map(|p| p.wait()).collect()
    };

    // Group 0: before the fault — correct, bit-exact rows.
    for (i, r) in run_group(0).into_iter().enumerate() {
        assert_eq!(r.unwrap(), reference_row(&reference, &sample(i)));
    }
    // Group 1: the panicking batch — every request in it fails typed, none
    // hangs.
    for r in run_group(1) {
        match r {
            Err(ServeError::Inference { what }) => {
                assert!(what.contains("panicked"), "unexpected message: {what}")
            }
            other => panic!("expected Inference error, got {other:?}"),
        }
    }
    // Group 2: after the fault — the scheduler is alive and still
    // bit-exact.
    for (i, r) in run_group(2).into_iter().enumerate() {
        assert_eq!(r.unwrap(), reference_row(&reference, &sample(8 + i)));
    }
    failpoint::clear_failpoints();

    server.shutdown(); // joins cleanly: the scheduler thread never died
    let stats = handle.stats(); // read after the join — counters are final
    assert_eq!(stats.batch_panics, 1, "exactly the armed batch panicked");
    assert_eq!(stats.requests, 8, "panicked batch answered errors, not rows");
}

/// A panic escaping a shard's scheduler loop (not just one batch's
/// forward) must be contained to that shard: requests routed to it fail
/// with a *shard-tagged* `SchedulerDied`, the sibling shard keeps serving
/// bitwise-identical answers, liveness accounting reports the partial
/// outage, and shutdown still joins cleanly.
#[test]
fn shard_death_is_isolated_to_its_models_and_siblings_stay_bit_identical() {
    let _g = lock();
    let model_a = build_model(81, 4);
    let model_b = build_model(82, 3);
    let mut registry = ModelRegistry::new();
    registry.load_packed("a", &model_a.save_bytes().unwrap()).unwrap();
    registry.load_packed("b", &model_b.save_bytes().unwrap()).unwrap();
    let reference_b = InceptionTime::load_bytes(&model_b.save_bytes().unwrap()).unwrap();

    // Two shards, one replica per model: each model lives alone on its own
    // shard, so killing "a"'s shard cannot touch "b"'s. Respawn is
    // disabled (budget 0) — this test pins the *isolation* contract with
    // the shard staying down; self-healing has its own tests below.
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        shards: 2,
        replicas: 1,
        restart_budget: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    assert_eq!(server.shards(), 2);
    let handle = server.handle();
    let shard_a = handle.route_of("a", 0).unwrap();
    let shard_b = handle.route_of("b", 0).unwrap();
    assert_ne!(shard_a, shard_b, "one replica each on two shards must not collide");

    // Pre-kill bits from the survivor shard.
    let before: Vec<Vec<u32>> = (0..4)
        .map(|i| handle.predict("b", sample(i)).unwrap().iter().map(|v| v.to_bits()).collect())
        .collect();

    // Kill shard_a: the failpoint fires on the next batch *it* forms, and
    // only "a" gets traffic between arming and the kill.
    failpoint::set_failpoints("serve.shard=panic@1").unwrap();
    match handle.predict("a", sample(0)) {
        Err(ServeError::SchedulerDied { .. }) => {}
        other => panic!("request on the dying shard got {other:?}"),
    }
    failpoint::clear_failpoints();

    // Submissions routed to the dead shard fail fast, naming it. One
    // racing the unwind itself may still be accepted — the dying shard's
    // drain answers it with the same typed error, so nothing hangs and
    // the fast-fail settles in immediately after.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match handle.submit("a", sample(1)) {
            Err(ServeError::SchedulerDied { shard }) => {
                assert_eq!(shard, Some(shard_a));
                break;
            }
            Ok(p) => {
                assert!(matches!(p.wait(), Err(ServeError::SchedulerDied { .. })));
                assert!(std::time::Instant::now() < deadline, "dead shard kept accepting");
            }
            Err(other) => panic!("submit to dead shard got {other:?}"),
        }
    }

    // The sibling keeps answering — and every bit agrees with before the
    // kill and with the per-sample reference.
    for (i, want) in before.iter().enumerate() {
        let got: Vec<u32> =
            handle.predict("b", sample(i)).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(&got, want, "sample {i}: survivor shard drifted after sibling death");
        let reference: Vec<u32> =
            reference_row(&reference_b, &sample(i)).iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, reference, "sample {i}: survivor shard drifted from reference");
    }

    // Liveness accounting sees the partial outage.
    assert_eq!(server.shards_alive(), 1, "exactly the killed shard is gone");
    assert!(server.scheduler_alive(), "one live shard keeps the server healthy");
    let metrics = server.metrics().snapshot();
    assert_eq!(metrics.gauge(&format!("serve.shard{shard_a}.alive")), Some(0));
    assert_eq!(metrics.gauge(&format!("serve.shard{shard_b}.alive")), Some(1));

    // Over HTTP the same contract: one dead shard is a *degraded 200*
    // whose body carries the counts — 503 is reserved for all-dead.
    let telemetry = server.serve_telemetry("127.0.0.1:0").unwrap();
    let (status, body) = http_get(telemetry.addr(), "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"shards_alive\":1"), "{body}");
    assert!(body.contains("\"shards_total\":2"), "{body}");

    server.shutdown(); // the dead shard's thread is already joined-able
    let (status, body) = http_get(telemetry.addr(), "/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"shards_alive\":0"), "{body}");
    telemetry.shutdown();
}

// ------------------------------------------------------------ self-healing --

/// Polls until the server reports every shard alive again (the supervisor
/// has finished its respawn), failing the test after a generous bound.
fn wait_all_alive(server: &Server, total: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.shards_alive() != total {
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor did not respawn within 10s: {}/{} shards alive",
            server.shards_alive(),
            total
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The supervisor must respawn a killed shard — and the reborn shard must
/// answer **bitwise identically** to its pre-death self (the respawn's
/// fresh clones of the registered plans must reproduce the golden probe
/// rows bit for bit before they serve, so this is the contract it
/// enforces, observed end to end).
#[test]
fn killed_shard_is_respawned_and_answers_bit_identically() {
    let _g = lock();
    let model_a = build_model(91, 4);
    let model_b = build_model(92, 3);
    let mut registry = ModelRegistry::new();
    registry.load_packed("a", &model_a.save_bytes().unwrap()).unwrap();
    registry.load_packed("b", &model_b.save_bytes().unwrap()).unwrap();

    // One replica each on two shards: killing "a"'s shard leaves "b"
    // untouched, and the default restart budget lets the supervisor act.
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        shards: 2,
        replicas: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();
    let shard_a = handle.route_of("a", 0).unwrap();

    // Pre-death bits from the shard we are about to kill.
    let before: Vec<Vec<u32>> = (0..4)
        .map(|i| handle.predict("a", sample(i)).unwrap().iter().map(|v| v.to_bits()).collect())
        .collect();

    failpoint::set_failpoints("serve.shard=panic@1").unwrap();
    match handle.predict("a", sample(0)) {
        Err(ServeError::SchedulerDied { shard }) => assert_eq!(shard, Some(shard_a)),
        other => panic!("request on the dying shard got {other:?}"),
    }
    failpoint::clear_failpoints();

    // The supervisor notices, verifies fresh plan clones against the
    // golden probe, and brings the shard back.
    wait_all_alive(&server, 2);

    // The reborn shard answers every pre-death sample with the exact same
    // bits — death and rebirth are invisible in the numbers.
    for (i, want) in before.iter().enumerate() {
        let got: Vec<u32> =
            handle.predict("a", sample(i)).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(&got, want, "sample {i}: reborn shard drifted from its pre-death self");
    }

    let stats = handle.stats();
    assert_eq!(stats.restarts, 1, "exactly one respawn happened");
    assert_eq!(stats.shards_failed, 0, "the budget was nowhere near exhausted");
    let metrics = server.metrics().snapshot();
    assert_eq!(metrics.counter(&format!("serve.shard{shard_a}.restarts")), Some(1));
    assert_eq!(metrics.gauge(&format!("serve.shard{shard_a}.alive")), Some(1));
    server.shutdown();
}

/// While a replica's shard is down, a keyed request reroutes
/// **deterministically** to the surviving sibling and still answers with
/// reference bits; the pure `route_of` keeps reporting the primary, and
/// the reroute is counted.
#[test]
fn dead_primary_reroutes_keyed_requests_to_the_surviving_sibling() {
    let _g = lock();
    let model = build_model(93, 4);
    let mut registry = ModelRegistry::new();
    registry.load_packed("m", &model.save_bytes().unwrap()).unwrap();
    let reference = InceptionTime::load_bytes(&model.save_bytes().unwrap()).unwrap();

    // The model lives on both shards; respawn is disabled so the primary
    // *stays* dead and the reroute is deterministic, not a race against
    // the supervisor (respawn has its own test above).
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        shards: 2,
        replicas: 2,
        restart_budget: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();

    let key = 7u64;
    let primary = handle.route_of("m", key).unwrap();
    let sibling = 1 - primary;

    // Kill exactly the primary: the keyed request is the only traffic
    // while the failpoint is armed, and it routes to `primary`.
    failpoint::set_failpoints("serve.shard=panic@1").unwrap();
    match handle.submit_keyed("m", sample(0), key, None).unwrap().wait() {
        Err(ServeError::SchedulerDied { shard }) => assert_eq!(shard, Some(primary)),
        other => panic!("request on the dying shard got {other:?}"),
    }
    failpoint::clear_failpoints();

    // The same id now lands on the surviving sibling — accepted, answered,
    // and bitwise identical to the single-sample reference. (A submission
    // racing the unwind may land on the not-yet-flagged primary once; it
    // is drained with the typed error and the next one reroutes.)
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let p = loop {
        assert!(std::time::Instant::now() < deadline, "primary never flagged dead");
        let p = match handle.submit_keyed("m", sample(1), key, None) {
            Ok(p) => p,
            Err(other) => panic!("keyed submit got {other:?}"),
        };
        if p.shard() != primary {
            break p;
        }
        assert!(matches!(p.wait(), Err(ServeError::SchedulerDied { .. })));
    };
    assert_eq!(p.shard(), sibling, "reroute must pick the deterministic survivor");
    let got: Vec<u32> = p.wait().unwrap().iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> =
        reference_row(&reference, &sample(1)).iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "rerouted request drifted from the reference");

    // The hash route itself never changed — `route_of` is pure in the id;
    // only the liveness mask moved the request.
    assert_eq!(handle.route_of("m", key), Some(primary));
    assert!(handle.stats().reroutes >= 1, "the reroute must be counted");
    server.shutdown();
}

/// A shard that keeps dying exhausts its restart budget and is marked
/// **permanently failed**: no further respawns, `/healthz` reports
/// `degraded`, and the sibling keeps serving.
#[test]
fn restart_budget_exhaustion_fails_the_shard_permanently_and_degrades_health() {
    let _g = lock();
    let model_a = build_model(94, 4);
    let model_b = build_model(95, 3);
    let mut registry = ModelRegistry::new();
    registry.load_packed("a", &model_a.save_bytes().unwrap()).unwrap();
    registry.load_packed("b", &model_b.save_bytes().unwrap()).unwrap();
    let reference_b = InceptionTime::load_bytes(&model_b.save_bytes().unwrap()).unwrap();

    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        shards: 2,
        replicas: 1,
        restart_budget: 1, // one respawn, then permanent failure
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();
    let shard_a = handle.route_of("a", 0).unwrap();

    // First death: within budget, the supervisor brings the shard back.
    // The death is recorded before the drained request hears of it, so
    // the caller sees the shard down or its restart already counted.
    failpoint::set_failpoints("serve.shard=panic@1").unwrap();
    assert!(matches!(handle.predict("a", sample(0)), Err(ServeError::SchedulerDied { .. })));
    assert!(server.shards_alive() < 2 || handle.stats().restarts >= 1);
    failpoint::clear_failpoints();
    wait_all_alive(&server, 2);
    assert_eq!(handle.stats().restarts, 1);

    // Second death inside the rolling window: budget exhausted — the
    // supervisor gives up and marks the shard failed.
    failpoint::set_failpoints("serve.shard=panic@1").unwrap();
    assert!(matches!(handle.predict("a", sample(0)), Err(ServeError::SchedulerDied { .. })));
    failpoint::clear_failpoints();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.stats().shards_failed != 1 {
        assert!(std::time::Instant::now() < deadline, "shard was never marked failed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Permanently failed: no respawn, submissions fail fast naming the
    // shard, and the restart counter did not move again.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(server.shards_alive(), 1, "a failed shard must not be respawned");
    assert_eq!(handle.stats().restarts, 1);
    assert!(matches!(
        handle.submit("a", sample(1)),
        Err(ServeError::SchedulerDied { shard }) if shard == Some(shard_a)
    ));

    // The sibling still answers with reference bits.
    let got: Vec<u32> =
        handle.predict("b", sample(2)).unwrap().iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> =
        reference_row(&reference_b, &sample(2)).iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);

    // `/healthz` renders the permanent failure as a degraded 200.
    let telemetry = server.serve_telemetry("127.0.0.1:0").unwrap();
    let (status, body) = http_get(telemetry.addr(), "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"shards_failed\":1"), "{body}");
    server.shutdown();
    telemetry.shutdown();
}

/// The per-model circuit breaker: K consecutive failed batches open it
/// (fast `CircuitOpen` sheds, no queue touched), the cooldown admits one
/// probe, and a successful probe closes it — after which answers are
/// bitwise identical to a never-tripped server.
#[test]
fn circuit_opens_after_consecutive_failures_and_a_probe_closes_it() {
    let _g = lock();
    let model = build_model(96, 4);
    let mut registry = ModelRegistry::new();
    registry.load_packed("m", &model.save_bytes().unwrap()).unwrap();
    let reference = InceptionTime::load_bytes(&model.save_bytes().unwrap()).unwrap();

    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        shards: 1,
        circuit_threshold: 2,
        circuit_cooldown: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();

    // Every batch panics while armed: two consecutive Inference failures
    // reach the threshold and open the circuit.
    failpoint::set_failpoints("serve.batch=panic").unwrap();
    for i in 0..2 {
        assert!(matches!(handle.predict("m", sample(i)), Err(ServeError::Inference { .. })));
    }
    // Open: submissions shed fast with the typed error, without queueing.
    match handle.predict("m", sample(2)) {
        Err(ServeError::CircuitOpen { model }) => assert_eq!(model, "m"),
        other => panic!("open circuit admitted a request: {other:?}"),
    }
    failpoint::clear_failpoints();

    // Still inside the cooldown: even with the fault gone, the breaker
    // sheds — that is the point (no scheduler time for a poisoned model).
    assert!(matches!(handle.predict("m", sample(3)), Err(ServeError::CircuitOpen { .. })));

    // After the cooldown one probe is admitted; it succeeds and closes the
    // circuit, and the answer carries reference bits.
    std::thread::sleep(Duration::from_millis(250));
    let got: Vec<u32> =
        handle.predict("m", sample(4)).unwrap().iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> =
        reference_row(&reference, &sample(4)).iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "post-recovery answer drifted from the reference");
    // Closed again: requests flow freely.
    handle.predict("m", sample(5)).unwrap();

    let stats = handle.stats();
    assert_eq!(stats.circuit_opens, 1, "the circuit opened exactly once");
    assert!(stats.shed_circuit >= 2, "open-circuit sheds must be counted");
    assert_eq!(server.metrics().snapshot().gauge("serve.circuit0.state"), Some(0));
    server.shutdown();
}

/// Retries must never violate the caller's deadline: against a hopelessly
/// overloaded server, `predict_with_retry` returns a typed error within
/// the deadline budget (plus scheduling slack) — it never sleeps through a
/// backoff that would cross the deadline.
#[test]
fn retries_respect_the_overall_deadline_budget() {
    let _g = lock();
    let model = build_model(97, 3);
    let mut registry = ModelRegistry::new();
    registry.load_packed("m", &model.save_bytes().unwrap()).unwrap();

    // Park the scheduler (unreachable batch, long wait) and make the queue
    // one deep: one parked request keeps every later submission Overloaded.
    let cfg = ServeConfig {
        max_batch: 10_000,
        max_wait: Duration::from_secs(10),
        max_queue: 1,
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();
    let parked = handle.submit("m", sample(0)).unwrap();

    let policy =
        RetryPolicy { max_attempts: 8, base_backoff: Duration::from_millis(40), jitter: 0 };
    let deadline = Duration::from_millis(150);
    let t0 = std::time::Instant::now();
    let err = handle.predict_with_retry("m", &sample(1), policy, Some(deadline)).unwrap_err();
    let elapsed = t0.elapsed();

    // Overloaded is retryable, so some retries happened — but the backoff
    // schedule (40, 80, 160, ... ms) crosses the 150 ms budget long before
    // 8 attempts, and the call must give up with the *last real error*
    // rather than sleep past the deadline.
    assert!(
        matches!(err, ServeError::Overloaded { .. } | ServeError::DeadlineExceeded),
        "unexpected terminal error: {err:?}"
    );
    assert!(
        elapsed < deadline + Duration::from_millis(350),
        "retry loop overshot its deadline budget: {elapsed:?}"
    );

    server.shutdown(); // drains the parked request
    parked.wait().unwrap();
}

/// Randomized chaos soak: with shard-kill failpoints firing
/// *probabilistically* under concurrent retrying load, every request
/// reaches a terminal outcome, every successful answer is **bitwise
/// identical** to a never-killed oracle, no retry overshoots its deadline,
/// and after the storm the supervisor has healed the server back to full
/// strength — still answering with oracle bits.
#[test]
fn randomized_shard_kill_soak_heals_and_stays_bit_identical() {
    let _g = lock();
    let model = build_model(98, 4);
    let mut registry = ModelRegistry::new();
    registry.load_packed("m", &model.save_bytes().unwrap()).unwrap();
    let reference = InceptionTime::load_bytes(&model.save_bytes().unwrap()).unwrap();

    // The oracle: per-sample single-row predictions, computed before any
    // fault is armed. Soak answers must match these bit for bit.
    const SOAK_REQS: usize = 150; // per worker thread
    let oracle: Vec<Vec<u32>> = (0..8)
        .map(|i| reference_row(&reference, &sample(i)).iter().map(|v| v.to_bits()).collect())
        .collect();

    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        shards: 2,
        replicas: 2,
        restart_budget: 1_000, // the soak must never exhaust it
        restart_window: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let handle = server.handle();

    // Fixed seed: the kill schedule is reproducible run to run.
    failpoint::set_failpoint_seed(0xC4A05);
    failpoint::set_failpoints("serve.shard=panic%0.02").unwrap();

    let deadline = Duration::from_secs(5);
    let policy =
        RetryPolicy { max_attempts: 6, base_backoff: Duration::from_millis(2), jitter: 1_000 };
    let outcomes: Vec<(usize, Result<Vec<u32>, ServeError>, Duration)> =
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let handle = handle.clone();
                    scope.spawn(move || {
                        (0..SOAK_REQS)
                            .map(|r| {
                                let i = (w * SOAK_REQS + r) % 8;
                                let t0 = std::time::Instant::now();
                                let out = handle
                                    .predict_with_retry("m", &sample(i), policy, Some(deadline))
                                    .map(|row| row.iter().map(|v| v.to_bits()).collect());
                                (i, out, t0.elapsed())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
    failpoint::clear_failpoints();
    failpoint::set_failpoint_seed(lightts_obs::failpoint::DEFAULT_SEED);

    // Every request terminated — the scope join proves none hung — and
    // every success is oracle-exact; failures are only the honest
    // fault-class errors a kill storm can produce.
    let mut ok = 0usize;
    for (i, out, elapsed) in &outcomes {
        assert!(
            *elapsed <= deadline + Duration::from_secs(2),
            "request overshot its deadline budget: {elapsed:?}"
        );
        match out {
            Ok(bits) => {
                ok += 1;
                assert_eq!(bits, &oracle[*i], "sample {i}: soak answer drifted from oracle");
            }
            Err(
                ServeError::SchedulerDied { .. }
                | ServeError::Overloaded { .. }
                | ServeError::DeadlineExceeded,
            ) => {}
            Err(other) => panic!("soak produced a non-fault error: {other:?}"),
        }
    }
    assert!(ok * 2 >= SOAK_REQS, "retries should carry most requests through: {ok} ok");

    // The storm is over: the supervisor heals the server back to full
    // strength, and fresh answers still carry oracle bits.
    wait_all_alive(&server, 2);
    for (i, want) in oracle.iter().enumerate() {
        let got: Vec<u32> =
            handle.predict("m", sample(i)).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(&got, want, "sample {i}: post-soak answer drifted from oracle");
    }
    let stats = handle.stats();
    assert!(stats.restarts >= 1, "the fixed seed must kill at least one shard");
    assert_eq!(stats.shards_failed, 0, "the soak must stay within its restart budget");
    server.shutdown();
}

/// Minimal blocking HTTP GET against the telemetry server.
fn http_get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").expect("send");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read");
    let status = buf.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

// ------------------------------------------------------ distill: kill+resume

fn distill_data(seed: u64) -> lightts_data::LabeledDataset {
    use lightts_data::synth::{Generator, SynthConfig};
    let gen = Generator::new(
        SynthConfig { classes: 2, dims: 1, length: 24, difficulty: 0.15, waveforms: 3 },
        seed,
    );
    gen.split("chaos-distill", 24, seed + 1).unwrap()
}

fn oracle_probs(ds: &lightts_data::LabeledDataset, sharp: f32) -> Tensor {
    let k = ds.num_classes();
    let mut t = Tensor::full(&[ds.len(), k], (1.0 - sharp) / (k as f32 - 1.0));
    for (i, &l) in ds.labels().iter().enumerate() {
        t.set(&[i, l], sharp).unwrap();
    }
    t
}

fn weight_bits(m: &InceptionTime) -> Vec<u32> {
    m.store().iter().flat_map(|(_, p)| p.value.data().iter().map(|v| v.to_bits())).collect()
}

/// Kill a checkpointed distillation at several different epochs via the
/// `trainer.epoch` failpoint; the resumed run must produce weights
/// bit-identical to an uninterrupted `train_student` oracle.
#[test]
fn distill_killed_at_any_epoch_resumes_bit_identically() {
    let _g = lock();
    let train = distill_data(301);
    let q = oracle_probs(&train, 0.9);
    let opts = StudentTrainOpts { epochs: 5, batch_size: 12, ..Default::default() };
    let cfg = InceptionConfig {
        blocks: vec![BlockSpec { layers: 2, filter_len: 8, bits: 8 }; 2],
        filters: 4,
        in_dims: 1,
        in_len: 24,
        num_classes: 2,
    };
    let oracle = train_student(&cfg, &train, std::slice::from_ref(&q), &[1.0], &opts).unwrap();
    let oracle_bits = weight_bits(&oracle);

    // Kill at the first epoch (nothing checkpointed yet), mid-run, and at
    // the last epoch (everything but the final snapshot done).
    for kill_at in [1usize, 3, 5] {
        let path = tmp(&format!("distill-kill{kill_at}.ckpt"));
        let _ = std::fs::remove_file(&path);
        failpoint::set_failpoints(&format!("trainer.epoch=err@{kill_at}")).unwrap();
        let err = train_student_checkpointed(
            &cfg,
            &train,
            std::slice::from_ref(&q),
            &[1.0],
            &opts,
            &path,
        )
        .unwrap_err();
        assert!(matches!(err, DistillError::Fault { .. }), "kill@{kill_at}: {err}");
        failpoint::clear_failpoints();

        let resumed = train_student_checkpointed(
            &cfg,
            &train,
            std::slice::from_ref(&q),
            &[1.0],
            &opts,
            &path,
        )
        .unwrap();
        assert_eq!(
            weight_bits(&resumed),
            oracle_bits,
            "kill@{kill_at}: resumed weights drifted from the uninterrupted run"
        );
        std::fs::remove_file(&path).unwrap();
    }

    // The checkpoint counters moved: kills + resumes are visible in the
    // global registry, so long runs expose their crash-safety machinery.
    let snap = lightts_obs::global().snapshot();
    assert!(snap.counter("checkpoint.writes").unwrap_or(0) >= 5);
    assert!(snap.counter("checkpoint.resumes").unwrap_or(0) >= 2);
}

/// A checkpoint write that fails (the `checkpoint.write` failpoint stands
/// in for a full disk) surfaces as a typed error — and never leaves a
/// half-written file where the checkpoint belongs.
#[test]
fn failed_checkpoint_write_is_a_typed_error_and_leaves_no_file() {
    let _g = lock();
    let train = distill_data(302);
    let q = oracle_probs(&train, 0.9);
    let opts = StudentTrainOpts { epochs: 1, batch_size: 12, ..Default::default() };
    let cfg = InceptionConfig {
        blocks: vec![BlockSpec { layers: 2, filter_len: 8, bits: 8 }; 2],
        filters: 4,
        in_dims: 1,
        in_len: 24,
        num_classes: 2,
    };
    let path = tmp("distill-badwrite.ckpt");
    let _ = std::fs::remove_file(&path);
    failpoint::set_failpoints("checkpoint.write=err@1").unwrap();
    let err = train_student_checkpointed(&cfg, &train, &[q], &[1.0], &opts, &path).unwrap_err();
    failpoint::clear_failpoints();
    assert!(matches!(err, DistillError::Checkpoint { .. }), "{err}");
    assert!(!path.exists(), "failed write must not leave a checkpoint behind");
}

// --------------------------------------------------------- MOBO: kill+resume

/// Order- and bit-sensitive digest of a MOBO run: every trial's setting,
/// accuracy (exact bits), and size.
fn mobo_fingerprint(out: &MoboOutcome) -> Vec<(String, u64, u64)> {
    out.evaluated
        .iter()
        .map(|e| (format!("{:?}", e.setting), e.accuracy.to_bits(), e.size_bits))
        .collect()
}

/// Kill a resumable MOBO search at several trials via the `mobo.trial`
/// failpoint; each resumed run must reproduce the uninterrupted run's
/// trial sequence and frontier exactly.
#[test]
fn mobo_killed_at_any_trial_resumes_bit_identically() {
    let _g = lock();
    let space = SearchSpace::paper_default(1, 24, 3, 4);
    let cfg = MoboConfig {
        q: 9,
        p_init: 3,
        candidates: 24,
        repr: SpaceRepr::Normalized,
        seed: 0xC4A05,
        ..MoboConfig::default()
    };
    let oracle =
        |st: &lightts_search::space::StudentSetting| Ok(1.0 / (1.0 + space.size_bits(st) as f64));
    let plain = run_mobo(&space, oracle, &cfg).unwrap();
    let want = mobo_fingerprint(&plain);
    let want_frontier: Vec<_> =
        plain.frontier.iter().map(|e| (e.accuracy.to_bits(), e.size_bits)).collect();

    // Kill inside random init (trial 2), at the init/BO boundary (4), and
    // deep into the BO loop (8).
    for kill_at in [2usize, 4, 8] {
        let path = tmp(&format!("mobo-kill{kill_at}.ckpt"));
        let _ = std::fs::remove_file(&path);
        failpoint::set_failpoints(&format!("mobo.trial=err@{kill_at}")).unwrap();
        let err = run_mobo_resumable(&space, oracle, &cfg, &path).unwrap_err();
        assert!(matches!(err, SearchError::Fault { .. }), "kill@{kill_at}: {err}");
        failpoint::clear_failpoints();

        let resumed = run_mobo_resumable(&space, oracle, &cfg, &path).unwrap();
        assert_eq!(
            mobo_fingerprint(&resumed),
            want,
            "kill@{kill_at}: resumed trial sequence drifted"
        );
        let got_frontier: Vec<_> =
            resumed.frontier.iter().map(|e| (e.accuracy.to_bits(), e.size_bits)).collect();
        assert_eq!(got_frontier, want_frontier, "kill@{kill_at}: frontier drifted");
        std::fs::remove_file(&path).unwrap();
    }
}

// ------------------------------------------------- admission control (prop) --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Admission control invariant: with the scheduler parked (huge batch,
    /// long wait), exactly `min(n, max_queue)` submissions are accepted,
    /// the rest are shed with a typed `Overloaded`, and every accepted
    /// request is eventually answered.
    #[test]
    fn admission_never_exceeds_queue_bound(n in 1usize..12, max_queue in 1usize..6) {
        let _g = lock(); // a stray armed failpoint would poison the batches
        let model = build_model(72, 3);
        let mut registry = ModelRegistry::new();
        registry.load_packed("m", &model.save_bytes().unwrap()).unwrap();
        // The queue only fills if the scheduler is not draining it: an
        // unreachable max_batch and a long max_wait park it until
        // shutdown.
        let cfg = ServeConfig {
            max_batch: 10_000,
            max_wait: Duration::from_secs(10),
            max_queue,
            ..ServeConfig::default()
        };
        let server = Server::start(registry, cfg);
        let handle = server.handle();

        let mut accepted = Vec::new();
        let mut shed = 0usize;
        for i in 0..n {
            match handle.submit("m", sample(i)) {
                Ok(p) => accepted.push(p),
                Err(ServeError::Overloaded { max_queue: mq, .. }) => {
                    prop_assert_eq!(mq, max_queue);
                    shed += 1;
                }
                Err(other) => return Err(TestCaseError::Fail(format!("unexpected: {other:?}"))),
            }
        }
        prop_assert_eq!(accepted.len(), n.min(max_queue));
        prop_assert_eq!(shed, n.saturating_sub(max_queue));
        prop_assert_eq!(handle.stats().shed_overload, shed as u64);

        server.shutdown(); // drain: the parked batch runs now
        let mut answered = 0usize;
        for p in accepted {
            prop_assert_eq!(p.wait().unwrap().len(), 3);
            answered += 1;
        }
        prop_assert_eq!(answered, n.min(max_queue));
    }
}
