//! Allocation regression: steady-state training steps must be served
//! entirely from the tensor buffer pool.
//!
//! The training loop (`InceptionTime::train_epochs`) hoists one `Tape` +
//! `Bindings` pair and `reset`s them per mini-batch, and every transient
//! kernel buffer (padded conv inputs and gradients, matmul outputs,
//! elementwise results) is drawn from the thread-local grow-only pool in
//! `lightts_tensor::pool`. After one warm-up pass has populated the size
//! buckets, further epochs over same-shaped mini-batches must therefore hit
//! the pool every single time — **zero** new `Vec` allocations per step.
//!
//! Batch buffers come from the pool too. A batch allocated with a plain
//! `Vec` is still recycled into the grow-only pool when its tensor drops,
//! so when its element count is not a power of two (no pooled slab of
//! exactly its capacity is ever handed out again) every step parks one more
//! slab: the miss counter stays flat while the pool's held bytes grow by
//! one batch per step. The second half of the test trains a classifier and
//! a forecaster on such batches and requires the held bytes to stay put.
//!
//! Evaluation is held to the same rule. `InceptionTime::logits` compiles
//! the model and runs the plan, whose scratch is pooled and whose logits
//! tensor takes its buffer from the pool. The last phase evaluates a
//! 300-row dataset (chunks of 256 and 44 rows) once to warm the pool, and
//! three more evaluations must leave the held bytes where they were. An
//! evaluation that allocated its activations with plain `Vec`s parked them
//! in the pool on every call.
//!
//! The assertions use the *thread-local* counters, so they measure only
//! this test's thread. The test still lives in its own integration binary
//! (one `#[test]`, run with no sibling tests) so no concurrent test can
//! interleave pool traffic on this thread either.

use lightts::models::forecaster::{ForecastConfig, Forecaster};
use lightts::models::inception::{InceptionConfig, InceptionTime, TrainConfig};
use lightts::models::Classifier;
use lightts::tensor::pool;
use lightts::tensor::rng::seeded;
use lightts_data::forecast::{synthetic_series, windows_from_series};
use lightts_data::synth::{Generator, SynthConfig};

#[test]
fn steady_state_training_epochs_are_pool_miss_free() {
    // Tiny but real workload: 2 classes, 32 train samples, batch 16 divides
    // the set evenly so every epoch replays identical mini-batch shapes.
    let gen = Generator::new(
        SynthConfig { classes: 2, dims: 1, length: 32, difficulty: 0.3, waveforms: 2 },
        13,
    );
    let train = gen.split("allocreg", 32, 4).unwrap();
    let mut rng = seeded(5);
    let mut model =
        InceptionTime::new(InceptionConfig::student(1, 32, 2, 4, 32), &mut rng).unwrap();
    let cfg = TrainConfig { epochs: 1, batch_size: 16, lr: 0.01, adam: true, seed: 3 };

    // Warm-up epoch: populates the pool's size buckets (every miss here is
    // the one-time cost of growing the slabs).
    model.fit(&train, &cfg).unwrap();

    let warm_misses = pool::thread_pool_misses();
    let warm_hits = pool::pool_hits();

    // Epochs 2..N: every transient buffer must now be recycled. A single
    // pool miss here is a regression — some op started allocating fresh
    // `Vec`s in the hot path.
    let cfg_more = TrainConfig { epochs: 3, ..cfg };
    model.fit(&train, &cfg_more).unwrap();

    let miss_delta = pool::thread_pool_misses() - warm_misses;
    assert_eq!(
        miss_delta, 0,
        "steady-state training epochs allocated {miss_delta} fresh buffers \
         (pool misses) — the zero-allocation training-step contract is broken"
    );
    // Sanity: the epochs actually exercised the pool rather than bypassing it.
    assert!(
        pool::pool_hits() > warm_hits,
        "training epochs recorded no pool hits at all — the loop is not \
         routing buffers through the pool, so the miss check is vacuous"
    );

    // Batch 12 of 32 rows: 12 × 1 × 32 = 384 input values, not a power of
    // two. One warm-up epoch, then the held bytes must not move.
    let odd = TrainConfig { batch_size: 12, ..cfg };
    model.fit(&train, &odd).unwrap();
    let held = pool::thread_pool_held_bytes();
    model.fit(&train, &TrainConfig { epochs: 3, ..odd }).unwrap();
    assert_eq!(
        pool::thread_pool_held_bytes(),
        held,
        "the pool grew across steady classifier epochs on 384-value batches"
    );

    // Forecast windows of 24 steps, horizon 3: 32 × 24 inputs and 32 × 3
    // targets per batch.
    let series = synthetic_series(1, 200, 0.05, 7);
    let splits = windows_from_series("allocreg", &series, 24, 3, 2, 0.15, 0.15).unwrap();
    let mut forecaster =
        Forecaster::new(ForecastConfig::for_task(&splits.train, 4, 32), &mut rng).unwrap();
    forecaster.fit(&splits.train, 1, 0.01, 3).unwrap();
    let held = pool::thread_pool_held_bytes();
    forecaster.fit(&splits.train, 3, 0.01, 3).unwrap();
    assert_eq!(
        pool::thread_pool_held_bytes(),
        held,
        "the pool grew across steady forecaster epochs"
    );

    let eval = gen.split("allocreg-eval", 300, 6).unwrap();
    model.predict_proba_dataset(&eval).unwrap();
    let held = pool::thread_pool_held_bytes();
    for _ in 0..3 {
        model.predict_proba_dataset(&eval).unwrap();
    }
    assert_eq!(
        pool::thread_pool_held_bytes(),
        held,
        "the pool grew across evaluations of a 300-row dataset"
    );
}
